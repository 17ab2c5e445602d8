"""Tests for measurement-credit accounting and budgeted campaigns."""

import pytest

from repro.atlas import CampaignConfig, generate_probes, run_campaign
from repro.atlas.budget import BudgetExceeded, CreditLedger, plan_campaign
from repro.topogen import generate_internet
from repro.topogen.config import small_config


class TestCreditLedger:
    def test_charging_decrements(self):
        ledger = CreditLedger(daily_budget=100)
        ledger.charge("dns")  # 10
        ledger.charge("traceroute")  # 60
        assert ledger.spent == 70
        assert ledger.remaining == 30
        assert ledger.history == [("dns", 1), ("traceroute", 1)]

    def test_budget_exceeded(self):
        ledger = CreditLedger(daily_budget=50)
        with pytest.raises(BudgetExceeded):
            ledger.charge("traceroute")
        assert ledger.spent == 0

    def test_can_afford_and_max_affordable(self):
        ledger = CreditLedger(daily_budget=130)
        assert ledger.can_afford("traceroute", 2)
        assert not ledger.can_afford("traceroute", 3)
        assert ledger.max_affordable("traceroute") == 2
        assert ledger.max_affordable("dns") == 13

    def test_unknown_type_rejected(self):
        ledger = CreditLedger(daily_budget=100)
        with pytest.raises(ValueError):
            ledger.charge("http")
        with pytest.raises(ValueError):
            ledger.max_affordable("http")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            CreditLedger(daily_budget=-1)

    def test_batch_charge(self):
        ledger = CreditLedger(daily_budget=1000)
        cost = ledger.charge("dns", count=5)
        assert cost == 50
        assert ledger.spent == 50


class TestCreditLedgerConcurrency:
    """Regression: charge() must be atomic under concurrent spenders.

    The ledger keeps its lock although the study charges it from one
    thread.  Without it, the affordability check and the debit would be
    separate steps, so two racing threads could both pass the check and
    jointly overdraw the budget.
    """

    def test_racing_charges_never_overdraw(self):
        import threading

        # Exactly 20 dns charges fit; 80 attempts race for them.
        ledger = CreditLedger(daily_budget=200)
        admitted = []
        barrier = threading.Barrier(8)

        def spender():
            barrier.wait()
            for _ in range(10):
                try:
                    ledger.charge("dns")
                except BudgetExceeded:
                    pass
                else:
                    admitted.append(1)

        threads = [threading.Thread(target=spender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(admitted) == 20
        assert ledger.spent == 200
        assert ledger.remaining == 0
        assert len(ledger.history) == 20

    def test_ledger_survives_pickling_without_its_lock(self):
        """Ledgers ride to process-pool workers; locks cannot."""
        import pickle

        ledger = CreditLedger(daily_budget=100)
        ledger.charge("dns")
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.spent == 10
        # The revived ledger has a fresh, working lock.
        clone.charge("dns")
        assert clone.spent == 20


class TestPlanCampaign:
    def test_full_coverage_when_rich(self):
        ledger = CreditLedger(daily_budget=10 ** 6)
        probes, measurements = plan_campaign(ledger, num_probes=10, num_targets=5)
        assert probes == 10
        assert measurements == 50

    def test_probes_dropped_when_poor(self):
        # One probe x 5 targets costs 5 * 70 = 350 credits.
        ledger = CreditLedger(daily_budget=700)
        probes, measurements = plan_campaign(ledger, num_probes=10, num_targets=5)
        assert probes == 2
        assert measurements == 10

    def test_zero_cases(self):
        ledger = CreditLedger(daily_budget=100)
        assert plan_campaign(ledger, 0, 5) == (0, 0)
        assert plan_campaign(ledger, 5, 0) == (0, 0)
        with pytest.raises(ValueError):
            plan_campaign(ledger, -1, 5)


class TestBudgetedCampaign:
    def test_ledger_caps_probe_sweeps(self):
        internet = generate_internet(small_config(), seed=66)
        probes = generate_probes(internet, count=30, seed=66)
        # Budget for roughly two probes' sweeps only.
        num_names = sum(len(p.dns_names) for p in internet.content)
        ledger = CreditLedger(daily_budget=2 * num_names * 70 + 10)
        dataset = run_campaign(
            internet, probes, CampaignConfig(seed=1, ledger=ledger)
        )
        probes_used = {m.probe.probe_id for m in dataset.measurements}
        assert len(probes_used) <= 3
        assert ledger.spent <= ledger.daily_budget

    def test_unbudgeted_campaign_unlimited(self):
        internet = generate_internet(small_config(), seed=66)
        probes = generate_probes(internet, count=10, seed=66)
        dataset = run_campaign(internet, probes, CampaignConfig(seed=1))
        probes_used = {m.probe.probe_id for m in dataset.measurements}
        assert len(probes_used) == 10
