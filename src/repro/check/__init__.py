"""Correctness tooling: reference oracles, scenario fuzzing, goldens.

The check subsystem is the safety net under the optimized pipeline:

* :mod:`repro.check.oracles` — deliberately-naive reimplementations of
  the BGP decision process, Gao-Rexford path availability,
  longest-prefix match, and the Best/Short classifier, plus the
  readable reference tree construction the array kernel must match;
* :mod:`repro.check.scenarios` — deterministic seeded generation of
  perturbed topologies and decision batches;
* :mod:`repro.check.differential` — optimized-vs-oracle comparisons
  plus metamorphic invariants, and one seeded BGP scenario driver
  (:func:`~repro.check.differential.check_bgp_scenario`) whose
  ``bgp-withdraw``, ``bgp-reuse`` and ``bgp-stable`` assertion families
  hold the simulator's withdrawal resets and fallbacks and its
  converged-state copies to its own event-driven delivery, and every
  convergence to the exact fixed point of the stable-state oracle,
  with no speaker exempt;
* :mod:`repro.check.golden` — blessed snapshots of the canonical
  seeded study with a diff/bless workflow;
* :mod:`repro.check.runner` — the ``repro check run`` campaign driver.
"""

from repro.check.differential import (
    Disagreement,
    check_bgp_decision,
    check_bgp_scenario,
    check_gr_trees,
    check_labels,
    check_lpm,
    check_metamorphic,
    check_seed,
    oracle_labels,
)
from repro.check.golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_SEED,
    bless,
    check_against_golden,
    compute_snapshot,
    diff_snapshots,
    golden_path,
    serialize,
    snapshot_study,
)
from repro.check.oracles import (
    OracleLPM,
    OracleRoutingInfo,
    RoutingInfo,
    compute_routing_info,
    oracle_best_route,
    oracle_export,
    oracle_label,
    oracle_routing_info,
    oracle_stable_faults,
)
from repro.check.runner import ALL_CHECKS, KNOWN_CHECKS, CheckReport, run_checks
from repro.check.scenarios import Scenario, generate_scenario

__all__ = [
    "ALL_CHECKS",
    "CheckReport",
    "DEFAULT_GOLDEN_DIR",
    "Disagreement",
    "GOLDEN_SEED",
    "KNOWN_CHECKS",
    "OracleLPM",
    "OracleRoutingInfo",
    "RoutingInfo",
    "Scenario",
    "bless",
    "check_against_golden",
    "check_bgp_decision",
    "check_bgp_scenario",
    "check_gr_trees",
    "check_labels",
    "check_lpm",
    "check_metamorphic",
    "check_seed",
    "compute_routing_info",
    "compute_snapshot",
    "diff_snapshots",
    "generate_scenario",
    "golden_path",
    "oracle_best_route",
    "oracle_export",
    "oracle_label",
    "oracle_labels",
    "oracle_routing_info",
    "oracle_stable_faults",
    "run_checks",
    "serialize",
    "snapshot_study",
]
