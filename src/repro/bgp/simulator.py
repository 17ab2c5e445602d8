"""Event-driven BGP propagation over an AS graph.

The simulator wires one :class:`~repro.bgp.speaker.BGPSpeaker` per AS in
a ground-truth :class:`~repro.topology.graph.ASGraph`, delivers update
messages in deterministic FIFO order, and runs the network to a fixed
point after each origination change.  A logical clock advances once per
delivered message; it is the time base for the route-age tie-breaker.

A withdrawal by a prefix's only origin, with nothing in flight, skips
the message exchange: its fixed point is known (no AS holds a route),
so every speaker forgets the prefix in one pass.  That reset is also
what the event-driven withdrawal *should* reach, but flap damping can
freeze it part-way, and a speaker frozen during an earlier epoch keeps
Adj-RIB-In entries its neighbors have since withdrawn (ghost routes);
the reset clears both.  The ``bgp-withdraw`` check in
:mod:`repro.check.differential` holds the two paths together.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.policy import CountryLookup, Policy
from repro.bgp.routes import LocalRoute, Route
from repro.bgp.speaker import BGPSpeaker
from repro.net.ip import Prefix
from repro.obs.context import events_enabled, get_obs, publish
from repro.obs.events import CATEGORY_BGP
from repro.topology.graph import ASGraph


#: ``bgp_convergence_events`` histogram buckets (messages per run).
_CONVERGENCE_EVENT_BUCKETS = (0, 10, 100, 300, 1000, 3000, 10000, 30000, 100000)


class ConvergenceError(RuntimeError):
    """The network failed to reach a fixed point within the event budget.

    Carries the context a supervisor needs to attribute the blowout:
    which origination triggered it (``prefix``), the convergence epoch
    counter at the time (``epoch``), and how many events had been
    delivered when the hard limit fired (``delivered``).
    """

    def __init__(
        self,
        message: str,
        *,
        prefix: Optional[Prefix] = None,
        epoch: int = 0,
        delivered: int = 0,
    ) -> None:
        super().__init__(message)
        self.prefix = prefix
        self.epoch = epoch
        self.delivered = delivered


class BGPSimulator:
    """Propagates BGP routes across an AS topology until convergence."""

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Dict[int, Policy]] = None,
        country_of: Optional[CountryLookup] = None,
        max_events_per_link: int = 400,
        flap_limit: int = 60,
        soft_limit_fraction: float = 0.8,
    ) -> None:
        self.graph = graph
        self._country_of = country_of
        policies = policies or {}
        self.speakers: Dict[int, BGPSpeaker] = {}
        for asn in graph.asns():
            policy = policies.get(asn) or Policy(asn=asn)
            self.speakers[asn] = BGPSpeaker(
                asn,
                policy,
                graph.neighbors(asn),
                relationship_resolver=graph.relationship,
                flap_limit=flap_limit,
            )
        self.clock = 0
        num_links = max(1, graph.num_links())
        self._max_events = max_events_per_link * num_links
        #: Event count at which the soft-limit warning fires (once per
        #: ``run``), before the hard ConvergenceError at ``_max_events``.
        self._soft_events = int(self._max_events * soft_limit_fraction)
        #: Supervisor hook: called as ``on_soft_limit(prefix, epoch,
        #: delivered)`` when a run crosses the soft event limit — the
        #: early-warning signal a circuit breaker can act on before the
        #: hard limit aborts the epoch.
        self.on_soft_limit = None
        #: Convergence epoch counter (one per origination change).
        self.epoch = 0
        self._origination_prefix: Optional[Prefix] = None
        #: "originate" or "withdraw": the change the current run converges.
        self._convergence_kind = "originate"
        #: FIFO of (destination ASN, message) awaiting delivery.
        self._queue: Deque[Tuple[int, object]] = deque()

    # ------------------------------------------------------------------
    # Origination API
    # ------------------------------------------------------------------
    def originate(
        self,
        asn: int,
        prefix: Prefix,
        poisoned: Iterable[int] = (),
    ) -> None:
        """Announce ``prefix`` from ``asn`` and converge the network.

        ``poisoned`` ASNs are carried in an AS-set wrapped by the
        origin's ASN (the paper's poisoning mechanism); those ASes will
        reject the announcement through loop prevention.
        """
        speaker = self._speaker(asn)
        speaker.originate(
            LocalRoute(prefix=prefix, origin_asn=asn, poisoned=frozenset(poisoned))
        )
        # Exports are re-evaluated even when the local route is
        # unchanged: the origin's export policy may have been edited
        # (e.g. PEERING steering announcements to a different mux set).
        self._origination_prefix = prefix
        self._convergence_kind = "originate"
        self._new_epoch()
        self._queue.extend(speaker.exports(prefix))
        self.run()

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        """Withdraw ``asn``'s origination of ``prefix`` and converge.

        When ``asn`` is the prefix's only origin and no messages are in
        flight, the converged state is known in advance — no AS holds a
        route — so the epoch advances as usual and every speaker then
        forgets the prefix, without delivering a message.  The clock
        stays put: route ages are only compared within one prefix at
        one speaker, and a clock that never goes back keeps every age
        tie-break.  Otherwise (a second origin, or an unconverged
        queue) the withdrawal is delivered event by event.
        """
        origins = [
            other
            for other, speaker in self.speakers.items()
            if speaker.originates(prefix)
        ]
        if self._queue or origins != [asn]:
            self._withdraw_by_events(asn, prefix)
            return
        self.speakers[asn].withdraw_origin(prefix)
        self._origination_prefix = prefix
        self._new_epoch()
        cleared = sum(speaker.forget(prefix) for speaker in self.speakers.values())
        if events_enabled():
            publish(
                CATEGORY_BGP,
                "withdraw_reset",
                prefix=str(prefix),
                epoch=self.epoch,
                cleared=cleared,
            )

    def _withdraw_by_events(self, asn: int, prefix: Prefix) -> None:
        """Deliver the withdrawal message by message.

        The fallback of :meth:`withdraw`, and the oracle the
        ``bgp-withdraw`` check holds its direct reset to.
        """
        speaker = self._speaker(asn)
        self._origination_prefix = prefix
        self._convergence_kind = "withdraw"
        if speaker.withdraw_origin(prefix):
            self._new_epoch()
            self._queue.extend(speaker.exports(prefix))
        self.run()

    def _new_epoch(self) -> None:
        self.epoch += 1
        for speaker in self.speakers.values():
            speaker.reset_damping()

    # ------------------------------------------------------------------
    # Propagation engine
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Deliver queued messages to a fixed point; returns event count.

        With telemetry on, a converged run adds its event count to
        ``bgp_events_delivered_total`` and ``bgp_convergence_events``,
        labelled with the kind of origination change that started it.
        """
        queue = self._queue
        speakers = self.speakers
        country_of = self._country_of
        delivered = 0
        warned = False
        while queue:
            if delivered >= self._max_events:
                publish(
                    CATEGORY_BGP,
                    "convergence_error",
                    prefix=str(self._origination_prefix),
                    epoch=self.epoch,
                    delivered=delivered,
                )
                raise ConvergenceError(
                    f"no convergence after {delivered} events for "
                    f"{self._origination_prefix} (epoch {self.epoch}); "
                    "likely a policy dispute wheel",
                    prefix=self._origination_prefix,
                    epoch=self.epoch,
                    delivered=delivered,
                )
            if not warned and delivered >= self._soft_events:
                warned = True
                publish(
                    CATEGORY_BGP,
                    "soft_limit",
                    prefix=str(self._origination_prefix),
                    epoch=self.epoch,
                    delivered=delivered,
                )
                if self.on_soft_limit is not None:
                    self.on_soft_limit(
                        self._origination_prefix, self.epoch, delivered
                    )
            target, message = queue.popleft()
            self.clock += 1
            delivered += 1
            speaker = speakers[target]
            if speaker.receive(message, self.clock, country_of):
                queue.extend(speaker.exports(message.prefix))
        if delivered and events_enabled():
            publish(
                CATEGORY_BGP,
                "converged",
                epoch=self.epoch,
                delivered=delivered,
            )
        self._record_convergence(delivered)
        return delivered

    def _record_convergence(self, delivered: int) -> None:
        metrics = get_obs().metrics
        if not metrics.enabled:
            return
        kind = self._convergence_kind
        metrics.counter(
            "bgp_events_delivered_total",
            "BGP update messages delivered by converged runs.",
        ).labels(kind=kind).inc(delivered)
        metrics.histogram(
            "bgp_convergence_events",
            "BGP update messages delivered per converged run.",
            buckets=_CONVERGENCE_EVENT_BUCKETS,
        ).labels(kind=kind).observe(delivered)

    def discard_pending(self) -> int:
        """Drop all undelivered messages; returns how many were dropped.

        Recovery hook for supervisors: after a :class:`ConvergenceError`
        the queue still holds the un-converged tail of the epoch, which
        would otherwise leak into the next origination.  The speakers'
        RIBs keep whatever state the delivered prefix messages built —
        exactly like a real network frozen mid-convergence — so the
        caller should follow up with a withdraw/re-announce to restore
        a known-good state.  With the queue empty, a withdrawal by the
        sole origin takes the direct reset, which clears that
        half-propagated state completely.
        """
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def _speaker(self, asn: int) -> BGPSpeaker:
        speaker = self.speakers.get(asn)
        if speaker is None:
            raise KeyError(f"AS{asn} is not in the topology")
        return speaker

    # ------------------------------------------------------------------
    # Inspection API
    # ------------------------------------------------------------------
    def best_route(self, asn: int, prefix: Prefix) -> Optional[Route]:
        return self._speaker(asn).best(prefix)

    def decision_step(self, asn: int, prefix: Prefix):
        return self._speaker(asn).decision_step(prefix)

    def candidate_routes(self, asn: int, prefix: Prefix) -> List[Route]:
        return self._speaker(asn).candidates(prefix)

    def forwarding_path(self, asn: int, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        """The AS-level data-plane path from ``asn`` toward ``prefix``.

        Follows each AS's best route's next hop; returns ``None`` when
        some AS on the way has no route or a forwarding loop appears
        (possible transiently or under broken policies).
        """
        path: List[int] = []
        visited = set()
        current = asn
        while True:
            if current in visited:
                return None
            visited.add(current)
            path.append(current)
            speaker = self._speaker(current)
            route = speaker.best(prefix)
            if route is None:
                return None
            if route.learned_from == current:
                return tuple(path)
            current = route.learned_from

    def damped_ases(self) -> Dict[int, frozenset]:
        """ASes whose state was frozen by flap damping this epoch."""
        return {
            asn: speaker.damped_prefixes
            for asn, speaker in self.speakers.items()
            if speaker.damped_prefixes
        }

    def rib_dump(self, prefix: Prefix) -> Dict[int, Route]:
        """Best route per AS for ``prefix`` (ASes with a route only)."""
        dump = {}
        for asn, speaker in self.speakers.items():
            route = speaker.best(prefix)
            if route is not None:
                dump[asn] = route
        return dump

    def reachable_ases(self, prefix: Prefix) -> frozenset:
        return frozenset(self.rib_dump(prefix))
