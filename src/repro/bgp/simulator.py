"""Event-driven BGP propagation over an AS graph.

The simulator wires one :class:`~repro.bgp.speaker.BGPSpeaker` per AS in
a ground-truth :class:`~repro.topology.graph.ASGraph`, queues update
messages in deterministic FIFO order, and runs the network to a fixed
point after each origination change.  A session delivers only its
newest queued update for a prefix, as a router sending from its
Adj-RIB-Out does (one entry per neighbor and prefix; RFC 4271 §3.2 and
§9.2.1.1): an update that a newer one from the same sender to the same
receiver superseded while it waited is dropped, never delivered.  A
logical clock advances once per delivered message, not per dropped
one; it is the time base for the route-age tie-breaker.

An origination that leads a prefix to a converged state the simulator
has already computed skips the message exchange: every speaker holds
the record of a prefix in that state or of a snapshot of it
(:mod:`repro.bgp.states`), shared rather than copied, and the clock
advances by the messages that state's convergence delivered
(:attr:`BGPSimulator.delivered` counts only the messages runs actually
deliver).  A withdrawal by a prefix's only origin always does: its
fixed point is the empty state, where no AS holds a route, so every
speaker drops its record and the clock stays.  A prefix copies the
records it shares just before messages for it are delivered.  The
``bgp-reuse`` and ``bgp-withdraw`` families of
:func:`repro.check.differential.check_bgp_scenario` hold every such
copied convergence to event delivery.

The event budget is the one convergence guard: a run that reaches it,
as a policy dispute wheel does, raises :class:`ConvergenceError`.
Every call ends at a fixed point or raises, and a run empties the
queue on every exit, so no message is in flight between calls.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.bgp.policy import NO_PREFIX_INPUTS, CountryLookup, Policy
from repro.bgp.routes import LocalRoute, Route
from repro.bgp.speaker import BGPSpeaker
from repro.bgp.states import ConvergedStates, EdgeKey, StateNode
from repro.net.ip import Prefix
from repro.obs.context import events_enabled, get_obs, publish
from repro.obs.events import CATEGORY_BGP
from repro.topology.graph import ASGraph


#: ``bgp_convergence_events`` histogram buckets (messages per run).
_CONVERGENCE_EVENT_BUCKETS = (0, 10, 100, 300, 1000, 3000, 10000, 30000, 100000)
#: ``bgp_convergence_seconds`` histogram buckets (seconds per run).
_CONVERGENCE_SECONDS_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)


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
    ) -> None:
        self.graph = graph
        #: Whois country by ASN, read once here: a domestic-preference
        #: import looks up every hop of every path it is offered.
        self._country_of: Optional[CountryLookup] = None
        if country_of is not None:
            self._country_of = {asn: country_of(asn) for asn in graph.asns()}.get
        policies = policies or {}
        self.speakers: Dict[int, BGPSpeaker] = {}
        for asn in graph.asns():
            policy = policies.get(asn) or Policy(asn=asn)
            self.speakers[asn] = BGPSpeaker(asn, policy, graph.neighbors(asn))
        self.clock = 0
        #: Messages delivered by every run, failed ones included; unlike
        #: the clock, a copied convergence does not advance it.
        self.delivered = 0
        num_links = max(1, graph.num_links())
        self._max_events = max_events_per_link * num_links
        #: Convergence epoch counter (one per origination change).
        self.epoch = 0
        self._origination_prefix: Optional[Prefix] = None
        #: "originate" or "withdraw": the change the current run converges.
        self._convergence_kind = "originate"
        #: FIFO of (destination ASN, message) awaiting delivery; empty
        #: between calls.
        self._queue: Deque[Tuple[int, object]] = deque()
        #: The converged state each prefix is in (see repro.bgp.states).
        self._states = ConvergedStates()
        #: Convergences copied from a known state, withdrawals included.
        self.reused = 0

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

        When the origination leads the prefix to a converged state that
        a prefix holds or a snapshot keeps (:mod:`repro.bgp.states`),
        every speaker holds that state's record instead of delivering
        messages.  The epoch advances and the clock advances by the
        messages that state's convergence delivered, so RIBs, clock and
        epoch end where event delivery leaves them.  Copied routes
        keep their install ages, whose order at each speaker is all the
        decision process reads.
        """
        speaker = self._speaker(asn)
        local = LocalRoute(prefix=prefix, origin_asn=asn, poisoned=frozenset(poisoned))
        parent, key, node = self._lookup(local)
        if node is not None and node.reusable():
            self._reuse(prefix, node, "originate")
            return
        delivered = self._deliver_origination(speaker, local)
        if parent is None:
            return  # from an unknown state: unknown
        if node is None:
            node = parent.children[key] = StateNode(delivered)
        self._states.arrive(prefix, node)

    def _lookup(
        self, local: LocalRoute
    ) -> Tuple[Optional[StateNode], EdgeKey, Optional[StateNode]]:
        """The prefix's state, the edge ``local`` takes from it, and the
        known state that edge leads to (each ``None`` when not known)."""
        key: EdgeKey = (
            local.origin_asn,
            local.poisoned,
            self._load_inputs(local.prefix),
        )
        parent = self._states.node(local.prefix)
        node = None if parent is None else parent.children.get(key)
        return parent, key, node

    def _originate_by_events(
        self, asn: int, prefix: Prefix, poisoned: Iterable[int] = ()
    ) -> None:
        """Deliver an origination message by message, leaving the
        prefix's state unknown: the oracle the ``bgp-reuse`` family
        holds every copied state to."""
        speaker = self._speaker(asn)
        self._load_inputs(prefix)
        self._deliver_origination(
            speaker,
            LocalRoute(prefix=prefix, origin_asn=asn, poisoned=frozenset(poisoned)),
        )

    def _deliver_origination(self, speaker: BGPSpeaker, local: LocalRoute) -> int:
        self._leave_to_deliver(local.prefix)
        speaker.originate(local)
        # Exports are re-evaluated even when the local route is
        # unchanged: the origin's export policy may have been edited
        # (e.g. PEERING steering announcements to a different mux set).
        self._origination_prefix = local.prefix
        self._convergence_kind = "originate"
        self.epoch += 1
        self._queue.extend(speaker.exports(local.prefix))
        return self.run()

    def _leave_to_deliver(self, prefix: Prefix) -> None:
        """``prefix`` is about to take delivered messages: its state
        becomes unknown, and it copies each record it still shares with
        a holder or the snapshot of the state it leaves."""
        shared = self._states.leave(prefix, self.speakers)
        if shared is not None:
            for asn, speaker in self.speakers.items():
                speaker.privatize(prefix, shared(asn))

    def _reuse(self, prefix: Prefix, node: StateNode, kind: str) -> None:
        """Converge ``prefix`` to ``node``'s state by holding its records
        (:meth:`BGPSpeaker.adopt`); ``kind`` is the change that led there,
        "originate" or "withdraw"."""
        source = self._states.source(node, self.speakers)
        self._states.leave(prefix, self.speakers)
        self._origination_prefix = prefix
        self._convergence_kind = kind
        self.epoch += 1
        for asn, speaker in self.speakers.items():
            speaker.adopt(prefix, source(asn))
        self.clock += node.delivered
        self.reused += 1
        self._states.arrive(prefix, node)
        if events_enabled():
            publish(
                CATEGORY_BGP,
                "converged",
                epoch=self.epoch,
                delivered=0,
                reused=True,
                skipped=node.delivered,
            )
        metrics = get_obs().metrics
        if metrics.enabled:
            metrics.counter(
                "bgp_convergences_reused_total",
                "Convergences copied from a known converged state "
                "instead of delivered.",
            ).labels(kind=self._convergence_kind).inc()

    def _load_inputs(self, prefix: Prefix) -> Tuple:
        """Load every speaker's prefix inputs for ``prefix`` and return
        the non-empty ones by AS."""
        loaded = []
        for asn, speaker in self.speakers.items():
            inputs = speaker.load_inputs(prefix)
            if inputs is not NO_PREFIX_INPUTS:
                loaded.append((asn, inputs))
        return tuple(loaded)

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        """Withdraw ``asn``'s origination of ``prefix`` and converge.

        When ``asn`` is the prefix's only origin, the converged state is
        known in advance: the empty state, the root of the converged
        states' trie, where no AS holds a route.  The prefix copies it
        as it copies any known state (:meth:`_reuse`): the epoch
        advances and every speaker drops its record, without delivering
        a message.  The clock stays put: route ages are only compared
        within one prefix at one speaker, and a clock that never goes
        back keeps every age tie-break.  Otherwise (a second origin)
        the withdrawal is delivered event by event.  A withdrawal by an
        AS that does not originate the prefix changes nothing and
        records nothing.
        """
        if not self._speaker(asn).originates(prefix):
            return
        if any(
            speaker.originates(prefix)
            for other, speaker in self.speakers.items()
            if other != asn
        ):
            self._withdraw_by_events(asn, prefix)
        else:
            self._reuse(prefix, self._states.root, "withdraw")

    def _withdraw_by_events(self, asn: int, prefix: Prefix) -> None:
        """Deliver the withdrawal message by message.

        The fallback of :meth:`withdraw`, and the oracle the
        ``bgp-withdraw`` family holds its copy of the empty state to.  It
        leaves the prefix's state unknown.
        """
        speaker = self._speaker(asn)
        self._load_inputs(prefix)
        self._leave_to_deliver(prefix)
        self._origination_prefix = prefix
        self._convergence_kind = "withdraw"
        if speaker.withdraw_origin(prefix):
            self.epoch += 1
            self._queue.extend(speaker.exports(prefix))
        self.run()

    # ------------------------------------------------------------------
    # Propagation engine
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Deliver queued messages to a fixed point; returns event count.

        Each session delivers only its newest queued update for a
        prefix.  A map local to the run, built from the queue when it
        starts, holds prefix -> (receiver, sender) -> newest queued
        entry; a popped entry that a newer one has superseded is dropped
        without advancing the clock or counting toward the event budget.
        The exports a delivered message causes are for its prefix, so
        they are recorded under the map entry its lookup found.

        A run that reaches the event budget raises
        :class:`ConvergenceError`.  Every exit, a failed or interrupted
        run's too, empties the queue: the undelivered tail is dropped,
        and the speakers keep what the delivered messages built.

        With telemetry on, a converged run adds its event count to
        ``bgp_events_delivered_total`` and ``bgp_convergence_events``,
        its dropped updates to ``bgp_updates_coalesced_total``, and its
        wall time to ``bgp_convergence_seconds``, labelled with the kind
        of origination change that started it.
        """
        started = time.perf_counter()
        queue = self._queue
        pop = queue.popleft
        push = queue.extend
        newest: Dict[Prefix, Dict[Tuple[int, int], Tuple[int, object]]] = {}
        for entry in queue:
            target, message = entry
            sessions = newest.get(message.prefix)
            if sessions is None:
                sessions = newest[message.prefix] = {}
            sessions[target, message.sender] = entry
        speakers = self.speakers
        country_of = self._country_of
        max_events = self._max_events
        clock = self.clock
        delivered = coalesced = 0
        try:
            while queue:
                entry = pop()
                target, message = entry
                prefix = message.prefix
                sessions = newest[prefix]
                if sessions[target, message.sender] is not entry:
                    coalesced += 1
                    continue
                if delivered >= max_events:
                    self._raise_unconverged(delivered)
                clock += 1
                delivered += 1
                speaker = speakers[target]
                record = speaker.receive(message, clock, country_of)
                if record is not None:
                    updates = speaker.exports(prefix, record)
                    push(updates)
                    for update in updates:
                        sessions[update[0], target] = update
        finally:
            queue.clear()
            self.clock = clock
            self.delivered += delivered
        if delivered and events_enabled():
            publish(
                CATEGORY_BGP,
                "converged",
                epoch=self.epoch,
                delivered=delivered,
                coalesced=coalesced,
            )
        self._record_convergence(
            delivered, coalesced, time.perf_counter() - started
        )
        return delivered

    def _raise_unconverged(self, delivered: int) -> None:
        """Raise the hard event limit's :class:`ConvergenceError`."""
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

    def _record_convergence(
        self, delivered: int, coalesced: int, seconds: float
    ) -> None:
        metrics = get_obs().metrics
        if not metrics.enabled:
            return
        kind = self._convergence_kind
        metrics.counter(
            "bgp_events_delivered_total",
            "BGP update messages delivered by converged runs.",
        ).labels(kind=kind).inc(delivered)
        metrics.counter(
            "bgp_updates_coalesced_total",
            "Queued BGP updates dropped by converged runs because a newer "
            "update on the same session and prefix superseded them.",
        ).labels(kind=kind).inc(coalesced)
        metrics.histogram(
            "bgp_convergence_events",
            "BGP update messages delivered per converged run.",
            buckets=_CONVERGENCE_EVENT_BUCKETS,
        ).labels(kind=kind).observe(delivered)
        metrics.histogram(
            "bgp_convergence_seconds",
            "Wall time per converged run of event delivery (copied "
            "convergences are counted by bgp_convergences_reused_total).",
            buckets=_CONVERGENCE_SECONDS_BUCKETS,
        ).labels(kind=kind).observe(seconds)

    def _speaker(self, asn: int) -> BGPSpeaker:
        speaker = self.speakers.get(asn)
        if speaker is None:
            raise KeyError(f"AS{asn} is not in the topology")
        return speaker

    # ------------------------------------------------------------------
    # Inspection API
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """How many queued updates await delivery (0 between calls)."""
        return len(self._queue)

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
