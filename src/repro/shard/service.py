"""Device-pool request serving: least-loaded routing over pool members.

:class:`PoolScanService` is the multi-device front end to the serve
layer: one shared :class:`~repro.serve.batcher.RequestBatcher` coalesces
submissions exactly as a single :class:`~repro.serve.service.ScanService`
would (launch groups are shape classes, so grouping is device-agnostic),
then ``flush`` routes whole groups onto pool members **longest-processing-
time first**: groups are ordered by padded element count descending and
each is placed on the member with the least accumulated simulated busy
time.  LPT keeps the makespan within 4/3 of optimal, and placing whole
groups preserves every batching win the single-device layer earned.

Each request is queued once, in the pool.  A member is a
:class:`ScanService` used as a plan cache plus a launch-with-retry
executor: ``_dispatch`` hands it the routed group as it stands
(:meth:`ScanService._serve`), and the member pops each ticket from the
pool's ticket dict only once its launch succeeds — so after a terminal
fault the unserved remainder is simply the group's requests whose
tickets are still in pool custody, ready to reroute.  Members keep
per-device plan caches and stats while all of them share one tuned-plan
store, so a workload tuned once serves the whole pool.  Aggregate throughput is
total logical elements over the pool **makespan** (the busiest member's
simulated time): members run concurrently, so that is the simulated
wall-clock of the whole mix.

All host work — drains, routing, fault draws, timeline replays, numerics
and busy-time updates — runs serially on the calling thread, so every
ticket a member serves is finished before ``_dispatch`` returns.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DeviceFault
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..serve.batcher import LaunchGroup, RequestBatcher, ScanRequest
from ..serve.resilience import (
    DEAD,
    DEGRADED,
    HEALTHY,
    SLOWDOWN_DEGRADED_THRESHOLD,
    MemberHealth,
    RetryPolicy,
)
from ..serve.service import (
    ScanService,
    ScanTicket,
    _sorted_by_submit_sequence,
)
from ..serve.stats import ops_snapshot, render, tune_store_snapshot
from .pool import DevicePool

__all__ = ["PoolScanService"]


class PoolScanService:
    """Pooled ``submit``/``flush`` façade with least-loaded group routing."""

    def __init__(
        self,
        num_devices: int = 2,
        *,
        config: DeviceConfig = ASCEND_910B4,
        pool: "DevicePool | None" = None,
        tune_store=None,
        max_batch: int = 64,
        min_group: int = 2,
        gm_budget: "int | None" = None,
        retry: "RetryPolicy | None" = None,
        controller=None,
        parallel: "int | None" = None,
        graph_fusion: str = "conservative",
    ):
        # serial only; the ROADMAP "Benchmark follow-up" drops the keyword
        if parallel is not None:
            raise ConfigError(
                f"parallel={parallel!r}: the pool serves serially; "
                f"pass parallel=None"
            )
        self.pool = (
            pool
            if pool is not None
            else DevicePool(num_devices, config, tune_store=tune_store)
        )
        self.tune_store = (
            tune_store if tune_store is not None else self.pool.tune_store
        )
        #: optional :class:`repro.verify.ScheduleController`; permutes the
        #: drain order, launch-group pick order (simulated member
        #: completion order), routing tie-breaks and failover recall order
        self.controller = controller
        self.workers = [
            ScanService(
                ctx,
                max_batch=max_batch,
                min_group=min_group,
                gm_budget=gm_budget,
                tune_store=self.tune_store,
                retry=retry,
                graph_fusion=graph_fusion,
            )
            for ctx in self.pool
        ]
        # the shared batcher only needs a cache for key construction, and
        # plan keys are shape classes — device-independent by design
        self.batcher = RequestBatcher(
            self.workers[0].cache,
            max_batch=max_batch,
            min_group=min_group,
            controller=controller,
        )
        #: accumulated simulated busy ns per member (the routing load)
        self.busy_ns = [0.0] * len(self.workers)
        #: true pool makespan: simulated wall-clock accumulated across
        #: serving rounds.  Members run concurrently *within* a round (a
        #: flush, or one scheduler dispatch window), so each round adds
        #: its longest member delta; rounds are sequential, so the deltas
        #: add up — unlike ``max(busy_ns)``, idle time a member spends
        #: waiting between rounds is part of the span
        self.span_ns = 0.0
        #: launch groups routed to each member
        self.groups_routed = [0] * len(self.workers)
        #: launch groups recalled from each member after a terminal fault
        self.failovers = [0] * len(self.workers)
        self._dead = [False] * len(self.workers)
        #: per-group reroute budget before flush gives up and re-raises;
        #: generous — a group only burns one unit when a member exhausts
        #: its whole retry policy on it
        self._max_group_failovers = 3 * len(self.workers)
        self._tickets: dict[int, ScanTicket] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.workers)

    # -- submission ----------------------------------------------------------

    def _prepare(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
        t_arrival_ns: "float | None" = None,
        deadline_ns: "float | None" = None,
    ) -> "tuple[ScanRequest, ScanTicket]":
        """Validate one pool submission and track its ticket without
        enqueueing — the admission seam the open-loop traffic scheduler
        (:class:`repro.shard.scheduler.TrafficScheduler`) uses to own
        batching itself while ids, tickets and routing stay pool-level."""
        req_id = self._next_id
        self._next_id += 1
        req, ticket = self.workers[0]._prepare(
            x, algorithm=algorithm, s=s, exclusive=exclusive, req_id=req_id
        )
        req.t_arrival_ns = ticket.t_arrival_ns = t_arrival_ns
        req.deadline_ns = ticket.deadline_ns = deadline_ns
        self._tickets[req_id] = ticket
        return req, ticket

    def submit(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
    ) -> ScanTicket:
        """Enqueue one 1-D scan on the pool; the serving device is chosen
        at ``flush`` time (the ticket's ``device`` field records it)."""
        req, ticket = self._prepare(
            x, algorithm=algorithm, s=s, exclusive=exclusive
        )
        self.batcher.add(req)
        return ticket

    def submit_graph(self, graph, inputs, *, params=None) -> ScanTicket:
        """Enqueue one operator-graph request on the pool (see
        :meth:`ScanService.submit_graph`); the serving member is chosen at
        ``flush`` time.

        All members share one :class:`~repro.graph.interp.GraphRunner`:
        lowered programs are captured on its build device and replay on
        any member (timelines are memoized per config identity), so a
        graph lowered once serves the whole pool — exactly like the
        shared tuned-plan store."""
        req_id = self._next_id
        req, ticket = self.workers[0]._prepare_graph(
            graph, inputs, params=params, req_id=req_id
        )
        self._next_id += 1
        runner = self.workers[0]._graph_runner()
        for worker in self.workers[1:]:
            if worker.graph_runner is None:
                worker.graph_runner = runner
        self._tickets[req_id] = ticket
        self.batcher.add(req)
        return ticket

    def scan(self, x: np.ndarray, **kwargs) -> ScanTicket:
        """Convenience: submit one request and flush immediately."""
        ticket = self.submit(x, **kwargs)
        self.flush()
        return ticket

    @property
    def pending(self) -> int:
        return len(self.batcher)

    # -- execution -----------------------------------------------------------

    def _alive(self) -> "list[int]":
        return [i for i in range(len(self.workers)) if not self._dead[i]]

    def _route_target(self) -> int:
        """Least-loaded alive member, weighting accumulated busy time by
        each member's observed slowdown — a degraded device looks
        proportionally busier, so new work drifts to healthy members.

        Load ties (common on a fresh pool) are broken by the schedule
        controller when one is attached: tied members are interchangeable,
        so results must not depend on which wins."""
        alive = self._alive()
        if not alive:
            raise DeviceFault(
                "every pool member is dead; no device left to serve on",
                permanent=True,
            )
        load = lambda i: self.busy_ns[i] * self.workers[i].observed_slowdown
        best = min(load(i) for i in alive)
        tied = [i for i in alive if load(i) == best]
        if self.controller is not None and len(tied) > 1:
            return tied[self.controller.choose("pool.route", len(tied))]
        return tied[0]

    def flush(self) -> "list[ScanTicket]":
        """Route every queued launch group and serve it; returns tickets in
        submit order.

        Failover: when a member's launch fails terminally (its retry
        policy exhausted, or a permanent :class:`~repro.errors.DeviceFault`),
        the group's unserved remainder is recalled and rerouted onto the
        surviving members; a permanently lost
        member is marked dead and excluded from all further routing.
        Tickets are never lost — work a dying member already completed is
        kept, and everything else is re-served elsewhere, bit-identical
        (plans are deterministic and device-independent).  Only when every
        member is dead, a group exceeds its reroute budget, or a member
        raises anything but a ``DeviceFault`` does flush re-raise — and
        even then every unserved request is back in the pool queue with
        its ticket tracked, as in :meth:`ScanService.flush`.
        """
        groups = self.batcher.drain()
        # LPT: heaviest groups place first, onto the least-busy member
        groups.sort(key=lambda g: g.padded_elements, reverse=True)
        queue = [(group, 0) for group in groups]
        completed: list[ScanTicket] = []
        busy_before = list(self.busy_ns)
        # the group in hand: popped from ``queue`` and not yet served or
        # requeued (after a member fault, its recalled remainder)
        group = None
        try:
            while queue:
                # the schedule controller picks which queued group goes
                # next — the simulated analogue of members completing (and
                # freeing routing capacity) in an arbitrary order
                pick = 0
                if self.controller is not None and len(queue) > 1:
                    pick = self.controller.choose("pool.group", len(queue))
                group, failovers = queue.pop(pick)
                target = self._route_target()
                served, group, fault = self._dispatch(group, target)
                completed.extend(served)
                if group is not None:
                    if failovers + 1 > self._max_group_failovers:
                        raise fault
                    queue.append((group, failovers + 1))
                    group = None
        except Exception:
            # give up on this flush: every drained request whose ticket is
            # still tracked goes back on the pool batcher — the group in
            # hand first, then the queue — so a later flush can serve it
            unserved = [] if group is None else [group]
            unserved += [later for later, _ in queue]
            for parked in unserved:
                for req in parked.requests:
                    if req.req_id in self._tickets:
                        self.batcher.add(req)
            raise
        finally:
            # members served this flush concurrently; the round's span is
            # the longest member delta, and rounds add up (satellite fix:
            # the pool makespan is *not* max(busy_ns) once a member idles
            # between flushes)
            self.span_ns += max(
                (b - b0 for b, b0 in zip(self.busy_ns, busy_before)),
                default=0.0,
            )
        return _sorted_by_submit_sequence(completed)

    def _dispatch(
        self, group: LaunchGroup, target: int
    ) -> "tuple[list[ScanTicket], LaunchGroup | None, DeviceFault | None]":
        """Serve one launch group synchronously on pool member ``target``.

        The shared serving step under ``flush`` and the open-loop
        :class:`~repro.shard.scheduler.TrafficScheduler`: the member
        serves the group as it stands, popping each ticket from the
        pool's ticket dict once its launch succeeds, and its busy time is
        accounted.  Returns ``(completed, leftover, fault)`` —
        ``completed`` in launch order; ``leftover`` the recalled unserved
        remainder of the group after a terminal member fault (None when
        everything launched), ready to reroute; ``fault`` the
        :class:`~repro.errors.DeviceFault` that caused it (None on a clean
        serve).  A permanent fault marks the member dead.  Tickets are
        never lost: work the member completed before faulting is
        returned, the rest never left pool custody.
        """
        worker = self.workers[target]
        tickets = [self._tickets[req.req_id] for req in group.requests]
        for ticket in tickets:
            ticket.device = target
        before = worker.stats.device_ns
        try:
            completed = worker._serve(group, self._tickets)
        except DeviceFault as fault:
            # faulted time (incl. retries' backoff already served)
            self.busy_ns[target] += worker.stats.device_ns - before
            if fault.permanent:
                self._dead[target] = True
            # a fault always leaves its own launch's tickets unserved, so
            # the recalled remainder is never empty
            self.failovers[target] += 1
            leftover = self._recall(group, fault)
            return [t for t in tickets if t.done], leftover, fault
        self.busy_ns[target] += worker.stats.device_ns - before
        self.groups_routed[target] += 1
        return completed, None, None

    def _recall(self, group: LaunchGroup, fault: DeviceFault) -> LaunchGroup:
        """The group's requests whose tickets are still in pool custody
        after a terminal member fault, as a launch group ready to reroute.
        """
        leftover = [r for r in group.requests if r.req_id in self._tickets]
        for req in leftover:
            self._tickets[req.req_id].device = None
        # attribute the terminal fault to the tickets whose launch it was:
        # a batched group shares one launch (all recalled tickets), while
        # singles fault one request at a time (the first unserved one)
        victims = leftover if group.batched else leftover[:1]
        for req in victims:
            ticket = self._tickets[req.req_id]
            ticket.faults += fault.attempts
            ticket.retries += max(0, fault.attempts - 1)
        if self.controller is not None and len(leftover) > 1:
            # rerouted work must serve correctly in any recall order
            leftover = self.controller.permute("pool.recall", leftover)
        return LaunchGroup(
            key=group.key,
            requests=leftover,
            batched=group.batched,
            bucket=group.bucket,
            graph=group.graph,
        )

    # -- reporting -----------------------------------------------------------

    def member_health(self) -> "list[MemberHealth]":
        """Per-member health snapshot (healthy / degraded / dead).

        Dead is sticky (a permanent fault was observed); degraded means
        the member has absorbed faults, lost groups to failover, or runs
        measurably slower than its healthy timelines.
        """
        out = []
        for i, worker in enumerate(self.workers):
            slowdown = worker.observed_slowdown
            if self._dead[i]:
                state = DEAD
            elif (
                worker.stats.fault_events
                or self.failovers[i]
                or slowdown > SLOWDOWN_DEGRADED_THRESHOLD
            ):
                state = DEGRADED
            else:
                state = HEALTHY
            out.append(
                MemberHealth(
                    member=i,
                    state=state,
                    retries=worker.stats.total_retries,
                    fault_events=worker.stats.fault_events,
                    failovers=self.failovers[i],
                    slowdown=slowdown,
                )
            )
        return out

    @property
    def makespan_ns(self) -> float:
        """True simulated wall-clock of everything served so far.

        Members run concurrently within one serving round, so each round
        contributes its longest member delta; rounds are sequential, so
        deltas accumulate (``span_ns``).  This is never less than
        ``max(busy_ns)`` — the old definition, which pinned the busiest
        member at 100% utilisation even when it sat idle between rounds —
        and never more than ``sum(busy_ns)`` (fully serialized rounds).
        The open-loop traffic scheduler extends the span further with
        genuine idle gaps between arrivals (it owns the simulated clock,
        so it writes the run's true span back after each run — see
        :meth:`repro.shard.scheduler.TrafficScheduler.run`).
        """
        return self.span_ns

    @property
    def total_elements(self) -> int:
        return sum(w.stats.n_elements for w in self.workers)

    @property
    def total_requests(self) -> int:
        return sum(w.stats.requests for w in self.workers)

    @property
    def throughput_gelems(self) -> float:
        """Aggregate pool throughput: logical elements over the makespan."""
        span = self.makespan_ns
        return self.total_elements / span if span else 0.0

    def device_utilisation(self) -> "list[float]":
        """Per-member busy fraction of the *true* pool makespan (1.0 =
        busy for the whole span; low values = idle capacity the router
        could not fill, or time spent dead).

        Dividing by the accumulated span instead of ``max(busy_ns)``
        fixes two reporting bugs: the busiest member no longer reports
        exactly 1.0 when it idled between serving rounds, and a dead
        member's stale busy time decays as the span keeps growing instead
        of being frozen at its last live fraction.  Use
        :meth:`utilisation` for the per-member report with explicit dead
        flags."""
        span = self.makespan_ns
        if not span:
            return [0.0] * len(self.workers)
        return [b / span for b in self.busy_ns]

    def utilisation(self) -> "list[dict]":
        """Explicit per-member utilisation report: busy ns, busy fraction
        of the true pool makespan, health state, and a ``dead`` flag —
        dead members are reported as dead rather than leaving a stale
        busy fraction to be misread as live capacity."""
        fractions = self.device_utilisation()
        health = self.member_health()
        return [
            {
                "member": i,
                "busy_ns": self.busy_ns[i],
                "fraction": fractions[i],
                "state": health[i].state,
                "dead": self._dead[i],
            }
            for i in range(len(self.workers))
        ]

    def snapshot(self) -> dict:
        """Pool-level counters plus one entry per member (its health,
        routing and busy-time fields merged over the member's
        :meth:`ScanService.snapshot`), as plain data."""
        fractions = self.device_utilisation()
        members = [
            {
                **worker.snapshot(),
                "member": i,
                "state": health.state,
                "busy_ns": self.busy_ns[i],
                "fraction": fractions[i],
                "groups": self.groups_routed[i],
                "failovers": self.failovers[i],
                "slowdown": health.slowdown,
            }
            for i, (worker, health) in enumerate(
                zip(self.workers, self.member_health())
            )
        ]
        snap = {
            "pool": {
                "devices": len(self.workers),
                "config": self.pool.config.name,
                "requests": self.total_requests,
                "elements": self.total_elements,
                "makespan_ns": self.makespan_ns,
                "gelems_per_s": self.throughput_gelems,
            },
            "members": members,
            "ops": ops_snapshot(self.op_device_ns()),
        }
        if self.tune_store is not None:
            snap["tune_store"] = tune_store_snapshot(self.tune_store)
        graph_cache = members[0].get("graph_cache")
        if graph_cache is not None:
            snap["graph_cache"] = graph_cache
        return snap

    def summary(self) -> str:
        return render(self.snapshot())

    def op_device_ns(self) -> "dict[str, tuple[int, float]]":
        """Pool-wide per-op-kind graph replay accounting (launches, ns)."""
        totals: "dict[str, tuple[int, float]]" = {}
        for worker in self.workers:
            for kind, (count, ns) in worker.stats.op_device_ns.items():
                c0, n0 = totals.get(kind, (0, 0.0))
                totals[kind] = (c0 + count, n0 + ns)
        return totals
