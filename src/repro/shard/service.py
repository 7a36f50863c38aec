"""Device-pool request serving: balanced placement over pool members.

:class:`PoolScanService` is the multi-device front end to the serve
layer: one shared :class:`~repro.serve.batcher.RequestBatcher` coalesces
submissions exactly as a single :class:`~repro.serve.service.ScanService`
would (launch groups are shape classes, so grouping is device-agnostic).
``flush`` is a barrier — its span is its busiest member — so it places
every **launch unit** (a batched group whole, an unbatched group one
request at a time) by **predicted completion within the round**: units
go heaviest source group first (by padded elements) onto the alive
member minimising ``round_load + predicted × observed_slowdown``.
Predictions are memoized kernel timelines (:meth:`_launch_ns`), exact on
a fault-free member; the open-loop
:class:`~repro.shard.scheduler.TrafficScheduler` places through the same
cost model and :meth:`_place` rule.

Each request is queued once, in the pool.  A member is a
:class:`ScanService` used as a plan cache plus a launch-with-retry
executor: ``_dispatch`` hands it the placed unit as it stands
(:meth:`ScanService._serve`), and the member pops each ticket from the
pool's ticket dict only once its launch succeeds — so after a terminal
fault the unserved remainder is the unit's requests whose tickets are
still in pool custody.  Members keep per-device plan caches and stats
and share one tuned-plan store.  Aggregate throughput is total logical
elements over the pool **makespan** (the sum of the rounds' spans).
All host work runs serially on the calling thread.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DeviceFault
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..serve.batcher import MIN_GROUP, LaunchGroup, RequestBatcher, ScanRequest, bucket_size
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


def _launch_units(group: LaunchGroup) -> "list[LaunchGroup]":
    """The units ``flush`` places: a batched group is one launch and stays
    whole; an unbatched group replays each request independently, so
    each request is a unit of its own."""
    if group.batched or len(group.requests) == 1:
        return [group]
    return [LaunchGroup(key=group.key, requests=[req], graph=group.graph)
            for req in group.requests]


class PoolScanService:
    """Pooled ``submit``/``flush`` façade with balanced unit placement."""

    def __init__(
        self,
        num_devices: int = 2,
        *,
        config: DeviceConfig = ASCEND_910B4,
        pool: "DevicePool | None" = None,
        tune_store=None,
        max_batch: int = 64,
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
        #: drain order, launch-unit pick order (simulated member
        #: completion order), placement tie-breaks and failover recall order
        self.controller = controller
        self.workers = [
            ScanService(
                ctx,
                max_batch=max_batch,
                gm_budget=gm_budget,
                tune_store=self.tune_store,
                retry=retry,
                graph_fusion=graph_fusion,
            )
            for ctx in self.pool
        ]
        # plan keys are shape classes — device-independent by design — so
        # one batcher groups for every member
        self.batcher = RequestBatcher(
            max_batch=max_batch, controller=controller
        )
        #: accumulated simulated busy ns per member
        self.busy_ns = [0.0] * len(self.workers)
        #: pool makespan: each serving round (a flush, or a traffic run)
        #: adds its longest member delta, so idle time between rounds counts
        self.span_ns = 0.0
        #: launch units placed on each member and served there
        self.groups_routed = [0] * len(self.workers)
        #: launch groups recalled from each member after a terminal fault
        self.failovers = [0] * len(self.workers)
        self._dead = [False] * len(self.workers)
        #: per-unit re-placement budget of :meth:`_serve_unit`; generous —
        #: a unit only burns one when a member exhausts its whole retry
        #: policy on it
        self._max_group_failovers = 3 * len(self.workers)
        #: memoized launch costs (simulated ns) per plan or graph key
        self._predictions: dict = {}
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
    ) -> "tuple[ScanRequest, ScanTicket]":
        """Validate one pool submission and track its ticket without
        enqueueing."""
        req, ticket = self.workers[0]._prepare(
            x, algorithm=algorithm, s=s, exclusive=exclusive, req_id=-1
        )
        self._track(req, ticket)
        return req, ticket

    def _track(
        self, req: ScanRequest, ticket: ScanTicket,
        t_arrival_ns: "float | None" = None,
        deadline_ns: "float | None" = None,
    ) -> None:
        """Give a request prepared untracked (``req_id=-1``) the next pool
        id, its arrival and deadline, and track its ticket — also the
        admission seam of the open-loop traffic scheduler
        (:class:`repro.shard.scheduler.TrafficScheduler`), which owns
        batching while ids, tickets and routing stay pool-level."""
        req.req_id = ticket.req_id = self._next_id
        self._next_id += 1
        req.t_arrival_ns = ticket.t_arrival_ns = t_arrival_ns
        req.deadline_ns = ticket.deadline_ns = deadline_ns
        self._tickets[req.req_id] = ticket

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
        :meth:`ScanService.submit_graph`).  All members share one
        :class:`~repro.graph.interp.GraphRunner`, so a graph lowered once
        replays on every member (timelines are memoized per config)."""
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

    # -- placement and execution ---------------------------------------------

    def _alive(self) -> "list[int]":
        return [i for i in range(len(self.workers)) if not self._dead[i]]

    def _predict_ns(self, req: ScanRequest, rows: int) -> float:
        """Predicted launch ns of ``rows`` same-class requests like ``req``
        (open-loop admission): one batched launch, or — below
        :data:`MIN_GROUP` rows, or unbatchable — one 1-D launch per row.
        Builds the plan on member 0 when missing."""
        batcher = self.batcher
        if req.row_key is not None and rows >= MIN_GROUP:
            bucket = bucket_size(rows, max_batch=batcher.max_batch)
            return self._launch_ns(req.row_key.with_batch(bucket), build=True)
        return self._launch_ns(req.key, build=True) * rows

    def _launch_ns(self, key, *, graph=None, build: bool = False) -> "float | None":
        """Predicted device ns of one fault-free launch of plan ``key`` (its
        memoized timeline), or of one replay of ``graph`` under its graph
        key (the sum of its lowered kernels' timelines); memoized per key.
        With ``build`` a missing plan is built on member 0.  Otherwise it
        only peeks — never builds a plan, lowers a graph or counts a cache
        hit — and is None until the plan or lowering exists."""
        launch_ns = self._predictions.get(key)
        if launch_ns is not None:
            return launch_ns
        if graph is not None:
            launch_ns = self.workers[0].graph_runner.replay_ns(graph)
        elif build:
            cache = self.workers[0].cache
            get = cache.get_1d if key.batch is None else cache.get_batched
            launch_ns = get(key).time_ns()
        else:
            plans = (w.cache.peek(key) for w in self.workers)
            plan = next((p for p in plans if p is not None), None)
            launch_ns = None if plan is None else plan.time_ns()
        if launch_ns is not None:
            self._predictions[key] = launch_ns
        return launch_ns

    def _place(
        self, predicted_ns: float, load: "list[float]", *, point: str, controller=None
    ) -> "int | None":
        """Alive member minimising ``load[m] + predicted_ns × observed
        slowdown`` (None when the pool is dead); exact ties go to the
        schedule controller at ``point``, as tied members are equivalent."""
        alive = self._alive()
        if not alive:
            return None
        workers = self.workers
        scores = [load[m] + predicted_ns * workers[m].observed_slowdown for m in alive]
        best = min(scores)
        tied = [m for m, score in zip(alive, scores) if score == best]
        if controller is not None and len(tied) > 1:
            return tied[controller.choose(point, len(tied))]
        return tied[0]

    def _served_ns(self, target, unit, served, launch_ns) -> float:
        """Device ns a cleanly served unit took on member ``target``;
        scores the cost model when the predicted ``launch_ns`` is given."""
        served_ns = (
            served[0].device_ns if unit.batched else sum(t.device_ns for t in served)
        )
        if launch_ns is not None:
            predicted = launch_ns if unit.batched else launch_ns * len(served)
            self.workers[target].stats.record_prediction(predicted, served_ns)
        return served_ns

    def flush(self) -> "list[ScanTicket]":
        """Place every queued launch unit and serve it; returns tickets in
        submit order.

        Placement is round-local: a member's load is the device ns it
        served so far this flush, summed from the units' tickets so that
        lifetime history cannot perturb it.  Units go in the order of
        their source group's padded elements (LPT by that proxy; a stable
        sort, so a group's requests stay together in drain order).  That
        order is also the lowering order of a cold flush, which can move
        lowered timelines, so it must not follow predictions.  A unit with
        a predicted cost (a built plan, a lowered graph) places on the
        member minimising ``load + predicted × observed slowdown``; one
        without places by load alone, and is not scored against the cost
        model.

        A faulted unit's remainder re-places at once by the same rule
        (:meth:`_serve_unit`).  When the pool cannot serve it, or a member
        raises anything but a ``DeviceFault``, flush re-raises with every
        unserved request back in the pool queue, its ticket tracked, as in
        :meth:`ScanService.flush`.
        """
        groups = self.batcher.drain()
        groups.sort(key=lambda g: g.padded_elements, reverse=True)
        queue = []
        for group in groups:
            graph = group.requests[0].graph if group.graph else None
            cost = self._launch_ns(group.key, graph=graph)
            queue += [(unit, cost) for unit in _launch_units(group)]
        load = [0.0] * len(self.workers)
        completed: list[ScanTicket] = []
        busy_before = list(self.busy_ns)
        # placement and accounting of the unit in hand, priced at ``cost``
        place = lambda _unit: self._place(
            cost or 0.0, load, point="pool.route", controller=self.controller)

        def charge(target, unit, served, busy_ns, fault):
            # a faulted attempt charges the member the time it burned
            load[target] += (
                busy_ns if fault is not None
                else self._served_ns(target, unit, served, cost)
            )

        # the unit in hand, or the remainder the pool gave up on
        unit = None
        try:
            while queue:
                # the schedule controller picks which queued unit goes
                # next — the simulated analogue of members completing (and
                # freeing placement capacity) in an arbitrary order
                pick = 0
                if self.controller is not None and len(queue) > 1:
                    pick = self.controller.choose("pool.group", len(queue))
                unit, cost = queue.pop(pick)
                served, unit, fault = self._serve_unit(unit, place, charge)
                completed.extend(served)
                if unit is not None:
                    raise fault or DeviceFault(
                        "every pool member is dead; no device left to serve on",
                        permanent=True,
                    )
        except Exception:
            # give up on this flush: every drained request whose ticket is
            # still tracked goes back on the pool batcher — the unit in
            # hand first, then the queue — so a later flush can serve it
            unserved = [] if unit is None else [unit]
            unserved += [later for later, _ in queue]
            for parked in unserved:
                for req in parked.requests:
                    if req.req_id in self._tickets:
                        self.batcher.add(req)
            raise
        finally:
            # members served this flush concurrently; the round's span is
            # the longest member delta, and rounds add up
            self.span_ns += max(
                (b - b0 for b, b0 in zip(self.busy_ns, busy_before)),
                default=0.0,
            )
        return _sorted_by_submit_sequence(completed)

    def _serve_unit(self, unit: LaunchGroup, place, charge, target=None):
        """Serve one launch unit with failover: the one loop under
        :meth:`flush` and the traffic scheduler.

        Each attempt dispatches the unit on ``target`` (when that is None
        or dead, on ``place(unit)``), then ``charge(target, unit, served,
        busy_ns, fault)`` accounts it (``fault`` None on success).  A
        recalled remainder re-places at once, at most
        ``_max_group_failovers`` times.  Returns the tickets served, in
        launch order, plus what the pool could not serve and the last
        fault (None, None when all served; fault None with no member
        alive)."""
        completed: list[ScanTicket] = []
        for _ in range(1 + self._max_group_failovers):
            if target is None or self._dead[target]:
                target = place(unit)
                if target is None:
                    return completed, unit, None
            before = self.busy_ns[target]
            served, leftover, fault = self._dispatch(unit, target)
            completed += served
            charge(target, unit, served, self.busy_ns[target] - before, fault)
            if leftover is None:
                return completed, None, None
            unit, target = leftover, None
        return completed, unit, fault

    def _dispatch(
        self, group: LaunchGroup, target: int
    ) -> "tuple[list[ScanTicket], LaunchGroup | None, DeviceFault | None]":
        """Serve one launch group on pool member ``target`` (one attempt of
        :meth:`_serve_unit`) and account its busy time.  Returns
        ``(completed, leftover, fault)``: tickets in launch order; after a
        terminal member fault, the recalled remainder and the fault (else
        None, None).  A permanent fault marks the member dead."""
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
        """Simulated wall-clock of everything served so far (``span_ns``):
        between ``max(busy_ns)`` and ``sum(busy_ns)``, plus the idle gaps
        between arrivals a traffic run writes back."""
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
        """Per-member busy fraction of the pool makespan (1.0 = busy for
        the whole span; a member idle between rounds, or dead, decays)."""
        span = self.makespan_ns
        if not span:
            return [0.0] * len(self.workers)
        return [b / span for b in self.busy_ns]

    def utilisation(self) -> "list[dict]":
        """Per-member busy ns, busy fraction, health state and an explicit
        ``dead`` flag."""
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
        """Pool-level counters plus one entry per member (health, placement
        and busy time over its :meth:`ScanService.snapshot`)."""
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
