"""Continuous batching and deadline-driven admission over the device pool.

:class:`TrafficScheduler` serves an *open-loop* arrival stream (see
:mod:`repro.serve.traffic`) through a :class:`~repro.shard.PoolScanService`
on a simulated clock — the arrival-driven counterpart of the pool's
closed-loop whole-queue ``flush``:

* **Continuous batching** — arrivals accumulate into per-shape-class
  *buckets* (the :class:`~repro.serve.batcher.RequestBatcher` shape
  classes, so every coalescing rule is shared with the closed-loop
  path).  A bucket launches when it **fills** (the batcher's bucket
  capacity) or when its **oldest request's launch deadline expires** —
  the latest start that can still meet the request's completion SLO,
  given the bucket's predicted service time.  Between those two events
  new same-shape arrivals **join the in-flight bucket**, including one
  already staged on a device but not yet started.
* **Deadline-driven admission** — an arrival whose deadline is already
  unmeetable (expired at submit, or infeasible even launching alone on
  the soonest-free member) is *shed* at admission: counted, never
  enqueued, never a lost ticket.
* **EDF + cost-model placement** — ready buckets dispatch earliest
  deadline first, and placement minimises *predicted completion*
  ``max(now, free_at[m]) + ScanPlan.time_ns() * observed_slowdown[m]``
  — the plan cache's memoized cost probe, not just accumulated
  ``busy_ns``, so a member that is idle *now* wins even if it has served
  more total work.

Serving itself reuses the pool's failover machinery
(:meth:`PoolScanService._dispatch`): a member fault recalls the unserved
remainder and the scheduler reroutes it along the cost-model preference
order; with every member dead, remaining work is *failed explicitly*
(tickets retained on the report) so the generator always drains.

Everything runs on the simulated clock: per-request arrival, admission
(staging) and completion timestamps land on the tickets, and p50/p99/p999
latency plus goodput-vs-offered-load come out of the
:class:`~repro.serve.traffic.TrafficReport`.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from ..serve.batcher import ScanRequest, bucket_size
from ..serve.stats import ServiceStats
from ..serve.traffic import (
    TRAFFIC_SEED0,
    Arrival,
    TrafficReport,
    TrafficSpec,
    generate_arrivals,
    make_input,
)
from .service import PoolScanService

__all__ = ["TrafficScheduler", "run_traffic"]

#: scheduling policies: continuous batching vs one launch per arrival
_POLICIES = ("continuous", "naive")


class _Bucket:
    """One open or staged batch of same-shape-class requests."""

    __slots__ = (
        "key",
        "requests",
        "tickets",
        "capacity",
        "launch_by_ns",
        "staged",
        "target",
        "start_ns",
    )

    def __init__(self, key, capacity):
        self.key = key
        self.requests: "list[ScanRequest]" = []
        self.tickets: list = []
        self.capacity = capacity
        self.launch_by_ns = float("inf")
        self.staged = False
        self.target = -1
        self.start_ns = 0.0

    @property
    def deadline_ns(self) -> float:
        """Earliest member deadline — the EDF key."""
        return min(
            (r.deadline_ns for r in self.requests if r.deadline_ns is not None),
            default=float("inf"),
        )

    @property
    def event_ns(self) -> float:
        """Next simulated event for this bucket: its (estimated) device
        start when staged, its launch deadline while open."""
        return self.start_ns if self.staged else self.launch_by_ns


class TrafficScheduler:
    """Simulated-clock continuous-batching scheduler over a device pool.

    ``policy="continuous"`` is the real scheduler; ``policy="naive"``
    launches every arrival immediately as its own group (per-arrival
    flush) — the baseline the benchmark's p99 claim is made against.
    The schedule controller (when attached) breaks exact scoring and
    event-time ties, exactly like the pool router's ``pool.route`` point:
    tied choices are interchangeable, so served values must not depend
    on the pick.
    """

    def __init__(
        self,
        svc: PoolScanService,
        *,
        policy: str = "continuous",
        controller=None,
    ):
        if policy not in _POLICIES:
            raise KernelError(
                f"unknown traffic policy {policy!r}; expected {_POLICIES}"
            )
        self.svc = svc
        self.policy = policy
        self.controller = (
            controller if controller is not None else svc.controller
        )
        #: memoized per-launch ``ScanPlan.time_ns`` probes per (shape key,
        #: rows of a batched launch, or 1)
        self._predictions: dict = {}
        #: per-bucket capacity: the batcher's chunk size (largest power of
        #: two <= max_batch), so a full bucket is exactly one batched launch
        self._capacity = 1 << (self.svc.batcher.max_batch.bit_length() - 1)
        self._reset()

    def _reset(self) -> None:
        """Start a fresh simulated run: clock, member frontiers, buckets
        and request-side metrics.  Only the plan-cost memo carries over
        (plan costs do not depend on the run)."""
        workers = len(self.svc.workers)
        #: simulated clock (ns); advances to each event, never backwards
        self.clock_ns = 0.0
        #: per-member reservation frontier: when the member is expected to
        #: be free, counting staged-but-not-started work at predicted cost
        self.free_at_ns = [0.0] * workers
        #: per-member actual frontier: completion of the last *dispatched*
        #: batch (corrects predictions once real served time is known)
        self.done_at_ns = [0.0] * workers
        #: open + staged buckets, in creation order
        self.buckets: "list[_Bucket]" = []
        #: request-side metrics (simulated latencies, deadline verdicts,
        #: shed counts) — the ServiceStats leg of the timestamp threading
        self.stats = ServiceStats()
        self._served_tickets: list = []
        self._failed_tickets: list = []

    # -- cost model ----------------------------------------------------------

    def _predict_ns(self, req: ScanRequest, rows: int) -> float:
        """Predicted launch time (simulated ns) of ``rows`` same-class
        requests like ``req`` — ``ScanPlan.time_ns()``, the memoized cost
        probe, instead of only observed busy time.  Fallback rows (below
        ``min_group``, or unbatchable algorithms) cost one 1-D launch
        each."""
        cache = self.svc.workers[0].cache
        batcher = self.svc.batcher
        batchable = batcher._batchable(req) and rows >= batcher.min_group
        bucket = bucket_size(rows, max_batch=batcher.max_batch) if batchable else 0
        memo_key = (req.algorithm, req.n, req.plan_dtype, req.s, req.exclusive,
                    req.block_dim, rows if batchable else 1, batchable)
        launch_ns = self._predictions.get(memo_key)
        if launch_ns is None:
            if batchable:
                plan = cache.get_batched(
                    req.algorithm, bucket, req.n, req.plan_dtype, s=req.s
                )
            else:
                plan = cache.get_1d(
                    req.algorithm, req.n, req.plan_dtype, s=req.s,
                    exclusive=req.exclusive, block_dim=req.block_dim,
                )
            launch_ns = self._predictions[memo_key] = plan.time_ns()
        return launch_ns if batchable else launch_ns * rows

    def _place(self, predicted_ns: float) -> "int | None":
        """Member minimising predicted completion; None when the whole
        pool is dead.  Exact score ties go to the schedule controller."""
        alive = self.svc._alive()
        if not alive:
            return None
        score = lambda m: (
            max(self.clock_ns, self.free_at_ns[m])
            + predicted_ns * self.svc.workers[m].observed_slowdown
        )
        best = min(score(m) for m in alive)
        tied = [m for m in alive if score(m) == best]
        if self.controller is not None and len(tied) > 1:
            return tied[self.controller.choose("traffic.place", len(tied))]
        return tied[0]

    # -- admission -----------------------------------------------------------

    def offer(self, arrival: Arrival, x: np.ndarray, *,
              algorithm: "str | None" = None, s: "int | None" = None):
        """Admit (or shed) one arrival at ``arrival.t_ns``.

        Returns the tracked :class:`~repro.serve.service.ScanTicket` on
        admission, None when shed.  Shedding happens before any ticket is
        enqueued: the deadline already expired at submit, the deadline is
        infeasible even launching alone on the soonest-free member, or no
        member is alive to serve.
        """
        self.clock_ns = max(self.clock_ns, arrival.t_ns)
        # probe cost *before* preparing a ticket: admission must not
        # track work it is about to refuse
        probe_req, _ = self.svc.workers[0]._prepare(
            x, algorithm=algorithm, s=s, req_id=-1
        )
        solo_ns = self._predict_ns(probe_req, 1)
        target = self._place(solo_ns)
        if target is None:
            self.stats.record_shed()
            return None
        if arrival.deadline_ns <= self.clock_ns:
            self.stats.record_shed()
            return None
        earliest_start = max(self.clock_ns, self.free_at_ns[target])
        if earliest_start + solo_ns > arrival.deadline_ns:
            self.stats.record_shed()
            return None
        req, ticket = self.svc._prepare(
            x, algorithm=algorithm, s=s,
            t_arrival_ns=arrival.t_ns, deadline_ns=arrival.deadline_ns,
        )
        self._enqueue(req, ticket)
        return ticket

    def _enqueue(self, req: ScanRequest, ticket) -> None:
        """Place one admitted request into a bucket (joining an in-flight
        one when possible) under the active policy."""
        if self.policy == "naive":
            bucket = self._open_bucket(req, capacity=1)
            self._add_to_bucket(bucket, req, ticket)
            self._stage(bucket)
            return
        batcher = self.svc.batcher
        capacity = self._capacity if batcher._batchable(req) else 1
        bucket = self._find_bucket(req) if capacity > 1 else None
        if bucket is None:
            bucket = self._open_bucket(req, capacity=capacity)
        self._add_to_bucket(bucket, req, ticket)
        if len(bucket.requests) >= bucket.capacity and not bucket.staged:
            self._stage(bucket)
        elif not bucket.staged and bucket.launch_by_ns <= self.clock_ns:
            # deadline pressure: the newest member's SLO leaves no slack
            # to keep holding the bucket open
            self._stage(bucket)

    def _shape_key(self, req: ScanRequest):
        batcher = self.svc.batcher
        if batcher._batchable(req):
            return batcher.cache.key_batched(
                req.algorithm, 1, req.n, req.plan_dtype, s=req.s
            )
        return batcher.cache.key_1d(
            req.algorithm, req.n, req.plan_dtype, s=req.s,
            exclusive=req.exclusive, block_dim=req.block_dim,
        )

    def _find_bucket(self, req: ScanRequest) -> "_Bucket | None":
        """A joinable bucket for this shape class: open, or staged but not
        yet started (join-in-flight), with spare capacity."""
        key = self._shape_key(req)
        candidates = [
            b for b in self.buckets
            if b.key == key and len(b.requests) < b.capacity
        ]
        if not candidates:
            return None
        # prefer the earliest-opened joinable bucket (deterministic); a
        # staged bucket that already reached its start time is dispatched
        # before any same-tick arrival is offered, so it is never here
        return candidates[0]

    def _open_bucket(self, req: ScanRequest, *, capacity: int) -> _Bucket:
        bucket = _Bucket(key=self._shape_key(req), capacity=capacity)
        self.buckets.append(bucket)
        return bucket

    def _add_to_bucket(self, bucket: _Bucket, req: ScanRequest, ticket) -> None:
        bucket.requests.append(req)
        bucket.tickets.append(ticket)
        if bucket.staged:
            return  # joined in flight; launch slot is already committed
        # latest start that still meets the bucket's earliest deadline at
        # its *current* predicted service time (recomputed as rows join)
        predicted = self._predict_ns(req, len(bucket.requests))
        deadline = bucket.deadline_ns
        if deadline != float("inf"):
            bucket.launch_by_ns = max(
                self.clock_ns, min(bucket.launch_by_ns, deadline - predicted)
            )

    # -- staging and dispatch ------------------------------------------------

    def _stage(self, bucket: _Bucket) -> None:
        """Commit an open bucket to a member and a start time (cost-model
        placement); it stays joinable until the start time arrives."""
        predicted = self._predict_ns(bucket.requests[0], len(bucket.requests))
        target = self._place(predicted)
        if target is None:
            self._fail_bucket(bucket)
            return
        bucket.staged = True
        bucket.target = target
        bucket.start_ns = max(self.clock_ns, self.free_at_ns[target])
        # reserve the slot so later placements see this queue depth; the
        # dispatch corrects the reservation with actual served time
        self.free_at_ns[target] = bucket.start_ns + predicted

    def _next_event(self) -> "_Bucket | None":
        """The bucket whose event fires next — earliest event time, ties
        broken EDF (earliest deadline first), then controller, then
        creation order."""
        if not self.buckets:
            return None
        key = lambda b: (b.event_ns, b.deadline_ns)
        best = min(key(b) for b in self.buckets)
        tied = [b for b in self.buckets if key(b) == best]
        if self.controller is not None and len(tied) > 1:
            return tied[self.controller.choose("traffic.event", len(tied))]
        return tied[0]

    def _dispatch(self, bucket: _Bucket) -> None:
        """Serve a staged bucket on its member (with cost-model failover),
        stamping admission/completion times on every ticket."""
        self.clock_ns = max(self.clock_ns, bucket.start_ns)
        self.buckets.remove(bucket)
        svc = self.svc
        if len(svc.batcher):
            raise KernelError(
                "pool batcher is not empty under the traffic scheduler; "
                "mixing closed-loop submit() with open-loop serving is "
                "not supported within one run"
            )
        for req in bucket.requests:
            svc.batcher.add(req)
        groups = svc.batcher.drain()
        for ticket in bucket.tickets:
            ticket.t_admit_ns = self.clock_ns
        start_floor = bucket.start_ns
        for group in groups:
            self._serve_group(group, bucket.target, start_floor)

    def _serve_group(self, group, target: int, start_floor: float) -> None:
        """Serve one launch group, rerouting on member faults along the
        cost-model preference order until served or the pool is dead."""
        svc = self.svc
        failovers = 0
        while True:
            if target is None or svc._dead[target]:
                target = self._place(self._group_predict(group))
                if target is None:
                    self._fail_requests(group.requests)
                    return
            before = svc.busy_ns[target]
            completed, leftover, fault = svc._dispatch(group, target)
            served_delta = svc.busy_ns[target] - before
            start = max(start_floor, self.done_at_ns[target])
            end = start + served_delta
            if served_delta > 0:
                self.done_at_ns[target] = end
                self.free_at_ns[target] = max(self.free_at_ns[target], end)
            self._complete(completed, group, start, end)
            if fault is not None:
                self.stats.record_fault()
            if leftover is None:
                return
            failovers += 1
            if failovers > svc._max_group_failovers:
                # leftover tickets never left pool custody; fail them
                # explicitly rather than looping forever
                self._fail_requests(leftover.requests)
                return
            group = leftover
            target = None  # re-place on the surviving members

    def _group_predict(self, group) -> float:
        if not group.requests:
            return 0.0
        rows = len(group.requests)
        return self._predict_ns(group.requests[0], rows)

    def _complete(self, tickets, group, start_ns, end_ns) -> None:
        """Stamp completion times and record simulated latencies.

        A batched launch completes as one unit (every row at the batch
        end); fallback singles complete cumulatively in launch order,
        each after its own simulated launch time."""
        running = start_ns
        for ticket in tickets:
            if group.batched:
                t_done = end_ns
            else:
                running += ticket.device_ns
                t_done = min(running, end_ns) if end_ns > start_ns else running
            ticket.t_complete_ns = t_done
            if ticket.deadline_ns is not None:
                ticket.deadline_met = t_done <= ticket.deadline_ns
            if ticket.t_arrival_ns is not None:
                self.stats.record_sim_request(
                    t_done - ticket.t_arrival_ns,
                    deadline_met=ticket.deadline_met,
                )
            self._served_tickets.append(ticket)

    def _fail_bucket(self, bucket: _Bucket) -> None:
        self.buckets.remove(bucket)
        self._fail_requests(bucket.requests)

    def _fail_requests(self, requests) -> None:
        """Fail admitted requests that no member can serve (pool dead or
        reroute budget exhausted).  Tickets are untracked from the pool
        and retained on the report — explicitly failed, never lost."""
        for req in requests:
            ticket = self.svc._tickets.pop(req.req_id, None)
            if ticket is None:
                continue
            ticket.deadline_met = False
            self._failed_tickets.append(ticket)

    # -- the run loop --------------------------------------------------------

    def run(
        self,
        spec: TrafficSpec,
        seed: int,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        on_admit=None,
    ) -> TrafficReport:
        """Serve the spec's whole arrival stream; returns the report.

        ``on_admit(ticket, x)`` is called for every admitted request (the
        fuzz harness registers oracle expectations there).  The loop is a
        two-source event simulation: the next arrival and the next bucket
        event (launch deadline of an open bucket, start time of a staged
        one); arrivals at the same tick are offered before the bucket
        event fires, so a same-tick arrival can still join a bucket that
        filled — or was deadline-staged — at that very tick.  Every call
        starts from a fresh simulated clock and fresh counters, so back-to-
        back runs on one scheduler report what fresh schedulers would.
        """
        self._reset()
        arrivals = generate_arrivals(spec, seed)
        data_rng = np.random.default_rng((TRAFFIC_SEED0, seed, 1))
        payloads = [make_input(data_rng, a.n, spec.np_dtype) for a in arrivals]
        launches0 = sum(w.stats.launch_count for w in self.svc.workers)
        span0 = self.svc.span_ns
        admitted = 0
        i = 0
        while i < len(arrivals) or self.buckets:
            if i >= len(arrivals):
                # end-of-stream quiesce: nothing can join an open bucket
                # any more, so holding it for its launch deadline is pure
                # latency — stage everything still open right away
                for bucket in list(self.buckets):
                    if not bucket.staged:
                        self._stage(bucket)
            next_bucket = self._next_event()
            t_arrival = arrivals[i].t_ns if i < len(arrivals) else float("inf")
            t_bucket = (
                next_bucket.event_ns if next_bucket is not None else float("inf")
            )
            if t_arrival == float("inf") and t_bucket == float("inf"):
                break  # quiesce failed the remaining buckets (pool dead)
            if t_arrival <= t_bucket:
                ticket = self.offer(
                    arrivals[i], payloads[i], algorithm=algorithm, s=s
                )
                if ticket is not None:
                    admitted += 1
                    if on_admit is not None:
                        on_admit(ticket, payloads[i])
                i += 1
                continue
            self.clock_ns = max(self.clock_ns, t_bucket)
            if next_bucket.staged:
                self._dispatch(next_bucket)
            else:
                self._stage(next_bucket)
        span = max(
            [self.clock_ns] + [d for d in self.done_at_ns if d > 0]
        )
        # the scheduler owns the simulated clock, so the pool's makespan
        # advances by the true run span — including idle gaps between
        # arrivals, which per-flush accounting could never see
        self.svc.span_ns = span0 + span
        coalesced = sum(1 for t in self._served_tickets if t.batched)
        report = TrafficReport(
            spec=spec.name,
            seed=seed,
            policy=self.policy,
            offered=len(arrivals),
            admitted=admitted,
            served=len(self._served_tickets),
            shed=self.stats.shed_requests,
            failed=len(self._failed_tickets),
            deadline_met=self.stats.deadline_hits,
            span_ns=span,
            latencies_ns=list(self.stats.sim_latencies_ns),
            tickets=list(self._served_tickets),
            failed_tickets=list(self._failed_tickets),
            launches=sum(w.stats.launch_count for w in self.svc.workers)
            - launches0,
            coalesced=coalesced,
        )
        return report


def run_traffic(
    svc: PoolScanService,
    spec: TrafficSpec,
    seed: int,
    *,
    policy: str = "continuous",
    controller=None,
    algorithm: "str | None" = None,
    s: "int | None" = None,
    on_admit=None,
) -> TrafficReport:
    """Convenience driver: build a :class:`TrafficScheduler` over ``svc``
    and serve one seeded arrival stream end to end."""
    scheduler = TrafficScheduler(svc, policy=policy, controller=controller)
    return scheduler.run(spec, seed, algorithm=algorithm, s=s, on_admit=on_admit)
