"""The ``submit``/``flush`` scan service façade.

:meth:`ScanService.submit` validates and enqueues a 1-D scan request,
returning a :class:`ScanTicket` immediately; :meth:`ScanService.flush`
drains the queue through the :class:`~repro.serve.batcher.RequestBatcher`,
replays each launch group's simulated timeline via plan-cache hits
(building plans on first miss), computes the group's numerics in **one
stacked NumPy pass** (:mod:`repro.serve.numerics` — bit-identical to the
per-request path), scatters results back onto the tickets, and records
per-request host latency plus per-launch simulated throughput.

Each launch is split into its two independent halves: the schedule-facing
timeline replay (fault injection, retries, busy-time accounting) and the
pure functional numerics.  Both run serially on the calling thread, in
deterministic order; a ticket gets its values and is finished as soon as
the launch that serves it succeeds.

This mirrors how an inference-serving integration drives the paper's
operators: shapes recur, so tracing cost is paid once per shape class and
the steady state is functional compute + scheduling only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.api import BATCHED_ALGORITHMS, ScanContext, ScanPlan
from ..errors import DeviceFault, KernelError, ShapeError
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..tune.space import WorkloadKey, resolve_candidate
from .batcher import LaunchGroup, RequestBatcher, ScanRequest
from .numerics import group_scan_values
from .plan import PlanCache
from .resilience import RetryPolicy
from .stats import LaunchRecord, ServiceStats, render, tune_store_snapshot

__all__ = ["ScanTicket", "ScanService"]

#: EWMA weight for the observed-slowdown estimate (new launches count 25%)
_SLOWDOWN_ALPHA = 0.25


def _sorted_by_submit_sequence(tickets: "list[ScanTicket]") -> "list[ScanTicket]":
    """Order completed tickets by submit sequence.

    ``req_id`` *is* the submit-sequence key: scan and graph submissions
    draw from one monotone counter per façade (``_next_id``), so sorting
    on it returns mixed scan+graph traffic in submit order.  That only
    holds while ids stay unique — a duplicate would mean two requests
    shared a sequence slot (one of them mis-ordered, its twin's ticket
    silently clobbered upstream), so it is asserted here rather than
    assumed.
    """
    tickets.sort(key=lambda t: t.req_id)
    for prev, cur in zip(tickets, tickets[1:]):
        if prev.req_id == cur.req_id:
            raise KernelError(
                f"two completed tickets share request id {cur.req_id}; "
                f"submit-order return needs one monotone id sequence "
                f"across scan and graph traffic"
            )
    return tickets


@dataclass
class ScanTicket:
    """Handle for one submitted request; filled in by ``flush``."""

    req_id: int
    n: int
    algorithm: str
    dtype: str
    s: int
    exclusive: bool
    done: bool = False
    values: "np.ndarray | None" = None
    #: wall seconds from submit to completion (queueing + execution)
    host_s: float = 0.0
    #: simulated device time of the launch that served this request; shared
    #: across the whole batch for batched launches (see ``batch_size``)
    device_ns: float = 0.0
    #: True when the serving launch reused a cached plan
    plan_hit: bool = False
    #: True when served as a row of a coalesced batched launch
    batched: bool = False
    #: number of requests sharing the launch (1 for single launches)
    batch_size: int = 1
    #: True when the plan config came from the tuned-plan store
    tuned: bool = False
    #: explicit block_dim the tuned config requested (None = heuristic)
    block_dim: "int | None" = None
    #: pool member index that served the request (None outside device pools)
    device: "int | None" = None
    #: relaunches absorbed while serving this request (incl. failovers)
    retries: int = 0
    #: DeviceFaults observed while serving this request
    faults: int = 0
    #: simulated-clock arrival time (ns); None outside open-loop traffic
    t_arrival_ns: "float | None" = None
    #: simulated-clock time the request's batch was admitted onto a device
    #: queue (staged for launch); None outside open-loop traffic
    t_admit_ns: "float | None" = None
    #: simulated-clock completion time (ns); None outside open-loop traffic
    t_complete_ns: "float | None" = None
    #: simulated-clock completion deadline (ns); None = no deadline
    deadline_ns: "float | None" = None
    #: True/False once completion was judged against the deadline; None
    #: when no deadline applies (or the request was never served)
    deadline_met: "bool | None" = None

    @property
    def sim_latency_ns(self) -> "float | None":
        """Simulated arrival-to-completion latency (queueing + batching
        wait + device time); None outside open-loop traffic."""
        if self.t_arrival_ns is None or self.t_complete_ns is None:
            return None
        return self.t_complete_ns - self.t_arrival_ns

    def result(self) -> np.ndarray:
        if not self.done:
            raise RuntimeError(
                f"request {self.req_id} is still queued; call flush() first"
            )
        return self.values


class ScanService:
    """Plan-cached, request-batching front end over a scan context."""

    def __init__(
        self,
        ctx: "ScanContext | None" = None,
        *,
        config: DeviceConfig = ASCEND_910B4,
        max_batch: int = 64,
        gm_budget: "int | None" = None,
        tune_store=None,
        retry: "RetryPolicy | None" = None,
        graph_fusion: str = "conservative",
    ):
        self.ctx = ctx if ctx is not None else ScanContext(config)
        #: bounded-retry discipline for transient DeviceFaults
        self.retry = retry if retry is not None else RetryPolicy()
        #: EWMA of served launch time (incl. stretch + backoff) over the
        #: healthy memoized timeline; 1.0 on an undisturbed device.  Pool
        #: placement weights a unit's predicted cost by this.
        self.observed_slowdown = 1.0
        #: tuned-plan store consulted when submit() is given no explicit
        #: algorithm/s (see repro.tune.resolve_candidate)
        self.tune_store = tune_store
        self.cache = PlanCache(self.ctx, gm_budget=gm_budget)
        self.batcher = RequestBatcher(max_batch=max_batch)
        self.stats = ServiceStats()
        self._tickets: dict[int, ScanTicket] = {}
        self._next_id = 0
        #: lazily-built operator-graph runner (shared across a pool's
        #: members by the pool front end); see repro.graph.interp
        self.graph_runner = None
        #: fusion mode the runner is built with (off/conservative/aggressive)
        self.graph_fusion = graph_fusion
        #: ``str(dtype)`` by NumPy dtype for graph tickets (``str`` costs µs)
        self._dtype_names: "dict[np.dtype, str]" = {}

    # -- submission ---------------------------------------------------------

    def _prepare(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
        req_id: "int | None" = None,
    ) -> "tuple[ScanRequest, ScanTicket]":
        """Validate one submission and materialise its request + ticket
        without enqueueing — the seam the device-pool front end
        (:class:`repro.shard.PoolScanService`) uses to build tickets
        centrally in its own queue."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"submit expects a 1-D array, got shape {x.shape}")
        if x.size == 0:
            raise ShapeError("submit expects a non-empty array")
        x, dt = self._normalize_input(x)
        cand, tuned = resolve_candidate(
            WorkloadKey("1d", x.size, dt.name, exclusive), self.tune_store,
            algorithm=algorithm, s=s,
        )
        algorithm, s, block_dim = cand.algorithm, cand.s, cand.block_dim
        # key construction refuses what no plan serves before an id exists;
        # the keys ride on the request, so batching, bucketing and cost
        # prediction never rebuild them
        key = self.cache.key_1d(
            algorithm, x.size, dt, s=s, exclusive=exclusive, block_dim=block_dim
        )
        row_key = None
        if algorithm in BATCHED_ALGORITHMS and not exclusive:
            row_key = self.cache.key_batched(algorithm, 1, x.size, dt, s=s)
        if req_id is None:
            req_id = self._next_id
            self._next_id += 1
        req = ScanRequest(
            req_id=req_id,
            x=x,
            t_submit=time.perf_counter(),
            tuned=tuned,
            key=key,
            row_key=row_key,
        )
        ticket = ScanTicket(
            req_id=req_id,
            n=x.size,
            algorithm=algorithm,
            dtype=dt.name,
            s=s,
            exclusive=exclusive,
            tuned=tuned,
            block_dim=block_dim,
        )
        return req, ticket

    def _normalize_input(
        self, x: np.ndarray
    ) -> "tuple[np.ndarray, object]":
        """Resolve the plan dtype exactly once, at submit.

        Integer inputs whose values fit int8 are narrowed here, so every
        downstream consumer — batcher grouping keys, plan-cache keys,
        pool routing — sees one canonical shape class instead of re-keying
        from ``x.dtype`` and fragmenting the cache.  fp16/int8 pass
        through; everything else (including float32, whose narrowing
        would silently lose precision) is rejected exactly as before.
        """
        try:
            return x, self.ctx._as_plan_dtype(x.dtype)
        except KernelError:
            if x.dtype.kind in "iu":
                info = np.iinfo(np.int8)
                if int(x.min()) >= info.min and int(x.max()) <= info.max:
                    return x.astype(np.int8), self.ctx._as_plan_dtype(np.int8)
            raise

    def submit(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
    ) -> ScanTicket:
        """Enqueue one 1-D scan; returns an unfilled ticket.

        ``algorithm``/``s`` of None mean *let the service decide*
        (:func:`repro.tune.resolve_candidate`): a tuned-plan store hit, or
        else the default (MCScan for an exclusive scan, ScanU otherwise,
        ``s=128``); an explicit argument skips the store.  A request no
        plan can serve (ScanU with ``exclusive=True``, say) raises
        :class:`~repro.errors.KernelError` here, before it has an id.
        """
        req, ticket = self._prepare(
            x, algorithm=algorithm, s=s, exclusive=exclusive
        )
        self._tickets[req.req_id] = ticket
        self.batcher.add(req)
        return ticket

    def scan(self, x: np.ndarray, **kwargs) -> ScanTicket:
        """Convenience: submit one request and flush immediately."""
        ticket = self.submit(x, **kwargs)
        self.flush()
        return ticket

    # -- graph submission ----------------------------------------------------

    def _graph_runner(self):
        """The service's operator-graph runner, built on first use (the
        import is deferred: repro.graph imports from repro.serve)."""
        if self.graph_runner is None:
            from ..graph.interp import GraphRunner

            self.graph_runner = GraphRunner(
                self.ctx.device.config,
                tune_store=self.tune_store,
                fusion=self.graph_fusion,
            )
        return self.graph_runner

    def _prepare_graph(
        self, graph, inputs, *, params=None, req_id: "int | None" = None
    ):
        """Validate one graph submission, compute its served numerics and
        materialise its request + ticket without enqueueing (the pool
        front end's routing seam, mirroring :meth:`_prepare`).

        The numerics run before any id or ticket exists, so a request
        whose oracle raises is refused here and never strands a queued
        ticket.  ``t_submit`` is stamped first, so the ticket's latency
        still includes them."""
        # imported per call: graph_oracle_job is a module attribute that
        # tracing may wrap
        from ..graph.service import (
            GraphKey,
            GraphRequest,
            GraphTicket,
            graph_oracle_job,
        )

        bound = graph.bind(inputs)
        signature = graph.signature()
        t_submit = time.perf_counter()
        params = dict(params) if params else None
        outputs = graph_oracle_job(graph, bound, params)
        if req_id is None:
            req_id = self._next_id
            self._next_id += 1
        total = sum(v.size for v in bound.values())
        key = GraphKey(graph=graph.name, signature=signature, padded=total)
        req = GraphRequest(
            req_id=req_id,
            graph=graph,
            inputs=bound,
            params=params,
            graph_key=key,
            outputs=outputs,
            t_submit=t_submit,
        )
        dtype = next(iter(bound.values())).dtype
        dtype_name = self._dtype_names.get(dtype)
        if dtype_name is None:
            dtype_name = self._dtype_names[dtype] = str(dtype)
        ticket = GraphTicket(
            req_id=req_id,
            n=total,
            algorithm="graph",
            dtype=dtype_name,
            s=0,
            exclusive=False,
            graph=graph.name,
            nodes=len(graph.nodes),
        )
        return req, ticket

    def submit_graph(self, graph, inputs, *, params=None):
        """Enqueue one operator-graph request; returns an unfilled
        :class:`~repro.graph.service.GraphTicket`.

        ``inputs`` is a dict (or declaration-order sequence) of input
        arrays; ``params`` optionally overrides runtime node parameters
        per node name (e.g. ``{"sample": {"theta": 0.73}}``).  The request
        rides the same queue, flush, retry and failover machinery as scan
        requests; its numerics are the graph's NumPy oracle, so results
        are bit-identical to :func:`repro.graph.oracle_outputs` by
        construction, while device time is accounted by replaying the
        captured per-node programs.
        """
        req, ticket = self._prepare_graph(graph, inputs, params=params)
        self._tickets[req.req_id] = ticket
        self.batcher.add(req)
        return ticket

    @property
    def pending(self) -> int:
        return len(self.batcher)

    # -- execution ----------------------------------------------------------

    def flush(self) -> "list[ScanTicket]":
        """Serve every queued request; returns their tickets in submit order.

        Exception-safe: if a launch fails terminally (a permanent
        :class:`~repro.errors.DeviceFault`, or retries exhausted), every
        drained request whose ticket is still tracked — the failing
        launch's and every later one — goes back on the queue before the
        fault propagates, so a later ``flush()`` can still serve it.  No
        ticket is ever lost.
        """
        groups = self.batcher.drain()
        completed: list[ScanTicket] = []
        try:
            for group in groups:
                completed.extend(self._serve(group, self._tickets))
        except Exception:
            for group in groups:
                for req in group.requests:
                    if req.req_id in self._tickets:
                        self.batcher.add(req)
            raise
        return _sorted_by_submit_sequence(completed)

    def _serve(
        self, group: LaunchGroup, tickets: "dict[int, ScanTicket]"
    ) -> "list[ScanTicket]":
        """Launch one drained group as it stands; returns its finished
        tickets in launch order.

        A batched group is one launch of all its rows; a fallback group
        (one exact 1-D key) is one launch per request, each with its own
        replay, fault draws and simulated time.  The group's numerics run
        once, in one stacked pass, after its first launch succeeds.  Graph
        groups replay kernel by kernel (:meth:`_serve_graph`).

        Each ticket is popped from ``tickets`` — this service's own, or
        the device pool's — only after the launch that serves it
        succeeded, so on a fault the unserved requests are exactly those
        whose tickets are still in ``tickets``.
        """
        if group.graph:
            return self._serve_graph(group, tickets)
        key = group.key
        requests = group.requests
        batched = group.batched
        get = self.cache.get_batched if batched else self.cache.get_1d
        values = None
        served = []
        for rows in [requests] if batched else [[req] for req in requests]:
            tuned = any(req.tuned for req in rows)
            hit = key in self.cache
            plan = get(key, tuned=tuned)
            hits_before = plan.timeline_hits
            trace, retries, faults, backoff_ns = self._replay_with_retry(plan)
            n = sum(req.n for req in rows)
            served_ns = trace.total_ns + backoff_ns
            self.stats.record_launch(
                LaunchRecord(
                    kind="batched" if batched else "single",
                    device_ns=served_ns,
                    n_elements=n,
                    io_bytes=n * plan._io_bytes_per_element(),
                    requests=len(rows),
                    plan_hit=hit,
                    timeline_hit=plan.timeline_hits > hits_before,
                    tuned=tuned,
                    retries=retries,
                    faults=faults,
                    backoff_ns=backoff_ns,
                )
            )
            if values is None:
                values, _ = group_scan_values(
                    [req.x for req in requests],
                    algorithm=key.algorithm,
                    in_dtype=plan.in_dtype,
                    exclusive=key.exclusive,
                )
            for req in rows:
                # pop only after the launch succeeded: a fault above leaves
                # the launch's tickets pending, not silently dropped
                ticket = tickets.pop(req.req_id)
                ticket.device_ns = served_ns
                ticket.plan_hit = hit
                ticket.batched = batched
                ticket.batch_size = len(rows)
                ticket.retries += retries
                ticket.faults += faults
                # ``served`` lists the group's requests in order so far
                self._finish(ticket, req, values[len(served)])
                served.append(ticket)
        return served

    def _replay_with_retry(self, launch, label: "str | None" = None):
        """Relaunch one scan plan or one captured graph kernel under the
        retry policy — the service's only retry loop.

        ``launch`` is a :class:`ScanPlan` (replayed through
        :meth:`ScanPlan.replay_timing`) or a traced kernel replayed on this
        service's device under ``label``.  Returns ``(trace, retries,
        faults, backoff_ns)`` on success.  Transient faults are retried up
        to ``retry.max_attempts`` total attempts, each retry charging
        exponential backoff to simulated device time.  A permanent fault,
        or exhausting the attempts, re-raises the final
        :class:`~repro.errors.DeviceFault` with its ``attempts`` stamped.
        Every fault (served or not) is counted in ``stats.fault_events``.

        This is the schedule-bearing half of a launch (fault draws,
        slowdown EWMA, simulated time); the caller computes the numerics
        half.  Graph requests call this once per captured kernel, so a
        transient fault relaunches only the kernel it hit, not the whole
        multi-node replay (the numerics are oracle-computed, so a
        replayed prefix has no side effects to undo).
        """
        policy = self.retry
        is_plan = isinstance(launch, ScanPlan)
        device = self.ctx.device
        backoff_ns = 0.0
        faults = 0
        attempt = 0
        while True:
            attempt += 1
            try:
                if is_plan:
                    trace = launch.replay_timing()
                else:
                    trace = device.replay(launch, label=label)
            except DeviceFault as fault:
                self.stats.record_fault()
                faults += 1
                if fault.permanent or attempt >= policy.max_attempts:
                    fault.attempts = attempt
                    raise
                backoff_ns += policy.backoff_for(
                    attempt - 1, self.ctx.config.costs.relaunch_backoff_ns
                )
                continue
            total_ns = trace.total_ns
            nominal = total_ns - trace.stretch_ns
            if nominal > 0:
                observed = (total_ns + backoff_ns) / nominal
                self.observed_slowdown += _SLOWDOWN_ALPHA * (
                    observed - self.observed_slowdown
                )
            return trace, attempt - 1, faults, backoff_ns

    def _finish(self, ticket: ScanTicket, req: ScanRequest, values) -> None:
        ticket.values = values
        ticket.done = True
        ticket.host_s = time.perf_counter() - req.t_submit
        self.stats.record_request(ticket.host_s)

    def _serve_graph(self, group: LaunchGroup, tickets) -> "list[ScanTicket]":
        """Serve a group of same-signature graph requests: lower once per
        shape class (cached), replay every node's captured programs per
        request under the retry policy, attach the oracle outputs computed
        at submit, and record the per-op device-time breakdown.

        Requests in a graph group share lowered programs but replay
        independently — each gets its own fault draws and simulated time,
        exactly like the 1-D fallback path.  Retry granularity is one
        captured kernel (the unit of a device launch): a multi-node graph
        replays tens of kernels per request, and all-or-nothing retry
        would make the request's success probability vanish under
        per-launch fault rates."""
        runner = self._graph_runner()
        stats = self.stats
        served = []
        for req in group.requests:
            entries, built = runner.lower(req.graph)
            # (lowered unit, its device ns) per unit
            spans = []
            served_ns = 0.0
            backoff_ns = 0.0
            retries = faults = launches = 0
            timeline_hit = False
            for unit, low in entries:
                label = f"graph {req.graph.name}.{unit.name}"
                unit_ns = 0.0
                for kernel in low.traced:
                    hits = kernel.timeline_hits
                    trace, kretries, kfaults, kbackoff = (
                        self._replay_with_retry(kernel, label)
                    )
                    timeline_hit |= kernel.timeline_hits > hits
                    # kernel by kernel, left to right: the order the
                    # served device ns has always been summed in
                    ns = trace.total_ns
                    served_ns += ns
                    unit_ns += ns
                    retries += kretries
                    faults += kfaults
                    backoff_ns += kbackoff
                low.replays += 1
                launches += low.launches
                spans.append((low, unit_ns))
            for low, unit_ns in spans:
                if low.members:
                    # fused region: attribute the span back to the member
                    # kinds by the build-time device-time weights, so the
                    # per-op breakdown matches the unfused vocabulary
                    for kind, w in low.members:
                        stats.record_op(kind, unit_ns * w)
                else:
                    stats.record_op(low.kind, unit_ns)
            served_ns += backoff_ns
            tuned = any(low.tuned for _, low in entries)
            stats.record_launch(
                LaunchRecord(
                    kind="graph",
                    device_ns=served_ns,
                    n_elements=req.n,
                    io_bytes=sum(v.nbytes for v in req.inputs.values()),
                    requests=1,
                    plan_hit=not built,
                    timeline_hit=timeline_hit,
                    tuned=tuned,
                    retries=retries,
                    faults=faults,
                    backoff_ns=backoff_ns,
                )
            )
            # pop only after the launch succeeded (see _serve)
            ticket = tickets.pop(req.req_id)
            ticket.device_ns = served_ns
            ticket.plan_hit = not built
            ticket.tuned = tuned
            ticket.retries += retries
            ticket.faults += faults
            ticket.launches = launches
            ticket.batch_size = len(group.requests)
            self._finish(ticket, req, req.outputs)
            served.append(ticket)
        return served

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plan/graph/tune cache counters plus :meth:`ServiceStats.snapshot`,
        as plain data (rendered by :func:`~repro.serve.stats.render`)."""
        snap = {"plan_cache": self.cache.stats()}
        if self.graph_runner is not None:
            snap["graph_cache"] = {
                **self.graph_runner.cache.stats(),
                "fusion": self.graph_fusion,
            }
        if self.tune_store is not None:
            snap["tune_store"] = tune_store_snapshot(self.tune_store)
        snap.update(self.stats.snapshot())
        return snap

    def summary(self) -> str:
        return render(self.snapshot())
