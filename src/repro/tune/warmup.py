"""Fleet warm-up: pay tracing and tuning cost before serving.

A cold :class:`~repro.serve.service.ScanService` pays two host costs the
first time each shape class arrives: the tuner sweep (when a tuned store
is attached but has no entry) and the plan build (the 49–80 ms Python
kernel trace).  Both are pure functions of the device config and the
workload key, so a fleet bring-up can pay them *up front*:

* :func:`warm_tune_store` tunes every workload the store lacks, each on a
  fresh :class:`~repro.core.api.ScanContext`, so every entry is a pure
  function of (config, workload) — independent of which workloads were
  tuned before it (``tests/tune/test_warmup.py`` holds this).
* :func:`warm_service` then prebuilds the plan cache of one service for
  those workloads and schedules each plan's timeline (plans hold
  simulated device allocations, so each member builds its own; on a pool
  the first member traces and the rest mirror that trace and timeline).
* :func:`warm_pool` does both for every member of a
  :class:`~repro.shard.PoolScanService` behind one call.

Steady-state serving after warm-up never pays trace, tune or schedule
cost inline: every launch is a plan-cache hit that replays a memoized
timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.api import ScanContext
from ..errors import ConfigError
from .space import WorkloadKey, resolve_candidate
from .store import TuneStore
from .tuner import tune_workload

__all__ = ["WarmupReport", "warm_tune_store", "warm_service", "warm_pool"]


@dataclass
class WarmupReport:
    """What one warm-up pass did, and what it cost."""

    #: workloads handed in
    requested: int = 0
    #: sweeps actually run (workloads the store had no entry for)
    tuned: int = 0
    #: workloads skipped because the store already covered them
    skipped: int = 0
    #: plans built into serve-layer caches (:func:`warm_service` only)
    plans_built: int = 0
    #: wall seconds for the whole pass
    host_s: float = 0.0

    def describe(self) -> str:
        return (
            f"warm-up: {self.tuned} tuned / {self.skipped} cached of "
            f"{self.requested} workloads, "
            f"{self.plans_built} plans built, {self.host_s * 1e3:.0f} ms"
        )


def _check_serial(workers: "int | None") -> None:
    # serial only; the ROADMAP "Benchmark follow-up" drops the keyword
    if workers not in (None, 1):
        raise ConfigError(
            f"workers={workers!r}: warm-up runs serially; pass workers=1"
        )


def warm_tune_store(
    workloads: "list[WorkloadKey]",
    store: TuneStore,
    *,
    workers: "int | None" = None,
    log=None,
) -> WarmupReport:
    """Tune every workload ``store`` lacks, in order, in-process.

    Each workload gets a **fresh** :class:`~repro.core.api.ScanContext`.
    Traced device times depend on GM allocation addresses, which depend on
    what the context tuned before (cached constant matrices shift later
    allocations), so tuning on one shared context would make every entry
    a function of the workload order.  A context per workload makes each
    entry a pure function of (config, workload).
    """
    _check_serial(workers)
    say = log if log is not None else (lambda _msg: None)
    t0 = time.perf_counter()
    report = WarmupReport(requested=len(workloads))
    todo = [w for w in workloads if w.store_key not in store.entries]
    report.skipped = len(workloads) - len(todo)
    for workload in todo:
        tune_workload(ScanContext(store.config), workload, store=store)
    report.tuned = len(todo)
    report.host_s = time.perf_counter() - t0
    if todo:
        say(report.describe())
    return report


def warm_service(
    service,
    workloads: "list[WorkloadKey]",
    *,
    buckets: "tuple[int, ...]" = (),
) -> int:
    """Prebuild one service's plan cache for ``workloads``; returns the
    number of plans built (0 = everything was already cached).

    Each workload resolves as its requests will
    (:func:`~repro.tune.space.resolve_candidate`; peeking, so warming
    never skews the lookup counters the service reports).  For a 1-D
    workload the exact 1-D plan is built; ``buckets`` lists batch sizes
    the service should additionally expect that workload to arrive in
    (each rounded to its power-of-two bucket), so the coalesced batched
    launches hit too.  Batched workloads warm whichever layout their
    tuned entry picked.  Each built plan's timeline is scheduled here, so
    the first serving pass replays memoized timelines only.
    """
    from ..core.api import BATCHED_ALGORITHMS
    from ..serve.batcher import bucket_size

    cache = service.cache
    max_batch = service.batcher.max_batch
    built = 0

    def build_1d(algorithm, n, dtype, s, exclusive, block_dim, tuned):
        nonlocal built
        key = cache.key_1d(
            algorithm, n, dtype, s=s, exclusive=exclusive, block_dim=block_dim
        )
        if key not in cache:
            cache.get_1d(key, tuned=tuned).time_ns()
            built += 1

    def build_batched(algorithm, batch, row_len, dtype, s, tuned):
        nonlocal built
        bucket = bucket_size(batch, max_batch=max_batch)
        key = cache.key_batched(algorithm, bucket, row_len, dtype, s=s)
        if key not in cache:
            cache.get_batched(key, tuned=tuned).time_ns()
            built += 1

    for workload in workloads:
        cand, tuned = resolve_candidate(workload, service.tune_store, peek=True)
        algorithm, s, block_dim = cand.algorithm, cand.s, cand.block_dim
        if workload.kind == "1d":
            build_1d(
                algorithm, workload.n, workload.dtype, s,
                workload.exclusive, block_dim, tuned,
            )
            # the batcher only coalesces requests the batched kernels can
            # serve; mcscan/exclusive verdicts always launch per-request
            if workload.exclusive or algorithm not in BATCHED_ALGORITHMS:
                continue
            for batch in buckets:
                build_batched(algorithm, batch, workload.n, workload.dtype, s, tuned)
        elif cand.layout == "batched":
            build_batched(
                algorithm, workload.batch, workload.n, workload.dtype, s, tuned
            )
        else:
            # tuned verdict: serve each row through one 1-D plan
            build_1d(
                algorithm, workload.n, workload.dtype, s, False, block_dim, tuned
            )
    return built


def warm_pool(
    pool_service,
    workloads: "list[WorkloadKey]",
    *,
    buckets: "tuple[int, ...]" = (),
    workers: "int | None" = None,
    log=None,
) -> WarmupReport:
    """Warm a whole device pool: one tuning pass into the shared store,
    then per-member plan prebuilds.  Plans are device state, so each
    member allocates its own; the pool traces each plan once, on the
    first member, and the others mirror that trace
    (:class:`~repro.shard.DevicePool`).
    """
    _check_serial(workers)
    t0 = time.perf_counter()
    store = pool_service.tune_store
    if store is not None:
        report = warm_tune_store(workloads, store, log=log)
    else:
        report = WarmupReport(requested=len(workloads))
    for member in pool_service.workers:
        report.plans_built += warm_service(member, workloads, buckets=buckets)
    report.host_s = time.perf_counter() - t0
    return report
