"""Candidate cost evaluation: build once, score on the scheduled timeline.

The evaluator never serves numerics during search: each candidate is
built through the public plan builders
(:meth:`~repro.core.api.ScanContext.build_plan` /
:meth:`~repro.core.api.ScanContext.build_batched_plan`) with
``validate=False``, scored by its deterministic simulated device time
(:meth:`~repro.core.api.ScanPlan.time_ns`) and released.  The builder
uploads the shared constant matrices before the plan's own tensors, so
:meth:`~repro.core.api.ScanPlan.release` frees exactly what the candidate
allocated and a long sweep reuses HBM while the constants stay cached on
the context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.api import ScanContext, ScanPlan
from ..errors import ConfigError
from .space import Candidate, WorkloadKey

__all__ = ["CandidateCost", "evaluate_candidate"]


@dataclass(frozen=True)
class CandidateCost:
    """Measured cost of one candidate: total device ns for the workload
    (all launches), plus the build's host cost for the tuner's report."""

    device_ns: float
    launches: int
    trace_host_s: float


def _plan_cost(t0: float, plan: ScanPlan, launches: int = 1) -> CandidateCost:
    """Score a scratch plan over ``launches`` replays, then release it."""
    try:
        ns = plan.time_ns()
    finally:
        plan.release()
    return CandidateCost(ns * launches, launches, time.perf_counter() - t0)


def evaluate_candidate(
    ctx: ScanContext, workload: WorkloadKey, cand: Candidate
) -> CandidateCost:
    """Score a candidate for a workload in device nanoseconds.

    For a batched workload served with ``layout="1d"``, one row is built
    and the timeline replays per row: total = batch × per-row time (each
    launch pays its own launch overhead — already inside
    :meth:`time_traced`).
    """
    t0 = time.perf_counter()
    if workload.kind == "1d" and cand.layout != "1d":
        raise ConfigError(f"1-D workload cannot use layout {cand.layout!r}")
    if cand.layout == "batched":
        plan = ctx.build_batched_plan(
            algorithm=cand.algorithm, batch=workload.batch, row_len=workload.n,
            dtype=workload.dtype, s=cand.s, validate=False,
        )
        return _plan_cost(t0, plan)
    # a batched workload's rows are inclusive scans
    exclusive = workload.kind == "1d" and workload.exclusive
    plan = ctx.build_plan(
        algorithm=cand.algorithm, n=workload.n, dtype=workload.dtype, s=cand.s,
        block_dim=cand.block_dim, exclusive=exclusive, validate=False,
    )
    return _plan_cost(t0, plan, workload.batch or 1)
