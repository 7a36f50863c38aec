"""Candidate cost evaluation: trace once, score on the scheduled timeline.

The evaluator never serves numerics during search: each candidate is a
scratch :class:`~repro.core.api.ScanPlan`, traced on a zero input by the
same per-layout tracer that builds served plans and one-shot scans, and
scored by its deterministic simulated device time
(:meth:`~repro.core.api.ScanPlan.time_ns`).  The plan's tensors are
allocated inside a mark/release scope so a long sweep reuses HBM; its
layout, and with it the shared constant matrices, is resolved *before*
the mark (they are cached on the context and must outlive the scope, the
same ordering the one-shot operators use).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.api import ScanContext
from ..errors import ConfigError
from ..hw.datatypes import as_dtype
from .space import Candidate, WorkloadKey

__all__ = ["CandidateCost", "evaluate_candidate"]


@dataclass(frozen=True)
class CandidateCost:
    """Measured cost of one candidate: total device ns for the workload
    (all launches), plus the trace's host cost for the tuner's report."""

    device_ns: float
    launches: int
    trace_host_s: float


def _trace_cost(ctx: ScanContext, tracer, layout, **kw) -> CandidateCost:
    t0 = time.perf_counter()
    mark = ctx.device.memory.mark()
    try:
        plan, _ = tracer(layout, np.zeros(layout.shape, layout.dt.np_dtype), **kw)
        ns = plan.time_ns()
    finally:
        ctx.device.memory.release(mark)
    return CandidateCost(ns, 1, time.perf_counter() - t0)


def _evaluate_1d(
    ctx: ScanContext, n: int, dtype: str, cand: Candidate, exclusive: bool
) -> CandidateCost:
    layout = ctx._layout(cand.algorithm, as_dtype(dtype), cand.s, (n,))
    return _trace_cost(
        ctx, ctx._trace_1d, layout,
        algorithm=cand.algorithm, s=cand.s, block_dim=cand.block_dim, exclusive=exclusive,
    )


def _evaluate_batched(
    ctx: ScanContext, batch: int, row_len: int, dtype: str, cand: Candidate
) -> CandidateCost:
    layout = ctx._layout(cand.algorithm, as_dtype(dtype), cand.s, (batch, row_len))
    return _trace_cost(
        ctx, ctx._trace_batched, layout,
        algorithm=cand.algorithm, s=cand.s, block_dim=cand.block_dim,
    )


def evaluate_candidate(
    ctx: ScanContext, workload: WorkloadKey, cand: Candidate
) -> CandidateCost:
    """Score a candidate for a workload in device nanoseconds.

    For a batched workload served with ``layout="1d"``, one row is traced
    and the timeline replays per row: total = batch × per-row time (each
    launch pays its own launch overhead — already inside
    :meth:`time_traced`).
    """
    if workload.kind == "1d":
        if cand.layout != "1d":
            raise ConfigError(f"1-D workload cannot use layout {cand.layout!r}")
        return _evaluate_1d(ctx, workload.n, workload.dtype, cand, workload.exclusive)
    if cand.layout == "batched":
        return _evaluate_batched(ctx, workload.batch, workload.n, workload.dtype, cand)
    row = _evaluate_1d(ctx, workload.n, workload.dtype, cand, False)
    return CandidateCost(
        row.device_ns * workload.batch, workload.batch, row.trace_host_s
    )
