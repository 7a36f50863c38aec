"""Vectorized launch-group numerics: one stacked NumPy pass per group.

The per-request serving path computes each request's scan with its own
padded allocation and its own ``np.cumsum`` call.  Requests in one launch
group share a shape class — same algorithm, dtype, exclusivity and padded
length — so the whole group can be assembled into a single 2-D array and
scanned with one row-wise pass.  Row-wise ``cumsum`` over axis 1 performs
exactly the same sequence of accumulator-dtype additions per row as the
1-D per-request computation, so the stacked results are **bit-identical**
to :func:`repro.core.replay.plan_compute` — the differential suite in
``tests/serve/test_numerics.py`` pins this across dtype × exclusive ×
ragged group shapes.

Functions here are *pure* (input arrays → output arrays): they touch no
device, no schedule controller and no shared mutable state, so the serve
layer's schedule depends only on the timeline replay half of a launch.

Widening note: each request row is widened once, straight into the
group's accumulator-dtype batch (fp32 for fp16, int32 for int8), and one
in-place row-wise ``np.cumsum`` scans the batch
(:func:`repro.core.replay.scan_into`).  fp16 rows widen through a
65,536-entry fp32 table made from NumPy's own cast and applied by
``np.take`` over slices of at most 4,096 elements; NumPy's cast branches
on zero and subnormal inputs, and served payloads are zero-heavy.  int8
rows keep the cast.  Both widenings are exact and only the widening is
sliced, so this runs the identical addition sequence as the buffered
``np.cumsum(x16, dtype=np.float32)`` while allocating nothing but the
batch (and take's 32 KB index copy) and keeping the accumulate loop
unbuffered (measurably faster).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.reference import accum_np_dtype
from ..core.replay import _VECTOR_ALGORITHMS, scan_into
from ..hw.datatypes import DType

__all__ = ["group_scan_values"]


def group_scan_values(
    xs: "list[np.ndarray]",
    *,
    algorithm: str,
    in_dtype: DType,
    exclusive: bool = False,
) -> "tuple[list[np.ndarray], float]":
    """Scan a whole launch group in one stacked pass.

    Returns ``(values, host_s)`` where ``values[i]`` is the length-``n_i``
    scan of ``xs[i]`` — bit-identical to running ``plan_compute`` on each
    request separately — and ``host_s`` is the wall time the numerics
    took.  Ragged groups (requests that share a padding class but differ
    in logical length) zero-fill each row's tail.
    """
    t0 = time.perf_counter()
    width = max(x.size for x in xs)
    alloc = np.empty if all(x.size == width for x in xs) else np.zeros
    batch = alloc((len(xs), width), dtype=accum_np_dtype(in_dtype.np_dtype))
    scan_into(batch, xs, exclusive=exclusive)
    if algorithm in _VECTOR_ALGORITHMS:
        batch = batch.astype(in_dtype.np_dtype)
    values = [batch[i, : x.size] for i, x in enumerate(xs)]
    return values, time.perf_counter() - t0
