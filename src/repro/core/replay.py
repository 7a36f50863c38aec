"""Functional execution of cached scan plans (the serve layer's hot path).

A :class:`~repro.core.api.ScanPlan` separates a scan operator into the
*traced* op DAG (shape-dependent, value-independent — built once) and the
*functional* computation (value-dependent — re-run per request).  This
module provides that functional half: the canonical NumPy computation with
device accumulation semantics, straight from :mod:`repro.core.reference`.

Plan execution therefore returns canonically-accumulated results rather
than a bit-replay of the kernel's tile-order arithmetic.  The two agree
exactly for exactly-representable data and within dtype-dependent rounding
otherwise.  Plan building cross-checks the traced kernel's output
against the functional path bit for bit on a deterministic validation
input (:func:`validation_input`).

ScanUL1 stages its ``C1 = A @ 1_s`` intermediate through the narrow input
dtype (the L1 staging buffer), so int8 inputs with large tile-row sums
wrap — a documented quantisation limit of that kernel.  The serve layer's
plan cache refuses that combination (:mod:`repro.serve.plan`).
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from ..hw.datatypes import DType
from .reference import (
    batched_inclusive_scan,
    exact_fp16_scan_input,
    exclusive_scan,
    inclusive_scan,
)

__all__ = [
    "plan_compute",
    "plan_compute_batched",
    "validation_input",
]

#: algorithms whose output dtype is the input dtype (vector baseline) rather
#: than the cube accumulator dtype
_VECTOR_ALGORITHMS = ("vector",)


def plan_compute(
    x_padded: np.ndarray,
    algorithm: str,
    in_dtype: DType,
    *,
    exclusive: bool = False,
) -> np.ndarray:
    """Compute the padded output array of a 1-D scan plan."""
    if exclusive:
        if algorithm != "mcscan":
            raise KernelError("exclusive scan is implemented on MCScan")
        return exclusive_scan(x_padded)
    if algorithm in _VECTOR_ALGORITHMS:
        return inclusive_scan(x_padded, out_dtype=in_dtype.np_dtype)
    return inclusive_scan(x_padded)


def plan_compute_batched(
    x_padded: np.ndarray, algorithm: str, in_dtype: DType
) -> np.ndarray:
    """Compute the padded output of a batched (2-D, row-wise) scan plan."""
    if algorithm in _VECTOR_ALGORITHMS:
        return batched_inclusive_scan(x_padded, out_dtype=in_dtype.np_dtype)
    return batched_inclusive_scan(x_padded)


def validation_input(n: int, dtype: DType, *, seed: int = 0) -> np.ndarray:
    """Deterministic input on which kernel and functional paths must agree.

    fp16 data is drawn so that every partial sum any tiling scheme can form
    is exactly representable (see :func:`exact_fp16_scan_input`); int8 data
    uses small values whose int32-accumulated scans are always exact.
    """
    rng = np.random.default_rng(0x5EEDE + seed)
    if dtype.name == "fp16":
        x, _ = exact_fp16_scan_input(n, rng, prefix_bound=1024)
        return x
    if dtype.name == "int8":
        return rng.integers(-2, 3, n).astype(np.int8)
    raise KernelError(f"no validation input recipe for dtype {dtype.name}")
