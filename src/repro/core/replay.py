"""Functional execution of cached scan plans (the serve layer's hot path).

A :class:`~repro.core.api.ScanPlan` separates a scan operator into the
*traced* op DAG (shape-dependent, value-independent — built once) and the
*functional* computation (value-dependent — re-run per request).  This
module provides that functional half: the canonical NumPy computation with
device accumulation semantics, in one in-place form (:func:`scan_into`).
Each input row is widened once into the caller's accumulator-dtype buffer
(fp32 for fp16, int32 for int8) and one ``np.cumsum(buf, out=buf)`` then
accumulates the whole buffer along the last axis.  That is the same
sequence of accumulator-dtype additions as
:func:`repro.core.reference.inclusive_scan`'s buffered
``np.cumsum(x, dtype=acc)`` (the widening is exact), so the results are
bit-identical to the oracle, with no allocation beyond the output.

fp16 rows widen through a lookup table, not NumPy's cast: the cast
branches on zero and subnormal inputs, which makes it two to three times
slower on zero-heavy data (such as served integer payloads) than on data
without zeros.  The table holds the fp32 value of each of the 65,536
fp16 bit patterns, made once by NumPy's own cast, so every pattern — ±0,
subnormals, ±inf, NaN payloads — widens exactly as ``astype`` widens it.
``np.take`` applies it over slices of at most :data:`_WIDEN_SLICE`
elements, which bounds take's intp copy of the indices at 32 KB.  int8
rows keep NumPy's cast, which has no such branch.  Only the widening is
sliced: the additions stay one ``np.cumsum`` call in their sequential
order.

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

from ..errors import DTypeError, KernelError, ShapeError
from ..hw.datatypes import DType
from .reference import accum_np_dtype, exact_fp16_scan_input

__all__ = [
    "plan_compute",
    "scan_into",
    "validation_input",
]

#: algorithms whose output dtype is the input dtype (vector baseline) rather
#: than the cube accumulator dtype
_VECTOR_ALGORITHMS = ("vector",)

#: the fp32 value of every fp16 bit pattern, indexed by the pattern
_FP16_TO_FP32 = (
    np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    .view(np.float16).astype(np.float32)
)
#: the unsigned dtype whose values are an 8- or 16-bit input's bit
#: patterns, by itemsize
_PATTERN_DTYPES = {1: np.dtype(np.uint8), 2: np.dtype(np.uint16)}
#: most elements one table lookup widens: ``np.take`` copies its uint16
#: indices to intp first, 8 bytes each
_WIDEN_SLICE = 4096


def _widen(
    dst: np.ndarray, x: np.ndarray, table: "np.ndarray | None" = None
) -> None:
    """``dst[...] = table[x]`` for a 1-D ``dst`` of ``x``'s length, ``x``'s
    bit patterns indexing ``table``.  Without a table, fp16 widens into
    (fp32) ``dst`` through :data:`_FP16_TO_FP32` and anything else by
    NumPy's cast."""
    if table is None:
        if x.dtype != np.float16:
            dst[...] = x
            return
        table = _FP16_TO_FP32
    bits = x.view(_PATTERN_DTYPES[x.itemsize])
    take = table.take
    for lo in range(0, x.size, _WIDEN_SLICE):
        hi = lo + _WIDEN_SLICE
        take(bits[lo:hi], out=dst[lo:hi], mode="clip")


def scan_into(
    out: np.ndarray,
    rows,
    *,
    exclusive: bool = False,
    table: "np.ndarray | None" = None,
) -> np.ndarray:
    """Inclusive (or exclusive) scans of ``rows``, computed in ``out``.

    ``out`` is the caller's accumulator-dtype buffer: 1-D for one row, or
    one row per element of ``rows``.  Each row is widened once into the
    leading corner of its row of ``out`` (shifted one place right, behind
    a zero, for an exclusive scan), then one in-place ``np.cumsum``
    accumulates along the last axis.  Elements of ``out`` past a row's
    length are scanned too but never reach the row's own prefix sums;
    zero them to keep that tail finite.  ``table``, when given, is the
    accumulator-dtype value of every input bit pattern and widens in
    place of the cast (see :func:`_widen`): a graph's map chain feeding
    the scan folds into it.  Returns ``out``.
    """
    for dst, x in zip(np.atleast_2d(out), rows):
        if exclusive:
            dst[0] = 0
            _widen(dst[1 : x.size], x[:-1], table)
        else:
            _widen(dst[: x.size], x, table)
    body = out[..., 1:] if exclusive else out
    # dtype pins the accumulator: NumPy would add int32 rows in int64
    np.cumsum(body, axis=-1, dtype=body.dtype, out=body)
    return out


def plan_compute(
    x: np.ndarray,
    algorithm: str,
    in_dtype: DType,
    *,
    exclusive: bool = False,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """The output values of a scan plan on ``x``: one 1-D array, or a 2-D
    batch scanned row by row.

    ``out``, when given, receives the values: ``x``'s shape, in the plan's
    output dtype (the accumulator dtype; the input dtype for the vector
    baseline).  ``x`` needs no zero padding: pad zeros never reach its
    own prefix sums.
    """
    if exclusive and algorithm != "mcscan":
        raise KernelError("exclusive scan is implemented on MCScan")
    x = np.asarray(x)
    acc = accum_np_dtype(in_dtype.np_dtype)
    out_np = in_dtype.np_dtype if algorithm in _VECTOR_ALGORITHMS else acc
    if out is None:
        out = np.empty(x.shape, dtype=out_np)
    elif out.dtype != out_np:
        raise DTypeError(
            f"{algorithm} writes {np.dtype(out_np).name} values, "
            f"got an output buffer of {out.dtype}"
        )
    elif out.shape != x.shape:
        raise ShapeError(
            f"output buffer of shape {out.shape} does not hold the scan of "
            f"an input of shape {x.shape}"
        )
    rows = np.atleast_2d(x)
    if out_np == acc:
        return scan_into(out, rows, exclusive=exclusive)
    # the vector baseline rounds its accumulator back to the input dtype
    out[...] = scan_into(np.empty(x.shape, dtype=acc), rows)
    return out


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
