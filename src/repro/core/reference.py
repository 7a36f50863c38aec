"""NumPy reference implementations (correctness oracles).

Every device kernel in :mod:`repro.core` and :mod:`repro.ops` is checked
against these plain NumPy functions.  Accumulation is done in the cube
unit's accumulator dtype (fp32 for fp16 inputs, int32 for int8), matching
the device semantics, so comparisons can be exact for suitably conditioned
data.

:func:`exact_fp16_scan_input` generates adversarially *exact* fp16 test
data: it draws the desired prefix-sum sequence first (small integers) and
differences it, so every partial sum any tiling scheme can form is exactly
representable in fp16 — scan results are then bit-exact regardless of
association order.

:func:`stable_order` is the one place the host decides sort order: the
served ``radix_sort``, ``topk`` and ``top_p_sample`` numerics and the
functional top-k kernels all order their keys through it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DTypeError

__all__ = [
    "accum_np_dtype",
    "inclusive_scan",
    "exclusive_scan",
    "batched_inclusive_scan",
    "stable_split",
    "stable_order",
    "compress",
    "exact_fp16_scan_input",
    "exact_int8_mask",
]


def accum_np_dtype(np_dtype) -> np.dtype:
    """Accumulator dtype the device uses for the given input dtype."""
    dt = np.dtype(np_dtype)
    if dt == np.float16:
        return np.dtype(np.float32)
    if dt == np.float32:
        return np.dtype(np.float32)
    if dt.kind == "i":
        return np.dtype(np.int32) if dt.itemsize <= 4 else dt
    if dt.kind == "u":
        return np.dtype(np.uint32) if dt.itemsize <= 4 else dt
    raise DTypeError(f"no accumulator rule for dtype {dt}")


def inclusive_scan(x: np.ndarray, out_dtype=None) -> np.ndarray:
    """Inclusive prefix sum with device accumulation semantics."""
    x = np.asarray(x)
    acc = accum_np_dtype(x.dtype)
    result = np.cumsum(x, dtype=acc)
    return result.astype(out_dtype) if out_dtype is not None else result


def exclusive_scan(x: np.ndarray, out_dtype=None) -> np.ndarray:
    """Exclusive prefix sum: output shifted by one, first element zero
    (the paper implements this by shifting the inclusive scan's output)."""
    x = np.asarray(x)
    acc = accum_np_dtype(x.dtype)
    inc = np.cumsum(x, dtype=acc)
    out = np.empty_like(inc)
    out[0] = 0
    out[1:] = inc[:-1]
    return out.astype(out_dtype) if out_dtype is not None else out


def batched_inclusive_scan(x: np.ndarray, out_dtype=None) -> np.ndarray:
    """Row-wise inclusive scans of a 2-D batch."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise DTypeError(f"batched scan expects a 2-D array, got ndim={x.ndim}")
    acc = accum_np_dtype(x.dtype)
    result = np.cumsum(x, axis=1, dtype=acc)
    return result.astype(out_dtype) if out_dtype is not None else result


def stable_split(
    x: np.ndarray, flags: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference split: true-flagged elements first, then false-flagged,
    both in original order.  Returns (values, original_indices)."""
    x = np.asarray(x)
    f = np.asarray(flags).astype(bool)
    idx = np.arange(x.size)
    order = np.concatenate([idx[f], idx[~f]])
    return x[order], order


@lru_cache(maxsize=None)
def _rank_table(dt: np.dtype, descending: bool) -> np.ndarray:
    """Rank of every bit pattern of ``dt`` under the widened-key order.

    The keys are widened exactly (fp16 -> fp32, ints -> int64) so the
    negation for ``descending`` never rounds, and ``np.unique`` ranks them
    with NumPy's own comparisons: -0.0 and +0.0 share a rank and every
    NaN sorts last, in either direction."""
    if dt.kind not in "fiu" or dt.itemsize > 2:
        raise DTypeError(
            f"stable_order takes keys of 16 bits or fewer, got {dt}"
        )
    raw = np.dtype(f"u{dt.itemsize}")
    bits = np.arange(1 << (8 * dt.itemsize), dtype=raw).view(dt)
    keys = bits.astype(np.float32 if dt.kind == "f" else np.int64)
    if descending:
        keys = -keys
    _, ranks = np.unique(keys, return_inverse=True, equal_nan=True)
    table = ranks.astype(raw)
    table.flags.writeable = False  # one shared instance per key
    return table


def stable_order(x: np.ndarray, *, descending: bool = False) -> np.ndarray:
    """Stable sort order of 8- or 16-bit keys (ties keep original order).

    Equal to ``np.argsort(widened, kind="stable")`` with the keys widened
    to fp32/int64 and negated for ``descending``, but each key is first
    mapped to its rank in a memoized per-(dtype, direction) table; NumPy
    sorts the uint8/uint16 ranks with an O(n) radix sort instead of an
    O(n log n) timsort."""
    x = np.asarray(x)
    ranks = _rank_table(x.dtype, bool(descending))
    return np.argsort(ranks.take(x.view(ranks.dtype)), kind="stable")


def compress(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reference compress (``torch.masked_select``): masked elements in
    original order."""
    x = np.asarray(x)
    return x[np.asarray(mask).astype(bool)]


def exact_fp16_scan_input(
    n: int, rng: np.random.Generator, *, prefix_bound: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """fp16 input whose scan is exact under *any* summation order.

    Draws integer prefix targets ``p`` in ``[0, prefix_bound)`` and returns
    ``x = diff(p)`` (as fp16) together with the exact expected inclusive
    scan ``p``.  Any contiguous-range partial sum equals ``p[j] - p[i]``,
    which is an integer of magnitude < 2 * prefix_bound and hence exact in
    fp16 (|int| <= 2048) and in the fp32 accumulator.
    """
    if not 1 <= prefix_bound <= 1024 + 1024:
        raise DTypeError("prefix_bound must be in [1, 2048] for fp16 exactness")
    p = rng.integers(0, prefix_bound, size=n).astype(np.int32)
    x = np.empty(n, dtype=np.int32)
    x[0] = p[0]
    x[1:] = p[1:] - p[:-1]
    return x.astype(np.float16), p.astype(np.float32)


def exact_int8_mask(n: int, rng: np.random.Generator, *, p: float = 0.5) -> np.ndarray:
    """Random 0/1 mask stored as int8 (the split/compress input format)."""
    return (rng.random(n) < p).astype(np.int8)
