"""Constant matrices and tiling utilities (paper Section 4 notation).

``U_s`` is the upper-triangular all-ones matrix (ones on the diagonal),
``L_s`` the lower-triangular all-ones, ``L_s^-`` the *strictly* lower
triangular all-ones, and ``1_s`` the all-ones matrix.  The fundamental
identity the kernels build on:

* ``A @ U_s`` computes per-row inclusive scans of the row-major tile view
  ``A`` of a vector (ScanU);
* ``scan(z) = A @ U_s + L_s^- @ A @ 1_s`` computes the full inclusive scan
  of an ``s^2``-tile (Equation 1, used by ScanUL1).

The paper's PyTorch operator "statically pre-allocates an upper triangular
all-ones matrix U_s" in global memory; :func:`upload_constants` plays that
role for a simulated device.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import KernelError, ShapeError
from ..hw.datatypes import DType, as_dtype
from ..hw.device import AscendDevice
from ..hw.memory import GlobalTensor

__all__ = [
    "upper_ones",
    "lower_ones",
    "strict_lower_ones",
    "all_ones",
    "ScanConstants",
    "host_constant_matrices",
    "upload_constants",
    "batched_tile_rows",
    "tile_count",
    "padded_length",
    "validate_tile_size",
]

#: tile sizes the cube unit handles efficiently (multiples of the fractal)
SUPPORTED_TILE_SIZES = (16, 32, 64, 128)


def upper_ones(s: int, np_dtype=np.float16) -> np.ndarray:
    """``U_s``: upper-triangular all-ones including the main diagonal."""
    return np.triu(np.ones((s, s))).astype(np_dtype)


def lower_ones(s: int, np_dtype=np.float16) -> np.ndarray:
    """``L_s``: lower-triangular all-ones including the main diagonal."""
    return np.tril(np.ones((s, s))).astype(np_dtype)


def strict_lower_ones(s: int, np_dtype=np.float16) -> np.ndarray:
    """``L_s^-``: strictly lower-triangular all-ones (zero diagonal)."""
    return np.tril(np.ones((s, s)), k=-1).astype(np_dtype)


def all_ones(s: int, np_dtype=np.float16) -> np.ndarray:
    """``1_s``: the all-ones matrix."""
    return np.ones((s, s), dtype=np_dtype)


def validate_tile_size(s: int) -> None:
    if s not in SUPPORTED_TILE_SIZES:
        raise KernelError(
            f"tile size s={s} not supported; choose one of {SUPPORTED_TILE_SIZES}"
        )


def padded_length(n: int, tile: int) -> int:
    """Smallest multiple of ``tile`` that is >= n (zero padding, Section 4)."""
    if n <= 0:
        raise ShapeError(f"input length must be positive, got {n}")
    return -(-n // tile) * tile


def tile_count(n: int, tile: int) -> int:
    return padded_length(n, tile) // tile


@dataclass(frozen=True)
class ScanConstants:
    """GM-resident constant matrices for one (s, rows, dtype) combination.

    ``rows`` is the tile row count ``m``: tiles are ``m x s`` row-major
    views (square, ``m = s``, for the 1-D kernels; possibly flatter for
    batched scans over short arrays, where both batched algorithms use the
    same shape-derived tiling for a fair comparison — paper Section 4.2).
    ``U_s`` and ``1_s`` are always ``s x s``; ``L^-`` is ``rows x rows``.
    """

    s: int
    rows: int
    dtype: DType
    u: GlobalTensor  # U_s, s x s
    strict_lower: GlobalTensor  # L_rows^-, rows x rows
    ones: GlobalTensor  # 1_s, s x s

    @property
    def tile_elements(self) -> int:
        return self.rows * self.s


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-compatible counters for the constant store."""

    hits: int
    misses: int
    maxsize: "int | None"
    currsize: int


class _HostConstantStore:
    """Explicit shared read-only store of host constant matrices.

    This used to be a bare ``functools.lru_cache``, which has two problems
    once callers share it across threads: its hit/miss counters race, and
    — more importantly — nothing re-checks that the cached arrays are
    *still* frozen when handed out, so one caller flipping ``writeable``
    back on would silently corrupt the constants every other device
    uploads from then on.  The explicit store takes a lock around
    materialisation (one NumPy build per ``(s, rows, dtype)`` even when
    several threads race to it) and re-asserts read-onlyness on
    **every** access, so a corrupted entry fails loudly at the next use
    instead of poisoning later kernels.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cache: "dict[tuple[int, int, str], tuple[np.ndarray, ...]]" = {}
        self._hits = 0
        self._misses = 0

    def __call__(
        self, s: int, rows: int, dtype_name: str
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        key = (s, rows, dtype_name)
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                self._misses += 1
                np_dt = as_dtype(dtype_name).np_dtype
                u = upper_ones(s, np_dt).reshape(-1)
                sl = strict_lower_ones(rows, np_dt).reshape(-1)
                ones = all_ones(s, np_dt).reshape(-1)
                for arr in (u, sl, ones):
                    arr.setflags(write=False)
                entry = self._cache[key] = (u, sl, ones)
            else:
                self._hits += 1
        for arr in entry:
            if arr.flags.writeable:
                raise KernelError(
                    f"shared constant matrices for (s={s}, rows={rows}, "
                    f"{dtype_name}) became writable — the store's entries "
                    "must stay frozen"
                )
        return entry

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, None, len(self._cache))

    def cache_clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0


#: host-side ``(U_s, L_rows^-, 1_s)`` as flat read-only arrays, one NumPy
#: materialisation per ``(s, rows, dtype)`` for the whole process — every
#: device in a :class:`repro.shard.DevicePool` uploads its own GM copies
#: from these shared frozen arrays (:meth:`GlobalTensor.write` copies)
host_constant_matrices = _HostConstantStore()


def upload_constants(
    device: AscendDevice,
    s: int,
    dtype: "DType | str" = "fp16",
    *,
    rows: "int | None" = None,
) -> ScanConstants:
    """Allocate and upload ``U_s``, ``L_rows^-`` and ``1_s`` to global memory."""
    validate_tile_size(s)
    if rows is None:
        rows = s
    if not 1 <= rows <= s:
        raise ShapeError(f"tile rows must be in [1, s={s}], got {rows}")
    dt = as_dtype(dtype)
    if not dt.cube_input:
        raise KernelError(f"scan constants must be a cube input dtype, not {dt.name}")
    host_u, host_sl, host_ones = host_constant_matrices(s, rows, dt.name)
    u = device.alloc(f"const_U{s}_{dt.name}", (s * s,), dt)
    u.write(host_u)
    sl = device.alloc(f"const_Lm{rows}_{dt.name}", (rows * rows,), dt)
    sl.write(host_sl)
    ones = device.alloc(f"const_1{s}_{dt.name}", (s * s,), dt)
    ones.write(host_ones)
    return ScanConstants(s=s, rows=rows, dtype=dt, u=u, strict_lower=sl, ones=ones)


def batched_tile_rows(row_len: int, s: int) -> int:
    """Shape-derived tile row count for batched scans: the largest
    power-of-two number of rows ``m <= s`` such that an ``m x s`` tile does
    not exceed the (padded) array length."""
    if row_len <= 0:
        raise ShapeError(f"row length must be positive, got {row_len}")
    rows_available = max(1, padded_length(row_len, s) // s)
    m = 1
    while m * 2 <= min(s, rows_available):
        m *= 2
    return m
