"""Global memory (HBM) model.

:class:`GlobalMemory` is a bump allocator over a simulated HBM address
space.  :class:`GlobalTensor` is a handle to an allocation: it owns a NumPy
backing array (functional state) plus a base address (for the L2 residency
model) and a stable id (for hazard tracking in the scheduler).

Kernels never touch backing arrays directly; they move data with ``DataCopy``
intrinsics which both perform the copy and charge the timing model.  The
host-side :meth:`GlobalTensor.write` / :meth:`GlobalTensor.to_numpy` methods
model untimed host transfers used to set up and read back experiments, as the
paper does around each profiled kernel invocation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import AllocationError, ShapeError
from .config import DeviceConfig
from .datatypes import DType, as_dtype

__all__ = ["GlobalMemory", "GlobalTensor", "GlobalSlice"]

_tensor_ids = itertools.count()


class GlobalTensor:
    """A named allocation in simulated global memory.

    Attributes:
        name: human-readable label (appears in traces).
        dtype: device dtype of the elements.
        shape: logical shape; storage is row-major over the flat view.
        base_addr: byte address of the first element in HBM.
    """

    def __init__(self, name: str, dtype: DType, shape: tuple[int, ...], base_addr: int):
        self.tensor_id = next(_tensor_ids)
        self.name = name
        self.dtype = dtype
        self.shape = tuple(int(d) for d in shape)
        #: element count, fixed at allocation (every slice bound-checks it)
        self.num_elements = math.prod(self.shape)
        self.base_addr = base_addr
        self._data = np.zeros(self.shape, dtype=dtype.np_dtype)

    # -- size helpers -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype.itemsize

    @property
    def flat(self) -> np.ndarray:
        """Flat (1-D) view of the backing array."""
        return self._data.reshape(-1)

    @property
    def data(self) -> np.ndarray:
        """The backing array with its logical shape (device-internal use)."""
        return self._data

    # -- host-side (untimed) access ------------------------------------------

    def write(self, values: np.ndarray) -> None:
        """Host upload: overwrite the tensor contents (untimed)."""
        arr = np.asarray(values)
        if arr.size != self.num_elements:
            raise ShapeError(
                f"cannot write {arr.size} elements into tensor "
                f"{self.name!r} of {self.num_elements} elements"
            )
        self._data[...] = arr.reshape(self.shape).astype(self.dtype.np_dtype)

    def to_numpy(self) -> np.ndarray:
        """Host download: a copy of the tensor contents (untimed)."""
        return self._data.copy()

    # -- device-side addressing ----------------------------------------------

    def slice(self, offset: int, length: int) -> "GlobalSlice":
        """A contiguous element range ``[offset, offset + length)`` of the
        flat view, as seen by a DataCopy."""
        return GlobalSlice(self, offset, length)

    def whole(self) -> "GlobalSlice":
        return GlobalSlice(self, 0, self.num_elements)

    def prefix(self, length: int) -> "GlobalTensor":
        """A same-backing tensor handle over the first ``length`` elements.

        Kernels validate against ``num_elements``; operators that shrink
        their working set (e.g. quickselect) pass prefix handles so kernels
        and the cache/hazard models see the true footprint.  The handle
        shares the backing storage, address and tensor id."""
        if not 0 < length <= self.num_elements:
            raise ShapeError(
                f"prefix length {length} out of range for {self.num_elements}"
            )
        view = GlobalTensor.__new__(GlobalTensor)
        view.tensor_id = self.tensor_id
        view.name = f"{self.name}[:{length}]"
        view.dtype = self.dtype
        view.shape = (length,)
        view.num_elements = length
        view.base_addr = self.base_addr
        view._data = self.flat[:length]
        return view

    def row(self, i: int) -> "GlobalSlice":
        """Row ``i`` of a 2-D tensor as a contiguous slice."""
        if len(self.shape) != 2:
            raise ShapeError(f"row() requires a 2-D tensor, got shape {self.shape}")
        rows, cols = self.shape
        if not 0 <= i < rows:
            raise ShapeError(f"row {i} out of range for shape {self.shape}")
        return GlobalSlice(self, i * cols, cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalTensor({self.name!r}, {self.dtype.name}, shape={self.shape})"


class GlobalSlice:
    """A contiguous element range of a :class:`GlobalTensor`."""

    __slots__ = ("tensor", "offset", "length")

    def __init__(self, tensor: GlobalTensor, offset: int, length: int):
        offset = int(offset)
        length = int(length)
        if offset < 0 or length < 0 or offset + length > tensor.num_elements:
            raise ShapeError(
                f"slice [{offset}, {offset + length}) out of bounds for "
                f"tensor {tensor.name!r} with {tensor.num_elements} elements"
            )
        self.tensor = tensor
        self.offset = offset
        self.length = length

    @property
    def dtype(self) -> DType:
        return self.tensor.dtype

    @property
    def nbytes(self) -> int:
        return self.length * self.tensor.dtype.itemsize

    @property
    def byte_start(self) -> int:
        """Absolute HBM byte address of the first element."""
        return self.tensor.base_addr + self.offset * self.tensor.dtype.itemsize

    @property
    def array(self) -> np.ndarray:
        """NumPy view of the slice (functional state)."""
        return self.tensor.flat[self.offset : self.offset + self.length]

    def sub(self, offset: int, length: int) -> "GlobalSlice":
        """A sub-range relative to this slice."""
        if offset < 0 or length < 0 or offset + length > self.length:
            raise ShapeError(
                f"sub-slice [{offset}, {offset + length}) out of bounds for "
                f"slice of length {self.length}"
            )
        return GlobalSlice(self.tensor, self.offset + offset, length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GlobalSlice({self.tensor.name!r}[{self.offset}:"
            f"{self.offset + self.length}])"
        )


class GlobalMemory:
    """Bump allocator over the simulated HBM address space, with a hole
    list for individually freed long-lived allocations.

    Two release disciplines coexist:

    * **stack** — :meth:`mark` / :meth:`release` around one-shot operator
      calls (the bulk of the traffic; O(1) and fragmentation-free);
    * **per-tensor** — :meth:`free` returns one allocation's bytes to a
      hole list that :meth:`alloc` reuses first-fit (adjacent holes are
      coalesced, and holes at the frontier shrink it).  This is what lets
      the serve layer's plan cache evict cold plans instead of pinning GM
      forever.  Freeing a tensor allocated *before* an outstanding mark is
      unsupported and raises immediately: removing it would shift the
      indices the mark snapshotted, and the later ``release`` would then
      silently drop the wrong tensors.

    :meth:`free` diagnoses its failure modes distinctly — double free,
    free of a mark-released handle, free of a view, free of a foreign
    tensor — and raises :class:`~repro.errors.AllocationError` *before*
    mutating any allocator state, so a rejected free never corrupts the
    hole list.
    """

    #: allocations are aligned to 512 bytes, matching DMA burst alignment
    ALIGN = 512

    def __init__(self, config: DeviceConfig):
        self.config = config
        self.capacity = config.memory.hbm_capacity_bytes
        self._next_addr = 0
        self._tensors: list[GlobalTensor] = []
        #: freed [addr, addr+size) intervals below the frontier, by address
        self._holes: list[tuple[int, int]] = []
        #: tensor ids retired via free() / release(), for precise errors
        self._freed_ids: set[int] = set()
        self._released_ids: set[int] = set()
        #: outstanding mark() snapshots (LIFO), so free() can refuse
        #: index-shifting frees instead of corrupting a later release()
        self._live_marks: list[tuple[int, int]] = []

    @property
    def used_bytes(self) -> int:
        """Bytes currently backing live allocations (frontier minus holes)."""
        return self._next_addr - sum(size for _, size in self._holes)

    @property
    def tensors(self) -> tuple[GlobalTensor, ...]:
        return tuple(self._tensors)

    def _aligned(self, nbytes: int) -> int:
        return -(-max(nbytes, 1) // self.ALIGN) * self.ALIGN

    def alloc(
        self, name: str, shape: "tuple[int, ...] | int", dtype: "DType | str"
    ) -> GlobalTensor:
        """Allocate a global tensor; contents are zero-initialised."""
        if isinstance(shape, int):
            shape = (shape,)
        dt = as_dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize if shape else dt.itemsize
        aligned = self._aligned(nbytes)
        addr = None
        for i, (hole_addr, hole_size) in enumerate(self._holes):
            if hole_size >= aligned:  # first fit, split the remainder
                addr = hole_addr
                if hole_size == aligned:
                    del self._holes[i]
                else:
                    self._holes[i] = (hole_addr + aligned, hole_size - aligned)
                break
        if addr is None:
            if self._next_addr + aligned > self.capacity:
                raise AllocationError(
                    f"HBM out of capacity allocating {nbytes} bytes for "
                    f"{name!r} ({self.used_bytes} of {self.capacity} bytes "
                    f"used)"
                )
            addr = self._next_addr
            self._next_addr += aligned
        tensor = GlobalTensor(name, dt, shape, addr)
        self._tensors.append(tensor)
        return tensor

    def free(self, tensor: GlobalTensor) -> int:
        """Return one allocation's bytes to the hole list; returns the
        number of bytes freed.  The handle (and any view of it) becomes
        invalid.  Only tensors returned by :meth:`alloc` can be freed —
        prefix views share their parent's storage and are rejected.

        Every rejection raises before any allocator state changes."""
        index = None
        for i, t in enumerate(self._tensors):
            if t is tensor:
                index = i
                break
        if index is None:
            raise AllocationError(self._diagnose_bad_free(tensor))
        if any(index < count for _addr, count in self._live_marks):
            raise AllocationError(
                f"free() of {tensor.name!r}: cannot free an allocation made "
                f"before an outstanding mark() — it would shift the indices "
                f"the mark snapshotted and corrupt the pending release(); "
                f"free it after the mark is released"
            )
        del self._tensors[index]
        self._freed_ids.add(tensor.tensor_id)
        aligned = self._aligned(tensor.nbytes)
        self._insert_hole(tensor.base_addr, aligned)
        return aligned

    def _diagnose_bad_free(self, tensor: GlobalTensor) -> str:
        """Explain why ``tensor`` is not an active allocation."""
        if any(t.tensor_id == tensor.tensor_id for t in self._tensors):
            return (
                f"free() of {tensor.name!r}: not an active allocation — it "
                f"is a view sharing storage with a live tensor; free the "
                f"parent handle returned by alloc() instead"
            )
        if tensor.tensor_id in self._freed_ids:
            return (
                f"free() of {tensor.name!r}: not an active allocation — "
                f"already freed (double free)"
            )
        if tensor.tensor_id in self._released_ids:
            return (
                f"free() of {tensor.name!r}: not an active allocation — it "
                f"was dropped by a mark/release scope"
            )
        return (
            f"free() of {tensor.name!r}: not an active allocation in this "
            f"GlobalMemory (foreign tensor, or allocator was reset)"
        )

    def _insert_hole(self, addr: int, size: int) -> None:
        """Insert [addr, addr+size), coalescing neighbours and the frontier."""
        holes = self._holes
        lo, hi = 0, len(holes)
        while lo < hi:  # insertion point by address
            mid = (lo + hi) // 2
            if holes[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        holes.insert(lo, (addr, size))
        if lo + 1 < len(holes) and addr + size == holes[lo + 1][0]:
            holes[lo] = (addr, size + holes[lo + 1][1])
            del holes[lo + 1]
        if lo > 0 and holes[lo - 1][0] + holes[lo - 1][1] == addr:
            merged = (holes[lo - 1][0], holes[lo - 1][1] + holes[lo][1])
            holes[lo - 1] = merged
            del holes[lo]
        # a hole ending at the frontier lowers the frontier
        if holes and holes[-1][0] + holes[-1][1] == self._next_addr:
            self._next_addr = holes[-1][0]
            holes.pop()

    def reset(self) -> None:
        """Release all allocations (used between experiment runs)."""
        self._next_addr = 0
        self._tensors.clear()
        self._holes.clear()
        self._freed_ids.clear()
        self._released_ids.clear()
        self._live_marks.clear()

    def mark(self) -> tuple[int, int]:
        """Snapshot the allocator state (stack discipline).  The snapshot
        stays registered as *outstanding* until :meth:`release`, which lets
        :meth:`free` refuse frees that would invalidate it."""
        snapshot = (self._next_addr, len(self._tensors))
        self._live_marks.append(snapshot)
        return snapshot

    def release(self, mark: tuple[int, int]) -> None:
        """Free every allocation made since ``mark`` (their handles become
        invalid).  Lets experiment loops reuse HBM without disturbing
        long-lived tensors such as the scan constant matrices."""
        addr, count = mark
        if addr > self._next_addr or count > len(self._tensors):
            raise AllocationError("release() with a stale or foreign mark")
        # releasing a mark also retires any marks nested inside it (LIFO)
        for i in range(len(self._live_marks) - 1, -1, -1):
            if self._live_marks[i] == mark:
                del self._live_marks[i:]
                break
        else:
            raise AllocationError("release() with a stale or foreign mark")
        dropped = self._tensors[count:]
        del self._tensors[count:]
        self._next_addr = addr
        self._holes = [(a, s) for a, s in self._holes if a + s <= addr]
        # allocations that reused a pre-mark hole live below the restored
        # frontier; re-open their holes instead of leaking them
        for t in dropped:
            self._released_ids.add(t.tensor_id)
            if t.base_addr < addr:
                self._insert_hole(t.base_addr, self._aligned(t.nbytes))
