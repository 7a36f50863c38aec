"""AscendC-style intrinsics.

Each function both (a) performs the computation on the NumPy backing state
and (b) emits a timed op with automatically derived dependencies.  The set
mirrors the operations the paper lists in Section 3.2 (DataCopy, Mmad, Adds,
GatherMask, ...) plus the vector/scalar instructions its kernels need
(ReduceSum, ShiftRight, Not, compare, cast, ...).

Two *macro* intrinsics model instruction sequences whose per-instruction
emission would be pure overhead because the hardware provably serialises
them anyway:

* :func:`propagate_chain` — the per-``s``-tile ``Adds`` + scalar-read loop
  of Algorithms 1 and 3 (each iteration depends on the previous ``partial``);
* :func:`row_cumsum_serial` — the row-serial inner loop of the CumSum-API
  vector baseline.

Their costs are the exact sum of the per-instruction costs they stand for.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DTypeError, KernelError, ShapeError
from ..hw.datatypes import cube_accum_dtype
from ..hw.device import CoreHandle
from ..hw.isa import EngineKind
from ..hw.memory import GlobalSlice
from .context import KernelContext
from .tensor import BufferKind, Hazard, LocalTensor

__all__ = [
    "data_copy",
    "mmad",
    "adds",
    "muls",
    "add",
    "sub",
    "mul",
    "duplicate",
    "cast",
    "reduce_sum",
    "reduce_max",
    "gather_mask",
    "shift_right",
    "shift_left",
    "bit_and",
    "bit_not",
    "compare_scalar",
    "create_vec_index",
    "propagate_chain",
    "row_cumsum_serial",
    "vector_macro",
    "scalar_process",
]

#: largest |a * b| over int8 operands: (-128) * (-128)
_INT8_PRODUCT_MAX = 2**14


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _core_of(t: LocalTensor) -> CoreHandle:
    return CoreHandle(t.core_kind, t.core_index)


def _require_ub(*tensors: LocalTensor) -> None:
    for t in tensors:
        if t.buffer != BufferKind.UB:
            raise KernelError(
                f"vector intrinsics operate on UB tensors, got {t.buffer}"
            )
        if t.core_kind != "aiv":
            raise KernelError("vector intrinsics run on vector cores only")


def _require_same_core(*tensors: LocalTensor) -> None:
    cores = {(t.core_kind, t.core_index) for t in tensors}
    if len(cores) != 1:
        raise KernelError(
            f"operands live on different cores {sorted(cores)}; on the 910B "
            f"split architecture cores exchange data only through GM"
        )


def _require_same_length(*tensors: LocalTensor) -> None:
    lengths = {t.length for t in tensors}
    if len(lengths) != 1:
        raise ShapeError(f"operand lengths differ: {sorted(lengths)}")


def _acc_dtype(np_dtype: np.dtype) -> np.dtype:
    """Working dtype for functional vector arithmetic (fp16 pipes compute
    through fp32-capable ALUs; integers widen to avoid spurious overflow in
    intermediates -- final results are cast back to the tensor dtype)."""
    if np_dtype == np.float16:
        return np.dtype(np.float32)
    if np_dtype.kind in "iu" and np_dtype.itemsize < 4:
        return np.dtype(np.int32) if np_dtype.kind == "i" else np.dtype(np.uint32)
    return np_dtype


# --------------------------------------------------------------------------
# DataCopy
# --------------------------------------------------------------------------


def data_copy(ctx: KernelContext, dst, src, *, label: str = "DataCopy") -> int:
    """MTE copy: GM<->local or local<->local (paper Section 3.2).

    Dtype conversion is only performed on copies *out of L0C* (the FIXPIPE
    path quantises the fp32/int32 accumulator on its way out), matching the
    hardware's capabilities.
    """
    if isinstance(src, GlobalSlice) and isinstance(dst, LocalTensor):
        if src.length != dst.length:
            raise ShapeError(
                f"copy length mismatch: GM {src.length} -> local {dst.length}"
            )
        if src.dtype.name != dst.dtype.name:
            raise DTypeError(
                f"GM->local copy cannot convert {src.dtype.name} to {dst.dtype.name}"
            )
        engine = ctx.engine(_core_of(dst), EngineKind.MTE_IN)
        dst.array[...] = src.array
        return ctx.emitter.emit(
            engine=engine,
            kind="mte_in",
            label=label,
            writes=(dst,),
            gm_read=src,
        )

    if isinstance(src, LocalTensor) and isinstance(dst, GlobalSlice):
        if src.length != dst.length:
            raise ShapeError(
                f"copy length mismatch: local {src.length} -> GM {dst.length}"
            )
        if src.dtype.name != dst.dtype.name and src.buffer != BufferKind.L0C:
            raise DTypeError(
                f"local->GM copy converts only from L0C (FIXPIPE), not from "
                f"{src.buffer} ({src.dtype.name} -> {dst.dtype.name})"
            )
        engine = ctx.engine(_core_of(src), EngineKind.MTE_OUT)
        dst.array[...] = src.array.astype(dst.dtype.np_dtype, copy=False)
        return ctx.emitter.emit(
            engine=engine,
            kind="mte_out",
            label=label,
            reads=(src,),
            gm_write=dst,
        )

    if isinstance(src, LocalTensor) and isinstance(dst, LocalTensor):
        _require_same_core(src, dst)
        if src.length != dst.length:
            raise ShapeError(
                f"copy length mismatch: {src.length} -> {dst.length}"
            )
        if src.dtype.name != dst.dtype.name and src.buffer != BufferKind.L0C:
            raise DTypeError(
                f"local copy converts only from L0C, not from {src.buffer}"
            )
        dst.array[...] = src.array.astype(dst.dtype.np_dtype, copy=False)
        if src.core_kind == "aic":
            engine = ctx.engine(_core_of(src), EngineKind.MTE_LOCAL)
            cycles = ctx.costs.local_copy_cycles(dst.nbytes)
            kind = "mte_local"
        else:
            engine = ctx.engine(_core_of(src), EngineKind.VEC)
            cycles = ctx.costs.vector_cycles(dst.nbytes)
            kind = "vec"
        return ctx.emitter.emit(
            engine=engine,
            kind=kind,
            label=label,
            cycles=cycles,
            reads=(src,),
            writes=(dst,),
        )

    raise KernelError(
        f"unsupported DataCopy operands: {type(src).__name__} -> {type(dst).__name__}"
    )


# --------------------------------------------------------------------------
# Mmad
# --------------------------------------------------------------------------


def mmad(
    ctx: KernelContext,
    c: LocalTensor,
    a: LocalTensor,
    b: LocalTensor,
    m: int,
    k: int,
    n: int,
    *,
    accumulate: bool = False,
    label: str = "Mmad",
) -> int:
    """Cube-unit matrix multiply ``C (+)= A @ B`` with L0C accumulation."""
    _require_same_core(a, b, c)
    if a.core_kind != "aic":
        raise KernelError("mmad runs on cube cores only")
    if a.buffer != BufferKind.L0A or b.buffer != BufferKind.L0B:
        raise KernelError(
            f"mmad inputs must be in L0A/L0B, got {a.buffer}/{b.buffer}"
        )
    if c.buffer != BufferKind.L0C:
        raise KernelError(f"mmad output must be in L0C, got {c.buffer}")
    if a.dtype.name != b.dtype.name:
        raise DTypeError(f"mmad inputs differ: {a.dtype.name} vs {b.dtype.name}")
    acc = cube_accum_dtype(a.dtype)
    if c.dtype.name != acc.name:
        raise DTypeError(
            f"mmad accumulator for {a.dtype.name} is {acc.name}, got {c.dtype.name}"
        )
    if a.length < m * k or b.length < k * n or c.length < m * n:
        raise ShapeError(
            f"mmad operands too small for {m}x{k} @ {k}x{n}: "
            f"|A|={a.length}, |B|={b.length}, |C|={c.length}"
        )

    if acc.name == "int32":
        # int8 x int8 -> int32 runs as float64 BLAS (NumPy has no integer
        # BLAS: an int32 matmul of a 128^3 tile is >20x slower).  Each
        # product is at most 2**14 in magnitude, so |sum| <= k * 2**14:
        # below 2**31 there is no int32 wrap to reproduce and below 2**53
        # float64 rounds nothing, so the cast back is bit-identical to an
        # int32 matmul.  The 64 KB L0A caps k at 65,536; the bound is
        # checked anyway.
        if k * _INT8_PRODUCT_MAX >= 2**31:
            raise ShapeError(
                f"int8 mmad with k={k} can overflow the int32 accumulator "
                f"(needs k * 2**14 < 2**31)"
            )
        work = np.float64
    else:
        work = acc.np_dtype
    a_mat = a.array[: m * k].reshape(m, k).astype(work)
    b_mat = b.array[: k * n].reshape(k, n).astype(work)
    c_mat = c.array[: m * n].reshape(m, n)
    prod = a_mat @ b_mat
    if accumulate:
        c_mat += prod.astype(c_mat.dtype)
    else:
        c_mat[...] = prod.astype(c_mat.dtype)

    reads = (a, b) + ((c,) if accumulate else ())
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(a), EngineKind.CUBE),
        kind="mmad",
        label=label,
        cycles=ctx.costs.mmad_cycles(m, k, n, a.dtype),
        reads=reads,
        writes=(c,),
    )


# --------------------------------------------------------------------------
# elementwise vector ops
# --------------------------------------------------------------------------


def _vector_unary(ctx, dst, src, fn, label) -> int:
    _require_ub(dst, src)
    _require_same_core(dst, src)
    _require_same_length(dst, src)
    work = _acc_dtype(src.dtype.np_dtype)
    dst.array[...] = fn(src.array.astype(work, copy=False)).astype(
        dst.dtype.np_dtype
    )
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(src.nbytes),
        reads=(src,),
        writes=(dst,),
    )


def _vector_binary(ctx, dst, a, b, fn, label) -> int:
    _require_ub(dst, a, b)
    _require_same_core(dst, a, b)
    _require_same_length(dst, a, b)
    work = _acc_dtype(a.dtype.np_dtype)
    dst.array[...] = fn(
        a.array.astype(work, copy=False), b.array.astype(work, copy=False)
    ).astype(dst.dtype.np_dtype)
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(a.nbytes),
        reads=(a, b),
        writes=(dst,),
    )


def adds(ctx, dst, src, scalar, *, label: str = "Adds") -> int:
    """``dst = src + scalar`` (paper Section 3.2)."""
    return _vector_unary(ctx, dst, src, lambda x: x + scalar, label)


def muls(ctx, dst, src, scalar, *, label: str = "Muls") -> int:
    return _vector_unary(ctx, dst, src, lambda x: x * scalar, label)


def add(ctx, dst, a, b, *, label: str = "Add") -> int:
    return _vector_binary(ctx, dst, a, b, lambda x, y: x + y, label)


def sub(ctx, dst, a, b, *, label: str = "Sub") -> int:
    return _vector_binary(ctx, dst, a, b, lambda x, y: x - y, label)


def mul(ctx, dst, a, b, *, label: str = "Mul") -> int:
    return _vector_binary(ctx, dst, a, b, lambda x, y: x * y, label)


def duplicate(ctx, dst, value, *, label: str = "Duplicate") -> int:
    """Fill ``dst`` with a scalar."""
    _require_ub(dst)
    dst.array[...] = np.asarray(value).astype(dst.dtype.np_dtype)
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(dst.nbytes),
        writes=(dst,),
    )


def cast(ctx, dst, src, *, label: str = "Cast") -> int:
    """Dtype conversion on the vector unit."""
    _require_ub(dst, src)
    _require_same_core(dst, src)
    _require_same_length(dst, src)
    dst.array[...] = src.array.astype(dst.dtype.np_dtype)
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(max(src.nbytes, dst.nbytes)),
        reads=(src,),
        writes=(dst,),
    )


def shift_right(ctx, dst, src, bits: int, *, label: str = "ShiftRight") -> int:
    if src.dtype.np_dtype.kind not in "iu":
        raise DTypeError(f"shift_right requires integers, got {src.dtype.name}")
    return _vector_unary(ctx, dst, src, lambda x: x >> bits, label)


def shift_left(ctx, dst, src, bits: int, *, label: str = "ShiftLeft") -> int:
    if src.dtype.np_dtype.kind not in "iu":
        raise DTypeError(f"shift_left requires integers, got {src.dtype.name}")
    return _vector_unary(ctx, dst, src, lambda x: x << bits, label)


def bit_and(ctx, dst, src, mask_value: int, *, label: str = "And") -> int:
    if src.dtype.np_dtype.kind not in "iu":
        raise DTypeError(f"bit_and requires integers, got {src.dtype.name}")
    return _vector_unary(ctx, dst, src, lambda x: x & mask_value, label)


def bit_not(ctx, dst, src, *, label: str = "Not") -> int:
    if src.dtype.np_dtype.kind not in "iu":
        raise DTypeError(f"bit_not requires integers, got {src.dtype.name}")
    return _vector_unary(ctx, dst, src, lambda x: ~x, label)


def compare_scalar(ctx, dst, src, op: str, scalar, *, label: str = "Compare") -> int:
    """0/1 mask: ``dst = src <op> scalar`` with dst in int8."""
    if dst.dtype.name != "int8":
        raise DTypeError(f"compare mask must be int8, got {dst.dtype.name}")
    ops: dict[str, Callable] = {
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
        "eq": np.equal,
    }
    if op not in ops:
        raise KernelError(f"unknown compare op {op!r}")
    _require_ub(dst, src)
    _require_same_core(dst, src)
    _require_same_length(dst, src)
    work = _acc_dtype(src.dtype.np_dtype)
    dst.array[...] = ops[op](src.array.astype(work), scalar).astype(np.int8)
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(src.nbytes),
        reads=(src,),
        writes=(dst,),
    )


def create_vec_index(ctx, dst, start: int, *, label: str = "CreateVecIndex") -> int:
    """Fill ``dst`` with consecutive integers ``start, start+1, ...``
    (AscendC CreateVecIndex); used to materialise original indices for
    SplitInd."""
    if dst.dtype.np_dtype.kind not in "iu":
        raise DTypeError(f"create_vec_index requires integers, got {dst.dtype.name}")
    _require_ub(dst)
    dst.array[...] = np.arange(
        start, start + dst.length, dtype=dst.dtype.np_dtype
    )
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(dst.nbytes),
        writes=(dst,),
    )


# --------------------------------------------------------------------------
# reductions and gathers
# --------------------------------------------------------------------------


def reduce_sum(ctx, src: LocalTensor, *, label: str = "ReduceSum") -> float:
    """Whole-tensor sum; the scalar unit reads the result (one extra op's
    worth of cycles is folded in)."""
    _require_ub(src)
    work = _acc_dtype(src.dtype.np_dtype)
    value = src.array.astype(work, copy=False).sum()
    ctx.emitter.emit(
        engine=ctx.engine(_core_of(src), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(src.nbytes) + ctx.costs.scalar_cycles(1),
        reads=(src,),
    )
    return float(value)


def reduce_max(ctx, src: LocalTensor, *, label: str = "ReduceMax") -> float:
    _require_ub(src)
    work = _acc_dtype(src.dtype.np_dtype)
    value = src.array.astype(work, copy=False).max()
    ctx.emitter.emit(
        engine=ctx.engine(_core_of(src), EngineKind.VEC),
        kind="vec",
        label=label,
        cycles=ctx.costs.vector_cycles(src.nbytes) + ctx.costs.scalar_cycles(1),
        reads=(src,),
    )
    return float(value)


def gather_mask(ctx, dst, src, mask, *, label: str = "GatherMask") -> int:
    """Compact ``src`` elements where ``mask != 0`` into the front of ``dst``
    (paper Section 3.2); returns the number of gathered elements."""
    _require_ub(dst, src, mask)
    _require_same_core(dst, src, mask)
    if src.length != mask.length:
        raise ShapeError(
            f"gather_mask: src length {src.length} != mask length {mask.length}"
        )
    selected = src.array[mask.array != 0]
    count = int(selected.size)
    if count > dst.length:
        raise ShapeError(
            f"gather_mask output needs {count} elements, dst has {dst.length}"
        )
    dst.array[:count] = selected.astype(dst.dtype.np_dtype, copy=False)
    ctx.emitter.emit(
        engine=ctx.engine(_core_of(dst), EngineKind.VEC),
        kind="vec",
        label=label,
        # gather is a two-pass vector operation (mask scan + data move)
        cycles=ctx.costs.vector_cycles(src.nbytes + mask.nbytes, n_instructions=2),
        reads=(src, mask),
        writes=(dst,),
    )
    return count


# --------------------------------------------------------------------------
# macro intrinsics
# --------------------------------------------------------------------------


def propagate_chain(
    ctx,
    tile: LocalTensor,
    s: int,
    partial: float,
    register: Hazard,
    *,
    label: str = "PropagateChain",
) -> float:
    """The serial partial-sum propagation of Algorithms 1 and 3.

    For each ``s``-tile ``y_s`` of ``tile`` (in order):
    ``y_s += partial; partial = last(y_s)``.  Emitted as one macro op whose
    cost is exactly ``rows`` Adds instructions plus ``rows`` scalar reads —
    the iterations are serialised by the ``partial`` dependency, so no
    pipelining is lost by fusing them.

    Returns the final ``partial``.
    """
    _require_ub(tile)
    if s <= 0 or tile.length % s != 0:
        raise ShapeError(f"tile length {tile.length} is not a multiple of s={s}")
    rows = tile.length // s
    mat = tile.array.reshape(rows, s)
    work = _acc_dtype(tile.dtype.np_dtype)
    row_last = mat[:, -1].astype(work)
    offsets = np.empty(rows, dtype=work)
    offsets[0] = work.type(partial)
    if rows > 1:
        np.cumsum(row_last[:-1], dtype=work, out=offsets[1:])
        offsets[1:] += work.type(partial)
    mat[...] = (mat.astype(work) + offsets[:, None]).astype(tile.dtype.np_dtype)
    new_partial = float(offsets[-1] + row_last[-1])

    ctx.emitter.emit(
        engine=ctx.engine(_core_of(tile), EngineKind.VEC),
        kind="vec_chain",
        label=label,
        cycles=ctx.costs.vector_cycles(tile.nbytes, n_instructions=rows)
        + ctx.costs.scalar_cycles(rows),
        reads=(tile, register),
        writes=(tile, register),
    )
    return new_partial


def row_cumsum_serial(
    ctx,
    tile: LocalTensor,
    rows: int,
    cols: int,
    *,
    instructions_per_row: int = 4,
    label: str = "CumSumRows",
) -> int:
    """Row-serial in-tile cumulative sums — the CumSum-API building block of
    the vector-only baseline.

    Models the AscendC ``CumSum`` API processing a ``rows x cols`` UB tile
    one row at a time, ``instructions_per_row`` vector instructions per row
    (a microcoded shifted-add sequence).  Rows are serialised by the API's
    internal accumulator, hence a single macro op.
    """
    _require_ub(tile)
    if rows * cols != tile.length:
        raise ShapeError(
            f"tile length {tile.length} != rows*cols = {rows * cols}"
        )
    if instructions_per_row < 1:
        raise KernelError("instructions_per_row must be >= 1")
    mat = tile.array.reshape(rows, cols)
    work = _acc_dtype(tile.dtype.np_dtype)
    mat[...] = np.cumsum(mat.astype(work), axis=1).astype(tile.dtype.np_dtype)

    n_instr = rows * instructions_per_row
    return ctx.emitter.emit(
        engine=ctx.engine(_core_of(tile), EngineKind.VEC),
        kind="vec_chain",
        label=label,
        cycles=ctx.costs.vector_cycles(
            tile.nbytes * instructions_per_row, n_instructions=n_instr
        ),
        reads=(tile,),
        writes=(tile,),
    )


def vector_macro(
    ctx,
    *,
    label: str,
    reads: tuple = (),
    writes: tuple = (),
    nbytes: int,
    n_instructions: int = 1,
    scalar_elements: int = 0,
    apply: "Callable[[], None] | None" = None,
) -> int:
    """Escape hatch for specialised vector instruction sequences.

    ``apply`` performs the functional update (inside the intrinsic so that
    every state change stays timed); the cost is ``n_instructions`` vector
    instructions over ``nbytes`` plus ``scalar_elements`` scalar-unit reads.
    """
    tensors = tuple(t for t in reads + writes if isinstance(t, LocalTensor))
    if tensors:
        _require_ub(*tensors)
        _require_same_core(*tensors)
        core = _core_of(tensors[0])
    else:
        raise KernelError("vector_macro needs at least one UB tensor operand")
    if apply is not None:
        apply()
    return ctx.emitter.emit(
        engine=ctx.engine(core, EngineKind.VEC),
        kind="vec_macro",
        label=label,
        cycles=ctx.costs.vector_cycles(nbytes, n_instructions=n_instructions)
        + ctx.costs.scalar_cycles(scalar_elements),
        reads=reads,
        writes=writes,
    )


def scalar_process(
    ctx,
    core: CoreHandle,
    n_elements: int,
    *,
    label: str,
    reads: tuple = (),
    writes: tuple = (),
    gm_read: "GlobalSlice | None" = None,
    gm_write: "GlobalSlice | None" = None,
    apply: "Callable[[], None] | None" = None,
) -> int:
    """Element-by-element scalar-unit processing.

    Used by the un-optimised baselines the paper compares against (its code
    investigation found ``masked_select`` "does not use the vector or cube
    units", Section 6.2).
    """
    if apply is not None:
        apply()
    return ctx.emitter.emit(
        engine=ctx.engine(core, EngineKind.SCALAR),
        kind="scalar",
        label=label,
        cycles=ctx.costs.scalar_cycles(n_elements),
        reads=reads,
        writes=writes,
        gm_read=gm_read,
        gm_write=gm_write,
    )
