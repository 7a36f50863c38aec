"""SplitInd — stable parallel split returning values and original indices.

Section 5 of the paper: "SplitInd takes as input an array of 16-bit
elements and a 0/1 mask array (flags are stored in int8).  SplitInd
executes an exclusive scan using MCScan on the mask array.  Afterwards, it
gathers the correct input elements and their indices, using the vector
core's GatherMask instruction, and it stores them in global memory at the
offsets calculated by the scan."

Implementation: a three-phase kernel.  Phases 1-2 are literally MCScan's
phases (int8 specialisation, exclusive) run on the flag array; phase 3 is
the gather.  Stability gives each tile's true elements a *contiguous*
output range ``[scan[tile_start], scan[tile_start] + count)`` (and
similarly for false elements after all trues), so GatherMask compaction
plus one contiguous store per side suffices — no scatter needed.

:class:`DigitSplitKernel` is the multi-way form for a ``b``-bit radix
digit.  Its flags are ``R = 2^b`` one-hot rows of ``m`` int8, stored
digit-major, and phases 1-2 are one exclusive MCScan over the flat
``R·m`` array.  The scan at ``v·m + i`` is then the count of all digits
below ``v`` plus the count of digit ``v`` before ``i``: element ``i``'s
stable destination.  So no histogram and no base pass are needed, and the
gather writes each (tile, digit) run with one contiguous store.  The
kernel writes those flags itself in a first phase: each value's
order-preserving key is computed in UB (:func:`~repro.ops.radix.radix_keys_np`),
so one launch serves a whole digit pass straight from the values.
"""

from __future__ import annotations

from ..errors import KernelError, ShapeError
from ..hw.datatypes import as_dtype
from ..hw.memory import GlobalTensor
from ..lang import intrinsics as I
from ..lang.kernel import Kernel
from ..lang.tensor import BufferKind
from ..core.matrices import ScanConstants
from ..core.mcscan import MCScanKernel, mcscan_partition, _split_half
from .radix import radix_keys_np

__all__ = [
    "SplitIndKernel",
    "DigitSplitKernel",
    "GATHER_TILE",
    "digit_gather_tile",
]

#: elements per gather tile; sized so all eight UB operands of the gather
#: phase (values, flags, inverted flags, indices, and the four gather
#: outputs) fit in the 192 KB UB
GATHER_TILE = 4096


def _check_operands(x, flags, out_values, out_indices, in_indices) -> None:
    if flags.dtype.name != "int8":
        raise KernelError(
            f"split flags are stored in int8 (paper Section 5), "
            f"got {flags.dtype.name}"
        )
    if x.dtype.itemsize not in (1, 2):
        raise KernelError(
            f"SplitInd takes 8/16-bit elements (the paper's operator is "
            f"16-bit; 8-bit support implements its low-precision "
            f"outlook), got {x.dtype.name}"
        )
    if out_values.dtype.name != x.dtype.name:
        raise KernelError("output values dtype must match input")
    if out_indices.dtype.name != "int32":
        raise KernelError("output indices must be int32")
    if in_indices is not None and in_indices.dtype.name != "int32":
        raise KernelError("input indices must be int32")


class SplitIndKernel(Kernel):
    """Stable split of (values, indices) by an int8 flag array."""

    mode = "mix"

    def __init__(
        self,
        x: GlobalTensor,
        flags: GlobalTensor,
        scan: GlobalTensor,
        r: GlobalTensor,
        consts: ScanConstants,
        s: int,
        block_dim: int,
        out_values: GlobalTensor,
        out_indices: GlobalTensor,
        in_indices: "GlobalTensor | None" = None,
    ):
        super().__init__(block_dim=block_dim)
        n = x.num_elements
        if flags.num_elements != n or scan.num_elements != n:
            raise ShapeError("values, flags and scan arrays must share a length")
        if out_values.num_elements != n or out_indices.num_elements != n:
            raise ShapeError("split outputs must match the input length")
        _check_operands(x, flags, out_values, out_indices, in_indices)
        self.x = x
        self.flags = flags
        self.out_values = out_values
        self.out_indices = out_indices
        self.in_indices = in_indices
        self.s = s
        # phases 1-2: exclusive int8 MCScan over the flags
        self.mc = MCScanKernel(
            flags, scan, r, consts, s, block_dim, exclusive=True
        )

    def phases(self):
        return [self.mc.phase1, self.mc.phase2, self.gather_phase]

    # -- phase 3: gather ---------------------------------------------------------

    def gather_phase(self, ctx) -> None:
        n = self.x.num_elements
        scan = self.mc.y
        r = self.mc.r
        halves = len(ctx.vector_cores)
        total_halves = self.block_dim * halves
        ell = self.s * self.s
        n_tiles = n // ell
        lo, hi = mcscan_partition(n_tiles, self.block_dim)[ctx.block_idx]

        for j in range(halves):
            h_lo, h_hi = _split_half(lo, hi, j, halves)
            if h_lo >= h_hi:
                continue
            vec = ctx.vec_core(j)
            pipe = ctx.make_pipe(vec)
            g = GATHER_TILE
            esz = self.x.dtype.itemsize
            q_vals = pipe.init_buffer(
                buffer=BufferKind.UB, depth=1, slot_bytes=g * esz
            )
            q_flags = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g)
            q_inv = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g)
            q_idx = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g * 4)
            q_gv = pipe.init_buffer(
                buffer=BufferKind.UB, depth=2, slot_bytes=g * esz
            )
            q_gi = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=g * 4)
            q_small = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=256)

            # total number of trues: reduce the block-reduction array r
            # (tiny, already in GM from phase 1)
            r_t = q_small.alloc_tensor(r.dtype, total_halves)
            I.data_copy(ctx, r_t, r.slice(0, total_halves), label="load r")
            n_true = int(round(I.reduce_sum(ctx, r_t, label="sum r")))
            q_small.free_tensor(r_t)

            start_elem = h_lo * ell
            end_elem = h_hi * ell
            off = start_elem
            while off < end_elem:
                ln = min(g, end_elem - off)
                # exclusive scan value at the tile start = trues before tile
                base_t = q_small.alloc_tensor(scan.dtype, 1)
                I.data_copy(ctx, base_t, scan.slice(off, 1), label="tile offset")
                base_true = int(base_t.array[0])
                q_small.free_tensor(base_t)
                base_false = n_true + (off - base_true)

                vals = q_vals.alloc_tensor(self.x.dtype, ln)
                I.data_copy(ctx, vals, self.x.slice(off, ln), label="load x")
                flags = q_flags.alloc_tensor("int8", ln)
                I.data_copy(ctx, flags, self.flags.slice(off, ln), label="load f")
                idx = q_idx.alloc_tensor("int32", ln)
                if self.in_indices is not None:
                    I.data_copy(
                        ctx, idx, self.in_indices.slice(off, ln), label="load idx"
                    )
                else:
                    I.create_vec_index(ctx, idx, off)

                # true side
                gv = q_gv.alloc_tensor(self.x.dtype, ln)
                count = I.gather_mask(ctx, gv, vals, flags, label="gather vals T")
                if count:
                    I.data_copy(
                        ctx,
                        self.out_values.slice(base_true, count),
                        gv.view(0, count),
                        label="store vals T",
                    )
                q_gv.free_tensor(gv)
                gi = q_gi.alloc_tensor("int32", ln)
                I.gather_mask(ctx, gi, idx, flags, label="gather idx T")
                if count:
                    I.data_copy(
                        ctx,
                        self.out_indices.slice(base_true, count),
                        gi.view(0, count),
                        label="store idx T",
                    )
                q_gi.free_tensor(gi)

                # false side (inverted mask)
                inv = q_inv.alloc_tensor("int8", ln)
                I.compare_scalar(ctx, inv, flags, "eq", 0, label="invert flags")
                fcount = ln - count
                gv = q_gv.alloc_tensor(self.x.dtype, ln)
                I.gather_mask(ctx, gv, vals, inv, label="gather vals F")
                if fcount:
                    I.data_copy(
                        ctx,
                        self.out_values.slice(base_false, fcount),
                        gv.view(0, fcount),
                        label="store vals F",
                    )
                q_gv.free_tensor(gv)
                gi = q_gi.alloc_tensor("int32", ln)
                I.gather_mask(ctx, gi, idx, inv, label="gather idx F")
                if fcount:
                    I.data_copy(
                        ctx,
                        self.out_indices.slice(base_false, fcount),
                        gi.view(0, fcount),
                        label="store idx F",
                    )
                q_gi.free_tensor(gi)
                q_inv.free_tensor(inv)
                q_idx.free_tensor(idx)
                q_flags.free_tensor(flags)
                q_vals.free_tensor(vals)
                off += ln


def digit_gather_tile(s: int) -> int:
    """Elements per :class:`DigitSplitKernel` gather tile: GATHER_TILE,
    but never more than one s x s scan tile, so small tiles keep small
    digit rows."""
    return min(GATHER_TILE, s * s)


class DigitSplitKernel(Kernel):
    """One LSB radix pass over 8/16-bit values: a stable ``R``-way split
    of (values, indices) by the ``log2 R``-bit digit of each value's
    radix key at ``shift``.

    Phase 0 one-hots the digits into digit-major int8 flags (``R`` rows
    of ``m``), phases 1-2 scan them, phase 3 gathers."""

    mode = "mix"

    def __init__(
        self,
        x: GlobalTensor,
        flags: GlobalTensor,
        scan: GlobalTensor,
        r: GlobalTensor,
        consts: ScanConstants,
        s: int,
        block_dim: int,
        out_values: GlobalTensor,
        out_indices: GlobalTensor,
        in_indices: "GlobalTensor | None" = None,
        *,
        shift: int = 0,
        descending: bool = False,
    ):
        super().__init__(block_dim=block_dim)
        m = x.num_elements
        self.gather_tile = digit_gather_tile(s)
        if m % self.gather_tile:
            raise ShapeError(
                f"digit split length {m} must be a multiple of the gather "
                f"tile {self.gather_tile}"
            )
        if flags.num_elements % m or scan.num_elements != flags.num_elements:
            raise ShapeError(
                "digit flags and scan must hold a whole number of rows of "
                "the input length"
            )
        if out_values.num_elements != m or out_indices.num_elements != m:
            raise ShapeError("split outputs must match the input length")
        _check_operands(x, flags, out_values, out_indices, in_indices)
        self.x = x
        self.flags = flags
        self.radix = flags.num_elements // m
        key_bits = x.dtype.itemsize * 8
        digit_bits = self.radix.bit_length() - 1
        if self.radix != 1 << digit_bits or not (
            0 <= shift <= key_bits - digit_bits
        ):
            raise KernelError(
                f"{self.radix} digit rows at shift {shift} do not fit the "
                f"{key_bits}-bit key"
            )
        self.shift = shift
        self.descending = descending
        self.key_dtype = as_dtype(f"uint{key_bits}")
        # the instructions the encode and map kernels charge for the key:
        # fp16's four-instruction encode, the signed bias XOR, and the
        # descending inversion
        if x.dtype.name == "fp16":
            self.key_instructions = 4 + descending
        else:
            self.key_instructions = int(
                x.dtype.np_dtype.kind == "i" or descending
            )
        self.out_values = out_values
        self.out_indices = out_indices
        self.in_indices = in_indices
        # phases 1-2: one exclusive int8 MCScan over all R flag rows
        self.mc = MCScanKernel(
            flags, scan, r, consts, s, block_dim, exclusive=True
        )

    def phases(self):
        return [self.digit_phase, self.mc.phase1, self.mc.phase2, self.gather_phase]

    def _lanes(self, ctx):
        """(vector core, first item, end item) of this block's non-empty
        lanes: every (gather tile, digit) pair is one work item, dealt
        tile-major in contiguous runs over all vector cores, so a lane
        reloads a tile only when its tile changes."""
        halves = len(ctx.vector_cores)
        n_items = (self.x.num_elements // self.gather_tile) * self.radix
        lanes = mcscan_partition(n_items, self.block_dim * halves)
        for j in range(halves):
            lo, hi = lanes[ctx.block_idx * halves + j]
            if lo < hi:
                yield j, lo, hi

    # -- phase 0: digit one-hot ---------------------------------------------------

    def _digits(self, ctx, q_vals, q_keys, q_dig, off: int):
        """Load one tile of values and reduce it to the digit of each
        value's radix key; the key never leaves UB."""
        g = self.gather_tile
        vals = q_vals.alloc_tensor(self.x.dtype, g)
        I.data_copy(ctx, vals, self.x.slice(off, g), label="load x")
        keys = vals
        if self.key_instructions:
            keys = q_keys.alloc_tensor(self.key_dtype, g)
            src, dst, descending = vals.array, keys.array, self.descending

            def _encode() -> None:
                dst[...] = radix_keys_np(src, descending)

            I.vector_macro(
                ctx,
                label="encode keys",
                reads=(vals,),
                writes=(keys,),
                nbytes=self.key_instructions * vals.nbytes,
                n_instructions=self.key_instructions,
                apply=_encode,
            )
        digits = q_dig.alloc_tensor(self.key_dtype, g)
        I.shift_right(ctx, digits, keys, self.shift, label=f"shift {self.shift}")
        I.bit_and(ctx, digits, digits, self.radix - 1, label="mask digit")
        if keys is not vals:
            q_keys.free_tensor(keys)
        q_vals.free_tensor(vals)
        return digits

    def digit_phase(self, ctx) -> None:
        """Write flag row ``v`` of each work item: one ``Compare eq v``
        and one row store, over digits computed once per tile run."""
        m = self.x.num_elements
        g = self.gather_tile
        esz = self.x.dtype.itemsize
        for j, lo, hi in self._lanes(ctx):
            pipe = ctx.make_pipe(ctx.vec_core(j))
            q_vals = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g * esz)
            q_keys = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g * esz)
            q_dig = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g * esz)
            q_flags = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=g)
            digits = None
            for item in range(lo, hi):
                tile, digit = divmod(item, self.radix)
                off = tile * g
                if digit == 0 or item == lo:
                    if digits is not None:
                        q_dig.free_tensor(digits)
                    digits = self._digits(ctx, q_vals, q_keys, q_dig, off)
                flags = q_flags.alloc_tensor("int8", g)
                I.compare_scalar(ctx, flags, digits, "eq", digit, label=f"digit {digit}")
                I.data_copy(
                    ctx, self.flags.slice(digit * m + off, g), flags,
                    label=f"store row {digit}",
                )
                q_flags.free_tensor(flags)
            q_dig.free_tensor(digits)

    def _row_offset(self, ctx, q_small, digit: int, off: int) -> int:
        """Destination of the first digit-``digit`` element at or after
        ``off``: one scalar DMA of the exclusive scan."""
        m = self.x.num_elements
        scan = self.mc.y
        t = q_small.alloc_tensor(scan.dtype, 1)
        I.data_copy(ctx, t, scan.slice(digit * m + off, 1), label="row offset")
        base = int(t.array[0])
        q_small.free_tensor(t)
        return base

    # -- phase 3: gather ---------------------------------------------------------

    def gather_phase(self, ctx) -> None:
        """Gather each work item's digit run: values and indices reload
        only when the lane's tile changes."""
        m = self.x.num_elements
        g = self.gather_tile
        esz = self.x.dtype.itemsize
        for j, lo, hi in self._lanes(ctx):
            pipe = ctx.make_pipe(ctx.vec_core(j))
            q_vals = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g * esz)
            q_idx = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=g * 4)
            q_flags = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=g)
            q_gv = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=g * esz)
            q_gi = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=g * 4)
            q_small = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=64)
            vals = idx = None
            for item in range(lo, hi):
                tile, digit = divmod(item, self.radix)
                off = tile * g
                if digit == 0 or item == lo:
                    if vals is not None:
                        q_idx.free_tensor(idx)
                        q_vals.free_tensor(vals)
                    vals = q_vals.alloc_tensor(self.x.dtype, g)
                    I.data_copy(ctx, vals, self.x.slice(off, g), label="load x")
                    idx = q_idx.alloc_tensor("int32", g)
                    if self.in_indices is not None:
                        I.data_copy(
                            ctx, idx, self.in_indices.slice(off, g), label="load idx"
                        )
                    else:
                        I.create_vec_index(ctx, idx, off)
                base = self._row_offset(ctx, q_small, digit, off)
                flags = q_flags.alloc_tensor("int8", g)
                I.data_copy(
                    ctx, flags, self.flags.slice(digit * m + off, g),
                    label=f"load row {digit}",
                )
                gv = q_gv.alloc_tensor(self.x.dtype, g)
                count = I.gather_mask(ctx, gv, vals, flags, label="gather vals")
                if count:
                    I.data_copy(
                        ctx, self.out_values.slice(base, count), gv.view(0, count),
                        label="store vals",
                    )
                q_gv.free_tensor(gv)
                gi = q_gi.alloc_tensor("int32", g)
                I.gather_mask(ctx, gi, idx, flags, label="gather idx")
                if count:
                    I.data_copy(
                        ctx, self.out_indices.slice(base, count), gi.view(0, count),
                        label="store idx",
                    )
                q_gi.free_tensor(gi)
                q_flags.free_tensor(flags)
            q_idx.free_tensor(idx)
            q_vals.free_tensor(vals)
