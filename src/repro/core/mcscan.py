"""MCScan — the multi-core scan (Algorithm 3).

The input is partitioned into per-block ranges of ``l = s^2`` tiles; the
two phases are separated by a device-wide ``SyncAll``:

* **Phase I** — on every block *in parallel*: the cube core computes the
  s-tile-local scans of all its tiles (``A @ U_s``) and writes them to
  global memory, while the block's vector cores *recompute* the reduction
  of the same input range and write it into the block-reduction array
  ``r``.  This partial recomputation on both unit types is the paper's key
  novelty: neither unit waits for the other inside phase I.

* **Phase II** — every vector core reads ``r``, locally scans its prefix
  (``partial = sum of the first h entries``), then streams its tiles once
  more, propagating the running partial through the s-tile-local scans.

The 910B's 2:1 vector-to-cube ratio is exploited exactly as the paper
describes ("our implementation takes advantage of the 2-to-1 ratio"):
each block's range is split into two contiguous halves, one per vector
core, so ``r`` has ``2 * block_dim`` entries.

The same seam recurses one level up.  With ``carry_slot=True`` the ``r``
array grows one entry at its front: phase I leaves ``r[0]`` alone and
writes the block totals after it, and phase II adds ``r[0]`` into every
block's prefix base.  A device pool (:mod:`repro.shard.scan`) launches
the two phases as separate programs and writes the device's carry into
``r[0]`` in between — a cross-device barrier in place of the ``SyncAll``.

Exclusive scans shift the finished tile right by one inside UB with the
previous partial as carry-in (writes stay tile-aligned; the overall first
output is zero and the last inclusive value is discarded, as in the
paper's description).  The int8 specialisation takes int8 input with
int32 accumulation/output — "crucial since the split and compress
operators take as input boolean mask arrays stored in int8 format".
"""

from __future__ import annotations

from ..errors import KernelError, ShapeError
from ..hw.datatypes import cube_accum_dtype
from ..hw.memory import GlobalTensor
from ..lang import intrinsics as I
from ..lang.kernel import Kernel
from ..lang.tensor import BufferKind
from .matrices import ScanConstants, validate_tile_size
from .pipelines import UCubePipeline, VecPropagator, VecReducer

__all__ = ["MCScanKernel", "mcscan_partition"]


def mcscan_partition(n_tiles: int, block_dim: int) -> list[tuple[int, int]]:
    """Contiguous tile ranges per block, balanced to within one tile."""
    base, extra = divmod(n_tiles, block_dim)
    ranges = []
    start = 0
    for b in range(block_dim):
        count = base + (1 if b < extra else 0)
        ranges.append((start, start + count))
        start += count
    return ranges


def _split_half(lo: int, hi: int, j: int, halves: int) -> tuple[int, int]:
    """Contiguous half ``j`` of the tile range ``[lo, hi)``."""
    count = hi - lo
    base, extra = divmod(count, halves)
    start = lo + j * base + min(j, extra)
    return (start, start + base + (1 if j < extra else 0))


class MCScanKernel(Kernel):
    """Multi-core scan (Algorithm 3), inclusive or exclusive, fp16 or int8."""

    mode = "mix"

    def __init__(
        self,
        x: GlobalTensor,
        y: GlobalTensor,
        r: GlobalTensor,
        consts: ScanConstants,
        s: int,
        block_dim: int,
        *,
        exclusive: bool = False,
        post_fns: "tuple" = (),
        carry_slot: bool = False,
    ):
        super().__init__(block_dim=block_dim)
        validate_tile_size(s)
        ell = s * s
        if x.num_elements % ell != 0:
            raise ShapeError(
                f"MCScan input length {x.num_elements} must be a multiple of "
                f"l = s^2 = {ell} (pad with zeros)"
            )
        if y.num_elements != x.num_elements:
            raise ShapeError("output length must match input length")
        if not x.dtype.cube_input:
            raise KernelError(f"MCScan input dtype {x.dtype.name} not cube-capable")
        acc = cube_accum_dtype(x.dtype)
        if y.dtype.name != acc.name or r.dtype.name != acc.name:
            raise KernelError(
                f"MCScan output and r dtypes must be the accumulator "
                f"{acc.name}, got y={y.dtype.name}, r={r.dtype.name}"
            )
        if consts.s != s or consts.dtype.name != x.dtype.name:
            raise KernelError(
                f"constants are for (s={consts.s}, {consts.dtype.name}), "
                f"kernel needs (s={s}, {x.dtype.name})"
            )
        self.x = x
        self.y = y
        self.r = r
        self.consts = consts
        self.s = s
        self.exclusive = exclusive
        #: fused elementwise epilogue, applied by phase II's propagators
        #: while each finished tile is still in UB (graph-level fusion);
        #: phase I's block reductions read the raw *input*, so the fold
        #: cannot perturb the carry chain
        self.post_fns = tuple(post_fns)
        #: ``r[0]`` holds a device carry that phase II adds into every
        #: block's prefix; the block totals start at ``r[1]``
        self.carry_slot = carry_slot
        self._halves_per_block: int | None = None  # set at launch

    def phases(self):
        return [self.phase1, self.phase2]

    def _num_halves(self, ctx) -> int:
        return len(ctx.vector_cores)

    def _r_first(self) -> int:
        """Index of the first block total in ``r`` (after the carry slot)."""
        return 1 if self.carry_slot else 0

    def _check_r(self, ctx) -> None:
        halves = self.block_dim * self._num_halves(ctx)
        slots = self._r_first()
        if self.r.num_elements < slots + halves:
            raise ShapeError(
                f"r array needs {slots + halves} entries ({slots} carry slot "
                f"+ {self.block_dim} blocks x {self._num_halves(ctx)} vector "
                f"cores), got {self.r.num_elements}"
            )

    # -- Phase I: cube local scans + vector block reductions -------------------

    def phase1(self, ctx) -> None:
        self._check_r(ctx)
        s = self.s
        ell = s * s
        n_tiles = self.x.num_elements // ell
        lo, hi = mcscan_partition(n_tiles, self.block_dim)[ctx.block_idx]

        # cube unit: s-tile-local scans of every tile in the block
        cube = UCubePipeline(ctx, self.consts, s)
        for t in range(lo, hi):
            cube.local_scan_tile(
                self.x.slice(t * ell, ell),
                self.y.slice(t * ell, ell),
                label=f"[{t}]",
            )

        # vector units: recompute the block reduction, one contiguous half
        # of the block's range per vector core
        halves = self._num_halves(ctx)
        for j in range(halves):
            h_lo, h_hi = _split_half(lo, hi, j, halves)
            reducer = VecReducer(ctx, ctx.vec_core(j), ell, self.x.dtype)
            for t in range(h_lo, h_hi):
                reducer.reduce_tile(self.x.slice(t * ell, ell), label=f"[{t}]")
            half_id = ctx.block_idx * halves + j
            reducer.write_total(
                self.r.slice(self._r_first() + half_id, 1), self.y.dtype
            )

    # -- Phase II: scan of r + propagation ------------------------------------------

    def phase2(self, ctx) -> None:
        s = self.s
        ell = s * s
        n_tiles = self.x.num_elements // ell
        lo, hi = mcscan_partition(n_tiles, self.block_dim)[ctx.block_idx]
        halves = self._num_halves(ctx)
        # with a carry slot, r[0] joins every prefix: the carry is one
        # more "block" ahead of this device's first
        r_len = self._r_first() + self.block_dim * halves

        for j in range(halves):
            h_lo, h_hi = _split_half(lo, hi, j, halves)
            if h_lo >= h_hi:
                continue
            half_id = ctx.block_idx * halves + j
            vec_core = ctx.vec_core(j)

            # load r into UB and locally scan the prefix (Algorithm 3
            # lines 17-18); every vector core recomputes this "small" scan
            pipe = ctx.make_pipe(vec_core)
            r_buf = pipe.init_buffer(
                buffer=BufferKind.UB,
                depth=1,
                slot_bytes=max(r_len * self.r.dtype.itemsize, 64),
            )
            r_tile = r_buf.alloc_tensor(self.r.dtype, r_len)
            I.data_copy(ctx, r_tile, self.r.slice(0, r_len), label="load r")
            prefix = self._r_first() + half_id
            if prefix > 0:
                base = I.reduce_sum(
                    ctx, r_tile.view(0, prefix), label="scan r prefix"
                )
            else:
                base = 0.0
            r_buf.free_tensor(r_tile)

            prop = VecPropagator(
                ctx,
                vec_core,
                ell,
                self.y.dtype,
                exclusive=self.exclusive,
                initial_partial=base,
                post_fns=self.post_fns,
            )
            for t in range(h_lo, h_hi):
                gm = self.y.slice(t * ell, ell)
                prop.propagate_tile(gm, gm, s, label=f"[{t}]")
