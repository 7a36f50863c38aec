"""Baseline top-k operator (the stock device top-k).

The paper reports a *negative* result for its SplitInd-based top-k: "we
could not improve the performance of the baseline top-k for small values of
k (k <= 4096)".  The stock operator is the streaming kind (cf. the RadiK
discussion, Section 5): each vector core keeps a k-element candidate heap
while sweeping its chunk once, then one core merges the per-core candidate
sets.  Its traffic is a single read of the input — hard to beat with an
algorithm that runs several full-array split passes.
"""

from __future__ import annotations

import numpy as np

from ..core.reference import stable_order
from ..errors import KernelError, ShapeError
from ..hw.memory import GlobalTensor
from ..lang import intrinsics as I
from ..lang.kernel import Kernel
from ..lang.tensor import BufferKind

__all__ = ["BaselineTopKKernel"]

_TILE = 8192
#: per-element vector cost of the streaming candidate update
_STREAM_CYCLES_PER_ELEMENT = 2.0
#: per-candidate cost of the final merge (tree-merged across cores, so the
#: constant is small per candidate)
_MERGE_CYCLES_PER_CANDIDATE = 2.0


class BaselineTopKKernel(Kernel):
    """Streaming per-core top-k + final merge (values and indices)."""

    mode = "vec"

    def __init__(
        self,
        x: GlobalTensor,
        out_values: GlobalTensor,
        out_indices: GlobalTensor,
        k: int,
        block_dim: int,
    ):
        super().__init__(block_dim=block_dim)
        n = x.num_elements
        if not 1 <= k <= n:
            raise KernelError(f"k={k} out of range for n={n}")
        if out_values.num_elements < k or out_indices.num_elements < k:
            raise ShapeError("outputs must hold k elements")
        if out_indices.dtype.name != "int32":
            raise KernelError("indices must be int32")
        self.x = x
        self.out_values = out_values
        self.out_indices = out_indices
        self.k = k
        # per-core candidate staging area in GM
        self._partial: "list[tuple[np.ndarray, np.ndarray]]" = [
            (np.empty(0),) * 2
        ] * block_dim

    def phases(self):
        return [self.phase_stream, self.phase_merge]

    def phase_stream(self, ctx) -> None:
        n = self.x.num_elements
        n_tiles = -(-n // _TILE)
        per_block = -(-n_tiles // self.block_dim) * _TILE
        start = ctx.block_idx * per_block
        end = min(start + per_block, n)
        vals_acc = np.empty(0, dtype=self.x.dtype.np_dtype)
        idx_acc = np.empty(0, dtype=np.int64)
        if start < end:
            pipe = ctx.make_pipe(ctx.vec_core(0))
            q = pipe.init_buffer(
                buffer=BufferKind.UB, depth=2,
                slot_bytes=_TILE * self.x.dtype.itemsize,
            )
            off = start
            while off < end:
                ln = min(_TILE, end - off)
                t = q.alloc_tensor(self.x.dtype, ln)
                I.data_copy(ctx, t, self.x.slice(off, ln), label="topk in")
                chunk = t.array
                # candidate update (functional): keep the running top-k
                cat_v = np.concatenate([vals_acc, chunk])
                cat_i = np.concatenate(
                    [idx_acc, np.arange(off, off + ln, dtype=np.int64)]
                )
                order = stable_order(cat_v, descending=True)
                keep = order[: self.k]
                keep.sort()  # preserve first-occurrence order among ties
                vals_acc, idx_acc = cat_v[keep], cat_i[keep]
                ctx.emitter.emit(
                    engine=ctx.engine(ctx.vec_core(0), "vec"),
                    kind="vec_macro",
                    label="topk stream cost",
                    cycles=_STREAM_CYCLES_PER_ELEMENT * ln,
                    reads=(t,),
                )
                q.free_tensor(t)
                off += ln
        self._partial[ctx.block_idx] = (vals_acc, idx_acc)

    def phase_merge(self, ctx) -> None:
        if ctx.block_idx != 0:
            return
        all_v = np.concatenate([p[0] for p in self._partial if p[0].size])
        all_i = np.concatenate([p[1] for p in self._partial if p[1].size])
        # (value desc, index asc), the torch.topk contract
        fin = np.lexsort((all_i, -all_v.astype(np.float32)))[: self.k]
        top_v, top_i = all_v[fin], all_i[fin]

        pipe = ctx.make_pipe(ctx.vec_core(0))
        chunk = min(self.k, _TILE)
        q = pipe.init_buffer(
            buffer=BufferKind.UB, depth=2, slot_bytes=chunk * 4
        )
        candidates = sum(p[0].size for p in self._partial)
        ctx.emitter.emit(
            engine=ctx.engine(ctx.vec_core(0), "vec"),
            kind="vec_macro",
            label="topk merge cost",
            cycles=_MERGE_CYCLES_PER_CANDIDATE * max(candidates, 1),
        )
        # stage the k winners out through UB-sized chunks
        off = 0
        while off < self.k:
            ln = min(chunk, self.k - off)
            vt = q.alloc_tensor(self.out_values.dtype, ln)
            arr = vt.array
            v_chunk = top_v[off : off + ln]

            def _fill_v() -> None:
                arr[...] = v_chunk.astype(arr.dtype)

            I.vector_macro(
                ctx, label="topk merge v", reads=(vt,), writes=(vt,),
                nbytes=vt.nbytes, apply=_fill_v,
            )
            I.data_copy(
                ctx, self.out_values.slice(off, ln), vt, label="topk out v"
            )
            q.free_tensor(vt)
            it = q.alloc_tensor("int32", ln)
            it_arr = it.array
            i_chunk = top_i[off : off + ln]

            def _fill_i() -> None:
                it_arr[...] = i_chunk.astype(np.int32)

            I.vector_macro(
                ctx, label="topk merge i", reads=(it,), writes=(it,),
                nbytes=it.nbytes, apply=_fill_i,
            )
            I.data_copy(
                ctx, self.out_indices.slice(off, ln), it, label="topk out i"
            )
            q.free_tensor(it)
            off += ln
