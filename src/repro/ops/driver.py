"""Host-side drivers for the scan-based operators (paper Section 5).

:class:`AscendOps` plays the role of the paper's PyTorch operator plugin
layer: it owns a :class:`~repro.core.api.ScanContext`, allocates device
buffers, chains kernel launches, and returns
:class:`~repro.ops.result.OperatorResult` objects whose time is the sum of
the launches — the same accounting the PyTorch profiler would produce for
a chain of custom operators.

Operators: ``split`` / ``compress`` (+ scalar ``masked_select`` baseline),
``radix_sort`` (+ merge-sort ``baseline_sort``), ``topk`` (+ baseline),
``top_p_sample`` (cube and baseline backends) and ``weighted_sample``
(+ ``multinomial_baseline`` with the paper's 2^24 support-size limit).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import KernelError, ShapeError
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..hw.datatypes import DType, as_dtype
from ..hw.memory import GlobalTensor
from ..core.api import ScanContext, max_block_dim
from ..core.matrices import padded_length
from ..core.mcscan import MCScanKernel
from ..core.reference import stable_order
from .compress import CompressKernel, MaskedSelectBaselineKernel
from .elementwise import ElementwiseMapKernel, PredicateCountKernel, RangeCopyKernel
from .radix import (
    DecodeFp16Kernel,
    EncodeFp16Kernel,
    RadixSingleKernel,
    radix_keys_np,
    radix_pad_value,
    radix_values_np,
)
from .radix_select import CountMatchKernel
from .result import OperatorResult
from .sort_baseline import BaselineSortKernel
from .split import DigitSplitKernel, SplitIndKernel, digit_gather_tile
from .topk_baseline import BaselineTopKKernel
from .sampling import MultinomialTwoPassKernel

__all__ = ["AscendOps", "MULTINOMIAL_MAX_SUPPORT", "radix_scan_length"]

#: torch.multinomial's support-size limit on the baseline (paper Section 5)
MULTINOMIAL_MAX_SUPPORT = 1 << 24

_NEG_INF = np.float16(-np.inf)

#: radix digit widths ``radix_sort`` accepts (1 is the paper's per-bit path)
DIGIT_BITS = (1, 2, 4, 8)


def _radix_pad_unit(s: int, digit_bits: int) -> int:
    """Padding granularity of a radix sort's keys: one ``s x s`` tile per
    bit split; on the digit path the ``R·m`` digit flags must tile by
    ``s^2`` for the MCScan, and ``m`` by the digit split's gather tile."""
    ell = s * s
    if digit_bits == 1:
        return ell
    return math.lcm(ell // math.gcd(ell, 1 << digit_bits), digit_gather_tile(s))


def radix_scan_length(n: int, s: int, digit_bits: int) -> int:
    """Flags each pass of an ``n``-key radix sort's MCScan scans at tile
    ``s``: the padded keys, times one digit row per radix value on the
    digit path."""
    padded = padded_length(n, _radix_pad_unit(s, digit_bits))
    return padded if digit_bits == 1 else padded << digit_bits


def _value_dtype(x: np.ndarray) -> DType:
    kind = np.dtype(x.dtype)
    if kind == np.float16:
        return as_dtype("fp16")
    if kind == np.uint16:
        return as_dtype("uint16")
    if kind == np.int16:
        return as_dtype("int16")
    if kind == np.uint8:
        # the paper's low-precision outlook: 8-bit keys halve the radix
        # sort's iterations (Section 6.3)
        return as_dtype("uint8")
    if kind == np.int8:
        return as_dtype("int8")
    raise KernelError(
        f"scan-based operators take 8/16-bit elements (paper Section 5), "
        f"got {kind}"
    )


class AscendOps:
    """Scan-based operator suite on a simulated Ascend device."""

    def __init__(
        self,
        scan_context: "ScanContext | None" = None,
        config: DeviceConfig = ASCEND_910B4,
    ):
        self.sc = scan_context if scan_context is not None else ScanContext(config)
        self.device = self.sc.device
        self.config = self.device.config

    # ------------------------------------------------------------------ helpers

    def _vec_block_dim(self, n: int) -> int:
        return max(1, min(self.config.num_vector_cores, -(-n // 16384)))

    def _mix_block_dim(self, n_tiles: int) -> int:
        return max_block_dim(self.config, n_tiles)

    def _alloc_padded(
        self, name: str, values: np.ndarray, pad_to: int, dtype: DType, pad_value=0
    ) -> GlobalTensor:
        n = values.size
        padded = padded_length(n, pad_to)
        t = self.device.alloc(name, (padded,), dtype)
        buf = np.full(padded, pad_value, dtype=dtype.np_dtype)
        buf[:n] = values
        t.write(buf)
        return t

    def _scan_workspace(self, padded: int, s: int, block_dim: int):
        """(scan, r) buffers for one MCScan-based operator."""
        halves = block_dim * self.config.vector_cores_per_ai_core
        scan = self.device.alloc("ws_scan", (padded,), "int32")
        r = self.device.alloc("ws_r", (halves,), "int32")
        return scan, r

    def _launch_split(
        self,
        traces: list,
        x_gm: GlobalTensor,
        flags_gm: GlobalTensor,
        out_v: GlobalTensor,
        out_i: GlobalTensor,
        in_idx: "GlobalTensor | None",
        s: int,
        block_dim: int,
        scan_gm: GlobalTensor,
        r_gm: GlobalTensor,
        label: str,
    ) -> None:
        consts = self.sc.constants(s, "int8")
        kernel = SplitIndKernel(
            x_gm, flags_gm, scan_gm, r_gm, consts, s, block_dim,
            out_v, out_i, in_indices=in_idx,
        )
        traces.append(self.device.launch(kernel, label=label))

    # ------------------------------------------------------------------ split

    def split(self, x: np.ndarray, flags: np.ndarray, *, s: int = 128) -> OperatorResult:
        """Stable split with original indices (SplitInd, Section 5)."""
        x = np.asarray(x)
        flags = np.asarray(flags)
        if flags.shape != x.shape or x.ndim != 1:
            raise ShapeError("split expects 1-D values and flags of equal length")
        n = x.size
        dt = _value_dtype(x)
        ell = s * s
        mark = self.device.memory.mark()
        try:
            x_gm = self._alloc_padded("split_x", x, ell, dt)
            f_gm = self._alloc_padded(
                "split_f", flags.astype(np.int8), ell, as_dtype("int8")
            )
            padded = x_gm.num_elements
            bd = self._mix_block_dim(padded // ell)
            scan_gm, r_gm = self._scan_workspace(padded, s, bd)
            out_v = self.device.alloc("split_out_v", (padded,), dt)
            out_i = self.device.alloc("split_out_i", (padded,), "int32")
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm, f_gm)
            traces: list = []
            self._launch_split(
                traces, x_gm, f_gm, out_v, out_i, None, s, bd, scan_gm, r_gm,
                label=f"SplitInd(s={s})",
            )
            values = out_v.to_numpy()[:n]
            indices = out_i.to_numpy()[:n]
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + 1 + dt.itemsize + 4)
        return OperatorResult(values, traces, n, io, indices=indices)

    # ------------------------------------------------------------------ compress

    def compress(self, x: np.ndarray, mask: np.ndarray, *, s: int = 128) -> OperatorResult:
        """Masked compaction (``torch.masked_select`` equivalent)."""
        x = np.asarray(x)
        mask = np.asarray(mask)
        if mask.shape != x.shape or x.ndim != 1:
            raise ShapeError("compress expects 1-D values and mask of equal length")
        n = x.size
        dt = _value_dtype(x)
        ell = s * s
        n_true = int(np.count_nonzero(mask))
        mark = self.device.memory.mark()
        try:
            x_gm = self._alloc_padded("cmp_x", x, ell, dt)
            m_gm = self._alloc_padded(
                "cmp_m", mask.astype(np.int8), ell, as_dtype("int8")
            )
            padded = x_gm.num_elements
            bd = self._mix_block_dim(padded // ell)
            scan_gm, r_gm = self._scan_workspace(padded, s, bd)
            out_v = self.device.alloc("cmp_out", (padded,), dt)
            consts = self.sc.constants(s, "int8")
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm, m_gm)
            kernel = CompressKernel(
                x_gm, m_gm, scan_gm, r_gm, consts, s, bd, out_v
            )
            trace = self.device.launch(kernel, label=f"Compress(s={s})")
            values = out_v.to_numpy()[:n_true]
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + 1) + n_true * dt.itemsize
        return OperatorResult(values, [trace], n, io)

    def masked_select_baseline(self, x: np.ndarray, mask: np.ndarray) -> OperatorResult:
        """The unoptimised scalar-unit ``torch.masked_select`` baseline."""
        x = np.asarray(x)
        mask = np.asarray(mask)
        if mask.shape != x.shape or x.ndim != 1:
            raise ShapeError("masked_select expects 1-D values and mask")
        n = x.size
        dt = _value_dtype(x)
        n_true = int(np.count_nonzero(mask))
        mark = self.device.memory.mark()
        try:
            x_gm = self._alloc_padded("msb_x", x, 1, dt)
            m_gm = self._alloc_padded(
                "msb_m", mask.astype(np.int8), 1, as_dtype("int8")
            )
            out = self.device.alloc("msb_out", (n,), dt)
            kernel = MaskedSelectBaselineKernel(x_gm, m_gm, out)
            trace = self.device.launch(kernel, label="masked_select baseline")
            values = out.to_numpy()[:n_true]
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + 1) + n_true * dt.itemsize
        return OperatorResult(values, [trace], n, io)

    # ------------------------------------------------------------------ radix sort

    def radix_sort(
        self,
        x: np.ndarray,
        *,
        s: int = 128,
        descending: bool = False,
        digit_bits: int = 1,
    ) -> OperatorResult:
        """Stable LSB radix sort of 8/16-bit keys returning (values,
        indices), matching the ``torch.sort`` contract (Section 6.3).

        ``digit_bits=1`` is the paper's path: an encode launch, then one
        RadixSingle + SplitInd per key bit over uint keys, then a decode
        launch.  A wider digit runs one :class:`DigitSplitKernel` launch
        per ``digit_bits`` key bits over the values themselves: each pass
        computes the keys in UB, so no encode or decode launch is needed."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError("radix_sort expects a 1-D array")
        n = x.size
        dt = _value_dtype(x)
        ell = s * s
        # LSB radix: one split per key bit -- 16 for fp16/u16/i16, 8 for
        # 8-bit keys (the "additional 2x for low-precision sorting" of
        # Section 6.3) -- or one digit split per digit_bits bits
        bits = dt.itemsize * 8
        if digit_bits not in DIGIT_BITS or bits % digit_bits:
            raise KernelError(
                f"digit_bits must be one of {DIGIT_BITS} dividing the "
                f"{bits}-bit key, got {digit_bits}"
            )
        per_bit = digit_bits == 1
        unit = _radix_pad_unit(s, digit_bits)
        mark = self.device.memory.mark()
        try:
            traces: list = []
            key_dt = as_dtype("uint16") if dt.itemsize == 2 else as_dtype("uint8")
            # pads take the maximum key: they sort after every real key
            # (NaN encodings included) in either direction, and the stable
            # splits keep them behind real ties.  The digit path sorts the
            # values themselves, so it pads with the value of that key.
            pad = 0 if per_bit else radix_pad_value(dt.np_dtype, descending)
            x_gm = self._alloc_padded("rs_x", x, unit, dt, pad_value=pad)
            padded = x_gm.num_elements
            vbd = self._vec_block_dim(padded)
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm)

            # ping-pong buffers: uint keys per bit, values per digit
            if per_bit:
                bufs = [
                    self.device.alloc("rs_k0", (padded,), key_dt),
                    self.device.alloc("rs_k1", (padded,), key_dt),
                ]
            else:
                bufs = [x_gm, self.device.alloc("rs_v1", (padded,), dt)]
            idx = [
                self.device.alloc("rs_i0", (padded,), "int32"),
                self.device.alloc("rs_i1", (padded,), "int32"),
            ]
            flat = radix_scan_length(n, s, digit_bits)
            flags = self.device.alloc("rs_f", (flat,), "int8")
            bd = self._mix_block_dim(flat // ell)
            scan_gm, r_gm = self._scan_workspace(flat, s, bd)

            if per_bit:
                self._encode_keys(traces, x_gm, bufs[0], descending, vbd)
                bufs[0].flat[n:] = np.iinfo(key_dt.np_dtype).max

            cur = 0
            for shift in range(0, bits, digit_bits):
                in_idx = idx[cur] if shift > 0 else None
                if per_bit:
                    traces.append(
                        self.device.launch(
                            RadixSingleKernel(bufs[cur], flags, shift, vbd),
                            label=f"RadixSingle bit {shift}",
                        )
                    )
                    self._launch_split(
                        traces, bufs[cur], flags, bufs[1 - cur], idx[1 - cur],
                        in_idx, s, bd, scan_gm, r_gm,
                        label=f"split bit {shift}",
                    )
                else:
                    kernel = DigitSplitKernel(
                        bufs[cur], flags, scan_gm, r_gm,
                        self.sc.constants(s, "int8"), s, bd,
                        bufs[1 - cur], idx[1 - cur], in_indices=in_idx,
                        shift=shift, descending=descending,
                    )
                    traces.append(
                        self.device.launch(kernel, label=f"digit split shift {shift}")
                    )
                cur = 1 - cur

            out_v = bufs[cur]
            if per_bit:
                out_v = self.device.alloc("rs_out_v", (padded,), dt)
                self._decode_keys(traces, bufs[cur], out_v, descending, vbd)
            values = out_v.to_numpy()[:n]
            indices = idx[cur].to_numpy()[:n]
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + dt.itemsize + 4)
        return OperatorResult(values, traces, n, io, indices=indices)

    def _encode_keys(self, traces, x_gm, keys, descending, vbd) -> None:
        """Per-bit pre-processing: the order-preserving key encoding."""
        dt = x_gm.dtype
        if dt.name == "fp16":
            work = x_gm
            if descending:
                work = self.device.alloc("rs_neg", (x_gm.num_elements,), dt)
                traces.append(
                    self.device.launch(
                        ElementwiseMapKernel(
                            x_gm, work, lambda v: -v, vbd, label="negate"
                        ),
                        label="negate",
                    )
                )
            traces.append(
                self.device.launch(
                    EncodeFp16Kernel(work, keys, vbd), label="encode fp16"
                )
            )
            return
        traces.append(
            self.device.launch(
                ElementwiseMapKernel(
                    x_gm, keys, lambda v: radix_keys_np(v, descending), vbd,
                    label="encode keys",
                ),
                label="encode keys",
            )
        )

    def _decode_keys(self, traces, keys, out_v, descending, vbd) -> None:
        """Per-bit post-processing: decode keys back to values."""
        dt = out_v.dtype
        if dt.name == "fp16":
            traces.append(
                self.device.launch(
                    DecodeFp16Kernel(keys, out_v, vbd), label="decode fp16"
                )
            )
            if descending:
                traces.append(
                    self.device.launch(
                        ElementwiseMapKernel(
                            out_v, out_v, lambda v: -v, vbd, label="negate out"
                        ),
                        label="negate out",
                    )
                )
            return
        traces.append(
            self.device.launch(
                ElementwiseMapKernel(
                    keys, out_v,
                    lambda v: radix_values_np(v, dt.np_dtype, descending), vbd,
                    label="decode keys",
                ),
                label="decode keys",
            )
        )

    def baseline_sort(
        self, x: np.ndarray, *, descending: bool = False
    ) -> OperatorResult:
        """``torch.sort`` baseline: vector-only two-level merge sort."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError("baseline_sort expects a 1-D array")
        n = x.size
        dt = _value_dtype(x)
        if dt.name != "fp16" and descending:
            raise KernelError("descending baseline sort is implemented for fp16")
        vbd = self._vec_block_dim(n)
        mark = self.device.memory.mark()
        try:
            traces: list = []
            x_gm = self._alloc_padded("bs_x", x, 1, dt)
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm)
            work = x_gm
            if descending:
                neg = self.device.alloc("bs_neg", (n,), dt)
                traces.append(
                    self.device.launch(
                        ElementwiseMapKernel(
                            x_gm, neg, lambda v: -v, vbd, label="negate"
                        ),
                        label="negate",
                    )
                )
                work = neg
            out_v = self.device.alloc("bs_out_v", (n,), dt)
            out_i = self.device.alloc("bs_out_i", (n,), "int32")
            sc_v = self.device.alloc("bs_sc_v", (n,), dt)
            sc_i = self.device.alloc("bs_sc_i", (n,), "int32")
            bd = min(self.config.num_vector_cores, max(1, -(-n // 8192)))
            kernel = BaselineSortKernel(work, out_v, out_i, sc_v, sc_i, bd)
            traces.append(self.device.launch(kernel, label="torch.sort baseline"))
            if descending:
                traces.append(
                    self.device.launch(
                        ElementwiseMapKernel(
                            out_v, out_v, lambda v: -v, vbd, label="negate out"
                        ),
                        label="negate out",
                    )
                )
            values = out_v.to_numpy()
            indices = out_i.to_numpy()
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize * 2 + 4)
        return OperatorResult(values, traces, n, io, indices=indices)

    # ------------------------------------------------------------------ top-k

    def topk(self, x: np.ndarray, k: int, *, s: int = 128) -> OperatorResult:
        """Top-k selection via partial quickselect on SplitInd (Section 5).

        Reproduces the paper's *negative* result: for small k this does not
        beat the streaming baseline (several full-array split passes versus
        the baseline's single pass).
        """
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError("topk expects a 1-D array")
        if not 1 <= k <= x.size:
            raise KernelError(f"k={k} out of range for n={x.size}")
        dt = _value_dtype(x)
        if dt.name != "fp16":
            raise KernelError("topk is implemented for fp16 values")
        n = x.size
        ell = s * s
        rng = np.random.default_rng(0x5EED)
        mark = self.device.memory.mark()
        try:
            traces: list = []
            cur_v = self._alloc_padded("tk_v", x, ell, dt, pad_value=_NEG_INF)
            padded0 = cur_v.num_elements
            cur_i = self.device.alloc("tk_i", (padded0,), "int32")
            cur_i.write(np.arange(padded0, dtype=np.int32))
            if self.sc.warm_inputs:
                self.device.warm_l2(cur_v)

            collected_v: list[np.ndarray] = []
            collected_i: list[np.ndarray] = []
            seg_len = n
            k_rem = k
            while seg_len > max(2 * ell, k_rem):
                padded = padded_length(seg_len, ell)
                vbd = self._vec_block_dim(padded)
                bd = self._mix_block_dim(padded // ell)
                # pivot: a random value of the segment (host-chosen, as the
                # operator's tiling pass would sample it)
                pivot = float(cur_v.flat[rng.integers(0, seg_len)])
                flags = self.device.alloc("tk_f", (padded,), "int8")
                counts = self.device.alloc("tk_c", (vbd,), "int32")
                traces.append(
                    self.device.launch(
                        PredicateCountKernel(
                            cur_v.prefix(padded), flags, counts, "gt", pivot, vbd
                        ),
                        label="pivot mask",
                    )
                )
                count = int(counts.to_numpy().sum())
                out_v = self.device.alloc("tk_ov", (padded,), dt)
                out_i = self.device.alloc("tk_oi", (padded,), "int32")
                scan_gm, r_gm = self._scan_workspace(padded, s, bd)
                self._launch_split(
                    traces,
                    cur_v.prefix(padded),
                    flags,
                    out_v,
                    out_i,
                    cur_i.prefix(padded),
                    s, bd, scan_gm, r_gm,
                    label="topk split",
                )
                if count >= k_rem:
                    cur_v, cur_i, seg_len = out_v, out_i, count
                else:
                    collected_v.append(out_v.to_numpy()[:count])
                    collected_i.append(out_i.to_numpy()[:count])
                    k_rem -= count
                    # keep the "not greater" side (it starts at offset
                    # count); compact it to the front of fresh buffers
                    rest = seg_len - count
                    new_pad = padded_length(rest, ell)
                    new_v = self.device.alloc("tk_v2", (new_pad,), dt)
                    new_v.flat[rest:] = _NEG_INF  # allocator pad fill
                    new_i = self.device.alloc("tk_i2", (new_pad,), "int32")
                    traces.append(
                        self.device.launch(
                            RangeCopyKernel(out_v, new_v, count, rest, vbd),
                            label="compact vals",
                        )
                    )
                    traces.append(
                        self.device.launch(
                            RangeCopyKernel(out_i, new_i, count, rest, vbd),
                            label="compact idx",
                        )
                    )
                    cur_v, cur_i, seg_len = new_v, new_i, rest

            # final: sort the remaining small segment descending and take
            # the top k_rem
            fin_v, fin_i = self._small_sort_desc(traces, cur_v, cur_i, seg_len)
            collected_v.append(fin_v[:k_rem])
            collected_i.append(fin_i[:k_rem])
            values = np.concatenate(collected_v)
            indices = np.concatenate(collected_i)
            order = stable_order(values, descending=True)
            values, indices = values[order], indices[order]
        finally:
            self.device.memory.release(mark)
        io = n * dt.itemsize + k * (dt.itemsize + 4)
        return OperatorResult(values[:k], traces, n, io, indices=indices[:k])

    def _small_sort_desc(self, traces, v_gm, i_gm, seg_len):
        dt = v_gm.dtype
        vbd = self._vec_block_dim(seg_len)
        neg = self.device.alloc("tk_sneg", (seg_len,), dt)
        traces.append(
            self.device.launch(
                RangeCopyKernel(v_gm, neg, 0, seg_len, vbd, fn=lambda v: -v),
                label="negate final",
            )
        )
        out_v = self.device.alloc("tk_fo_v", (seg_len,), dt)
        out_i = self.device.alloc("tk_fo_i", (seg_len,), "int32")
        sc_v = self.device.alloc("tk_fs_v", (seg_len,), dt)
        sc_i = self.device.alloc("tk_fs_i", (seg_len,), "int32")
        bd = min(self.config.num_vector_cores, max(1, -(-seg_len // 8192)))
        traces.append(
            self.device.launch(
                BaselineSortKernel(neg, out_v, out_i, sc_v, sc_i, bd),
                label="final small sort",
            )
        )
        vals = -out_v.to_numpy().astype(np.float32)
        pos = out_i.to_numpy()
        # out_i indexes into the segment; map through the carried indices
        orig = i_gm.to_numpy()[pos]
        return vals.astype(dt.np_dtype), orig

    def topk_radix(self, x: np.ndarray, k: int, *, s: int = 128) -> OperatorResult:
        """Radix top-k selection (the RadiK approach the paper cites for
        large k): find the k-th largest key with 16 counting passes that
        move no values, then gather the winners with one split and sort
        them.  Scales to large k where both the quickselect and the
        streaming baseline degrade."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError("topk_radix expects a 1-D array")
        if not 1 <= k <= x.size:
            raise KernelError(f"k={k} out of range for n={x.size}")
        dt = _value_dtype(x)
        if dt.name != "fp16":
            raise KernelError("topk_radix is implemented for fp16 values")
        n = x.size
        ell = s * s
        mark = self.device.memory.mark()
        try:
            traces: list = []
            # pad with -inf: its encoding (0x03FF) is strictly below every
            # finite key's, so pads can never enter the top-k of real data
            x_gm = self._alloc_padded("tkr_x", x, ell, dt, pad_value=_NEG_INF)
            padded = x_gm.num_elements
            vbd = self._vec_block_dim(padded)
            bd = self._mix_block_dim(padded // ell)
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm)
            keys = self.device.alloc("tkr_k", (padded,), "uint16")
            traces.append(
                self.device.launch(
                    EncodeFp16Kernel(x_gm, keys, vbd), label="encode"
                )
            )

            # 16 counting passes, MSB first: fix one bit of the k-th
            # largest key per pass
            counts = self.device.alloc("tkr_c", (vbd,), "int32")
            prefix_mask = 0
            prefix_val = 0
            k_rem = k
            for bit in range(15, -1, -1):
                b = 1 << bit
                traces.append(
                    self.device.launch(
                        CountMatchKernel(
                            keys, counts, prefix_mask | b, prefix_val | b, vbd
                        ),
                        label=f"count bit {bit}",
                    )
                )
                c = int(counts.to_numpy()[:vbd].sum())
                if c >= k_rem:
                    prefix_val |= b
                else:
                    k_rem -= c
                prefix_mask |= b
            threshold = prefix_val  # encoding of the k-th largest key

            # gather: all strictly-greater keys, plus the first k_rem ties
            def _masked_split(op: str, scalar: int, label: str):
                mask = self.device.alloc("tkr_m", (padded,), "int8")
                mcounts = self.device.alloc("tkr_mc", (vbd,), "int32")
                traces.append(
                    self.device.launch(
                        PredicateCountKernel(keys, mask, mcounts, op, scalar, vbd),
                        label=f"{label} mask",
                    )
                )
                total = int(mcounts.to_numpy()[:vbd].sum())
                out_v = self.device.alloc("tkr_ov", (padded,), dt)
                out_i = self.device.alloc("tkr_oi", (padded,), "int32")
                scan_gm, r_gm = self._scan_workspace(padded, s, bd)
                self._launch_split(
                    traces, x_gm, mask, out_v, out_i, None, s, bd,
                    scan_gm, r_gm, label=f"{label} split",
                )
                return out_v, out_i, total

            gt_v, gt_i, n_gt = _masked_split("gt", threshold, "greater")
            parts_v = [gt_v.to_numpy()[:n_gt]]
            parts_i = [gt_i.to_numpy()[:n_gt]]
            if k_rem > 0:
                eq_v, eq_i, _ = _masked_split("eq", threshold, "ties")
                parts_v.append(eq_v.to_numpy()[:k_rem])
                parts_i.append(eq_i.to_numpy()[:k_rem])
            sel_v = np.concatenate(parts_v)
            sel_i = np.concatenate(parts_i)
        finally:
            self.device.memory.release(mark)

        # final ordering of the k winners on-device
        sort_res = self.baseline_sort(sel_v, descending=True)
        values = sort_res.values
        indices = sel_i[sort_res.indices].astype(np.int32)
        traces.extend(sort_res.traces)
        io = n * dt.itemsize + k * (dt.itemsize + 4)
        return OperatorResult(values, traces, n, io, indices=indices)

    def topk_baseline(self, x: np.ndarray, k: int) -> OperatorResult:
        """The stock top-k operator: one streaming pass with per-core
        partial top-k state plus a final merge."""
        x = np.asarray(x)
        n = x.size
        dt = _value_dtype(x)
        if not 1 <= k <= n:
            raise KernelError(f"k={k} out of range for n={n}")
        vbd = self._vec_block_dim(n)
        mark = self.device.memory.mark()
        try:
            x_gm = self._alloc_padded("tkb_x", x, 1, dt)
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm)
            out_v = self.device.alloc("tkb_v", (k,), dt)
            out_i = self.device.alloc("tkb_i", (k,), "int32")
            kernel = BaselineTopKKernel(x_gm, out_v, out_i, k, vbd)
            trace = self.device.launch(kernel, label="topk baseline")
            values = out_v.to_numpy()
            indices = out_i.to_numpy()
        finally:
            self.device.memory.release(mark)
        io = n * dt.itemsize + k * (dt.itemsize + 4)
        return OperatorResult(values, [trace], n, io, indices=indices)

    # ------------------------------------------------------------------ sampling

    def weighted_sample(
        self, w: np.ndarray, *, theta: "float | None" = None,
        rng: "np.random.Generator | None" = None, s: int = 128,
    ) -> OperatorResult:
        """Inverse-transform weighted sampling (Section 5): scan the weights
        with MCScan, then locate the cut position ``min{i : scan[i] >
        theta * sum(w)}`` with a predicate-count pass (the SplitInd
        formulation of the paper reduces to the same count for the monotone
        cumulative array)."""
        w = np.asarray(w)
        if w.ndim != 1:
            raise ShapeError("weighted_sample expects a 1-D weight array")
        dt = _value_dtype(w)
        if dt.name != "fp16":
            raise KernelError("weighted sampling is implemented for fp16 weights")
        if (np.asarray(w, dtype=np.float32) < 0).any():
            raise KernelError("weights must be non-negative")
        n = w.size
        if theta is None:
            rng = rng if rng is not None else np.random.default_rng()
            theta = float(rng.random())
        if not 0.0 <= theta < 1.0:
            raise KernelError(f"theta must be in [0, 1), got {theta}")
        ell = s * s
        mark = self.device.memory.mark()
        try:
            traces: list = []
            x_gm = self._alloc_padded("wsmp_x", w, ell, dt)
            padded = x_gm.num_elements
            bd = self._mix_block_dim(padded // ell)
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm)
            cum = self.device.alloc("wsmp_cum", (padded,), "fp32")
            halves = bd * self.config.vector_cores_per_ai_core
            r = self.device.alloc("wsmp_r", (halves,), "fp32")
            consts = self.sc.constants(s, "fp16")
            traces.append(
                self.device.launch(
                    MCScanKernel(x_gm, cum, r, consts, s, bd),
                    label="scan weights",
                )
            )
            total = float(cum.flat[n - 1])
            if total <= 0:
                raise KernelError("weights sum to zero")
            cut = theta * total
            vbd = self._vec_block_dim(padded)
            mask = self.device.alloc("wsmp_m", (padded,), "int8")
            counts = self.device.alloc("wsmp_c", (vbd,), "int32")
            traces.append(
                self.device.launch(
                    PredicateCountKernel(cum, mask, counts, "le", cut, vbd),
                    label="locate sample",
                )
            )
            below = int(counts.to_numpy().sum())
            # padded tail of cum is constant == total > cut, never counted
            sample = min(below, n - 1)
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + 4)
        return OperatorResult(
            np.asarray([sample], dtype=np.int64), traces, n, io,
            extras={"theta": theta, "total": total},
        )

    def multinomial_baseline(
        self, w: np.ndarray, *, theta: "float | None" = None,
        rng: "np.random.Generator | None" = None,
    ) -> OperatorResult:
        """``torch.multinomial`` baseline: two-pass vector sampling with the
        stock operator's 2^24 support-size limit (paper Section 5)."""
        w = np.asarray(w)
        if w.ndim != 1:
            raise ShapeError("multinomial expects a 1-D weight array")
        if w.size > MULTINOMIAL_MAX_SUPPORT:
            raise KernelError(
                f"baseline multinomial supports at most 2^24 = "
                f"{MULTINOMIAL_MAX_SUPPORT} elements, got {w.size} "
                f"(the scan-based weighted sampler has no such limit)"
            )
        dt = _value_dtype(w)
        n = w.size
        if theta is None:
            rng = rng if rng is not None else np.random.default_rng()
            theta = float(rng.random())
        vbd = self._vec_block_dim(n)
        mark = self.device.memory.mark()
        try:
            x_gm = self._alloc_padded("mnb_x", w, 1, dt)
            if self.sc.warm_inputs:
                self.device.warm_l2(x_gm)
            counts = self.device.alloc("mnb_c", (vbd,), "int32")
            kernel = MultinomialTwoPassKernel(x_gm, counts, theta, vbd)
            trace = self.device.launch(kernel, label="multinomial baseline")
            sample = min(int(counts.to_numpy().sum()), n - 1)
        finally:
            self.device.memory.release(mark)
        io = n * dt.itemsize
        return OperatorResult(
            np.asarray([sample], dtype=np.int64), [trace], n, io,
            extras={"theta": theta},
        )
