"""Top-p (nucleus) sampling (paper Sections 5, 6.5; Figure 13).

Implements the Llama3 ``sample_top_p`` pipeline: sort the token
probabilities in descending order, compute their cumulative sum, cut the
nucleus where the *exclusive* cumulative mass exceeds ``p``, and draw one
token from the (unnormalised) nucleus by inverse-transform sampling.

Two backends:

* ``"cube"`` — the paper's scan-intensive version: radix sort (16 splits,
  each an MCScan over the radix mask) + one MCScan cumsum + two
  predicate-count passes.  As Section 5 notes, this makes top-p execute
  17 scans per batch.  With ``digit_bits=4`` the sort is 4 digit splits
  instead, one launch each, so 5 scans in 7 launches per batch.
* ``"baseline"`` — the stock PyTorch path: merge-sort ``torch.sort`` and
  the vector-only ``torch.cumsum`` ("the baseline top-p sampling
  implementation scales poorly, mainly because the baseline torch.cumsum
  operator is not optimized for Ascend").

The two inverse-transform facts used to avoid extra passes: the exclusive
cumulative sum equals ``cumsum[i] - probs[i]``, so the nucleus size is
``1 + #{cumsum <= p}``; and a ``theta`` drawn in ``[0, mass)`` lands inside
the nucleus automatically, so the sampled position is ``#{cumsum < theta}``.

:meth:`TopPSampler.sample_sorted` is that pipeline after the sort, for
probabilities that arrive in descending order already (a top-k output):
the cube backend then runs 1 scan and 2 counts instead of the sort too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError, ShapeError
from ..core.mcscan import MCScanKernel
from ..core.vector_baseline import CumSumKernel, CUMSUM_COLS
from ..core.matrices import padded_length
from .driver import AscendOps
from .elementwise import PredicateCountKernel
from .result import OperatorResult

__all__ = ["TopPSampler", "TOPP_BACKENDS"]

TOPP_BACKENDS = ("cube", "baseline")


@dataclass
class _SortedProbs:
    values: np.ndarray  # descending probabilities
    indices: np.ndarray  # original token ids
    traces: list


class TopPSampler:
    """Llama3-style nucleus sampler on the simulated device."""

    def __init__(
        self,
        ops: "AscendOps | None" = None,
        *,
        s: int = 128,
        digit_bits: int = 1,
    ):
        self.ops = ops if ops is not None else AscendOps()
        self.s = s
        #: radix digit width of the cube backend's sort (1: the paper's
        #: per-bit splits)
        self.digit_bits = digit_bits
        self.device = self.ops.device

    # -- pipeline stages ----------------------------------------------------------

    def _sort_desc(self, probs: np.ndarray, backend: str) -> _SortedProbs:
        if backend == "cube":
            res = self.ops.radix_sort(
                probs, s=self.s, descending=True, digit_bits=self.digit_bits
            )
        else:
            res = self.ops.baseline_sort(probs, descending=True)
        return _SortedProbs(res.values, res.indices, list(res.traces))

    def _cumsum(self, sorted_probs: np.ndarray, backend: str, traces: list):
        """Device cumulative sum of the sorted probabilities; returns the
        fp32 cumulative array (host copy) while appending the trace."""
        device = self.device
        n = sorted_probs.size
        mark = device.memory.mark()
        try:
            if backend == "cube":
                ell = self.s * self.s
                padded = padded_length(n, ell)
                x_gm = device.alloc("tp_sorted", (padded,), "fp16")
                buf = np.zeros(padded, dtype=np.float16)
                buf[:n] = sorted_probs
                x_gm.write(buf)
                cum = device.alloc("tp_cum", (padded,), "fp32")
                bd = self.ops._mix_block_dim(padded // ell)
                halves = bd * device.config.vector_cores_per_ai_core
                r = device.alloc("tp_r", (halves,), "fp32")
                consts = self.ops.sc.constants(self.s, "fp16")
                if self.ops.sc.warm_inputs:
                    device.warm_l2(x_gm, cum)
                traces.append(
                    device.launch(
                        MCScanKernel(x_gm, cum, r, consts, self.s, bd),
                        label="top-p cumsum (MCScan)",
                    )
                )
                cum_host = cum.to_numpy()[:n]
            else:
                padded = padded_length(n, CUMSUM_COLS)
                x_gm = device.alloc("tp_sorted", (padded,), "fp16")
                buf = np.zeros(padded, dtype=np.float16)
                buf[:n] = sorted_probs
                x_gm.write(buf)
                y_gm = device.alloc("tp_cum16", (padded,), "fp16")
                if self.ops.sc.warm_inputs:
                    device.warm_l2(x_gm, y_gm)
                traces.append(
                    device.launch(
                        CumSumKernel(x_gm, y_gm), label="top-p cumsum (baseline)"
                    )
                )
                cum_host = y_gm.to_numpy()[:n].astype(np.float32)
        finally:
            device.memory.release(mark)
        return cum_host

    def _count(self, array: np.ndarray, op: str, scalar: float, traces: list) -> int:
        """Device predicate-count over an fp32 array."""
        device = self.device
        n = array.size
        vbd = self.ops._vec_block_dim(n)
        mark = device.memory.mark()
        try:
            x_gm = device.alloc("tp_pred_x", (n,), "fp32")
            x_gm.write(array)
            mask = device.alloc("tp_pred_m", (n,), "int8")
            counts = device.alloc("tp_pred_c", (vbd,), "int32")
            if self.ops.sc.warm_inputs:
                device.warm_l2(x_gm)
            traces.append(
                device.launch(
                    PredicateCountKernel(x_gm, mask, counts, op, scalar, vbd),
                    label=f"top-p count {op} {scalar:.4g}",
                )
            )
            total = int(counts.to_numpy().sum())
        finally:
            device.memory.release(mark)
        return total

    # -- public API --------------------------------------------------------------------

    def sample(
        self,
        probs: np.ndarray,
        p: float,
        *,
        backend: str = "cube",
        theta: "float | None" = None,
        rng: "np.random.Generator | None" = None,
    ) -> OperatorResult:
        """Draw one token id from the top-p nucleus of ``probs``: the
        descending sort, then :meth:`sample_sorted`.

        ``probs`` must be non-negative fp16 (they need not be normalised;
        the nucleus cut uses the normalised mass).
        """
        probs = np.asarray(probs)
        if probs.ndim != 1:
            raise ShapeError("top-p expects a 1-D probability vector")
        if probs.dtype != np.float16:
            raise KernelError("top-p operates on fp16 probabilities")
        self._check(p, backend)
        if theta is None:
            rng = rng if rng is not None else np.random.default_rng()
            theta = float(rng.random())
        sorted_probs = self._sort_desc(probs, backend)
        res = self.sample_sorted(
            sorted_probs.values, sorted_probs.indices, p, theta, backend=backend
        )
        res.traces[:0] = sorted_probs.traces
        return res

    def sample_sorted(
        self,
        values: np.ndarray,
        indices: np.ndarray,
        p: float,
        theta: float,
        *,
        backend: str = "cube",
    ) -> OperatorResult:
        """The pipeline after the sort: cumsum plus the two predicate
        counts over ``values``, already in descending order, returning
        ``indices`` at the sampled position.  A top-k output is such an
        input, so a top-k-fed sampler skips the sort."""
        self._check(p, backend)
        traces: list = []
        n = values.size
        cum = self._cumsum(values, backend, traces)
        total = float(cum[-1])
        if total <= 0:
            raise KernelError("probabilities sum to zero")

        # nucleus size: exclusive mass (cum - prob) <= p * total
        k_nucleus = 1 + self._count(cum, "le", p * total, traces)
        k_nucleus = min(k_nucleus, n)
        mass = float(cum[k_nucleus - 1])

        # inverse-transform draw within the nucleus
        cut = theta * mass
        pos = self._count(cum, "lt", cut, traces)
        pos = min(pos, k_nucleus - 1)
        token = int(indices[pos])

        io = n * 2  # one logical read of the probability vector
        return OperatorResult(
            np.asarray([token], dtype=np.int64),
            traces,
            n,
            io,
            extras={
                "nucleus_size": k_nucleus,
                "nucleus_mass": mass / total,
                "theta": theta,
                "position": pos,
                "backend": backend,
            },
        )

    @staticmethod
    def _check(p: float, backend: str) -> None:
        if not 0.0 < p <= 1.0:
            raise KernelError(f"p must be in (0, 1], got {p}")
        if backend not in TOPP_BACKENDS:
            raise KernelError(
                f"unknown backend {backend!r}; pick one of {TOPP_BACKENDS}"
            )
