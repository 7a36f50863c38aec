"""Public scan API.

:class:`ScanContext` mirrors the paper's PyTorch-operator integration: it
owns a simulated device, statically pre-allocates the constant matrices
(``U_s`` etc.) per (s, rows, dtype), pads inputs to tile multiples, and
exposes the scan variants as plain array-in / array-out calls.  Every call
returns a :class:`ScanResult` with the numerical result *and* the execution
trace, from which the paper's metrics (time, GB/s, GElems/s) derive.

Two execution disciplines are offered:

* **one-shot** (:meth:`ScanContext.scan` and friends) — upload, trace the
  kernel, schedule, read back; HBM is managed with stack discipline
  (mark/release around each call), so a long benchmark sweep reuses device
  memory without reallocating constants;
* **planned** (:meth:`ScanContext.build_plan` / :meth:`ScanPlan.execute`)
  — the expensive Python-level kernel trace (op-DAG emission plus hazard
  analysis) runs once per shape; each subsequent execution re-runs only the
  functional NumPy computation, and the timeline itself is memoized on the
  traced program (the op DAG's costs are fixed at trace time, so replays
  are deterministic — see :mod:`repro.hw.compiled`).  This is the
  substrate of the request-serving layer in :mod:`repro.serve`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, KernelError, ShapeError
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..hw.datatypes import DType, as_dtype, cube_accum_dtype
from ..hw.device import AscendDevice, TracedKernel
from ..hw.memory import GlobalTensor
from ..hw.trace import Trace
from .batched import batched_kernel_cls, default_batched_block_dim
from .copykernel import CopyKernel
from .matrices import ScanConstants, batched_tile_rows, padded_length, upload_constants
from .mcscan import MCScanKernel
from .replay import (
    plan_compute,
    plan_compute_batched,
    validation_input,
    validation_tolerance,
)
from .scanu import ScanUKernel
from .strategies import LookbackScanKernel, RSSScanKernel, SSAScanKernel
from .scanul1 import ScanUL1Kernel
from .vector_baseline import BatchedCumSumKernel, CumSumKernel, CUMSUM_COLS

__all__ = [
    "ScanContext",
    "ScanResult",
    "ScanPlan",
    "SCAN_ALGORITHMS",
    "BATCHED_ALGORITHMS",
    "SCAN_STRATEGIES",
    "PLAN_1D_ALGORITHMS",
    "FOLDABLE_SCAN_ALGORITHMS",
]

SCAN_ALGORITHMS = ("scanu", "scanul1", "mcscan", "vector")
BATCHED_ALGORITHMS = ("scanu", "scanul1", "vector")
#: multi-core strategy variants (paper Section 2.1) for the strategy ablation
SCAN_STRATEGIES = ("mcscan", "ssa", "rss", "lookback")
#: everything a 1-D plan can be built for: the paper's algorithms plus the
#: competitor strategies (all compute the same inclusive scan, so they share
#: the functional replay path) — the autotuner searches this whole set
PLAN_1D_ALGORITHMS = SCAN_ALGORITHMS + ("ssa", "rss", "lookback")

#: multi-core 1-D kernels that take a block_dim and an ``r`` array
_MULTI_CORE_1D = ("mcscan", "ssa", "rss", "lookback")

#: 1-D scan kernels whose vector propagation stage can fold a fused
#: elementwise epilogue in UB (graph-level fusion); the competitor
#: strategies and the L1-resident variant keep their published structure,
#: so fused epilogues fall back to a separate trailing map kernel there
FOLDABLE_SCAN_ALGORITHMS = ("scanu", "mcscan")

#: device carry planted in a carry-slot plan's ``r[0]`` while it is traced:
#: nonzero so build-time validation proves phase II adds the slot, and a
#: small integer so ``fp32(local scan) + carry`` stays exact
PLANTED_CARRY = 3


@dataclass
class ScanResult:
    """Numerical output plus execution trace of one operator call."""

    values: np.ndarray
    trace: Trace
    #: logical (unpadded) element count of the operator
    n_elements: int
    #: bytes of logical input read + logical output written (paper metric)
    io_bytes: int

    @property
    def time_ns(self) -> float:
        return self.trace.total_ns

    @property
    def time_us(self) -> float:
        return self.trace.total_ns / 1e3

    @property
    def bandwidth_gbps(self) -> float:
        """Achieved bandwidth by the paper's definition: logical input +
        output bytes over end-to-end time (GB/s = bytes/ns)."""
        return self.io_bytes / self.trace.total_ns

    @property
    def gelems_per_s(self) -> float:
        return self.n_elements / self.trace.total_ns  # elements/ns == GElems/s


@dataclass
class ScanPlan:
    """A traced, reusable scan operator for one (algorithm, shape, dtype).

    Device tensors, constant uploads and the emitted op DAG persist across
    executions; :meth:`execute` re-runs only the canonical functional
    computation (:mod:`repro.core.replay`) and the scheduler.  Plans own
    their GM tensors; :meth:`release` frees them back to the device
    allocator (used by the serve layer's bounded plan cache), after which
    the plan can no longer execute.
    """

    ctx: "ScanContext"
    algorithm: str
    s: int
    in_dtype: DType
    out_dtype: DType
    #: padded 1-D length, or padded row length for batched plans
    padded: int
    #: padding granularity requests must round up to (tile / CUMSUM_COLS)
    pad_unit: int
    #: batch row capacity for batched plans, None for 1-D plans
    batch: "int | None"
    block_dim: "int | None"
    exclusive: bool
    x_gm: GlobalTensor
    y_gm: GlobalTensor
    traced: TracedKernel
    #: host seconds spent building (trace + validation) — the cold cost
    build_host_s: float
    #: True if build-time validation ran and agreed; None if skipped
    validated: "bool | None"
    #: max |kernel - functional| observed at build time (float64 scale)
    build_max_err: float
    executions: int = field(default=0)
    #: GM tensors this plan owns (inputs, outputs, scratch — not the shared
    #: constant matrices); freed back to the device by :meth:`release`
    gm_tensors: "tuple[GlobalTensor, ...]" = field(default=())
    #: True if the plan's config came from a tuned-plan store entry
    tuned: bool = field(default=False)
    released: bool = field(default=False)
    #: (phase I, phase II) programs of a device-carry MCScan plan, cut
    #: from :attr:`traced` at its ``SyncAll``; empty for every other plan
    phases: "tuple[TracedKernel, ...]" = field(default=())

    @property
    def is_batched(self) -> bool:
        return self.batch is not None

    @property
    def gm_bytes(self) -> int:
        """Device-memory footprint of the tensors this plan owns."""
        tensors = self.gm_tensors if self.gm_tensors else (self.x_gm, self.y_gm)
        return sum(t.nbytes for t in tensors)

    def release(self) -> int:
        """Free the plan's GM tensors; returns the bytes returned to the
        allocator's hole list.  The plan becomes permanently
        non-executable — the serve layer's plan cache calls this when it
        evicts a plan to stay inside its GM budget."""
        if self.released:
            return 0
        freed = 0
        for t in self.gm_tensors if self.gm_tensors else (self.x_gm, self.y_gm):
            freed += self.ctx.device.memory.free(t)
        self.released = True
        return freed

    def time_ns(self, *, engine: str = "cached") -> float:
        """Simulated end-to-end nanoseconds of one launch of this plan
        (device timeline + launch overhead), without executing numerics.

        This is the serve/shard layers' cost probe: the device-pool router
        and the sharded-scan wall-clock model need launch times *before*
        deciding where (or whether) to run, and the timeline is memoized on
        the traced program so the probe is O(1) after the first call."""
        if self.released:
            raise KernelError(
                f"plan for {self.algorithm} (padded={self.padded}) has been "
                f"released; its device tensors are gone — build a new plan"
            )
        return self.ctx.device.time_traced(self.traced, engine=engine)

    @property
    def timeline_hits(self) -> int:
        """Executions served from the memoized timeline (no scheduling)."""
        return self.traced.timeline_hits

    @property
    def timeline_misses(self) -> int:
        """Executions that had to compute the timeline."""
        return self.traced.timeline_misses

    @property
    def key(self) -> tuple:
        """Canonical cache key (see ``repro.serve.plan.PlanCache``)."""
        return (
            self.algorithm,
            self.padded,
            self.in_dtype.name,
            self.batch,
            self.s,
            self.exclusive,
            self.block_dim,
        )

    # -- execution ----------------------------------------------------------

    def _check_dtype(self, x: np.ndarray) -> None:
        if np.dtype(x.dtype) != self.in_dtype.np_dtype:
            raise KernelError(
                f"plan is for {self.in_dtype.name} inputs, got {x.dtype}"
            )

    def execute(
        self,
        x: np.ndarray,
        *,
        engine: str = "cached",
        audit_timing: "bool | None" = None,
    ) -> ScanResult:
        """Run the plan on new input values (the cache-hit path).

        ``x`` must pad to this plan's padded shape.

        ``engine`` and ``audit_timing`` are forwarded to
        :meth:`~repro.hw.device.AscendDevice.replay`: the default serves
        the memoized timeline (ns-identical to rescheduling, since the op
        DAG's costs are fixed at trace time); ``engine="des"`` forces the
        reference scheduler and ``audit_timing=True`` cross-checks the
        served timeline against it.
        """
        if self.released:
            raise KernelError(
                f"plan for {self.algorithm} (padded={self.padded}) has been "
                f"released; its device tensors are gone — build a new plan"
            )
        x = np.asarray(x)
        if self.is_batched:
            return self._execute_batched(
                x, engine=engine, audit_timing=audit_timing
            )
        values = self._compute_padded(x)
        trace = self.ctx.device.replay(
            self.traced, engine=engine, audit_timing=audit_timing
        )
        self.executions += 1
        n = x.size
        io = n * self._io_bytes_per_element()
        return ScanResult(values[:n], trace, n, io)

    def compute(self, x: np.ndarray) -> np.ndarray:
        """The functional numerics of a 1-D execution alone: ``x``'s output
        values, with no launch and nothing timed.  A device pool that
        launches the plan's :attr:`phases` itself pairs them with this."""
        if self.released or self.is_batched:
            raise KernelError("compute needs an unreleased 1-D plan")
        x = np.asarray(x)
        return self._compute_padded(x)[: x.size]

    def _compute_padded(self, x: np.ndarray) -> np.ndarray:
        """Check and zero-pad a 1-D input; returns the padded output
        values."""
        if x.ndim != 1:
            raise ShapeError(f"1-D plan expects a 1-D array, got shape {x.shape}")
        self._check_dtype(x)
        n = x.size
        if n <= 0 or n > self.padded or padded_length(n, self.pad_unit) != self.padded:
            raise ShapeError(
                f"plan is for padded length {self.padded} "
                f"(unit {self.pad_unit}); input of {n} does not pad to it"
            )
        if n == self.padded:
            xp = x
        else:
            xp = np.zeros(self.padded, dtype=self.in_dtype.np_dtype)
            xp[:n] = x
        return plan_compute(
            xp, self.algorithm, self.in_dtype, exclusive=self.exclusive
        )

    def _execute_batched(
        self,
        x: np.ndarray,
        *,
        engine: str = "cached",
        audit_timing: "bool | None" = None,
    ) -> ScanResult:
        if x.ndim != 2:
            raise ShapeError(f"batched plan expects a 2-D array, got {x.shape}")
        self._check_dtype(x)
        rows, row_len = x.shape
        if rows <= 0 or rows > self.batch:
            raise ShapeError(
                f"plan holds {self.batch} rows, got a batch of {rows}"
            )
        # trailing zeros never leak into a row's first row_len prefix sums,
        # so any row length up to the plan's capacity is servable
        if row_len <= 0 or row_len > self.padded:
            raise ShapeError(
                f"plan holds rows of up to {self.padded} elements, "
                f"got rows of {row_len}"
            )
        if rows == self.batch and row_len == self.padded:
            xp = x
        else:
            xp = np.zeros((self.batch, self.padded), dtype=self.in_dtype.np_dtype)
            xp[:rows, :row_len] = x
        values = plan_compute_batched(xp, self.algorithm, self.in_dtype)
        trace = self.ctx.device.replay(
            self.traced, engine=engine, audit_timing=audit_timing
        )
        self.executions += 1
        n = rows * row_len
        io = n * self._io_bytes_per_element()
        return ScanResult(values[:rows, :row_len], trace, n, io)

    def replay_timing(
        self,
        *,
        engine: str = "cached",
        audit_timing: "bool | None" = None,
    ):
        """Replay this plan's simulated timeline *without* the numerics.

        The serve layer's vectorized path separates a launch into its two
        independent halves: the schedule-facing replay (fault injection,
        memoized timeline, per-device launch accounting — this method) and
        the pure functional numerics, which can then run stacked across a
        whole launch group (:mod:`repro.serve.numerics`).  Counts as one
        execution, exactly like :meth:`execute`, and returns the
        :class:`~repro.hw.trace.Trace`.
        """
        if self.released:
            raise KernelError(
                f"plan for {self.algorithm} (padded={self.padded}) has been "
                f"released; its device tensors are gone — build a new plan"
            )
        trace = self.ctx.device.replay(
            self.traced, engine=engine, audit_timing=audit_timing
        )
        self.executions += 1
        return trace

    def _io_bytes_per_element(self) -> int:
        return self.in_dtype.itemsize + self.out_dtype.itemsize


class ScanContext:
    """Device + constants holder exposing the paper's scan operators."""

    def __init__(
        self,
        config: DeviceConfig = ASCEND_910B4,
        *,
        device: "AscendDevice | None" = None,
        warm_inputs: bool = True,
    ):
        self.device = device if device is not None else AscendDevice(config)
        self.config = self.device.config
        #: model steady-state profiling (inputs L2-resident when they fit),
        #: as the paper's repeated-measurement methodology produces
        self.warm_inputs = warm_inputs
        self._consts: dict[tuple[int, int, str], ScanConstants] = {}
        #: optional tuned-plan store consulted by ``build_plan(tuned=True)``;
        #: anything with ``lookup_1d`` / ``lookup_batched`` works (the real
        #: one is :class:`repro.tune.TuneStore` — duck-typed to keep core
        #: free of a tune dependency)
        self.tune_store = None

    # -- constants cache ------------------------------------------------------

    def constants(
        self, s: int, dtype: "DType | str", *, rows: "int | None" = None
    ) -> ScanConstants:
        dt = as_dtype(dtype)
        key = (s, rows if rows is not None else s, dt.name)
        if key not in self._consts:
            self._consts[key] = upload_constants(self.device, s, dt, rows=rows)
        return self._consts[key]

    # -- helpers ------------------------------------------------------------------

    def _upload_padded(
        self, name: str, x: np.ndarray, pad_to: int, dtype: DType
    ) -> tuple:
        n = x.size
        padded = padded_length(n, pad_to)
        t = self.device.alloc(name, (padded,), dtype)
        if padded == n:
            t.write(x)
        else:
            buf = np.zeros(padded, dtype=dtype.np_dtype)
            buf[:n] = x
            t.write(buf)
        return t, padded

    def _input_dtype(self, x: np.ndarray) -> DType:
        kind = np.dtype(x.dtype)
        if kind == np.float16:
            return as_dtype("fp16")
        if kind == np.int8:
            return as_dtype("int8")
        raise KernelError(
            f"cube scans accept fp16 or int8 inputs (paper Section 3.1), "
            f"got {kind}"
        )

    def _as_plan_dtype(self, dtype) -> DType:
        """Accept a device dtype, its name, or a NumPy dtype for plans."""
        if isinstance(dtype, DType):
            dt = dtype
        elif isinstance(dtype, str) and dtype in ("fp16", "int8"):
            dt = as_dtype(dtype)
        else:
            return self._input_dtype(np.empty(0, dtype=dtype))
        if dt.name not in ("fp16", "int8"):
            raise KernelError(
                f"scan plans accept fp16 or int8 inputs, got {dt.name}"
            )
        return dt

    def _mcscan_block_dim(self, n_tiles: int, block_dim: "int | None") -> int:
        limit = max(1, min(self.config.num_ai_cores, n_tiles))
        if block_dim is None:
            return limit
        if not isinstance(block_dim, int) or isinstance(block_dim, bool):
            raise ConfigError(f"block_dim must be an int, got {block_dim!r}")
        if block_dim < 1 or block_dim > limit:
            raise ConfigError(
                f"block_dim={block_dim} out of range [1, {limit}] "
                f"({self.config.num_ai_cores} AI cores, {n_tiles} tiles): "
                f"cores beyond the tile count would idle while still "
                f"paying synchronisation"
            )
        return block_dim

    def _cube_1d_kernel(
        self,
        algorithm: str,
        x_gm: GlobalTensor,
        y_gm: GlobalTensor,
        consts: ScanConstants,
        s: int,
        block_dim: "int | None",
        exclusive: bool,
        post_fns: "tuple" = (),
        carry_slot: bool = False,
    ):
        """Build a 1-D cube-scan kernel (allocates the ``r`` array for the
        multi-core variants from the device's current allocation scope).

        ``algorithm`` covers the single-core variants, MCScan, and the
        competitor strategies (``ssa``/``rss``/``lookback``) — the latter
        three share MCScan's signature and block_dim validation.

        ``post_fns`` folds an elementwise epilogue into the kernel's vector
        stage (graph-level fusion); only ScanU and MCScan expose that seam,
        so callers must pre-check :data:`FOLDABLE_SCAN_ALGORITHMS`.

        ``carry_slot`` gives an MCScan kernel a device-carry slot at the
        front of ``r`` (see :mod:`repro.core.mcscan`)."""
        if post_fns and algorithm not in FOLDABLE_SCAN_ALGORITHMS:
            raise KernelError(
                f"{algorithm} has no vector-stage epilogue seam; fold "
                f"post-maps only into {FOLDABLE_SCAN_ALGORITHMS}"
            )
        if algorithm == "scanu":
            return ScanUKernel(x_gm, y_gm, consts, s, post_fns=post_fns)
        if algorithm == "scanul1":
            return ScanUL1Kernel(x_gm, y_gm, consts, s)
        n_tiles = x_gm.num_elements // (s * s)
        bd = self._mcscan_block_dim(n_tiles, block_dim)
        halves = bd * self.config.vector_cores_per_ai_core
        r_gm = self.device.alloc("scan_r", (carry_slot + halves,), y_gm.dtype)
        if algorithm == "mcscan":
            return MCScanKernel(
                x_gm, y_gm, r_gm, consts, s, bd,
                exclusive=exclusive, post_fns=post_fns, carry_slot=carry_slot,
            )
        kernel_cls = {
            "ssa": SSAScanKernel,
            "rss": RSSScanKernel,
            "lookback": LookbackScanKernel,
        }[algorithm]
        return kernel_cls(x_gm, y_gm, r_gm, consts, s, bd)

    # -- 1-D scans -----------------------------------------------------------------

    def scan(
        self,
        x: np.ndarray,
        *,
        algorithm: str = "mcscan",
        s: int = 128,
        exclusive: bool = False,
        block_dim: "int | None" = None,
    ) -> ScanResult:
        """Prefix sum of a 1-D array on the simulated device.

        Cube algorithms return the accumulator dtype (fp32 / int32); the
        vector baseline returns the input dtype.
        """
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"scan expects a 1-D array, got shape {x.shape}")
        if algorithm not in SCAN_ALGORITHMS:
            raise KernelError(
                f"unknown algorithm {algorithm!r}; pick one of {SCAN_ALGORITHMS}"
            )
        if exclusive and algorithm != "mcscan":
            raise KernelError(
                "exclusive scan is implemented on MCScan (as in the paper)"
            )
        n = x.size

        if algorithm == "vector":
            dt = self._input_dtype(x)
            mark = self.device.memory.mark()
            try:
                x_gm, padded = self._upload_padded("scan_x", x, CUMSUM_COLS, dt)
                y_gm = self.device.alloc("scan_y", (padded,), dt)
                if self.warm_inputs:
                    self.device.warm_l2(x_gm, y_gm)
                trace = self.device.launch(CumSumKernel(x_gm, y_gm), label="CumSum")
                values = y_gm.to_numpy()[:n]
            finally:
                self.device.memory.release(mark)
            io = n * dt.itemsize * 2
            return ScanResult(values, trace, n, io)

        dt = self._input_dtype(x)
        out_dt = cube_accum_dtype(dt)
        consts = self.constants(s, dt)
        ell = s * s
        mark = self.device.memory.mark()
        try:
            x_gm, padded = self._upload_padded("scan_x", x, ell, dt)
            y_gm = self.device.alloc("scan_y", (padded,), out_dt)
            if self.warm_inputs:
                self.device.warm_l2(x_gm, y_gm)
            kernel = self._cube_1d_kernel(
                algorithm, x_gm, y_gm, consts, s, block_dim, exclusive
            )
            trace = self.device.launch(kernel, label=f"{algorithm}(s={s})")
            values = y_gm.to_numpy()[:n]
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + out_dt.itemsize)
        return ScanResult(values, trace, n, io)

    def scan_strategy(
        self,
        x: np.ndarray,
        *,
        strategy: str = "mcscan",
        s: int = 128,
        block_dim: "int | None" = None,
    ) -> ScanResult:
        """Inclusive scan using one of the multi-core *strategies* of the
        paper's Section 2.1 (``mcscan``, ``ssa``, ``rss``, ``lookback``).

        MCScan is the paper's contribution; the others are the classic
        accelerator strategies it is positioned against, implemented on
        the same substrate for a head-to-head comparison.
        """
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"scan expects a 1-D array, got shape {x.shape}")
        if strategy not in SCAN_STRATEGIES:
            raise KernelError(
                f"unknown strategy {strategy!r}; pick one of {SCAN_STRATEGIES}"
            )
        if strategy == "mcscan":
            return self.scan(x, algorithm="mcscan", s=s, block_dim=block_dim)
        n = x.size
        dt = self._input_dtype(x)
        out_dt = cube_accum_dtype(dt)
        consts = self.constants(s, dt)
        ell = s * s
        mark = self.device.memory.mark()
        try:
            x_gm, padded = self._upload_padded("scan_x", x, ell, dt)
            y_gm = self.device.alloc("scan_y", (padded,), out_dt)
            if self.warm_inputs:
                self.device.warm_l2(x_gm, y_gm)
            kernel = self._cube_1d_kernel(
                strategy, x_gm, y_gm, consts, s, block_dim, False
            )
            trace = self.device.launch(kernel, label=f"{strategy}(s={s})")
            values = y_gm.to_numpy()[:n]
        finally:
            self.device.memory.release(mark)
        io = n * (dt.itemsize + out_dt.itemsize)
        return ScanResult(values, trace, n, io)

    # -- batched scans ----------------------------------------------------------------

    def batched_scan(
        self,
        x: np.ndarray,
        *,
        algorithm: str = "scanu",
        s: int = 128,
        block_dim: "int | None" = None,
    ) -> ScanResult:
        """Row-wise prefix sums of a 2-D batch (Section 4.2)."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ShapeError(f"batched_scan expects a 2-D array, got {x.shape}")
        if algorithm not in BATCHED_ALGORITHMS:
            raise KernelError(
                f"unknown batched algorithm {algorithm!r}; "
                f"pick one of {BATCHED_ALGORITHMS}"
            )
        batch, row_len = x.shape
        dt = self._input_dtype(x)

        if algorithm == "vector":
            padded = padded_length(row_len, CUMSUM_COLS)
            mark = self.device.memory.mark()
            try:
                x_gm = self.device.alloc("bscan_x", (batch, padded), dt)
                buf = np.zeros((batch, padded), dtype=dt.np_dtype)
                buf[:, :row_len] = x
                x_gm.write(buf)
                y_gm = self.device.alloc("bscan_y", (batch, padded), dt)
                if self.warm_inputs:
                    self.device.warm_l2(x_gm, y_gm)
                bd = min(self.config.num_vector_cores, batch)
                trace = self.device.launch(
                    BatchedCumSumKernel(x_gm, y_gm, bd), label="batched CumSum"
                )
                values = y_gm.to_numpy()[:, :row_len]
            finally:
                self.device.memory.release(mark)
            io = batch * row_len * dt.itemsize * 2
            return ScanResult(values, trace, batch * row_len, io)

        out_dt = cube_accum_dtype(dt)
        rows = batched_tile_rows(row_len, s)
        consts = self.constants(s, dt, rows=rows)
        tile = consts.tile_elements
        padded = padded_length(row_len, tile)
        mark = self.device.memory.mark()
        try:
            x_gm = self.device.alloc("bscan_x", (batch, padded), dt)
            buf = np.zeros((batch, padded), dtype=dt.np_dtype)
            buf[:, :row_len] = x
            x_gm.write(buf)
            y_gm = self.device.alloc("bscan_y", (batch, padded), out_dt)
            if self.warm_inputs:
                self.device.warm_l2(x_gm, y_gm)
            if block_dim is None:
                block_dim = default_batched_block_dim(self.config, algorithm, batch)
            kernel = batched_kernel_cls(algorithm)(
                x_gm, y_gm, consts, s, block_dim
            )
            trace = self.device.launch(
                kernel, label=f"batched {algorithm}(s={s}, rows={rows})"
            )
            values = y_gm.to_numpy()[:, :row_len]
        finally:
            self.device.memory.release(mark)
        io = batch * row_len * (dt.itemsize + out_dt.itemsize)
        return ScanResult(values, trace, batch * row_len, io)

    # -- plan building (serve-layer substrate) ------------------------------------------

    def _finish_plan(
        self,
        plan: ScanPlan,
        sample: np.ndarray,
        expected: "np.ndarray | None",
        t0: float,
    ) -> ScanPlan:
        """Validate the freshly traced plan and stamp its build stats."""
        if expected is not None:
            got = plan.y_gm.to_numpy()
            err = float(
                np.max(
                    np.abs(
                        got.astype(np.float64) - expected.astype(np.float64)
                    )
                )
            ) if got.size else 0.0
            plan.validated = bool(np.array_equal(got, expected.astype(got.dtype)))
            plan.build_max_err = err
            if not plan.validated:
                raise KernelError(
                    f"plan validation failed for {plan.algorithm} "
                    f"({plan.in_dtype.name}, padded={plan.padded}): traced "
                    f"kernel and functional path diverge by {err:g} on the "
                    f"exact validation input"
                )
        plan.build_host_s = time.perf_counter() - t0
        return plan

    def build_plan(
        self,
        *,
        algorithm: str = "scanul1",
        n: int,
        dtype="fp16",
        s: int = 128,
        block_dim: "int | None" = None,
        exclusive: bool = False,
        validate: bool = True,
        tuned: bool = False,
        device_carry: bool = False,
    ) -> ScanPlan:
        """Trace a reusable 1-D scan plan for inputs padding to
        ``padded_length(n, unit)`` elements of ``dtype``.

        The build uploads a deterministic exact validation input, traces the
        kernel once (full Python-level emission), and cross-checks the
        kernel's functional output against the canonical computation the
        plan will use on execution (see :mod:`repro.core.replay`).

        With ``tuned=True`` the context's :attr:`tune_store` (if set) is
        consulted for this workload; a hit overrides ``algorithm``, ``s``
        and ``block_dim`` with the tuned configuration and marks the plan
        :attr:`~ScanPlan.tuned`.  On a miss the explicit arguments stand.

        With ``device_carry=True`` an MCScan plan (the only kernel with a
        phase seam) gets a carry slot at the front of ``r`` and its
        :attr:`~ScanPlan.phases`.  It is traced with :data:`PLANTED_CARRY`
        in the slot, so validation checks the phases' output against
        ``fp32(local scan) + carry``.  Other algorithms ignore the flag.
        """
        t0 = time.perf_counter()
        was_tuned = False
        if tuned and self.tune_store is not None:
            entry = self.tune_store.lookup_1d(
                n=n, dtype=self._as_plan_dtype(dtype).name, exclusive=exclusive
            )
            if entry is not None:
                algorithm = entry.algorithm
                s = entry.s
                block_dim = entry.block_dim
                was_tuned = True
        if algorithm not in PLAN_1D_ALGORITHMS:
            raise KernelError(
                f"unknown algorithm {algorithm!r}; "
                f"pick one of {PLAN_1D_ALGORITHMS}"
            )
        if exclusive and algorithm != "mcscan":
            raise KernelError(
                "exclusive scan is implemented on MCScan (as in the paper)"
            )
        dt = self._as_plan_dtype(dtype)
        carry_slot = device_carry and algorithm == "mcscan"

        if algorithm == "vector":
            out_dt = dt
            consts = None
            pad_unit = CUMSUM_COLS
        else:
            out_dt = cube_accum_dtype(dt)
            consts = self.constants(s, dt)  # shared, cached: not plan-owned
            pad_unit = s * s
        padded = padded_length(n, pad_unit)
        owned_from = len(self.device.memory.tensors)
        x_gm = self.device.alloc("plan_x", (padded,), dt)
        y_gm = self.device.alloc("plan_y", (padded,), out_dt)
        if algorithm == "vector":
            kernel = CumSumKernel(x_gm, y_gm)
            resolved_bd = None
        else:
            kernel = self._cube_1d_kernel(
                algorithm, x_gm, y_gm, consts, s, block_dim, exclusive,
                carry_slot=carry_slot,
            )
            resolved_bd = getattr(kernel, "block_dim", None)
        gm_tensors = self.device.memory.tensors[owned_from:]

        sample = validation_input(padded, dt, seed=padded)
        x_gm.write(sample)
        if carry_slot:
            planted = np.zeros(kernel.r.num_elements, out_dt.np_dtype)
            planted[0] = PLANTED_CARRY
            kernel.r.write(planted)
        if self.warm_inputs:
            self.device.warm_l2(x_gm, y_gm)
        traced = self.device.trace_kernel(
            kernel, label=f"plan {algorithm}(s={s}, n={padded})"
        )
        tol = validation_tolerance(algorithm, dt) if validate else None
        expected = (
            plan_compute(sample, algorithm, dt, exclusive=exclusive)
            if tol is not None
            else None
        )
        if expected is not None and carry_slot:
            expected = expected + expected.dtype.type(PLANTED_CARRY)
        plan = ScanPlan(
            ctx=self,
            algorithm=algorithm,
            s=s,
            in_dtype=dt,
            out_dtype=out_dt,
            padded=padded,
            pad_unit=pad_unit,
            batch=None,
            block_dim=resolved_bd,
            exclusive=exclusive,
            x_gm=x_gm,
            y_gm=y_gm,
            traced=traced,
            build_host_s=0.0,
            validated=None,
            build_max_err=0.0,
            gm_tensors=gm_tensors,
            tuned=was_tuned,
            phases=tuple(traced.split_phases()) if carry_slot else (),
        )
        return self._finish_plan(plan, sample, expected, t0)

    def build_batched_plan(
        self,
        *,
        algorithm: str = "scanu",
        batch: int,
        row_len: int,
        dtype="fp16",
        s: int = 128,
        block_dim: "int | None" = None,
        validate: bool = True,
        tuned: bool = False,
    ) -> ScanPlan:
        """Trace a reusable batched (row-wise) scan plan holding ``batch``
        rows that pad to ``padded_length(row_len, tile)`` elements each.

        Executions may submit fewer rows (or shorter rows); the remainder
        is zero-padded, exactly as the request batcher in
        :mod:`repro.serve` does when it rounds batches up to bucket sizes.

        With ``tuned=True`` the context's :attr:`tune_store` is consulted
        (batched-layout entries only) as in :meth:`build_plan`.
        """
        t0 = time.perf_counter()
        was_tuned = False
        if tuned and self.tune_store is not None:
            entry = self.tune_store.lookup_batched(
                batch=batch,
                row_len=row_len,
                dtype=self._as_plan_dtype(dtype).name,
            )
            if entry is not None and getattr(entry, "layout", "batched") == "batched":
                algorithm = entry.algorithm
                s = entry.s
                block_dim = entry.block_dim
                was_tuned = True
        if algorithm not in BATCHED_ALGORITHMS:
            raise KernelError(
                f"unknown batched algorithm {algorithm!r}; "
                f"pick one of {BATCHED_ALGORITHMS}"
            )
        if batch < 1:
            raise ShapeError(f"batch must be >= 1, got {batch}")
        dt = self._as_plan_dtype(dtype)

        if algorithm == "vector":
            out_dt = dt
            consts = None
            pad_unit = CUMSUM_COLS
        else:
            out_dt = cube_accum_dtype(dt)
            rows = batched_tile_rows(row_len, s)
            consts = self.constants(s, dt, rows=rows)
            pad_unit = consts.tile_elements
        padded = padded_length(row_len, pad_unit)
        owned_from = len(self.device.memory.tensors)
        x_gm = self.device.alloc("plan_bx", (batch, padded), dt)
        y_gm = self.device.alloc("plan_by", (batch, padded), out_dt)
        if algorithm == "vector":
            bd = min(self.config.num_vector_cores, batch)
            kernel = BatchedCumSumKernel(x_gm, y_gm, bd)
        else:
            bd = (
                default_batched_block_dim(self.config, algorithm, batch)
                if block_dim is None
                else block_dim
            )
            kernel = batched_kernel_cls(algorithm)(x_gm, y_gm, consts, s, bd)
        gm_tensors = self.device.memory.tensors[owned_from:]

        sample = validation_input(batch * padded, dt, seed=batch * padded).reshape(
            batch, padded
        )
        x_gm.write(sample)
        if self.warm_inputs:
            self.device.warm_l2(x_gm, y_gm)
        traced = self.device.trace_kernel(
            kernel, label=f"plan batched {algorithm}(s={s}, {batch}x{padded})"
        )
        tol = validation_tolerance(algorithm, dt) if validate else None
        expected = (
            plan_compute_batched(sample, algorithm, dt) if tol is not None else None
        )
        plan = ScanPlan(
            ctx=self,
            algorithm=algorithm,
            s=s,
            in_dtype=dt,
            out_dtype=out_dt,
            padded=padded,
            pad_unit=pad_unit,
            batch=batch,
            block_dim=bd,
            exclusive=False,
            x_gm=x_gm,
            y_gm=y_gm,
            traced=traced,
            build_host_s=0.0,
            validated=None,
            build_max_err=0.0,
            gm_tensors=gm_tensors,
            tuned=was_tuned,
        )
        return self._finish_plan(plan, sample, expected, t0)

    # -- copy (torch.clone stand-in, Figure 8) --------------------------------------------

    def copy(self, x: np.ndarray, *, tile_elements: int = 16384) -> ScanResult:
        x = np.asarray(x).reshape(-1)
        dt = self._input_dtype(x)
        n = x.size
        mark = self.device.memory.mark()
        try:
            x_gm, _ = self._upload_padded("copy_x", x, 1, dt)
            y_gm = self.device.alloc("copy_y", (n,), dt)
            if self.warm_inputs:
                self.device.warm_l2(x_gm, y_gm)
            bd = min(self.config.num_vector_cores, max(1, n // tile_elements))
            trace = self.device.launch(
                CopyKernel(x_gm, y_gm, bd, tile_elements), label="copy"
            )
            values = y_gm.to_numpy()
        finally:
            self.device.memory.release(mark)
        return ScanResult(values, trace, n, 2 * n * dt.itemsize)
