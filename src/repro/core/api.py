"""Public scan API.

:class:`ScanContext` mirrors the paper's PyTorch-operator integration: it
owns a simulated device, statically pre-allocates the constant matrices
(``U_s`` etc.) per (s, rows, dtype), pads inputs to tile multiples, and
exposes the scan variants as plain array-in / array-out calls.  Every call
returns a :class:`ScanResult` with the numerical result *and* the execution
trace, from which the paper's metrics (time, GB/s, GElems/s) derive.

A :class:`ScanPlan` is the one way a scan kernel is traced: one private
tracer per layout (1-D and batched) allocates the plan's tensors, builds
the kernel, loads a zero-padded input, warms L2 and traces the op DAG.
Only this module runs those tracers:

* **plans** (:meth:`ScanContext.build_plan` / :meth:`ScanPlan.execute`)
  are built for the configuration the caller gives (algorithm, ``s``,
  ``block_dim``; the builders have no default for either of the first
  two — :func:`repro.tune.resolve_candidate` picks one), trace once per
  shape on a deterministic validation input, validate the
  kernel against the functional path, and then replay: each execution
  re-runs only the functional NumPy computation, and the timeline is
  memoized on the traced program (the op DAG's costs are fixed at trace
  time, so one :func:`~repro.hw.scheduler.simulate` run serves every
  replay — see :meth:`~repro.hw.device.AscendDevice.replay`).
  This is the substrate of the request-serving layer in :mod:`repro.serve`.
  On a device pool only the first member to build a plan traces it; the
  others build mirrors of that trace (:meth:`ScanContext._mirror`);
* **one-shot scans** (:meth:`ScanContext.scan`, :meth:`~ScanContext.scan_strategy`,
  :meth:`~ScanContext.batched_scan`) trace a scratch plan on the caller's
  input inside a mark/release scope, launch it once and return the
  kernel's own output, so the paper figures time exactly the program the
  service launches and a long sweep reuses device memory;
* the autotuner (:mod:`repro.tune.evaluate`) builds each candidate
  through the same builders, unvalidated, reads its
  :meth:`ScanPlan.time_ns` and releases it.

The rules a plan configuration obeys — its pad unit
(:func:`plan_pad_unit`), the multi-core ``block_dim`` limit
(:func:`max_block_dim`) and what may be built or served
(:func:`check_plan_config`) — are written here once; the plan cache and
the tuner import them.  So is the tile an operator's internal MCScan
takes when its caller names none (:func:`op_scan_tile`), which the graph
runner applies to the op-zoo nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
from .replay import plan_compute, validation_input
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
    "SWEEP_S",
    "check_plan_config",
    "max_block_dim",
    "op_scan_tile",
    "plan_pad_unit",
]

SCAN_ALGORITHMS = ("scanu", "scanul1", "mcscan", "vector")
BATCHED_ALGORITHMS = ("scanu", "scanul1", "vector")
#: multi-core strategy variants (paper Section 2.1) for the strategy ablation
SCAN_STRATEGIES = ("mcscan", "ssa", "rss", "lookback")
#: everything a 1-D plan can be built for: the paper's algorithms plus the
#: competitor strategies (all compute the same inclusive scan, so they share
#: the functional replay path) — the autotuner searches this whole set
PLAN_1D_ALGORITHMS = SCAN_ALGORITHMS + ("ssa", "rss", "lookback")

#: 1-D scan kernels whose vector propagation stage can fold a fused
#: elementwise epilogue in UB (graph-level fusion); the competitor
#: strategies and the L1-resident variant keep their published structure,
#: so fused epilogues fall back to a separate trailing map kernel there
FOLDABLE_SCAN_ALGORITHMS = ("scanu", "mcscan")

#: tile sizes a plan or an op-internal MCScan may take (the paper
#: evaluates 16..128; s is the side of the U_s constant matrix, so tiles
#: hold s*s elements)
SWEEP_S = (16, 32, 64, 128)

#: NumPy dtypes of the cube scans' inputs, by device dtype name
_CUBE_INPUT_NAMES = {np.dtype(np.float16): "fp16", np.dtype(np.int8): "int8"}

#: device carry planted in a carry-slot plan's ``r[0]`` while it is traced:
#: nonzero so build-time validation proves phase II adds the slot, and a
#: small integer so ``fp32(local scan) + carry`` stays exact
PLANTED_CARRY = 3


def plan_pad_unit(algorithm: str, s: int, row_len: "int | None" = None) -> int:
    """Padding granularity of a plan's (row) length: ``CUMSUM_COLS`` for
    the vector baseline, an ``s x s`` tile for a 1-D cube plan, and an
    ``m x s`` tile (``m = batched_tile_rows(row_len, s)``) for the rows of
    a batched plan, which is what passing ``row_len`` asks for."""
    if algorithm == "vector":
        return CUMSUM_COLS
    if row_len is None:
        return s * s
    return batched_tile_rows(row_len, s) * s


def max_block_dim(config: DeviceConfig, n_tiles: int) -> int:
    """The most cube cores a multi-core 1-D plan over ``n_tiles`` tiles
    uses, and its heuristic ``block_dim``: cores beyond the tile count
    would idle while still paying synchronisation."""
    return max(1, min(config.num_ai_cores, n_tiles))


def op_scan_tile(config: DeviceConfig, scan_length) -> int:
    """The tile ``s`` of an operator's internal MCScan (split, compress,
    the radix sort's digit passes, the top-p cumsum) sized to its input:
    the ``s`` in :data:`SWEEP_S` with the shortest phase-II row chain on
    the busiest vector lane, ``ceil(tiles / lanes) * s``, where
    ``scan_length(s)`` is the op's own padded scan length at ``s`` (so
    ``tiles = scan_length(s) // s**2``) and ``lanes`` is every vector
    core of the device.  A tie goes to the larger ``s``.  A fixed
    ``s=128`` pads a short input to one tile on one lane; a smaller
    tile spreads it over more lanes, and the tie rule stops the split
    once every lane is busy, where a smaller ``s`` only adds rows."""
    lanes = config.num_vector_cores

    def chain(s: int) -> int:
        tiles = scan_length(s) // (s * s)
        return -(-tiles // lanes) * s

    return min(reversed(SWEEP_S), key=chain)


def check_plan_config(
    algorithm: str, dtype: DType, *, batched: bool, exclusive: bool, served: bool
) -> None:
    """Refuse a configuration no plan implements: an algorithm outside
    the layout's set, or an exclusive scan on anything but MCScan.  With
    ``served``, also refuse what a plan can trace but not serve: ScanUL1
    on int8, whose ``C1 = A @ 1_s`` staging through the int8 input wraps,
    so the served values would not be the kernel's.  Allocates nothing
    on success: the plan cache runs it on every request."""
    if batched:
        if algorithm not in BATCHED_ALGORITHMS:
            raise KernelError(
                f"unknown batched algorithm {algorithm!r}; "
                f"pick one of {BATCHED_ALGORITHMS}"
            )
    elif algorithm not in PLAN_1D_ALGORITHMS:
        raise KernelError(
            f"unknown algorithm {algorithm!r}; pick one of {PLAN_1D_ALGORITHMS}"
        )
    if exclusive and algorithm != "mcscan":
        raise KernelError("exclusive scan is implemented on MCScan (as in the paper)")
    if served and algorithm == "scanul1" and dtype.name == "int8":
        raise KernelError(
            "scanul1 is not served on int8: its int8 L1 staging of "
            "C1 = A @ 1_s wraps; use scanu or mcscan"
        )


class _Layout(NamedTuple):
    """What a plan's tracer needs before it allocates anything."""

    dt: DType
    #: shared constant matrices (None for the vector baseline)
    consts: "ScanConstants | None"
    pad_unit: int
    #: padded input shape: ``(padded,)`` or ``(batch, padded row)``
    shape: "tuple[int, ...]"


def _zero_padded(x: np.ndarray, shape: "tuple[int, ...]") -> np.ndarray:
    """``x`` in the leading corner of a zero array of ``shape`` (``x``
    itself when it already has that shape)."""
    if x.shape == shape:
        return x
    buf = np.zeros(shape, dtype=x.dtype)
    buf[tuple(slice(d) for d in x.shape)] = x
    return buf


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
    build_host_s: float = field(default=0.0)
    #: True if build-time validation ran and agreed; None if skipped
    validated: "bool | None" = field(default=None)
    #: max |kernel - functional| observed at build time (float64 scale)
    build_max_err: float = field(default=0.0)
    executions: int = field(default=0)
    #: GM tensors this plan owns (inputs, outputs, scratch — not the shared
    #: constant matrices); freed back to the device by :meth:`release`
    gm_tensors: "tuple[GlobalTensor, ...]" = field(default=())
    #: True if the plan's config came from a tuned-plan store entry
    #: (stamped by the plan's owner: the plan cache, the sharded scanner)
    tuned: bool = field(default=False)
    released: bool = field(default=False)
    #: (phase I, phase II) programs of a device-carry MCScan plan, cut
    #: from :attr:`traced` at its ``SyncAll``; empty for every other plan
    phases: "tuple[TracedKernel, ...]" = field(default=())
    #: this plan's launches served from the memoized timeline / that
    #: computed it — counted per plan, not on :attr:`traced`, because
    #: pool members' plans share one trace (cost probes count neither)
    timeline_hits: int = field(default=0)
    timeline_misses: int = field(default=0)

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

    def time_ns(self) -> float:
        """Simulated end-to-end nanoseconds of one launch of this plan
        (device timeline + launch overhead), without executing numerics.

        This is the serve/shard layers' cost probe: device-pool placement
        and the sharded-scan wall-clock model need launch times *before*
        deciding where (or whether) to run, and the timeline is memoized on
        the traced program so the probe is O(1) after the first call."""
        if self.released:
            raise KernelError(
                f"plan for {self.algorithm} (padded={self.padded}) has been "
                f"released; its device tensors are gone — build a new plan"
            )
        return self.ctx.device.time_traced(self.traced)

    def _replay(self) -> Trace:
        """Launch :attr:`traced` on this plan's device: one execution,
        with the timeline hit or miss it causes counted on this plan."""
        traced = self.traced
        hits, misses = traced.timeline_hits, traced.timeline_misses
        trace = self.ctx.device.replay(traced)
        self.timeline_hits += traced.timeline_hits - hits
        self.timeline_misses += traced.timeline_misses - misses
        self.executions += 1
        return trace

    # -- execution ----------------------------------------------------------

    def _check_dtype(self, x: np.ndarray) -> None:
        if np.dtype(x.dtype) != self.in_dtype.np_dtype:
            raise KernelError(
                f"plan is for {self.in_dtype.name} inputs, got {x.dtype}"
            )

    def execute(self, x: np.ndarray) -> ScanResult:
        """Run the plan on new input values (the cache-hit path).

        ``x`` must pad to this plan's padded shape.  The timeline is the
        traced program's memoized one (scheduled on the first launch).
        """
        if self.released:
            raise KernelError(
                f"plan for {self.algorithm} (padded={self.padded}) has been "
                f"released; its device tensors are gone — build a new plan"
            )
        x = np.asarray(x)
        if self.is_batched:
            return self._execute_batched(x)
        values = self._compute(x)
        trace = self._replay()
        n = x.size
        io = n * self._io_bytes_per_element()
        return ScanResult(values, trace, n, io)

    def compute(
        self, x: np.ndarray, *, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """The functional numerics of a 1-D execution alone: ``x``'s output
        values, with no launch and nothing timed.  A device pool that
        launches the plan's :attr:`phases` itself pairs them with this.

        ``out``, when given, is filled in place and returned: ``x``'s
        length, in the plan's output dtype."""
        if self.released or self.is_batched:
            raise KernelError("compute needs an unreleased 1-D plan")
        return self._compute(np.asarray(x), out)

    def _compute(
        self, x: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Check a 1-D input against the plan and scan its ``n`` logical
        elements (the pad zeros never reach them)."""
        if x.ndim != 1:
            raise ShapeError(f"1-D plan expects a 1-D array, got shape {x.shape}")
        self._check_dtype(x)
        n = x.size
        if n <= 0 or n > self.padded or padded_length(n, self.pad_unit) != self.padded:
            raise ShapeError(
                f"plan is for padded length {self.padded} "
                f"(unit {self.pad_unit}); input of {n} does not pad to it"
            )
        return plan_compute(
            x, self.algorithm, self.in_dtype, exclusive=self.exclusive, out=out
        )

    def _execute_batched(self, x: np.ndarray) -> ScanResult:
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
        values = plan_compute(x, self.algorithm, self.in_dtype)
        trace = self._replay()
        n = rows * row_len
        io = n * self._io_bytes_per_element()
        return ScanResult(values, trace, n, io)

    def replay_timing(self):
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
        return self._replay()

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
        #: successful ``_as_plan_dtype`` coercions by argument (the serve
        #: path coerces several times per request)
        self._plan_dtypes: "dict[object, DType]" = {}
        #: trace table shared by a device pool's members (see
        #: :meth:`_mirror`); None keeps every trace private to this context
        self.traces = None

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
        padded = padded_length(x.size, pad_to)
        t = self.device.alloc(name, (padded,), dtype)
        t.write(_zero_padded(x, (padded,)))
        return t, padded

    def _as_plan_dtype(self, dtype) -> DType:
        """fp16 or int8, the cube scans' inputs (paper Section 3.1), from a
        device dtype, its name, or a NumPy dtype."""
        plan_dtype = self._plan_dtypes.get(dtype)
        if plan_dtype is not None:
            return plan_dtype
        if isinstance(dtype, DType):
            name = dtype.name
        elif isinstance(dtype, str) and dtype in ("fp16", "int8"):
            name = dtype
        else:
            kind = np.dtype(dtype)
            name = _CUBE_INPUT_NAMES.get(kind) or kind.name
        if name not in ("fp16", "int8"):
            raise KernelError(
                f"cube scans accept fp16 or int8 inputs (paper Section 3.1), "
                f"got {name}"
            )
        plan_dtype = self._plan_dtypes[dtype] = as_dtype(name)
        return plan_dtype

    def _mcscan_block_dim(self, n_tiles: int, block_dim: "int | None") -> int:
        limit = max_block_dim(self.config, n_tiles)
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

    # -- plan tracing: the one alloc-and-trace site per layout --------------------

    def _layout(
        self, algorithm: str, dt: DType, s: int, shape: "tuple[int, ...]"
    ) -> _Layout:
        """Resolve the layout of a plan for inputs of logical ``shape``
        (``(n,)``, or ``(batch, row_len)`` for the batched kernels).  The
        constants are cached on the context and must outlive any scratch
        mark, so callers resolve the layout before taking one."""
        row_len = shape[1] if len(shape) == 2 else None
        consts = None
        if algorithm != "vector":
            rows = None if row_len is None else batched_tile_rows(row_len, s)
            consts = self.constants(s, dt, rows=rows)
        pad_unit = plan_pad_unit(algorithm, s, row_len)
        padded = (*shape[:-1], padded_length(shape[-1], pad_unit))
        return _Layout(dt, consts, pad_unit, padded)

    def _load(self, x_gm: GlobalTensor, layout: _Layout, x) -> np.ndarray:
        """Write ``x`` zero-padded into ``x_gm`` and return what was
        written.  ``x`` None draws the deterministic validation input.  It
        is drawn here, after the plan's tensors are allocated: drawing it
        before them changes where the host allocator places the plan's
        buffers, which made the host passes of sharded 4M-element scans
        20-40 % slower."""
        if x is None:
            size = math.prod(layout.shape)
            x = validation_input(size, layout.dt, seed=size).reshape(layout.shape)
        else:
            x = _zero_padded(x, layout.shape)
        x_gm.write(x)
        return x

    def _trace_1d(
        self,
        layout: _Layout,
        x: "np.ndarray | None" = None,
        *,
        algorithm: str,
        s: int,
        block_dim: "int | None",
        exclusive: bool,
        carry_slot: bool = False,
    ) -> "tuple[ScanPlan, np.ndarray]":
        """Allocate a 1-D plan's tensors, build its kernel, load ``x`` (see
        :meth:`_load`), warm L2 and trace.  Returns the unvalidated plan and
        the padded input it traced on.  With ``carry_slot`` the MCScan
        kernel is traced with :data:`PLANTED_CARRY` in its carry slot."""
        dt, consts, pad_unit, (padded,) = layout
        out_dt = dt if consts is None else cube_accum_dtype(dt)
        owned_from = len(self.device.memory.tensors)
        x_gm = self.device.alloc("plan_x", (padded,), dt)
        y_gm = self.device.alloc("plan_y", (padded,), out_dt)
        if consts is None:
            kernel = CumSumKernel(x_gm, y_gm)
            resolved_bd = None
        else:
            try:
                kernel = self._cube_1d_kernel(
                    algorithm, x_gm, y_gm, consts, s, block_dim, exclusive,
                    carry_slot=carry_slot,
                )
            except Exception:
                # a refused configuration (block_dim out of range): free
                # the tensors allocated above, the build returns no plan
                memory = self.device.memory
                for tensor in reversed(memory.tensors[owned_from:]):
                    memory.free(tensor)
                raise
            resolved_bd = getattr(kernel, "block_dim", None)
        gm_tensors = self.device.memory.tensors[owned_from:]
        loaded = self._load(x_gm, layout, x)
        if carry_slot:
            planted = np.zeros(kernel.r.num_elements, out_dt.np_dtype)
            planted[0] = PLANTED_CARRY
            kernel.r.write(planted)
        if self.warm_inputs:
            self.device.warm_l2(x_gm, y_gm)
        traced = self.device.trace_kernel(
            kernel, label=f"plan {algorithm}(s={s}, n={padded})"
        )
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
            gm_tensors=gm_tensors,
            phases=tuple(traced.split_phases()) if carry_slot else (),
        )
        return plan, loaded

    def _trace_batched(
        self,
        layout: _Layout,
        x: "np.ndarray | None" = None,
        *,
        algorithm: str,
        s: int,
        block_dim: "int | None",
    ) -> "tuple[ScanPlan, np.ndarray]":
        """The batched counterpart of :meth:`_trace_1d`: one plan row per
        input row, each zero-padded to the plan's row length."""
        dt, consts, pad_unit, (batch, padded) = layout
        out_dt = dt if consts is None else cube_accum_dtype(dt)
        owned_from = len(self.device.memory.tensors)
        x_gm = self.device.alloc("plan_bx", (batch, padded), dt)
        y_gm = self.device.alloc("plan_by", (batch, padded), out_dt)
        if consts is None:
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
        loaded = self._load(x_gm, layout, x)
        if self.warm_inputs:
            self.device.warm_l2(x_gm, y_gm)
        traced = self.device.trace_kernel(
            kernel, label=f"plan batched {algorithm}(s={s}, {batch}x{padded})"
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
            gm_tensors=gm_tensors,
        )
        return plan, loaded

    # -- one-shot scans: a scratch plan traced on the caller's input ---------------

    def _launch_once(
        self, label: str, tracer, layout: _Layout, x: np.ndarray, **kw
    ) -> ScanResult:
        """Trace a plan on ``x`` inside a scratch mark, launch it once and
        read back the kernel's own output; the mark frees every tensor the
        plan allocated, so a long sweep reuses device memory."""
        mark = self.device.memory.mark()
        try:
            plan, _ = tracer(layout, x, **kw)
            trace = self.device.replay(plan.traced, label=label)
            values = plan.y_gm.to_numpy()[tuple(slice(d) for d in x.shape)]
        finally:
            self.device.memory.release(mark)
        io = x.size * plan._io_bytes_per_element()
        return ScanResult(values, trace, x.size, io)

    def _scan_1d(
        self,
        x: np.ndarray,
        algorithm: str,
        s: int,
        block_dim: "int | None",
        exclusive: bool,
    ) -> ScanResult:
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"scan expects a 1-D array, got shape {x.shape}")
        layout = self._layout(algorithm, self._as_plan_dtype(x.dtype), s, x.shape)
        label = "CumSum" if algorithm == "vector" else f"{algorithm}(s={s})"
        return self._launch_once(
            label, self._trace_1d, layout, x,
            algorithm=algorithm, s=s, block_dim=block_dim, exclusive=exclusive,
        )

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
        if algorithm not in SCAN_ALGORITHMS:
            raise KernelError(
                f"unknown algorithm {algorithm!r}; pick one of {SCAN_ALGORITHMS}"
            )
        if exclusive and algorithm != "mcscan":
            raise KernelError(
                "exclusive scan is implemented on MCScan (as in the paper)"
            )
        return self._scan_1d(x, algorithm, s, block_dim, exclusive)

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
        if strategy not in SCAN_STRATEGIES:
            raise KernelError(
                f"unknown strategy {strategy!r}; pick one of {SCAN_STRATEGIES}"
            )
        return self._scan_1d(x, strategy, s, block_dim, False)

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
        dt = self._as_plan_dtype(x.dtype)
        check_plan_config(algorithm, dt, batched=True, exclusive=False, served=False)
        layout = self._layout(algorithm, dt, s, x.shape)
        label = (
            "batched CumSum"
            if algorithm == "vector"
            else f"batched {algorithm}(s={s}, rows={layout.consts.rows})"
        )
        return self._launch_once(
            label, self._trace_batched, layout, x,
            algorithm=algorithm, s=s, block_dim=block_dim,
        )

    # -- plan building (serve-layer substrate) ------------------------------------------

    def _finish_plan(
        self, plan: ScanPlan, expected: "np.ndarray | None", t0: float, key: tuple
    ) -> ScanPlan:
        """Validate the freshly traced plan, stamp its build stats and
        offer it to the pool's :attr:`traces` table under ``key``; the
        table holds it weakly, so other members find the trace while this
        plan lives."""
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
        if self.traces is not None:
            self.traces[key] = plan
        return plan

    def _mirror(self, key: tuple, validate: bool, t0: float) -> "ScanPlan | None":
        """A plan for ``key`` that shares the trace of a live plan in the
        pool's :attr:`traces` table instead of tracing again: its GM
        tensors are allocated on this device with the source's names,
        shapes and dtypes, and it shares the source's traced program,
        phases and build verdict.  None when this context has no table,
        no live plan holds the key, or the source skipped the validation
        asked for here.  A context never mirrors a plan it traced itself:
        a second build on one device traces at new addresses, as it does
        without a pool."""
        source = None if self.traces is None else self.traces.get(key)
        if (
            source is None
            or source.ctx is self
            or (validate and not source.validated)
        ):
            return None
        tensors = tuple(
            self.device.alloc(t.name, t.shape, t.dtype) for t in source.gm_tensors
        )
        return replace(
            source, ctx=self, x_gm=tensors[0], y_gm=tensors[1],
            gm_tensors=tensors, executions=0, tuned=False, released=False,
            timeline_hits=0, timeline_misses=0,
            build_host_s=time.perf_counter() - t0,
        )

    def build_plan(
        self,
        *,
        algorithm: str,
        n: int,
        s: int,
        dtype="fp16",
        block_dim: "int | None" = None,
        exclusive: bool = False,
        validate: bool = True,
        device_carry: bool = False,
    ) -> ScanPlan:
        """Trace a reusable 1-D scan plan for inputs padding to
        ``padded_length(n, unit)`` elements of ``dtype``.

        The build traces the kernel once (full Python-level emission) on a
        deterministic exact validation input and cross-checks the kernel's
        output against the canonical computation the plan will use on
        execution (see :mod:`repro.core.replay`).

        The configuration is built as given; which configuration serves a
        workload (tuned or default) is :func:`repro.tune.resolve_candidate`'s
        choice, made before the build.

        With ``device_carry=True`` an MCScan plan (the only kernel with a
        phase seam) gets a carry slot at the front of ``r`` and its
        :attr:`~ScanPlan.phases`.  It is traced with :data:`PLANTED_CARRY`
        in the slot, so validation checks the phases' output against
        ``fp32(local scan) + carry``.  Other algorithms ignore the flag.
        """
        t0 = time.perf_counter()
        dt = self._as_plan_dtype(dtype)
        check_plan_config(algorithm, dt, batched=False, exclusive=exclusive, served=False)
        carry_slot = device_carry and algorithm == "mcscan"
        layout = self._layout(algorithm, dt, s, (n,))
        key = (
            algorithm, layout.shape, layout.pad_unit, dt.name, s, block_dim,
            exclusive, carry_slot, self.warm_inputs,
        )
        plan = self._mirror(key, validate, t0)
        if plan is None:
            plan, sample = self._trace_1d(
                layout,
                algorithm=algorithm,
                s=s,
                block_dim=block_dim,
                exclusive=exclusive,
                carry_slot=carry_slot,
            )
            expected = None
            if validate:
                expected = plan_compute(sample, algorithm, dt, exclusive=exclusive)
                if carry_slot:
                    expected = expected + expected.dtype.type(PLANTED_CARRY)
            plan = self._finish_plan(plan, expected, t0, key)
        return plan

    def build_batched_plan(
        self,
        *,
        algorithm: str,
        batch: int,
        row_len: int,
        s: int,
        dtype="fp16",
        validate: bool = True,
    ) -> ScanPlan:
        """Trace a reusable batched (row-wise) scan plan holding ``batch``
        rows that pad to ``padded_length(row_len, tile)`` elements each.
        The kernel's ``block_dim`` is its own heuristic: a batched plan
        key carries none, so no served plan could use another.

        Executions may submit fewer rows (or shorter rows); the remainder
        is zero-padded, exactly as the request batcher in
        :mod:`repro.serve` does when it rounds batches up to bucket sizes.
        """
        t0 = time.perf_counter()
        dt = self._as_plan_dtype(dtype)
        check_plan_config(algorithm, dt, batched=True, exclusive=False, served=False)
        if batch < 1:
            raise ShapeError(f"batch must be >= 1, got {batch}")
        layout = self._layout(algorithm, dt, s, (batch, row_len))
        key = (
            algorithm, layout.shape, layout.pad_unit, dt.name, s, None,
            False, False, self.warm_inputs,
        )
        plan = self._mirror(key, validate, t0)
        if plan is None:
            plan, sample = self._trace_batched(
                layout, algorithm=algorithm, s=s, block_dim=None
            )
            expected = None
            if validate:
                expected = plan_compute(sample, algorithm, dt)
            plan = self._finish_plan(plan, expected, t0, key)
        return plan

    # -- copy (torch.clone stand-in, Figure 8) --------------------------------------------

    def copy(self, x: np.ndarray, *, tile_elements: int = 16384) -> ScanResult:
        x = np.asarray(x).reshape(-1)
        dt = self._as_plan_dtype(x.dtype)
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
