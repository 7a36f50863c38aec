"""The simulated Ascend device: cores, op emission, kernel launch.

:class:`AscendDevice` owns global memory, the L2 cache model and the engine
table.  Kernels (see :mod:`repro.lang.kernel`) are launched over a number of
*blocks*; each block is bound to one AI core (cube + vector cores, "mix"
mode) or to a single vector core ("vec" mode), mirroring AscendC's blockDim
semantics on the 910B split architecture.

The :class:`Emitter` converts intrinsic calls into :class:`~repro.hw.isa.Op`
records with automatically derived dependencies:

* local-tensor hazards come from the tensors' :class:`~repro.lang.tensor.Hazard`
  records;
* global-memory hazards are tracked at bucket granularity (false sharing at
  bucket edges only adds a conservative edge, never loses one);
* ``SyncAll`` inserts a device-wide barrier op and fences all later ops.

Ops are emitted eagerly in program order while the kernel's Python code also
performs the *functional* computation on the NumPy backing stores; the DES
then replays the op DAG to produce the timeline.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..errors import KernelError, SchedulerError
from .cache import L2Cache
from .config import ASCEND_910B4, DeviceConfig
from .isa import CUBE_ENGINES, VECTOR_ENGINES, CostModel, Op
from .memory import GlobalMemory, GlobalSlice, GlobalTensor
from .scheduler import Program, Timeline, simulate
from .trace import EngineInfo, Trace

__all__ = ["AscendDevice", "Emitter", "CoreHandle", "TracedKernel", "HazardAccess"]

#: granularity of global-memory hazard tracking (bytes)
GM_HAZARD_BUCKET = 32 * 1024


@dataclass(frozen=True)
class CoreHandle:
    """Identity of one core as seen by a kernel block."""

    kind: str  # "aic" or "aiv"
    index: int


@dataclass(frozen=True)
class HazardAccess:
    """One audited data access of an op (see ``AscendDevice(audit_hazards=)``).

    ``space`` is ``"gm"`` (key = tensor id, byte interval ``[start, end)``)
    or ``"local"`` (key = the hazard record's allocation serial; local
    hazards are tracked at whole-slot granularity, so the interval is the
    conventional ``[0, 1)``).
    """

    op_id: int
    space: str
    key: int
    start: int
    end: int
    is_write: bool


class _GmAccess:
    """One recorded GM access: exact byte interval + op + direction."""

    __slots__ = ("start", "end", "op_id", "is_write")

    def __init__(self, start: int, end: int, op_id: int, is_write: bool):
        self.start = start
        self.end = end
        self.op_id = op_id
        self.is_write = is_write


class Emitter:
    """Builds the op DAG for one kernel launch."""

    def __init__(self, device: "AscendDevice"):
        self.device = device
        self.config = device.config
        self.costs = device.costs
        self.cache = device.l2
        self.program = Program(len(device.engines) + 1)  # +1 sync pseudo-engine
        self._sync_engine = len(device.engines)
        self._gm_hazards: dict[tuple[int, int], list[_GmAccess]] = {}
        self._next_id = 0
        #: per-op access log for sync-coverage verification (opt-in)
        self.audit: "list[HazardAccess] | None" = (
            [] if device.audit_hazards else None
        )

    # -- low-level op emission ---------------------------------------------------

    def _new_id(self) -> int:
        op_id = self._next_id
        self._next_id += 1
        return op_id

    def emit(
        self,
        *,
        engine: int,
        kind: str,
        label: str,
        cycles: float = 0.0,
        reads: tuple = (),
        writes: tuple = (),
        gm_read: "GlobalSlice | None" = None,
        gm_write: "GlobalSlice | None" = None,
        extra_deps: tuple[int, ...] = (),
    ) -> int:
        """Emit one op; ``reads``/``writes`` are hazard-carrying objects
        (LocalTensor or Hazard) and ``gm_read``/``gm_write`` are GM ranges."""
        deps: list[int] = list(extra_deps)
        for obj in reads:
            h = getattr(obj, "hazard", obj)
            deps.extend(h.deps_for_read())
        for obj in writes:
            h = getattr(obj, "hazard", obj)
            deps.extend(h.deps_for_write())

        gm_bytes = 0
        l2_hit = 0
        if gm_read is not None:
            deps.extend(self._gm_deps(gm_read, is_write=False))
            gm_bytes += gm_read.nbytes
            hit, _miss = self.cache.access(gm_read.byte_start, gm_read.nbytes)
            l2_hit += hit
        if gm_write is not None:
            deps.extend(self._gm_deps(gm_write, is_write=True))
            gm_bytes += gm_write.nbytes
            hit, _miss = self.cache.access(gm_write.byte_start, gm_write.nbytes)
            l2_hit += hit

        op_id = self._new_id()
        # ops that both compute and move GM data (e.g. the scalar-unit
        # masked_select baseline) fold their compute time into the flow's
        # fixed latency phase -- the scheduler times flows as latency+drain
        latency_ns = 0.0
        if gm_bytes:
            latency_ns = self.costs.mte_fixed_ns() + self.config.cycles_to_ns(
                cycles
            )
        op = Op(
            op_id=op_id,
            engine=engine,
            kind=kind,
            label=label,
            deps=tuple(set(deps)),
            cycles=0.0 if gm_bytes else cycles,
            gm_bytes=gm_bytes,
            eff_bytes=self.costs.flow_effective_bytes(gm_bytes, l2_hit)
            if gm_bytes
            else 0.0,
            latency_ns=latency_ns,
            l2_hit_bytes=l2_hit,
        )
        self.program.add(op)

        # update hazard state after deps were gathered
        for obj in reads:
            h = getattr(obj, "hazard", obj)
            h.note_read(op_id)
        for obj in writes:
            h = getattr(obj, "hazard", obj)
            h.note_write(op_id)
        if gm_read is not None:
            self._gm_note(gm_read, op_id, is_write=False)
        if gm_write is not None:
            self._gm_note(gm_write, op_id, is_write=True)
        if self.audit is not None:
            self._audit_op(op_id, reads, writes, gm_read, gm_write)
        return op_id

    def _audit_op(self, op_id, reads, writes, gm_read, gm_write) -> None:
        """Record this op's data accesses for independent sync verification."""
        log = self.audit
        for objs, is_write in ((reads, False), (writes, True)):
            for obj in objs:
                h = getattr(obj, "hazard", obj)
                log.append(
                    HazardAccess(op_id, "local", h.serial, 0, 1, is_write)
                )
        for s, is_write in ((gm_read, False), (gm_write, True)):
            if s is not None:
                start = s.offset * s.dtype.itemsize
                log.append(
                    HazardAccess(
                        op_id, "gm", s.tensor.tensor_id,
                        start, start + max(s.nbytes, 1), is_write,
                    )
                )

    # -- global-memory hazards ------------------------------------------------------

    def _gm_buckets(self, s: GlobalSlice) -> range:
        start = s.offset * s.dtype.itemsize
        end = start + max(s.nbytes, 1)
        return range(start // GM_HAZARD_BUCKET, (end - 1) // GM_HAZARD_BUCKET + 1)

    def _gm_deps(self, s: GlobalSlice, *, is_write: bool) -> list[int]:
        """Exact byte-interval hazard detection (bucketed for locality).

        Byte-precise overlap matters: operators like split write
        data-dependent, *adjacent* output ranges from different cores; any
        coarser granularity would create false WAW edges that chain the
        cores' store engines serially.
        """
        deps: list[int] = []
        tid = s.tensor.tensor_id
        start = s.offset * s.dtype.itemsize
        end = start + s.nbytes
        for b in self._gm_buckets(s):
            entries = self._gm_hazards.get((tid, b))
            if not entries:
                continue
            for a in entries:
                if a.start < end and start < a.end and (is_write or a.is_write):
                    deps.append(a.op_id)
        return deps

    def _gm_note(self, s: GlobalSlice, op_id: int, *, is_write: bool) -> None:
        tid = s.tensor.tensor_id
        start = s.offset * s.dtype.itemsize
        end = start + s.nbytes
        access = _GmAccess(start, end, op_id, is_write)
        for b in self._gm_buckets(s):
            entries = self._gm_hazards.setdefault((tid, b), [])
            if is_write:
                # a write supersedes fully-covered earlier accesses (their
                # hazards flow transitively through this op)
                entries[:] = [
                    a for a in entries if not (start <= a.start and a.end <= end)
                ]
            entries.append(access)

    # -- barriers --------------------------------------------------------------------

    def sync_all(self) -> int:
        """Device-wide barrier (AscendC SyncAll)."""
        deps = self.program.barrier_deps()
        op_id = self._new_id()
        op = Op(
            op_id=op_id,
            engine=self._sync_engine,
            kind="barrier",
            label="SyncAll",
            deps=deps,
            cycles=self.config.costs.sync_all_ns * self.config.clock_ghz,
        )
        self.program.add(op)
        self.program.set_fence(op_id)
        # the barrier supersedes all earlier GM hazards
        self._gm_hazards.clear()
        return op_id


@dataclass
class TracedKernel:
    """The reusable product of one kernel emission: the op DAG plus launch
    metadata.  Replaying it (:meth:`AscendDevice.replay`) re-runs only the
    scheduler — the Python-level kernel code does not execute again, which
    is what the serve layer's plan cache banks on.

    Because every op's cycles/bytes are fixed at trace time, the timeline
    itself is deterministic per device config.  Replay therefore memoizes
    the first :func:`~repro.hw.scheduler.simulate` result on this record;
    subsequent replays against the same config are a cache hit and skip
    scheduling entirely.  :attr:`timeline_hits` / :attr:`timeline_misses`
    count these (the serve layer surfaces them as the timeline-cache hit
    rate)."""

    program: Program
    label: str
    audit: "list[HazardAccess] | None" = None
    #: replays served from the memoized timeline / computed fresh
    timeline_hits: int = 0
    timeline_misses: int = 0
    _timeline: "Timeline | None" = field(default=None, repr=False)
    #: config the cached timeline was scheduled against — replaying the
    #: same trace on a differently-configured device invalidates it rather
    #: than serving stale timings
    _timeline_config: "DeviceConfig | None" = field(default=None, repr=False)

    @property
    def ops(self) -> list[Op]:
        return self.program.ops

    def invalidate_timeline(self) -> None:
        """Drop the memoized timeline (counters persist)."""
        self._timeline = None
        self._timeline_config = None

    def split_phases(self) -> "list[TracedKernel]":
        """Cut the program at its ``SyncAll`` barriers into one launchable
        program per kernel phase, without tracing the kernel again.

        Each phase keeps its ops in issue order, renumbered from 0, with
        the edges that stay inside the phase.  An edge into an earlier
        phase is dropped: the caller launches the phases in order, so the
        launch boundary orders it, exactly as the barrier did.  The access
        log (when audited) is cut and renumbered the same way, so
        :func:`repro.verify.check_sync_coverage` checks each phase alone.
        """
        ops = self.program.ops
        cuts = [op.op_id for op in ops if op.is_barrier]
        bounds = zip([-1] + cuts, cuts + [len(ops)])
        phases = []
        for k, (barrier, end) in enumerate(bounds):
            start = barrier + 1
            program = Program(self.program.num_engines)
            for op in ops[start:end]:
                deps = tuple(
                    d - start for d in self.program.deps_of(op.op_id)
                    if d >= start
                )
                program.add(replace(op, op_id=op.op_id - start, deps=deps))
            audit = None
            if self.audit is not None:
                audit = [
                    replace(a, op_id=a.op_id - start)
                    for a in self.audit
                    if start <= a.op_id < end
                ]
            phases.append(
                TracedKernel(
                    program=program,
                    label=f"{self.label} phase {k + 1}",
                    audit=audit,
                )
            )
        return phases


class AscendDevice:
    """A simulated Ascend accelerator."""

    def __init__(
        self,
        config: DeviceConfig = ASCEND_910B4,
        *,
        name: "str | None" = None,
        audit_hazards: bool = False,
        fault_plan=None,
    ):
        self.config = config
        #: instance label — device pools (repro.shard) run several devices
        #: of the same config, so traces and stats need a per-device name
        self.name = name if name is not None else config.name
        #: optional :class:`repro.hw.faults.FaultPlan`; when set, every
        #: :meth:`replay` consults it — transient/permanent faults raise
        #: :class:`~repro.errors.DeviceFault` and slowdowns stretch the
        #: returned trace.  May also be attached after construction.
        self.fault_plan = fault_plan
        #: when True, every emitted op logs its data accesses (HazardAccess)
        #: so tests can independently verify synchronization coverage
        self.audit_hazards = audit_hazards
        self.memory = GlobalMemory(config)
        self.l2 = L2Cache(config)
        self.costs = CostModel(config)
        self.engines: list[EngineInfo] = []
        self._engine_index: dict[tuple[str, int, str], int] = {}
        for i in range(config.num_cube_cores):
            for kind in CUBE_ENGINES:
                self._add_engine("aic", i, kind)
        for i in range(config.num_vector_cores):
            for kind in VECTOR_ENGINES:
                self._add_engine("aiv", i, kind)
        # the sync pseudo-engine row appended to every trace is identical
        # across replays, so build the trace engine table once
        self._trace_engines = self.engines + [
            EngineInfo(len(self.engines), "dev", 0, "sync")
        ]
        #: when a list, every successful replay appends its TracedKernel —
        #: the graph runtime's capture seam (see :meth:`capture_launches`)
        self._capture: "list[TracedKernel] | None" = None

    @contextmanager
    def capture_launches(self):
        """Record every :class:`TracedKernel` replayed while the context is
        active (``launch`` goes through ``replay``, so traced-then-launched
        kernels are captured too).  The graph runtime
        (:mod:`repro.graph.interp`) lowers an operator by running it once
        under this seam and keeping the captured kernels for replay."""
        prev, self._capture = self._capture, []
        try:
            yield self._capture
        finally:
            self._capture = prev

    def _add_engine(self, core_kind: str, core_index: int, engine_kind: str) -> None:
        eid = len(self.engines)
        self.engines.append(EngineInfo(eid, core_kind, core_index, engine_kind))
        self._engine_index[(core_kind, core_index, engine_kind)] = eid

    def engine_id(self, core: CoreHandle, engine_kind: str) -> int:
        try:
            return self._engine_index[(core.kind, core.index, engine_kind)]
        except KeyError:
            raise SchedulerError(
                f"no engine {engine_kind!r} on core {core.kind}{core.index}"
            ) from None

    # -- memory helpers -----------------------------------------------------------------

    def alloc(self, name: str, shape, dtype) -> GlobalTensor:
        return self.memory.alloc(name, shape, dtype)

    def warm_l2(self, *tensors: GlobalTensor) -> None:
        """Mark tensors L2-resident (steady-state profiling, see cache.py)."""
        for t in tensors:
            self.l2.warm(t.base_addr, t.nbytes)

    def flush_l2(self) -> None:
        self.l2.flush()

    # -- kernel launch ---------------------------------------------------------------------

    def trace_kernel(self, kernel, *, label: "str | None" = None) -> TracedKernel:
        """Run a kernel's Python body once, emitting its op DAG (and its
        functional NumPy effects on GM state) without scheduling it.

        The kernel object must provide ``block_dim``, ``mode`` ("mix" or
        "vec") and ``phases()`` -> list of callables taking a KernelContext.
        The returned :class:`TracedKernel` can be scheduled any number of
        times with :meth:`replay`.
        """
        from ..lang.context import KernelContext  # local import to avoid cycle

        mode = kernel.mode
        block_dim = kernel.block_dim
        if mode == "mix":
            max_blocks = self.config.num_ai_cores
        elif mode == "vec":
            max_blocks = self.config.num_vector_cores
        else:
            raise KernelError(f"unknown kernel mode {mode!r}")
        if not 1 <= block_dim <= max_blocks:
            raise KernelError(
                f"block_dim {block_dim} out of range [1, {max_blocks}] for "
                f"mode {mode!r} on {self.config.name}"
            )

        emitter = Emitter(self)
        phases = kernel.phases()
        if not phases:
            raise KernelError("kernel has no phases")
        for phase_idx, phase in enumerate(phases):
            for block in range(block_dim):
                ctx = KernelContext(
                    device=self,
                    emitter=emitter,
                    block_idx=block,
                    block_dim=block_dim,
                    mode=mode,
                )
                phase(ctx)
            if phase_idx != len(phases) - 1:
                emitter.sync_all()

        return TracedKernel(
            program=emitter.program,
            label=label or type(kernel).__name__,
            audit=emitter.audit,
        )

    def replay(self, traced: TracedKernel, *, label: "str | None" = None) -> Trace:
        """Schedule a previously traced op DAG and wrap the timeline in a
        fresh :class:`Trace`.  The timeline is memoized on ``traced`` (see
        :meth:`_timeline_for`), so only the first replay per device config
        runs the scheduler.

        With a :attr:`fault_plan` attached, the launch may instead raise
        :class:`~repro.errors.DeviceFault` (transient or permanent, on the
        plan's seeded schedule), and the returned trace is stretched by
        the plan's engine slowdown factors.
        """
        if self.fault_plan is not None:
            self.fault_plan.on_launch(self.name)
        trace = Trace(
            ops=traced.program.ops,
            timeline=self._timeline_for(traced),
            engines=self._trace_engines,
            config=self.config,
            label=label or traced.label,
            launch_ns=self.config.costs.kernel_launch_ns,
            audit=traced.audit,
        )
        if self.fault_plan is not None:
            trace.stretch_ns = self.fault_plan.stretch_ns(trace)
        if self._capture is not None:
            self._capture.append(traced)
        return trace

    def _timeline_for(self, traced: TracedKernel) -> Timeline:
        """``traced``'s timeline on this device's config: the memoized one
        on a hit, otherwise one :func:`simulate` run, memoized.  Hits and
        misses are counted on ``traced``."""
        if traced._timeline_config is not self.config:
            traced.invalidate_timeline()
            traced._timeline_config = self.config
        if traced._timeline is not None:
            traced.timeline_hits += 1
            return traced._timeline
        traced._timeline = simulate(traced.program, self.config)
        traced.timeline_misses += 1
        return traced._timeline

    def time_traced(self, traced: TracedKernel) -> float:
        """Timing-only evaluation hook: end-to-end simulated nanoseconds of
        one launch of ``traced`` (device timeline + launch overhead),
        without materialising a :class:`Trace` and without touching any
        functional state.

        This is the autotuner's and the graph runtime's cost probe
        (:mod:`repro.tune`, :mod:`repro.graph.interp`): candidate plans are
        traced once and scored through the memoized timeline, so search
        never executes numerics and a repeated probe never reschedules.
        """
        return (
            self._timeline_for(traced).total_ns
            + self.config.costs.kernel_launch_ns
        )

    def launch(self, kernel, *, label: "str | None" = None) -> Trace:
        """Trace a kernel and schedule it; returns its :class:`Trace`."""
        return self.replay(self.trace_kernel(kernel, label=label))
