"""Sharded 1-D scan: MCScan's recursion applied across devices.

The single-device hierarchy is *tile* (cube scan of an ``s``-tile inside a
core) then *block* (the ``r`` reduction array across cores).  Sharding
adds *device*: partition the input contiguously over the pool, scan each
shard with its own (tuned) 1-D plan, and exclusive-scan the per-device
totals on the host — the D-element analogue of MCScan's phase-II ``r``
prefix.  Each device's carry is then applied one of two ways:

* **folded** (D >= 2 and every shard plan is MCScan): the shard plans
  carry a device-carry slot at the front of ``r`` (see
  :mod:`repro.core.mcscan`), and their traced program is cut at its
  ``SyncAll`` into a phase I and a phase II launch.  Every member
  launches phase I; the host scan of the totals is the cross-device
  barrier in place of the ``SyncAll``; every member launches phase II,
  which adds its carry into each block's prefix.  Simulated wall-clock
  is ``max(phase I) + max(phase II)`` and there is no carry stage.
* **scan-then-propagate** (D = 1, or a plan without a phase seam:
  scanu, scanul1, ssa, a tuned non-MCScan entry): each member runs its
  whole plan, then devices 1..D-1 stream :class:`CarryAddKernel` (an
  ``Adds`` pass with the shape of MCScan's phase-II propagation, one
  level up) over their shard.  Simulated wall-clock is
  ``max(scan stage) + max(carry stage)``.

The host combine is untimed either way (D scalar adds).

Numerics: shard-local scans and the carry chain both run in the cube
accumulator dtype (fp32 / int32), and on both paths the host adds each
carry to the finished local scan, ``fp32(local scan) + carry``.  So for
int8 inputs — and for fp16 inputs whose partial sums are exactly
representable, e.g. :func:`repro.core.reference.exact_fp16_scan_input` —
the sharded result is bit-identical to the single-device oracle
regardless of D or shard boundaries (integer addition is associative;
rounding never enters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api import PLAN_1D_ALGORITHMS
from ..core.matrices import padded_length
from ..errors import KernelError, ShapeError
from ..hw.memory import GlobalTensor
from ..lang import intrinsics as I
from ..lang.kernel import Kernel
from ..lang.tensor import BufferKind
from .pool import DevicePool

__all__ = [
    "shard_ranges",
    "CarryAddKernel",
    "ShardRecord",
    "ShardedScanResult",
    "ShardedScanner",
]

#: UB tile of the carry pass: 8K elements (32 KB of fp32) double-buffered
CARRY_TILE_ELEMENTS = 8192


def shard_ranges(
    n: int, num_shards: int, unit: int
) -> "list[tuple[int, int]]":
    """Contiguous, balanced ``[start, end)`` shards of ``[0, n)``.

    Every shard boundary except the final ``n`` is aligned to ``unit``
    (the plan pad granularity, ``s*s`` for the cube kernels), so interior
    shards need no padding and only the tail shard pads up.  Work is
    balanced at unit granularity — shard sizes differ by at most one unit.
    Fewer than ``num_shards`` ranges come back when ``n`` has too few
    units to give every shard one (empty shards are dropped, mirroring how
    MCScan idles surplus cores past the tile count).
    """
    if n <= 0:
        raise ShapeError(f"input length must be positive, got {n}")
    if num_shards < 1:
        raise ShapeError(f"shard count must be >= 1, got {num_shards}")
    if unit < 1:
        raise ShapeError(f"shard unit must be >= 1, got {unit}")
    n_units = -(-n // unit)
    shards = min(num_shards, n_units)
    q, r = divmod(n_units, shards)
    ranges: list[tuple[int, int]] = []
    start_unit = 0
    for d in range(shards):
        units = q + (1 if d < r else 0)
        end_unit = start_unit + units
        start = start_unit * unit
        end = min(end_unit * unit, n)
        ranges.append((start, end))
        start_unit = end_unit
    return ranges


class CarryAddKernel(Kernel):
    """In-place ``y += carry`` over one device's shard output.

    Vector-only streaming pass: each participating vector core pulls
    tile-aligned chunks of ``y`` through a double-buffered UB queue, adds
    the scalar carry, and writes back — byte-for-byte the access pattern
    of MCScan's phase-II ``Adds`` propagation, applied to a whole shard.
    The op DAG is value-independent, so the scanner traces it once per
    plan with ``carry=0.0`` (a functional no-op) and replays it for
    timing; the real carry is applied host-side in the accumulator dtype.
    """

    mode = "vec"

    def __init__(
        self,
        y: GlobalTensor,
        carry: float,
        block_dim: int,
        tile_elements: int = CARRY_TILE_ELEMENTS,
    ):
        super().__init__(block_dim=block_dim)
        self.y = y
        self.carry = carry
        self.tile_elements = tile_elements

    def run(self, ctx) -> None:
        n = self.y.num_elements
        n_tiles = -(-n // self.tile_elements)
        tiles_per_block = -(-n_tiles // self.block_dim)
        per_block = tiles_per_block * self.tile_elements
        start = ctx.block_idx * per_block
        end = min(start + per_block, n)
        if start >= end:
            return
        pipe = ctx.make_pipe(ctx.vec_core(0))
        ub = pipe.init_buffer(
            buffer=BufferKind.UB,
            depth=2,
            slot_bytes=self.tile_elements * self.y.dtype.itemsize,
        )
        off = start
        while off < end:
            ln = min(self.tile_elements, end - off)
            tile = ub.alloc_tensor(self.y.dtype, ln)
            I.data_copy(ctx, tile, self.y.slice(off, ln), label="carry in")
            ub.enque(tile)
            tile = ub.deque()
            I.adds(ctx, tile, tile, self.carry, label="carry Adds")
            I.data_copy(ctx, self.y.slice(off, ln), tile, label="carry out")
            ub.free_tensor(tile)
            off += ln


@dataclass(frozen=True)
class ShardRecord:
    """One device's part of a sharded scan."""

    device: int
    start: int
    end: int
    #: padded length of the shard's plan
    padded: int
    #: simulated ns of the shard's local scan: one plan launch on the
    #: carry path, phase I + phase II on the folded path
    scan_ns: float
    #: simulated ns of the shard's carry pass (0.0 for device 0 and on
    #: the folded path)
    carry_ns: float
    #: True when the shard plan came from the scanner's memo, not a build
    plan_hit: bool
    #: True when the shard plan's config came from the tuned-plan store
    tuned: bool
    #: (phase I, phase II) launch ns on the folded path; empty otherwise
    phase_ns: "tuple[float, ...]" = ()

    @property
    def n(self) -> int:
        return self.end - self.start


@dataclass
class ShardedScanResult:
    """Numerical output plus the two-stage timing of one sharded scan."""

    values: np.ndarray
    shards: "list[ShardRecord]"
    #: the concurrent scan stage: max over device scan launches on the
    #: carry path, max(phase I) + max(phase II) on the folded path
    scan_stage_ns: float
    #: max over device carry launches (devices 1..D-1, concurrent); 0.0
    #: on the folded path
    carry_stage_ns: float
    n_elements: int
    #: logical input read + output written, the paper's bandwidth basis
    io_bytes: int

    @property
    def folded(self) -> bool:
        """True when the device carry rode in MCScan's phase II."""
        return bool(self.shards[0].phase_ns)

    @property
    def phase_stage_ns(self) -> "tuple[float, ...]":
        """(max phase I, max phase II) on the folded path; empty
        otherwise."""
        return tuple(max(stage) for stage in zip(*(r.phase_ns for r in self.shards)))

    @property
    def wall_ns(self) -> float:
        """Simulated wall-clock: the scan stage, then the carry stage."""
        return self.scan_stage_ns + self.carry_stage_ns

    @property
    def time_us(self) -> float:
        return self.wall_ns / 1e3

    @property
    def bandwidth_gbps(self) -> float:
        return self.io_bytes / self.wall_ns if self.wall_ns else 0.0

    @property
    def num_devices(self) -> int:
        return len(self.shards)


class ShardedScanner:
    """Reusable sharded-scan front end over a :class:`DevicePool`.

    Shard plans (and any carry-pass traces) are memoized per
    ``(device, padded length, dtype)``, so repeated scans of recurring
    shapes pay Python-level tracing once — the same plan-reuse discipline
    as :class:`~repro.serve.plan.PlanCache`, held per pool member.  Every
    shard length that pads (at ``s*s``) to a memoized plan's length reuses
    it; a tuned plan with another pad unit serves only the lengths that
    pad to its own length, so one key may hold several plans.
    """

    def __init__(
        self,
        pool: DevicePool,
        *,
        algorithm: str = "mcscan",
        s: int = 128,
        tuned: bool = False,
        validate: bool = True,
    ):
        if algorithm not in PLAN_1D_ALGORITHMS or algorithm == "vector":
            raise KernelError(
                f"sharded scan needs a cube 1-D algorithm (accumulator-dtype "
                f"output), got {algorithm!r}"
            )
        self.pool = pool
        self.algorithm = algorithm
        self.s = s
        self.tuned = tuned
        self.validate = validate
        #: (device index, length padded to s*s, dtype name) ->
        #: [[plan, carry trace or None until a carry pass needs it], ...]
        self._plans: dict = {}
        self.plans_built = 0

    # -- plan/carry memo -----------------------------------------------------

    def _shard_plan(
        self, device_idx: int, length: int, dtype
    ) -> "tuple[list, bool]":
        """Memoized ``[plan, carry trace]`` memo entry of one shard and
        whether it was a memo hit."""
        ctx = self.pool[device_idx]
        dt = ctx._as_plan_dtype(dtype)
        key = (device_idx, padded_length(length, self.s * self.s), dt.name)
        entries = self._plans.setdefault(key, [])
        for entry in entries:
            plan = entry[0]
            if padded_length(length, plan.pad_unit) == plan.padded:
                return entry, True
        plan = ctx.build_plan(
            algorithm=self.algorithm,
            n=length,
            dtype=dt,
            s=self.s,
            tuned=self.tuned,
            validate=self.validate,
            device_carry=True,
        )
        if plan.out_dtype.name == plan.in_dtype.name:
            # a tuned-store hit handed back the vector baseline, whose
            # input-dtype output cannot carry-chain exactly; fall back to
            # the scanner's explicit cube algorithm for this shard
            plan.release()
            plan = ctx.build_plan(
                algorithm=self.algorithm,
                n=length,
                dtype=dt,
                s=self.s,
                tuned=False,
                validate=self.validate,
                device_carry=True,
            )
        entry = [plan, None]
        entries.append(entry)
        self.plans_built += 1
        return entry, False

    def _carry_pass(self, device_idx: int, entry: list):
        """The carry-pass trace of a memoized shard plan, traced the first
        time a scan-then-propagate launch needs it."""
        plan, carry_traced = entry
        if carry_traced is None:
            ctx = self.pool[device_idx]
            bd = min(
                ctx.config.num_vector_cores,
                max(1, -(-plan.padded // CARRY_TILE_ELEMENTS)),
            )
            carry_traced = entry[1] = ctx.device.trace_kernel(
                CarryAddKernel(plan.y_gm, 0.0, bd),
                label=f"shard carry(n={plan.padded})",
            )
        return carry_traced

    # -- execution -----------------------------------------------------------

    def scan(self, x: np.ndarray) -> ShardedScanResult:
        """Inclusive scan of ``x`` sharded across the whole pool."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(
                f"sharded scan expects a 1-D array, got shape {x.shape}"
            )
        if x.size == 0:
            raise ShapeError("sharded scan expects a non-empty array")
        dt = self.pool[0]._as_plan_dtype(x.dtype)
        ranges = shard_ranges(x.size, len(self.pool), self.s * self.s)
        memo = [
            self._shard_plan(d, end - start, dt)
            for d, (start, end) in enumerate(ranges)
        ]
        plans = [entry[0] for entry, _hit in memo]
        # fold the device carry into MCScan's phase II when every member
        # has the phase seam and there is a carry to fold
        folded = len(ranges) > 1 and all(plan.phases for plan in plans)

        # stage 1: every device scans its shard concurrently — one plan
        # launch, or phase I alone on the folded path
        shard_values: list[np.ndarray] = []
        scan_ns: list[float] = []
        for d, (start, end) in enumerate(ranges):
            plan = plans[d]
            if folded:
                shard_values.append(plan.compute(x[start:end]))
                trace = self.pool[d].device.replay(plan.phases[0])
            else:
                result = plan.execute(x[start:end])
                shard_values.append(result.values)
                trace = result.trace
            scan_ns.append(trace.total_ns)

        # host barrier: exclusive-scan the D shard totals (accumulator
        # dtype, untimed — one length-D cumsum on the host, as LightScan's
        # inter-processor combine is negligible next to the shards).  The
        # cumsum adds the totals in the same left-to-right order as the
        # old scalar chain, so the carries are bit-identical.
        out_np = shard_values[0].dtype
        totals = np.array(
            [vals[-1] for vals in shard_values[:-1]], dtype=out_np
        )
        carries = np.cumsum(totals, dtype=out_np)

        # stage 2: on the folded path every device launches phase II,
        # which reads its carry from the front of r; otherwise devices
        # 1..D-1 stream a carry pass over the shard.  Either way the
        # functional add happens host-side in the accumulator dtype (the
        # traced programs are value-independent, so they replay for
        # timing), written straight into the assembled output.
        values = np.empty(x.size, dtype=out_np)
        start0, end0 = ranges[0]
        values[start0:end0] = shard_values[0]
        for d in range(1, len(ranges)):
            start, end = ranges[d]
            np.add(shard_values[d], carries[d - 1], out=values[start:end])
        carry_ns = [0.0] * len(ranges)
        phase_ns: "list[tuple[float, ...]]" = [()] * len(ranges)
        for d, (entry, _hit) in enumerate(memo):
            device = self.pool[d].device
            if folded:
                phase2_ns = device.replay(plans[d].phases[1]).total_ns
                phase_ns[d] = (scan_ns[d], phase2_ns)
                scan_ns[d] += phase2_ns
            elif d > 0:
                carry_ns[d] = device.replay(self._carry_pass(d, entry)).total_ns
        records = [
            ShardRecord(
                device=d,
                start=start,
                end=end,
                padded=plans[d].padded,
                scan_ns=scan_ns[d],
                carry_ns=carry_ns[d],
                plan_hit=memo[d][1],
                tuned=plans[d].tuned,
                phase_ns=phase_ns[d],
            )
            for d, (start, end) in enumerate(ranges)
        ]
        scan_stage = max(scan_ns)
        if folded:
            scan_stage = sum(max(stage) for stage in zip(*phase_ns))
        n = x.size
        io = n * (dt.itemsize + values.dtype.itemsize)
        return ShardedScanResult(
            values=values,
            shards=records,
            scan_stage_ns=scan_stage,
            carry_stage_ns=max(carry_ns),
            n_elements=n,
            io_bytes=io,
        )

    def release(self) -> int:
        """Free every memoized shard plan's GM tensors; returns the bytes
        returned across the pool."""
        freed = 0
        for entries in self._plans.values():
            for plan, _carry in entries:
                freed += plan.release()
        self._plans.clear()
        return freed
