"""Sharded 1-D scan: MCScan's recursion applied across devices.

The single-device hierarchy is *tile* (cube scan of an ``s``-tile inside a
core) then *block* (the ``r`` reduction array across cores).  Sharding
adds *device*: partition the input contiguously over the pool, scan each
shard with its own (optionally tuned) MCScan plan, and exclusive-scan the
per-device totals on the host — the D-element analogue of MCScan's
phase-II ``r`` prefix.

Every shard plan carries a device-carry slot at the front of ``r`` (see
:mod:`repro.core.mcscan`), and its traced program is cut at its
``SyncAll`` into a phase I and a phase II launch.  With two or more
shards, every member launches phase I; the host scan of the totals is
the cross-device barrier in place of the ``SyncAll``; every member
launches phase II, which adds its carry into each block's prefix.
Simulated wall-clock is ``max(phase I) + max(phase II)``, and the host
combine is untimed (D scalar adds).  A single shard has no carry and
runs its plan whole.

Numerics: shard-local scans and the carry chain both run in the cube
accumulator dtype (fp32 / int32), and the host adds each carry to the
finished local scan, ``fp32(local scan) + carry``.  So for int8 inputs —
and for fp16 inputs whose partial sums are exactly representable, e.g.
:func:`repro.core.reference.exact_fp16_scan_input` — the sharded result
is bit-identical to the single-device oracle regardless of D or shard
boundaries (integer addition is associative; rounding never enters).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.api import ScanPlan
from ..core.matrices import padded_length
from ..errors import KernelError, ShapeError
from .pool import DevicePool

__all__ = [
    "shard_ranges",
    "ShardRecord",
    "ShardedScanResult",
    "ShardedScanner",
]


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


@dataclass(frozen=True)
class ShardRecord:
    """One device's part of a sharded scan."""

    device: int
    start: int
    end: int
    #: padded length of the shard's plan
    padded: int
    #: simulated ns of the shard's scan: phase I + phase II, or the one
    #: plan launch of a single shard
    scan_ns: float
    #: True when the shard plan came from the scanner's memo, not a build
    plan_hit: bool
    #: True when the shard plan's config came from the tuned-plan store
    tuned: bool
    #: (phase I, phase II) launch ns; empty for a single shard
    phase_ns: "tuple[float, ...]" = ()

    @property
    def n(self) -> int:
        return self.end - self.start

    @property
    def carry_ns(self) -> float:
        """Always 0.0: the carry rides in phase II.  Kept only while
        ``perfbench/workloads.py`` still reads it."""
        return 0.0


@dataclass
class ShardedScanResult:
    """Numerical output plus the phase timing of one sharded scan."""

    values: np.ndarray
    shards: "list[ShardRecord]"
    #: max(phase I) + max(phase II), or the one launch of a single shard
    scan_stage_ns: float
    n_elements: int
    #: logical input read + output written, the paper's bandwidth basis
    io_bytes: int

    @property
    def carry_stage_ns(self) -> float:
        """Always 0.0: there is no carry pass.  Kept only while
        ``perfbench/workloads.py`` still reads it."""
        return 0.0

    @property
    def folded(self) -> bool:
        """True when the device carry rode in MCScan's phase II (two or
        more shards)."""
        return bool(self.shards[0].phase_ns)

    @property
    def phase_stage_ns(self) -> "tuple[float, ...]":
        """(max phase I, max phase II) when folded; empty otherwise."""
        return tuple(max(stage) for stage in zip(*(r.phase_ns for r in self.shards)))

    @property
    def wall_ns(self) -> float:
        """Simulated wall-clock of the scan."""
        return self.scan_stage_ns

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

    Shard plans are memoized per ``(device, padded length, dtype)``, so
    repeated scans of recurring shapes pay Python-level tracing once — the
    same plan-reuse discipline as :class:`~repro.serve.plan.PlanCache`,
    held per pool member.  Every shard length that pads (at ``s*s``) to a
    memoized plan's length reuses it; a tuned plan with another pad unit
    serves only the lengths that pad to its own length, so one key may
    hold several plans.
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
        # only MCScan has the phase seam the device carry rides in;
        # ``algorithm`` stays while perfbench/workloads.py still passes it
        if algorithm != "mcscan":
            raise KernelError(
                f"sharded scan folds the device carry into MCScan's phase "
                f"II and runs MCScan only, got {algorithm!r}"
            )
        self.pool = pool
        self.s = s
        self.tuned = tuned
        self.validate = validate
        #: (device index, length padded to s*s, dtype name) -> [plan, ...]
        self._plans: dict = {}
        self.plans_built = 0

    def _shard_plan(
        self, device_idx: int, length: int, dtype
    ) -> "tuple[ScanPlan, bool]":
        """Memoized MCScan plan of one shard and whether it was a memo
        hit."""
        ctx = self.pool[device_idx]
        dt = ctx._as_plan_dtype(dtype)
        key = (device_idx, padded_length(length, self.s * self.s), dt.name)
        plans = self._plans.setdefault(key, [])
        for plan in plans:
            if padded_length(length, plan.pad_unit) == plan.padded:
                return plan, True
        build = partial(
            ctx.build_plan,
            algorithm="mcscan",
            n=length,
            dtype=dt,
            s=self.s,
            validate=self.validate,
            device_carry=True,
        )
        plan = build(tuned=self.tuned)
        if plan.algorithm != "mcscan":
            # a tuned entry for another algorithm has no phase seam to
            # fold the carry into: the shard gets the untuned MCScan plan
            plan.release()
            plan = build(tuned=False)
        plans.append(plan)
        self.plans_built += 1
        return plan, False

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
        plans = [plan for plan, _hit in memo]
        devices = [self.pool[d].device for d in range(len(ranges))]
        folded = len(ranges) > 1

        # every device launches phase I of its shard concurrently; a
        # single shard has no carry, so it launches its whole plan.  The
        # functional numerics run host-side (the traced programs are
        # value-independent, so they replay for timing)
        shard_values: list[np.ndarray] = []
        scan_ns: list[float] = []
        for plan, device, (start, end) in zip(plans, devices, ranges):
            shard_values.append(plan.compute(x[start:end]))
            launch = plan.phases[0] if folded else plan.traced
            scan_ns.append(device.replay(launch).total_ns)

        # host barrier in place of the SyncAll: exclusive-scan the D shard
        # totals (accumulator dtype, untimed — one length-D cumsum, as
        # LightScan's inter-processor combine is negligible next to the
        # shards), then add each carry to its finished local scan,
        # written straight into the assembled output
        out_np = shard_values[0].dtype
        totals = np.array(
            [vals[-1] for vals in shard_values[:-1]], dtype=out_np
        )
        carries = np.cumsum(totals, dtype=out_np)
        values = np.empty(x.size, dtype=out_np)
        start0, end0 = ranges[0]
        values[start0:end0] = shard_values[0]
        for d in range(1, len(ranges)):
            start, end = ranges[d]
            np.add(shard_values[d], carries[d - 1], out=values[start:end])

        # every device launches phase II, which reads its carry from the
        # front of r
        phase_ns: "list[tuple[float, ...]]" = [()] * len(ranges)
        if folded:
            phase_ns = [
                (phase1, device.replay(plan.phases[1]).total_ns)
                for phase1, plan, device in zip(scan_ns, plans, devices)
            ]
            scan_ns = [phase1 + phase2 for phase1, phase2 in phase_ns]
        records = [
            ShardRecord(
                device=d,
                start=start,
                end=end,
                padded=plans[d].padded,
                scan_ns=scan_ns[d],
                plan_hit=memo[d][1],
                tuned=plans[d].tuned,
                phase_ns=phase_ns[d],
            )
            for d, (start, end) in enumerate(ranges)
        ]
        scan_stage = scan_ns[0]
        if folded:
            scan_stage = sum(max(stage) for stage in zip(*phase_ns))
        n = x.size
        io = n * (dt.itemsize + values.dtype.itemsize)
        return ShardedScanResult(
            values=values,
            shards=records,
            scan_stage_ns=scan_stage,
            n_elements=n,
            io_bytes=io,
        )

    def release(self) -> int:
        """Free every memoized shard plan's GM tensors; returns the bytes
        returned across the pool."""
        freed = 0
        for plans in self._plans.values():
            for plan in plans:
                freed += plan.release()
        self._plans.clear()
        return freed
