"""Sync-coverage verification: every cross-engine data dependency in the
emitted op DAGs must be ordered by a queue edge, an explicit dep, or a
SyncAll barrier (see repro.verify.sync).

The checker works from the independent per-op access log recorded under
``audit_hazards=True``, so these tests catch hazard-derivation bugs that
the numerical tests cannot (a missing edge usually still computes the
right answer — emission order happens to match — but would be a race on
real hardware)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import (
    BATCHED_ALGORITHMS,
    SCAN_ALGORITHMS,
    SCAN_STRATEGIES,
    ScanContext,
)
from repro.core.copykernel import CopyKernel
from repro.errors import KernelError
from repro.hw.config import toy_config
from repro.hw.device import AscendDevice, HazardAccess
from repro.hw.isa import Op
from repro.hw.scheduler import Program
from repro.verify import check_accesses, check_sync_coverage


@pytest.fixture()
def audit_ctx() -> ScanContext:
    return ScanContext(device=AscendDevice(toy_config(), audit_hazards=True))


def _assert_covered(traced, min_pairs: int = 1) -> None:
    report = check_sync_coverage(traced)
    assert report.ok, [v.describe(traced.program) for v in report.violations[:5]]
    # sanity: the kernel actually had cross-op conflicts to verify
    assert report.checked_pairs >= min_pairs
    assert report.accesses > 0


@pytest.mark.parametrize("algorithm", SCAN_ALGORITHMS)
@pytest.mark.parametrize("dtype", ["fp16", "int8"])
def test_scan_kernels_fully_synchronized(audit_ctx, algorithm, dtype):
    plan = audit_ctx.build_plan(
        algorithm=algorithm, n=3000, dtype=dtype, s=32, validate=False
    )
    _assert_covered(plan.traced)


@pytest.mark.parametrize("algorithm", BATCHED_ALGORITHMS)
def test_batched_kernels_fully_synchronized(audit_ctx, algorithm):
    plan = audit_ctx.build_batched_plan(
        algorithm=algorithm, batch=5, row_len=2000, dtype="fp16", s=32,
        validate=False,
    )
    _assert_covered(plan.traced)


@pytest.mark.parametrize("strategy", [s for s in SCAN_STRATEGIES if s != "mcscan"])
def test_strategy_kernels_fully_synchronized(audit_ctx, strategy):
    # strategies have no plan API; trace their kernels directly
    from repro.core.strategies import (
        LookbackScanKernel,
        RSSScanKernel,
        SSAScanKernel,
    )

    cls = {
        "ssa": SSAScanKernel,
        "rss": RSSScanKernel,
        "lookback": LookbackScanKernel,
    }[strategy]
    ctx = audit_ctx
    s = 32
    consts = ctx.constants(s, "fp16")
    n_tiles = 3
    x = ctx.device.alloc("x", (n_tiles * s * s,), consts.dtype)
    x.write(np.zeros(n_tiles * s * s, dtype=np.float16))
    from repro.hw.datatypes import as_dtype

    y = ctx.device.alloc("y", (n_tiles * s * s,), as_dtype("fp32"))
    bd = min(ctx.config.num_ai_cores, n_tiles)
    lanes = bd * ctx.config.vector_cores_per_ai_core
    r = ctx.device.alloc("r", (lanes,), as_dtype("fp32"))
    traced = ctx.device.trace_kernel(cls(x, y, r, consts, s, bd))
    _assert_covered(traced)


def test_mcscan_exclusive_fully_synchronized(audit_ctx):
    plan = audit_ctx.build_plan(
        algorithm="mcscan", n=5000, dtype="fp16", s=32, exclusive=True,
        validate=False,
    )
    _assert_covered(plan.traced)


def test_copy_kernel_fully_synchronized(audit_ctx):
    ctx = audit_ctx
    from repro.hw.datatypes import as_dtype

    x = ctx.device.alloc("cx", (4096,), as_dtype("fp16"))
    x.write(np.zeros(4096, dtype=np.float16))
    y = ctx.device.alloc("cy", (4096,), as_dtype("fp16"))
    traced = ctx.device.trace_kernel(CopyKernel(x, y, 2, 1024))
    _assert_covered(traced)


def _assert_shard_phases_covered(x: np.ndarray) -> None:
    """Every shard plan a D=2 ShardedScanner builds for ``x`` folds the
    device carry into phase II; the whole plan and both phase programs
    are covered, on every pool member."""
    from repro.shard import DevicePool, ShardedScanner

    pool = DevicePool(2, toy_config())
    for device in pool.devices:
        device.audit_hazards = True
    scanner = ShardedScanner(pool, algorithm="mcscan", s=32, validate=False)
    assert scanner.scan(x).folded
    plans = [plan for bucket in scanner._plans.values() for plan in bucket]
    assert len(plans) == 2
    for plan in plans:
        _assert_covered(plan.traced)
        assert len(plan.phases) == 2
        for phase in plan.phases:
            _assert_covered(phase)


def test_sharded_int8_shard_plans_fully_synchronized(rng):
    _assert_shard_phases_covered(
        rng.integers(-128, 128, size=5000).astype(np.int8)
    )


def test_sharded_fp16_shard_plans_fully_synchronized(rng):
    _assert_shard_phases_covered(
        rng.integers(-2, 3, size=5000).astype(np.float16)
    )


@pytest.mark.parametrize(
    "algorithm, exclusive",
    [("mcscan", False), ("mcscan", True), ("scanu", False)],
)
def test_folded_post_fns_fully_synchronized(audit_ctx, algorithm, exclusive):
    """A scan whose vector stage folds two elementwise maps in UB before
    the GM store (graph-level fusion) is covered."""
    from repro.graph import ELEMENTWISE_FNS
    from repro.hw.datatypes import as_dtype

    ctx = audit_ctx
    s = 32
    n = 5 * s * s
    consts = ctx.constants(s, "fp16")
    x = ctx.device.alloc("x", (n,), consts.dtype)
    x.write(np.ones(n, dtype=np.float16))
    y = ctx.device.alloc("y", (n,), as_dtype("fp32"))
    post_fns = (ELEMENTWISE_FNS["negate"], ELEMENTWISE_FNS["relu"])
    kernel = ctx._cube_1d_kernel(
        algorithm, x, y, consts, s, None, exclusive, post_fns=post_fns
    )
    _assert_covered(ctx.device.trace_kernel(kernel))


def test_audit_disabled_raises(toy_device):
    ctx = ScanContext(device=toy_device)
    plan = ctx.build_plan(algorithm="scanu", n=1024, dtype="fp16", s=32,
                          validate=False)
    assert plan.traced.audit is None
    with pytest.raises(KernelError, match="audit_hazards"):
        check_sync_coverage(plan.traced)


def _synthetic(deps: tuple) -> tuple:
    """Two ops on different engines, write then read of one GM interval."""
    program = Program(2)
    program.add(Op(op_id=0, engine=0, kind="flow", label="store", cycles=1.0))
    program.add(
        Op(op_id=1, engine=1, kind="flow", label="load", deps=deps, cycles=1.0)
    )
    audit = [
        HazardAccess(0, "gm", 7, 0, 128, True),
        HazardAccess(1, "gm", 7, 0, 128, False),
    ]
    return program, audit


def test_negative_control_missing_edge_detected():
    program, audit = _synthetic(deps=())
    report = check_accesses(program, audit)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert (v.earlier, v.later, v.space) == (0, 1, "gm")
    assert "engine" in v.describe(program)


def test_negative_control_edge_restores_coverage():
    program, audit = _synthetic(deps=(0,))
    assert check_accesses(program, audit).ok


def test_same_engine_queue_edge_orders_conflicts():
    # same engine, no explicit dep: the in-order queue is the ordering
    program = Program(1)
    program.add(Op(op_id=0, engine=0, kind="flow", label="store", cycles=1.0))
    program.add(Op(op_id=1, engine=0, kind="flow", label="load", cycles=1.0))
    audit = [
        HazardAccess(0, "gm", 3, 0, 64, True),
        HazardAccess(1, "gm", 3, 0, 64, False),
    ]
    assert check_accesses(program, audit).ok


def test_disjoint_intervals_do_not_conflict():
    program, _ = _synthetic(deps=())
    audit = [
        HazardAccess(0, "gm", 7, 0, 64, True),
        HazardAccess(1, "gm", 7, 64, 128, False),
    ]
    report = check_accesses(program, audit)
    assert report.ok
    assert report.checked_pairs == 0
