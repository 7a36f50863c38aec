"""Sync-coverage verification: every cross-engine data dependency in the
emitted op DAGs must be ordered by a queue edge, an explicit dep, or a
SyncAll barrier (see repro.verify.sync).

The checker works from the independent per-op access log recorded under
``audit_hazards=True``, so these tests catch hazard-derivation bugs that
the numerical tests cannot (a missing edge usually still computes the
right answer — emission order happens to match — but would be a race on
real hardware)."""

from __future__ import annotations

import copy

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


def _lowered_programs(kind: str, dtypes: "tuple[str, ...]", params: dict):
    """The traced kernels of one node lowered by a graph runner whose
    build device records the hazard audit."""
    from repro.graph import Graph, GraphRunner

    runner = GraphRunner(toy_config())
    runner.device.audit_hazards = True
    g = Graph(name=f"audit_{kind}")
    edges = [g.add_input(f"in{i}", dt, (3000,)) for i, dt in enumerate(dtypes)]
    g.set_outputs(list(g.add_node("op", kind, edges, params)))
    ((_, low),) = runner.lower(g)[0]
    assert low.validated is True
    return low.traced


@pytest.mark.parametrize(
    "kind, dtypes, params",
    [
        ("radix_sort", ("fp16",), {"s": 32, "descending": True}),
        ("radix_sort", ("uint8",), {"s": 32}),
        ("top_p_sample", ("fp16", "int32"), {"s": 32, "p": 0.9}),
        ("split", ("fp16", "int8"), {"s": 32}),
        ("compress", ("int16", "int8"), {"s": 32}),
        ("elementwise", ("fp16",), {"fn": "relu"}),
        ("radix_sort", ("fp16",), {"s": 32}),
        ("radix_sort", ("int16",), {"s": 32, "descending": True}),
    ],
)
def test_lowered_op_zoo_fully_synchronized(kind, dtypes, params):
    """Every program a lowered op node replays is covered: the served
    sorts' one-launch DigitSplit passes included."""
    for traced in _lowered_programs(kind, dtypes, params):
        _assert_covered(traced)


def _lowered_units(graph, fusion: str = "aggressive") -> dict:
    """unit kind -> traced kernels of ``graph`` lowered by a runner whose
    build device records the hazard audit."""
    from repro.graph import GraphRunner

    runner = GraphRunner(toy_config(), fusion=fusion)
    runner.device.audit_hazards = True
    entries, _ = runner.lower(graph)
    assert all(low.validated is not False for _, low in entries)
    return {unit.kind: low.traced for unit, low in entries}


@pytest.mark.parametrize("method", ["baseline", "quickselect", "radix"])
def test_llm_sample_units_fully_synchronized(method):
    """Every topk method, the fused prep map and the topk-fed sampler
    (cumsum and counts, no sort) are covered."""
    from repro.graph import llm_sample

    units = _lowered_units(
        llm_sample(3000, k=8, method=method, s=32, prep=("abs", "double"))
    )
    assert set(units) == {"fused_elementwise", "topk", "top_p_sample"}
    assert len(units["top_p_sample"]) == 3
    for programs in units.values():
        for traced in programs:
            _assert_covered(traced)


def test_multi_fn_fused_elementwise_fully_synchronized():
    from repro.graph import Graph

    g = Graph(name="chain")
    edge = g.add_input("x", "fp16", (3000,))
    for i, fn in enumerate(("abs", "double", "negate", "relu")):
        (edge,) = g.add_node(f"m{i}", "elementwise", [edge], {"fn": fn})
    g.set_outputs([edge])
    (traced,) = _lowered_units(g, "conservative")["fused_elementwise"]
    _assert_covered(traced)


def _fused_scan_programs(algorithm: str) -> list:
    from repro.graph import scan_pipeline

    graph = scan_pipeline(
        3000, pre=("abs", "negate"), post=("double",), algorithm=algorithm, s=32
    )
    return _lowered_units(graph)["fused_scan"]


@pytest.mark.parametrize("algorithm", ["mcscan", "scanu", "scanul1"])
def test_fused_scan_region_fully_synchronized(algorithm):
    """The pre map pass, the scan with its folded post maps, and (for an
    algorithm without the fold seam) the trailing map pass."""
    programs = _fused_scan_programs(algorithm)
    assert len(programs) == (2 if algorithm in ("mcscan", "scanu") else 3)
    for traced in programs:
        _assert_covered(traced)


def test_dropped_queue_edge_in_fused_kernel_is_caught():
    """Planted mutation: drop one cross-engine edge from the fused scan
    kernel; the checker must report the race it opens."""
    (traced,) = [
        t for t in _fused_scan_programs("mcscan") if "fused mcscan" in t.label
    ]
    program = traced.program
    assert check_accesses(program, traced.audit).ok
    for op in program.ops:
        for dep in program.deps_of(op.op_id):
            if program.ops[dep].engine == op.engine:
                continue
            mutated = copy.copy(program)
            mutated.op_deps = list(program.op_deps)
            mutated.op_deps[op.op_id] = tuple(
                d for d in program.deps_of(op.op_id) if d != dep
            )
            if not check_accesses(mutated, traced.audit).ok:
                return
    pytest.fail("no dropped edge of the fused kernel was reported")


def _digit_passes(audit_ctx, x: np.ndarray, descending: bool = False) -> list:
    """The traced DigitSplit launches of one 4-bit digit sort of ``x``."""
    from repro.ops import AscendOps

    ops = AscendOps(scan_context=audit_ctx)
    with audit_ctx.device.capture_launches() as captured:
        ops.radix_sort(x, s=32, descending=descending, digit_bits=4)
    assert all("digit split" in t.label for t in captured)
    return captured


@pytest.mark.parametrize(
    "dtype, descending, passes",
    [
        (np.float16, False, 4),
        (np.float16, True, 4),
        (np.uint8, False, 2),
        (np.int8, False, 2),
    ],
)
def test_digit_split_pass_fully_synchronized(audit_ctx, dtype, descending, passes):
    """One digit pass is one launch: digit one-hot, the two MCScan phases
    and the gather, a SyncAll between each."""
    rng = np.random.default_rng(5)
    x = rng.integers(-100, 100, 3000).astype(dtype)
    captured = _digit_passes(audit_ctx, x, descending)
    assert len(captured) == passes
    for traced in captured:
        assert sum(op.is_barrier for op in traced.ops) == 3
        _assert_covered(traced)


def test_digit_phase_merged_into_phase1_is_caught(audit_ctx):
    """Planted mutation: the digit one-hot and MCScan phase I run as one
    phase, without the SyncAll between them (phase I's ops lose their
    fence on it); phase I then reads flag rows other cores write, and the
    checker must report the race."""
    x = np.random.default_rng(6).integers(-100, 100, 3000).astype(np.float16)
    traced = _digit_passes(audit_ctx, x)[0]
    program = traced.program
    first, second = [op.op_id for op in program.ops if op.is_barrier][:2]
    assert check_accesses(program, traced.audit).ok
    mutated = copy.copy(program)
    mutated.op_deps = [
        tuple(d for d in deps if d != first) if first < i < second else deps
        for i, deps in enumerate(program.op_deps)
    ]
    report = check_accesses(mutated, traced.audit)
    assert not report.ok
    assert any(
        "store row" in mutated.ops[v.earlier].label for v in report.violations
    )


def test_per_bit_radix_sort_fully_synchronized(audit_ctx):
    """The paper's path: RadixSingle + SplitInd once per key bit."""
    from repro.ops import AscendOps

    ops = AscendOps(scan_context=audit_ctx)
    x = np.random.default_rng(4).integers(-9, 9, 3000).astype(np.float16)
    with audit_ctx.device.capture_launches() as captured:
        ops.radix_sort(x, s=32, digit_bits=1)
    assert sum("split bit" in t.label for t in captured) == 16
    for traced in captured:
        _assert_covered(traced)


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
