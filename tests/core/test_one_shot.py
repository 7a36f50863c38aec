"""One-shot scans are scratch plans.

``ScanContext.scan``, ``scan_strategy`` and ``batched_scan`` trace through
the same per-layout tracer as ``build_plan`` / ``build_batched_plan``, so
the paper figures (one-shot) time exactly the program the service (plans)
launches.  These tests pin that: the same op stream and the same
end-to-end time for every servable algorithm, the kernel's own output
(not the served cumsum) from the one-shot path, and constants that
survive the one-shot's scratch mark.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.api import (
    BATCHED_ALGORITHMS,
    SCAN_ALGORITHMS,
    SCAN_STRATEGIES,
    ScanContext,
)
from repro.core.mcscan import MCScanKernel
from repro.core.replay import plan_compute
from repro.errors import ConfigError
from repro.hw.config import toy_config
from repro.hw.datatypes import as_dtype
from repro.tune import Candidate, WorkloadKey, evaluate_candidate

S = 32
#: one partial tile and several tiles: both sides of s * s
SIZES = (700, 5000)
NP_DTYPES = {"fp16": np.float16, "int8": np.int8}


def _program_digest(device, traced) -> str:
    """The per-op fields and timeline total that
    ``tests/hw/test_trace_fingerprint.py`` hashes, without the outputs."""
    h = hashlib.sha256()
    program = traced.program
    for op in program.ops:
        h.update(
            repr(
                (
                    op.kind, op.engine, sorted(program.deps_of(op.op_id)),
                    op.cycles, op.gm_bytes, op.eff_bytes, op.latency_ns,
                    op.l2_hit_bytes,
                )
            ).encode()
        )
    h.update(repr(device.time_traced(traced)).encode())
    return h.hexdigest()


def _input(shape, dtype: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(-3, 4, shape).astype(NP_DTYPES[dtype])


def _one_shot(call, x, **kw):
    """Run a one-shot call on a fresh toy device; returns the result and
    the one program it launched."""
    ctx = ScanContext(toy_config())
    with ctx.device.capture_launches() as captured:
        res = getattr(ctx, call)(x, s=S, **kw)
    (traced,) = captured
    return ctx, res, traced


CASES_1D = [
    ("scan", {"algorithm": a}, a, False) for a in SCAN_ALGORITHMS
] + [
    ("scan_strategy", {"strategy": a}, a, False)
    for a in SCAN_STRATEGIES if a != "mcscan"
] + [("scan", {"algorithm": "mcscan", "exclusive": True}, "mcscan", True)]


@pytest.mark.parametrize("dtype", sorted(NP_DTYPES))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "call,kw,algorithm,exclusive", CASES_1D, ids=[f"{c[0]}-{c[2]}" for c in CASES_1D]
)
def test_one_shot_1d_emits_the_plan_program(call, kw, algorithm, exclusive, n, dtype):
    ctx, res, traced = _one_shot(call, _input(n, dtype), **kw)
    plan_ctx = ScanContext(toy_config())
    plan = plan_ctx.build_plan(
        algorithm=algorithm, n=n, dtype=dtype, s=S, exclusive=exclusive
    )
    assert _program_digest(ctx.device, traced) == _program_digest(
        plan_ctx.device, plan.traced
    )
    assert res.time_ns == plan.time_ns()


@pytest.mark.parametrize("dtype", sorted(NP_DTYPES))
@pytest.mark.parametrize("row_len", SIZES)
@pytest.mark.parametrize("algorithm", BATCHED_ALGORITHMS)
def test_one_shot_batched_emits_the_plan_program(algorithm, row_len, dtype):
    ctx, res, traced = _one_shot(
        "batched_scan", _input((3, row_len), dtype), algorithm=algorithm
    )
    plan_ctx = ScanContext(toy_config())
    plan = plan_ctx.build_batched_plan(
        algorithm=algorithm, batch=3, row_len=row_len, dtype=dtype, s=S
    )
    assert _program_digest(ctx.device, traced) == _program_digest(
        plan_ctx.device, plan.traced
    )
    assert res.time_ns == plan.time_ns()


def test_one_shot_returns_the_kernel_output_not_the_cumsum():
    """On inexact fp16 data the kernel's summation order differs from the
    served sequential cumsum; the one-shot path must return the former,
    bit for bit what a hand-launched MCScan kernel writes."""
    n = 20000
    x = np.random.default_rng(3).standard_normal(n).astype(np.float16)
    res = ScanContext(toy_config()).scan(x, algorithm="mcscan", s=S)

    ctx = ScanContext(toy_config())
    dt = as_dtype("fp16")
    consts = ctx.constants(S, dt)
    padded = -(-n // (S * S)) * (S * S)
    x_gm = ctx.device.alloc("x", (padded,), dt)
    y_gm = ctx.device.alloc("y", (padded,), "fp32")
    bd = ctx.config.num_ai_cores
    r_gm = ctx.device.alloc("r", (bd * ctx.config.vector_cores_per_ai_core,), "fp32")
    buf = np.zeros(padded, np.float16)
    buf[:n] = x
    x_gm.write(buf)
    ctx.device.launch(MCScanKernel(x_gm, y_gm, r_gm, consts, S, bd))
    kernel = y_gm.to_numpy()[:n]

    served = plan_compute(buf, "mcscan", dt)[:n]
    assert np.array_equal(res.values, kernel)
    assert not np.array_equal(res.values, served)
    np.testing.assert_allclose(res.values, served, rtol=1e-4, atol=1e-3)


def _constants_live(ctx: ScanContext) -> bool:
    live = {id(t) for t in ctx.device.memory.tensors}
    return all(
        id(t) in live
        for c in ctx._consts.values()
        for t in (c.u, c.strict_lower, c.ones)
    )


def _allocator(ctx: ScanContext) -> tuple:
    mem = ctx.device.memory
    return mem.used_bytes, mem._next_addr, list(mem._holes)


@pytest.mark.parametrize(
    "run, uploads",
    [
        (lambda ctx: ctx.scan(_input(5000, "fp16"), algorithm="mcscan", s=16), True),
        (lambda ctx: ctx.scan_strategy(_input(5000, "int8"), strategy="ssa", s=16), True),
        (lambda ctx: ctx.batched_scan(_input((3, 700), "fp16"), s=16), True),
        (
            lambda ctx: evaluate_candidate(
                ctx, WorkloadKey("1d", 5000, "fp16"), Candidate("mcscan", 16)
            ),
            True,
        ),
        (
            lambda ctx: evaluate_candidate(
                ctx,
                WorkloadKey("batched", 700, "int8", batch=3),
                Candidate("scanu", 16, None, "batched"),
            ),
            True,
        ),
        (
            lambda ctx: evaluate_candidate(
                ctx, WorkloadKey("1d", 5000, "fp16"), Candidate("vector", 0)
            ),
            False,
        ),
    ],
    ids=[
        "scan", "scan_strategy", "batched_scan",
        "tune-1d", "tune-batched", "tune-vector",
    ],
)
def test_constants_uploaded_by_a_scratch_trace_stay_live(run, uploads):
    """A new ``s`` uploads constants during the call; the scratch mark
    (one-shots) or the scratch plan's release (tuner) must not free them
    while the context still caches them, and must free everything else
    the call allocated: the allocator's used bytes, frontier and hole
    list come back to where the call started."""
    ctx = ScanContext(toy_config())
    run(ctx)
    consts = {
        id(t) for c in ctx._consts.values() for t in (c.u, c.strict_lower, c.ones)
    }
    assert bool(consts) == uploads and _constants_live(ctx)
    assert {id(t) for t in ctx.device.memory.tensors} == consts
    before = _allocator(ctx)
    used, frontier, holes = before
    assert used == frontier and holes == []
    run(ctx)
    assert _constants_live(ctx)
    assert _allocator(ctx) == before


@pytest.mark.parametrize("algorithm", SCAN_STRATEGIES)
def test_refused_build_leaves_only_the_constants_live(algorithm):
    """A multi-core build whose ``block_dim`` is out of range raises
    after allocating the plan's input and output; it must free them, so
    only the context's cached constants stay live."""
    ctx = ScanContext(toy_config())
    with pytest.raises(ConfigError, match="block_dim=999 out of range"):
        ctx.build_plan(
            algorithm=algorithm, n=5000, dtype="fp16", s=16, block_dim=999
        )
    consts = {
        id(t) for c in ctx._consts.values() for t in (c.u, c.strict_lower, c.ones)
    }
    assert consts and {id(t) for t in ctx.device.memory.tensors} == consts
    used, frontier, holes = _allocator(ctx)
    assert used == frontier and holes == []
