"""Traced programs stay byte-identical.

Each program below is traced on a fresh ``toy_config()`` device and
reduced to one SHA-256 digest covering, per op, its kind, engine, sorted
effective deps, cycles, GM bytes, effective bytes, latency and L2-hit
bytes; the memoized timeline's ``total_ns``; and the functional GM output
bytes.  The committed digests in ``trace_fingerprints.json`` pin every
simulator speed-up to the exact op streams and outputs it replaced: a
change that alters a single cost, dependency edge or output bit fails
here.

Regenerate (only for a deliberate change to the traced programs, with the
reason recorded in the change log)::

    PYTHONPATH=src python tests/hw/test_trace_fingerprint.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.api import ScanContext
from repro.graph import Graph, GraphRunner, llm_sample, scan_pipeline
from repro.hw.config import toy_config
from repro.ops.driver import AscendOps

DIGESTS = pathlib.Path(__file__).with_name("trace_fingerprints.json")


def _digest(device, traced_kernels, outputs) -> str:
    h = hashlib.sha256()
    for traced in traced_kernels:
        program = traced.program
        for op in program.ops:
            deps = sorted(program.deps_of(op.op_id))
            h.update(
                repr(
                    (
                        op.kind, op.engine, deps, op.cycles, op.gm_bytes,
                        op.eff_bytes, op.latency_ns, op.l2_hit_bytes,
                    )
                ).encode()
            )
        h.update(repr(device.replay(traced).timeline.total_ns).encode())
    for arr in outputs:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _plan(algorithm: str, dtype: str) -> str:
    ctx = ScanContext(toy_config())
    plan = ctx.build_plan(algorithm=algorithm, n=5000, dtype=dtype, s=32)
    return _digest(ctx.device, [plan.traced], [plan.y_gm.to_numpy()])


def _fold_phase(k: int) -> str:
    """Phase I or II of a device-carry MCScan plan (the sharded scan's
    folded carry path); the output holds the planted carry."""
    ctx = ScanContext(toy_config())
    plan = ctx.build_plan(
        algorithm="mcscan", n=5000, dtype="fp16", s=32, device_carry=True
    )
    return _digest(ctx.device, [plan.phases[k]], [plan.y_gm.to_numpy()])


def _batched() -> str:
    ctx = ScanContext(toy_config())
    plan = ctx.build_batched_plan(
        algorithm="scanu", batch=3, row_len=2000, dtype="int8", s=32
    )
    return _digest(ctx.device, [plan.traced], [plan.y_gm.to_numpy()])


def _op(name: str) -> str:
    ops = AscendOps(ScanContext(toy_config()))
    rng = np.random.default_rng(15)
    n = 3000
    # 8-bit values; each operator's flag scan runs as int8 cube Mmads
    x = rng.integers(0, 256, n).astype(np.uint8)
    flags = (rng.random(n) < 0.4).astype(np.int8)
    with ops.device.capture_launches() as captured:
        if name == "split":
            res = ops.split(x, flags, s=32)
        elif name == "compress":
            res = ops.compress(x, flags, s=32)
        else:
            res = ops.radix_sort(x, s=32)
    outputs = [res.values] + ([] if res.indices is None else [res.indices])
    return _digest(ops.device, list(captured), outputs)


def _map_chain() -> Graph:
    g = Graph(name="chain")
    edge = g.add_input("x", "fp16", (5000,))
    for i, fn in enumerate(("abs", "double", "negate")):
        (edge,) = g.add_node(f"m{i}", "elementwise", [edge], {"fn": fn})
    g.set_outputs([edge])
    g.validate()
    return g


def _lowered(graph: Graph, fusion: str) -> str:
    """Every unit of ``graph`` as a fresh runner lowers it: the captured
    programs plus each unit's kind, launches, validation, tuning and
    member weights."""
    runner = GraphRunner(toy_config(), fusion=fusion)
    entries, _ = runner.lower(graph)
    traced = [t for _, low in entries for t in low.traced]
    meta = [
        (low.kind, low.launches, low.validated, low.tuned, low.members)
        for _, low in entries
    ]
    digest = _digest(runner.device, traced, [])
    return hashlib.sha256(f"{digest}{meta!r}".encode()).hexdigest()


GRAPHS = {
    "graph-elementwise-fp16": lambda: _lowered(_map_chain(), "off"),
    "graph-fused-map-fp16": lambda: _lowered(_map_chain(), "conservative"),
    **{
        f"graph-fused-scan-{algorithm}-{dtype}": (
            lambda a=algorithm, d=dtype: _lowered(
                scan_pipeline(
                    5000, dtype=d, pre=("abs", "double"), post=("negate",),
                    algorithm=a, s=32,
                ),
                "aggressive",
            )
        )
        for algorithm, dtype in (("scanu", "fp16"), ("lookback", "int8"))
    },
    "graph-topk-sampler-fp16": lambda: _lowered(
        llm_sample(2048, k=32, s=16), "conservative"
    ),
}


PROGRAMS = {
    **{
        f"{algorithm}-{dtype}": (lambda a=algorithm, d=dtype: _plan(a, d))
        for algorithm in ("mcscan", "scanu", "scanul1")
        for dtype in ("fp16", "int8")
    },
    **{
        f"mcscan-fold-phase{k + 1}-fp16": (lambda k=k: _fold_phase(k))
        for k in range(2)
    },
    "batched-scanu-int8": _batched,
    **{
        f"{name}-uint8": (lambda n=name: _op(n))
        for name in ("split", "compress", "radix_sort")
    },
    **GRAPHS,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_traced_program_fingerprint(name):
    pinned = json.loads(DIGESTS.read_text())
    assert PROGRAMS[name]() == pinned[name]


def test_every_program_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(PROGRAMS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_trace_fingerprint.py --write")
    digests = {name: PROGRAMS[name]() for name in sorted(PROGRAMS)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
