"""Every registered op, interpreter vs oracle, across dtype x size.

Two layers of differential:

* **device vs oracle** — each op's real device lowering, run on
  exactness-conditioned validation inputs, must match its NumPy oracle
  bit for bit (this is also what :class:`GraphRunner` enforces at
  lowering time — a divergence raises KernelError there).
* **interpreter vs oracle** — executing a one-node graph through the
  runner returns exactly ``Graph.run_oracle``'s bits (``execute`` runs
  the served numerics, the graph's compiled host numerics, so the check
  pins them against the oracle).

Sizes cover a sub-tile length (40 < s*s = 256), an exact tile (256) and
a non-divisible length (300) at the toy device's s=16.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import ScanContext
from repro.errors import ConfigError
from repro.graph import OP_REGISTRY, Graph, GraphRunner
from repro.graph.op import SERVED_DIGIT_BITS, TensorSpec, get_op
from repro.hw.config import toy_config
from repro.ops import AscendOps

S = 16
SIZES = (40, 256, 300)  # sub-tile, exact tile, non-divisible


@pytest.fixture(scope="module")
def runner() -> GraphRunner:
    return GraphRunner(toy_config())


@pytest.fixture(scope="module")
def ops() -> AscendOps:
    return AscendOps(scan_context=ScanContext(toy_config()))


def _cases():
    """(kind, params, input specs) across the op zoo's dtype matrix."""
    for n in SIZES:
        for dtype in ("fp16", "int8"):
            for exclusive in (False, True):
                algorithm = "mcscan" if exclusive else "scanu"
                yield (
                    "scan",
                    {"algorithm": algorithm, "s": S, "exclusive": exclusive},
                    [TensorSpec(dtype, (n,))],
                )
        for dtype in ("fp16", "int8", "int16", "fp32", "int32"):
            yield ("elementwise", {"fn": "relu"}, [TensorSpec(dtype, (n,))])
        yield ("elementwise", {"fn": "negate"}, [TensorSpec("fp16", (n,))])
        yield (
            "fused_elementwise",
            {"fns": ("abs", "double", "negate")},
            [TensorSpec("fp16", (n,))],
        )
        for dtype in ("fp16", "uint8", "int16", "uint16"):
            pair = [TensorSpec(dtype, (n,)), TensorSpec("int8", (n,))]
            yield ("split", {"s": S}, pair)
            yield ("compress", {"s": S}, pair)
            for descending in (False, True):
                yield (
                    "radix_sort",
                    {"s": S, "descending": descending},
                    [TensorSpec(dtype, (n,))],
                )
        for method in ("baseline", "quickselect", "radix"):
            yield (
                "topk",
                {"k": 8, "s": S, "method": method},
                [TensorSpec("fp16", (n,))],
            )
        yield ("topk", {"k": n, "s": S}, [TensorSpec("fp16", (n,))])
        yield (
            "top_p_sample",
            {"p": 0.8, "theta": 0.3, "s": S},
            [TensorSpec("fp16", (n,)), TensorSpec("int32", (n,))],
        )


def _case_id(case):
    kind, params, specs = case
    label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    shapes = "/".join(f"{s.dtype}{s.n}" for s in specs)
    return f"{kind}[{shapes}]({label})"


CASES = list(_cases())


def test_cases_cover_every_registered_op():
    # test modules may register test-only ops; the zoo is the package's
    zoo = {
        kind for kind, cls in OP_REGISTRY.items()
        if cls.__module__.startswith("repro.")
    }
    assert {kind for kind, _params, _specs in CASES} == zoo


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_device_run_matches_oracle(case, ops):
    """The op's device lowering is bit-exact against its NumPy oracle on
    exactness-conditioned inputs."""
    kind, params, specs = case
    op = get_op(kind)
    params = op.resolve_params(params)
    inputs = op.validation_inputs(specs, params)
    got = op.device_run(ops, inputs, params)
    want = op.oracle(inputs, params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_interpreter_matches_graph_oracle(case, runner):
    """A one-node graph executes (lower + replay + served numerics) to
    exactly the graph oracle's bits."""
    kind, params, specs = case
    op = get_op(kind)
    feed_arrays = op.validation_inputs(specs, op.resolve_params(params))
    g = Graph(name=f"solo_{kind}")
    edges = [
        g.add_input(f"in{i}", spec.dtype, spec.shape)
        for i, spec in enumerate(specs)
    ]
    out = g.add_node("op", kind, edges, params)
    g.set_outputs(list(out))
    feed = {f"in{i}": arr for i, arr in enumerate(feed_arrays)}
    res = runner.execute(g, feed)
    want = g.run_oracle(feed)
    assert len(res.outputs) == len(want)
    for got, exp in zip(res.outputs, want):
        assert got.dtype == exp.dtype
        assert np.array_equal(got, exp)
    assert res.launches >= 1
    assert res.time_ns > 0


@pytest.mark.parametrize(
    "kind, dtype, params, passes, launches",
    [
        # one launch per digit pass: keys are encoded in UB
        ("radix_sort", "fp16", {"descending": False}, 4, 4),
        # descending inverts the keys in UB too
        ("radix_sort", "fp16", {"descending": True}, 4, 4),
        # 8-bit keys: 2 digit passes
        ("radix_sort", "uint8", {"descending": False}, 2, 2),
        # the descending sort, the MCScan cumsum and two counts
        ("top_p_sample", "fp16", {"p": 0.8, "theta": 0.3}, 4, 7),
    ],
)
def test_sorts_lower_to_validated_digit_passes(
    runner, kind, dtype, params, passes, launches
):
    """Served sorts run SERVED_DIGIT_BITS-bit digit splits, validated
    bit-exactly against the stable_order oracle at lowering."""
    assert SERVED_DIGIT_BITS == 4
    specs = [TensorSpec(dtype, (300,))]
    if kind == "top_p_sample":
        specs.append(TensorSpec("int32", (300,)))
    g = Graph(name=f"digit_{kind}")
    edges = [
        g.add_input(f"in{i}", spec.dtype, spec.shape)
        for i, spec in enumerate(specs)
    ]
    out = g.add_node("op", kind, edges, {"s": S, **params})
    g.set_outputs(list(out))
    ((_, low),) = runner.lower(g)[0]
    assert low.validated is True
    assert low.launches == launches
    labels = [t.label for t in low.traced]
    assert sum("digit split" in lb for lb in labels) == passes
    assert not any("split bit" in lb for lb in labels)


def test_lowering_is_memoized_per_shape_class(runner):
    """Same (op, shape class) lowers once; a second graph reuses it."""

    def sort_graph(n):
        g = Graph(name=f"sort{n}")
        g.add_input("x", "fp16", (n,))
        g.add_node("r", "radix_sort", ["x"], {"s": S})
        g.set_outputs(["r.values", "r.indices"])
        return g

    misses_before = runner.cache.misses
    _, built_first = runner.lower(sort_graph(64))
    _, built_again = runner.lower(sort_graph(64))
    assert built_first or runner.cache.misses == misses_before
    assert not built_again
    hits_before = runner.cache.hits
    runner.lower(sort_graph(64))
    assert runner.cache.hits > hits_before


def test_runtime_params_reuse_one_top_p_program(runner):
    """p/theta are runtime-only for top_p_sample: different values hit
    the same cached program and still sample per the oracle."""
    n = 64

    def sampler(p, theta):
        g = Graph(name="s")
        g.add_input("probs", "fp16", (n,))
        g.add_input("ids", "int32", (n,))
        g.add_node(
            "t",
            "top_p_sample",
            ["probs", "ids"],
            {"p": p, "theta": theta, "s": S},
        )
        g.set_outputs(["t.token"])
        return g

    rng = np.random.default_rng(9)
    probs = (1 + rng.integers(0, 97, n)).astype(np.float16)
    ids = np.arange(n, dtype=np.int32)
    feed = {"probs": probs, "ids": ids}

    runner.lower(sampler(0.9, 0.1))
    misses_before = runner.cache.misses
    tokens = set()
    for p, theta in ((0.9, 0.1), (0.5, 0.7), (0.8, 0.99 - 0.5)):
        g = sampler(p, theta)
        res = runner.execute(g, feed)
        assert np.array_equal(res.outputs[0], g.run_oracle(feed)[0])
        tokens.add(int(res.outputs[0][0]))
    assert runner.cache.misses == misses_before  # one program served all
    assert len(tokens) > 1  # the runtime params actually steer the draw


def test_scan_node_respects_tune_store():
    """An algorithm-less scan node resolves through the TuneStore and the
    lowered node is flagged tuned."""
    from repro.tune import TunedEntry, TuneStore

    config = toy_config()
    n = 1024
    store = TuneStore(config)
    store.record(
        f"1d:{n}:fp16:i",
        TunedEntry(
            algorithm="mcscan",
            s=S,
            block_dim=None,
            layout="1d",
            tuned_ns=1.0,
            default_ns=2.0,
        ),
    )
    g = Graph(name="tuned")
    g.add_input("x", "fp16", (n,))
    g.add_node("sc", "scan", ["x"], {})
    g.set_outputs(["sc.values"])

    tuned_runner = GraphRunner(config, tune_store=store)
    entries, _ = tuned_runner.lower(g)
    assert entries[0][1].tuned
    x = np.random.default_rng(4).integers(-2, 3, n).astype(np.float16)
    res = tuned_runner.execute(g, {"x": x})
    assert np.array_equal(res.outputs[0], g.run_oracle({"x": x})[0])


def test_multi_node_pipeline_end_to_end(runner):
    """abs -> scan -> (values) pipeline: dtype flows fp16 -> fp32 and the
    composition matches composing the oracles by hand."""
    n = 300
    g = Graph(name="pipe")
    g.add_input("x", "fp16", (n,))
    (a,) = g.add_node("a", "elementwise", ["x"], {"fn": "abs"})
    (b,) = g.add_node("b", "scan", [a], {"s": S})
    g.set_outputs([b])
    rng = np.random.default_rng(21)
    x = rng.integers(-3, 4, n).astype(np.float16)
    res = runner.execute(g, {"x": x})
    from repro.core.reference import inclusive_scan

    want = inclusive_scan(np.abs(x))
    assert res.outputs[0].dtype == want.dtype
    assert np.array_equal(res.outputs[0], want)


@pytest.mark.parametrize(
    "row",
    [[np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0], [-1.0, -2.0, -3.0]],
    ids=["nan", "inf", "all-negative"],
)
def test_top_p_oracle_refuses_non_finite_or_non_positive_mass(row):
    """A NaN total compares False against 0, so only an explicit
    finiteness check refuses it (and an inf total would pick token 0)."""
    probs = np.asarray(row, dtype=np.float16)
    ids = np.arange(probs.size, dtype=np.int32)
    with pytest.raises(ConfigError, match="finite positive"):
        get_op("top_p_sample").oracle([probs, ids], {"p": 0.9, "theta": 0.5})
