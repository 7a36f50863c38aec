"""Compiled host numerics against the graph oracle.

A served graph request's numerics are its graph's compiled
:func:`~repro.graph.numerics.host_numerics`: 8/16-bit map chains as one
table lookup, a chain feeding a scan folded into the scan's widening
table, a ``topk``-fed sampler without its re-sort.  These tests pin

* every table against its callable chain on all bit patterns, compared
  as bytes so ±0 and every NaN payload count;
* the compiled numerics bit for bit against ``Graph.run_oracle`` on the
  canned graphs, the op zoo and adversarial inputs (±0, NaN, ±inf, dtype
  extremes, ties, fp16 overflow under ``double``), with and without
  runtime parameter overrides;
* that the differential check fails on three planted mutations: a
  non-commuting chain composed in reverse, a sampler that skips its sort
  when no ``topk`` feeds it, and a widening table built without its pre
  chain;
* that serving and ``GraphRunner.execute`` run the compiled form.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.replay import _FP16_TO_FP32
from repro.errors import ConfigError
from repro.graph import (
    ELEMENTWISE_FNS,
    Graph,
    GraphRunner,
    llm_sample,
    scan_graph,
    scan_pipeline,
    sort_graph,
)
from repro.graph import numerics
from repro.graph.numerics import HostNumerics, host_numerics, map_table, widen_table
from repro.graph.op import get_op
from repro.hw.config import toy_config
from repro.serve import ScanService

from .test_ops_differential import CASES, _case_id

FNS = tuple(sorted(ELEMENTWISE_FNS))
#: every single fn and every ordered pair
CHAINS = [(f,) for f in FNS] + list(itertools.product(FNS, repeat=2))
TABLE_DTYPES = (np.float16, np.int8, np.int16)


def _patterns(dt) -> np.ndarray:
    dt = np.dtype(dt)
    raw = np.dtype(f"u{dt.itemsize}")
    return np.arange(1 << (8 * dt.itemsize), dtype=raw).view(dt)


def _chain(x: np.ndarray, fns) -> np.ndarray:
    """The map chain as the oracle applies it, on its own terms."""
    with np.errstate(all="ignore"):
        (out,) = get_op("fused_elementwise").oracle([x], {"fns": tuple(fns)})
    return out


class TestTables:
    @pytest.mark.parametrize("dt", TABLE_DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("fns", CHAINS, ids="+".join)
    def test_map_table_equals_the_chain_on_every_pattern(self, fns, dt):
        x = _patterns(dt)
        table = map_table(fns, np.dtype(dt))
        assert table.dtype == dt
        assert table.tobytes() == _chain(x, fns).tobytes()
        assert not table.flags.writeable

    @pytest.mark.parametrize("dt", (np.float16, np.int8), ids=("fp16", "int8"))
    @pytest.mark.parametrize("fns", [()] + CHAINS, ids=lambda f: "+".join(f) or "none")
    def test_widen_table_equals_the_widened_chain(self, fns, dt):
        x = _patterns(dt)
        acc = np.float32 if dt == np.float16 else np.int32
        table = widen_table(fns, np.dtype(dt))
        assert table.dtype == acc
        assert table.tobytes() == _chain(x, fns).astype(acc).tobytes()

    def test_empty_fp16_widen_table_is_the_served_widening(self):
        assert widen_table((), np.dtype(np.float16)).tobytes() == (
            _FP16_TO_FP32.tobytes()
        )

    def test_tables_are_memoized(self):
        f16 = np.dtype(np.float16)
        assert map_table(("abs", "double"), f16) is map_table(("abs", "double"), f16)
        assert widen_table(("abs",), f16) is widen_table(("abs",), f16)


# -- differential ------------------------------------------------------------


def _outcome(fn):
    """Outputs as (dtype, shape, bytes) triples, or the error raised."""
    try:
        outs = fn()
    except (ConfigError, ValueError, IndexError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return tuple((o.dtype, o.shape, o.tobytes()) for o in outs)


def _differs(graph: Graph, feed, params=None) -> bool:
    """True when the compiled numerics of ``graph`` (compiled afresh)
    differ from ``run_oracle`` anywhere, errors included."""
    bound = graph.bind(feed)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: HostNumerics(graph)(bound, params))
        want = _outcome(lambda: graph.run_oracle(feed, params))
    return got != want


def _assert_same(graph: Graph, feed, params=None) -> None:
    bound = graph.bind(feed)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: graph.run_oracle(feed, params))
        got = _outcome(lambda: host_numerics(graph)(bound, params))
    assert got == want


def _fp16_specials(n: int, rng) -> np.ndarray:
    """±0, NaN (both signs), ±inf, the fp16 extremes and subnormals,
    values that overflow when doubled, and ties, shuffled into random
    fp16 bit patterns."""
    specials = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 65504, -65504,
         40000, -40000, 6e-8, -6e-8, 1.0, 1.0, 1.0, -2.0, -2.0],
        np.float16,
    )
    bits = rng.integers(0, 1 << 16, n).astype(np.uint16).view(np.float16)
    out = bits.copy()
    out[: specials.size] = specials
    return rng.permutation(out)


def _int_specials(dt, n: int, rng) -> np.ndarray:
    info = np.iinfo(dt)
    specials = np.array([info.min, info.max, 0, -1, 1, info.min, 0], dt)
    out = rng.integers(info.min, info.max + 1, n).astype(dt)
    out[: specials.size] = specials
    return rng.permutation(out)


def _chain_graph(dtype: str, n: int, chains) -> Graph:
    """Chains of maps hung off one input: the first chain's tail is a
    graph output and feeds the next chain too, so it is cut there."""
    g = Graph(name="chains")
    edge = g.add_input("x", dtype, (n,))
    outs = []
    for c, fns in enumerate(chains):
        for i, fn in enumerate(fns):
            (edge,) = g.add_node(f"c{c}m{i}", "elementwise", [edge], {"fn": fn})
        outs.append(edge)
    g.set_outputs(outs)
    g.validate()
    return g


def _forked_graph(n: int) -> Graph:
    """A map whose output has two consumers (a map chain and a scan
    pipeline), a wide chain after the scan, and an int8 pre chain."""
    g = Graph(name="forked")
    x = g.add_input("x", "fp16", (n,))
    q = g.add_input("q", "int8", (n,))
    (a,) = g.add_node("a", "elementwise", [x], {"fn": "negate"})
    (b,) = g.add_node("b", "elementwise", [a], {"fn": "relu"})
    (c,) = g.add_node("c", "fused_elementwise", [a], {"fns": ("abs", "double")})
    (s,) = g.add_node("s", "scan", [c], {"exclusive": True})
    (d,) = g.add_node("d", "elementwise", [s], {"fn": "negate"})
    (e,) = g.add_node("e", "elementwise", [d], {"fn": "relu"})
    (qa,) = g.add_node("qa", "elementwise", [q], {"fn": "negate"})
    (qb,) = g.add_node("qb", "elementwise", [qa], {"fn": "double"})
    (qs,) = g.add_node("qs", "scan", [qb], {})
    (qd,) = g.add_node("qd", "elementwise", [qs], {"fn": "double"})
    g.set_outputs([b, e, qd])
    g.validate()
    return g


def _unsorted_sampler(n: int) -> Graph:
    """A sampler fed by graph inputs: no topk, so it must sort."""
    g = Graph(name="sampler")
    probs = g.add_input("probs", "fp16", (n,))
    ids = g.add_input("ids", "int32", (n,))
    (tok,) = g.add_node("t", "top_p_sample", [probs, ids], {"p": 0.8, "theta": 0.4})
    g.set_outputs([tok])
    g.validate()
    return g


def _topk_values_with_foreign_ids(n: int, k: int) -> Graph:
    """topk's values, but ids from elsewhere: still sorted by value, so
    the sampler's sort is the identity — yet the predicate keeps it."""
    g = Graph(name="foreign_ids")
    probs = g.add_input("probs", "fp16", (n,))
    ids = g.add_input("ids", "int32", (k,))
    vals, _ = g.add_node("tk", "topk", [probs], {"k": k})
    (tok,) = g.add_node("t", "top_p_sample", [vals, ids], {"p": 0.9})
    g.set_outputs([tok])
    g.validate()
    return g


N = 300


def _canned():
    """(graph, feed builder, params) cases on the canned graphs."""
    def probs(rng, n):
        return (rng.permutation(n) + 1).astype(np.float16)

    def ints(rng, n, dtype="fp16"):
        dt = np.float16 if dtype == "fp16" else np.int8
        return rng.integers(-3, 4, n).astype(dt)

    yield (
        llm_sample(N, k=32, prep=("abs", "double")),
        lambda rng: {"probs": probs(rng, N)},
        {"sample": {"theta": 0.7}},
    )
    yield llm_sample(N, k=8), lambda rng: {"probs": probs(rng, N)}, None
    for desc in (False, True):
        yield (
            sort_graph(N, descending=desc),
            lambda rng: {"x": rng.integers(-50, 50, N).astype(np.float16)},
            None,
        )
    yield (
        sort_graph(N, dtype="uint8"),
        lambda rng: {"x": rng.integers(0, 256, N).astype(np.uint8)},
        None,
    )
    for dtype in ("fp16", "int8"):
        yield scan_graph(N, dtype=dtype), lambda rng, d=dtype: {"x": ints(rng, N, d)}, None
        for pre, post, exclusive in (
            (("abs",), ("double",), False),
            (("negate", "relu"), ("relu", "negate"), True),
            ((), ("double",), False),
            (("double",), (), True),
        ):
            yield (
                scan_pipeline(N, dtype=dtype, pre=pre, post=post, exclusive=exclusive),
                lambda rng, d=dtype: {"x": ints(rng, N, d)},
                None,
            )


CANNED = list(_canned())


@pytest.mark.parametrize("case", range(len(CANNED)))
def test_canned_graphs_match_the_oracle(case):
    graph, feed, params = CANNED[case]
    rng = np.random.default_rng(case)
    for _ in range(3):
        _assert_same(graph, feed(rng), params)


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_op_zoo_matches_the_oracle(case):
    """Every one-node graph of the lowered op zoo, on its validation
    inputs and on random bit patterns of its input dtypes."""
    kind, params, specs = case
    op = get_op(kind)
    g = Graph(name=f"solo_{kind}")
    edges = [
        g.add_input(f"in{i}", spec.dtype, spec.shape)
        for i, spec in enumerate(specs)
    ]
    g.set_outputs(list(g.add_node("op", kind, edges, params)))
    inputs = op.validation_inputs(specs, op.resolve_params(params))
    _assert_same(g, {f"in{i}": x for i, x in enumerate(inputs)})
    rng = np.random.default_rng(7)
    noisy = []
    for x in inputs:
        raw = rng.integers(0, 256, x.nbytes, dtype=np.uint8)
        noisy.append(raw.view(x.dtype) if x.dtype.itemsize <= 2 else x)
    if kind in ("split", "compress"):
        noisy[1] = inputs[1]  # flags stay 0/1
    _assert_same(g, {f"in{i}": x for i, x in enumerate(noisy)})


class TestAdversarialInputs:
    @pytest.mark.parametrize(
        "chains",
        [
            [("double",), ("double", "negate")],
            [("negate", "relu"), ("relu", "negate")],
            [("abs", "double", "relu"), ("negate",)],
        ],
        ids=lambda c: "|".join("+".join(f) for f in c),
    )
    @pytest.mark.parametrize("dtype", ["fp16", "int8", "int16", "fp32", "int32"])
    def test_map_chains(self, dtype, chains):
        rng = np.random.default_rng(1)
        g = _chain_graph(dtype, N, chains)
        if dtype == "fp16":
            x = _fp16_specials(N, rng)
        elif dtype == "fp32":
            with np.errstate(all="ignore"):  # inf * 1e34, nan * 1e34
                x = _fp16_specials(N, rng).astype(np.float32) * np.float32(1e34)
        else:
            x = _int_specials(np.dtype(dtype), N, rng)
        _assert_same(g, {"x": x})

    def test_forked_graph(self):
        rng = np.random.default_rng(2)
        g = _forked_graph(N)
        feed = {
            "x": _fp16_specials(N, rng),
            "q": _int_specials(np.dtype(np.int8), N, rng),
        }
        _assert_same(g, feed)
        # finite data, where the scans carry real values
        feed["x"] = rng.integers(-40000, 40000, N).astype(np.float16)
        _assert_same(g, feed)

    @pytest.mark.parametrize("k", [1, 7, 8])
    def test_llm_sample_on_ties_zeros_and_nan(self, k):
        x = np.array([0.0, 3.0, -0.0, np.nan, 3.0, 0.0, -0.0, 2.0], np.float16)
        for prep in ((), ("abs",), ("negate", "double")):
            g = llm_sample(x.size, k=k, p=0.9, theta=0.5, prep=prep)
            for theta in (0.0, 0.3, 0.99):
                _assert_same(g, {"probs": x}, {"sample": {"theta": theta}})

    def test_llm_sample_overflow_and_inf(self):
        """``double`` overflows fp16 to inf, and the sampler refuses an
        infinite total the same way on both paths."""
        rng = np.random.default_rng(3)
        g = llm_sample(64, k=16, prep=("abs", "double"))
        x = (rng.permutation(64) + 1).astype(np.float16)
        x[5] = 40000
        _assert_same(g, {"probs": x})
        with np.errstate(all="ignore"):
            assert _outcome(lambda: g.run_oracle({"probs": x}))[0] == "raised"

    def test_unsorted_samplers(self):
        rng = np.random.default_rng(4)
        g = _unsorted_sampler(N)
        g2 = _topk_values_with_foreign_ids(N, 16)
        for _ in range(5):
            probs = (1 + rng.integers(0, 9, N)).astype(np.float16)
            ids = rng.permutation(N).astype(np.int32)
            _assert_same(g, {"probs": probs, "ids": ids})
            _assert_same(g2, {"probs": probs, "ids": ids[:16]})

    def test_overrides_reach_folded_and_tabled_nodes(self):
        """A runtime override of a chain member's fn or of the scan's
        exclusivity changes the compiled step as it changes the oracle."""
        rng = np.random.default_rng(5)
        g = scan_pipeline(N, pre=("abs", "double"), post=("negate",))
        x = rng.integers(-3, 4, N).astype(np.float16)
        for params in (
            None,
            {"pre0": {"fn": "negate"}},
            {"scan": {"exclusive": True}},
            {"pre1": {"fn": "relu"}, "post0": {"fn": "abs"}},
        ):
            _assert_same(g, {"x": x}, params)
        c = _chain_graph("fp16", N, [("abs", "double")])
        _assert_same(c, {"x": x}, {"c0m1": {"fn": "negate"}})
        with pytest.raises(ConfigError, match="unknown parameter"):
            host_numerics(g)(g.bind({"x": x}), {"scan": {"bogus": 1}})


# -- planted mutations ---------------------------------------------------------


class TestPlantedMutations:
    """Each mutation must make the differential check fail; the graphs
    are built afresh so nothing compiled before the plant is reused."""

    def test_chain_composed_in_reverse(self, monkeypatch):
        g = _chain_graph("fp16", N, [("negate", "relu")])
        x = np.random.default_rng(6).integers(-3, 4, N).astype(np.float16)
        assert not _differs(g, {"x": x})
        real = numerics.map_table
        monkeypatch.setattr(
            numerics, "map_table", lambda fns, dt: real(fns[::-1], dt)
        )
        assert _differs(g, {"x": x})

    def test_sampler_skips_its_sort_without_topk(self, monkeypatch):
        g = _unsorted_sampler(N)
        rng = np.random.default_rng(7)
        feed = {
            "probs": (1 + rng.integers(0, 9, N)).astype(np.float16),
            "ids": np.arange(N, dtype=np.int32),
        }
        assert not _differs(g, feed)
        monkeypatch.setattr(
            numerics, "sorted_by_topk", lambda node, producers: node.kind == "top_p_sample"
        )
        assert _differs(g, feed)

    def test_widening_table_without_its_pre_chain(self, monkeypatch):
        g = scan_pipeline(N, pre=("abs",), post=("double",))
        x = np.random.default_rng(8).integers(-3, 4, N).astype(np.float16)
        assert not _differs(g, {"x": x})
        real = numerics.widen_table
        monkeypatch.setattr(numerics, "widen_table", lambda fns, dt: real((), dt))
        assert _differs(g, {"x": x})


# -- where the compiled numerics run -----------------------------------------


def _spy(monkeypatch) -> list:
    calls = []
    real = HostNumerics.__call__

    def spy(self, inputs, params_override=None):
        calls.append(self)
        return real(self, inputs, params_override)

    monkeypatch.setattr(HostNumerics, "__call__", spy)
    return calls


def test_compiled_once_per_graph_and_served(monkeypatch):
    svc = ScanService(config=toy_config(), graph_fusion="aggressive")
    g = scan_pipeline(N, pre=("abs",), post=("double",), s=16)
    compiled = host_numerics(g)
    calls = _spy(monkeypatch)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x = rng.integers(-3, 4, N).astype(np.float16)
        t = svc.submit_graph(g, {"x": x})
        svc.flush()
        (want,) = g.run_oracle({"x": x})
        assert t.result()[0].tobytes() == want.tobytes()
    assert calls == [compiled] * 3
    # a mutation drops the compiled numerics with the rest of the memo
    g.set_outputs(list(g.outputs))
    assert host_numerics(g) is not compiled


@pytest.mark.parametrize("fusion", ["off", "aggressive"])
def test_execute_serves_the_compiled_numerics(monkeypatch, fusion):
    runner = GraphRunner(toy_config(), fusion=fusion)
    g = llm_sample(96, k=8, p=0.75, s=16, prep=("abs", "double"))
    probs = (np.random.default_rng(10).permutation(96) + 1).astype(np.float16)
    calls = _spy(monkeypatch)
    res = runner.execute(g, {"probs": probs}, params_override={"sample": {"theta": 0.3}})
    assert calls == [host_numerics(g)]
    want = g.run_oracle({"probs": probs}, {"sample": {"theta": 0.3}})
    assert all(a.tobytes() == b.tobytes() for a, b in zip(res.outputs, want))
