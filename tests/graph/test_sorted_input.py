"""A ``top_p_sample`` fed straight by ``topk`` lowers without its sort.

``topk`` returns its values in descending order, and a stable descending
sort of a non-increasing sequence is the identity, so the sampler's
radix sort is dropped from such a unit's program.  The rule is
structural (:func:`repro.graph.fuse.sorted_by_topk`): any other
producer keeps the sort.  Served numerics stay the graph oracle; only
the lowered program gets shorter.  Every build also starts from a cold
L2, so a lowered timeline does not depend on build order."""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.interp as interp
from repro.errors import KernelError
from repro.graph import (
    FUSION_MODES,
    Graph,
    GraphRunner,
    llm_sample,
    scan_pipeline,
    sort_graph,
)
from repro.graph.fuse import SORTED_INPUT, lowering_units
from repro.graph.interp import top_p_device_sample
from repro.graph.op import get_op
from repro.hw.config import ASCEND_910B4, toy_config

S = 16
VOCAB, K = 300, 32
#: a sorting top_p_sample: 4 digit passes, then the cumsum and two counts
SORTING_LAUNCHES = 7


@pytest.fixture(scope="module")
def runner() -> GraphRunner:
    return GraphRunner(toy_config())


def _sample_unit(runner, graph):
    """The lowered ``top_p_sample`` unit of ``graph`` and its cache key."""
    (key,) = [
        k for u, k in lowering_units(graph, runner.fusion, runner.config)
        if u.kind == "top_p_sample"
    ]
    (low,) = [low for u, low in runner.lower(graph)[0] if u.kind == "top_p_sample"]
    return low, key


@pytest.mark.parametrize("method", ["baseline", "quickselect", "radix"])
def test_sorted_token_equals_full_sort_token_and_oracle(runner, method):
    graph = llm_sample(VOCAB, k=K, method=method, s=S)
    topk = get_op("topk")
    params = graph.nodes[0].params
    rng = np.random.default_rng(3)
    for p, theta in ((0.9, 0.5), (0.5, 0.05), (1.0, 0.99), (0.2, 0.7)):
        probs = (rng.permutation(VOCAB) + 1).astype(np.float16)
        values, indices = topk.device_run(runner.ops, [probs], params)
        sorted_tok = top_p_device_sample(
            runner.ops, values, indices, p=p, theta=theta, s=S, presorted=True
        )
        full_tok = top_p_device_sample(
            runner.ops, values, indices, p=p, theta=theta, s=S
        )
        want = graph.run_oracle(
            {"probs": probs}, {"sample": {"p": p, "theta": theta}}
        )[0]
        assert sorted_tok.dtype == full_tok.dtype == want.dtype
        assert np.array_equal(sorted_tok, full_tok)
        assert np.array_equal(sorted_tok, want)


def test_sorted_token_equals_full_sort_token_on_ties(runner):
    """On tied values the stable re-sort keeps topk's own order, so the
    sampler that sorts picks the same id as the one that does not."""
    rng = np.random.default_rng(5)
    values = np.sort(1 + rng.integers(0, 6, K))[::-1].astype(np.float16)
    ids = rng.permutation(VOCAB)[:K].astype(np.int32)
    for theta in np.linspace(0.0, 0.95, 9):
        args = dict(p=0.8, theta=float(theta), s=S)
        assert np.array_equal(
            top_p_device_sample(runner.ops, values, ids, presorted=True, **args),
            top_p_device_sample(runner.ops, values, ids, **args),
        )


@pytest.mark.parametrize("fusion", FUSION_MODES)
def test_llm_sample_unit_drops_the_sort_in_every_mode(fusion):
    """llm_sample lowers to 5 launches: the fused prep map, topk, the
    cumsum and two counts (one more under ``off``: the prep is unfused)."""
    runner = GraphRunner(toy_config(), fusion=fusion)
    graph = llm_sample(VOCAB, k=K, s=S, prep=("abs", "double"))
    low, key = _sample_unit(runner, graph)
    assert key[-1] == SORTED_INPUT
    assert low.kind == "top_p_sample" and low.validated is True
    labels = [t.label for t in low.traced]
    assert len(labels) == 3  # the MCScan cumsum and two counts
    assert not any("digit" in lb or "split" in lb for lb in labels)
    entries, _ = runner.lower(graph)
    maps = 1 if fusion == "off" else 0  # the unfused second prep map
    assert sum(l.launches for _, l in entries) == 5 + maps


def _sampler_graph(wire) -> Graph:
    """A graph with two topk nodes and a map; ``wire(edges)`` picks the
    sampler's (probs, ids) edges."""
    g = Graph(name="wired")
    a = g.add_input("a", "fp16", (VOCAB,))
    b = g.add_input("b", "fp16", (VOCAB,))
    ids = g.add_input("ids", "int32", (K,))
    t1 = g.add_node("t1", "topk", [a], {"k": K, "s": S})
    t2 = g.add_node("t2", "topk", [b], {"k": K, "s": S})
    (m,) = g.add_node("m", "elementwise", [t1[0]], {"fn": "abs"})
    edges = {"t1": t1, "t2": t2, "map": m, "ids": ids}
    (token,) = g.add_node(
        "sample", "top_p_sample", list(wire(edges)), {"p": 0.9, "s": S}
    )
    g.set_outputs([token])
    g.validate()
    return g


@pytest.mark.parametrize(
    "wire",
    [
        pytest.param(lambda e: (e["t1"][0], e["ids"]), id="ids-from-input"),
        pytest.param(lambda e: (e["t1"][0], e["t2"][1]), id="ids-from-other-topk"),
        pytest.param(lambda e: (e["t2"][0], e["t1"][1]), id="probs-from-other-topk"),
        pytest.param(lambda e: (e["map"], e["t1"][1]), id="map-in-between"),
    ],
)
def test_other_producers_keep_the_sort(runner, wire):
    low, key = _sample_unit(runner, _sampler_graph(wire))
    assert key[-1] != SORTED_INPUT
    assert low.launches == SORTING_LAUNCHES
    assert sum("digit split" in t.label for t in low.traced) == 4


def test_direct_wiring_in_the_same_graph_drops_it(runner):
    low, key = _sample_unit(runner, _sampler_graph(lambda e: e["t1"]))
    assert key[-1] == SORTED_INPUT
    assert low.launches == 3


def test_standalone_sampler_does_not_share_the_sorted_program(runner):
    """Equal shapes, different producers: two programs, two keys."""
    llm = llm_sample(VOCAB, k=K, s=S)
    sorted_low, sorted_key = _sample_unit(runner, llm)
    solo = Graph(name="solo")
    probs = solo.add_input("probs", "fp16", (K,))
    ids = solo.add_input("ids", "int32", (K,))
    solo.set_outputs(
        list(solo.add_node("t", "top_p_sample", [probs, ids], {"p": 0.9, "s": S}))
    )
    solo_low, solo_key = _sample_unit(runner, solo)
    assert solo_key == sorted_key[:-1]
    assert solo_low is not sorted_low
    assert (sorted_low.launches, solo_low.launches) == (3, SORTING_LAUNCHES)
    assert llm.signature() != solo.signature()


def test_unsorted_validation_input_is_caught(monkeypatch):
    """Planted mutation: hand the sorted lowering its validation recipe
    unsorted; the bit-exact check against the oracle must refuse it."""
    monkeypatch.setattr(
        interp, "stable_order", lambda x, descending: np.arange(x.size)
    )
    runner = GraphRunner(toy_config())
    with pytest.raises(KernelError, match="top_p_sample"):
        runner.lower(llm_sample(VOCAB, k=K, s=S))


def test_lowering_order_does_not_move_timelines():
    """Each build starts from a cold L2: llm_sample lowered first and
    lowered after scan_pipeline and sort_graph time identically."""
    llm = llm_sample(1664, k=32, prep=("abs", "double"))

    def timelines(before):
        runner = GraphRunner(ASCEND_910B4, fusion="aggressive")
        for graph in before:
            runner.lower(graph)
        entries, _ = runner.lower(llm)
        return [
            runner.device.time_traced(t) for _, low in entries for t in low.traced
        ]

    first = timelines(())
    assert first == timelines((scan_pipeline(16384), sort_graph(4096)))
