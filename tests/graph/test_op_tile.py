"""Op-internal scan tiles sized to the input (``core/api.py::op_scan_tile``).

A ``split``, ``compress``, ``radix_sort`` or ``top_p_sample`` node whose
``s`` is None lowers at the tile the rule sizes to its input: the ``s``
with the shortest phase-II row chain on the busiest vector lane.  These
tests pin the rule's picks on the 910B4, check that an explicit ``s=128``
still lowers to the programs it lowered to before the rule, and sweep
each op over a range of sizes to show the picked tile is never slower
than 128.
"""

from __future__ import annotations

import pytest

from repro.core.api import op_scan_tile
from repro.graph import Graph, GraphRunner, llm_sample, sort_graph
from repro.graph.fuse import lowering_units
from repro.graph.op import top_p_scan_length
from repro.hw.config import ASCEND_910B4


@pytest.fixture(scope="module")
def runner():
    # one runner serves the sweep: lowering order moves a timeline by
    # ~10 ns at most, far below the gaps the sweep compares
    return GraphRunner(ASCEND_910B4, fusion="off")


def _one_node(kind: str, inputs, params) -> Graph:
    g = Graph(name=kind)
    edges = [g.add_input(f"in{i}", dt, (n,)) for i, (dt, n) in enumerate(inputs)]
    g.set_outputs(list(g.add_node("node", kind, edges, params)))
    g.validate()
    return g


def _unit(runner, graph, kind):
    """The lowered unit of ``kind`` in ``graph`` and its LoweredNode."""
    (entry,) = [e for e in runner.lower(graph)[0] if e[0].kind == kind]
    return entry


def _sort_tile(n: int, dtype: str) -> int:
    ((sort, _),) = lowering_units(sort_graph(n, dtype=dtype), "off", ASCEND_910B4)
    return sort.params["s"]


def _check_picks() -> None:
    for dtype in ("fp16", "uint8"):
        assert _sort_tile(4096, dtype) == 64
        # 32 tiles of 64^2 fit the 40 vector lanes (on 20 they would tie
        # with 128)
        assert _sort_tile(8192, dtype) == 64
        assert _sort_tile(32768, dtype) == 128
    # the canned graphs carry the resolved tile in their lowering keys
    units = {
        u.kind: (u, key)
        for u, key in lowering_units(
            llm_sample(2048, k=32, prep=("abs", "double")),
            "aggressive",
            ASCEND_910B4,
        )
    }
    # the topk-fed top-p cumsum over k=32 probabilities: one 16 x 16 tile,
    # not the 16,384 elements an s=128 tile pads 32 to
    sample, key = units["top_p_sample"]
    assert sample.params["s"] == 16 and ("s", 16) in key[1][1]
    assert top_p_scan_length(32, 16, True) == 256
    assert top_p_scan_length(32, 128, True) == 16384
    # topk keeps its fixed tile (see TopKOp)
    assert units["topk"][0].params["s"] == 128
    ((sort, key),) = lowering_units(sort_graph(4096), "off", ASCEND_910B4)
    assert ("s", 64) in key[1][1]


def test_rule_picks():
    _check_picks()


def test_a_fixed_rule_fails_the_pick_check(monkeypatch):
    """A rule that always answers 128, planted where the runner reads
    it, fails the pick check."""
    import repro.graph.fuse as fuse_module

    monkeypatch.setattr(fuse_module, "op_scan_tile", lambda config, length: 128)
    with pytest.raises(AssertionError):
        _check_picks()


def test_ties_go_to_the_larger_tile():
    # one tile at every s: the chain is s itself
    assert op_scan_tile(ASCEND_910B4, lambda s: s * s) == 16
    # a 4,096-key sort's 65,536 digit flags: 16 tiles of 64^2 or 64 of
    # 32^2 on 40 lanes both chain 64 rows, and the tie goes to 64
    assert op_scan_tile(ASCEND_910B4, lambda s: 65536) == 64
    # two rounds of 64^2 tiles per lane chain 128 rows, as one 128^2 does
    lanes = ASCEND_910B4.num_vector_cores
    assert op_scan_tile(ASCEND_910B4, lambda s: 2 * lanes * 64 * 64) == 128


def test_explicit_s_and_resolved_s_share_a_program(runner):
    resolved_unit, resolved = _unit(runner, sort_graph(4096), "radix_sort")
    explicit_unit, explicit = _unit(runner, sort_graph(4096, s=64), "radix_sort")
    assert resolved_unit.params == explicit_unit.params
    assert explicit is resolved


#: per launch: (label, traced op count, device ns) of each explicit-s=128
#: lowering below, as lowered before the tile rule existed
_PINNED_128 = {
    "sort-fp16": [
        ("digit split shift 0", 214, 16783.60638274463),
        ("digit split shift 4", 242, 17079.41588075618),
        ("digit split shift 8", 242, 17079.0457398534),
        ("digit split shift 12", 222, 17084.030416666672),
    ],
    "sort-uint8": [
        ("digit split shift 0", 234, 16434.615258890888),
        ("digit split shift 4", 216, 16749.07283494792),
    ],
    "top_p_sample-fed": [
        ("top-p cumsum (MCScan)", 15, 11161.158047385623),
        ("top-p count le 1336", 6, 3085.6336805555557),
        ("top-p count lt 678", 6, 3085.6336805555557),
    ],
    "split": [("SplitInd(s=128)", 65, 16002.563803104578)],
    "compress": [("Compress(s=128)", 26, 13519.9866503268)],
}


def _explicit_128(name: str):
    if name == "sort-fp16":
        return sort_graph(4096, s=128), "radix_sort"
    if name == "sort-uint8":
        return sort_graph(4096, dtype="uint8", s=128), "radix_sort"
    if name == "top_p_sample-fed":
        graph = llm_sample(2048, k=32, s=128, prep=("abs", "double"))
        return graph, "top_p_sample"
    graph = _one_node(name, [("fp16", 4096), ("int8", 4096)], {"s": 128})
    return graph, name


@pytest.mark.parametrize("name", sorted(_PINNED_128))
def test_explicit_s128_lowers_as_before(name):
    # a fresh runner: a split or compress lowered first moves the next
    # sort's first digit pass by ~10 ns
    runner = GraphRunner(ASCEND_910B4, fusion="aggressive")
    graph, kind = _explicit_128(name)
    _, low = _unit(runner, graph, kind)
    got = [
        (t.label, len(t.program.ops), runner.device.time_traced(t))
        for t in low.traced
    ]
    assert [g[:2] for g in got] == [p[:2] for p in _PINNED_128[name]]
    assert [g[2] for g in got] == pytest.approx(
        [p[2] for p in _PINNED_128[name]], rel=1e-12
    )


_SWEEP_N = (512, 1024, 2048, 4096, 8192, 16384)
_SWEEP = [
    *[
        pytest.param("radix_sort", ((dt, n),), {}, id=f"radix_sort-{dt}-{n}")
        for dt in ("fp16", "uint8")
        for n in _SWEEP_N
    ],
    *[
        pytest.param(kind, (("fp16", n), ("int8", n)), {}, id=f"{kind}-{n}")
        for kind in ("split", "compress")
        for n in _SWEEP_N
    ],
    # the sampler that sorts its own input, and the topk-fed one that
    # only runs the cumsum
    *[
        pytest.param(
            "top_p_sample",
            (("fp16", n), ("int32", n)),
            {"p": 0.9},
            id=f"top_p_sample-{n}",
        )
        for n in (32, 2048)
    ],
    *[pytest.param("top_p_fed", n, {}, id=f"top_p_fed-{n}") for n in (32, 2048)],
]


def _sweep_graph(kind, inputs, params, s):
    if kind == "top_p_fed":
        return llm_sample(inputs, k=inputs, s=s), "top_p_sample"
    return _one_node(kind, inputs, {**params, "s": s}), kind


@pytest.mark.parametrize("kind, inputs, params", _SWEEP)
def test_resolved_tile_is_never_slower_than_128(runner, kind, inputs, params):
    graph, op_kind = _sweep_graph(kind, inputs, params, None)
    unit, low = _unit(runner, graph, op_kind)
    graph, _ = _sweep_graph(kind, inputs, params, 128)
    _, fixed = _unit(runner, graph, op_kind)
    if unit.params["s"] == 128:
        assert low is fixed
    assert low.device_ns(runner.device) <= fixed.device_ns(runner.device)
