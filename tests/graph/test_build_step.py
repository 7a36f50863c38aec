"""Every captured lowering goes through one build step that refuses a
program whose outputs diverge from the oracle.

Each case plants a one-element divergence behind one caller of the
step — an op node, the topk-fed sampler, a fused map chain, a fused scan
region on a foldable and on an unfoldable algorithm — and asserts that
``GraphRunner.lower`` raises instead of admitting the program.
"""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.graph import (
    Graph,
    GraphRunner,
    interp,
    llm_sample,
    scan_pipeline,
    sort_graph,
)
from repro.graph.op import ElementwiseOp, FusedElementwiseOp, RadixSortOp, ScanOp
from repro.hw.config import toy_config


def _bumped(outputs):
    """``outputs`` with the first element of the first array moved by 1."""
    first = np.array(outputs[0], copy=True)
    first.flat[0] = first.flat[0] + 1
    return (first, *outputs[1:])


def _plant_classmethod(monkeypatch, cls, name):
    real = getattr(cls, name)
    monkeypatch.setattr(
        cls, name, classmethod(lambda _cls, *a: _bumped(real(*a)))
    )


def _plant_presorted_sampler(monkeypatch):
    real = interp._presorted_top_p
    monkeypatch.setattr(
        interp, "_presorted_top_p", lambda *a: _bumped(real(*a))
    )


def _chain(n=1024):
    g = Graph(name="chain")
    edge = g.add_input("x", "fp16", (n,))
    for i, fn in enumerate(("abs", "double")):
        (edge,) = g.add_node(f"m{i}", "elementwise", [edge], {"fn": fn})
    g.set_outputs([edge])
    g.validate()
    return g


def _pipeline(algorithm):
    return scan_pipeline(
        1024, pre=("abs",), post=("double",), algorithm=algorithm, s=16
    )


#: caller -> (graph, fusion mode, planting function)
CASES = {
    "elementwise-node": (
        _chain, "off",
        lambda mp: _plant_classmethod(mp, ElementwiseOp, "device_run"),
    ),
    "radix-sort-node": (
        lambda: sort_graph(512, s=16), "off",
        lambda mp: _plant_classmethod(mp, RadixSortOp, "device_run"),
    ),
    "topk-fed-sampler": (
        lambda: llm_sample(512, k=16, s=16), "conservative",
        _plant_presorted_sampler,
    ),
    "fused-map-chain": (
        _chain, "conservative",
        lambda mp: _plant_classmethod(mp, FusedElementwiseOp, "device_run"),
    ),
    "fused-scan-foldable": (
        lambda: _pipeline("scanu"), "aggressive",
        lambda mp: _plant_classmethod(mp, ScanOp, "oracle"),
    ),
    "fused-scan-unfoldable": (
        lambda: _pipeline("lookback"), "aggressive",
        lambda mp: _plant_classmethod(mp, ScanOp, "oracle"),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_unplanted_lowering_is_validated(case):
    make, fusion, _ = CASES[case]
    entries, built = GraphRunner(toy_config(), fusion=fusion).lower(make())
    assert built
    assert all(low.validated in (True, None) for _, low in entries)
    assert any(low.validated is True for _, low in entries)


@pytest.mark.parametrize("case", sorted(CASES))
def test_planted_divergence_is_refused(monkeypatch, case):
    make, fusion, plant = CASES[case]
    plant(monkeypatch)
    runner = GraphRunner(toy_config(), fusion=fusion)
    with pytest.raises(KernelError, match="validation failed"):
        runner.lower(make())


@pytest.mark.parametrize("case", sorted(CASES))
def test_unvalidated_runner_admits_without_checking(monkeypatch, case):
    make, fusion, plant = CASES[case]
    plant(monkeypatch)
    runner = GraphRunner(toy_config(), fusion=fusion, validate=False)
    entries, _ = runner.lower(make())
    assert all(low.validated is None for _, low in entries)


def test_empty_capture_is_refused(monkeypatch):
    monkeypatch.setattr(
        ElementwiseOp, "device_run",
        classmethod(lambda cls, ops, inputs, params: (inputs[0],)),
    )
    runner = GraphRunner(toy_config(), fusion="off")
    with pytest.raises(KernelError, match="captured no device launches"):
        runner.lower(_chain())
