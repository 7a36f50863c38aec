"""Graph analysis memo and the per-kernel replay loop.

The memo is computed once per graph structure, dropped by every mutator,
never aliased to callers, and untouched by steady-state serving; the
replay loop relaunches only a faulted kernel and keeps per-launch
accounting exact; a lowered node's cost probe reads its kernels'
memoized timelines and never reschedules."""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.fuse as fuse
import repro.hw.device as device_mod
from repro.errors import ConfigError, DeviceFault
from repro.graph import Graph, GraphRunner, llm_sample, oracle_outputs, scan_pipeline
from repro.graph.op import TensorSpec
from repro.hw import FaultPlan
from repro.hw.config import toy_config
from repro.serve import RetryPolicy, ScanService

S = 16
N = 256


def _pipeline() -> Graph:
    g = Graph(name="pipe")
    x = g.add_input("x", "fp16", (N,))
    (a,) = g.add_node("a", "elementwise", [x], {"fn": "abs"})
    (b,) = g.add_node("b", "elementwise", [a], {"fn": "double"})
    g.set_outputs([b])
    return g


def _x(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, N).astype(np.float16)


def _serve(svc, graph, inputs, params=None):
    ticket = svc.submit_graph(graph, inputs, params=params)
    svc.flush()
    want = oracle_outputs(graph, inputs, params)
    got = ticket.result()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return ticket


def _counted(fn, calls: list):
    """``fn``, appending its name to ``calls`` on every call."""

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


class TestInvalidation:
    def test_add_node_changes_signature_and_relowers(self):
        svc = ScanService(config=toy_config())
        g = _pipeline()
        _serve(svc, g, {"x": _x()})
        before = g.signature()
        misses = svc.graph_runner.cache.misses
        (c,) = g.add_node("c", "elementwise", ["b.values"], {"fn": "negate"})
        g.set_outputs([c])
        assert g.signature() != before
        _serve(svc, g, {"x": _x(1)})
        assert svc.graph_runner.cache.misses > misses

    def test_set_outputs_changes_signature_and_relowers(self):
        svc = ScanService(config=toy_config())
        g = _pipeline()
        _serve(svc, g, {"x": _x()})
        before = g.signature()
        (region,) = svc.graph_runner.lower(g)[0]
        assert region[0].kind == "fused_elementwise"
        misses = svc.graph_runner.cache.misses
        # exposing the intermediate edge pins it in GM: the chain can no
        # longer fuse, so the graph lowers to two programs
        g.set_outputs(["a.values", "b.values"])
        assert g.signature() != before
        _serve(svc, g, {"x": _x(1)})
        assert svc.graph_runner.cache.misses > misses
        units = [u.kind for u, _ in svc.graph_runner.lower(g)[0]]
        assert units == ["elementwise", "elementwise"]

    def test_add_input_drops_the_memo(self):
        svc = ScanService(config=toy_config())
        g = _pipeline()
        _serve(svc, g, {"x": _x()})
        before = g.signature()
        assert "y" not in g.infer()
        # an input nothing reads changes no lowered program, but the
        # analysis must see it at once: binding now requires it
        g.add_input("y", "fp16", (N,))
        assert "y" in g.infer()
        with pytest.raises(ConfigError, match="missing"):
            svc.submit_graph(g, {"x": _x()})
        # reading it does change the program
        (c,) = g.add_node("c", "elementwise", ["y"], {"fn": "abs"})
        g.set_outputs(["b.values", c])
        assert g.signature() != before
        misses = svc.graph_runner.cache.misses
        _serve(svc, g, {"x": _x(1), "y": _x(2)})
        assert svc.graph_runner.cache.misses >= misses

    def test_invalidating_mutation_raises_at_every_submit(self):
        svc = ScanService(config=toy_config())
        g = _pipeline()
        _serve(svc, g, {"x": _x()})
        g.add_node("bad", "elementwise", ["ghost"], {"fn": "abs"})
        for _ in range(2):  # a failed analysis is never cached
            with pytest.raises(ConfigError, match="ghost"):
                svc.submit_graph(g, {"x": _x()})

    def test_type_error_after_serve_raises_at_submit(self):
        svc = ScanService(config=toy_config())
        g = _pipeline()
        _serve(svc, g, {"x": _x()})
        g.add_input("w", "fp32", (N,))
        (y,) = g.add_node("y", "scan", ["w"], {"s": S})  # scan rejects fp32
        g.set_outputs(["b.values", y])
        with pytest.raises(ConfigError, match="'y'"):
            svc.submit_graph(g, {"x": _x(), "w": np.zeros(N, np.float32)})


class TestSteadyState:
    def test_warm_serving_skips_toposort_and_fusion(self, monkeypatch):
        svc = ScanService(config=toy_config(), graph_fusion="aggressive")
        pipe = scan_pipeline(N, pre=("abs",), post=("double",), s=S)
        llm = llm_sample(96, k=8, p=0.75, s=S, prep=("abs", "double"))
        rng = np.random.default_rng(5)

        def probs():
            return (rng.permutation(96) + 1).astype(np.float16)

        _serve(svc, pipe, {"x": _x()})
        _serve(svc, llm, {"probs": probs()})
        calls: list = []
        monkeypatch.setattr(Graph, "toposort", _counted(Graph.toposort, calls))
        monkeypatch.setattr(fuse, "fuse_graph", _counted(fuse.fuse_graph, calls))
        for i in range(3):
            _serve(svc, pipe, {"x": _x(i)})
            _serve(
                svc, llm, {"probs": probs()}, {"sample": {"theta": 0.25}}
            )
        assert calls == []
        # a mutation re-runs the analysis on the next lowering
        pipe.set_outputs(list(pipe.outputs))
        _serve(svc, pipe, {"x": _x()})
        assert calls == ["fuse_graph", "toposort"]


class TestNoAliasing:
    def test_caller_results_cannot_change_the_memo(self):
        g = _pipeline()
        sig = g.signature()
        specs = g.validate()
        want = dict(specs)
        specs["b.values"] = TensorSpec("int8", (1,))
        specs.clear()
        inferred = g.infer()
        inferred["a.values"] = TensorSpec("int8", (1,))
        order = g.toposort()
        order.clear()
        assert g.validate() == want
        assert g.infer() == want
        assert [n.name for n in g.toposort()] == ["a", "b"]
        assert g.signature() == sig
        x = _x()
        (got,) = g.run_oracle({"x": x})
        assert np.array_equal(got, (np.abs(x) * 2).astype(np.float16))


class TestReplayAccounting:
    def test_timeline_hit_recorded_per_launch(self):
        svc = ScanService(config=toy_config())
        g = _pipeline()
        _serve(svc, g, {"x": _x()})
        assert svc.stats.launches[-1].timeline_hit
        for _, low in svc.graph_runner.lower(g)[0]:
            for kernel in low.traced:
                kernel.invalidate_timeline()
        _serve(svc, g, {"x": _x(1)})
        assert not svc.stats.launches[-1].timeline_hit
        _serve(svc, g, {"x": _x(2)})
        assert svc.stats.launches[-1].timeline_hit


class _FireAt:
    """Schedule-controller stand-in: only launch attempt ``at`` faults."""

    def __init__(self, at: int):
        self.at = at
        self.attempts = 0

    def chance(self, name: str, p: float) -> bool:
        self.attempts += 1
        return self.attempts - 1 == self.at


class TestKernelRetry:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_one_fault_relaunches_only_its_kernel(self, position):
        config = toy_config()
        svc = ScanService(
            config=config,
            graph_fusion="aggressive",
            retry=RetryPolicy(max_attempts=3),
        )
        graph = llm_sample(96, k=8, p=0.75, s=S, prep=("abs", "double"))
        rng = np.random.default_rng(11)
        inputs = [
            {"probs": (rng.permutation(96) + 1).astype(np.float16)}
            for _ in range(2)
        ]
        clean = _serve(svc, graph, inputs[0])
        entries, _ = svc.graph_runner.lower(graph)
        assert any(low.members for _, low in entries)  # a fused region
        kernels = [tk for _, low in entries for tk in low.traced]
        assert clean.launches == len(kernels) > 2
        j = {"first": 0, "middle": len(kernels) // 2, "last": len(kernels) - 1}[
            position
        ]

        device = svc.ctx.device
        plan = FaultPlan(controller=_FireAt(j))
        device.fault_plan = plan
        attempted = []
        replay = device.replay

        def recording_replay(kernel, **kwargs):
            attempted.append(kernel)
            return replay(kernel, **kwargs)

        device.replay = recording_replay
        ticket = _serve(svc, graph, inputs[1])

        assert ticket.retries == 1 and ticket.faults == 1
        assert ticket.launches == clean.launches
        assert plan.transient_faults == 1
        assert attempted == kernels[: j + 1] + kernels[j:]
        backoff = svc.retry.backoff_for(0, config.costs.relaunch_backoff_ns)
        assert ticket.device_ns == clean.device_ns + backoff
        assert svc.stats.launches[-1].backoff_ns == backoff

    def test_exhausted_kernel_retries_requeue_the_request(self):
        svc = ScanService(
            config=toy_config(), retry=RetryPolicy(max_attempts=2)
        )
        g = _pipeline()
        _serve(svc, g, {"x": _x()})

        class _Always(_FireAt):
            def chance(self, name, p):
                return True

        svc.ctx.device.fault_plan = FaultPlan(controller=_Always(0))
        ticket = svc.submit_graph(g, {"x": _x(1)})
        with pytest.raises(DeviceFault) as info:
            svc.flush()
        assert info.value.attempts == 2
        assert not ticket.done and svc.pending == 1
        svc.ctx.device.fault_plan = None
        svc.flush()
        assert ticket.done


class TestCostProbe:
    def test_device_ns_serves_memoized_timelines(self, monkeypatch):
        runner = GraphRunner(toy_config(), fusion="aggressive")
        g = scan_pipeline(N, pre=("abs",), post=("double",), s=S)
        ((_, low),) = runner.lower(g)[0]
        assert low.members  # one fused region
        misses = [t.timeline_misses for t in low.traced]
        calls = []
        monkeypatch.setattr(
            device_mod, "simulate", _counted(device_mod.simulate, calls)
        )
        first = low.device_ns(runner.device)
        assert low.device_ns(runner.device) == first
        assert [t.timeline_misses for t in low.traced] == misses
        assert calls == []
