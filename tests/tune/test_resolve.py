"""One answer to "which plan serves this scan": every serving path
resolves through :func:`repro.tune.resolve_candidate`."""

import numpy as np
import pytest

from repro.core.api import ScanPlan
from repro.core.reference import exclusive_scan, inclusive_scan
from repro.errors import KernelError
from repro.graph import Graph, GraphRunner
from repro.hw.config import toy_config
from repro.hw.device import AscendDevice
from repro.serve import ScanService
from repro.shard import DevicePool, PoolScanService, ShardedScanner
from repro.tune import (
    TunedEntry,
    TuneStore,
    WorkloadKey,
    default_candidate,
    warm_service,
)

N = 1000

SERVICES = {
    "service": lambda: ScanService(config=toy_config()),
    "pool": lambda: PoolScanService(2, config=toy_config()),
}


def _x(n, dtype="fp16", seed=0):
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, n)
    return values.astype(np.float16 if dtype == "fp16" else np.int8)


def _store(algorithm="mcscan", s=16, n=N, dtype="fp16"):
    store = TuneStore(toy_config())
    store.record(
        f"1d:{n}:{dtype}:i",
        TunedEntry(
            algorithm=algorithm, s=s, block_dim=None, layout="1d",
            tuned_ns=1.0, default_ns=2.0,
        ),
    )
    return store


def _scan_graph(n, dtype, params):
    g = Graph(name="scan")
    g.add_input("x", dtype, (n,))
    g.add_node("sc", "scan", ["x"], params)
    g.set_outputs(["sc.values"])
    return g


def _lowered_plan(runner, n, dtype, params):
    """The plan-cache key of a lowered scan node's plan, and whether its
    configuration came from the store."""
    entries, _ = runner.lower(_scan_graph(n, dtype, params))
    ((_, low),) = entries
    (key,) = (k for k, plan in runner.plans._plans.items() if plan is low.plan)
    return key, low.tuned


def _config(thing):
    return thing.algorithm, thing.s, thing.block_dim


class TestExclusiveRequests:
    @pytest.mark.parametrize("kind", sorted(SERVICES))
    def test_mixed_flush_serves_every_request(self, kind):
        """An exclusive request with no algorithm is served by MCScan, and
        one flush serves it and the requests around it."""
        svc = SERVICES[kind]()
        a, b, c = _x(N, seed=1), _x(N, seed=2), _x(N, seed=3)
        ta = svc.submit(a)
        tb = svc.submit(b, exclusive=True)
        tc = svc.submit(c)
        svc.flush()
        assert tb.algorithm == "mcscan"
        for ticket, want in (
            (ta, inclusive_scan(a)),
            (tb, exclusive_scan(b)),
            (tc, inclusive_scan(c)),
        ):
            assert ticket.done and np.array_equal(ticket.values, want)

    @pytest.mark.parametrize("kind", sorted(SERVICES))
    def test_explicit_non_mcscan_exclusive_is_refused_at_submit(self, kind):
        svc = SERVICES[kind]()
        with pytest.raises(KernelError, match="exclusive"):
            svc.submit(_x(N), algorithm="scanu", exclusive=True)
        assert svc._next_id == 0 and svc.pending == 0
        ticket = svc.scan(_x(N))
        assert ticket.req_id == 0 and ticket.done


class TestOneAnswerWithoutAStore:
    @pytest.mark.parametrize("exclusive", [False, True])
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_every_path_agrees(self, dtype, exclusive):
        workload = WorkloadKey("1d", N, dtype, exclusive)
        want = _config(default_candidate(workload))

        svc = ScanService(config=toy_config())
        ticket = svc.submit(_x(N, dtype), exclusive=exclusive)
        assert (_config(ticket), ticket.tuned) == (want, False)

        runner = GraphRunner(toy_config())
        key, tuned = _lowered_plan(
            runner, N, dtype, {"exclusive": exclusive}
        )
        assert (_config(key), tuned) == (want, False)

        warmed = ScanService(config=toy_config())
        assert warm_service(warmed, [workload]) == 1
        (key,) = warmed.cache._plans
        assert (key.algorithm, key.s, key.block_dim) == want
        assert (key.exclusive, key.batch) == (exclusive, None)

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_batched_warm_up_builds_the_default(self, dtype):
        workload = WorkloadKey("batched", 300, dtype, batch=4)
        svc = ScanService(config=toy_config())
        assert warm_service(svc, [workload]) == 1
        (key,) = svc.cache._plans
        want = default_candidate(workload)
        assert (key.algorithm, key.s, key.batch) == (want.algorithm, want.s, 4)


class TestWithAStore:
    def test_graph_skips_a_vector_entry(self):
        store = _store("vector", s=0)
        runner = GraphRunner(toy_config(), tune_store=store)
        key, tuned = _lowered_plan(runner, N, "fp16", {})
        assert not tuned
        assert _config(key) == ("scanu", 128, None)
        assert store.lookup_hits == 1

    def test_explicit_fields_bypass_the_store_on_submit(self):
        store = _store()
        svc = ScanService(config=toy_config(), tune_store=store)
        by_s = svc.submit(_x(N), s=32)
        by_algorithm = svc.submit(_x(N), algorithm="mcscan")
        assert (_config(by_s), by_s.tuned) == (("scanu", 32, None), False)
        assert (_config(by_algorithm), by_algorithm.tuned) == (
            ("mcscan", 128, None), False
        )
        assert store.lookup_hits == store.lookup_misses == 0
        tuned = svc.submit(_x(N))
        assert (_config(tuned), tuned.tuned) == (("mcscan", 16, None), True)
        svc.flush()

    def test_explicit_fields_bypass_the_store_on_the_graph_path(self):
        """A scan node that sets ``s`` but not ``algorithm`` keeps its
        ``s``; a store entry does not replace it."""
        store = _store()
        runner = GraphRunner(toy_config(), tune_store=store)
        key, tuned = _lowered_plan(runner, N, "fp16", {"s": 32})
        assert (_config(key), tuned) == (("scanu", 32, None), False)
        key, tuned = _lowered_plan(runner, N, "fp16", {"algorithm": "mcscan"})
        assert (_config(key), tuned) == (("mcscan", 128, None), False)
        assert store.lookup_hits == store.lookup_misses == 0
        key, tuned = _lowered_plan(runner, N, "fp16", {})
        assert (_config(key), tuned) == (("mcscan", 16, None), True)

    def test_cold_scanner_never_builds_a_non_mcscan_entry(
        self, monkeypatch, rng
    ):
        """A tuned ScanUL1 entry is ignored before anything is built: one
        MCScan plan is traced, none released."""
        traced, released = [], []
        trace_kernel, release = AscendDevice.trace_kernel, ScanPlan.release

        def counting_trace(self, kernel, **kw):
            traced.append(type(kernel).__name__)
            return trace_kernel(self, kernel, **kw)

        def counting_release(self):
            released.append(self.algorithm)
            return release(self)

        monkeypatch.setattr(AscendDevice, "trace_kernel", counting_trace)
        monkeypatch.setattr(ScanPlan, "release", counting_release)
        store = _store("scanul1", n=4096)
        scanner = ShardedScanner(
            DevicePool(1, toy_config(), tune_store=store), s=16, tuned=True
        )
        x = rng.integers(-2, 3, 4096).astype(np.float16)
        result = scanner.scan(x)
        assert np.array_equal(result.values, inclusive_scan(x))
        assert traced == ["MCScanKernel"] and released == []
        assert not result.shards[0].tuned
        assert store.lookup_misses == 0 and store.lookup_hits == 1

