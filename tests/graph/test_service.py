"""Graph requests through the serving stack: batching, chaos, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reference import inclusive_scan
from repro.errors import ConfigError, DeviceFault
from repro.graph import llm_sample, oracle_outputs, sort_graph
from repro.hw import FaultPlan
from repro.hw.config import toy_config
from repro.serve import RetryPolicy, ScanService
from repro.shard import DevicePool, PoolScanService

S = 16


def _scores(rng, vocab: int) -> np.ndarray:
    # pairwise-distinct fp16: no tie-order hazard vs the oracle
    return (rng.permutation(vocab) + 1).astype(np.float16)


def _flush_resilient(svc, limit: int = 50) -> None:
    for _ in range(limit):
        try:
            svc.flush()
        except DeviceFault:
            continue
        if not svc.pending:
            return
    raise AssertionError("queue did not drain within the flush budget")


class TestSingleService:
    def test_graph_and_scan_requests_share_one_flush(self):
        svc = ScanService(config=toy_config())
        rng = np.random.default_rng(3)
        graph = llm_sample(96, k=8, p=0.75, s=S)
        jobs = []
        for i in range(6):
            if i % 2 == 0:
                probs = _scores(rng, 96)
                t = svc.submit_graph(graph, {"probs": probs})
                jobs.append(("graph", t, oracle_outputs(graph, {"probs": probs})))
            else:
                x = rng.integers(-3, 4, 200).astype(np.float16)
                t = svc.submit(x, algorithm="scanu", s=S)
                jobs.append(("scan", t, inclusive_scan(x)))
        assert svc.pending == 6
        svc.flush()
        assert svc.pending == 0
        for kind, t, want in jobs:
            assert t.done
            if kind == "graph":
                got = t.result()
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            else:
                assert np.array_equal(t.values, want)

    def test_ticket_result_before_flush_raises(self):
        svc = ScanService(config=toy_config())
        graph = llm_sample(64, k=8, p=0.75, s=S)
        t = svc.submit_graph(
            graph, {"probs": _scores(np.random.default_rng(0), 64)}
        )
        assert not t.done
        with pytest.raises(RuntimeError, match="still queued"):
            t.result()
        svc.flush()
        assert t.done
        assert t.graph == "llm_sample"
        assert t.nodes == 2
        assert t.launches >= 1
        assert t.algorithm == "graph"

    def test_runtime_params_steer_the_served_draw(self):
        svc = ScanService(config=toy_config())
        graph = llm_sample(128, k=16, p=0.9, s=S)
        probs = _scores(np.random.default_rng(7), 128)
        tickets = {}
        for theta in (0.125, 0.875):
            params = {"sample": {"theta": theta}}
            tickets[theta] = (
                svc.submit_graph(graph, {"probs": probs}, params=params),
                oracle_outputs(graph, {"probs": probs}, params),
            )
        svc.flush()
        tokens = set()
        for t, want in tickets.values():
            assert np.array_equal(t.result()[0], want[0])
            tokens.add(int(t.result()[0][0]))
        assert len(tokens) == 2  # theta actually reached the sampler

    def test_plan_cache_reuses_programs_across_requests(self):
        svc = ScanService(config=toy_config())
        rng = np.random.default_rng(5)
        graph = llm_sample(96, k=8, p=0.75, s=S)
        svc.submit_graph(graph, {"probs": _scores(rng, 96)})
        svc.flush()
        runner = svc.graph_runner
        assert runner is not None
        misses = runner.cache.misses
        hits = runner.cache.hits
        for _ in range(3):
            svc.submit_graph(graph, {"probs": _scores(rng, 96)})
        svc.flush()
        assert runner.cache.misses == misses  # same shape class: no rebuild
        assert runner.cache.hits > hits
        svc.submit_graph(llm_sample(160, k=8, p=0.75, s=S),
                         {"probs": _scores(rng, 160)})
        svc.flush()
        assert runner.cache.misses > misses  # new shape class lowers fresh

    def test_per_op_breakdown_in_stats_and_summary(self):
        svc = ScanService(config=toy_config())
        rng = np.random.default_rng(9)
        svc.submit_graph(
            llm_sample(96, k=8, p=0.75, s=S), {"probs": _scores(rng, 96)}
        )
        svc.submit_graph(
            sort_graph(128, s=S),
            {"x": _scores(rng, 128)},
        )
        svc.flush()
        per_op = svc.stats.op_device_ns
        assert {"topk", "top_p_sample", "radix_sort"} <= set(per_op)
        for count, ns in per_op.values():
            assert count >= 1
            assert ns > 0
        text = svc.stats.summary()
        assert "op breakdown" in text
        assert "top_p_sample" in text
        snap = svc.snapshot()
        assert {"topk", "top_p_sample", "radix_sort"} <= set(snap["ops"])
        assert "graph_cache" in snap


class TestPoolChaos:
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_pool_serves_graphs_bit_identical_under_faults(self, devices):
        """Graph-served llm_sample under a 20% transient fault mix matches
        the oracle token for token at every pool size; D=1 is a standalone
        service whose aborted flushes are simply flushed again."""
        config = toy_config()
        retry = RetryPolicy(max_attempts=4)
        if devices == 1:
            svc = ScanService(
                config=config, retry=retry, graph_fusion="aggressive"
            )
            svc.ctx.device.fault_plan = FaultPlan(seed=31, transient_rate=0.2)
        else:
            pool = DevicePool(devices, config)
            svc = PoolScanService(
                pool=pool, config=config, retry=retry,
                graph_fusion="aggressive",
            )
            for m in (0, 1):
                pool.inject_faults(
                    m, FaultPlan(seed=31 + m, transient_rate=0.2)
                )
        rng = np.random.default_rng(41)
        graphs = {v: llm_sample(v, k=8, p=0.75, s=S) for v in (96, 160)}
        jobs = []
        for j in range(9):
            vocab = 96 if j % 2 == 0 else 160
            probs = _scores(rng, vocab)
            params = {"sample": {"theta": float(rng.integers(1, 8)) / 8.0}}
            t = svc.submit_graph(graphs[vocab], {"probs": probs}, params=params)
            jobs.append((t, oracle_outputs(graphs[vocab], {"probs": probs}, params)))
        _flush_resilient(svc)
        for t, want in jobs:
            assert t.done
            got = t.result()
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        workers = getattr(svc, "workers", [svc])
        assert sum(w.stats.fault_events for w in workers) > 0

    def test_dead_member_fails_over_without_losing_tickets(self):
        config = toy_config()
        pool = DevicePool(2, config)
        svc = PoolScanService(
            pool=pool, config=config, retry=RetryPolicy(max_attempts=3)
        )
        # member 0 dies permanently on its first launch
        pool.inject_faults(0, FaultPlan(seed=1, die_at_launch=1))
        rng = np.random.default_rng(43)
        graph = llm_sample(96, k=8, p=0.75, s=S)
        jobs = []
        for _ in range(4):
            probs = _scores(rng, 96)
            t = svc.submit_graph(graph, {"probs": probs})
            jobs.append((t, oracle_outputs(graph, {"probs": probs})))
        _flush_resilient(svc)
        for t, want in jobs:
            assert t.done
            for g, w in zip(t.result(), want):
                assert np.array_equal(g, w)

    def test_pool_shares_one_graph_runner(self):
        config = toy_config()
        pool = DevicePool(3, config)
        svc = PoolScanService(pool=pool, config=config)
        graph = llm_sample(96, k=8, p=0.75, s=S)
        svc.submit_graph(
            graph, {"probs": _scores(np.random.default_rng(2), 96)}
        )
        svc.flush()
        runners = {id(w.graph_runner) for w in svc.workers}
        assert len(runners) == 1  # lowered once, replayed anywhere


class TestOracleErrorsRefusedAtSubmit:
    """Graph numerics run at submit: a request whose oracle raises is
    refused before any ticket exists, so it cannot strand its neighbours'
    tickets at flush."""

    @pytest.mark.parametrize("pool", [False, True], ids=["single", "pool"])
    def test_bad_row_refused_and_neighbours_served(self, pool):
        config = toy_config()
        svc = (
            PoolScanService(2, config=config)
            if pool
            else ScanService(config=config)
        )
        rng = np.random.default_rng(17)
        graph = llm_sample(256, k=8, s=S)
        good = [_scores(rng, 256), _scores(rng, 256)]
        first = svc.submit_graph(graph, {"probs": good[0]})
        with pytest.raises(ConfigError, match="finite positive"):
            svc.submit_graph(graph, {"probs": np.zeros(256, np.float16)})
        last = svc.submit_graph(graph, {"probs": good[1]})
        assert svc.pending == 2
        svc.flush()
        assert svc.pending == 0 and not svc._tickets
        for t, probs in zip((first, last), good):
            assert t.done
            want = oracle_outputs(graph, {"probs": probs})
            for g, w in zip(t.result(), want):
                assert np.array_equal(g, w)
