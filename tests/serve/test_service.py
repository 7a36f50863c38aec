"""ScanService: submit/flush semantics, request batching, statistics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.reference import (
    exact_fp16_scan_input,
    exclusive_scan,
    inclusive_scan,
)
from repro.errors import KernelError, ShapeError
from repro.hw.config import toy_config
from repro.hw.faults import FaultPlan
from repro.serve import ScanService, bucket_size, render
from repro.serve.batcher import MIN_GROUP, RequestBatcher


@pytest.fixture()
def service() -> ScanService:
    return ScanService(config=toy_config(), max_batch=8)


def _x(n, seed=0, dtype=np.float16):
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, n).astype(dtype)


def test_bucket_size_powers_of_two():
    assert [bucket_size(k) for k in (1, 2, 3, 4, 5, 8, 9)] == [
        1, 2, 4, 4, 8, 8, 16,
    ]
    assert bucket_size(100, max_batch=16) == 16
    with pytest.raises(ValueError):
        bucket_size(0)
    with pytest.raises(ValueError):
        bucket_size(4, max_batch=0)


def test_bucket_size_clamps_to_power_of_two_cap():
    """Regression: a non-power-of-two max_batch used to leak through as a
    bucket (48-row shape classes defeating the log2-classes guarantee)."""
    assert bucket_size(40, max_batch=48) == 32
    assert bucket_size(48, max_batch=48) == 32
    assert bucket_size(3, max_batch=48) == 4
    assert bucket_size(100, max_batch=100) == 64
    for cap in (1, 3, 48, 100):
        b = bucket_size(cap, max_batch=cap)
        assert b & (b - 1) == 0  # power of two
        assert b <= cap


def test_non_pow2_max_batch_serves_correctly():
    """With max_batch=48, oversized groups chunk at the 32-row bucket cap
    (a 48-row chunk cannot ride a 32-row bucket)."""
    svc = ScanService(config=toy_config(), max_batch=48)
    xs = [_x(600, i) for i in range(48)]
    ts = [svc.submit(x, algorithm="scanu", s=32) for x in xs]
    svc.flush()
    assert sorted(t.batch_size for t in ts) == [16] * 16 + [32] * 32
    for x, t in zip(xs, ts):
        assert np.array_equal(t.result(), inclusive_scan(x))
    for rec in svc.stats.launches:
        assert rec.kind == "batched" and rec.requests <= 32


def test_submit_validates_input(service):
    with pytest.raises(ShapeError):
        service.submit(np.zeros((2, 3), dtype=np.float16))
    with pytest.raises(ShapeError):
        service.submit(np.zeros(0, dtype=np.float16))
    # bad algorithm/dtype rejected at submit, not at flush
    with pytest.raises(Exception):
        service.submit(_x(10), algorithm="bogus")
    with pytest.raises(Exception):
        service.submit(np.zeros(10, dtype=np.float32))
    # scanul1's int8 staging of C1 wraps, so int8 requests are refused
    with pytest.raises(KernelError, match="not served on int8"):
        service.submit(np.ones(10, dtype=np.int8), algorithm="scanul1")
    assert service.pending == 0


def test_ticket_lifecycle(service):
    x = _x(500)
    t = service.submit(x, algorithm="scanu", s=32)
    assert not t.done
    with pytest.raises(RuntimeError, match="queued"):
        t.result()
    assert service.pending == 1
    done = service.flush()
    assert done == [t] and t.done
    assert service.pending == 0
    assert np.array_equal(t.result(), inclusive_scan(x))
    assert t.host_s > 0
    assert t.device_ns > 0


def test_same_shape_requests_coalesce(service):
    xs = [_x(700, seed=i) for i in range(5)]
    ts = [service.submit(x, algorithm="scanu", s=32) for x in xs]
    service.flush()
    for x, t in zip(xs, ts):
        assert t.batched
        assert t.batch_size == 5
        assert np.array_equal(t.result(), inclusive_scan(x))
    # one batched launch for all five requests
    assert service.stats.launch_count == 1
    assert service.stats.launches[0].kind == "batched"
    assert service.stats.launches[0].requests == 5
    assert service.stats.coalesced_requests == 5


def test_different_shapes_split_launches(service):
    a = service.submit(_x(700), algorithm="scanu", s=32)
    b = service.submit(_x(700, 1), algorithm="scanu", s=32)
    c = service.submit(_x(9000), algorithm="scanu", s=32)  # other class
    d = service.submit(_x(700, 2), algorithm="scanul1", s=32)  # other algo
    service.flush()
    assert a.batched and b.batched and a.batch_size == 2
    assert not c.batched and not d.batched
    for t, n in ((a, 700), (b, 700), (c, 9000), (d, 700)):
        assert t.n == n and t.done


def test_singletons_fall_back_to_1d_plans(service):
    t = service.submit(_x(500), algorithm="scanu", s=32)
    service.flush()
    assert not t.batched and t.batch_size == 1
    assert service.stats.launches[0].kind == "single"


def test_min_group_and_batching_toggle():
    svc = ScanService(config=toy_config())
    lone = svc.submit(_x(600), algorithm="scanu", s=32)
    svc.flush()
    assert not lone.batched  # below MIN_GROUP
    ts = [
        svc.submit(_x(600, i), algorithm="scanu", s=32)
        for i in range(MIN_GROUP)
    ]
    svc.flush()
    assert all(t.batched and t.batch_size == MIN_GROUP for t in ts)

    # a 1-row bucket cap: nothing coalesces
    svc2 = ScanService(config=toy_config(), max_batch=1)
    ts2 = [svc2.submit(_x(600, i), algorithm="scanu", s=32) for i in range(4)]
    svc2.flush()
    assert not any(t.batched for t in ts2)
    for i, t in enumerate(ts2):
        assert np.array_equal(t.result(), inclusive_scan(_x(600, i)))


def test_oversized_groups_split_at_max_batch():
    svc = ScanService(config=toy_config(), max_batch=4)
    ts = [svc.submit(_x(600, i), algorithm="scanu", s=32) for i in range(6)]
    svc.flush()
    sizes = sorted(t.batch_size for t in ts)
    assert sizes == [2, 2, 4, 4, 4, 4]
    assert svc.stats.launch_count == 2


def test_fallback_groups_rekey_per_request(monkeypatch):
    """Regression: fallback chunks of a batchable class were re-keyed
    from requests[0] only, so requests differing in block_dim (or
    exclusive) silently shared one wrong 1-D plan key."""
    import time

    from repro.serve.batcher import ScanRequest

    # a batching threshold above the class size sends both rows of the
    # class to the fallback as one chunk
    monkeypatch.setattr("repro.serve.batcher.MIN_GROUP", 8)
    svc = ScanService(config=toy_config())
    reqs = [
        ScanRequest(
            req_id=i,
            x=_x(600, i),
            t_submit=time.perf_counter(),
            key=svc.cache.key_1d("scanu", 600, "fp16", s=32, block_dim=bd),
            row_key=svc.cache.key_batched("scanu", 1, 600, "fp16", s=32),
        )
        for i, bd in enumerate([None, 1])
    ]
    for r in reqs:
        svc.batcher.add(r)
    groups = svc.batcher.drain()
    # same batched shape class, but two distinct 1-D fallback keys
    assert len(groups) == 2
    assert not any(g.batched for g in groups)
    assert {g.key.block_dim for g in groups} == {None, 1}
    assert all(g.key.batch is None for g in groups)


def test_fallback_groups_thread_exclusive_through(service):
    """End-to-end: a lone mcscan pair (inclusive + exclusive), which the
    batched kernels cannot serve, must keep both exclusive flags in their 1-D keys."""
    x = _x(800)
    inc = service.submit(x, algorithm="mcscan", s=32)
    exc = service.submit(x, algorithm="mcscan", s=32, exclusive=True)
    service.flush()
    assert np.array_equal(inc.result(), inclusive_scan(x))
    assert np.array_equal(exc.result(), exclusive_scan(x))
    keys = list(service.cache._plans)
    assert {k.exclusive for k in keys} == {True, False}


def test_int64_input_normalized_once_to_int8(service):
    """Satellite: dtype resolves once at submit; int64 input that fits
    int8 lands in the same shape class as native int8 everywhere."""
    x64 = np.arange(-20, 20, dtype=np.int64).repeat(20)[:700]
    x8 = _x(700, seed=1, dtype=np.int8)
    a = service.submit(x64, algorithm="scanu", s=32)
    b = service.submit(x8, algorithm="scanu", s=32)
    service.flush()
    assert a.dtype == b.dtype == "int8"
    # one shape class -> one coalesced batched launch, one cached plan
    assert a.batched and b.batched and a.batch_size == 2
    assert service.stats.launch_count == 1
    assert len(service.cache) == 1
    assert np.array_equal(a.result(), inclusive_scan(x64.astype(np.int8)))
    assert np.array_equal(b.result(), inclusive_scan(x8))


def test_int64_out_of_range_still_rejected(service):
    with pytest.raises(Exception):
        service.submit(np.full(700, 1000, dtype=np.int64))
    # float32 narrowing would lose precision silently: still rejected
    with pytest.raises(Exception):
        service.submit(np.zeros(700, dtype=np.float32))
    assert service.pending == 0


def test_mcscan_and_exclusive_served_individually(service):
    x = _x(800)
    inc = service.submit(x, algorithm="mcscan", s=32)
    exc = service.submit(x, algorithm="mcscan", s=32, exclusive=True)
    service.flush()
    assert not inc.batched and not exc.batched
    assert np.array_equal(inc.result(), inclusive_scan(x))
    assert np.array_equal(exc.result(), exclusive_scan(x))


def test_plan_hits_after_first_flush(service):
    for round_ in range(2):
        ts = [service.submit(_x(700, i), algorithm="scanu", s=32)
              for i in range(3)]
        service.flush()
        assert all(t.plan_hit == (round_ == 1) for t in ts)
    assert service.cache.stats()["misses"] == 1
    assert service.cache.stats()["hits"] == 1


def test_int8_requests(service):
    x = _x(700, dtype=np.int8)
    ts = [service.submit(x, algorithm="scanu", s=32) for _ in range(2)]
    service.flush()
    for t in ts:
        assert t.dtype == "int8"
        assert np.array_equal(t.result(), inclusive_scan(x))


def test_flush_returns_submit_order(service):
    xs = [_x(700, 0), _x(9000, 1), _x(700, 2)]
    ts = [service.submit(x, algorithm="scanu", s=32) for x in xs]
    done = service.flush()
    assert [t.req_id for t in done] == [t.req_id for t in ts]


def test_stats_and_summary(service):
    for i in range(4):
        service.submit(_x(700, i), algorithm="scanu", s=32)
    service.flush()
    s = service.stats
    assert s.requests == 4
    assert s.n_elements == 4 * 700
    assert s.gelems_per_s > 0
    assert s.bandwidth_gbps > 0
    assert 0 < s.mean_host_latency_s
    assert s.host_latency_percentile_s(0.5) <= s.host_latency_percentile_s(0.99)
    text = service.summary()
    assert "plan cache" in text and "requests" in text


def test_empty_flush_is_noop(service):
    assert service.flush() == []
    assert service.stats.requests == 0


def test_batcher_drain_clears_queue(service):
    batcher: RequestBatcher = service.batcher
    service.submit(_x(100), algorithm="scanu", s=32)
    assert len(batcher) == 1
    service.flush()
    assert len(batcher) == 0


def test_timeline_hit_stats(service):
    # first flush computes the batched plan's timeline; subsequent
    # flushes of the same shape class replay the memoized one
    for round_ in range(3):
        for i in range(4):
            service.submit(_x(700, i + round_), algorithm="scanu", s=32)
        service.flush()
    launches = service.stats.launches
    assert [r.timeline_hit for r in launches] == [False, True, True]
    assert service.stats.timeline_hit_rate == pytest.approx(2 / 3)
    cache_stats = service.cache.stats()
    assert cache_stats["timeline_misses"] == 1
    assert cache_stats["timeline_hits"] == 2
    assert "timeline cache" in service.summary()
    assert "timeline hit rate" in service.stats.summary()


class TestTunedServing:
    @pytest.fixture()
    def tuned_service(self) -> ScanService:
        from repro.tune import TunedEntry, TuneStore

        config = toy_config()
        store = TuneStore(config)
        store.record(
            "1d:1024:fp16:i",
            TunedEntry(
                algorithm="mcscan", s=32, block_dim=None, layout="1d",
                tuned_ns=1.0, default_ns=2.0,
            ),
        )
        return ScanService(config=config, tune_store=store, max_batch=1)

    def test_store_hit_supplies_config(self, tuned_service):
        x = _x(1024)
        t = tuned_service.scan(x)
        assert t.tuned
        assert (t.algorithm, t.s) == ("mcscan", 32)
        assert np.array_equal(t.result(), inclusive_scan(x))
        assert tuned_service.stats.tuned_launches == 1
        assert tuned_service.stats.tuned_hit_rate == 1.0
        assert tuned_service.tune_store.lookup_hits == 1
        assert "tuned store" in tuned_service.summary()

    def test_explicit_args_bypass_store(self, tuned_service):
        t = tuned_service.scan(_x(1024), algorithm="scanu", s=128)
        assert not t.tuned
        assert (t.algorithm, t.s) == ("scanu", 128)
        assert tuned_service.tune_store.lookup_hits == 0

    def test_store_miss_falls_back_to_default(self, tuned_service):
        t = tuned_service.scan(_x(4096))  # shape not in store
        assert not t.tuned
        assert (t.algorithm, t.s) == ("scanu", 128)
        assert tuned_service.stats.tuned_launches == 0
        assert tuned_service.tune_store.lookup_misses == 1

    def test_no_store_means_heuristic_default(self, service):
        t = service.scan(_x(1024))
        assert not t.tuned
        assert (t.algorithm, t.s) == ("scanu", 128)
        assert service.stats.tuned_hit_rate == 0.0


class TestSubmitSequenceOrdering:
    """Satellite: submit-order return rides one monotone id sequence
    shared by scan and graph submissions; collisions are an error, not a
    silent reorder."""

    def test_mixed_scan_and_graph_ids_are_one_monotone_sequence(self):
        from repro.graph import llm_sample

        svc = ScanService(config=toy_config())
        rng = np.random.default_rng(3)
        graph = llm_sample(96, k=8, p=0.75, s=16)
        ids = []
        for i in range(6):
            if i % 2 == 0:
                probs = (rng.permutation(96) + 1).astype(np.float16)
                ids.append(svc.submit_graph(graph, {"probs": probs}).req_id)
            else:
                ids.append(svc.submit(_x(512, i), s=16).req_id)
        # one shared counter: strictly increasing across both kinds
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        done = svc.flush()
        # and flush returns the mixed traffic in exactly submit order
        assert [t.req_id for t in done] == ids

    def test_sort_asserts_unique_submit_sequence(self):
        from repro.serve.service import ScanTicket, _sorted_by_submit_sequence

        def t(req_id):
            return ScanTicket(
                req_id=req_id, n=8, algorithm="scanu", dtype="fp16",
                s=16, exclusive=False,
            )

        out = _sorted_by_submit_sequence([t(2), t(0), t(1)])
        assert [x.req_id for x in out] == [0, 1, 2]
        with pytest.raises(KernelError, match="share request id"):
            _sorted_by_submit_sequence([t(1), t(0), t(1)])


def _serve_seeded(*, faults=False, max_batch=64):
    svc = ScanService(config=toy_config(), max_batch=max_batch)
    if faults:
        svc.ctx.device.fault_plan = FaultPlan(seed=11, transient_rate=0.3)
    rng = np.random.default_rng(3)
    inputs = {}
    for _ in range(12):
        x, _ = exact_fp16_scan_input(int(rng.choice((200, 256, 1000))), rng)
        t = svc.submit(x, algorithm="scanu", s=16)
        inputs[t.req_id] = x
    return inputs, svc.flush(), svc.stats


class TestSerialDeterminism:
    """The host path is serial: the same seeded stream gives the same
    values, simulated timeline and fault schedule on every run."""

    @pytest.mark.parametrize("max_batch", [2, 4, 8])
    def test_results_and_timeline_deterministic(self, max_batch):
        inputs, first, s1 = _serve_seeded(max_batch=max_batch)
        _, again, s2 = _serve_seeded(max_batch=max_batch)
        assert [t.req_id for t in first] == [t.req_id for t in again]
        for a, b in zip(first, again):
            assert np.array_equal(a.result(), b.result())
            assert a.result().dtype == b.result().dtype
            assert a.device_ns == b.device_ns
            assert a.batched == b.batched
        assert s1.device_ns == s2.device_ns
        for t in first:
            assert np.array_equal(t.result(), inclusive_scan(inputs[t.req_id]))

    def test_fault_schedule_deterministic(self):
        _, first, s1 = _serve_seeded(faults=True)
        _, again, s2 = _serve_seeded(faults=True)
        assert s1.fault_events > 0
        assert s1.fault_events == s2.fault_events
        assert s1.total_retries == s2.total_retries
        assert s1.total_backoff_ns == s2.total_backoff_ns
        for a, b in zip(first, again):
            assert a.retries == b.retries
            assert np.array_equal(a.result(), b.result())

    def test_snapshot_deterministic_and_rendered(self):
        """The stats snapshot is plain data: its device-side counters
        repeat run to run, host latencies are measured, and the summary
        is exactly the rendered snapshot."""
        _, _, s1 = _serve_seeded()
        _, _, s2 = _serve_seeded()
        snap1, snap2 = s1.snapshot(), s2.snapshot()
        assert json.loads(json.dumps(snap1)) == snap1
        host = lambda snap: {k: v for k, v in snap.items() if k != "host_latency_s"}
        assert host(snap1) == host(snap2)
        assert snap1["requests"] == 12
        assert snap1["device_ns"] == s1.device_ns > 0
        assert 0 < snap1["host_latency_s"]["p50"] <= snap1["host_latency_s"]["p99"]
        assert s1.summary() == render(snap1)
