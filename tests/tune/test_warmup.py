"""Warm-up: serial tuning is order-independent, plans prebuild fully.

The warm-up contract has two halves: (1) tuning a workload list produces
the same store entries in any order — each entry is a pure function of
(config, workload); (2) a warmed service pays zero inline plan builds in
steady state.
"""

import numpy as np
import pytest

from repro.core.api import ScanContext
from repro.core.reference import exact_fp16_scan_input, inclusive_scan
from repro.errors import ConfigError
from repro.hw.config import toy_config
from repro.serve import ScanService
from repro.shard import PoolScanService
from repro.tune import (
    TuneStore,
    WorkloadKey,
    tune_workload,
    warm_pool,
    warm_service,
    warm_tune_store,
)

WORKLOADS = [
    WorkloadKey("1d", 4096, "fp16"),
    WorkloadKey("1d", 2048, "int8"),
    WorkloadKey("1d", 1024, "fp16", exclusive=True),
    WorkloadKey("batched", 256, "fp16", batch=8),
]


@pytest.fixture(scope="module")
def serial_store():
    cfg = toy_config()
    store = TuneStore(cfg)
    warm_tune_store(WORKLOADS, store, workers=1)
    return store


class TestWarmTuneStore:
    def test_serial_matches_fresh_context_tuning(self, serial_store):
        cfg = serial_store.config
        ref = TuneStore(cfg)
        for workload in WORKLOADS:
            tune_workload(ScanContext(cfg), workload, store=ref)
        assert ref.entries == serial_store.entries

    @pytest.mark.parametrize(
        "order",
        [WORKLOADS[::-1], WORKLOADS[2:] + WORKLOADS[:2]],
        ids=["reversed", "rotated"],
    )
    def test_order_independent_entries(self, serial_store, order):
        store = TuneStore(serial_store.config)
        report = warm_tune_store(order, store)
        assert report.tuned == len(WORKLOADS)
        assert store.entries == serial_store.entries

    def test_already_covered_workloads_skip(self, serial_store):
        report = warm_tune_store(WORKLOADS, serial_store)
        assert report.tuned == 0
        assert report.skipped == len(WORKLOADS)

    def test_workers_accept_only_serial_values(self, serial_store):
        store = TuneStore(serial_store.config)
        with pytest.raises(ConfigError):
            warm_tune_store(WORKLOADS, store, workers=2)
        pool = PoolScanService(2, config=serial_store.config, tune_store=store)
        with pytest.raises(ConfigError):
            warm_pool(pool, WORKLOADS, workers=2)
        assert not store.entries  # rejected before any sweep ran


class TestWarmService:
    def _mix(self, svc):
        rng = np.random.default_rng(9)
        inputs = {}
        for _ in range(8):
            x, _ = exact_fp16_scan_input(4096, rng)
            inputs[svc.submit(x).req_id] = x
        for _ in range(4):
            x = rng.integers(-20, 21, size=2048).astype(np.int8)
            inputs[svc.submit(x).req_id] = x
        return inputs

    def test_zero_inline_builds_in_steady_state(self, serial_store):
        svc = ScanService(config=serial_store.config, tune_store=serial_store)
        built = warm_service(svc, WORKLOADS, buckets=(4, 8))
        assert built > 0
        misses = svc.cache.misses
        inputs = self._mix(svc)
        done = svc.flush()
        assert svc.cache.misses == misses  # every launch was a plan hit
        assert all(t.plan_hit for t in done)
        for t in done:
            assert np.array_equal(t.result(), inclusive_scan(inputs[t.req_id]))

    def test_warm_is_idempotent(self, serial_store):
        svc = ScanService(config=serial_store.config, tune_store=serial_store)
        warm_service(svc, WORKLOADS, buckets=(8,))
        assert warm_service(svc, WORKLOADS, buckets=(8,)) == 0

    def test_warming_does_not_skew_store_lookup_counters(self, serial_store):
        hits, misses = serial_store.lookup_hits, serial_store.lookup_misses
        svc = ScanService(config=serial_store.config, tune_store=serial_store)
        warm_service(svc, WORKLOADS, buckets=(8,))
        assert serial_store.lookup_hits == hits
        assert serial_store.lookup_misses == misses

    def test_unwarmed_service_builds_inline(self, serial_store):
        """Control: without warm-up the same mix pays inline plan builds."""
        svc = ScanService(config=serial_store.config, tune_store=serial_store)
        self._mix(svc)
        done = svc.flush()
        assert svc.cache.misses > 0
        assert not all(t.plan_hit for t in done)


class TestWarmPool:
    def test_every_member_warmed(self, serial_store):
        pool = PoolScanService(
            2, config=serial_store.config, tune_store=TuneStore(serial_store.config)
        )
        report = warm_pool(pool, WORKLOADS, buckets=(8,), workers=1)
        assert report.plans_built > 0
        assert pool.tune_store.entries == serial_store.entries
        misses = [w.cache.misses for w in pool.workers]
        rng = np.random.default_rng(2)
        for _ in range(8):
            x, _ = exact_fp16_scan_input(4096, rng)
            pool.submit(x)
        done = pool.flush()
        assert [w.cache.misses for w in pool.workers] == misses
        assert all(t.plan_hit for t in done)
