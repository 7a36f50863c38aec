"""Plan cache: keying, hit/miss accounting, build-time validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import ScanContext
from repro.core.matrices import batched_tile_rows, padded_length
from repro.errors import ConfigError, KernelError, ShapeError
from repro.hw.config import toy_config
from repro.hw.scheduler import simulate
from repro.serve import PlanCache, PlanKey


@pytest.fixture()
def cache() -> PlanCache:
    return PlanCache(ScanContext(toy_config()))


def test_key_normalizes_to_padded_length(cache):
    # every n that pads to the same tile multiple shares one key
    k1 = cache.key_1d("scanu", 1, "fp16", s=32)
    k2 = cache.key_1d("scanu", 1024, "fp16", s=32)
    k3 = cache.key_1d("scanu", 1025, "fp16", s=32)
    assert k1 == k2 == PlanKey("scanu", 1024, "fp16", None, 32, False)
    assert k3.padded == 2048


def test_key_accepts_numpy_dtypes(cache):
    assert cache.key_1d("scanu", 10, np.float16, s=32).dtype == "fp16"
    assert cache.key_1d("scanu", 10, np.dtype(np.int8), s=32).dtype == "int8"
    with pytest.raises(KernelError):
        cache.key_1d("scanu", 10, np.float32, s=32)


def test_key_rejects_unknown_algorithm(cache):
    with pytest.raises(KernelError, match="unknown"):
        cache.key_1d("bogus", 10, "fp16", s=128)
    with pytest.raises(KernelError, match="batched"):
        cache.key_batched("mcscan", 4, 10, "fp16", s=128)


def test_batched_key_padded_is_stable(cache):
    """The padded row length must be a fixed point: re-keying a padded
    length yields the same key (the service builds plans from keys)."""
    for row_len in [1, 50, 96, 129, 700, 1024, 5000]:
        k = cache.key_batched("scanu", 4, row_len, "fp16", s=32)
        again = cache.key_batched("scanu", 4, k.padded, "fp16", s=32)
        assert again.padded == k.padded
        rows = batched_tile_rows(k.padded, 32)
        assert k.padded == padded_length(k.padded, rows * 32)


def test_hit_miss_accounting_and_reuse(cache):
    p1 = cache.get_1d(cache.key_1d("scanu", 100, "fp16", s=32))
    p2 = cache.get_1d(cache.key_1d("scanu", 1000, "fp16", s=32))  # same padded class
    p3 = cache.get_1d(cache.key_1d("scanu", 2000, "fp16", s=32))  # different class
    assert p1 is p2 and p1 is not p3
    assert (cache.hits, cache.misses) == (1, 2)
    assert len(cache) == 2
    assert cache.stats()["plans"] == 2
    assert cache.gm_bytes > 0
    assert cache.build_host_s > 0


def test_separate_plans_per_algorithm_dtype_exclusive(cache):
    a = cache.get_1d(cache.key_1d("scanu", 100, "fp16", s=32))
    b = cache.get_1d(cache.key_1d("scanu", 100, "int8", s=32))
    c = cache.get_1d(cache.key_1d("mcscan", 100, "fp16", s=32))
    d = cache.get_1d(cache.key_1d("mcscan", 100, "fp16", s=32, exclusive=True))
    assert len({id(p) for p in (a, b, c, d)}) == 4
    assert cache.misses == 4


def test_build_validates_against_oracle(cache):
    plan = cache.get_1d(cache.key_1d("scanu", 500, "fp16", s=32))
    assert plan.validated is True
    assert plan.build_max_err == 0.0
    # scanul1's int8 L1 staging of C1 wraps: the serve layer refuses it
    with pytest.raises(KernelError, match="scanul1 is not served on int8"):
        cache.get_1d(cache.key_1d("scanul1", 500, "int8", s=32))
    with pytest.raises(KernelError, match="scanul1 is not served on int8"):
        cache.get_batched(cache.key_batched("scanul1", 2, 500, "int8", s=32))
    assert len(cache) == 1


def test_plan_execute_checks_shape_and_dtype(cache):
    plan = cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))
    with pytest.raises(KernelError, match="fp16"):
        plan.execute(np.zeros(1024, dtype=np.int8))
    with pytest.raises(ShapeError):
        plan.execute(np.zeros(2048, dtype=np.float16))  # other shape class
    with pytest.raises(ShapeError):
        plan.execute(np.zeros((4, 256), dtype=np.float16))


def test_plan_execute_counts_and_replays(cache):
    plan = cache.get_1d(cache.key_1d("scanu", 100, "fp16", s=32))
    x = np.ones(100, dtype=np.float16)
    r1 = plan.execute(x)
    r2 = plan.execute(x)
    assert plan.executions == 2
    assert np.array_equal(r1.values, np.arange(1, 101, dtype=np.float32))
    assert np.array_equal(r1.values, r2.values)
    # replay re-schedules the same DAG: identical simulated time
    assert r1.trace.total_ns == r2.trace.total_ns
    assert r1.n_elements == 100


def test_batched_plan_serves_smaller_batches(cache):
    plan = cache.get_batched(cache.key_batched("scanu", 8, 600, "fp16", s=32))
    x = np.ones((3, 600), dtype=np.float16)
    res = plan.execute(x)
    assert res.values.shape == (3, 600)
    expected = np.tile(np.arange(1, 601, dtype=np.float32), (3, 1))
    assert np.array_equal(res.values, expected)
    with pytest.raises(ShapeError, match="rows"):
        plan.execute(np.ones((9, 600), dtype=np.float16))


def test_exclusive_plan(cache):
    plan = cache.get_1d(cache.key_1d("mcscan", 64, "fp16", s=32, exclusive=True))
    res = plan.execute(np.ones(64, dtype=np.float16))
    assert np.array_equal(res.values, np.arange(0, 64, dtype=np.float32))


def test_timeline_counters_aggregate(cache):
    a = cache.get_1d(cache.key_1d("scanu", 900, "fp16", s=32))
    b = cache.get_1d(cache.key_1d("vector", 900, "fp16", s=128))
    for _ in range(3):
        a.execute(np.ones(900, dtype=np.float16))
    b.execute(np.ones(900, dtype=np.float16))
    assert (a.timeline_misses, a.timeline_hits) == (1, 2)
    assert (b.timeline_misses, b.timeline_hits) == (1, 0)
    stats = cache.stats()
    assert stats["timeline_misses"] == 2
    assert stats["timeline_hits"] == 2


def test_plan_execute_des_engine_and_audit(cache):
    plan = cache.get_1d(cache.key_1d("scanu", 900, "fp16", s=32))
    x = np.ones(900, dtype=np.float16)
    cfg = plan.ctx.config
    # the served timeline is exactly the discrete-event scheduler's, and a
    # scheduler run outside the device never touches the counters
    for counts in ((1, 0), (1, 1)):
        assert plan.execute(x).trace.timeline == simulate(plan.traced.program, cfg)
        assert (plan.timeline_misses, plan.timeline_hits) == counts


class TestLRUEviction:
    def _bounded(self, first_plan_bytes: int) -> PlanCache:
        # budget fits roughly one plan of the probed size, so a second
        # distinct shape class forces an eviction
        return PlanCache(
            ScanContext(toy_config()), gm_budget=first_plan_bytes + 512
        )

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            PlanCache(ScanContext(toy_config()), gm_budget=0)

    def test_unbounded_cache_never_evicts(self, cache):
        for n in (100, 2000, 5000):
            cache.get_1d(cache.key_1d("scanu", n, "fp16", s=32))
        assert cache.evictions == 0

    def test_eviction_frees_gm_and_counts(self):
        probe = PlanCache(ScanContext(toy_config()))
        probe_bytes = probe.get_1d(probe.key_1d("scanu", 1024, "fp16", s=32)).gm_bytes

        cache = self._bounded(probe_bytes)
        mem = cache.ctx.device.memory
        a = cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))
        used_with_a = mem.used_bytes
        b = cache.get_1d(cache.key_1d("scanu", 4096, "fp16", s=32))  # evicts a
        assert cache.evictions == 1
        assert cache.evicted_gm_bytes == a.gm_bytes
        assert a.released and not b.released
        assert len(cache) == 1
        # a's GM really came back: current usage grew by less than b's size
        assert mem.used_bytes < used_with_a + b.gm_bytes
        with pytest.raises(KernelError, match="released"):
            a.execute(np.ones(1024, dtype=np.float16))

    def test_eviction_is_lru_not_fifo(self):
        # budget holds the 1024- and 4096-class plans together but not all
        # three, so exactly one eviction happens — and it must take the
        # least-recently-used plan (b), not the oldest-inserted (a)
        probe = PlanCache(ScanContext(toy_config()))
        probe_bytes = (
            probe.get_1d(probe.key_1d("scanu", 1024, "fp16", s=32)).gm_bytes
            + probe.get_1d(probe.key_1d("scanu", 4096, "fp16", s=32)).gm_bytes
        )

        cache = PlanCache(ScanContext(toy_config()), gm_budget=probe_bytes + 512)
        a = cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))
        b = cache.get_1d(cache.key_1d("scanu", 2048, "fp16", s=32))
        cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))  # touch a: b becomes LRU
        cache.get_1d(cache.key_1d("scanu", 4096, "fp16", s=32))  # needs room
        assert b.released and not a.released

    def test_most_recent_plan_survives_even_over_budget(self):
        cache = PlanCache(ScanContext(toy_config()), gm_budget=1)
        plan = cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))
        assert not plan.released  # never evict the plan just requested
        assert len(cache) == 1
        res = plan.execute(np.ones(1024, dtype=np.float16))
        assert np.array_equal(res.values, np.arange(1, 1025, dtype=np.float32))

    def test_evicted_shape_rebuilds_on_next_request(self):
        cache = PlanCache(ScanContext(toy_config()), gm_budget=1)
        a = cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))
        cache.get_1d(cache.key_1d("scanu", 4096, "fp16", s=32))  # evicts a
        again = cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))  # rebuild, not hit
        assert again is not a
        assert cache.misses == 3
        res = again.execute(np.ones(1024, dtype=np.float16))
        assert np.array_equal(res.values, np.arange(1, 1025, dtype=np.float32))

    def test_stats_expose_eviction_counters(self):
        cache = PlanCache(ScanContext(toy_config()), gm_budget=1)
        cache.get_1d(cache.key_1d("scanu", 1024, "fp16", s=32))
        cache.get_1d(cache.key_1d("scanu", 4096, "fp16", s=32))
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["evicted_gm_bytes"] > 0
