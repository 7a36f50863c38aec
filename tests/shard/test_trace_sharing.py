"""One trace per pool: members mirror a live plan's traced program.

The first member of a :class:`~repro.shard.DevicePool` to build a scan
plan traces it; every other member builds a mirror (its own GM tensors,
the shared traced program, phases and validation verdict).  These tests
hold the mirror to what the member would have traced itself, and the
table to its scope: one trace per key per pool, never across pools, and
only while some plan holds it.
"""

import gc

import numpy as np
import pytest

import repro.hw.device as device_mod
from repro.core.api import ScanContext
from repro.core.mcscan import MCScanKernel
from repro.core.reference import (
    batched_inclusive_scan,
    exact_fp16_scan_input,
    exclusive_scan,
    inclusive_scan,
)
from repro.errors import KernelError
from repro.hw.config import toy_config
from repro.hw.device import AscendDevice
from repro.hw.faults import FaultPlan
from repro.serve import PlanCache
from repro.shard import DevicePool, PoolScanService, ShardedScanner
from repro.tune import TuneStore, WorkloadKey, resolve_candidate, warm_pool
from repro.tune.store import TunedEntry

N = 5000
ROWS, ROW_LEN = 4, 300

#: (build method, kwargs) for every plan kind a pool serves
PLANS = {
    "scanu": ("build_plan", dict(algorithm="scanu", n=N, s=16)),
    "scanul1": ("build_plan", dict(algorithm="scanul1", n=N, s=16)),
    "mcscan": ("build_plan", dict(algorithm="mcscan", n=N, s=16)),
    "mcscan-exclusive": (
        "build_plan", dict(algorithm="mcscan", n=N, s=16, exclusive=True)
    ),
    "mcscan-carry": (
        "build_plan",
        dict(algorithm="mcscan", n=N, dtype="int8", s=16, device_carry=True),
    ),
    "vector": ("build_plan", dict(algorithm="vector", n=N, s=128)),
    "batched-scanu": (
        "build_batched_plan",
        dict(algorithm="scanu", batch=ROWS, row_len=ROW_LEN, s=16),
    ),
    "batched-scanul1": (
        "build_batched_plan",
        dict(algorithm="scanul1", batch=ROWS, row_len=ROW_LEN, s=16),
    ),
    "batched-vector": (
        "build_batched_plan",
        dict(algorithm="vector", batch=ROWS, row_len=ROW_LEN, s=128),
    ),
}


def _build(ctx, name, **extra):
    method, kw = PLANS[name]
    return getattr(ctx, method)(**{**kw, **extra})


@pytest.fixture()
def traces(monkeypatch):
    """Count every kernel trace, by device."""
    counts = []
    original = AscendDevice.trace_kernel

    def counting(self, kernel, **kw):
        counts.append(self.name)
        return original(self, kernel, **kw)

    monkeypatch.setattr(AscendDevice, "trace_kernel", counting)
    return counts


@pytest.fixture()
def schedules(monkeypatch):
    """Record the program of every discrete-event scheduler run."""
    programs = []
    original = device_mod.simulate

    def counting(program, config, **kw):
        programs.append(program)
        return original(program, config, **kw)

    monkeypatch.setattr(device_mod, "simulate", counting)
    return programs


def _tuned_store(cfg):
    store = TuneStore(cfg)
    store.record(
        f"1d:{N}:fp16:i",
        TunedEntry(
            algorithm="mcscan", s=16, block_dim=1, layout="1d",
            tuned_ns=1.0, default_ns=2.0,
        ),
    )
    return store


def _same_timing(a, b):
    """Replays of ``a`` and ``b`` (and of each phase) are ns-identical."""
    for left, right in [(a.traced, b.traced), *zip(a.phases, b.phases)]:
        ta = a.ctx.device.replay(left)
        tb = b.ctx.device.replay(right)
        assert ta.total_ns == tb.total_ns
        assert ta.timeline == tb.timeline
    assert len(a.phases) == len(b.phases)


class TestMirror:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_timeline_equals_members_own_trace(self, name, traces):
        cfg = toy_config()
        pool = DevicePool(2, cfg)
        source = _build(pool[0], name)
        mirror = _build(pool[1], name)
        assert traces == ["dev0"]
        assert mirror.traced is source.traced
        assert mirror.phases == source.phases
        assert mirror.ctx is pool[1]
        assert (mirror.validated, mirror.build_max_err) == (True, 0.0)
        assert [(t.name, t.shape, t.dtype) for t in mirror.gm_tensors] == [
            (t.name, t.shape, t.dtype) for t in source.gm_tensors
        ]
        assert all(
            t in pool.devices[1].memory.tensors for t in mirror.gm_tensors
        )
        # what member 1 traces for itself in a fresh D=2 pool
        own = _build(DevicePool(2, cfg)[1], name)
        assert own.traced is not mirror.traced
        _same_timing(mirror, own)

    def test_tuned_plan(self, traces):
        cfg = toy_config()
        cand, tuned = resolve_candidate(
            WorkloadKey("1d", N, "fp16"), _tuned_store(cfg)
        )
        assert tuned and (cand.algorithm, cand.block_dim) == ("mcscan", 1)
        config = dict(algorithm=cand.algorithm, s=cand.s, block_dim=cand.block_dim)
        pool = DevicePool(2, cfg)
        source = _build(pool[0], "scanu", **config)
        mirror = _build(pool[1], "scanu", **config)
        assert traces == ["dev0"]
        assert (mirror.algorithm, mirror.block_dim) == ("mcscan", 1)
        assert mirror.traced is source.traced
        own = _build(DevicePool(2, cfg)[1], "scanu", **config)
        _same_timing(mirror, own)

    def test_mirror_serves_exact_values(self, rng):
        pool = DevicePool(2, toy_config())
        _build(pool[0], "mcscan-exclusive")
        mirror = _build(pool[1], "mcscan-exclusive")
        x, _ = exact_fp16_scan_input(N, rng)
        assert np.array_equal(mirror.execute(x).values, exclusive_scan(x))
        _build(pool[0], "batched-scanu")
        rows = rng.integers(-2, 3, (ROWS, ROW_LEN)).astype(np.float16)
        got = _build(pool[1], "batched-scanu").execute(rows).values
        assert np.array_equal(got, batched_inclusive_scan(rows))

    def test_fault_stretch_on_a_mirror_leaves_the_source_alone(self):
        pool = DevicePool(2, toy_config())
        source = _build(pool[0], "mcscan")
        mirror = _build(pool[1], "mcscan")
        clean = source.replay_timing().total_ns
        pool.inject_faults(1, FaultPlan(seed=1, mte_slowdown=4.0))
        assert mirror.replay_timing().total_ns > clean
        assert source.replay_timing().total_ns == clean
        assert source.time_ns() == mirror.time_ns() == clean


class TestTable:
    def test_d2_pool_traces_each_key_once(self, traces):
        svc = PoolScanService(2, config=toy_config(), max_batch=8)
        workloads = [
            WorkloadKey("1d", 4096, "fp16"),
            WorkloadKey("1d", 2048, "int8"),
            WorkloadKey("1d", 1024, "fp16", exclusive=True),
            WorkloadKey("batched", 256, "fp16", batch=8),
        ]
        report = warm_pool(svc, workloads, buckets=(2, 4))
        keys = len(svc.workers[0].cache)
        assert keys > 1
        assert report.plans_built == 2 * keys
        assert traces == ["dev0"] * keys

    def test_two_pools_never_share(self, traces):
        a = _build(DevicePool(2, toy_config())[0], "scanu")
        b = _build(DevicePool(2, toy_config())[1], "scanu")
        assert a.traced is not b.traced
        assert traces == ["dev0", "dev1"]

    def test_standalone_contexts_never_share(self, traces):
        ctx = ScanContext(toy_config())
        assert ctx.traces is None
        _build(ctx, "scanu")
        _build(ctx, "scanu")
        assert len(traces) == 2

    def test_d1_pool_traces_every_build(self, traces):
        pool = DevicePool(1, toy_config())
        first = _build(pool[0], "mcscan")
        second = _build(pool[0], "mcscan")
        assert second.traced is not first.traced
        assert len(traces) == 2
        standalone = _build(ScanContext(toy_config()), "mcscan")
        _same_timing(first, standalone)

    def test_gm_matches_members_that_trace_for_themselves(self):
        """Mirrors allocate what a trace allocates: after warm-up every
        member of a D=2 pool pins the GM of a D=1 pool's only member."""
        workloads = [
            WorkloadKey("1d", 4096, "fp16"),
            WorkloadKey("1d", 2048, "int8"),
            WorkloadKey("1d", 1024, "fp16", exclusive=True),
        ]
        gm = []
        for devices in (1, 2):
            svc = PoolScanService(devices, config=toy_config(), max_batch=8)
            warm_pool(svc, workloads, buckets=(2, 4))
            gm.append(svc.pool.gm_used_bytes())
        solo, (dev0, dev1) = gm
        assert dev0 == dev1 == solo[0]

    def test_evict_rebuild_and_weak_release(self, rng, traces):
        pool = DevicePool(2, toy_config())
        source = _build(pool[0], "scanu")
        probe = _build(pool[1], "scanu")
        budget = probe.gm_bytes
        probe.release()
        del probe
        cache = PlanCache(pool[1], gm_budget=budget)
        cache.get_1d(cache.key_1d("scanu", N, "fp16", s=16))
        cache.get_1d(cache.key_1d("vector", N, "fp16", s=128))  # evicts the scanu mirror
        assert cache.evictions == 1
        rebuilt = cache.get_1d(cache.key_1d("scanu", N, "fp16", s=16))
        assert rebuilt.traced is source.traced
        x, _ = exact_fp16_scan_input(N, rng)
        assert np.array_equal(rebuilt.execute(x).values, inclusive_scan(x))
        assert traces == ["dev0", "dev1"]  # the vector plan's trace
        # the rebuild evicted the vector plan, and its trace left the table
        table = pool.traces
        assert len(table) == 1
        del source, rebuilt, cache
        gc.collect()
        assert len(table) == 0
        # with no live plan the next build traces again
        _build(pool[1], "scanu")
        assert traces[-1] == "dev1"


class TestValidation:
    def test_unvalidated_source_is_not_mirrored_into_a_validated_build(
        self, traces
    ):
        pool = DevicePool(2, toy_config())
        unchecked = _build(pool[0], "scanu", validate=False)
        assert unchecked.validated is None
        checked = _build(pool[1], "scanu")
        assert checked.validated is True
        assert checked.traced is not unchecked.traced
        # the validated trace is now the pool's source; an unvalidated
        # build may share it, and keeps its verdict
        again = _build(pool[0], "scanu", validate=False)
        assert again.traced is checked.traced and again.validated is True
        assert traces == ["dev0", "dev1"]

    def test_failed_validation_raises_on_every_member(self, monkeypatch):
        phase2 = MCScanKernel.phase2

        def ignores_slot(self, ctx):
            self.carry_slot = False
            try:
                phase2(self, ctx)
            finally:
                self.carry_slot = True

        monkeypatch.setattr(MCScanKernel, "phase2", ignores_slot)
        pool = DevicePool(2, toy_config())
        for member in pool:
            with pytest.raises(KernelError, match="validation failed"):
                _build(member, "mcscan-carry")
        assert len(pool.traces) == 0


class TestTimelineCounters:
    def test_each_member_counts_its_own_replays(self):
        pool = DevicePool(2, toy_config())
        caches = [PlanCache(ctx) for ctx in pool]
        x = np.ones(N, dtype=np.float16)
        launches = (3, 2)
        for cache, count in zip(caches, launches):
            plan = cache.get_1d(cache.key_1d("scanu", N, "fp16", s=16))
            for _ in range(count):
                plan.execute(x)
        stats = [c.stats() for c in caches]
        assert [(s["timeline_misses"], s["timeline_hits"]) for s in stats] == [
            (1, 2), (0, 2)
        ]
        assert sum(
            s["timeline_misses"] + s["timeline_hits"] for s in stats
        ) == sum(launches)

    def test_pool_service_counts_sum_to_launches(self, rng):
        svc = PoolScanService(2, config=toy_config())
        for _ in range(6):
            svc.submit(
                rng.integers(-20, 21, 2048).astype(np.int8),
                algorithm="mcscan", s=16,
            )
        svc.flush()
        counts = [
            w.cache.timeline_hits + w.cache.timeline_misses
            for w in svc.workers
        ]
        assert counts == [w.stats.launch_count for w in svc.workers]
        assert all(counts) and sum(counts) == 6


class TestOneSchedulePerProgram:
    """Mirrors share their source's memoized timeline, so a pool runs the
    scheduler once per traced program, not once per member."""

    def test_sharded_scan(self, rng, schedules):
        scanner = ShardedScanner(DevicePool(2))
        x = rng.integers(-2, 3, 256 * 1024).astype(np.float16)
        scanner.scan(x)
        plans = [plan for memo in scanner._plans.values() for plan in memo]
        assert len(plans) == 2 and plans[1].traced is plans[0].traced
        scheduled = [id(p) for p in schedules]
        assert len(scheduled) == len(set(scheduled))
        phases = {id(t.program) for t in plans[0].phases}
        assert phases <= set(scheduled) <= phases | {id(plans[0].traced.program)}
        schedules.clear()
        scanner.scan(x)
        assert schedules == []

    def test_warm_pool_service(self, rng, schedules):
        svc = PoolScanService(2, config=toy_config())
        workloads = [
            WorkloadKey("1d", 4096, "fp16"),
            WorkloadKey("1d", 2048, "int8"),
            WorkloadKey("1d", 256, "fp16"),
            WorkloadKey("batched", 256, "fp16", batch=8),
        ]
        warm_pool(svc, workloads, buckets=(2, 4))
        # warm-up schedules each traced program once (mirrors share
        # their source's memoized timeline) ...
        traced = {
            id(plan.traced): plan.traced
            for w in svc.workers
            for plan in w.cache._plans.values()
        }
        assert sorted(map(id, schedules)) == sorted(
            id(t.program) for t in traced.values()
        )
        schedules.clear()

        def serve():
            for n, dtype in ((4096, np.float16), (2048, np.int8)):
                for _ in range(3):
                    svc.submit(rng.integers(-2, 3, n).astype(dtype))
            for _ in range(4):
                svc.submit(rng.integers(-2, 3, 256).astype(np.float16))
            svc.flush()

        # ... so not even the first serving pass runs the scheduler
        serve()
        assert schedules == []
        assert all(w.stats.launch_count for w in svc.workers)
        serve()
        assert schedules == []
