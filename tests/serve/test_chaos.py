"""Fault injection and resilient serving: retry, failover, health.

Covers the three layers the chaos path crosses: the seeded
:class:`~repro.hw.faults.FaultPlan` on the device, the bounded-retry
``ScanService`` above it, and the pool front end's drain-and-reroute
failover — under seeded transient faults and one permanent device loss,
every request completes bit-identical to the oracle and no ticket is
ever lost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import ScanPlan
from repro.core.reference import inclusive_scan
from repro.errors import ConfigError, DeviceFault
from repro.graph import llm_sample
from repro.hw import FaultPlan
from repro.hw.config import toy_config
from repro.serve import DEAD, DEGRADED, HEALTHY, RetryPolicy, ScanService
from repro.shard import DevicePool, PoolScanService
from repro.verify import FUZZ_SEED0

#: every seed in this suite derives from the fuzz corpus root
#: (repro.verify.FUZZ_SEED0), so the example-based chaos tests and the
#: schedule fuzzer draw fault schedules from one seed family — a corpus
#: seed reproduced here and a fuzz seed reproduced there agree on what
#: "seed k" means
SEED0 = FUZZ_SEED0


def _seed(k: int) -> int:
    """The k-th derived seed of the shared chaos/fuzz seed family."""
    return SEED0 + k


def _x(n, seed=0, dtype=np.float16):
    rng = np.random.default_rng((SEED0, seed))
    return rng.integers(-2, 3, n).astype(dtype)


class _AlwaysTransient:
    """Duck-typed fault plan: every launch fails transiently."""

    def __init__(self):
        self.calls = 0

    def on_launch(self, device):
        self.calls += 1
        raise DeviceFault(
            f"boom {self.calls}", device=device, permanent=False
        )

    def stretch_ns(self, trace):
        return 0.0


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(transient_rate=1.0)
        with pytest.raises(ConfigError):
            FaultPlan(mte_slowdown=0.5)
        with pytest.raises(ConfigError):
            FaultPlan(vec_slowdown=0.0)
        with pytest.raises(ConfigError):
            FaultPlan(die_at_launch=-1)

    def test_transient_schedule_is_seed_deterministic(self):
        def outcomes(plan, k=50):
            seq = []
            for _ in range(k):
                try:
                    plan.on_launch("dev0")
                    seq.append(False)
                except DeviceFault as f:
                    assert not f.permanent
                    seq.append(True)
            return seq

        a = outcomes(FaultPlan(seed=_seed(42), transient_rate=0.3))
        b = outcomes(FaultPlan(seed=_seed(42), transient_rate=0.3))
        c = outcomes(FaultPlan(seed=_seed(43), transient_rate=0.3))
        assert a == b
        assert a != c
        assert any(a) and not all(a)

    def test_permanent_death_is_sticky(self):
        plan = FaultPlan(die_at_launch=1)
        plan.on_launch("dev0")  # launch 0: fine
        for _ in range(3):
            with pytest.raises(DeviceFault) as exc:
                plan.on_launch("dev0")
            assert exc.value.permanent
        assert plan.dead
        assert plan.launches == 4

    def test_slowdown_stretches_replayed_trace(self):
        healthy = ScanService(config=toy_config(), min_group=65)
        t0 = healthy.scan(_x(600), algorithm="scanu", s=32)

        slow = ScanService(config=toy_config(), min_group=65)
        slow.ctx.device.fault_plan = FaultPlan(mte_slowdown=2.0)
        t1 = slow.scan(_x(600), algorithm="scanu", s=32)

        assert np.array_equal(t1.result(), t0.result())
        assert t1.device_ns > t0.device_ns
        assert slow.observed_slowdown > 1.0
        assert healthy.observed_slowdown == pytest.approx(1.0)

    def test_describe_mentions_modes(self):
        text = FaultPlan(
            seed=_seed(5), transient_rate=0.2, mte_slowdown=1.5, die_at_launch=3
        ).describe()
        assert f"seed={_seed(5)}" in text and "20%" in text
        assert "mte" in text and "launch 3" in text


class TestServiceRetry:
    def test_transient_faults_retried_to_exact_result(self):
        svc = ScanService(
            config=toy_config(),
            min_group=65,
            retry=RetryPolicy(max_attempts=4),
        )
        svc.ctx.device.fault_plan = FaultPlan(seed=_seed(3), transient_rate=0.4)
        xs = [_x(600, i) for i in range(8)]
        ts = [svc.submit(x, algorithm="scanu", s=32) for x in xs]
        done = svc.flush()
        assert len(done) == len(ts)
        for x, t in zip(xs, ts):
            assert np.array_equal(t.result(), inclusive_scan(x))
        assert svc.stats.fault_events > 0
        assert svc.stats.total_retries == svc.stats.total_faults
        assert svc.stats.total_backoff_ns > 0
        assert sum(t.retries for t in ts) == svc.stats.total_retries
        assert "resilience" in svc.stats.summary()

    def test_backoff_charged_to_device_time(self):
        base = toy_config().costs.relaunch_backoff_ns
        svc = ScanService(
            config=toy_config(),
            min_group=65,
            retry=RetryPolicy(max_attempts=6),
        )
        svc.ctx.device.fault_plan = FaultPlan(seed=_seed(3), transient_rate=0.4)
        ts = [svc.submit(_x(600, i), algorithm="scanu", s=32) for i in range(8)]
        svc.flush()
        faulted = [r for r in svc.stats.launches if r.retries]
        assert faulted
        for r in faulted:
            assert r.backoff_ns >= base * r.retries
        del ts

    def test_retry_exhaustion_keeps_tickets_then_recovers(self):
        svc = ScanService(
            config=toy_config(), retry=RetryPolicy(max_attempts=3)
        )
        plan = _AlwaysTransient()
        svc.ctx.device.fault_plan = plan
        xs = [_x(600, i) for i in range(3)]
        ts = [svc.submit(x, algorithm="scanu", s=32) for x in xs]
        with pytest.raises(DeviceFault) as exc:
            svc.flush()
        assert exc.value.attempts == 3
        assert plan.calls == 3
        # nothing lost: all requests back on the queue, tickets tracked
        assert svc.pending == 3
        assert len(svc._tickets) == 3
        assert not any(t.done for t in ts)
        assert svc.stats.fault_events == 3
        # device repaired: the same queue now serves exactly
        svc.ctx.device.fault_plan = None
        done = svc.flush()
        assert len(done) == 3
        for x, t in zip(xs, ts):
            assert np.array_equal(t.result(), inclusive_scan(x))
        assert svc.pending == 0 and not svc._tickets

    def test_permanent_fault_not_retried(self):
        svc = ScanService(
            config=toy_config(), retry=RetryPolicy(max_attempts=5)
        )
        fault_plan = FaultPlan(die_at_launch=0)
        svc.ctx.device.fault_plan = fault_plan
        svc.submit(_x(600), algorithm="scanu", s=32)
        with pytest.raises(DeviceFault) as exc:
            svc.flush()
        assert exc.value.permanent
        assert exc.value.attempts == 1
        assert fault_plan.launches == 1  # no pointless relaunching

    def test_flush_failure_midway_requeues_later_groups(self):
        """A terminal fault on one group leaves every later group's
        requests queued and ticketed, not dropped (regression for the
        lost-ticket flush bug)."""
        svc = ScanService(config=toy_config(), retry=RetryPolicy(max_attempts=1))
        big = [svc.submit(_x(600, i), algorithm="scanu", s=32) for i in range(3)]
        single = svc.submit(_x(900, 7), algorithm="scanu", s=32)
        svc.ctx.device.fault_plan = _AlwaysTransient()
        with pytest.raises(DeviceFault):
            svc.flush()
        assert svc.pending == 4
        assert len(svc._tickets) == 4
        svc.ctx.device.fault_plan = None
        svc.flush()
        assert all(t.done for t in [*big, single])

    def test_non_fault_exception_keeps_tickets(self, monkeypatch):
        """Exception safety holds for arbitrary launch failures, not only
        DeviceFault (regression: tickets used to be popped before the
        launch could fail).  The serve path launches via
        ``ScanPlan.replay_timing`` (numerics are deferred separately)."""
        from repro.core.api import ScanPlan

        svc = ScanService(config=toy_config())
        ts = [svc.submit(_x(600, i), algorithm="scanu", s=32) for i in range(2)]
        monkeypatch.setattr(
            ScanPlan,
            "replay_timing",
            lambda self, **kw: (_ for _ in ()).throw(RuntimeError("launch bug")),
        )
        with pytest.raises(RuntimeError, match="launch bug"):
            svc.flush()
        assert svc.pending == 2
        assert len(svc._tickets) == 2
        monkeypatch.undo()
        done = svc.flush()
        assert len(done) == 2 and all(t.done for t in ts)

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_ns=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        policy = RetryPolicy(backoff_ns=100.0, backoff_multiplier=2.0)
        assert policy.backoff_for(0, 999.0) == 100.0
        assert policy.backoff_for(2, 999.0) == 400.0
        assert RetryPolicy().backoff_for(1, 50.0) == 100.0


class _CountingList(list):
    """A launch history that counts every walk over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _fold(values):
    """Left-to-right sum from 0: the order the running totals add in."""
    total = 0
    for v in values:
        total += v
    return total


def _chaos_pool(**plans):
    fault_plans = {int(k[3:]): v for k, v in plans.items()}
    return DevicePool(3, toy_config(), fault_plans=fault_plans)


class TestPoolChaos:
    def _submit_mix(self, svc, rounds=2):
        inputs = {}
        for r in range(rounds):
            for n in (600, 900, 2000):
                for i in range(3):
                    x = _x(n, seed=10 * r + i)
                    inputs[svc.submit(x, algorithm="scanu", s=32).req_id] = x
            for i in range(2):
                x = _x(900, seed=100 + 10 * r + i, dtype=np.int8)
                t = svc.submit(x, algorithm="scanul1", s=32)
                inputs[t.req_id] = x
        return inputs

    def test_acceptance_chaos_run(self):
        """ISSUE acceptance: D=3, transient faults up to 20%, one
        permanent loss — every request bit-identical, no ticket lost,
        health/retries/failovers reported."""
        pool = _chaos_pool(
            dev0=FaultPlan(seed=_seed(1), transient_rate=0.2, mte_slowdown=1.3),
            dev1=FaultPlan(seed=_seed(2), die_at_launch=0),
            dev2=FaultPlan(seed=_seed(3), transient_rate=0.2, vec_slowdown=1.2),
        )
        svc = PoolScanService(pool=pool, retry=RetryPolicy(max_attempts=4))
        inputs = self._submit_mix(svc)
        done = svc.flush()
        assert len(done) == len(inputs)
        for t in done:
            assert np.array_equal(t.result(), inclusive_scan(inputs[t.req_id]))
            assert t.device is not None and t.device != 1 or not t.done
        # no ticket lost anywhere
        assert svc.pending == 0 and not svc._tickets
        for worker in svc.workers:
            assert not worker._tickets and len(worker.batcher) == 0
        health = svc.member_health()
        assert health[1].state == DEAD
        assert health[1].failovers >= 1
        assert sum(h.fault_events for h in health) > 0
        members = svc.snapshot()["members"]
        assert members[1]["state"] == DEAD
        assert any(m["state"] == DEGRADED or m["failovers"] for m in members)
        text = svc.summary()
        assert "dead" in text and "failovers" in text

    def test_running_totals_match_history_without_walking_it(self):
        """The pool reads member ``device_ns`` around every launch group;
        those reads are running totals, equal to a re-sum of the launch
        history bit for bit, and nothing on the serving path walks it."""
        pool = _chaos_pool(
            dev0=FaultPlan(seed=_seed(5), transient_rate=0.2, mte_slowdown=1.3),
            dev1=FaultPlan(seed=_seed(6), die_at_launch=40),
            dev2=FaultPlan(seed=_seed(7), transient_rate=0.2, vec_slowdown=1.2),
        )
        svc = PoolScanService(pool=pool, retry=RetryPolicy(max_attempts=4))
        for w in svc.workers:
            w.stats.launches = _CountingList()
        graph = llm_sample(64, k=8, p=0.75, s=16)
        rng = np.random.default_rng(_seed(8))
        submitted = 0
        for _ in range(12):
            submitted += len(self._submit_mix(svc, rounds=1))
            for _ in range(2):
                probs = (rng.permutation(64) + 1).astype(np.float16)
                svc.submit_graph(graph, {"probs": probs})
                submitted += 1
            for _ in range(20):
                try:
                    svc.flush()
                except DeviceFault:
                    continue
                if not svc.pending:
                    break
        assert svc.pending == 0 and not svc._tickets
        assert sum(w.stats.requests for w in svc.workers) == submitted
        assert svc._dead[1] and sum(svc.failovers) >= 1
        assert sum(svc.groups_routed) > 0
        assert sum(w.stats.fault_events for w in svc.workers) > 0
        for w in svc.workers:
            stats = w.stats
            assert stats.launches.walks == 0
            launches = list(stats.launches)
            assert stats.device_ns == _fold(r.device_ns for r in launches)
            assert stats.n_elements == _fold(r.n_elements for r in launches)
            assert stats.coalesced_requests == _fold(
                r.requests for r in launches if r.kind == "batched"
            )
        assert sum(svc.busy_ns) == pytest.approx(
            sum(w.stats.device_ns for w in svc.workers), rel=1e-12
        )

    def test_dead_member_excluded_from_routing(self):
        pool = _chaos_pool(dev1=FaultPlan(die_at_launch=0))
        svc = PoolScanService(pool=pool)
        inputs = self._submit_mix(svc, rounds=1)
        done = svc.flush()
        assert len(done) == len(inputs)
        assert svc._dead[1]
        # fresh traffic after the death never touches member 1
        more = {}
        for i in range(6):
            x = _x(600, seed=500 + i)
            more[svc.submit(x, algorithm="scanu", s=32).req_id] = x
        done2 = svc.flush()
        assert done2 and all(t.device != 1 for t in done2)
        for t in done2:
            assert np.array_equal(t.result(), inclusive_scan(more[t.req_id]))

    def test_routing_weights_busy_time_by_slowdown(self):
        svc = PoolScanService(3, config=toy_config())
        svc.busy_ns = [100.0, 100.0, 100.0]
        svc.workers[0].observed_slowdown = 5.0
        assert svc._route_target() in (1, 2)
        svc.workers[1].observed_slowdown = 2.0
        assert svc._route_target() == 2
        # a dead member never wins, however idle it looks
        svc.busy_ns = [1000.0, 1000.0, 0.0]
        svc._dead[2] = True
        assert svc._route_target() == 1

    def test_all_members_dead_raises_but_keeps_work(self):
        pool = _chaos_pool(
            dev0=FaultPlan(die_at_launch=0),
            dev1=FaultPlan(die_at_launch=0),
            dev2=FaultPlan(die_at_launch=0),
        )
        svc = PoolScanService(pool=pool)
        inputs = self._submit_mix(svc, rounds=1)
        with pytest.raises(DeviceFault) as exc:
            svc.flush()
        assert exc.value.permanent
        assert all(svc._dead)
        # every unserved request is back in the pool queue, ticket tracked
        assert svc.pending == len(inputs)
        assert len(svc._tickets) == len(inputs)
        assert svc.member_health()[0].state == DEAD

    @pytest.mark.parametrize("devices", [1, 2])
    def test_non_fault_exception_keeps_work_queued(self, monkeypatch, devices):
        """An exception that is not a DeviceFault escapes flush like a
        terminal fault does: every drained request is back in the pool
        queue with its ticket tracked, and a later flush serves it."""
        svc = PoolScanService(devices, config=toy_config())
        inputs = {}
        for i in range(3):
            x = _x(600, seed=700 + i)
            inputs[svc.submit(x, algorithm="scanu", s=32).req_id] = x

        def broken(plan, **kwargs):
            raise RuntimeError("replay broke")

        with monkeypatch.context() as patch:
            patch.setattr(ScanPlan, "replay_timing", broken)
            with pytest.raises(RuntimeError, match="replay broke"):
                svc.flush()
        assert svc.pending == 3 and len(svc._tickets) == 3
        done = svc.flush()
        assert len(done) == 3
        for t in done:
            assert np.array_equal(t.result(), inclusive_scan(inputs[t.req_id]))
        assert svc.pending == 0 and not svc._tickets

    def test_healthy_pool_reports_healthy(self):
        svc = PoolScanService(2, config=toy_config())
        inputs = self._submit_mix(svc, rounds=1)
        svc.flush()
        health = svc.member_health()
        assert all(h.state == HEALTHY for h in health)
        assert all(h.retries == 0 and h.failovers == 0 for h in health)
        assert DEGRADED not in {h.state for h in health}
        del inputs

    def test_degraded_member_after_transient_faults(self):
        # _seed(14) is a pinned draw from the shared family that yields
        # several transient faults on dev0's traffic (deflaked: not every
        # derived seed faults under this workload)
        pool = _chaos_pool(dev0=FaultPlan(seed=_seed(14), transient_rate=0.5))
        svc = PoolScanService(pool=pool, retry=RetryPolicy(max_attempts=6))
        inputs = self._submit_mix(svc)
        done = svc.flush()
        assert len(done) == len(inputs)
        health = svc.member_health()
        assert health[0].state == DEGRADED
        assert health[0].fault_events > 0
