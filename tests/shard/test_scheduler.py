"""Continuous batching, deadline admission, and EDF/cost-model routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reference import inclusive_scan
from repro.errors import KernelError
from repro.hw import FaultPlan
from repro.hw.config import toy_config
from repro.serve import Arrival, TrafficSpec
from repro.shard import PoolScanService, TrafficScheduler, run_traffic

S = 16


def pool(devices=2, **kw):
    kw.setdefault("max_batch", 8)
    return PoolScanService(devices, config=toy_config(), **kw)


def spec(**kw) -> TrafficSpec:
    base = dict(
        name="t",
        process="poisson",
        rate_rps=400_000.0,
        requests=64,
        sizes=(256, 1024),
        slo_ns=500_000.0,
    )
    base.update(kw)
    return TrafficSpec(**base)


def _x(n, seed=0):
    return np.random.default_rng(seed).integers(-2, 3, n).astype(np.float16)


class TestContinuousServing:
    def test_serves_everything_bit_identical_to_oracle(self):
        svc = pool()
        admitted = {}
        rep = run_traffic(
            svc, spec(), 1, s=S,
            on_admit=lambda t, x: admitted.__setitem__(t.req_id, x),
        )
        assert rep.accounted()
        assert rep.served == rep.offered and not rep.failed
        for t in rep.tickets:
            assert t.done
            assert np.array_equal(t.result(), inclusive_scan(admitted[t.req_id]))

    def test_deterministic_per_seed(self):
        r1 = run_traffic(pool(), spec(), 7, s=S)
        r2 = run_traffic(pool(), spec(), 7, s=S)
        assert r1.latencies_ns == r2.latencies_ns
        assert r1.launches == r2.launches
        for a, b in zip(r1.tickets, r2.tickets):
            assert a.req_id == b.req_id and np.array_equal(a.values, b.values)

    def test_timestamps_threaded_through_tickets(self):
        rep = run_traffic(pool(), spec(), 2, s=S)
        for t in rep.tickets:
            assert t.t_arrival_ns is not None
            assert t.t_arrival_ns <= t.t_admit_ns <= t.t_complete_ns
            assert t.deadline_ns == pytest.approx(
                t.t_arrival_ns + 500_000.0
            )
            assert t.deadline_met is (t.t_complete_ns <= t.deadline_ns)
            assert t.sim_latency_ns == pytest.approx(
                t.t_complete_ns - t.t_arrival_ns
            )
        stats_hits = sum(1 for t in rep.tickets if t.deadline_met)
        assert rep.deadline_met == stats_hits

    def test_continuous_batches_where_naive_cannot(self):
        s = spec(rate_rps=800_000.0, requests=128, slo_ns=100_000.0)
        cont = run_traffic(pool(), s, 3, s=S)
        naive = run_traffic(pool(), s, 3, policy="naive", s=S)
        assert cont.batched_fraction > 0.5
        assert naive.batched_fraction == 0.0
        assert cont.launches < naive.launches + naive.shed

    def test_continuous_beats_naive_p99_at_load(self):
        """The tentpole claim: under moderate-to-high offered load with a
        tight SLO, per-arrival launching queues up while continuous
        batching amortizes — better p99 *and* better goodput."""
        s = spec(rate_rps=800_000.0, requests=200, slo_ns=100_000.0)
        cont = run_traffic(pool(), s, 1, s=S)
        naive = run_traffic(pool(), s, 1, policy="naive", s=S)
        assert cont.percentile(0.99) < naive.percentile(0.99)
        assert cont.goodput_rps > naive.goodput_rps
        assert cont.deadline_met > naive.deadline_met

    def test_pool_stats_absorb_the_run(self):
        svc = pool()
        rep = run_traffic(svc, spec(), 4, s=S)
        assert svc.pending == 0 and not svc._tickets
        for w in svc.workers:
            assert not w._tickets and len(w.batcher) == 0
        # the simulated span covers the whole run incl. idle gaps, so it
        # is at least the busiest member and at least the last completion
        assert svc.makespan_ns >= max(svc.busy_ns)
        assert svc.makespan_ns == pytest.approx(rep.span_ns)
        assert all(0.0 <= u <= 1.0 for u in svc.device_utilisation())

    def test_unknown_policy_rejected(self):
        with pytest.raises(KernelError, match="traffic policy"):
            TrafficScheduler(pool(), policy="psychic")

    def test_closed_loop_mixing_rejected(self):
        svc = pool()
        sched = TrafficScheduler(svc)
        svc.submit(_x(256), s=S)
        t = sched.offer(
            Arrival(index=0, t_ns=10.0, n=256, deadline_ns=1e9),
            _x(256, 1), s=S,
        )
        assert t is not None
        with pytest.raises(KernelError, match="not supported"):
            # force the staged bucket out: mixing open/closed loop on one
            # batcher would interleave foreign requests into the bucket
            bucket = sched.buckets[0]
            if not bucket.staged:
                sched._stage(bucket)
            sched._dispatch(bucket)


class TestLaunchOrder:
    @pytest.mark.parametrize("seed", [None, 5], ids=["plain", "controlled"])
    def test_singles_complete_in_dispatch_order(self, monkeypatch, seed):
        """Fallback singles finish cumulatively in the order ``_dispatch``
        returns them, which is launch order — also when a schedule
        controller permutes the drain away from request-id order."""
        from repro.verify import ScheduleController

        controller = None if seed is None else ScheduleController(seed)
        # a batching threshold above the 8-row bucket: every group serves
        # as 1-D singles, several to a group
        for module in ("repro.serve.batcher", "repro.shard.service"):
            monkeypatch.setattr(f"{module}.MIN_GROUP", 9)
        svc = pool(controller=controller)
        dispatched = []
        real_dispatch = svc._dispatch

        def spy_dispatch(group, target):
            out = real_dispatch(group, target)
            dispatched.append((group, out[0]))
            return out

        svc._dispatch = spy_dispatch
        stamped = []
        real_complete = TrafficScheduler._complete

        def spy_complete(self, tickets, group, start_ns, end_ns):
            stamped.append([id(t) for t in tickets])
            real_complete(self, tickets, group, start_ns, end_ns)

        monkeypatch.setattr(TrafficScheduler, "_complete", spy_complete)
        rep = run_traffic(svc, spec(), 3, s=S)
        assert rep.served == rep.offered
        assert len(stamped) == len(dispatched)
        multi = 0
        for (group, completed), ids in zip(dispatched, stamped):
            assert ids == [id(t) for t in completed]
            assert [t.req_id for t in completed] == [
                r.req_id for r in group.requests
            ]
            if len(completed) > 1:
                multi += 1
                done = [t.t_complete_ns for t in completed]
                assert all(a < b for a, b in zip(done, done[1:]))
        assert multi


class TestRunState:
    def test_back_to_back_runs_match_fresh_schedulers(self):
        """Each ``run()`` starts from a clean per-run state (clock, member
        frontiers, counters): a reused scheduler reports exactly what a
        fresh scheduler reports on the same pool history."""
        s = spec(requests=40, rate_rps=50_000.0, slo_ns=200_000.0)
        reused_svc, fresh_svc = pool(), pool()
        sched = TrafficScheduler(reused_svc)
        for seed in (1, 2):
            reused = sched.run(s, seed, s=S)
            fresh = TrafficScheduler(fresh_svc).run(s, seed, s=S)
            assert reused.accounted() and fresh.accounted()
            assert (
                reused.served, reused.shed, reused.deadline_met,
                reused.launches, reused.span_ns,
            ) == (
                fresh.served, fresh.shed, fresh.deadline_met,
                fresh.launches, fresh.span_ns,
            )
            assert reused.latencies_ns == fresh.latencies_ns
        assert reused.served == reused.offered
        assert reused_svc.span_ns == fresh_svc.span_ns


class TestPlacement:
    def test_cost_model_ignores_stale_busy_time(self):
        """Placement scores predicted completion from the member's *free
        frontier*, not accumulated ``busy_ns`` — a member with a large
        historical load but an idle device wins over a recently-loaded
        one (the pre-tentpole router could never see this)."""
        svc = pool()
        svc.busy_ns[0] = 1e12  # enormous history, but idle now
        rep = run_traffic(svc, spec(requests=48), 5, s=S)
        served_by = {t.device for t in rep.tickets}
        assert 0 in served_by  # member 0 still serves fresh work

    def test_simultaneous_shape_classes_spread_across_members(self):
        """Two buckets staged at the same instant place on different
        members: the reservation frontier sees the first bucket's
        predicted occupancy when placing the second."""
        svc = pool()
        sched = TrafficScheduler(svc)
        # two full buckets of different shape classes, all at t=0
        for i in range(8):
            sched.offer(
                Arrival(index=i, t_ns=0.0, n=256, deadline_ns=1e9),
                _x(256, i), s=S,
            )
        for i in range(8):
            sched.offer(
                Arrival(index=8 + i, t_ns=0.0, n=1024, deadline_ns=1e9),
                _x(1024, i), s=S,
            )
        staged = [b for b in sched.buckets if b.staged]
        assert len(staged) == 2
        assert staged[0].target != staged[1].target

    def test_edf_orders_ready_buckets(self):
        """Among buckets whose launch time has arrived, the earliest
        deadline dispatches first."""
        svc = pool()
        sched = TrafficScheduler(svc)
        # bucket A: late deadline; bucket B: earlier deadline; both are
        # deadline-staged immediately (tight SLO) at the same instant
        a = sched.offer(
            Arrival(index=0, t_ns=0.0, n=1024, deadline_ns=40_000.0),
            _x(1024), s=S,
        )
        b = sched.offer(
            Arrival(index=1, t_ns=0.0, n=256, deadline_ns=20_000.0),
            _x(256), s=S,
        )
        order = []
        while sched.buckets:
            bucket = sched._next_event()
            if bucket.staged:
                order.append(bucket.deadline_ns)
                sched._dispatch(bucket)
            else:
                sched._stage(bucket)
        assert a.done and b.done
        # ties on event time resolve earliest-deadline-first
        assert order == sorted(order)


class TestAdmissionEdgeCases:
    def test_deadline_expired_at_submit_is_shed(self):
        svc = pool()
        sched = TrafficScheduler(svc)
        t = sched.offer(
            Arrival(index=0, t_ns=1000.0, n=256, deadline_ns=500.0),
            _x(256), s=S,
        )
        assert t is None
        assert sched.stats.shed_requests == 1
        assert not svc._tickets and svc.pending == 0

    def test_infeasible_deadline_is_shed_not_failed(self):
        svc = pool()
        sched = TrafficScheduler(svc)
        # deadline is ahead of the clock but inside the solo service time
        t = sched.offer(
            Arrival(index=0, t_ns=0.0, n=16384, deadline_ns=1.0),
            _x(16384), s=S,
        )
        assert t is None and sched.stats.shed_requests == 1

    def test_multi_row_probe_keeps_the_solo_cost(self):
        """An unbatchable request's k-row prediction is k one-row
        launches; it must not overwrite the memoized one-row cost that
        admission probes, or a feasible solo request is shed."""
        svc = pool()
        req, _ = svc.workers[0]._prepare(
            _x(256), algorithm="mcscan", s=S, req_id=-1
        )
        assert req.row_key is None
        # the solo cost from another pool, so the k-row probe below is
        # the first entry in this pool's cost memo
        solo = pool()._predict_ns(req, 1)
        sched = TrafficScheduler(svc)
        assert svc._predict_ns(req, 3) == solo * 3
        assert svc._predict_ns(req, 1) == solo
        t = sched.offer(
            Arrival(index=0, t_ns=0.0, n=256, deadline_ns=1.5 * solo),
            _x(256), algorithm="mcscan", s=S,
        )
        assert t is not None and sched.stats.shed_requests == 0

    def test_burst_larger_than_max_batch_in_one_tick(self):
        """A single arrival tick bigger than the bucket capacity chunks
        into multiple launches and still serves completely."""
        s = spec(
            process="bursty",
            burst_mean=24.0,  # 3x the 8-row bucket capacity
            requests=48,
            rate_rps=100_000.0,
            slo_ns=5_000_000.0,
            sizes=(512,),
        )
        svc = pool()
        admitted = {}
        rep = run_traffic(
            svc, s, 6, s=S,
            on_admit=lambda t, x: admitted.__setitem__(t.req_id, x),
        )
        assert rep.accounted() and rep.failed == 0
        assert rep.served == rep.offered
        # capacity respected: no launch carried more than the bucket cap
        assert max(t.batch_size for t in rep.tickets) <= 8
        assert rep.batched_fraction > 0.5
        for t in rep.tickets:
            assert np.array_equal(t.result(), inclusive_scan(admitted[t.req_id]))

    def test_same_tick_arrival_joins_bucket_staged_that_tick(self):
        """A partial bucket that deadline-stages at tick t is still
        joinable by an arrival at that same tick (join-in-flight, before
        the device start): both ride one batched launch."""
        svc = pool()
        sched = TrafficScheduler(svc)
        t1 = sched.offer(
            Arrival(index=0, t_ns=0.0, n=1024, deadline_ns=1e9),
            _x(1024, 1), s=S,
        )
        bucket = sched.buckets[0]
        # deadline pressure fires at this tick: the bucket stages partial
        sched._stage(bucket)
        assert bucket.staged and len(bucket.requests) == 1
        # the same-tick arrival joins the *staged* bucket (run() offers
        # arrivals before firing a tied bucket event for exactly this)
        t2 = sched.offer(
            Arrival(index=1, t_ns=0.0, n=1024, deadline_ns=1e9),
            _x(1024, 2), s=S,
        )
        assert len(sched.buckets) == 1 and len(bucket.requests) == 2
        sched._dispatch(bucket)
        assert t1.batched and t2.batched
        assert t1.batch_size == t2.batch_size == 2

    def test_all_dead_pool_sheds_everything_and_drains(self):
        svc = pool()
        svc._dead = [True] * len(svc.workers)
        rep = run_traffic(svc, spec(requests=32), 8, s=S)
        assert rep.accounted()
        assert rep.shed == rep.offered and rep.served == 0
        assert not svc._tickets and svc.pending == 0

    def test_pool_dying_mid_run_fails_tickets_explicitly(self):
        """Members all dying *under* continuous arrivals: already-admitted
        work is failed explicitly (tickets retained), later arrivals are
        shed, and the generator drains with every request accounted."""
        svc = pool()
        seen = []

        def kill_after(t, x):
            seen.append(t)
            if len(seen) == 10:
                for i in range(len(svc.workers)):
                    svc._dead[i] = True

        rep = run_traffic(
            svc, spec(requests=64, slo_ns=5_000_000.0), 9, s=S,
            on_admit=kill_after,
        )
        assert rep.accounted()
        assert rep.shed > 0
        assert rep.failed + rep.served == len(seen)
        for t in rep.failed_tickets:
            assert not t.done and t.deadline_met is False
        assert not svc._tickets and svc.pending == 0
        for w in svc.workers:
            assert not w._tickets and len(w.batcher) == 0


class TestFailover:
    def test_member_death_reroutes_under_load(self):
        svc = PoolScanService(
            2, config=toy_config(), max_batch=8,
            pool=None,
        )
        svc.workers[0].ctx.device.fault_plan = FaultPlan(die_at_launch=2)
        admitted = {}
        rep = run_traffic(
            svc, spec(requests=64, slo_ns=2_000_000.0), 11, s=S,
            on_admit=lambda t, x: admitted.__setitem__(t.req_id, x),
        )
        assert rep.accounted() and rep.failed == 0
        assert rep.served == rep.admitted
        assert svc._dead[0] and not svc._dead[1]
        # everything still serves bit-identical after the failover
        for t in rep.tickets:
            assert np.array_equal(t.result(), inclusive_scan(admitted[t.req_id]))
        # rerouted work landed on the survivor
        assert any(t.device == 1 for t in rep.tickets)
        assert not svc._tickets and svc.pending == 0
