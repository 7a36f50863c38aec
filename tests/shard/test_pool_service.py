"""Device-pool serving: routing, correctness, shared tuning, reporting."""

import json

import numpy as np
import pytest

from repro.core.reference import exact_fp16_scan_input, inclusive_scan
from repro.errors import ConfigError
from repro.graph import Graph, GraphRunner, llm_sample, scan_pipeline, sort_graph
from repro.graph.fuse import lowering_units
from repro.hw.config import ASCEND_910B4, toy_config
from repro.hw.faults import FaultPlan
from repro.serve import DEAD, ScanService, render
from repro.shard import DevicePool, PoolScanService
from repro.tune import TuneStore, WorkloadKey, warm_tune_store


@pytest.fixture()
def svc():
    return PoolScanService(2, config=toy_config())


def _submit_mix(svc, rng, *, fp16_reqs=8, int8_reqs=4):
    inputs = {}
    for _ in range(fp16_reqs):
        x, _e = exact_fp16_scan_input(4096, rng)
        ticket = svc.submit(x)
        inputs[ticket.req_id] = x
    for _ in range(int8_reqs):
        x = rng.integers(-20, 21, size=2048).astype(np.int8)
        ticket = svc.submit(x, algorithm="mcscan", s=16)
        inputs[ticket.req_id] = x
    return inputs


#: the graph-mix trio's sizes: the pipeline carries 8x the sampler's
#: input elements but about half of its device time
VOCAB, PIPE_N, SORT_N = 2048, 16384, 4096
#: a standalone top_p_sample, which keeps its sort: 1,024 probabilities
#: and 1,024 ids, an eighth of the pipeline's elements
SAMPLER_N = 1024


def _sampler_graph():
    g = Graph(name="top_p")
    probs = g.add_input("probs", "fp16", (SAMPLER_N,))
    ids = g.add_input("ids", "int32", (SAMPLER_N,))
    # the fixed s=128 tile keeps the sampler over 5x the pipeline's
    # device time (the tile rule would bring it to about 4x)
    params = {"p": 0.9, "s": 128}
    g.set_outputs(list(g.add_node("t", "top_p_sample", [probs, ids], params)))
    g.validate()
    return g


@pytest.fixture(scope="module")
def trio():
    return (
        llm_sample(VOCAB, k=32, prep=("abs", "double")),
        scan_pipeline(PIPE_N, pre=("abs",), post=("double",)),
        sort_graph(SORT_N),
    )


def _trio_jobs(trio, rng, copies=2):
    llm, pipe, sort = trio
    jobs = []
    for _ in range(copies):
        jobs.append((llm, {"probs": (rng.permutation(VOCAB) + 1).astype(np.float16)}))
        jobs.append((pipe, {"x": rng.integers(-2, 3, PIPE_N).astype(np.float16)}))
        jobs.append((sort, {"x": rng.integers(-1000, 1000, SORT_N).astype(np.float16)}))
    return jobs


@pytest.fixture(scope="module")
def lowered(trio):
    """A graph runner that has already lowered the trio."""
    svc = PoolScanService(2, graph_fusion="aggressive")
    for graph, inputs in _trio_jobs(trio, np.random.default_rng(7), copies=1):
        svc.submit_graph(graph, inputs)
    svc.flush()
    return svc.workers[0].graph_runner


def _graph_pool(runner, devices=2, **kwargs):
    svc = PoolScanService(devices, graph_fusion="aggressive", **kwargs)
    svc.workers[0].graph_runner = runner
    return svc


class TestRoutingAndCorrectness:
    def test_results_match_oracle_on_every_device(self, svc, rng):
        inputs = _submit_mix(svc, rng)
        done = svc.flush()
        assert len(done) == len(inputs)
        for ticket in done:
            assert np.array_equal(
                ticket.result(), inclusive_scan(inputs[ticket.req_id])
            )

    def test_multiple_devices_actually_serve(self, svc, rng):
        _submit_mix(svc, rng)
        done = svc.flush()
        assert sorted({t.device for t in done}) == [0, 1]

    def test_groups_are_not_split_across_devices(self, svc, rng):
        """All requests of one launch group land on one member, so pool
        routing never costs a batching win."""
        inputs = _submit_mix(svc, rng, fp16_reqs=6, int8_reqs=0)
        done = svc.flush()
        shapes = {}
        for t in done:
            shapes.setdefault((t.n, t.dtype, t.algorithm), set()).add(t.device)
        for devices in shapes.values():
            assert len(devices) == 1
        assert all(t.batched for t in done)
        assert len(inputs) == 6

    def test_lpt_prefers_least_loaded(self, rng):
        svc = PoolScanService(2, config=toy_config(), max_batch=1)
        # one heavy group and several light ones: LPT places the heavy one
        # first, lights fill the other member
        heavy, _ = exact_fp16_scan_input(65_536, rng)
        svc.submit(heavy, algorithm="mcscan", s=16)
        light_inputs = []
        for _ in range(3):
            x, _e = exact_fp16_scan_input(4096, rng)
            svc.submit(x, algorithm="scanu", s=16)
            light_inputs.append(x)
        done = svc.flush()
        heavy_dev = done[0].device
        assert all(t.device != heavy_dev for t in done[1:])

    def test_submit_order_preserved_in_flush(self, svc, rng):
        inputs = _submit_mix(svc, rng)
        done = svc.flush()
        assert [t.req_id for t in done] == sorted(inputs)

    def test_busy_accounting_and_makespan(self, svc, rng):
        _submit_mix(svc, rng)
        svc.flush()
        assert svc.makespan_ns == max(svc.busy_ns)
        assert svc.throughput_gelems > 0
        util = svc.device_utilisation()
        assert len(util) == 2
        assert max(util) == 1.0
        assert svc.total_requests == 12

    def test_empty_flush_is_harmless(self, svc):
        assert svc.flush() == []
        assert svc.makespan_ns == 0.0
        assert svc.device_utilisation() == [0.0, 0.0]


class TestBalancedPlacement:
    """Flush places launch units, heaviest source group first, onto the
    member with the least predicted completion within the round."""

    def test_graph_mix_trio_gives_each_member_one_of_each(
        self, trio, lowered, rng
    ):
        svc = _graph_pool(lowered)
        tickets = [svc.submit_graph(g, x) for g, x in _trio_jobs(trio, rng)]
        svc.flush()
        served = {0: [], 1: []}
        for t in tickets:
            served[t.device].append(t.graph)
        assert sorted(served[0]) == sorted(served[1]) == sorted(
            g.name for g in trio
        )
        # a perfectly balanced round: its span is half its device time
        assert svc.span_ns == sum(svc.busy_ns) / 2
        assert svc.span_ns == pytest.approx(
            sum(t.device_ns for t in tickets) / 2, rel=1e-12
        )
        assert svc.device_utilisation() == [1.0, 1.0]

    def test_lifetime_busy_history_does_not_move_placement(
        self, trio, lowered, rng
    ):
        jobs = _trio_jobs(trio, rng)
        placements = []
        for busy in ([0.0, 0.0], [1e9, 0.0]):
            svc = _graph_pool(lowered)
            svc.busy_ns = busy
            tickets = [svc.submit_graph(g, x) for g, x in jobs]
            svc.flush()
            placements.append([t.device for t in tickets])
        assert placements[0] == placements[1]
        assert sorted(set(placements[0])) == [0, 1]

    def test_units_go_in_source_group_padded_order(self, trio, lowered, rng):
        """Units keep the group-at-a-time serving (and lowering) order:
        heaviest source group by padded elements first, a group's requests
        together — not per-request padded elements, not predicted ns."""
        _, pipe, sort = trio
        svc = _graph_pool(lowered, devices=1)
        jobs = _trio_jobs(trio, rng, copies=5)
        sampler_t = svc.submit_graph(
            _sampler_graph(),
            {
                "probs": (rng.permutation(SAMPLER_N) + 1).astype(np.float16),
                "ids": np.arange(SAMPLER_N, dtype=np.int32),
            },
        )
        pipe_t = svc.submit_graph(*jobs[1])
        sort_ts = [svc.submit_graph(g, x) for g, x in jobs if g is sort]
        svc.flush()
        # five sorts outweigh one pipeline by padded elements, and the
        # pipeline outweighs the sampler although it is under a fifth of
        # the sampler's device time
        assert 5 * sort_ts[0].n > pipe_t.n == 8 * sampler_t.n
        assert 5 * pipe_t.device_ns < sampler_t.device_ns
        launched = [r.n_elements for r in svc.workers[0].stats.launches]
        assert launched == [t.n for t in sort_ts] + [pipe_t.n, sampler_t.n]

    def test_flush_of_lowered_graphs_only_peeks(
        self, trio, lowered, rng, monkeypatch
    ):
        svc = _graph_pool(lowered)
        lowers = []
        original = GraphRunner.lower

        def counting(runner, graph):
            lowers.append(graph.name)
            return original(runner, graph)

        monkeypatch.setattr(GraphRunner, "lower", counting)
        cache, plans = lowered.cache, lowered.plans
        before = (cache.hits, cache.misses, plans.hits, plans.misses)
        jobs = _trio_jobs(trio, rng)
        for graph, inputs in jobs:
            svc.submit_graph(graph, inputs)
        svc.flush()
        # serving looks each request's lowering up once; the cost probes
        # add no lowering call, no counted hit and no miss
        assert len(lowers) == len(jobs)
        units = sum(len(lowering_units(g, "aggressive", lowered.config)) for g, _ in jobs)
        assert cache.hits - before[0] == units
        assert (cache.misses, plans.hits, plans.misses) == before[1:]
        assert all(w.cache.hits == w.cache.misses == 0 for w in svc.workers)

    def test_cost_model_error_in_snapshot(self, trio, lowered, rng):
        jobs = _trio_jobs(trio, rng)
        svc = _graph_pool(lowered)
        for graph, inputs in jobs:
            svc.submit_graph(graph, inputs)
        svc.flush()
        for member in svc.snapshot()["members"]:
            assert member["cost_model"] == {
                "units": 3, "err_mean": 0.0, "err_max": 0.0
            }
        assert "cost model err mean 0.00% / max 0.00% over 3 units" in (
            svc.summary()
        )
        # a slowed member serves longer than its memoized timelines say
        pool = DevicePool(
            2, ASCEND_910B4, fault_plans={1: FaultPlan(mte_slowdown=3.0)}
        )
        svc = PoolScanService(pool=pool, graph_fusion="aggressive")
        svc.workers[0].graph_runner = lowered
        for graph, inputs in jobs:
            svc.submit_graph(graph, inputs)
        svc.flush()
        healthy, slowed = (m["cost_model"] for m in svc.snapshot()["members"])
        assert healthy["err_max"] == 0.0
        assert 0.0 < slowed["err_mean"] <= slowed["err_max"]


class TestFlushInvariants:
    """Satellite: flush ordering and accounting invariants that the
    failover rework must preserve."""

    def test_submit_order_across_multiple_flush_rounds(self, svc, rng):
        seen = []
        for _ in range(3):
            inputs = _submit_mix(svc, rng, fp16_reqs=5, int8_reqs=3)
            done = svc.flush()
            assert [t.req_id for t in done] == sorted(inputs)
            seen.extend(t.req_id for t in done)
        # ids are globally monotonic across rounds too
        assert seen == sorted(seen)

    def test_busy_ns_matches_worker_device_time(self, svc, rng):
        for _ in range(2):
            _submit_mix(svc, rng)
            svc.flush()
        for i, worker in enumerate(svc.workers):
            assert svc.busy_ns[i] == pytest.approx(worker.stats.device_ns)
        # across rounds the true span accumulates per-round maxima: never
        # below the busiest member, never above fully-serialized rounds
        assert max(svc.busy_ns) <= svc.makespan_ns <= sum(svc.busy_ns)

    def test_makespan_counts_idle_between_rounds(self, svc, rng):
        """A member that dominates round 1 and idles in round 2 must not
        report 100% utilisation: the pool span keeps growing with every
        round (the old ``max(busy_ns)`` definition pinned the busiest
        member at exactly 1.0 forever)."""
        _submit_mix(svc, rng)
        svc.flush()
        busy_r1 = list(svc.busy_ns)
        crit = busy_r1.index(max(busy_r1))
        other = 1 - crit
        assert 0.0 < busy_r1[other] < busy_r1[crit]
        # round 2: round 1's critical member looks 1000x slower, so it
        # idles while the other member serves the whole round
        svc.workers[crit].observed_slowdown = 1000.0
        _submit_mix(svc, rng)
        svc.flush()
        assert svc.busy_ns[crit] == busy_r1[crit]
        assert svc.busy_ns[other] > busy_r1[other]
        util = svc.device_utilisation()
        # each member idled for part of the accumulated span
        assert max(util) < 1.0
        assert all(0.0 < u < 1.0 for u in util)

    def test_utilisation_reports_dead_members_explicitly(self, svc, rng):
        _submit_mix(svc, rng)
        svc.flush()
        svc._dead[1] = True
        report = svc.utilisation()
        assert [r["member"] for r in report] == [0, 1]
        assert report[1]["dead"] is True and report[1]["state"] == DEAD
        assert report[0]["dead"] is False
        for r in report:
            assert 0.0 <= r["fraction"] <= 1.0
            assert r["busy_ns"] == svc.busy_ns[r["member"]]

    def test_utilisation_sums_and_bounds_under_skewed_mix(self, rng):
        svc = PoolScanService(3, config=toy_config(), max_batch=1)
        heavy, _ = exact_fp16_scan_input(65_536, rng)
        svc.submit(heavy, algorithm="mcscan", s=16)
        for _ in range(5):
            x, _e = exact_fp16_scan_input(4096, rng)
            svc.submit(x, algorithm="scanu", s=16)
        svc.flush()
        util = svc.device_utilisation()
        assert max(util) == 1.0
        assert all(0.0 <= u <= 1.0 for u in util)
        # utilisation is busy/makespan, so the sum matches total busy time
        assert sum(util) == pytest.approx(
            sum(svc.busy_ns) / svc.makespan_ns
        )
        # every request was served by exactly one worker launch
        assert sum(len(w.stats.launches) for w in svc.workers) == 6
        assert svc.total_requests == 6

    def test_every_ticket_resolved_after_flush(self, svc, rng):
        inputs = _submit_mix(svc, rng)
        done = svc.flush()
        assert {t.req_id for t in done} == set(inputs)
        assert svc.pending == 0 and not svc._tickets
        for worker in svc.workers:
            assert not worker._tickets and len(worker.batcher) == 0


class TestRouterCostModel:
    """Satellite: the LPT cost proxy must charge batched groups by the
    rows they actually carry, not their bucket capacity."""

    def test_padded_elements_charges_actual_rows(self):
        from repro.serve import LaunchGroup, PlanKey, ScanRequest

        reqs = [
            ScanRequest(req_id=i, x=np.zeros(100, np.float16), t_submit=0.0)
            for i in range(5)
        ]
        group = LaunchGroup(
            key=PlanKey("scanu", 128, "fp16", 8, 16),
            requests=reqs,
            batched=True,
            bucket=8,
        )
        # 5 rows in an 8-bucket cost 5 padded rows — not 8 (the pre-fix
        # capacity charge that over-weighted half-full buckets)
        assert group.padded_elements == 128 * 5

    def test_capacity_charging_misplaces_groups(self, rng):
        """Regression for the pre-fix router: three batched shape classes
        whose bucket-capacity costs all tie at 8192 padded elements while
        their real element counts (and simulated launch times) differ.
        The old proxy therefore sorted them in submission order and built
        a strictly worse LPT schedule than actual-rows costing does."""

        def build(svc):
            r = np.random.default_rng(0)
            for rows, n in [(3, 2048), (7, 1024), (2, 4096)]:
                for _ in range(rows):
                    x = r.integers(-2, 3, n).astype(np.float16)
                    svc.submit(x, algorithm="scanu", s=16)

        fixed = PoolScanService(2, config=toy_config(), max_batch=16)
        build(fixed)
        fixed.flush()

        # emulate the pre-fix router: same groups, sorted by the old
        # capacity-based cost, placed least-loaded exactly like flush
        old = PoolScanService(2, config=toy_config(), max_batch=16)
        build(old)
        groups = old.batcher.drain()
        groups.sort(
            key=lambda g: g.key.padded * (g.bucket or len(g.requests)),
            reverse=True,
        )
        for g in groups:
            target = min(range(2), key=lambda i: old.busy_ns[i])
            served, leftover, fault = old._dispatch(g, target)
            assert leftover is None and fault is None
        assert max(fixed.busy_ns) < max(old.busy_ns)


class TestSharedTuning:
    def test_one_store_serves_all_members(self, rng):
        cfg = toy_config()
        store = TuneStore(cfg)
        ctx_pool = DevicePool(2, cfg, tune_store=store)
        workload = WorkloadKey(kind="1d", n=4096, dtype="fp16")
        warm_tune_store([workload], store)
        assert len(store) == 1
        # a second warm-up is a no-op: the store already covers it
        assert warm_tune_store([workload], store).skipped == 1

        svc = PoolScanService(pool=ctx_pool, tune_store=store)
        inputs = {}
        for _ in range(4):
            x, _e = exact_fp16_scan_input(4096, rng)
            t = svc.submit(x)  # no explicit config: store decides
            inputs[t.req_id] = x
        done = svc.flush()
        assert all(t.tuned for t in done)
        for t in done:
            assert np.array_equal(
                t.result(), inclusive_scan(inputs[t.req_id])
            )

    def test_summary_reports_per_device_lines(self, svc, rng):
        _submit_mix(svc, rng)
        svc.flush()
        text = svc.summary()
        assert "dev0" in text and "dev1" in text
        assert "makespan" in text
        assert "% of makespan" in text

    def test_pool_devices_are_named(self):
        pool = DevicePool(3, toy_config())
        assert [d.name for d in pool.devices] == ["dev0", "dev1", "dev2"]


def _run_pool(devices=3):
    svc = PoolScanService(devices, config=toy_config())
    rng = np.random.default_rng(5)
    inputs = {}
    for _ in range(10):
        x, _ = exact_fp16_scan_input(4096, rng)
        inputs[svc.submit(x).req_id] = x
    for _ in range(6):
        x = rng.integers(-20, 21, size=2048).astype(np.int8)
        inputs[svc.submit(x, algorithm="scanu", s=16).req_id] = x
    done = svc.flush()
    out = {
        t.req_id: (t.result().tobytes(), t.device, t.device_ns)
        for t in done
    }
    return inputs, out, svc


class TestSerialHostPath:
    """The pool does all host work serially: a member's tickets are
    finished inside ``_dispatch``, and the serial-only keywords reject
    anything else."""

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "death"])
    def test_dispatch_returns_finished_tickets(self, rng, faulty):
        svc = PoolScanService(3, config=toy_config(), max_batch=4)
        if faulty:
            svc.workers[0].ctx.device.fault_plan = FaultPlan(die_at_launch=1)
        inputs = _submit_mix(svc, rng, fp16_reqs=10, int8_reqs=6)
        real = svc._dispatch
        returned = []

        def checked(group, target):
            served, leftover, fault = real(group, target)
            # every ticket is done, with its values, when _dispatch returns
            for ticket in served:
                assert ticket.done
                assert np.array_equal(
                    ticket.result(), inclusive_scan(inputs[ticket.req_id])
                )
            returned.extend(served)
            return served, leftover, fault

        svc._dispatch = checked
        done = svc.flush()
        assert sorted(t.req_id for t in returned) == sorted(inputs)
        assert {t.req_id for t in done} == set(inputs)
        if faulty:
            assert sum(svc.failovers) > 0

    def test_parallel_keyword_accepts_only_none(self):
        with pytest.raises(ConfigError):
            PoolScanService(2, config=toy_config(), parallel=2)
        assert len(PoolScanService(2, config=toy_config(), parallel=None)) == 2

    @pytest.mark.parametrize("devices", [2, 4])
    def test_pool_run_is_deterministic(self, devices):
        inputs, first, svc1 = _run_pool(devices)
        _, again, svc2 = _run_pool(devices)
        assert first == again  # bits, routing and simulated time
        assert svc1.busy_ns == svc2.busy_ns
        assert svc1.makespan_ns == svc2.makespan_ns
        for req_id, (raw, _dev, _ns) in first.items():
            assert inclusive_scan(inputs[req_id]).tobytes() == raw

    def test_pool_snapshot_has_one_entry_per_member(self):
        *_, svc = _run_pool()
        snap = svc.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        members = snap["members"]
        assert [m["member"] for m in members] == [0, 1, 2]
        assert snap["pool"]["requests"] == 16
        assert sum(m["requests"] for m in members) == 16
        for m, worker in zip(members, svc.workers):
            assert m["busy_ns"] == svc.busy_ns[m["member"]]
            assert m["launches"] == worker.stats.launch_count
            assert m["plan_cache"] == worker.cache.stats()

    def test_pool_summary_renders_snapshot(self):
        svc = PoolScanService(2, config=toy_config())
        x, _ = exact_fp16_scan_input(512, np.random.default_rng(0))
        svc.submit(x)
        svc.flush()
        text = svc.summary()
        assert text == render(svc.snapshot())
        assert "dev0" in text and "dev1" in text


class TestSingleQueue:
    """Each request is grouped once, by the drain that queued it: a pool
    member serves the routed group as it stands, so ``ScanService`` and
    the pool at any size launch the same things."""

    def test_tail_chunk_parity_across_pool_sizes(self):
        # 5 same-shape requests at max_batch=4: one 4-row batched launch
        # plus the 1-row tail, which is below MIN_GROUP and so goes to
        # the 1-D fallback (a single launch) everywhere
        rng = np.random.default_rng(8)
        xs = [exact_fp16_scan_input(512, rng)[0] for _ in range(5)]
        served = {}
        for name, svc in [
            ("service", ScanService(config=toy_config(), max_batch=4)),
            ("pool1", PoolScanService(1, config=toy_config(), max_batch=4)),
            ("pool2", PoolScanService(2, config=toy_config(), max_batch=4)),
        ]:
            tickets = [svc.submit(x, algorithm="scanu", s=16) for x in xs]
            svc.flush()
            workers = getattr(svc, "workers", [svc])
            kinds = sorted(
                (r.kind, r.requests) for w in workers for r in w.stats.launches
            )
            assert kinds == [("batched", 4), ("single", 1)], name
            served[name] = [
                (t.batched, t.batch_size, t.device_ns, t.result().tobytes())
                for t in tickets
            ]
        assert served["pool1"] == served["service"]
        assert served["pool2"] == served["service"]
        for x, (_, _, _, values) in zip(xs, served["service"]):
            assert values == inclusive_scan(x).tobytes()
