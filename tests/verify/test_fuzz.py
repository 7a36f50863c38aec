"""Schedule fuzzer: workload matrix, replay determinism, invariant
checker sensitivity, shrinking, and the committed seed corpus.

The acceptance test for the whole harness lives here too: a deliberately
re-introduced failover recall bug must be caught within 100 fuzz seeds
and shrunk to a minimal decision trace.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.config import toy_config
from repro.shard import DevicePool, PoolScanService
from repro.verify import (
    FUZZ_SEED0,
    WORKLOAD_MATRIX,
    ServeInvariantChecker,
    WorkloadSpec,
    failure_to_json,
    load_corpus,
    replay_corpus,
    run_fuzz,
    run_seed,
    shrink_trace,
)
from repro.verify.fuzz import _SPEC_BY_NAME, _warm


class TestWorkloadMatrix:
    def test_names_unique_and_resolvable(self):
        names = [spec.name for spec in WORKLOAD_MATRIX]
        assert len(names) == len(set(names))
        assert set(_SPEC_BY_NAME) == set(names)

    def test_matrix_spans_the_fault_space(self):
        assert any(s.num_devices >= 4 for s in WORKLOAD_MATRIX)
        assert any(s.dtype == "int8" for s in WORKLOAD_MATRIX)
        assert any(s.transient for s in WORKLOAD_MATRIX)
        assert any(s.deaths for s in WORKLOAD_MATRIX)
        assert any(s.slow for s in WORKLOAD_MATRIX)
        assert any(s.gm_budget for s in WORKLOAD_MATRIX)
        assert any(s.exclusive_mix for s in WORKLOAD_MATRIX)

    def test_sizes_straddle_the_padding_unit(self):
        for spec in WORKLOAD_MATRIX:
            unit = spec.s * spec.s
            assert any(n < unit for n in spec.sizes)
            assert any(n >= unit for n in spec.sizes)

    def test_total_death_spec_rejected(self):
        with pytest.raises(ConfigError, match="kills every member"):
            WorkloadSpec(name="doomed", num_devices=2, deaths=((0, 1), (1, 2)))

    def test_describe_mentions_fault_profile(self):
        spec = _SPEC_BY_NAME["mixed-fp16-d4"]
        text = spec.describe()
        assert "D=4" in text and "transient" in text and "deaths" in text


class TestRunSeed:
    @pytest.mark.parametrize(
        "name", ["clean-fp16-d1", "transient-fp16-d1", "death-fp16-d2"]
    )
    def test_sample_specs_pass(self, name):
        result = run_seed(_SPEC_BY_NAME[name], 3)
        assert result.ok, [v.describe() for v in result.violations]
        assert result.served == _SPEC_BY_NAME[name].requests
        assert result.trace  # a controller actually steered the run

    def test_seed_determinism(self):
        spec = _SPEC_BY_NAME["transient-fp16-d1"]
        a = run_seed(spec, 7)
        b = run_seed(spec, 7)
        assert a.trace == b.trace
        assert (a.served, a.flush_faults, a.ok) == (
            b.served,
            b.flush_faults,
            b.ok,
        )

    def test_trace_replay_is_deterministic(self):
        spec = _SPEC_BY_NAME["transient-fp16-d1"]
        live = run_seed(spec, 7)
        replay = run_seed(spec, 7, trace=live.trace)
        assert replay.trace == live.trace
        assert replay.served == live.served
        assert replay.ok == live.ok

    def test_canonical_replay_differs_from_hot_seed(self):
        """Replaying an empty trace pins the canonical schedule; a seed
        whose live run made non-canonical picks serves the same requests
        but down a different schedule (fewer / zero divergences)."""
        spec = _SPEC_BY_NAME["transient-fp16-d1"]
        live = run_seed(spec, 7)
        assert any(d.pick for d in live.trace)
        canonical = run_seed(spec, 7, trace=[])
        assert canonical.ok
        assert not any(d.pick for d in canonical.trace)
        assert canonical.served == live.served


class TestInvariantChecker:
    def _service(self, spec):
        config = toy_config()
        pool = DevicePool(spec.num_devices, config)
        svc = PoolScanService(pool=pool, config=config, max_batch=8)
        _warm(spec, svc)
        return svc

    def test_clean_run_has_no_violations(self):
        spec = _SPEC_BY_NAME["clean-fp16-d1"]
        svc = self._service(spec)
        checker = ServeInvariantChecker(svc)
        xs = [(np.arange(200) % 5 - 2).astype(np.float16) for _ in range(4)]
        tickets = [svc.submit(x, algorithm="scanu", s=16) for x in xs]
        for t, x in zip(tickets, xs):
            checker.expect(t, x)
        checker.observe(svc.flush())
        assert checker.finish() == []

    def test_lost_ticket_flagged(self):
        spec = _SPEC_BY_NAME["clean-fp16-d1"]
        svc = self._service(spec)
        checker = ServeInvariantChecker(svc)
        x = (np.arange(200) % 5 - 2).astype(np.float16)
        t = svc.submit(x, algorithm="scanu", s=16)
        checker.expect(t, x)
        svc.flush()
        checker.observe([])  # pretend the flush returned nothing
        violations = checker.finish()
        assert any(
            v.invariant == "exactly_once" and "lost" in v.detail
            for v in violations
        )

    def test_double_resolution_flagged(self):
        spec = _SPEC_BY_NAME["clean-fp16-d1"]
        svc = self._service(spec)
        checker = ServeInvariantChecker(svc)
        x = (np.arange(200) % 5 - 2).astype(np.float16)
        t = svc.submit(x, algorithm="scanu", s=16)
        checker.expect(t, x)
        done = list(svc.flush())
        checker.observe(done)
        checker.observe(done)  # the same ticket returned twice
        assert any(
            v.invariant == "exactly_once" and "resolved 2 times" in v.detail
            for v in checker.finish()
        )

    def test_corrupted_result_flagged(self):
        spec = _SPEC_BY_NAME["clean-fp16-d1"]
        svc = self._service(spec)
        checker = ServeInvariantChecker(svc)
        x = (np.arange(200) % 5 - 2).astype(np.float16)
        t = svc.submit(x, algorithm="scanu", s=16)
        checker.expect(t, x)
        done = list(svc.flush())
        done[0].values[0] += 1  # bit-flip the served result
        checker.observe(done)
        assert any(v.invariant == "oracle" for v in checker.finish())

    def test_unexpected_completion_flagged(self):
        spec = _SPEC_BY_NAME["clean-fp16-d1"]
        svc = self._service(spec)
        checker = ServeInvariantChecker(svc)
        x = (np.arange(200) % 5 - 2).astype(np.float16)
        svc.submit(x, algorithm="scanu", s=16)
        # never expect()ed: completion must be flagged as unsubmitted
        checker.observe(svc.flush())
        assert any(
            v.invariant == "exactly_once" and "never submitted" in v.detail
            for v in checker.violations
        )


class TestShrinking:
    def test_non_reproducing_failure_returns_trace_unchanged(self):
        """If the recorded schedule does not actually fail (a data bug,
        not a schedule bug), shrinking must not pretend otherwise."""
        spec = _SPEC_BY_NAME["clean-fp16-d1"]
        good = run_seed(spec, 3)
        assert good.ok
        assert shrink_trace(spec, 3, good.trace) == good.trace


class TestSeedCorpus:
    def test_corpus_loads_and_references_known_specs(self):
        entries = load_corpus()
        assert entries
        for e in entries:
            assert e.spec in _SPEC_BY_NAME
            assert e.seed >= 0
            assert e.note  # every pinned seed documents why it is pinned

    def test_corpus_replays_clean(self):
        report = replay_corpus()
        assert report.seeds_run == len(load_corpus())
        assert report.ok, report.describe()

    def test_unknown_spec_rejected(self, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text(
            json.dumps(
                {"version": 1, "entries": [{"spec": "no-such", "seed": 1}]}
            )
        )
        with pytest.raises(ConfigError, match="unknown workload"):
            load_corpus(bad)


def _plant_recall_drop(monkeypatch) -> None:
    """Plant a realistic off-by-one in the pool's failover recall: the
    last recalled request silently drops out of the rerouted group while
    its ticket stays in pool custody."""
    original = PoolScanService._recall

    def buggy(self, group, fault):
        leftover = original(self, group, fault)
        if self.controller is not None and len(leftover.requests) > 1:
            leftover.requests = leftover.requests[:-1]
        return leftover

    monkeypatch.setattr(PoolScanService, "_recall", buggy)


class TestAcceptance:
    def test_reintroduced_drain_order_bug_caught_and_shrunk(
        self, monkeypatch
    ):
        """Silently dropping the last request recalled after a member
        fault must be caught within 100 seeds, and the failing seed must
        shrink to a minimal decision trace."""
        _plant_recall_drop(monkeypatch)
        report = run_fuzz(seeds=100, shrink=True, max_failures=1)
        assert not report.ok, "the planted recall bug was never caught"
        failure = report.failures[0]
        assert failure.seed < 100
        assert any(
            v.invariant in ("exactly_once", "crash")
            for v in failure.violations
        )
        assert failure.shrunk is not None
        assert len(failure.shrunk) <= len(failure.trace)
        # the shrunk schedule still reproduces while the bug is planted
        bad = run_seed(
            _SPEC_BY_NAME[failure.spec], failure.seed, trace=failure.shrunk
        )
        assert not bad.ok

    def test_failure_serialises_to_json(self, monkeypatch):
        _plant_recall_drop(monkeypatch)
        report = run_fuzz(seeds=100, shrink=True, max_failures=1)
        assert report.failures
        blob = json.dumps(failure_to_json(report.failures[0]))
        data = json.loads(blob)
        assert data["spec"] in _SPEC_BY_NAME
        assert isinstance(data["trace"], list)
        assert data["violations"]


class TestFuzzLoop:
    def test_smoke_slice_over_full_matrix(self):
        report = run_fuzz(seeds=len(WORKLOAD_MATRIX), shrink=False)
        assert report.ok, report.describe()
        assert report.seeds_run == len(WORKLOAD_MATRIX)
        assert set(report.per_spec) == set(_SPEC_BY_NAME)
        assert report.served > 0
        assert report.decisions > 0

    def test_fifty_seed_sweep_holds_every_invariant(self):
        """50 seeds round-robin over the workload matrix: every
        linearizability invariant holds on every seed, with real faults
        absorbed and real schedule decisions made along the way."""
        report = run_fuzz(seeds=50, shrink=False)
        assert report.ok, report.describe()
        assert report.seeds_run == 50
        assert set(report.per_spec) == set(_SPEC_BY_NAME)
        assert report.flush_faults > 0
        assert report.decisions > 0

    def test_report_describe_mentions_outcome(self):
        report = run_fuzz(seeds=2, shrink=False)
        text = report.describe()
        assert "2 seed(s)" in text
        assert "all invariants held" in text

    def test_progress_callback_sees_every_seed(self):
        calls = []
        run_fuzz(
            seeds=4,
            shrink=False,
            progress=lambda done, total, fails: calls.append(
                (done, total, fails)
            ),
        )
        assert calls == [(1, 4, 0), (2, 4, 0), (3, 4, 0), (4, 4, 0)]

    def test_input_data_depends_only_on_seed(self):
        """Request payloads derive from (FUZZ_SEED0, seed) alone — the
        same rng construction the chaos suite uses — so schedule
        decisions can never perturb the data."""
        rng_a = np.random.default_rng((FUZZ_SEED0, 9))
        rng_b = np.random.default_rng((FUZZ_SEED0, 9))
        assert np.array_equal(
            rng_a.integers(-2, 3, 64), rng_b.integers(-2, 3, 64)
        )


class TestFusedGraphMix:
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_fused_mix_green_across_pool_sizes(self, devices):
        """The fusion=aggressive graph workload stays invariant-clean at
        D in {1, 2, 4} — fused-region replay, per-kernel retry and the
        graph-ticket oracle seam are pool-size independent."""
        base = _SPEC_BY_NAME["graph-fused-mix"]
        spec = dataclasses.replace(
            base,
            name=f"graph-fused-d{devices}",
            num_devices=devices,
            transient=tuple(m for m in base.transient if m < devices),
        )
        result = run_seed(spec, 3)
        assert result.ok, [v.describe() for v in result.violations]
        assert result.served == spec.requests

    def test_fused_spec_is_in_matrix_and_corpus(self):
        assert _SPEC_BY_NAME["graph-fused-mix"].graph_fused
        assert any(
            e.spec == "graph-fused-mix" for e in load_corpus()
        )
