"""End-to-end tuner tests: sweep contract, pruning, store integration."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.hw.config import ASCEND_910B4
from repro.serve import ScanService
from repro.tune import (
    TuneStore,
    WorkloadKey,
    default_candidate,
    format_result,
    resolve_candidate,
    tune_workload,
)


@pytest.fixture(scope="module")
def tuned_64k(scan_ctx_module):
    ctx = scan_ctx_module
    store = TuneStore(ctx.config)
    workload = WorkloadKey("1d", 65536, "fp16")
    result = tune_workload(ctx, workload, store=store)
    return ctx, store, workload, result


@pytest.fixture(scope="module")
def scan_ctx_module():
    from repro.core.api import ScanContext

    return ScanContext(ASCEND_910B4)


class TestSweep:
    def test_default_evaluated_first(self, tuned_64k):
        _, _, workload, result = tuned_64k
        assert result.outcomes[0].status == "default"
        assert result.outcomes[0].candidate == default_candidate(workload)
        assert result.outcomes[0].device_ns == result.default_ns

    def test_tuned_never_slower(self, tuned_64k):
        *_, result = tuned_64k
        assert result.best_ns <= result.default_ns
        # on 64K the MCScan family wins big; assert a real improvement
        assert result.speedup > 1.5

    def test_roofline_pruning_bites(self, tuned_64k):
        *_, result = tuned_64k
        assert result.pruned > 0
        assert result.evaluated + result.pruned == len(result.outcomes)
        # pruned candidates' floors must all be >= the final best time
        for o in result.outcomes:
            if o.status == "pruned":
                assert o.floor_ns >= result.best_ns

    def test_winner_recorded_in_store(self, tuned_64k):
        _, store, workload, result = tuned_64k
        e = store.lookup_1d(n=65536, dtype="fp16")
        assert e is not None
        assert (e.algorithm, e.s, e.block_dim) == (
            result.best.algorithm,
            result.best.s,
            result.best.block_dim,
        )
        assert e.tuned_ns == result.best_ns
        assert e.default_ns == result.default_ns

    def test_format_result_mentions_winner(self, tuned_64k):
        *_, result = tuned_64k
        text = format_result(result)
        assert result.workload.store_key in text
        assert result.best.describe() in text

    def test_search_leaves_no_gm_behind(self, scan_ctx_module):
        ctx = scan_ctx_module
        before = ctx.device.memory.used_bytes
        tune_workload(ctx, WorkloadKey("1d", 4096, "fp16"))
        # constants may be newly cached (they persist by design), but no
        # per-candidate tensors survive the sweep
        after = ctx.device.memory.used_bytes
        tune_workload(ctx, WorkloadKey("1d", 4096, "fp16"))
        assert ctx.device.memory.used_bytes == after
        assert after >= before


class TestBatched:
    def test_batched_sweep_contract(self, scan_ctx_module):
        ctx = scan_ctx_module
        workload = WorkloadKey("batched", 2048, "fp16", batch=4)
        result = tune_workload(ctx, workload)
        assert result.best_ns <= result.default_ns
        assert result.outcomes[0].status == "default"


    def test_int8_winner_is_a_validated_plan(self, scan_ctx_module):
        # a ScanUL1 winner here (the fastest config when it was a
        # candidate) built with validation skipped and served sums the
        # device would not produce
        ctx = scan_ctx_module
        store = TuneStore(ctx.config)
        workload = WorkloadKey("batched", 8192, "int8", batch=8)
        result = tune_workload(ctx, workload, store=store)
        assert result.best.algorithm != "scanul1"
        cand, tuned = resolve_candidate(workload, store, peek=True)
        assert tuned and cand == result.best and cand.layout == "batched"
        assert cand.block_dim is None
        plan = ctx.build_batched_plan(
            algorithm=cand.algorithm, batch=8, row_len=8192, dtype="int8",
            s=cand.s,
        )
        assert plan.validated is True
        plan.release()


class TestTunedPlans:
    """Resolve a workload against the store, then build the config."""

    def test_build_plan_applies_store_entry(self, tuned_64k):
        ctx, store, workload, result = tuned_64k
        cand, tuned = resolve_candidate(workload, store)
        assert tuned and cand == result.best
        plan = ctx.build_plan(
            algorithm=cand.algorithm, n=65536, dtype="fp16", s=cand.s,
            block_dim=cand.block_dim,
        )
        x = np.ones(65536, dtype=np.float16)
        out = plan.execute(x)
        np.testing.assert_array_equal(
            out.values, np.arange(1, 65537, dtype=np.float32)
        )
        assert out.trace.total_ns == pytest.approx(result.best_ns)

    def test_build_plan_miss_falls_back_to_default(self, tuned_64k):
        ctx, store, _, _ = tuned_64k
        workload = WorkloadKey("1d", 3333, "fp16")
        cand, tuned = resolve_candidate(workload, store)  # miss
        assert not tuned and cand == default_candidate(workload)
        plan = ctx.build_plan(algorithm=cand.algorithm, n=3333, s=cand.s)
        assert (plan.algorithm, plan.s, plan.tuned) == ("scanu", 128, False)
        plan.release()

    def test_released_plan_frees_gm_and_refuses_execute(self, scan_ctx_module):
        ctx = scan_ctx_module
        before = ctx.device.memory.used_bytes
        plan = ctx.build_plan(algorithm="scanul1", n=4096, dtype="fp16", s=128)
        grew = ctx.device.memory.used_bytes - before
        assert grew > 0
        freed = plan.release()
        assert freed > 0
        assert ctx.device.memory.used_bytes <= before + (grew - freed)
        assert plan.release() == 0  # idempotent
        with pytest.raises(KernelError):
            plan.execute(np.ones(4096, dtype=np.float16))


class TestTunedServing:
    """A service consulting the tuned store serves the tuned plan."""

    def test_service_serves_tuned_plan_exact_and_never_slower(self, tuned_64k):
        ctx, store, _, _ = tuned_64k
        svc = ScanService(config=ctx.config, tune_store=store)
        x = np.ones(65536, dtype=np.float16)
        tuned = svc.scan(x)
        default = svc.scan(x, algorithm="scanu", s=128)
        assert tuned.tuned and not default.tuned
        assert svc.stats.tuned_launches == 1
        assert svc.snapshot()["tuned_hit_rate"] == 0.5
        assert tuned.device_ns <= default.device_ns
        np.testing.assert_array_equal(
            tuned.result(), np.arange(1, 65537, dtype=np.float32)
        )
