"""Search-space enumeration and roofline-floor soundness tests."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.hw.config import ASCEND_910B4, toy_config
from repro.tune import (
    SWEEP_S,
    Candidate,
    WorkloadKey,
    candidate_floor_ns,
    default_candidate,
    enumerate_candidates,
)


class TestWorkloadKey:
    def test_1d_store_key(self):
        assert WorkloadKey("1d", 4096, "fp16").store_key == "1d:4096:fp16:i"
        assert (
            WorkloadKey("1d", 4096, "fp16", exclusive=True).store_key
            == "1d:4096:fp16:x"
        )

    def test_batched_store_key(self):
        w = WorkloadKey("batched", 8192, "fp16", batch=8)
        assert w.store_key == "batched:8x8192:fp16"

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadKey("2d", 4096, "fp16")

    def test_bad_n_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadKey("1d", 0, "fp16")

    def test_batch_consistency_enforced(self):
        with pytest.raises(ConfigError):
            WorkloadKey("1d", 4096, "fp16", batch=8)
        with pytest.raises(ConfigError):
            WorkloadKey("batched", 4096, "fp16")
        with pytest.raises(ConfigError):
            WorkloadKey("batched", 4096, "fp16", batch=0)

    def test_bad_dtype_rejected(self):
        with pytest.raises(Exception):
            WorkloadKey("1d", 4096, "complex128")


class TestEnumerate:
    def test_default_is_first_and_unique(self):
        for w in (
            WorkloadKey("1d", 65536, "fp16"),
            WorkloadKey("1d", 4096, "fp16", exclusive=True),
            WorkloadKey("batched", 8192, "fp16", batch=8),
        ):
            cands = enumerate_candidates(ASCEND_910B4, w)
            assert cands[0] == default_candidate(w)
            assert len(cands) == len(set(cands))

    def test_1d_covers_all_sweep_sizes(self):
        cands = enumerate_candidates(ASCEND_910B4, WorkloadKey("1d", 1 << 20, "fp16"))
        for s in SWEEP_S:
            assert any(c.s == s for c in cands if c.algorithm != "vector")
        # the vector baseline is in the space exactly once
        assert sum(1 for c in cands if c.algorithm == "vector") == 1

    def test_exclusive_restricts_to_mcscan(self):
        cands = enumerate_candidates(
            ASCEND_910B4, WorkloadKey("1d", 65536, "fp16", exclusive=True)
        )
        assert all(c.algorithm == "mcscan" for c in cands)

    def test_batched_space_includes_both_layouts(self):
        cands = enumerate_candidates(
            ASCEND_910B4, WorkloadKey("batched", 8192, "fp16", batch=8)
        )
        layouts = {c.layout for c in cands}
        assert layouts == {"batched", "1d"}
        # a batched plan key carries no block_dim, so no served batched
        # plan could use anything but the kernel's own: none is searched
        assert all(c.block_dim is None for c in cands if c.layout == "batched")
        assert any(c.block_dim is not None for c in cands if c.layout == "1d")
        assert sum(c.layout == "batched" for c in cands) == 1 + 2 * len(SWEEP_S)

    @pytest.mark.parametrize(
        "workload",
        [WorkloadKey("1d", 65536, "int8"), WorkloadKey("batched", 8192, "int8", batch=8)],
        ids=["1d", "batched"],
    )
    def test_int8_never_offers_scanul1(self, workload):
        # ScanUL1's C1 staging wraps on int8, so its device sums differ
        # from the served ones; fp16 keeps it in both layouts
        cands = enumerate_candidates(ASCEND_910B4, workload)
        assert not any(c.algorithm == "scanul1" for c in cands)
        fp16 = enumerate_candidates(ASCEND_910B4, replace(workload, dtype="fp16"))
        assert {c.layout for c in fp16 if c.algorithm == "scanul1"} == {
            c.layout for c in cands
        }

    def test_block_dims_respect_core_and_tile_limits(self):
        # 65536 fp16 at s=128 is 4 tiles: the bd sweep must stay <= 4
        cands = enumerate_candidates(ASCEND_910B4, WorkloadKey("1d", 65536, "fp16"))
        for c in cands:
            if c.algorithm in ("mcscan", "ssa", "rss", "lookback") and c.s == 128:
                assert c.block_dim is None or c.block_dim < 4


class TestFloors:
    @pytest.mark.parametrize(
        "workload",
        [
            WorkloadKey("1d", 65536, "fp16"),
            WorkloadKey("batched", 2048, "fp16", batch=4),
        ],
        ids=["1d", "batched"],
    )
    def test_floor_is_a_sound_lower_bound(self, scan_ctx, workload):
        """Every candidate's roofline floor must not exceed its measured
        device time — otherwise pruning could discard the true winner."""
        from repro.tune import evaluate_candidate

        cands = enumerate_candidates(scan_ctx.config, workload)
        # keep the sweep cheap: measure a representative slice
        sample = [c for c in cands if c.block_dim in (None, 4)][:12]
        for cand in sample:
            floor = candidate_floor_ns(scan_ctx.config, workload, cand)
            cost = evaluate_candidate(scan_ctx, workload, cand)
            assert floor <= cost.device_ns, cand.describe()

    def test_floor_positive_and_monotone_in_n(self):
        cand = Candidate("scanu", 128)
        small = candidate_floor_ns(ASCEND_910B4, WorkloadKey("1d", 4096, "fp16"), cand)
        large = candidate_floor_ns(
            ASCEND_910B4, WorkloadKey("1d", 1 << 22, "fp16"), cand
        )
        assert 0 < small <= large

    def test_toy_config_floors_differ(self):
        # floors must respond to the device config, not just the shape:
        # a multi-core candidate gets fewer lanes and more Mmads per core
        # on the 2-core toy device than on the 20-core 910B4
        cand = Candidate("mcscan", 16)
        w = WorkloadKey("1d", 1 << 20, "fp16")
        assert candidate_floor_ns(toy_config(), w, cand) > candidate_floor_ns(
            ASCEND_910B4, w, cand
        )
