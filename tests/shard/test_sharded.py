"""Sharded 1-D scan: partitioning, differential exactness, timing model."""

import numpy as np
import pytest

from repro.core.api import PLANTED_CARRY, ScanContext
from repro.core.mcscan import MCScanKernel
from repro.core.reference import exact_fp16_scan_input, inclusive_scan
from repro.core.replay import validation_input
from repro.errors import ConfigError, KernelError, ShapeError
from repro.hw.config import toy_config
from repro.hw.datatypes import as_dtype
from repro.shard import DevicePool, ShardedScanner, shard_ranges
from repro.tune import TunedEntry, TuneStore


@pytest.fixture()
def pool():
    return DevicePool(3, toy_config())


class TestShardRanges:
    def test_covers_input_contiguously(self):
        ranges = shard_ranges(10_000, 3, 256)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 10_000
        for (_, e1), (s2, _) in zip(ranges, ranges[1:]):
            assert e1 == s2

    def test_interior_boundaries_unit_aligned(self):
        for n in (10_000, 65_536, 12_345):
            for d in (1, 2, 3, 4):
                for start, end in shard_ranges(n, d, 256)[:-1]:
                    assert start % 256 == 0
                    assert end % 256 == 0

    def test_balanced_at_unit_granularity(self):
        ranges = shard_ranges(40 * 256, 4, 256)
        sizes = [e - s for s, e in ranges]
        assert max(sizes) - min(sizes) <= 256

    def test_short_input_drops_empty_shards(self):
        ranges = shard_ranges(100, 4, 256)
        assert ranges == [(0, 100)]
        assert len(shard_ranges(300, 4, 256)) == 2

    def test_single_shard_is_whole_input(self):
        assert shard_ranges(999, 1, 256) == [(0, 999)]

    def test_validation(self):
        with pytest.raises(ShapeError):
            shard_ranges(0, 2, 256)
        with pytest.raises(ShapeError):
            shard_ranges(100, 0, 256)
        with pytest.raises(ShapeError):
            shard_ranges(100, 2, 0)


class TestDifferential:
    """Sharded output must be bit-identical to the core.reference oracle,
    on the folded path (D >= 2 mcscan) and the carry path (D = 1)."""

    @pytest.mark.parametrize("num_devices", range(1, 9))
    @pytest.mark.parametrize("n", [4096, 12_345, 50_000])
    def test_fp16_exact_bit_identical(self, rng, num_devices, n):
        pool = DevicePool(num_devices, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, expected = exact_fp16_scan_input(n, rng)
        result = scanner.scan(x)
        assert result.folded == (result.num_devices > 1)
        assert result.values.dtype == np.float32
        assert np.array_equal(result.values, inclusive_scan(x))
        assert np.array_equal(result.values, expected)

    @pytest.mark.parametrize("num_devices", range(1, 9))
    @pytest.mark.parametrize("n", [4096, 12_345, 50_000])
    def test_int8_bit_identical(self, rng, num_devices, n):
        pool = DevicePool(num_devices, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x = rng.integers(-30, 31, size=n).astype(np.int8)
        result = scanner.scan(x)
        assert result.folded == (result.num_devices > 1)
        assert result.values.dtype == np.int32
        assert np.array_equal(result.values, inclusive_scan(x))

    def test_non_divisible_shard_sizes(self, rng):
        # n chosen so the tail shard is unpadded and shards are uneven
        pool = DevicePool(3, toy_config())
        scanner = ShardedScanner(pool, algorithm="scanul1", s=16)
        x, _ = exact_fp16_scan_input(257 * 3 + 1, rng)
        result = scanner.scan(x)
        assert np.array_equal(result.values, inclusive_scan(x))

    def test_other_algorithms_agree(self, rng):
        x, _ = exact_fp16_scan_input(20_000, rng)
        ref = inclusive_scan(x)
        for algorithm in ("scanu", "scanul1", "ssa"):
            pool = DevicePool(2, toy_config())
            scanner = ShardedScanner(pool, algorithm=algorithm, s=16)
            assert np.array_equal(scanner.scan(x).values, ref)


class TestScanner:
    def test_shard_records_cover_input(self, pool, rng):
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, _ = exact_fp16_scan_input(30_000, rng)
        result = scanner.scan(x)
        assert result.num_devices == 3
        assert result.shards[0].start == 0
        assert result.shards[-1].end == 30_000
        assert sum(r.n for r in result.shards) == 30_000
        assert result.n_elements == 30_000

    @pytest.mark.parametrize("algorithm", ["mcscan", "scanul1"])
    def test_wall_clock_is_two_stage_max(self, pool, rng, algorithm):
        scanner = ShardedScanner(pool, algorithm=algorithm, s=16)
        x, _ = exact_fp16_scan_input(30_000, rng)
        _assert_two_stage_wall(scanner.scan(x), folded=algorithm == "mcscan")

    def test_mixed_phase_seams_fall_back_to_carry_pass(self, rng):
        """A tuned non-MCScan shard plan has no phase seam, so the scan
        runs scan-then-propagate — including a carry pass over the MCScan
        plan of device 1, traced the first time it is needed."""
        cfg = toy_config()
        store = TuneStore(cfg)
        store.record(
            "1d:6400:fp16:i",
            TunedEntry(
                algorithm="scanul1", s=16, block_dim=None, layout="1d",
                tuned_ns=1.0, default_ns=2.0,
            ),
        )
        pool = DevicePool(2, cfg, tune_store=store)
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16, tuned=True)
        x, _ = exact_fp16_scan_input(6400 + 6144, rng)
        result = scanner.scan(x)
        assert [r.n for r in result.shards] == [6400, 6144]
        assert [r.tuned for r in result.shards] == [True, False]
        assert np.array_equal(result.values, inclusive_scan(x))
        _assert_two_stage_wall(result, folded=False)

    def test_single_device_has_no_carry_stage(self, rng):
        scanner = ShardedScanner(DevicePool(1, toy_config()), s=16)
        x, _ = exact_fp16_scan_input(4096, rng)
        assert scanner.scan(x).carry_stage_ns == 0.0

    def test_plans_memoized_across_scans(self, pool, rng):
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, _ = exact_fp16_scan_input(30_000, rng)
        first = scanner.scan(x)
        assert all(not r.plan_hit for r in first.shards)
        built = scanner.plans_built
        again = scanner.scan(x)
        assert all(r.plan_hit for r in again.shards)
        assert scanner.plans_built == built

    def test_lengths_in_one_pad_class_share_plans(self, rng):
        """Tail shards of different raw lengths that pad to one plan
        length reuse the memoized plan: no new build, no new GM."""
        pool = DevicePool(2, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        # 12 units of 256 split 6 + 6: every tail below pads to 6 * 256
        lengths = [11 * 256 + 5, 11 * 256 + 6, 11 * 256 + 60, 12 * 256]
        x = rng.integers(-128, 128, size=lengths[0]).astype(np.int8)
        assert np.array_equal(scanner.scan(x).values, inclusive_scan(x))
        built, used = scanner.plans_built, pool.gm_used_bytes()
        for n in lengths[1:]:
            x = rng.integers(-128, 128, size=n).astype(np.int8)
            result = scanner.scan(x)
            assert np.array_equal(result.values, inclusive_scan(x))
            assert all(r.plan_hit for r in result.shards)
            assert result.shards[-1].padded == 6 * 256
        assert scanner.plans_built == built
        assert pool.gm_used_bytes() == used

    def test_tuned_plan_with_finer_pad_unit_serves_only_its_lengths(
        self, rng
    ):
        """A tuned s=16 plan (pad unit 256) memoized under the scanner's
        s=32 pad class (1024) must not serve a length it cannot hold."""
        cfg = toy_config()
        store = TuneStore(cfg)
        store.record(
            "1d:300:int8:i",
            TunedEntry(
                algorithm="mcscan", s=16, block_dim=None, layout="1d",
                tuned_ns=1.0, default_ns=2.0,
            ),
        )
        scanner = ShardedScanner(
            DevicePool(1, cfg, tune_store=store), s=32, tuned=True
        )
        for n, tuned, padded, built in [
            (300, True, 512, 1),  # tuned plan, padded at unit 256
            (900, False, 1024, 2),  # same s=32 class, pads past 512
            (400, True, 512, 2),  # pads to 512: reuses the tuned plan
        ]:
            x = rng.integers(-128, 128, size=n).astype(np.int8)
            result = scanner.scan(x)
            (record,) = result.shards
            assert np.array_equal(result.values, inclusive_scan(x))
            assert (record.tuned, record.padded) == (tuned, padded)
            assert scanner.plans_built == built

    def test_rejects_bad_inputs(self, pool, rng):
        scanner = ShardedScanner(pool, s=16)
        with pytest.raises(ShapeError):
            scanner.scan(np.zeros((2, 8), dtype=np.float16))
        with pytest.raises(ShapeError):
            scanner.scan(np.zeros(0, dtype=np.float16))
        with pytest.raises(KernelError):
            ShardedScanner(pool, algorithm="vector")
        with pytest.raises(KernelError):
            ShardedScanner(pool, algorithm="nope")

    def test_pool_validates_device_count(self):
        with pytest.raises(ConfigError):
            DevicePool(0, toy_config())

    def test_release_frees_pool_gm(self, pool, rng):
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, _ = exact_fp16_scan_input(30_000, rng)
        scanner.scan(x)
        used = pool.gm_used_bytes()
        freed = scanner.release()
        assert freed > 0
        assert all(a < b for a, b in zip(pool.gm_used_bytes(), used))

    def test_tuned_vector_entry_falls_back_to_cube(self, rng):
        """A tuned store recommending the vector baseline (input-dtype
        output) must not break the accumulator-dtype carry chain."""
        cfg = toy_config()
        store = TuneStore(cfg)
        n = 8192  # one 2-device shard of 16384
        store.record(
            f"1d:{n}:fp16:i",
            TunedEntry(
                algorithm="vector", s=0, block_dim=None, layout="1d",
                tuned_ns=1.0, default_ns=2.0,
            ),
        )
        pool = DevicePool(2, cfg, tune_store=store)
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16, tuned=True)
        x, _ = exact_fp16_scan_input(16_384, rng)
        result = scanner.scan(x)
        assert result.values.dtype == np.float32
        assert np.array_equal(result.values, inclusive_scan(x))
        assert all(not r.tuned for r in result.shards)


class TestAdversarialBoundaries:
    """Wide pools (D > 4) and shard sizes engineered to sit exactly on,
    just above, or just below the s^2 tile boundary (s=16 -> 256), where
    the padded-tail and carry-chain paths are most fragile."""

    @pytest.mark.parametrize("num_devices", [6, 8])
    @pytest.mark.parametrize("n", [6 * 256 - 1, 6 * 256, 6 * 256 + 1,
                                   8 * 256 + 1, 40_000])
    def test_fp16_exact_wide_pool(self, rng, num_devices, n):
        pool = DevicePool(num_devices, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, expected = exact_fp16_scan_input(n, rng)
        result = scanner.scan(x)
        assert np.array_equal(result.values, expected)
        assert sum(r.n for r in result.shards) == n

    @pytest.mark.parametrize("num_devices", range(1, 9))
    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_int8_exact_at_tile_multiples(self, rng, num_devices, k, delta):
        """size = k*s^2 +/- 1 per intended shard: every interior boundary
        stays unit-aligned while the tail shard absorbs the remainder."""
        n = num_devices * k * 256 + delta
        pool = DevicePool(num_devices, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x = rng.integers(-30, 31, size=n).astype(np.int8)
        result = scanner.scan(x)
        assert result.folded == (num_devices > 1)
        assert np.array_equal(result.values, inclusive_scan(x))
        for start, end in [(r.start, r.end) for r in result.shards][:-1]:
            assert end % 256 == 0

    @pytest.mark.parametrize("num_devices", range(1, 9))
    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_fp16_exact_at_tile_multiples(self, rng, num_devices, k, delta):
        n = num_devices * k * 256 + delta
        pool = DevicePool(num_devices, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, expected = exact_fp16_scan_input(n, rng)
        result = scanner.scan(x)
        assert result.folded == (num_devices > 1)
        assert np.array_equal(result.values, expected)

    def test_single_element_tail_shard(self, rng):
        """shard_ranges(513, 3, 256) -> [0,256), [256,512), [512,513):
        the last device scans exactly one element and its carry still
        lands correctly."""
        assert shard_ranges(513, 3, 256) == [(0, 256), (256, 512), (512, 513)]
        pool = DevicePool(3, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, _ = exact_fp16_scan_input(513, rng)
        result = scanner.scan(x)
        assert result.shards[-1].n == 1
        assert np.array_equal(result.values, inclusive_scan(x))

    def test_more_devices_than_units_drops_idle_members(self, rng):
        """An 8-device pool on a 3-unit input uses only 3 shards; the
        idle members contribute neither time nor output."""
        pool = DevicePool(8, toy_config())
        scanner = ShardedScanner(pool, algorithm="mcscan", s=16)
        x, _ = exact_fp16_scan_input(3 * 256 + 5, rng)
        result = scanner.scan(x)
        assert result.num_devices <= 4
        assert np.array_equal(result.values, inclusive_scan(x))

    @pytest.mark.parametrize("algorithm", ["scanu", "scanul1", "ssa"])
    def test_other_algorithms_agree_at_d6(self, rng, algorithm):
        x, _ = exact_fp16_scan_input(6 * 700 + 1, rng)
        pool = DevicePool(6, toy_config())
        scanner = ShardedScanner(pool, algorithm=algorithm, s=16)
        assert np.array_equal(scanner.scan(x).values, inclusive_scan(x))

    @pytest.mark.parametrize("algorithm", ["mcscan", "scanul1"])
    def test_wide_pool_carry_chain_timing(self, rng, algorithm):
        """At D=6 the two-stage makespan law still holds on both paths."""
        pool = DevicePool(6, toy_config())
        scanner = ShardedScanner(pool, algorithm=algorithm, s=16)
        x, _ = exact_fp16_scan_input(60_000, rng)
        result = scanner.scan(x)
        assert result.num_devices == 6
        _assert_two_stage_wall(result, folded=algorithm == "mcscan")


class TestDeviceCarry:
    """The folded path's device carry: an MCScan plan built with a carry
    slot is traced with a planted carry and validated against
    ``fp32(local scan) + carry``."""

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_build_proves_the_planted_carry(self, dtype):
        ctx = ScanContext(toy_config())
        plan = ctx.build_plan(
            algorithm="mcscan", n=5000, dtype=dtype, s=16, device_carry=True
        )
        assert plan.validated
        assert len(plan.phases) == 2
        sample = validation_input(plan.padded, as_dtype(dtype), seed=plan.padded)
        local = inclusive_scan(sample)
        want = local + local.dtype.type(PLANTED_CARRY)
        assert np.array_equal(plan.y_gm.to_numpy(), want)
        # the host numerics stay the plain local scan
        assert np.array_equal(plan.compute(sample[:4999]), local[:4999])

    def test_phase_ii_ignoring_the_carry_slot_fails_validation(
        self, monkeypatch
    ):
        """Planted mutation: a phase II that reads ``r`` as if it had no
        carry slot must be refused at build."""
        phase2 = MCScanKernel.phase2

        def ignores_slot(self, ctx):
            self.carry_slot = False
            try:
                phase2(self, ctx)
            finally:
                self.carry_slot = True

        monkeypatch.setattr(MCScanKernel, "phase2", ignores_slot)
        ctx = ScanContext(toy_config())
        with pytest.raises(KernelError, match="validation failed"):
            ctx.build_plan(
                algorithm="mcscan", n=5000, dtype="int8", s=16,
                device_carry=True,
            )

    def test_only_mcscan_plans_get_phases(self):
        ctx = ScanContext(toy_config())
        assert ctx.build_plan(algorithm="mcscan", n=5000, s=16).phases == ()
        plan = ctx.build_plan(
            algorithm="scanul1", n=5000, s=16, device_carry=True
        )
        assert plan.phases == ()


def _assert_two_stage_wall(result, *, folded: bool) -> None:
    """Folded: no carry stage, and the wall is max(phase I) + max(phase
    II).  Carry path: the wall is max scan + max carry, and only device
    0 skips the carry pass."""
    assert result.folded == folded
    assert result.wall_ns == result.scan_stage_ns + result.carry_stage_ns
    if folded:
        phase1 = max(r.phase_ns[0] for r in result.shards)
        phase2 = max(r.phase_ns[1] for r in result.shards)
        assert result.wall_ns == phase1 + phase2
        assert result.carry_stage_ns == 0.0
        assert all(r.carry_ns == 0.0 for r in result.shards)
        assert all(r.scan_ns == sum(r.phase_ns) for r in result.shards)
    else:
        assert result.scan_stage_ns == max(r.scan_ns for r in result.shards)
        assert result.carry_stage_ns == max(
            r.carry_ns for r in result.shards[1:]
        )
        assert result.shards[0].carry_ns == 0.0
        assert all(r.carry_ns > 0 for r in result.shards[1:])


def test_four_devices_beat_one_on_a_1m_scan(rng):
    """Sharding a 1M fp16 scan over D=4 full-size devices beats one
    device on simulated wall clock, with identical values."""
    x, _ = exact_fp16_scan_input(1 << 20, rng)
    multi = ShardedScanner(DevicePool(4), algorithm="mcscan").scan(x)
    single = ShardedScanner(DevicePool(1), algorithm="mcscan").scan(x)
    assert np.array_equal(multi.values, single.values)
    assert np.array_equal(multi.values, inclusive_scan(x))
    assert multi.wall_ns < single.wall_ns
