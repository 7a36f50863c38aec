"""Radix sort tests (encode/decode, RadixSingle, full operator)."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.graph import GraphRunner
from repro.graph.service import sort_graph
from repro.hw.config import ASCEND_910B4
from repro.lang import intrinsics
from repro.ops import split
from repro.ops.radix import (
    decode_fp16_np,
    encode_fp16_np,
    radix_keys_np,
    radix_pad_value,
)
from repro.ops.split import DigitSplitKernel


class TestEncoding:
    def test_roundtrip(self, rng):
        x = rng.standard_normal(1000).astype(np.float16)
        assert np.array_equal(decode_fp16_np(encode_fp16_np(x)), x)

    def test_order_preserving(self, rng):
        x = rng.standard_normal(1000).astype(np.float16)
        e = encode_fp16_np(x)
        order_x = np.argsort(x.astype(np.float32), kind="stable")
        order_e = np.argsort(e, kind="stable")
        assert np.array_equal(x[order_x], x[order_e])

    def test_special_values(self):
        x = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], dtype=np.float16)
        e = encode_fp16_np(x).astype(np.int64)
        # strictly monotone except -0.0/0.0 which may tie-order arbitrarily
        assert e[0] < e[1] < e[2]
        assert e[3] < e[4] < e[5]
        assert e[2] < e[4]

    def test_roundtrip_infinities(self):
        x = np.array([np.inf, -np.inf], dtype=np.float16)
        assert np.array_equal(decode_fp16_np(encode_fp16_np(x)), x)


class TestRadixSort:
    def test_fp16_values_and_indices(self, ops, rng):
        n = 30000
        x = rng.standard_normal(n).astype(np.float16)
        res = ops.radix_sort(x)
        assert np.array_equal(res.values, np.sort(x))
        assert np.array_equal(
            res.indices, np.argsort(x.astype(np.float32), kind="stable")
        )

    def test_descending(self, ops, rng):
        x = rng.standard_normal(20000).astype(np.float16)
        res = ops.radix_sort(x, descending=True)
        assert np.array_equal(res.values, np.sort(x)[::-1])
        # indices consistent with values
        assert np.array_equal(x[res.indices], res.values)

    def test_uint16(self, ops, rng):
        x = rng.integers(0, 65536, 20000).astype(np.uint16)
        res = ops.radix_sort(x)
        assert np.array_equal(res.values, np.sort(x))
        assert np.array_equal(res.indices, np.argsort(x, kind="stable"))

    def test_uint16_descending(self, ops, rng):
        x = rng.integers(0, 65536, 10000).astype(np.uint16)
        res = ops.radix_sort(x, descending=True)
        assert np.array_equal(res.values, np.sort(x)[::-1])

    def test_negative_heavy(self, ops, rng):
        x = (-np.abs(rng.standard_normal(10000)) * 100).astype(np.float16)
        res = ops.radix_sort(x)
        assert np.array_equal(res.values, np.sort(x))

    def test_duplicates_stable(self, ops, rng):
        x = rng.integers(0, 4, 10000).astype(np.float16)
        res = ops.radix_sort(x)
        # stability: indices of equal values are increasing
        for v in np.unique(x):
            idx = res.indices[res.values == v]
            assert np.all(np.diff(idx) > 0)

    def test_small_input(self, ops, rng):
        x = rng.standard_normal(100).astype(np.float16)
        res = ops.radix_sort(x)
        assert np.array_equal(res.values, np.sort(x))

    def test_sixteen_split_iterations(self, ops, rng):
        """LSB radix over 16-bit keys: one split per bit (Section 5)."""
        x = rng.standard_normal(20000).astype(np.float16)
        res = ops.radix_sort(x)
        split_launches = [t for t in res.traces if "split bit" in t.label]
        assert len(split_launches) == 16

    def test_rejects_2d(self, ops):
        with pytest.raises(Exception):
            ops.radix_sort(np.ones((4, 4), dtype=np.float16))


class TestBaselineSort:
    def test_values_and_indices(self, ops, rng):
        n = 30000
        x = rng.standard_normal(n).astype(np.float16)
        res = ops.baseline_sort(x)
        assert np.array_equal(res.values, np.sort(x))
        assert np.array_equal(
            res.indices, np.argsort(x.astype(np.float32), kind="stable")
        )

    def test_descending(self, ops, rng):
        x = rng.standard_normal(20000).astype(np.float16)
        res = ops.baseline_sort(x, descending=True)
        assert np.array_equal(res.values, np.sort(x)[::-1])

    def test_sub_segment_input(self, ops, rng):
        """n below one sort segment: single in-core pass, no merges."""
        x = rng.standard_normal(5000).astype(np.float16)
        res = ops.baseline_sort(x)
        assert np.array_equal(res.values, np.sort(x))

    def test_non_power_of_two(self, ops, rng):
        x = rng.standard_normal(100001).astype(np.float16)
        res = ops.baseline_sort(x)
        assert np.array_equal(res.values, np.sort(x))

    def test_no_cube_usage(self, ops, rng):
        x = rng.standard_normal(20000).astype(np.float16)
        res = ops.baseline_sort(x)
        for t in res.traces:
            assert "mmad" not in t.op_count_by_kind()


class TestFigure11Shape:
    def test_radix_wins_large_loses_small(self, ops, rng):
        """The paper's crossover: torch.sort wins below ~525K, radix wins
        above with growing factor."""
        small = rng.standard_normal(1 << 16).astype(np.float16)
        t_r = ops.radix_sort(small).time_ns
        t_b = ops.baseline_sort(small).time_ns
        assert t_b < t_r  # baseline wins small

        large = rng.standard_normal(1 << 20).astype(np.float16)
        t_r = ops.radix_sort(large).time_ns
        t_b = ops.baseline_sort(large).time_ns
        assert 1.2 < t_b / t_r < 4.0  # radix wins large (paper: 1.3x-3.3x)


def _keys(dtype, n: int, rng) -> np.ndarray:
    """Full-range keys with duplicates; fp16 rows carry ±0, ±inf and NaN."""
    if dtype == np.float16:
        x = (rng.standard_normal(n) * 100).astype(np.float16)
        specials = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], dtype=np.float16
        )
        x[rng.integers(0, n, min(n, 24))] = rng.choice(specials, min(n, 24))
        return x
    info = np.iinfo(dtype)
    x = rng.integers(info.min, int(info.max) + 1, n).astype(dtype)
    x[rng.integers(0, n, n // 4)] = x[0]  # heavy ties
    return x


class TestDigitRadixSort:
    """The 4-bit digit split is byte-equal to the paper's per-bit path."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 16385, 70000])
    @pytest.mark.parametrize(
        "dtype", [np.float16, np.uint16, np.int16, np.uint8, np.int8]
    )
    def test_byte_equal_to_per_bit_path(self, ops, dtype, n):
        x = _keys(dtype, n, np.random.default_rng(n))
        for descending in (False, True):
            bit = ops.radix_sort(x, descending=descending)
            digit = ops.radix_sort(x, descending=descending, digit_bits=4)
            assert digit.values.tobytes() == bit.values.tobytes()
            assert np.array_equal(digit.indices, bit.indices)
            assert np.array_equal(np.sort(digit.indices), np.arange(n))

    @pytest.mark.parametrize("digit_bits", [1, 4])
    def test_nan_keeps_its_slot_ahead_of_the_pads(self, ops, digit_bits):
        """The pads used to be +inf in value space, which encodes below
        every positive NaN: the sort returned a pad index and dropped the
        NaN.  Pads are now the maximum key."""
        x = np.arange(100, dtype=np.float16)
        x[17] = np.nan
        res = ops.radix_sort(x, digit_bits=digit_bits)
        assert np.array_equal(np.sort(res.indices), np.arange(100))
        assert res.indices[-1] == 17 and np.isnan(res.values[-1])

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.uint16, np.int16, np.uint8, np.int8]
    )
    @pytest.mark.parametrize("descending", [False, True])
    def test_pad_value_has_the_top_key(self, dtype, descending):
        pad = np.array([radix_pad_value(dtype, descending)], dtype=dtype)
        key = radix_keys_np(pad, descending)
        assert key[0] == np.iinfo(key.dtype).max

    @pytest.mark.parametrize(
        "dtype, extremes",
        [
            # the pads' own bits: +NaN 0x7fff ascending, -NaN 0xffff
            # descending, beside ordinary NaNs and infinities
            (np.float16, [0x7FFF, 0xFFFF, 0x7E00, 0xFE00, 0x7C00, 0xFC00]),
            (np.int8, [127, -128]),
            (np.int16, [32767, -32768]),
        ],
    )
    @pytest.mark.parametrize("descending", [False, True])
    def test_pads_sort_after_real_keys_equal_to_them(
        self, ops, dtype, extremes, descending
    ):
        """Real keys carrying the pad's exact bits tie with the pads; the
        stable splits keep every real key ahead of them."""
        rng = np.random.default_rng(9)
        n = 1000  # pads the digit path to 4,096
        if dtype == np.float16:
            specials = np.array(extremes, dtype=np.uint16).view(np.float16)
        else:
            specials = np.array(extremes, dtype=dtype)
        x = _keys(dtype, n, rng)
        x[rng.integers(0, n, 64)] = rng.choice(specials, 64)
        x[-1] = radix_pad_value(dtype, descending)
        bit = ops.radix_sort(x, descending=descending)
        digit = ops.radix_sort(x, descending=descending, digit_bits=4)
        assert digit.values.tobytes() == bit.values.tobytes()
        assert np.array_equal(digit.indices, bit.indices)
        assert np.array_equal(np.sort(digit.indices), np.arange(n))
        assert digit.indices[-1] == n - 1

    @pytest.mark.parametrize(
        "dtype, digit_bits, passes",
        [(np.float16, 4, 4), (np.uint8, 4, 2), (np.float16, 2, 8), (np.uint8, 8, 1)],
    )
    def test_one_pass_per_digit(self, ops, dtype, digit_bits, passes):
        x = _keys(dtype, 5000, np.random.default_rng(1))
        bit = ops.radix_sort(x)
        res = ops.radix_sort(x, digit_bits=digit_bits)
        assert res.values.tobytes() == bit.values.tobytes()
        assert np.array_equal(res.indices, bit.indices)
        labels = [t.label for t in res.traces]
        assert sum("digit split" in lb for lb in labels) == passes
        assert not any("RadixDigit" in lb for lb in labels)
        assert not any("split bit" in lb for lb in labels)
        # one launch per pass: no encode, decode or negate launch
        assert len(res.traces) == passes

    def test_four_kilo_keys_need_no_padding(self, ops):
        """m = 4096 at s = 128: R·m = 4 s² and one gather tile."""
        x = _keys(np.float16, 4096, np.random.default_rng(2))
        bit = ops.radix_sort(x)
        digit = ops.radix_sort(x, digit_bits=4)
        assert digit.time_ns < bit.time_ns / 4

    @pytest.mark.parametrize("digit_bits", [0, 3, 16])
    def test_rejects_digit_widths(self, ops, digit_bits):
        with pytest.raises(KernelError, match="digit_bits"):
            ops.radix_sort(np.ones(8, np.float16), digit_bits=digit_bits)
        with pytest.raises(KernelError, match="digit_bits"):
            ops.radix_sort(np.ones(8, np.uint8), digit_bits=16)


class TestDigitSplitMutations:
    """Planted defects in the digit split must not survive the byte-equality
    check or the graph lowering's oracle validation."""

    N = 5000

    def _input(self):
        # few distinct keys: every digit row is long and ties are common
        rng = np.random.default_rng(3)
        return rng.integers(0, 64, self.N).astype(np.float16)

    def _assert_caught(self, ops, reference):
        x = self._input()
        got = ops.radix_sort(x, digit_bits=4)
        assert not (
            np.array_equal(got.indices, reference.indices)
            and got.values.tobytes() == reference.values.tobytes()
        )
        runner = GraphRunner(ASCEND_910B4)
        with pytest.raises(KernelError, match="validation failed"):
            runner.lower(sort_graph(self.N))

    def test_dropped_digit_offset_is_caught(self, ops, monkeypatch):
        reference = ops.radix_sort(self._input())
        offset = DigitSplitKernel._row_offset

        def drops_digit_3(self, ctx, q_small, digit, off):
            base = offset(self, ctx, q_small, digit, off)
            if digit == 3:  # forget the totals of digits 0-2
                base -= offset(self, ctx, q_small, digit, 0)
            return base

        monkeypatch.setattr(DigitSplitKernel, "_row_offset", drops_digit_3)
        self._assert_caught(ops, reference)

    def test_missing_sign_flip_is_caught(self, ops, monkeypatch):
        """Planted wrong key encoding in the digit phase: signed keys lose
        their sign-bit flip, so negatives sort after positives."""
        x = np.random.default_rng(4).integers(-300, 300, self.N).astype(np.int16)
        reference = ops.radix_sort(x)

        def unsigned_keys(values, descending=False):
            if values.dtype.kind == "i":
                values = values.view(f"uint{values.dtype.itemsize * 8}")
            return radix_keys_np(values, descending)

        monkeypatch.setattr(split, "radix_keys_np", unsigned_keys)
        got = ops.radix_sort(x, digit_bits=4)
        assert got.values.tobytes() != reference.values.tobytes()
        assert not np.array_equal(got.indices, reference.indices)
        runner = GraphRunner(ASCEND_910B4)
        with pytest.raises(KernelError, match="validation failed"):
            runner.lower(sort_graph(self.N, dtype="int16"))

    def test_fp16_sign_ignoring_key_is_caught(self, ops, monkeypatch):
        """Planted fp16 key that ignores the sign bit: the raw bits sort
        every negative after every positive.  Positive keys alone sort
        correctly under it, so the fp16 sort recipe must draw both signs
        for the served lowering to be refused."""
        x = np.random.default_rng(5).integers(-300, 300, self.N)
        x = x.astype(np.float16)
        reference = ops.radix_sort(x)

        def raw_bit_keys(values, descending=False):
            if values.dtype == np.float16:
                keys = values.view(np.uint16)
                return ~keys if descending else keys
            return radix_keys_np(values, descending)

        monkeypatch.setattr(split, "radix_keys_np", raw_bit_keys)
        got = ops.radix_sort(x, digit_bits=4)
        assert got.values.tobytes() != reference.values.tobytes()
        positive = np.abs(x) + np.float16(1)
        assert np.array_equal(
            ops.radix_sort(positive, digit_bits=4).values, np.sort(positive)
        )
        runner = GraphRunner(ASCEND_910B4)
        with pytest.raises(KernelError, match="validation failed"):
            runner.lower(sort_graph(1000))

    def test_reversed_gather_order_is_caught(self, ops, monkeypatch):
        reference = ops.radix_sort(self._input())
        gather = intrinsics.gather_mask

        def reversed_gather(ctx, dst, src, mask, *, label="GatherMask"):
            count = gather(ctx, dst, src, mask, label=label)
            dst.array[:count] = dst.array[:count][::-1].copy()
            return count

        monkeypatch.setattr(intrinsics, "gather_mask", reversed_gather)
        self._assert_caught(ops, reference)
