"""Reference oracle tests."""

import numpy as np
import pytest

from repro.errors import DTypeError
from repro.core.reference import (
    accum_np_dtype,
    batched_inclusive_scan,
    compress,
    exact_fp16_scan_input,
    exact_int8_mask,
    exclusive_scan,
    inclusive_scan,
    stable_order,
    stable_split,
)


class TestScans:
    def test_inclusive_simple(self):
        assert np.array_equal(inclusive_scan([1, 2, 3]), [1, 3, 6])

    def test_exclusive_shifts(self):
        x = np.array([5, 1, 2], dtype=np.int32)
        assert np.array_equal(exclusive_scan(x), [0, 5, 6])

    def test_exclusive_inclusive_relation(self, rng):
        x = rng.integers(-5, 5, 100).astype(np.int32)
        inc = inclusive_scan(x)
        exc = exclusive_scan(x)
        assert np.array_equal(exc[1:], inc[:-1])
        assert exc[0] == 0

    def test_fp16_accumulates_fp32(self):
        x = np.ones(10, dtype=np.float16)
        assert inclusive_scan(x).dtype == np.float32

    def test_int8_accumulates_int32(self):
        x = np.full(1000, 100, dtype=np.int8)
        out = inclusive_scan(x)
        assert out.dtype == np.int32
        assert out[-1] == 100000  # would overflow int8/int16

    def test_out_dtype(self):
        out = inclusive_scan(np.ones(4, dtype=np.float16), out_dtype=np.float16)
        assert out.dtype == np.float16

    def test_batched(self, rng):
        x = rng.integers(-4, 4, (5, 20)).astype(np.float16)
        out = batched_inclusive_scan(x)
        assert out.shape == (5, 20)
        assert np.allclose(out, np.cumsum(x.astype(np.float32), axis=1))

    def test_batched_requires_2d(self):
        with pytest.raises(DTypeError):
            batched_inclusive_scan(np.ones(4))

    def test_accum_rule_unknown(self):
        with pytest.raises(DTypeError):
            accum_np_dtype(np.complex64)


class TestSplitCompress:
    def test_stable_split(self):
        x = np.array([10, 20, 30, 40, 50])
        f = np.array([0, 1, 0, 1, 0])
        vals, idx = stable_split(x, f)
        assert np.array_equal(vals, [20, 40, 10, 30, 50])
        assert np.array_equal(idx, [1, 3, 0, 2, 4])

    def test_split_is_permutation(self, rng):
        x = rng.standard_normal(200)
        f = rng.random(200) < 0.3
        vals, idx = stable_split(x, f)
        assert np.array_equal(np.sort(idx), np.arange(200))
        assert np.array_equal(vals, x[idx])

    def test_compress(self):
        x = np.array([1, 2, 3, 4])
        assert np.array_equal(compress(x, [1, 0, 0, 1]), [1, 4])


class TestExactData:
    def test_fp16_scan_exactness(self, rng):
        x, expected = exact_fp16_scan_input(5000, rng)
        assert x.dtype == np.float16
        # fp32 cumsum reproduces the target exactly
        assert np.array_equal(np.cumsum(x.astype(np.float32)), expected)
        # so does fp16 pairwise summation of any contiguous range
        assert float(np.sum(x[100:300].astype(np.float32))) == float(
            expected[299] - expected[99]
        )

    def test_fp16_values_in_exact_range(self, rng):
        x, _ = exact_fp16_scan_input(10000, rng)
        assert np.all(np.abs(x.astype(np.float32)) < 4096)

    def test_prefix_bound_validated(self, rng):
        with pytest.raises(DTypeError):
            exact_fp16_scan_input(10, rng, prefix_bound=10000)

    def test_int8_mask(self, rng):
        m = exact_int8_mask(1000, rng, p=0.3)
        assert m.dtype == np.int8
        assert set(np.unique(m)) <= {0, 1}
        assert 100 < m.sum() < 500


def _widened_order(x: np.ndarray, *, descending: bool = False) -> np.ndarray:
    """The sort order the oracles used before :func:`stable_order`: keys
    widened exactly (fp16 -> fp32, ints -> int64), negated for descending,
    then NumPy's stable timsort."""
    keys = x.astype(np.float32) if x.dtype == np.float16 else x.astype(np.int64)
    if descending:
        keys = -keys
    return np.argsort(keys, kind="stable")


def _every_pattern_shuffled(dtype, rng) -> np.ndarray:
    """Every bit pattern of a <=16-bit dtype plus random duplicates, in a
    random order (ties must keep that order)."""
    dt = np.dtype(dtype)
    raw = np.dtype(f"u{dt.itemsize}")
    every = np.arange(1 << (8 * dt.itemsize), dtype=raw)
    dups = rng.choice(every, size=every.size // 2)
    return rng.permutation(np.concatenate([every, dups])).view(dt)


@pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
class TestStableOrder:
    @pytest.mark.parametrize(
        "dtype", [np.float16, np.uint8, np.int8, np.int16, np.uint16]
    )
    def test_matches_widened_argsort_on_every_pattern(
        self, dtype, descending, rng
    ):
        # fp16 covers +-0, +-inf, NaN payloads of both signs and subnormals
        x = _every_pattern_shuffled(dtype, rng)
        got = stable_order(x, descending=descending)
        assert np.array_equal(got, _widened_order(x, descending=descending))

    def test_signed_zeros_tie_and_nan_sorts_last(self, descending):
        x = np.array([np.nan, 0.0, -0.0, 1.0, -np.nan, 0.0], np.float16)
        order = stable_order(x, descending=descending)
        head = [3, 1, 2, 5] if descending else [1, 2, 5, 3]
        assert order.tolist() == head + [0, 4]

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    def test_wider_keys_raise(self, dtype, descending):
        with pytest.raises(DTypeError, match="16 bits"):
            stable_order(np.zeros(4, dtype), descending=descending)


def test_graph_oracles_match_widened_order_on_signed_zeros_and_nan(
    monkeypatch,
):
    """radix_sort, topk and top_p_sample serve the same outputs through
    stable_order as through the widened-key argsort, on a row whose ties
    are +-0 and whose tail is NaN (top-7 of 8 drops the NaN before the
    sampler sees it)."""
    from repro.graph import llm_sample, sort_graph
    from repro.graph import op as graph_op

    x = np.array([0.0, 3.0, -0.0, np.nan, 1.0, 0.0, -0.0, 2.0], np.float16)
    graphs = [
        (sort_graph(x.size), {"x": x}),
        (sort_graph(x.size, descending=True), {"x": x}),
        (llm_sample(x.size, k=7, p=0.9, theta=0.5), {"probs": x}),
        (llm_sample(x.size, k=7, p=1.0, theta=0.99), {"probs": x}),
    ]
    served = [g.run_oracle(feed) for g, feed in graphs]
    monkeypatch.setattr(graph_op, "stable_order", _widened_order)
    for (g, feed), got in zip(graphs, served):
        want = g.run_oracle(feed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            # bytes, so -0.0 vs +0.0 and NaN payloads count too
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
