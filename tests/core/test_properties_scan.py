"""Property-based differential tests: every scan algorithm, strategy and
batched variant against the NumPy oracle (repro.core.reference), plus the
plan/serve execution paths against the one-shot API.

Inputs are drawn so results are *bit-exact* (see ``_exact_values``): small
integers whose every partial sum is exactly representable in the narrowest
dtype it passes through (fp16 staging buffers, int8 L1 staging on ScanUL1,
the fp32/int32 accumulators).  A separate tolerance test covers truly
random fp16 data, where association order legitimately changes rounding.

The hypothesis profile is fixed and derandomized, so the suite generates
the same ~250 cases on every run (no flaky CI): 8 algorithm x dtype combos
and 8 strategy x dtype combos at 10 examples each, plus batched / plan /
exclusive / service groups.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import (
    BATCHED_ALGORITHMS,
    SCAN_ALGORITHMS,
    SCAN_STRATEGIES,
    ScanContext,
)
from repro.core.reference import (
    batched_inclusive_scan,
    exclusive_scan,
    inclusive_scan,
)
from repro.errors import KernelError
from repro.serve import ScanService

settings.register_profile(
    "repro_scan",
    settings(
        max_examples=10,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.load_profile("repro_scan")

# shared full-device context: constants and serve plans cache across examples
_CTX = ScanContext()
_SERVICE = ScanService(_CTX)

# lengths biased toward tile/padding boundaries for s in {32, 64, 128}
lengths = st.one_of(
    st.integers(1, 2000),
    st.sampled_from([1, 31, 32, 33, 1023, 1024, 1025, 2047, 2048, 4000]),
)

dtypes = st.sampled_from(["fp16", "int8"])


def _exact_values(n: int, dtype: str, seed: int) -> np.ndarray:
    """Values whose scans are exact on every device path.

    int8 in [-3, 3]: any 32-element tile-row sum (<= 96) fits int8, so even
    ScanUL1's int8 L1 staging of ``C1 = A @ 1_s`` is exact at s=32.  fp16
    integers in [-2, 2]: row sums (<= 64 at s=32, <= 256 at s=128) are
    exact fp16, and all prefixes stay far below 2^24, exact in the fp32
    accumulator.
    """
    rng = np.random.default_rng(0xD1FF + seed)
    if dtype == "int8":
        return rng.integers(-3, 4, n).astype(np.int8)
    return (rng.integers(0, 5, n) - 2).astype(np.float16)


def _pick_s(algorithm: str, dtype: str, s: int) -> int:
    # ScanUL1 stages C1 through the input dtype: int8 needs s=32 so
    # tile-row sums stay within int8 (a documented kernel limit)
    if algorithm == "scanul1" and dtype == "int8":
        return 32
    return s


def _refused(algorithm: str, dtype: str) -> bool:
    """The serve layer refuses ScanUL1 on int8 (its C1 staging wraps)."""
    return algorithm == "scanul1" and dtype == "int8"


def _oracle(x: np.ndarray, algorithm: str) -> np.ndarray:
    if algorithm == "vector":
        return inclusive_scan(x, out_dtype=x.dtype)
    return inclusive_scan(x)


class TestScanDifferential:
    """One-shot API vs oracle: 4 algorithms x 2 dtypes, 10 examples each."""

    @pytest.mark.parametrize("algorithm", SCAN_ALGORITHMS)
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    @given(
        n=lengths, seed=st.integers(0, 2**31), s=st.sampled_from([32, 64])
    )
    def test_scan_matches_oracle(self, algorithm, dtype, n, seed, s):
        s = _pick_s(algorithm, dtype, s)
        x = _exact_values(n, dtype, seed)
        res = _CTX.scan(x, algorithm=algorithm, s=s)
        expected = _oracle(x, algorithm)
        assert res.values.dtype == expected.dtype
        assert np.array_equal(res.values, expected)


class TestStrategyDifferential:
    """Multi-core strategies vs oracle: 4 strategies x 2 dtypes."""

    @pytest.mark.parametrize("strategy", SCAN_STRATEGIES)
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    @given(n=lengths, seed=st.integers(0, 2**31))
    def test_strategy_matches_oracle(self, strategy, dtype, n, seed):
        x = _exact_values(n, dtype, seed)
        res = _CTX.scan_strategy(x, strategy=strategy, s=32)
        assert np.array_equal(res.values, inclusive_scan(x))


class TestBatchedDifferential:
    """Row-wise batched kernels vs the batched oracle."""

    @pytest.mark.parametrize("algorithm", BATCHED_ALGORITHMS)
    @given(
        batch=st.integers(1, 7),
        row_len=st.one_of(
            st.integers(1, 700), st.sampled_from([1, 128, 129, 512, 700])
        ),
        dtype=dtypes,
        seed=st.integers(0, 2**31),
    )
    def test_batched_matches_oracle(self, algorithm, batch, row_len, dtype, seed):
        x = _exact_values(batch * row_len, dtype, seed).reshape(batch, row_len)
        res = _CTX.batched_scan(x, algorithm=algorithm, s=32)
        if algorithm == "vector":
            expected = batched_inclusive_scan(x, out_dtype=x.dtype)
        else:
            expected = batched_inclusive_scan(x)
        assert np.array_equal(res.values, expected)


class TestExclusiveDifferential:
    @given(n=lengths, dtype=dtypes, seed=st.integers(0, 2**31))
    def test_exclusive_matches_oracle(self, n, dtype, seed):
        x = _exact_values(n, dtype, seed)
        res = _CTX.scan(x, algorithm="mcscan", s=32, exclusive=True)
        assert np.array_equal(res.values, exclusive_scan(x))


class TestPlanDifferential:
    """Plan execute vs one-shot vs oracle on the same values.

    Shapes come from a small pool so the module-level context accumulates
    a bounded set of persistent plans (plans pin device memory)."""

    @pytest.mark.parametrize("algorithm", SCAN_ALGORITHMS)
    @given(
        n=st.sampled_from([5, 900, 1024, 1800]),
        dtype=dtypes,
        seed=st.integers(0, 2**31),
    )
    def test_plan_equals_oneshot(self, algorithm, n, dtype, seed):
        x = _exact_values(n, dtype, seed)
        if _refused(algorithm, dtype):
            with pytest.raises(KernelError, match="not served on int8"):
                _SERVICE.cache.get_1d(_SERVICE.cache.key_1d(algorithm, n, dtype, s=32))
            return
        plan = _SERVICE.cache.get_1d(_SERVICE.cache.key_1d(algorithm, n, dtype, s=32))
        planned = plan.execute(x)
        oneshot = _CTX.scan(x, algorithm=algorithm, s=32)
        assert np.array_equal(planned.values, oneshot.values)
        assert np.array_equal(planned.values, _oracle(x, algorithm))
        assert planned.values.dtype == oneshot.values.dtype

    @given(
        n=st.sampled_from([5, 900, 1024, 1800]),
        algorithm=st.sampled_from(SCAN_ALGORITHMS),
        dtype=dtypes,
        seed=st.integers(0, 2**31),
    )
    def test_service_matches_oracle(self, n, algorithm, dtype, seed):
        x = _exact_values(n, dtype, seed)
        if _refused(algorithm, dtype):
            with pytest.raises(KernelError, match="not served on int8"):
                _SERVICE.submit(x, algorithm=algorithm, s=32)
            return
        ticket = _SERVICE.scan(x, algorithm=algorithm, s=32)
        assert ticket.done
        assert np.array_equal(ticket.result(), _oracle(x, algorithm))

    @given(
        k=st.integers(2, 5),
        algorithm=st.sampled_from(BATCHED_ALGORITHMS),
        dtype=dtypes,
        seed=st.integers(0, 2**31),
    )
    def test_coalesced_batch_matches_oracle(self, k, algorithm, dtype, seed):
        xs = [
            _exact_values(n, dtype, seed + i)
            for i, n in enumerate([700] * k)  # same shape class -> coalesce
        ]
        if _refused(algorithm, dtype):
            with pytest.raises(KernelError, match="not served on int8"):
                _SERVICE.submit(xs[0], algorithm=algorithm, s=32)
            return
        tickets = [
            _SERVICE.submit(x, algorithm=algorithm, s=32) for x in xs
        ]
        _SERVICE.flush()
        for x, t in zip(xs, tickets):
            assert t.batched and t.batch_size == k
            assert np.array_equal(t.result(), _oracle(x, algorithm))


class TestRandomFp16Tolerance:
    """Truly random fp16 data: association order changes rounding, so the
    kernels agree with the oracle to dtype-dependent tolerances only."""

    @pytest.mark.parametrize(
        "algorithm,rtol",
        [("scanu", 1e-3), ("mcscan", 1e-3), ("scanul1", 2e-2)],
    )
    @given(n=st.integers(100, 4000), seed=st.integers(0, 2**31))
    def test_random_fp16_within_tolerance(self, algorithm, rtol, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n).astype(np.float16)
        res = _CTX.scan(x, algorithm=algorithm, s=32)
        expected = inclusive_scan(x)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.all(np.abs(res.values - expected) <= rtol * scale + 1e-2)
