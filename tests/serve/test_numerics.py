"""Stacked group numerics: bit-identity against the per-request path.

The vectorized path (`repro.serve.numerics.group_scan_values`) must be
indistinguishable — bit for bit — from computing each request through
`plan_compute` on its own, across dtype x exclusive x ragged-shape
combinations.  These are differential tests: any divergence is a bug in
the stacked formulation, not a tolerance question.
"""

import numpy as np
import pytest

from repro.core.reference import (
    exact_fp16_scan_input,
    exclusive_scan,
    inclusive_scan,
)
from repro.core.replay import plan_compute
from repro.hw.config import toy_config
from repro.hw.datatypes import FP16, INT8
from repro.serve import ScanService, group_scan_values


def _rows(rng, dtype, sizes):
    out = []
    for n in sizes:
        if dtype is FP16:
            x, _ = exact_fp16_scan_input(n, rng)
        else:
            x = rng.integers(-20, 21, size=n).astype(np.int8)
        out.append(x)
    return out


class TestGroupScanBitIdentity:
    @pytest.mark.parametrize("dtype", [FP16, INT8], ids=["fp16", "int8"])
    @pytest.mark.parametrize("algorithm", ["scanu", "mcscan", "vector"])
    @pytest.mark.parametrize(
        "sizes",
        [(256, 256, 256), (5, 200, 256, 257, 1000)],
        ids=["uniform", "ragged"],
    )
    def test_matches_per_request_plan_compute(
        self, rng, dtype, algorithm, sizes
    ):
        xs = _rows(rng, dtype, sizes)
        values, host_s = group_scan_values(
            xs, algorithm=algorithm, in_dtype=dtype
        )
        assert host_s >= 0.0
        for x, got in zip(xs, values):
            want = plan_compute(x, algorithm, dtype)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [FP16, INT8], ids=["fp16", "int8"])
    @pytest.mark.parametrize(
        "sizes", [(128, 128), (5, 257, 64)], ids=["uniform", "ragged"]
    )
    def test_exclusive_matches_per_request(self, rng, dtype, sizes):
        xs = _rows(rng, dtype, sizes)
        values, _ = group_scan_values(
            xs, algorithm="mcscan", in_dtype=dtype, exclusive=True
        )
        for x, got in zip(xs, values):
            want = plan_compute(x, "mcscan", dtype, exclusive=True)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_trailing_pad_never_leaks(self, rng):
        """A short row computed inside a wide stacked pass equals its own
        1-D scan — trailing zeros cannot reach earlier prefixes."""
        short = rng.integers(-20, 21, size=3).astype(np.int8)
        long = rng.integers(-20, 21, size=4096).astype(np.int8)
        values, _ = group_scan_values(
            [short, long], algorithm="scanu", in_dtype=INT8
        )
        assert np.array_equal(values[0], inclusive_scan(short))
        assert np.array_equal(values[1], inclusive_scan(long))


class TestServiceLevelBitIdentity:
    """The refactored service (stacked numerics) against the oracle and
    against itself across batching modes."""

    def _serve(self, rng, **kwargs):
        svc = ScanService(config=toy_config(), **kwargs)
        inputs = {}
        state = np.random.default_rng(7)
        for n in (5, 200, 256, 256, 257, 1000, 256, 5):
            x = state.integers(-20, 21, size=n).astype(np.int8)
            t = svc.submit(x, algorithm="scanu", s=16)
            inputs[t.req_id] = x
        x, _ = exact_fp16_scan_input(512, state)
        t = svc.submit(x, algorithm="mcscan", s=16, exclusive=True)
        inputs[t.req_id] = (x, "exclusive")
        return inputs, svc.flush()

    def _assert_oracle(self, inputs, done):
        assert len(done) == len(inputs)
        for ticket in done:
            ref = inputs[ticket.req_id]
            if isinstance(ref, tuple):
                want = exclusive_scan(ref[0])
            else:
                want = inclusive_scan(ref)
            assert np.array_equal(ticket.result(), want)

    def test_batched_service_matches_oracle(self, rng):
        inputs, done = self._serve(rng)
        self._assert_oracle(inputs, done)
        assert any(t.batched for t in done)

    def test_unbatched_service_matches_oracle(self, rng):
        inputs, done = self._serve(rng, max_batch=1)
        self._assert_oracle(inputs, done)
        assert not any(t.batched for t in done)

    def test_batching_modes_are_bit_identical(self, rng):
        _, batched = self._serve(rng)
        _, single = self._serve(rng, max_batch=1)
        for a, b in zip(batched, single):
            assert a.req_id == b.req_id
            assert np.array_equal(a.result(), b.result())

    @pytest.mark.parametrize("max_batch", [2, 4])
    def test_repeat_serves_bit_identical(self, rng, max_batch):
        inputs, first = self._serve(rng, max_batch=max_batch)
        _, again = self._serve(rng, max_batch=max_batch)
        self._assert_oracle(inputs, first)
        for a, b in zip(first, again):
            assert a.req_id == b.req_id
            assert np.array_equal(a.result(), b.result())
            assert a.device_ns == b.device_ns
