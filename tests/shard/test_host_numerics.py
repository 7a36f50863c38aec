"""Host scan numerics computed in place.

Each shard of a sharded scan is scanned straight into its slice of the
output, and each row of a stacked launch group is widened straight into
the group's accumulator-dtype batch.  These tests pin that the in-place
form is bit-identical to the formula it replaced, computed here on its
own terms (every shard's local scan zero-padded and allocated, then
``fp32(local scan) + carry``), on inexact N(0,1) fp16 data as well as on
full-range int8; that the fp16 widening table maps every bit pattern as
NumPy's cast does, and the served scans built on it equal the reference
scans around its slice boundary; and that a warm scan allocates nothing
beyond its output.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.api import ScanContext
from repro.core.matrices import padded_length
from repro.core.reference import accum_np_dtype, exclusive_scan, inclusive_scan
from repro.core.replay import (
    _FP16_TO_FP32,
    _WIDEN_SLICE,
    _widen,
    plan_compute,
    scan_into,
)
from repro.errors import DTypeError, ShapeError
from repro.hw.config import ASCEND_910B4, toy_config
from repro.hw.datatypes import FP16
from repro.serve import group_scan_values
from repro.shard import DevicePool, ShardedScanner, shard_ranges

S = 16
UNIT = S * S
#: a tail shard pads at every D: 23 full units plus 100 elements
N = 23 * UNIT + 100
#: bytes a warm scan may allocate beyond its output (small Python objects:
#: launch records, traces, views)
ALLOC_SLACK = 64 * 1024


def _padded_scan(x, pad_to, *, exclusive=False, out_dtype=None):
    """The padded computation: ``x`` zero-padded to ``pad_to``, scanned
    with a buffered accumulator-dtype ``np.cumsum``, cut to ``x.size``."""
    xp = np.zeros(pad_to, dtype=x.dtype)
    xp[: x.size] = x
    inc = np.cumsum(xp, dtype=accum_np_dtype(x.dtype))
    if exclusive:
        inc = np.concatenate([np.zeros(1, inc.dtype), inc[:-1]])
    if out_dtype is not None:
        inc = inc.astype(out_dtype)
    return inc[: x.size]


def _sharded_formula(x, devices):
    """``fp32(local scan) + carry`` with every shard's local scan
    allocated on its own, carries from a cumsum of the shard totals."""
    local = [
        _padded_scan(x[start:end], padded_length(end - start, UNIT))
        for start, end in shard_ranges(x.size, devices, UNIT)
    ]
    acc = local[0].dtype
    carries = np.cumsum([v[-1] for v in local[:-1]], dtype=acc)
    parts = [local[0]] + [v + c for v, c in zip(local[1:], carries)]
    return np.concatenate(parts)


def _inputs():
    rng = np.random.default_rng(1)
    return {
        "fp16": rng.standard_normal(N).astype(np.float16),
        "int8": rng.integers(-128, 128, N).astype(np.int8),
    }


class TestShardedBitIdentity:
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("devices", [1, 2, 3])
    def test_matches_allocated_formula(self, dtype, devices):
        x = _inputs()[dtype]
        ranges = shard_ranges(x.size, devices, UNIT)
        assert len(ranges) == devices
        assert (ranges[-1][1] - ranges[-1][0]) % UNIT  # the tail pads
        scanner = ShardedScanner(DevicePool(devices, toy_config()), s=S)
        got = scanner.scan(x).values
        want = _sharded_formula(x, devices)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_fp16_data_is_inexact(self):
        """The N(0,1) input's prefix sums round in fp32, so the order of
        the additions shows in the bits."""
        x = _inputs()["fp16"]
        exact = np.cumsum(x.astype(np.float64)).astype(np.float32)
        assert not np.array_equal(exact, _sharded_formula(x, 1))


def _plan(**kw):
    ctx = ScanContext(toy_config())
    return ctx.build_plan(n=N, s=S, **kw)


_PLANS = {
    "inclusive": ({"algorithm": "mcscan", "dtype": "fp16"}, {}),
    "exclusive": (
        {"algorithm": "mcscan", "dtype": "fp16", "exclusive": True},
        {"exclusive": True},
    ),
    "vector": (
        {"algorithm": "vector", "dtype": "fp16"},
        {"out_dtype": np.float16},
    ),
    "int8": ({"algorithm": "scanu", "dtype": "int8"}, {}),
}


class TestPlanComputeInto:
    @pytest.mark.parametrize("kind", sorted(_PLANS))
    def test_buffer_equals_padded_computation(self, kind):
        build, formula = _PLANS[kind]
        plan = _plan(**build)
        x = _inputs()[build["dtype"]]
        want = _padded_scan(x, plan.padded, **formula)
        out = np.full(x.size, 7, dtype=plan.out_dtype.np_dtype)
        got = plan.compute(x, out=out)
        assert got is out
        assert out.tobytes() == want.tobytes()
        assert plan.compute(x).tobytes() == want.tobytes()
        assert plan.execute(x).values.tobytes() == want.tobytes()

    def test_wrong_buffer_dtype_raises(self):
        plan = _plan(algorithm="mcscan", dtype="fp16")
        x = _inputs()["fp16"]
        with pytest.raises(DTypeError):
            plan.compute(x, out=np.empty(x.size, np.float16))
        with pytest.raises(DTypeError):
            plan.compute(x, out=np.empty(x.size, np.float64))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_buffer_length_raises(self, delta):
        plan = _plan(algorithm="mcscan", dtype="fp16")
        x = _inputs()["fp16"]
        with pytest.raises(ShapeError):
            plan.compute(x, out=np.empty(x.size + delta, np.float32))


#: lengths around the widening's slice boundary
WIDEN_LENGTHS = (1, _WIDEN_SLICE - 1, _WIDEN_SLICE, _WIDEN_SLICE + 1,
                 2 * _WIDEN_SLICE + 3)


def _fp16(kind: str, n: int, seed: int = 4) -> np.ndarray:
    """Inexact N(0,1) fp16, or zero-heavy integers in [-2, 2] (the served
    traffic payloads: one in five is zero)."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal(n).astype(np.float16)
    return rng.integers(-2, 3, n).astype(np.float16)


class TestTableWidening:
    def test_table_matches_numpy_cast_on_every_bit_pattern(self):
        patterns = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        want = patterns.view(np.float16).astype(np.float32)
        assert _FP16_TO_FP32.dtype == np.float32
        # bytes, so ±0 and every NaN payload count
        assert _FP16_TO_FP32.tobytes() == want.tobytes()
        # and the sliced lookup, across its 16 slices
        got = np.empty(patterns.size, np.float32)
        _widen(got, patterns.view(np.float16))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["normal", "zero-heavy"])
    @pytest.mark.parametrize("n", WIDEN_LENGTHS)
    def test_served_scans_equal_the_reference(self, kind, n):
        x = _fp16(kind, n)
        inc = inclusive_scan(x).tobytes()
        exc = exclusive_scan(x).tobytes()
        assert scan_into(np.empty(n, np.float32), [x]).tobytes() == inc
        assert scan_into(
            np.empty(n, np.float32), [x], exclusive=True
        ).tobytes() == exc
        assert plan_compute(x, "mcscan", FP16).tobytes() == inc
        assert plan_compute(x, "mcscan", FP16, exclusive=True).tobytes() == exc

    @pytest.mark.parametrize("kind", ["normal", "zero-heavy"])
    def test_ragged_group_equals_the_reference(self, kind):
        xs = [_fp16(kind, n, seed=i) for i, n in enumerate(WIDEN_LENGTHS)]
        values, _ = group_scan_values(xs, algorithm="scanu", in_dtype=FP16)
        for x, v in zip(xs, values):
            assert v.tobytes() == inclusive_scan(x).tobytes()

    @pytest.mark.parametrize("kind", ["normal", "zero-heavy"])
    @pytest.mark.parametrize("n", WIDEN_LENGTHS)
    def test_sharded_scan_equals_the_reference(self, kind, n):
        x = _fp16(kind, n)
        one = ShardedScanner(DevicePool(1, toy_config()), s=S).scan(x).values
        assert one.tobytes() == inclusive_scan(x).tobytes()
        two = ShardedScanner(DevicePool(2, toy_config()), s=S).scan(x).values
        assert two.tobytes() == _sharded_formula(x, 2).tobytes()


def _peak_bytes(fn) -> "tuple[int, object]":
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestAllocation:
    """A warm scan allocates its output and nothing of its size besides:
    no per-shard temporaries, no fp16 stack, no buffered-cast output."""

    def test_warm_sharded_scan_allocates_only_its_output(self):
        x = np.random.default_rng(2).standard_normal(1 << 20).astype(np.float16)
        scanner = ShardedScanner(DevicePool(2, ASCEND_910B4))
        scanner.scan(x)  # builds the shard plans
        peak, result = _peak_bytes(lambda: scanner.scan(x))
        assert result.num_devices == 2
        assert peak <= result.values.nbytes + ALLOC_SLACK

    def test_group_numerics_allocate_only_the_batch(self):
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal(16384).astype(np.float16) for _ in range(8)]
        group_scan_values(xs, algorithm="scanu", in_dtype=FP16)
        peak, (values, _) = _peak_bytes(
            lambda: group_scan_values(xs, algorithm="scanu", in_dtype=FP16)
        )
        batch_bytes = 8 * 16384 * np.dtype(np.float32).itemsize
        assert sum(v.nbytes for v in values) == batch_bytes
        assert peak <= batch_bytes + ALLOC_SLACK
