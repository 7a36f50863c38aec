"""Intrinsics tests: functional semantics + emitted op properties.

Each intrinsic is exercised through a tiny single-block kernel; assertions
cover both the NumPy result and the recorded op (engine, cost, traffic).
"""

import numpy as np
import pytest

from repro.errors import DTypeError, KernelError, ShapeError
from repro.hw.config import ASCEND_910B4, BufferConfig, DeviceConfig, toy_config
from repro.hw.device import AscendDevice
from repro.lang import Kernel, intrinsics as I
from repro.lang.tensor import BufferKind


def run_vec(device, body, n_vec_tensors=0):
    """Run ``body(ctx, q)`` on one vector core; returns the trace."""

    class K(Kernel):
        mode = "vec"

        def run(self, ctx):
            pipe = ctx.make_pipe(ctx.vec_core(0))
            q = pipe.init_buffer(buffer=BufferKind.UB, depth=8, slot_bytes=4096)
            body(ctx, q)

    return device.launch(K(1))


def run_mix(device, body):
    """Run ``body(ctx, cpipe)`` on one AI core (cube side); returns trace."""

    class K(Kernel):
        mode = "mix"

        def run(self, ctx):
            cpipe = ctx.make_pipe(ctx.require_cube())
            body(ctx, cpipe)

    return device.launch(K(1))


@pytest.fixture()
def dev():
    return AscendDevice(toy_config())


class TestDataCopy:
    def test_gm_roundtrip(self, dev, rng):
        x = dev.alloc("x", 128, "fp16")
        y = dev.alloc("y", 128, "fp16")
        vals = rng.standard_normal(128).astype(np.float16)
        x.write(vals)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 128)
            I.data_copy(ctx, t, x.whole())
            I.data_copy(ctx, y.whole(), t)
            q.free_tensor(t)

        trace = run_vec(dev, body)
        assert np.array_equal(y.to_numpy(), vals)
        assert trace.gm_read_bytes() == 256
        assert trace.gm_write_bytes() == 256

    def test_length_mismatch(self, dev):
        x = dev.alloc("x", 128, "fp16")

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            I.data_copy(ctx, t, x.whole())

        with pytest.raises(ShapeError):
            run_vec(dev, body)

    def test_gm_in_no_conversion(self, dev):
        x = dev.alloc("x", 64, "fp16")

        def body(ctx, q):
            t = q.alloc_tensor("fp32", 64)
            I.data_copy(ctx, t, x.whole())

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_ub_out_no_conversion(self, dev):
        y = dev.alloc("y", 64, "fp32")

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            I.data_copy(ctx, y.whole(), t)

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_l0c_out_converts(self, dev, rng):
        """The FIXPIPE path quantises on the way out of L0C."""
        y = dev.alloc("y", 256, "fp16")

        def body(ctx, cpipe):
            l0a = cpipe.init_buffer(buffer=BufferKind.L0A, depth=1, slot_bytes=512)
            l0b = cpipe.init_buffer(buffer=BufferKind.L0B, depth=1, slot_bytes=512)
            l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=1024)
            a = l0a.alloc_tensor("fp16", 256)
            b = l0b.alloc_tensor("fp16", 256)
            a.array[:] = 1.0
            b.array[:] = 1.0
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)
            I.data_copy(ctx, y.whole(), c)  # fp32 -> fp16 conversion

        run_mix(dev, body)
        assert np.all(y.to_numpy() == 16.0)


class TestMmad:
    def _cube_bufs(self, cpipe, ab_bytes=2048, c_bytes=4096):
        l0a = cpipe.init_buffer(buffer=BufferKind.L0A, depth=1, slot_bytes=ab_bytes)
        l0b = cpipe.init_buffer(buffer=BufferKind.L0B, depth=1, slot_bytes=ab_bytes)
        l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=c_bytes)
        return l0a, l0b, l0c

    def test_matmul_result(self, dev, rng):
        m = k = n = 16
        a_np = rng.integers(-4, 5, (m, k)).astype(np.float16)
        b_np = rng.integers(-4, 5, (k, n)).astype(np.float16)
        out = {}

        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", m * k)
            a.array[:] = a_np.reshape(-1)
            b = l0b.alloc_tensor("fp16", k * n)
            b.array[:] = b_np.reshape(-1)
            c = l0c.alloc_tensor("fp32", m * n)
            I.mmad(ctx, c, a, b, m, k, n)
            out["c"] = c.array.reshape(m, n).copy()

        run_mix(dev, body)
        expected = a_np.astype(np.float32) @ b_np.astype(np.float32)
        assert np.array_equal(out["c"], expected)

    def test_accumulate(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", 256)
            a.array[:] = 1.0
            b = l0b.alloc_tensor("fp16", 256)
            b.array[:] = 1.0
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)
            I.mmad(ctx, c, a, b, 16, 16, 16, accumulate=True)
            assert np.all(c.array == 32.0)

        run_mix(dev, body)

    def test_int8_accumulates_int32(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe, ab_bytes=256, c_bytes=1024)
            a = l0a.alloc_tensor("int8", 256)
            a.array[:] = 2
            b = l0b.alloc_tensor("int8", 256)
            b.array[:] = 3
            c = l0c.alloc_tensor("int32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)
            assert np.all(c.array == 16 * 6)

        run_mix(dev, body)

    def test_wrong_accumulator_dtype(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", 256)
            b = l0b.alloc_tensor("fp16", 256)
            c = l0c.alloc_tensor("int32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)

        with pytest.raises(DTypeError):
            run_mix(dev, body)

    def test_wrong_buffers(self, dev):
        def body(ctx, cpipe):
            l1 = cpipe.init_buffer(buffer=BufferKind.L1, depth=2, slot_bytes=512)
            l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=1024)
            a = l1.alloc_tensor("fp16", 256)
            b = l1.alloc_tensor("fp16", 256)
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)

        with pytest.raises(KernelError):
            run_mix(dev, body)

    def test_operand_too_small(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", 100)
            b = l0b.alloc_tensor("fp16", 256)
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)

        with pytest.raises(ShapeError):
            run_mix(dev, body)


def _mmad_once(config, a_np, b_np, m, k, n, *, dtype, c0=None):
    """One ``mmad`` of ``a_np`` (m x k) by ``b_np`` (k x n) on a fresh
    device; ``c0`` pre-fills L0C and switches on accumulation."""
    acc = {"int8": "int32", "fp16": "fp32"}[dtype]
    out = {}

    def body(ctx, cpipe):
        item = a_np.itemsize
        l0a = cpipe.init_buffer(buffer=BufferKind.L0A, depth=1, slot_bytes=m * k * item)
        l0b = cpipe.init_buffer(buffer=BufferKind.L0B, depth=1, slot_bytes=k * n * item)
        l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=m * n * 4)
        a = l0a.alloc_tensor(dtype, m * k)
        a.array[:] = a_np.reshape(-1)
        b = l0b.alloc_tensor(dtype, k * n)
        b.array[:] = b_np.reshape(-1)
        c = l0c.alloc_tensor(acc, m * n)
        c.array[:] = 0 if c0 is None else c0.reshape(-1)
        I.mmad(ctx, c, a, b, m, k, n, accumulate=c0 is not None)
        out["c"] = c.array.reshape(m, n).copy()

    run_mix(AscendDevice(config), body)
    return out["c"]


class TestMmadNumerics:
    """int8 ``Mmad`` runs as float64 BLAS cast to int32; it must equal the
    exact integer product at the largest k L0A admits, and fp16 ``Mmad``
    must keep its fp32 formula byte for byte."""

    @pytest.mark.parametrize("config", [ASCEND_910B4, toy_config()],
                             ids=["910b4", "toy"])
    @pytest.mark.parametrize("operands", ["all-min", "mixed-extremes"])
    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("m", [1, 16])
    def test_int8_exact_at_largest_k(self, rng, config, operands, accumulate, m):
        n = m
        k = config.buffers.l0a_bytes // m  # the whole L0A holds A
        assert k * n <= config.buffers.l0b_bytes
        if operands == "all-min":
            a_np = np.full((m, k), -128, dtype=np.int8)
            b_np = np.full((k, n), -128, dtype=np.int8)
        else:
            a_np = rng.choice(np.array([127, -128], np.int8), (m, k))
            b_np = rng.choice(np.array([127, -128], np.int8), (k, n))
        c0 = rng.integers(-1000, 1000, (m, n)).astype(np.int32) if accumulate else None
        got = _mmad_once(config, a_np, b_np, m, k, n, dtype="int8", c0=c0)
        want = a_np.astype(np.int64) @ b_np.astype(np.int64)
        if c0 is not None:
            want = want + c0
        assert got.dtype == np.int32
        assert np.array_equal(got, want.astype(np.int32))
        if operands == "all-min":
            assert np.all(want - (0 if c0 is None else c0) == k * 2**14)

    def test_int8_bound_edge_and_oversized_k(self):
        """k * 2**14 < 2**31 is the contract, not the L0A size: with a
        (hypothetical) 128 KB L0A, k = 2**17 - 1 is exact and 2**17
        raises."""
        big = DeviceConfig(
            buffers=BufferConfig(l0a_bytes=128 * 1024, l0b_bytes=128 * 1024)
        )
        k = 2**17 - 1
        row = np.full((1, k), -128, dtype=np.int8)
        got = _mmad_once(big, row, row.reshape(k, 1), 1, k, 1, dtype="int8")
        assert int(got[0, 0]) == k * 2**14 < 2**31
        k = 2**17
        row = np.full((1, k), -128, dtype=np.int8)
        with pytest.raises(ShapeError, match="int32 accumulator"):
            _mmad_once(big, row, row.reshape(k, 1), 1, k, 1, dtype="int8")

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_fp16_keeps_fp32_formula(self, rng, accumulate):
        m = k = n = 128
        a_np = rng.standard_normal((m, k)).astype(np.float16)
        b_np = rng.standard_normal((k, n)).astype(np.float16)
        c0 = rng.standard_normal((m, n)).astype(np.float32) if accumulate else None
        got = _mmad_once(toy_config(), a_np, b_np, m, k, n, dtype="fp16", c0=c0)
        want = a_np.astype(np.float32) @ b_np.astype(np.float32)
        if c0 is not None:
            want = c0 + want
        assert got.tobytes() == want.tobytes()


class TestElementwise:
    def _pair(self, q, n=64, dtype="fp16"):
        a = q.alloc_tensor(dtype, n)
        b = q.alloc_tensor(dtype, n)
        return a, b

    def test_adds(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            a.array[:] = 2.0
            I.adds(ctx, b, a, 3.0)
            assert np.all(b.array == 5.0)

        run_vec(dev, body)

    def test_muls(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            a.array[:] = 2.0
            I.muls(ctx, b, a, 4.0)
            assert np.all(b.array == 8.0)

        run_vec(dev, body)

    def test_add_sub_mul(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            c = q.alloc_tensor("fp16", 64)
            a.array[:] = 6.0
            b.array[:] = 2.0
            I.add(ctx, c, a, b)
            assert np.all(c.array == 8.0)
            I.sub(ctx, c, a, b)
            assert np.all(c.array == 4.0)
            I.mul(ctx, c, a, b)
            assert np.all(c.array == 12.0)

        run_vec(dev, body)

    def test_duplicate_and_cast(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("fp16", 64)
            I.duplicate(ctx, a, 7.0)
            b = q.alloc_tensor("fp32", 64)
            I.cast(ctx, b, a)
            assert b.array.dtype == np.float32
            assert np.all(b.array == 7.0)

        run_vec(dev, body)

    def test_shifts_and_bits(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("uint16", 64)
            a.array[:] = 0b1010
            b = q.alloc_tensor("uint16", 64)
            I.shift_right(ctx, b, a, 1)
            assert np.all(b.array == 0b101)
            I.shift_left(ctx, b, a, 2)
            assert np.all(b.array == 0b101000)
            I.bit_and(ctx, b, a, 0b0010)
            assert np.all(b.array == 0b0010)
            I.bit_not(ctx, b, a)
            assert np.all(b.array == np.uint16(~np.uint16(0b1010)))

        run_vec(dev, body)

    def test_shift_rejects_floats(self, dev):
        def body(ctx, q):
            a, b = self._pair(q, dtype="fp16")
            I.shift_right(ctx, b, a, 1)

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_compare_scalar(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("fp16", 8)
            a.array[:] = [0, 1, 2, 3, 4, 5, 6, 7]
            m = q.alloc_tensor("int8", 8)
            I.compare_scalar(ctx, m, a, "gt", 3.0)
            assert list(m.array) == [0, 0, 0, 0, 1, 1, 1, 1]
            I.compare_scalar(ctx, m, a, "eq", 2.0)
            assert m.array.sum() == 1

        run_vec(dev, body)

    def test_compare_requires_int8_mask(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            I.compare_scalar(ctx, b, a, "gt", 0.0)

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_compare_unknown_op(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("fp16", 8)
            m = q.alloc_tensor("int8", 8)
            I.compare_scalar(ctx, m, a, "neq", 0.0)

        with pytest.raises(KernelError):
            run_vec(dev, body)

    def test_create_vec_index(self, dev):
        def body(ctx, q):
            t = q.alloc_tensor("int32", 16)
            I.create_vec_index(ctx, t, 100)
            assert list(t.array) == list(range(100, 116))

        run_vec(dev, body)

    def test_vector_ops_rejected_on_cube_buffers(self, dev):
        def body(ctx, cpipe):
            l1 = cpipe.init_buffer(buffer=BufferKind.L1, depth=2, slot_bytes=128)
            a = l1.alloc_tensor("fp16", 64)
            b = l1.alloc_tensor("fp16", 64)
            I.adds(ctx, b, a, 1.0)

        with pytest.raises(KernelError):
            run_mix(dev, body)


class TestReductionsAndGather:
    def test_reduce_sum(self, dev, rng):
        vals = rng.integers(-10, 10, 64).astype(np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            t.array[:] = vals
            assert I.reduce_sum(ctx, t) == pytest.approx(float(vals.sum()))

        run_vec(dev, body)

    def test_reduce_max(self, dev, rng):
        vals = rng.standard_normal(64).astype(np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            t.array[:] = vals
            assert I.reduce_max(ctx, t) == pytest.approx(float(vals.max()))

        run_vec(dev, body)

    def test_gather_mask(self, dev):
        def body(ctx, q):
            src = q.alloc_tensor("fp16", 8)
            src.array[:] = [1, 2, 3, 4, 5, 6, 7, 8]
            mask = q.alloc_tensor("int8", 8)
            mask.array[:] = [1, 0, 1, 0, 0, 1, 0, 1]
            dst = q.alloc_tensor("fp16", 8)
            count = I.gather_mask(ctx, dst, src, mask)
            assert count == 4
            assert list(dst.array[:4]) == [1, 3, 6, 8]

        run_vec(dev, body)

    def test_gather_mask_length_mismatch(self, dev):
        def body(ctx, q):
            src = q.alloc_tensor("fp16", 8)
            mask = q.alloc_tensor("int8", 4)
            dst = q.alloc_tensor("fp16", 8)
            I.gather_mask(ctx, dst, src, mask)

        with pytest.raises(ShapeError):
            run_vec(dev, body)


class TestMacros:
    def test_propagate_chain_matches_manual_loop(self, dev):
        """The macro must compute exactly what the per-s-tile loop does."""
        vals = np.arange(32, dtype=np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 32)
            t.array[:] = vals
            reg = ctx.new_register()
            out = I.propagate_chain(ctx, t, 8, 10.0, reg)
            # manual: per 8-tile, add partial then take last
            expected = vals.astype(np.float32).copy()
            partial = 10.0
            for r in range(4):
                expected[r * 8 : (r + 1) * 8] += partial
                partial = float(expected[(r + 1) * 8 - 1])
            assert np.array_equal(t.array.astype(np.float32), expected)
            assert out == pytest.approx(partial)

        run_vec(dev, body)

    def test_propagate_chain_cost_is_per_row(self, dev):
        traces = []

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            reg = ctx.new_register()
            I.propagate_chain(ctx, t, 8, 0.0, reg)

        trace = run_vec(dev, body)
        chain_op = next(o for o in trace.ops if o.kind == "vec_chain")
        costs = dev.costs
        expected = costs.vector_cycles(128, n_instructions=8) + costs.scalar_cycles(8)
        assert chain_op.cycles == pytest.approx(expected)

    def test_propagate_chain_bad_stride(self, dev):
        def body(ctx, q):
            t = q.alloc_tensor("fp16", 30)
            I.propagate_chain(ctx, t, 8, 0.0, ctx.new_register())

        with pytest.raises(ShapeError):
            run_vec(dev, body)

    def test_row_cumsum_serial(self, dev):
        vals = np.arange(32, dtype=np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 32)
            t.array[:] = vals
            I.row_cumsum_serial(ctx, t, 4, 8)
            expected = np.cumsum(vals.reshape(4, 8).astype(np.float32), axis=1)
            assert np.array_equal(
                t.array.reshape(4, 8).astype(np.float32), expected
            )

        run_vec(dev, body)

    def test_row_cumsum_shape_check(self, dev):
        def body(ctx, q):
            t = q.alloc_tensor("fp16", 30)
            I.row_cumsum_serial(ctx, t, 4, 8)

        with pytest.raises(ShapeError):
            run_vec(dev, body)

    def test_vector_macro_requires_operand(self, dev):
        def body(ctx, q):
            I.vector_macro(ctx, label="x", nbytes=64)

        with pytest.raises(KernelError):
            run_vec(dev, body)

    def test_scalar_process_charges_scalar_unit(self, dev):
        def body(ctx, q):
            I.scalar_process(
                ctx, ctx.vec_core(0), 100, label="walk",
            )

        trace = run_vec(dev, body)
        op = next(o for o in trace.ops if o.kind == "scalar")
        assert op.cycles == pytest.approx(dev.costs.scalar_cycles(100))
