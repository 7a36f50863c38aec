"""AscendDevice and Emitter tests."""

import numpy as np
import pytest

from repro.errors import KernelError, SchedulerError
from repro.hw.device import CoreHandle
from repro.hw.isa import EngineKind
from repro.lang import Kernel, intrinsics as I
from repro.lang.tensor import BufferKind


class _NopKernel(Kernel):
    mode = "vec"

    def run(self, ctx):
        pipe = ctx.make_pipe(ctx.vec_core(0))
        q = pipe.init_buffer(buffer=BufferKind.UB, depth=1, slot_bytes=256)
        t = q.alloc_tensor("fp16", 8)
        I.duplicate(ctx, t, 1.0)
        q.free_tensor(t)


class TestEngineTable:
    def test_engine_counts(self, toy_device):
        cfg = toy_device.config
        expected = cfg.num_cube_cores * 5 + cfg.num_vector_cores * 4
        assert len(toy_device.engines) == expected

    def test_engine_lookup(self, toy_device):
        eid = toy_device.engine_id(CoreHandle("aic", 0), EngineKind.CUBE)
        info = toy_device.engines[eid]
        assert (info.core_kind, info.core_index, info.engine_kind) == (
            "aic", 0, EngineKind.CUBE,
        )

    def test_vector_core_has_no_cube_engine(self, toy_device):
        with pytest.raises(SchedulerError):
            toy_device.engine_id(CoreHandle("aiv", 0), EngineKind.CUBE)


class TestLaunch:
    def test_block_dim_bounds(self, toy_device):
        k = _NopKernel(block_dim=toy_device.config.num_vector_cores + 1)
        with pytest.raises(KernelError):
            toy_device.launch(k)

    def test_mix_mode_block_bound(self, toy_device):
        class MixNop(Kernel):
            mode = "mix"

            def run(self, ctx):
                ctx.require_cube()

        with pytest.raises(KernelError):
            toy_device.launch(MixNop(block_dim=toy_device.config.num_ai_cores + 1))

    def test_unknown_mode(self, toy_device):
        k = _NopKernel(1)
        k.mode = "weird"
        with pytest.raises(KernelError):
            toy_device.launch(k)

    def test_trace_includes_launch_overhead(self, toy_device):
        trace = toy_device.launch(_NopKernel(1))
        assert trace.launch_ns == toy_device.config.costs.kernel_launch_ns
        assert trace.total_ns > trace.device_ns

    def test_label(self, toy_device):
        trace = toy_device.launch(_NopKernel(1), label="my kernel")
        assert trace.label == "my kernel"


class TestGmHazards:
    """Exact-interval dependency derivation through the emitter."""

    def _write_read_kernel(self, x, overlap):
        class K(Kernel):
            mode = "vec"

            def run(self, ctx):
                pipe = ctx.make_pipe(ctx.vec_core(0))
                q = pipe.init_buffer(
                    buffer=BufferKind.UB, depth=1, slot_bytes=1024
                )
                t = q.alloc_tensor("fp16", 16)
                if ctx.block_idx == 0:
                    I.duplicate(ctx, t, 2.0)
                    I.data_copy(ctx, x.slice(0, 16), t)
                else:
                    src = x.slice(0, 16) if overlap else x.slice(16, 16)
                    I.data_copy(ctx, t, src)
                q.free_tensor(t)

        return K(block_dim=2)

    def test_overlapping_read_depends_on_write(self, toy_device):
        x = toy_device.alloc("x", 64, "fp16")
        trace = toy_device.launch(self._write_read_kernel(x, overlap=True))
        write_op = next(o for o in trace.ops if o.kind == "mte_out")
        read_op = next(o for o in trace.ops if o.kind == "mte_in")
        assert write_op.op_id in read_op.deps

    def test_adjacent_ranges_do_not_conflict(self, toy_device):
        # byte-precise hazards: adjacent (non-overlapping) ranges from
        # different cores must not serialise (the split-output regression)
        x = toy_device.alloc("x", 64, "fp16")
        trace = toy_device.launch(self._write_read_kernel(x, overlap=False))
        write_op = next(o for o in trace.ops if o.kind == "mte_out")
        read_op = next(o for o in trace.ops if o.kind == "mte_in")
        assert write_op.op_id not in read_op.deps

    def test_functional_result(self, toy_device):
        x = toy_device.alloc("x", 64, "fp16")
        toy_device.launch(self._write_read_kernel(x, overlap=True))
        assert np.all(x.to_numpy()[:16] == 2.0)


class TestWarm:
    def test_warm_l2_makes_reads_hit(self, toy_device):
        x = toy_device.alloc("x", 8192, "fp16")

        class Reader(Kernel):
            mode = "vec"

            def run(self, ctx):
                pipe = ctx.make_pipe(ctx.vec_core(0))
                q = pipe.init_buffer(
                    buffer=BufferKind.UB, depth=1, slot_bytes=16384
                )
                t = q.alloc_tensor("fp16", 8192)
                I.data_copy(ctx, t, x.whole())
                q.free_tensor(t)

        toy_device.warm_l2(x)
        trace = toy_device.launch(Reader(1))
        assert trace.l2_hit_ratio() == pytest.approx(1.0)

    def test_flush_l2(self, toy_device):
        x = toy_device.alloc("x", 8192, "fp16")
        toy_device.warm_l2(x)
        toy_device.flush_l2()
        assert len(toy_device.l2) == 0


class TestSplitPhases:
    def test_phases_time_the_kernel_without_its_barrier(self, toy_device):
        """Cut at its SyncAll, an MCScan program becomes two programs that
        hold every other op and time exactly like the halves around the
        barrier."""
        from repro.core.api import ScanContext

        ctx = ScanContext(device=toy_device)
        plan = ctx.build_plan(
            algorithm="mcscan", n=5000, s=16, device_carry=True
        )
        phases = plan.phases
        assert [p.label for p in phases] == [
            f"{plan.traced.label} phase 1", f"{plan.traced.label} phase 2"
        ]
        ops = plan.traced.ops
        assert sum(len(p.ops) for p in phases) == len(ops) - 1
        assert all(not op.is_barrier for p in phases for op in p.ops)
        full = toy_device.replay(plan.traced).timeline.total_ns
        halves = [toy_device.replay(p).timeline.total_ns for p in phases]
        sync_ns = toy_device.config.costs.sync_all_ns
        assert full == pytest.approx(sum(halves) + sync_ns, rel=1e-12)

    def test_single_phase_kernel_is_one_phase(self, toy_device):
        traced = toy_device.trace_kernel(_NopKernel(1))
        (phase,) = traced.split_phases()
        assert len(phase.ops) == len(traced.ops)
