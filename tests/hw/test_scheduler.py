"""Discrete-event scheduler tests (built directly on Program/Op), and the
per-trace timeline memo that serves its result on every replay."""

import pytest

from repro.errors import DeadlockError, SchedulerError
from repro.hw.config import toy_config
from repro.hw.device import AscendDevice, TracedKernel
from repro.hw.isa import Op
from repro.hw.scheduler import Program, simulate

CFG = toy_config()
NS = CFG.cycle_ns  # ns per cycle


def make_op(op_id, engine, cycles=0.0, deps=(), gm_bytes=0, eff_bytes=None,
            latency_ns=0.0, kind="vec"):
    return Op(
        op_id=op_id, engine=engine, kind=kind, label=f"op{op_id}",
        deps=tuple(deps), cycles=cycles, gm_bytes=gm_bytes,
        eff_bytes=float(gm_bytes) if eff_bytes is None else eff_bytes,
        latency_ns=latency_ns,
    )


class TestBasics:
    def test_empty_program(self):
        t = simulate(Program(1), CFG)
        assert t.total_ns == 0.0

    def test_single_op_duration(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=180))
        t = simulate(p, CFG)
        assert t.total_ns == pytest.approx(180 * NS)

    def test_in_order_engine_serialisation(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=100))
        p.add(make_op(1, 0, cycles=100))
        t = simulate(p, CFG)
        assert t.start_ns[1] == pytest.approx(t.finish_ns[0])
        assert t.total_ns == pytest.approx(200 * NS)

    def test_independent_engines_overlap(self):
        p = Program(2)
        p.add(make_op(0, 0, cycles=100))
        p.add(make_op(1, 1, cycles=100))
        t = simulate(p, CFG)
        assert t.total_ns == pytest.approx(100 * NS)

    def test_dependency_across_engines(self):
        p = Program(2)
        p.add(make_op(0, 0, cycles=100))
        p.add(make_op(1, 1, cycles=50, deps=(0,)))
        t = simulate(p, CFG)
        assert t.start_ns[1] == pytest.approx(t.finish_ns[0])

    def test_zero_duration_op(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=0))
        t = simulate(p, CFG)
        assert t.total_ns == 0.0


class TestValidation:
    def test_forward_dependency_rejected(self):
        p = Program(1)
        with pytest.raises(SchedulerError):
            p.add(make_op(0, 0, deps=(1,)))

    def test_wrong_id_rejected(self):
        p = Program(1)
        with pytest.raises(SchedulerError):
            p.add(make_op(3, 0))

    def test_unknown_engine_rejected(self):
        p = Program(1)
        with pytest.raises(SchedulerError):
            p.add(make_op(0, 7))

    def test_negative_duration_rejected(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=-5))
        with pytest.raises(SchedulerError):
            simulate(p, CFG)


class TestFlows:
    def test_flow_latency_plus_drain(self):
        p = Program(1)
        nbytes = 80000
        p.add(make_op(0, 0, gm_bytes=nbytes, latency_ns=100.0, kind="mte_in"))
        t = simulate(p, CFG)
        # single flow: rate = min(link, pool)
        rate = min(CFG.mte_link_bytes_per_ns, CFG.hbm_bytes_per_ns)
        assert t.total_ns == pytest.approx(100.0 + nbytes / rate)

    def test_concurrent_flows_share_pool(self):
        p = Program(4)
        nbytes = 1_000_000
        latency = 5.0
        for e in range(4):
            p.add(make_op(e, e, gm_bytes=nbytes, latency_ns=latency, kind="mte_in"))
        t = simulate(p, CFG)
        # 4 flows, each link-capped at 460.8, pool 800 -> 200 each
        share = CFG.hbm_bytes_per_ns / 4
        assert t.total_ns == pytest.approx(latency + nbytes / share, rel=1e-6)

    def test_flow_occupies_engine(self):
        p = Program(1)
        p.add(make_op(0, 0, gm_bytes=1000, latency_ns=10.0, kind="mte_in"))
        p.add(make_op(1, 0, cycles=10))
        t = simulate(p, CFG)
        assert t.start_ns[1] >= t.finish_ns[0]

    def test_zero_byte_flow_completes_at_latency(self):
        # a flow whose effective bytes are below the drain epsilon never
        # enters the draining set: it completes when its latency elapses
        p = Program(1)
        p.add(make_op(0, 0, gm_bytes=4, eff_bytes=1e-9, latency_ns=50.0))
        t = simulate(p, CFG)
        assert t.finish_ns[0] == pytest.approx(50.0)

    def test_mixed_flows_and_fixed_ops(self):
        p = Program(3)
        p.add(make_op(0, 0, gm_bytes=65536, latency_ns=20.0, kind="mte_in"))
        p.add(make_op(1, 1, cycles=100))
        p.add(make_op(2, 2, gm_bytes=32768, latency_ns=5.0, deps=(1,),
                      kind="mte_in"))
        p.add(make_op(3, 1, cycles=10, deps=(0, 2)))
        t = simulate(p, CFG)
        assert t.start_ns[2] == pytest.approx(t.finish_ns[1])
        assert t.start_ns[3] == pytest.approx(max(t.finish_ns[0], t.finish_ns[2]))
        assert t.total_ns == pytest.approx(t.finish_ns[3])

    def test_tiny_flow_residue_terminates(self):
        # regression: float residue at large t must not livelock the clock
        p = Program(1)
        p.add(make_op(0, 0, cycles=1.8e8))  # pushes t to 1e8 ns
        p.add(make_op(1, 0, gm_bytes=32768, latency_ns=10.0, kind="mte_in"))
        t = simulate(p, CFG)
        assert t.total_ns > 1e8


class TestBarriers:
    def test_barrier_orders_phases(self):
        p = Program(3)
        p.add(make_op(0, 0, cycles=100))
        p.add(make_op(1, 1, cycles=500))
        barrier = make_op(2, 2, cycles=0, deps=p.barrier_deps(), kind="barrier")
        p.add(barrier)
        p.set_fence(2)
        p.add(make_op(3, 0, cycles=10))
        t = simulate(p, CFG)
        assert t.start_ns[3] >= t.finish_ns[1]

    def test_barrier_only_program(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=10, kind="barrier"))
        p.set_fence(0)
        p.add(make_op(1, 0, cycles=10, kind="barrier"))
        t = simulate(p, CFG)
        assert t.start_ns[1] == pytest.approx(t.finish_ns[0])
        assert t.total_ns == pytest.approx(20 * NS)

    def test_deadlock_detected(self):
        # two ops that (incorrectly) depend on each other's engine order:
        # op1 on engine 0 ahead of op0's dependency target never runs
        p = Program(1)
        p.add(make_op(0, 0, cycles=10))
        # craft a cycle: op1 depends on op2 which is behind it on the queue
        p.add(make_op(1, 0, cycles=10))
        p.op_deps[1] = (2,)  # forward dep injected post-validation
        p.add(make_op(2, 0, cycles=10))
        with pytest.raises(DeadlockError):
            simulate(p, CFG)


class TestProgramDeps:
    """Dependency bookkeeping lives on the program, not the Op records."""

    def test_add_does_not_mutate_op_deps(self):
        p = Program(2)
        p.add(make_op(0, 0, cycles=10))
        barrier = make_op(1, 1, cycles=0, deps=p.barrier_deps(), kind="barrier")
        p.add(barrier)
        p.set_fence(1)
        op = make_op(2, 0, cycles=10)
        p.add(op)
        assert op.deps == ()  # the fence edge is program-side only
        assert p.deps_of(2) == (1,)

    def test_readding_op_to_second_program_is_clean(self):
        # an Op traced once can be added to a second program without
        # accumulating the first program's fence edges
        op = make_op(2, 0, cycles=10)
        for _ in range(2):
            p = Program(2)
            p.add(make_op(0, 0, cycles=10))
            barrier = make_op(
                1, 1, cycles=0, deps=p.barrier_deps(), kind="barrier"
            )
            p.add(barrier)
            p.set_fence(1)
            p.add(op)
            assert p.deps_of(2) == (1,)
        assert op.deps == ()

    def test_deps_deduped_at_add_time(self):
        p = Program(2)
        p.add(make_op(0, 0, cycles=10))
        p.add(make_op(1, 1, cycles=10, deps=(0, 0, 0)))
        assert p.deps_of(1) == (0,)
        t = simulate(p, CFG)
        assert t.start_ns[1] == pytest.approx(t.finish_ns[0])

    def test_fence_not_duplicated_when_already_explicit(self):
        p = Program(2)
        barrier = make_op(0, 1, cycles=0, kind="barrier")
        p.add(barrier)
        p.set_fence(0)
        p.add(make_op(1, 0, cycles=10, deps=(0,)))
        assert p.deps_of(1) == (0,)


# -- the timeline memo on replay ------------------------------------------


def _traced():
    p = Program(1)
    for i, c in enumerate((10, 20, 30)):
        p.add(make_op(i, 0, cycles=c))
    return TracedKernel(program=p, label="synthetic")


class TestMemoization:
    def test_cached_replay_hits_after_first(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        t1 = dev.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (1, 0)
        t2 = dev.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (1, 1)
        # the very same Timeline object is served, not a recomputation
        assert t2.timeline is t1.timeline

    def test_config_change_invalidates(self):
        dev1 = AscendDevice(toy_config())
        dev2 = AscendDevice(toy_config())  # equal but distinct config object
        tk = _traced()
        dev1.replay(tk)
        dev2.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (2, 0)
        dev2.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (2, 1)

    def test_cost_probe_shares_the_memo(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        assert dev.time_traced(tk) == dev.replay(tk).total_ns
        assert dev.time_traced(tk) == dev.time_traced(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (1, 3)

