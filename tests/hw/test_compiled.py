"""Edge-case programs on the compiled replay path: a traced op DAG replayed
through :meth:`AscendDevice.replay` must serve a timeline bit-identical
(``==``, never ``approx``) to a direct :func:`simulate` run, and scheduler
errors must surface from the replay rather than a stale or empty timeline.
"""

import pytest

from repro.errors import DeadlockError, SchedulerError
from repro.hw.config import toy_config
from repro.hw.device import AscendDevice, TracedKernel
from repro.hw.isa import Op
from repro.hw.scheduler import Program, simulate

CFG = toy_config()


def make_op(op_id, engine, cycles=0.0, deps=(), gm_bytes=0, latency_ns=0.0,
            kind="vec"):
    return Op(
        op_id=op_id, engine=engine, kind=kind, label=f"op{op_id}",
        deps=tuple(deps), cycles=cycles, gm_bytes=gm_bytes,
        eff_bytes=float(gm_bytes), latency_ns=latency_ns,
    )


def replay_timeline(p, config=CFG):
    """The replayed timeline, asserted bit-identical to ``simulate``'s."""
    ref = simulate(p, config)
    got = AscendDevice(config).replay(TracedKernel(program=p, label="edge")).timeline
    assert got == ref
    return got


class TestEdgeCases:
    def test_empty_program(self):
        t = replay_timeline(Program(1))
        assert t.total_ns == 0.0
        assert t.start_ns == []

    def test_duplicate_deps(self):
        p = Program(2)
        p.add(make_op(0, 0, cycles=10))
        p.add(make_op(1, 1, cycles=10, deps=(0, 0, 0)))
        assert p.deps_of(1) == (0,)
        t = replay_timeline(p)
        assert t.start_ns[1] == pytest.approx(t.finish_ns[0])

    def test_concurrent_flows_contend(self):
        # many simultaneous flows share the HBM pool: none may finish
        # before its latency, and the makespan exceeds the lone-flow time
        n_engines = 24
        p = Program(n_engines)
        for e in range(n_engines):
            p.add(make_op(e, e, gm_bytes=4096 * (e + 1), latency_ns=10.0))
        t = replay_timeline(p)
        assert all(f > 10.0 for f in t.finish_ns)
        alone = Program(1)
        alone.add(make_op(0, 0, gm_bytes=4096 * n_engines, latency_ns=10.0))
        assert t.total_ns > simulate(alone, CFG).total_ns

    def test_deadlock_detected(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=10))
        p.add(make_op(1, 0, cycles=10))
        p.op_deps[1] = (2,)  # forward dep injected post-validation
        p.add(make_op(2, 0, cycles=10))
        tk = TracedKernel(program=p, label="deadlock")
        with pytest.raises(DeadlockError):
            AscendDevice(CFG).replay(tk)
        assert tk.timeline_misses == 0

    def test_negative_duration_rejected_at_compile(self):
        p = Program(1)
        p.add(make_op(0, 0, cycles=-5))
        tk = TracedKernel(program=p, label="negative")
        with pytest.raises(SchedulerError):
            AscendDevice(CFG).replay(tk)
        assert tk.timeline_misses == 0
