"""Seeded schedule fuzzing for the serve/shard/fault stack.

Each fuzz *seed* runs one :class:`WorkloadSpec` — a request mix over a
device pool with a fault profile — under a
:class:`~repro.verify.controller.ScheduleController` that decides every
schedule-equivalent choice (batcher drain order, pool group pick order,
routing tie-breaks, failover recall order, transient-fault timing, DES
engine polling order).  After the run the
:class:`~repro.verify.invariants.ServeInvariantChecker` asserts oracle
bit-identity, exactly-once ticket resolution, monotone simulated time
and GM accounting; any violation makes the seed a failure.

A failing seed carries its full decision trace, so it can be

* **replayed** exactly (``run_seed(spec, seed, trace=...)``), and
* **shrunk** (:func:`shrink_trace`) to a minimal trace: first the
  shortest failing prefix (replay falls back to canonical pick 0 past
  the trace end), then pointwise zeroing of the surviving non-canonical
  picks.  What remains is the smallest set of schedule divergences that
  still breaks the invariant.

The committed seed corpus (``corpus.json`` next to this module) pins
previously-failing seeds; :func:`replay_corpus` re-runs them so every CI
run re-checks each schedule that ever caught a bug.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DeviceFault
from ..hw.config import toy_config
from ..hw.faults import FaultPlan
from ..shard.pool import DevicePool
from ..shard.service import PoolScanService
from .controller import Decision, ScheduleController, trace_to_json
from .invariants import (
    InvariantViolation,
    ServeInvariantChecker,
    check_schedule_invariance,
)

__all__ = [
    "FUZZ_SEED0",
    "WORKLOAD_MATRIX",
    "CorpusEntry",
    "FuzzFailure",
    "FuzzReport",
    "SeedResult",
    "WorkloadSpec",
    "load_corpus",
    "replay_corpus",
    "run_fuzz",
    "run_seed",
    "shrink_trace",
]

#: root of every derived fuzz seed — shared with the chaos test suite
#: (tests/serve/test_chaos.py) so the fuzzer and the example-based tests
#: draw fault schedules from one seed family
FUZZ_SEED0 = 0xA5CE


@dataclass(frozen=True)
class WorkloadSpec:
    """One cell of the fuzz workload matrix: a request mix, a pool size
    and a fault profile.  ``s=16`` rides the toy device config, keeping a
    single seed in the ~100 ms range."""

    name: str
    dtype: str = "fp16"
    #: request lengths drawn per submission (adversarial around the
    #: s*s=256 padding unit: sub-unit, exact, unit+1, multi-unit)
    sizes: "tuple[int, ...]" = (5, 200, 256, 257)
    num_devices: int = 1
    requests: int = 8
    #: flush rounds the requests are spread across
    flushes: int = 2
    s: int = 16
    #: members with transient launch faults (rate below)
    transient: "tuple[int, ...]" = ()
    transient_rate: float = 0.0
    #: members running degraded (slowdowns below)
    slow: "tuple[int, ...]" = ()
    mte_slowdown: float = 1.0
    vec_slowdown: float = 1.0
    #: permanent losses as (member, die_at_launch) pairs; specs must keep
    #: at least one member alive so the final drain can complete
    deaths: "tuple[tuple[int, int], ...]" = ()
    gm_budget: "int | None" = None
    #: mix in exclusive mcscan requests (1-D fallback path)
    exclusive_mix: bool = False
    #: mix in operator-graph requests (llm_sample top-k -> top-p) with the
    #: raw scans, fuzzing the graph serving path's batching/failover
    graph_mix: bool = False
    #: fuse-heavy graph mix: llm_sample with an elementwise prep chain plus
    #: a pre->scan->post pipeline, served with ``fusion=aggressive`` — one
    #: captured program per fused region under faults
    graph_fused: bool = False
    #: open-loop traffic process ("poisson" | "bursty" | "diurnal"); when
    #: set, the seed serves a generated arrival stream through the
    #: :class:`~repro.shard.TrafficScheduler` (continuous batching,
    #: deadline admission, EDF + cost-model routing) instead of the
    #: closed-loop submit/flush rounds
    traffic: str = ""
    #: offered load for traffic seeds (requests per simulated second)
    traffic_rate: float = 400_000.0
    #: per-arrival completion SLO for traffic seeds.  Generous by default
    #: so admission rarely sheds; tighten it to fuzz the deadline-staging
    #: and shed paths (shed arrivals never reach a device, so they carry
    #: no oracle expectation either way)
    slo_ns: float = 50_000_000.0

    def __post_init__(self):
        dead = {m for m, _ in self.deaths}
        if len(dead) >= self.num_devices:
            raise ConfigError(
                f"workload {self.name!r} kills every member; the final "
                f"drain could never complete"
            )

    @property
    def np_dtype(self):
        return np.float16 if self.dtype == "fp16" else np.int8

    def describe(self) -> str:
        parts = [f"D={self.num_devices}", self.dtype]
        if self.transient:
            parts.append(
                f"transient {self.transient_rate:.0%} on {self.transient}"
            )
        if self.slow:
            parts.append(f"slow {self.slow}")
        if self.deaths:
            parts.append(f"deaths {self.deaths}")
        if self.gm_budget:
            parts.append(f"gm_budget {self.gm_budget}")
        if self.exclusive_mix:
            parts.append("exclusive mix")
        if self.graph_fused:
            parts.append("fused graphs")
        elif self.graph_mix:
            parts.append("graph mix")
        if self.traffic:
            parts.append(
                f"{self.traffic} traffic @{self.traffic_rate:,.0f} rps"
            )
        return f"{self.name}: {', '.join(parts)}"


#: the fuzz workload matrix: dtype x size x pool width x fault mix.
#: Deaths only appear at D >= 2 (survivors must be able to serve
#: everything); D covers 1..4 as in the sharded-scan experiments.
WORKLOAD_MATRIX: "tuple[WorkloadSpec, ...]" = (
    WorkloadSpec(name="clean-fp16-d1"),
    WorkloadSpec(
        name="clean-int8-d3",
        dtype="int8",
        sizes=(7, 256, 300, 513),
        num_devices=3,
        requests=9,
        flushes=3,
    ),
    WorkloadSpec(
        name="transient-fp16-d1",
        requests=6,
        transient=(0,),
        transient_rate=0.30,
    ),
    WorkloadSpec(
        name="transient-int8-d2",
        dtype="int8",
        sizes=(5, 200, 256, 513),
        num_devices=2,
        transient=(0, 1),
        transient_rate=0.25,
    ),
    WorkloadSpec(
        name="slow-fp16-d2",
        num_devices=2,
        transient=(0,),
        transient_rate=0.10,
        slow=(0,),
        mte_slowdown=1.5,
        vec_slowdown=1.25,
    ),
    WorkloadSpec(
        name="death-fp16-d2",
        num_devices=2,
        transient=(1,),
        transient_rate=0.15,
        deaths=((0, 3),),
    ),
    WorkloadSpec(
        name="death-int8-d3",
        dtype="int8",
        sizes=(7, 255, 256, 1000),
        num_devices=3,
        requests=9,
        flushes=3,
        deaths=((0, 2), (1, 5)),
    ),
    WorkloadSpec(
        name="mixed-fp16-d4",
        num_devices=4,
        requests=12,
        flushes=3,
        transient=(0, 2),
        transient_rate=0.20,
        slow=(1,),
        mte_slowdown=1.4,
        deaths=((3, 4),),
    ),
    WorkloadSpec(
        name="budget-int8-d2",
        dtype="int8",
        sizes=(5, 200, 256, 257, 1000),
        num_devices=2,
        requests=10,
        transient=(0,),
        transient_rate=0.20,
        gm_budget=40_000,
    ),
    WorkloadSpec(
        name="exclusive-fp16-d2",
        num_devices=2,
        requests=6,
        transient=(0,),
        transient_rate=0.20,
        exclusive_mix=True,
    ),
    WorkloadSpec(
        name="transient-death-d3",
        num_devices=3,
        requests=10,
        flushes=3,
        transient=(0, 1),
        transient_rate=0.20,
        deaths=((2, 4),),
    ),
    WorkloadSpec(
        name="graph-llm-d1",
        requests=6,
        transient=(0,),
        transient_rate=0.20,
        graph_mix=True,
    ),
    WorkloadSpec(
        name="graph-llm-d3",
        num_devices=3,
        requests=9,
        flushes=3,
        transient=(0, 2),
        transient_rate=0.20,
        graph_mix=True,
    ),
    WorkloadSpec(
        name="graph-fused-mix",
        num_devices=2,
        requests=8,
        flushes=2,
        transient=(0, 1),
        transient_rate=0.20,
        graph_fused=True,
    ),
    WorkloadSpec(
        name="traffic-poisson-d2",
        num_devices=2,
        requests=24,
        traffic="poisson",
        traffic_rate=400_000.0,
        transient=(0,),
        transient_rate=0.20,
    ),
    WorkloadSpec(
        name="traffic-deadline-chaos",
        num_devices=3,
        requests=48,
        traffic="bursty",
        traffic_rate=1_500_000.0,
        # tight SLO: buckets stage on deadline pressure and the failover
        # cost of the mid-stream death shows up as real deadline misses
        slo_ns=15_000.0,
        transient=(0, 1),
        transient_rate=0.35,
        deaths=((2, 1),),
    ),
)

_SPEC_BY_NAME = {spec.name: spec for spec in WORKLOAD_MATRIX}


@dataclass
class SeedResult:
    """Outcome of one fuzz seed."""

    spec: str
    seed: int
    violations: "list[InvariantViolation]"
    #: full decision trace of the run (replayable)
    trace: "list[Decision]"
    served: int
    #: flush-level DeviceFaults absorbed (failover / retry exhaustion)
    flush_faults: int

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class FuzzFailure:
    """A failing seed with its full and shrunk decision traces."""

    spec: str
    seed: int
    violations: "list[InvariantViolation]"
    trace: "list[Decision]"
    shrunk: "list[Decision] | None" = None

    def describe(self) -> str:
        lines = [f"seed {self.seed} on {self.spec}:"]
        lines += [f"  {v.describe()}" for v in self.violations]
        if self.shrunk is not None:
            hot = [d for d in self.shrunk if d.pick]
            lines.append(
                f"  shrunk to {len(self.shrunk)} decision(s) "
                f"({len(hot)} non-canonical): "
                + ("; ".join(d.describe() for d in hot[:10]) or "(canonical)")
            )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Aggregate result of a fuzz run (or a corpus replay)."""

    seeds_run: int
    failures: "list[FuzzFailure]" = field(default_factory=list)
    served: int = 0
    decisions: int = 0
    flush_faults: int = 0
    per_spec: "dict[str, int]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"fuzz: {self.seeds_run} seed(s), {self.served} requests "
            f"served, {self.decisions} schedule decisions, "
            f"{self.flush_faults} flush-level faults absorbed",
            "workloads: "
            + ", ".join(f"{k} x{v}" for k, v in sorted(self.per_spec.items())),
        ]
        if self.failures:
            lines.append(f"{len(self.failures)} FAILING seed(s):")
            lines += [f.describe() for f in self.failures]
        else:
            lines.append("all invariants held on every seed")
        return "\n".join(lines)


# -- one seed ---------------------------------------------------------------


def _fault_plans(spec: WorkloadSpec, seed: int, controller) -> dict:
    members = set(spec.transient) | set(spec.slow) | {
        m for m, _ in spec.deaths
    }
    deaths = dict(spec.deaths)
    return {
        m: FaultPlan(
            seed=(FUZZ_SEED0 << 8) ^ (seed * 31 + m),
            transient_rate=(
                spec.transient_rate if m in spec.transient else 0.0
            ),
            mte_slowdown=spec.mte_slowdown if m in spec.slow else 1.0,
            vec_slowdown=spec.vec_slowdown if m in spec.slow else 1.0,
            die_at_launch=deaths.get(m),
            controller=controller,
        )
        for m in members
    }


def _attach_controller(svc: PoolScanService, controller) -> None:
    svc.controller = controller
    svc.batcher.controller = controller


def _warm(spec: WorkloadSpec, svc: PoolScanService) -> None:
    """Touch every shared shape class on every member, on a canonical
    schedule with no faults attached.

    Warming bypasses pool routing on purpose: shared constants are
    uploaded per member on first touch and are *not* plan-owned, so a
    member that first meets a shape class mid-run would allocate GM the
    invariant checker's baseline never saw.  (Plans themselves may still
    be built mid-run — they are cache-tracked, so the GM accounting
    identity covers them.)  Warming also keeps the per-seed decision
    trace down to decisions that can matter."""
    dt = spec.np_dtype
    for worker in svc.workers:
        for size in spec.sizes:
            warm = (np.arange(size) % 5 - 2).astype(dt)
            for _ in range(2):  # MIN_GROUP rows: warm the batched path too
                worker.submit(warm, algorithm="scanu", s=spec.s)
            worker.flush()
            worker.submit(warm, algorithm="scanu", s=spec.s)
            worker.flush()  # and the 1-D fallback plan for the same class
            if spec.exclusive_mix:
                worker.submit(warm, algorithm="mcscan", s=spec.s, exclusive=True)
                worker.flush()


def _run_traffic_seed(
    spec: WorkloadSpec,
    seed: int,
    svc: PoolScanService,
    controller,
    checker: ServeInvariantChecker,
    config,
) -> SeedResult:
    """Serve one open-loop traffic seed through the
    :class:`~repro.shard.TrafficScheduler` and check the same invariants
    as a closed-loop seed.

    Every *admitted* arrival registers an oracle expectation at admit
    time; shed arrivals never reach a device, so they carry none.  The
    scheduler drains fully inside :func:`~repro.shard.run_traffic`
    (failover reroutes around deaths, admission sheds around a dead
    pool), so there is no end-of-seed repair phase — a ticket the run
    could neither serve nor account for surfaces as an unresolved
    expectation or a retained-queue violation in ``checker.finish``."""
    from ..serve.traffic import TrafficSpec
    from ..shard.scheduler import run_traffic

    tspec = TrafficSpec(
        name=spec.name,
        process=spec.traffic,
        rate_rps=spec.traffic_rate,
        requests=spec.requests,
        sizes=spec.sizes,
        slo_ns=spec.slo_ns,
        dtype=spec.dtype,
    )
    report = run_traffic(
        svc,
        tspec,
        seed,
        controller=controller,
        s=spec.s,
        on_admit=checker.expect,
    )
    checker.observe(report.tickets)
    violations = checker.finish()
    if not report.accounted():
        violations.append(
            InvariantViolation(
                invariant="exactly_once",
                detail=(
                    f"traffic accounting broke: offered {report.offered} "
                    f"!= served {report.served} + shed {report.shed} "
                    f"+ failed {report.failed}"
                ),
            )
        )
    if report.failed:
        violations.append(
            InvariantViolation(
                invariant="queue_drained",
                detail=(
                    f"{report.failed} admitted request(s) failed under a "
                    f"fault profile that keeps a member alive"
                ),
            )
        )

    for worker in svc.workers:
        plan = next(iter(worker.cache._plans.values()), None)
        if plan is not None:
            bad = check_schedule_invariance(plan.traced, config, controller)
            if bad is not None:
                violations.append(bad)
            break

    return SeedResult(
        spec=spec.name,
        seed=seed,
        violations=violations,
        trace=list(controller.trace),
        served=report.served,
        flush_faults=sum(svc.failovers),
    )


def run_seed(
    spec: WorkloadSpec,
    seed: int,
    *,
    trace: "list[Decision] | None" = None,
) -> SeedResult:
    """Run one fuzz seed (or replay its recorded ``trace``) and check
    every invariant.  Input data depends only on ``(FUZZ_SEED0, seed)``,
    never on schedule decisions, so a replayed trace sees identical
    requests.
    """
    config = toy_config()
    controller = ScheduleController(seed, trace=trace)
    pool = DevicePool(spec.num_devices, config)
    svc = PoolScanService(
        pool=pool,
        config=config,
        max_batch=8,
        gm_budget=spec.gm_budget,
        graph_fusion="aggressive" if spec.graph_fused else "conservative",
    )
    _warm(spec, svc)
    _attach_controller(svc, controller)
    for member, plan in _fault_plans(spec, seed, controller).items():
        pool.inject_faults(member, plan)
    checker = ServeInvariantChecker(svc)

    if spec.traffic:
        return _run_traffic_seed(spec, seed, svc, controller, checker, config)

    rng = np.random.default_rng((FUZZ_SEED0, seed))
    dt = spec.np_dtype
    graphs: dict = {}
    if spec.graph_mix or spec.graph_fused:
        from ..graph import llm_sample

        # two vocab shape classes, exercising lowered-program reuse; the
        # fused mix prepends an elementwise chain so the fusion pass has a
        # region to collapse inside the sampling graph
        prep = ("abs", "double") if spec.graph_fused else ()
        for vocab in (96, 160):
            graphs[vocab] = llm_sample(
                vocab, k=8, p=0.75, s=spec.s, prep=prep
            )
    if spec.graph_fused:
        from ..graph import scan_pipeline

        # the canonical fused region: pre-map -> scan -> post-map, one
        # captured program under fusion=aggressive
        graphs["pipeline"] = scan_pipeline(
            200, dtype=spec.dtype, pre=("abs",), post=("double",), s=spec.s
        )
    outstanding: dict = {}
    served = 0
    flush_faults = 0

    def flush_once() -> None:
        nonlocal served, flush_faults
        try:
            completed = list(svc.flush())
        except DeviceFault:
            # the aborted flush parked unserved work back in the pool
            # queue; tickets it *did* complete were never returned, so
            # sweep them out of `outstanding` for exactly-once accounting
            flush_faults += 1
            completed = [t for t in outstanding.values() if t.done]
        for ticket in completed:
            outstanding.pop(ticket.req_id, None)
        served += len(completed)
        checker.observe(completed)

    per_round = math.ceil(spec.requests / spec.flushes)
    submitted = 0
    for _ in range(spec.flushes):
        for _ in range(min(per_round, spec.requests - submitted)):
            n = int(rng.choice(spec.sizes))
            x = rng.integers(-2, 3, n).astype(dt)
            exclusive = spec.exclusive_mix and bool(rng.integers(0, 2))
            graph_pick = (spec.graph_mix or spec.graph_fused) and bool(
                rng.integers(0, 2)
            )
            if graph_pick and spec.graph_fused and bool(rng.integers(0, 2)):
                from ..graph import oracle_outputs

                graph = graphs["pipeline"]
                inputs = {"x": rng.integers(-2, 3, 200).astype(dt)}
                ticket = svc.submit_graph(graph, inputs)
                checker.expect_graph(
                    ticket, oracle_outputs(graph, inputs, None)
                )
            elif graph_pick:
                from ..graph import oracle_outputs

                vocab = int(rng.choice((96, 160)))
                probs = (rng.permutation(vocab) + 1).astype(np.float16)
                theta = float(rng.integers(1, 8)) / 8.0
                graph = graphs[vocab]
                params = {"sample": {"theta": theta}}
                ticket = svc.submit_graph(
                    graph, {"probs": probs}, params=params
                )
                checker.expect_graph(
                    ticket, oracle_outputs(graph, {"probs": probs}, params)
                )
            elif exclusive:
                ticket = svc.submit(
                    x, algorithm="mcscan", s=spec.s, exclusive=True
                )
                checker.expect(ticket, x)
            else:
                ticket = svc.submit(x, algorithm="scanu", s=spec.s)
                checker.expect(ticket, x)
            outstanding[ticket.req_id] = ticket
            submitted += 1
        flush_once()

    # end-of-seed repair: lift the fault plans and drain whatever the
    # faulty phase could not serve, so the terminal exactly-once and
    # queue-drained checks are decisive
    for device in pool.devices:
        device.fault_plan = None
    for _ in range(4):
        if not svc.pending:
            break
        flush_once()

    violations = checker.finish()

    # scheduler seam: one traced program per seed, timeline must not
    # depend on the controller's engine polling order
    for worker in svc.workers:
        plan = next(iter(worker.cache._plans.values()), None)
        if plan is not None:
            bad = check_schedule_invariance(plan.traced, config, controller)
            if bad is not None:
                violations.append(bad)
            break

    return SeedResult(
        spec=spec.name,
        seed=seed,
        violations=violations,
        trace=list(controller.trace),
        served=served,
        flush_faults=flush_faults,
    )


# -- shrinking --------------------------------------------------------------


def shrink_trace(
    spec: WorkloadSpec, seed: int, trace: "list[Decision]"
) -> "list[Decision]":
    """Minimise a failing seed's decision trace.

    Two passes, both exploiting the pick-0-is-canonical convention:
    binary-search the shortest failing prefix (replay pads with pick 0
    past the end), then zero each surviving non-canonical pick that the
    failure does not need.  Returns the recorded trace unchanged if the
    failure does not reproduce under replay (a data bug, not a schedule
    bug — the canonical schedule fails too)."""

    def fails(candidate: "list[Decision]") -> bool:
        try:
            return not run_seed(spec, seed, trace=candidate).ok
        except Exception:
            return True  # a crashing schedule still reproduces the failure

    trace = list(trace)
    if not fails(trace):
        return trace
    lo, hi = 0, len(trace)  # invariant: trace[:hi] fails
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(trace[:mid]):
            hi = mid
        else:
            lo = mid + 1
    best = trace[:hi]
    for i, decision in enumerate(best):
        if decision.pick == 0:
            continue
        candidate = list(best)
        candidate[i] = Decision(decision.point, decision.n, 0)
        if fails(candidate):
            best = candidate
    while best and best[-1].pick == 0:
        best.pop()
    return best


# -- the fuzz loop ----------------------------------------------------------


def run_fuzz(
    specs: "list[WorkloadSpec] | None" = None,
    *,
    seeds: int = 1000,
    shrink: bool = True,
    max_failures: int = 5,
    progress=None,
) -> FuzzReport:
    """Run ``seeds`` fuzz seeds round-robin over the workload matrix.

    Stops early after ``max_failures`` failing seeds (each failure costs
    a shrink, which replays the seed O(log + nonzero) times).
    ``progress`` is an optional ``f(done, total, failures)`` callback.
    """
    matrix = list(specs) if specs else list(WORKLOAD_MATRIX)
    report = FuzzReport(seeds_run=0)
    for i in range(seeds):
        spec = matrix[i % len(matrix)]
        try:
            result = run_seed(spec, i)
        except Exception as exc:  # a crashing schedule is a failing seed
            result = SeedResult(
                spec=spec.name,
                seed=i,
                violations=[
                    InvariantViolation(
                        "crash", f"{type(exc).__name__}: {exc}"
                    )
                ],
                trace=[],
                served=0,
                flush_faults=0,
            )
        report.seeds_run += 1
        report.served += result.served
        report.decisions += len(result.trace)
        report.flush_faults += result.flush_faults
        report.per_spec[spec.name] = report.per_spec.get(spec.name, 0) + 1
        if not result.ok:
            shrunk = (
                shrink_trace(spec, i, result.trace) if shrink else None
            )
            report.failures.append(
                FuzzFailure(
                    spec=spec.name,
                    seed=i,
                    violations=result.violations,
                    trace=result.trace,
                    shrunk=shrunk,
                )
            )
            if len(report.failures) >= max_failures:
                break
        if progress is not None:
            progress(i + 1, seeds, len(report.failures))
    return report


# -- seed corpus ------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """One pinned seed: a schedule that previously caught a bug."""

    spec: str
    seed: int
    note: str = ""


def _default_corpus_path() -> Path:
    return Path(__file__).with_name("corpus.json")


def load_corpus(path=None) -> "list[CorpusEntry]":
    """Load the committed seed corpus (``corpus.json`` by default)."""
    path = Path(path) if path is not None else _default_corpus_path()
    data = json.loads(path.read_text())
    entries = [
        CorpusEntry(
            spec=str(e["spec"]),
            seed=int(e["seed"]),
            note=str(e.get("note", "")),
        )
        for e in data["entries"]
    ]
    for entry in entries:
        if entry.spec not in _SPEC_BY_NAME:
            raise ConfigError(
                f"corpus entry references unknown workload {entry.spec!r}; "
                f"known: {sorted(_SPEC_BY_NAME)}"
            )
    return entries


def replay_corpus(path=None) -> FuzzReport:
    """Re-run every corpus seed; all must pass on the current tree."""
    report = FuzzReport(seeds_run=0)
    for entry in load_corpus(path):
        result = run_seed(_SPEC_BY_NAME[entry.spec], entry.seed)
        report.seeds_run += 1
        report.served += result.served
        report.decisions += len(result.trace)
        report.flush_faults += result.flush_faults
        report.per_spec[entry.spec] = report.per_spec.get(entry.spec, 0) + 1
        if not result.ok:
            report.failures.append(
                FuzzFailure(
                    spec=entry.spec,
                    seed=entry.seed,
                    violations=result.violations,
                    trace=result.trace,
                    shrunk=shrink_trace(
                        _SPEC_BY_NAME[entry.spec], entry.seed, result.trace
                    ),
                )
            )
    return report


def failure_to_json(failure: FuzzFailure) -> dict:
    """JSON form of a failure (for saving repro bundles from the CLI)."""
    return {
        "spec": failure.spec,
        "seed": failure.seed,
        "violations": [v.describe() for v in failure.violations],
        "trace": trace_to_json(failure.trace),
        "shrunk": (
            trace_to_json(failure.shrunk)
            if failure.shrunk is not None
            else None
        ),
    }
