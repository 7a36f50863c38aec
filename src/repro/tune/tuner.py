"""The sweep driver: default-first incumbent search with roofline pruning.

For each workload the tuner

1. evaluates the **default** configuration (the serve layer's fallback)
   first, establishing the incumbent — this is what guarantees the tuned
   result is never slower than the default;
2. computes the roofline floor of every other candidate and visits them in
   ascending-floor order;
3. **prunes** any candidate whose floor already meets or exceeds the
   incumbent's measured time (the floor is a sound lower bound, so the
   candidate cannot win — and the trace-heavy small-``s`` configs on large
   inputs are exactly the ones whose cube-issue floor blows up);
4. traces and scores the survivors on the simulated timeline, updating the
   incumbent as it goes (a falling incumbent prunes ever harder).

The winner is recorded in a :class:`~repro.tune.store.TuneStore` together
with the default's time, so the store itself is evidence of the win.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.api import ScanContext
from .evaluate import evaluate_candidate
from .space import (
    Candidate,
    WorkloadKey,
    candidate_floor_ns,
    default_candidate,
    enumerate_candidates,
)
from .store import TunedEntry, TuneStore

__all__ = [
    "CandidateOutcome",
    "TuneResult",
    "tune_workload",
    "format_result",
]


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate's fate during the sweep."""

    candidate: Candidate
    floor_ns: float
    #: "default" | "evaluated" | "pruned"
    status: str
    device_ns: "float | None" = None
    trace_host_s: float = 0.0


@dataclass
class TuneResult:
    """Outcome of tuning one workload."""

    workload: WorkloadKey
    best: Candidate
    best_ns: float
    default_ns: float
    outcomes: "list[CandidateOutcome]" = field(default_factory=list)

    @property
    def evaluated(self) -> int:
        return sum(1 for o in self.outcomes if o.status != "pruned")

    @property
    def pruned(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "pruned")

    @property
    def speedup(self) -> float:
        return self.default_ns / self.best_ns if self.best_ns else 0.0

    @property
    def entry(self) -> TunedEntry:
        return TunedEntry(
            algorithm=self.best.algorithm,
            s=self.best.s,
            block_dim=self.best.block_dim,
            layout=self.best.layout,
            tuned_ns=self.best_ns,
            default_ns=self.default_ns,
            evaluated=self.evaluated,
            pruned=self.pruned,
        )


def tune_workload(
    ctx: ScanContext,
    workload: WorkloadKey,
    *,
    store: "TuneStore | None" = None,
    log=None,
) -> TuneResult:
    """Sweep the candidate space for one workload; optionally record the
    winner into ``store``.  ``log`` (a ``str -> None`` callable) receives
    one progress line per evaluated candidate."""
    say = log if log is not None else (lambda _msg: None)
    default = default_candidate(workload)
    default_cost = evaluate_candidate(ctx, workload, default)
    best, best_ns = default, default_cost.device_ns
    outcomes = [
        CandidateOutcome(
            default,
            candidate_floor_ns(ctx.config, workload, default),
            "default",
            default_cost.device_ns,
            default_cost.trace_host_s,
        )
    ]
    say(
        f"{workload.store_key}: default {default.describe()} "
        f"= {default_cost.device_ns / 1e3:.1f} us"
    )

    rest = [c for c in enumerate_candidates(ctx.config, workload) if c != default]
    floors = {c: candidate_floor_ns(ctx.config, workload, c) for c in rest}
    for cand in sorted(rest, key=lambda c: floors[c]):
        floor = floors[cand]
        if floor >= best_ns:
            outcomes.append(CandidateOutcome(cand, floor, "pruned"))
            continue
        cost = evaluate_candidate(ctx, workload, cand)
        outcomes.append(
            CandidateOutcome(cand, floor, "evaluated", cost.device_ns, cost.trace_host_s)
        )
        say(f"  {cand.describe()} = {cost.device_ns / 1e3:.1f} us")
        if cost.device_ns < best_ns:
            best, best_ns = cand, cost.device_ns

    result = TuneResult(
        workload=workload,
        best=best,
        best_ns=best_ns,
        default_ns=default_cost.device_ns,
        outcomes=outcomes,
    )
    if store is not None:
        store.record(workload.store_key, result.entry)
    say(
        f"  -> best {best.describe()} = {best_ns / 1e3:.1f} us "
        f"({result.speedup:.2f}x vs default; "
        f"{result.evaluated} traced, {result.pruned} pruned)"
    )
    return result


def format_result(result: TuneResult) -> str:
    """Multi-line human-readable report for one tuned workload."""
    lines = [
        f"workload {result.workload.store_key}",
        f"  default : {result.outcomes[0].candidate.describe():40s}"
        f" {result.default_ns / 1e3:10.2f} us",
        f"  tuned   : {result.best.describe():40s}"
        f" {result.best_ns / 1e3:10.2f} us  ({result.speedup:.2f}x)",
        f"  searched: {len(result.outcomes)} candidates,"
        f" {result.evaluated} traced, {result.pruned} pruned by roofline floor",
    ]
    return "\n".join(lines)
