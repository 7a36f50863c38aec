"""Seeded schedule decisions with a recorded, replayable trace.

Every concurrency surface in the serving stack funnels its "which of
these equivalent things happens first?" choices through one
:class:`ScheduleController`:

* the DES scheduler's engine pick order (:func:`repro.hw.scheduler.simulate`),
* launch-group pick order and routing tie-breaks in
  :meth:`repro.shard.service.PoolScanService.flush`,
* the order of work recalled from a faulted pool member
  (``pool.recall``, :meth:`repro.shard.service.PoolScanService._recall`),
* transient-fault timing in :class:`repro.hw.faults.FaultPlan`,
* pending-queue drain order in
  :meth:`repro.serve.batcher.RequestBatcher.drain`.

Each call records a :class:`Decision` ``(point, n, pick)``.  A run under
a controller is therefore a pure function of the seed, and the recorded
trace can

* **replay** — a controller constructed with ``trace=...`` re-issues the
  recorded picks verbatim (clamped to the live alternative count, so a
  slightly divergent re-run cannot crash), then falls back to pick 0;
* **shrink** — pick 0 is by convention the *canonical* choice at every
  decision point (issue order, first group, no fault), so zeroing or
  truncating trace entries moves a failing schedule monotonically toward
  the deterministic baseline.  :func:`repro.verify.fuzz.shrink_trace`
  exploits exactly this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "Decision",
    "ScheduleController",
    "trace_from_json",
    "trace_to_json",
]


@dataclass(frozen=True)
class Decision:
    """One recorded schedule choice: ``pick`` out of ``n`` alternatives."""

    point: str
    n: int
    pick: int

    def describe(self) -> str:
        return f"{self.point}: {self.pick}/{self.n}"


class ScheduleController:
    """Seeded source of schedule decisions, recording everything it picks.

    ``choose``/``chance``/``permute`` never record trivial decisions
    (``n <= 1``, probability 0) — traces stay minimal and shrinking never
    wastes steps on choices that cannot matter.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        trace: "list[Decision] | tuple[Decision, ...] | None" = None,
    ):
        self.seed = seed
        self._rng = random.Random(seed)
        #: decisions to replay before falling back to canonical pick 0
        self._replay: "tuple[Decision, ...] | None" = (
            tuple(trace) if trace is not None else None
        )
        self._pos = 0
        #: every decision made by this controller, in order
        self.trace: list[Decision] = []

    # -- decision primitives -------------------------------------------------

    def choose(self, point: str, n: int) -> int:
        """Pick an index in ``[0, n)``; 0 is the canonical choice."""
        if n <= 1:
            return 0
        if self._replay is not None:
            if self._pos < len(self._replay):
                pick = min(self._replay[self._pos].pick, n - 1)
                self._pos += 1
            else:
                pick = 0
        else:
            pick = self._rng.randrange(n)
        self.trace.append(Decision(point, n, pick))
        return pick

    def chance(self, point: str, probability: float) -> bool:
        """A biased coin (True with ``probability``); False is canonical.

        Recorded as a binary decision so a replayed/shrunk trace controls
        fault *timing* exactly, independent of any probability drift."""
        if probability <= 0.0:
            return False
        if self._replay is not None:
            if self._pos < len(self._replay):
                pick = 1 if self._replay[self._pos].pick else 0
                self._pos += 1
            else:
                pick = 0
        else:
            pick = 1 if self._rng.random() < probability else 0
        self.trace.append(Decision(point, 2, pick))
        return bool(pick)

    def permute(self, point: str, items: list) -> list:
        """A controlled permutation of ``items`` (Fisher-Yates, one
        recorded decision per swap).  The all-zero trace is the identity,
        so shrinking recovers submission order."""
        out = list(items)
        for i in range(len(out) - 1):
            j = i + self.choose(f"{point}[{i}]", len(out) - i)
            out[i], out[j] = out[j], out[i]
        return out

    # -- introspection -------------------------------------------------------

    @property
    def decisions(self) -> int:
        return len(self.trace)

    @property
    def nonzero_decisions(self) -> int:
        """Decisions that diverge from the canonical schedule."""
        return sum(1 for d in self.trace if d.pick)

    def describe_trace(self, limit: int = 20) -> str:
        """Human-readable non-canonical decisions (the interesting ones)."""
        hot = [d for d in self.trace if d.pick]
        lines = [d.describe() for d in hot[:limit]]
        if len(hot) > limit:
            lines.append(f"... {len(hot) - limit} more")
        return "; ".join(lines) if lines else "(canonical schedule)"


def trace_to_json(trace: "list[Decision]") -> list:
    """Decision trace as JSON-serialisable triples."""
    return [[d.point, d.n, d.pick] for d in trace]


def trace_from_json(data: list) -> "list[Decision]":
    return [Decision(str(p), int(n), int(k)) for p, n, k in data]
