"""Plan cache: memoized traced scan operators keyed by shape class.

A key identifies everything that determines the traced op DAG — the
algorithm, the *padded* problem size (so every request length that rounds
up to the same tile multiple shares one plan), the input dtype, the batch
capacity (``None`` for 1-D plans), the tile width ``s`` and the
``block_dim`` override (``None`` = the algorithm's heuristic).  Values
are :class:`~repro.core.api.ScanPlan` objects, built on first miss via
``ScanContext.build_plan`` / ``build_batched_plan``.

The cache is **bounded**: with a ``gm_budget`` (bytes of simulated HBM the
cached plans may pin) it evicts least-recently-used plans, releasing their
GM tensors back to the device allocator's hole list
(:meth:`ScanPlan.release <repro.core.api.ScanPlan.release>`), so a
long-running service with a drifting shape distribution cannot pin HBM
without limit.  The plan just built (or just hit) is never evicted.

Keys are built for the configuration the caller gives: every ``key_*``
call names its algorithm and ``s`` (the serving paths take them from
:func:`repro.tune.resolve_candidate`).  Key construction refuses what no
plan can serve, by the core's rules
(:func:`~repro.core.api.check_plan_config`: ScanUL1 on int8, an
exclusive scan on any algorithm but MCScan) and pads by the core's pad
unit (:func:`~repro.core.api.plan_pad_unit`).  Lookups take the key
itself (``get_1d(key)``, ``get_batched(key)``): a request carries its
keys from submit, so no launch re-runs those rules.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from ..core.api import ScanContext, ScanPlan, check_plan_config, plan_pad_unit
from ..core.matrices import padded_length
from ..errors import ConfigError

__all__ = ["PlanKey", "PlanCache"]


class PlanKey(NamedTuple):
    """Identity of one traced plan (a shape class, not a single shape).

    A named tuple rather than a frozen dataclass: the batcher and the
    pool's cost probe build and hash one per request, and a frozen
    dataclass costs about 1.4 µs to build against 0.3 µs."""

    algorithm: str
    #: padded 1-D length, or padded row length for batched plans
    padded: int
    dtype: str
    #: batch row capacity; None marks a 1-D plan
    batch: "int | None"
    s: int
    exclusive: bool = False
    #: explicit block_dim override; None means the algorithm's heuristic
    block_dim: "int | None" = None

    def with_batch(self, batch: int) -> "PlanKey":
        """The key of this batched shape class's plan at ``batch`` rows."""
        return PlanKey(self.algorithm, self.padded, self.dtype, batch, self.s)


class PlanCache:
    """Build-once / execute-many store of :class:`ScanPlan` objects,
    LRU-bounded by the GM bytes its plans pin."""

    def __init__(
        self,
        ctx: ScanContext,
        *,
        validate: bool = True,
        gm_budget: "int | None" = None,
    ):
        if gm_budget is not None and gm_budget < 1:
            raise ConfigError(f"gm_budget must be positive, got {gm_budget}")
        self.ctx = ctx
        self.validate = validate
        self.gm_budget = gm_budget
        #: LRU order: oldest first; hits move a key to the end
        self._plans: "OrderedDict[PlanKey, ScanPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: GM bytes returned to the allocator by evictions
        self.evicted_gm_bytes = 0
        #: cumulative host seconds spent building plans (the cold cost)
        self.build_host_s = 0.0

    # -- key construction ---------------------------------------------------

    def key_1d(
        self,
        algorithm: str,
        n: int,
        dtype,
        *,
        s: int,
        exclusive: bool = False,
        block_dim: "int | None" = None,
    ) -> PlanKey:
        dt = self.ctx._as_plan_dtype(dtype)
        check_plan_config(algorithm, dt, batched=False, exclusive=exclusive, served=True)
        unit = plan_pad_unit(algorithm, s)
        return PlanKey(
            algorithm,
            padded_length(n, unit),
            dt.name,
            None,
            s,
            exclusive,
            block_dim,
        )

    def key_batched(
        self, algorithm: str, batch: int, row_len: int, dtype, *, s: int
    ) -> PlanKey:
        dt = self.ctx._as_plan_dtype(dtype)
        check_plan_config(algorithm, dt, batched=True, exclusive=False, served=True)
        unit = plan_pad_unit(algorithm, s, row_len)
        return PlanKey(algorithm, padded_length(row_len, unit), dt.name, batch, s)

    # -- lookup / build -----------------------------------------------------

    def _hit(self, key: PlanKey) -> "ScanPlan | None":
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.hits += 1
        return plan

    def _admit(self, key: PlanKey, plan: ScanPlan) -> None:
        self.build_host_s += plan.build_host_s
        self._plans[key] = plan
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict LRU plans until the GM footprint fits the budget.  The
        most-recent plan always stays, even if it alone exceeds the
        budget — a cache that cannot serve its current request is useless."""
        if self.gm_budget is None:
            return
        while len(self._plans) > 1 and self.gm_bytes > self.gm_budget:
            _, plan = self._plans.popitem(last=False)
            self.evicted_gm_bytes += plan.release()
            self.evictions += 1

    def get_1d(self, key: PlanKey, *, tuned: bool = False) -> ScanPlan:
        """The plan of 1-D key ``key`` (from :meth:`key_1d`), built on miss."""
        plan = self._hit(key)
        if plan is not None:
            return plan
        self.misses += 1
        plan = self.ctx.build_plan(
            algorithm=key.algorithm,
            n=key.padded,
            dtype=key.dtype,
            s=key.s,
            block_dim=key.block_dim,
            exclusive=key.exclusive,
            validate=self.validate,
        )
        plan.tuned = tuned
        self._admit(key, plan)
        return plan

    def get_batched(self, key: PlanKey, *, tuned: bool = False) -> ScanPlan:
        """The plan of batched key ``key`` (from :meth:`key_batched`),
        built on miss."""
        plan = self._hit(key)
        if plan is not None:
            return plan
        self.misses += 1
        plan = self.ctx.build_batched_plan(
            algorithm=key.algorithm,
            batch=key.batch,
            row_len=key.padded,
            dtype=key.dtype,
            s=key.s,
            validate=self.validate,
        )
        plan.tuned = tuned
        self._admit(key, plan)
        return plan

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    def peek(self, key: PlanKey) -> "ScanPlan | None":
        """The cached plan for ``key``, or None — without counting a hit
        or refreshing its LRU position (the pool's cost probe)."""
        return self._plans.get(key)

    @property
    def gm_bytes(self) -> int:
        """Device-memory footprint pinned by the cached plans (inputs,
        outputs and per-plan scratch such as MCScan's ``r`` array)."""
        return sum(plan.gm_bytes for plan in self._plans.values())

    @property
    def tuned_plans(self) -> int:
        """Cached plans whose configuration came from a tuned-plan store."""
        return sum(1 for p in self._plans.values() if p.tuned)

    @property
    def timeline_hits(self) -> int:
        """This cache's replays served from memoized timelines, summed
        over its plans (a pool member's plan may mirror a trace another
        member replays too, so the count lives on the plan, not the
        trace)."""
        return sum(p.timeline_hits for p in self._plans.values())

    @property
    def timeline_misses(self) -> int:
        """This cache's replays that computed a timeline."""
        return sum(p.timeline_misses for p in self._plans.values())

    def stats(self) -> dict:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evicted_gm_bytes": self.evicted_gm_bytes,
            "tuned_plans": self.tuned_plans,
            "build_host_s": self.build_host_s,
            "gm_bytes": self.gm_bytes,
            "timeline_hits": self.timeline_hits,
            "timeline_misses": self.timeline_misses,
        }
