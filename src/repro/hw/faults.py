"""Deterministic fault injection for simulated devices.

The paper's kernels are measured on one healthy 910B4; a serving system
has to survive the launch paths that are *not* healthy.  Following the
AccelSync observation that accelerator pipeline failures concentrate in
untested synchronization/launch edge paths (PAPERS.md), this module adds
a fault model at the one seam every execution already crosses —
:meth:`AscendDevice.replay <repro.hw.device.AscendDevice.replay>` — so
plans, the serve layer and the device pool all see faults without any
kernel changing.

A :class:`FaultPlan` attached to a device (``device.fault_plan = plan``
or ``DevicePool(fault_plans=...)``) injects three failure modes:

* **transient launch failure** — with probability ``transient_rate`` a
  launch raises :class:`~repro.errors.DeviceFault` (``permanent=False``);
  relaunching may succeed.  Draws come from one seeded generator, so a
  chaos run is a pure function of the seed and the launch order.
* **engine slowdown** — ``mte_slowdown`` / ``vec_slowdown`` model a
  degraded HBM link or a partially fused vector core.  Rather than
  re-scheduling the op DAG with altered costs (which would defeat the
  memoized-timeline serving path), the slowdown *stretches* the replayed
  trace: the busiest MTE / vector engine's serialized work grows by the
  factor, and that first-order excess is added to the makespan
  (:attr:`Trace.stretch_ns <repro.hw.trace.Trace.stretch_ns>`).
* **permanent device loss** — from launch index ``die_at_launch``
  onwards every launch raises ``DeviceFault(permanent=True)``; the pool
  serving layer reacts by draining and rerouting the member's work.

The plan also keeps observability counters (``launches``,
``transient_faults``, ``dead``) that chaos tests assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DeviceFault
from .isa import EngineKind
from .trace import Trace

__all__ = ["FaultPlan"]

#: engine kinds stretched by ``mte_slowdown`` (all GM/local move engines)
_MTE_KINDS = (EngineKind.MTE_IN, EngineKind.MTE_OUT, EngineKind.MTE_LOCAL)


@dataclass
class FaultPlan:
    """Seeded, reproducible fault schedule for one simulated device."""

    seed: int = 0
    #: probability that any one launch raises a transient DeviceFault
    transient_rate: float = 0.0
    #: slowdown factor (>= 1.0) applied to MTE (GM move) engine work
    mte_slowdown: float = 1.0
    #: slowdown factor (>= 1.0) applied to vector engine work
    vec_slowdown: float = 1.0
    #: launch index at which the device is lost for good (None = never)
    die_at_launch: "int | None" = None
    #: optional :class:`repro.verify.ScheduleController`; when attached,
    #: transient-fault *timing* is decided (and recorded) by the
    #: controller instead of the plan's private rng, so a fuzz run can
    #: replay or shrink the exact launches that faulted
    controller: "object | None" = None

    #: launches attempted against this device (fault draws consumed)
    launches: int = field(default=0, init=False)
    #: transient faults raised so far
    transient_faults: int = field(default=0, init=False)
    #: True once the permanent loss has triggered
    dead: bool = field(default=False, init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_rate < 1.0:
            raise ConfigError(
                f"transient_rate must be in [0, 1), got {self.transient_rate}"
            )
        if self.mte_slowdown < 1.0 or self.vec_slowdown < 1.0:
            raise ConfigError(
                "slowdown factors model degradation and must be >= 1.0, got "
                f"mte={self.mte_slowdown}, vec={self.vec_slowdown}"
            )
        if self.die_at_launch is not None and self.die_at_launch < 0:
            raise ConfigError(
                f"die_at_launch must be >= 0, got {self.die_at_launch}"
            )
        self._rng = np.random.default_rng(self.seed)

    # -- launch-time hooks --------------------------------------------------

    def on_launch(self, device: str) -> None:
        """Consume one scheduled launch; raises on a fault.

        Called by :meth:`AscendDevice.replay` before the timeline is
        served.  The launch counter advances on every attempt, so retries
        draw fresh outcomes from the same deterministic stream.
        """
        index = self.launches
        self.launches += 1
        if self.dead or (
            self.die_at_launch is not None and index >= self.die_at_launch
        ):
            self.dead = True
            raise DeviceFault(
                f"device {device} lost (permanent fault at launch {index})",
                device=device,
                permanent=True,
                launch_index=index,
            )
        if self.controller is not None:
            fired = self.controller.chance(
                f"fault.{device}", self.transient_rate
            )
        else:
            fired = bool(
                self.transient_rate
                and self._rng.random() < self.transient_rate
            )
        if fired:
            self.transient_faults += 1
            raise DeviceFault(
                f"transient launch failure on {device} (launch {index})",
                device=device,
                permanent=False,
                launch_index=index,
            )

    def stretch_ns(self, trace: Trace) -> float:
        """Extra nanoseconds the configured slowdown adds to ``trace``.

        First-order model: the busiest engine of each slowed class has its
        serialized work multiplied by the factor, and the excess is
        charged to the makespan (slowed work off the critical path can
        hide, so this is the conservative upper edge — appropriate for a
        degraded device the router should steer away from).
        """
        if self.mte_slowdown <= 1.0 and self.vec_slowdown <= 1.0:
            return 0.0
        mte_busy = 0.0
        vec_busy = 0.0
        for stats in trace.engine_stats():
            kind = stats.info.engine_kind
            if kind in _MTE_KINDS:
                mte_busy = max(mte_busy, stats.busy_ns)
            elif kind == EngineKind.VEC:
                vec_busy = max(vec_busy, stats.busy_ns)
        return (self.mte_slowdown - 1.0) * mte_busy + (
            self.vec_slowdown - 1.0
        ) * vec_busy

    # -- introspection ------------------------------------------------------

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.transient_rate:
            parts.append(f"transient={self.transient_rate:.0%}")
        if self.mte_slowdown > 1.0:
            parts.append(f"mte x{self.mte_slowdown:g}")
        if self.vec_slowdown > 1.0:
            parts.append(f"vec x{self.vec_slowdown:g}")
        if self.die_at_launch is not None:
            parts.append(f"dies at launch {self.die_at_launch}")
        return f"FaultPlan({', '.join(parts)})"
