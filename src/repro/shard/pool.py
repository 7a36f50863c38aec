"""A pool of independently-timed simulated devices.

Each member owns its full device state — global memory, L2, engine table,
timeline caches — so launches on different members model genuinely
concurrent hardware: nothing is shared device-side, and per-member
simulated times can be max-reduced (sharded scan) or load-balanced
(pool serving) without cross-talk.

What members *do* share is host-side: the module-level constant-matrix
cache (:func:`repro.core.matrices.host_constant_matrices`), when given
one, a single tuned-plan store — the sweep cost of tuning a workload is
paid once for the whole pool, not once per device — and one trace
table.  Members run one config, so a scan plan's traced program does not
depend on the member: the first member to build a plan traces it, and
the others build *mirrors* of it on their own devices
(:meth:`repro.core.api.ScanContext._mirror`).  The table holds plans
weakly, so eviction still bounds host memory.
"""

from __future__ import annotations

import weakref

from ..core.api import ScanContext
from ..errors import ConfigError
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..hw.device import AscendDevice

__all__ = ["DevicePool"]


class DevicePool:
    """``num_devices`` simulated devices, one :class:`ScanContext` each."""

    def __init__(
        self,
        num_devices: int,
        config: DeviceConfig = ASCEND_910B4,
        *,
        tune_store=None,
        warm_inputs: bool = True,
        fault_plans=None,
    ):
        if (
            not isinstance(num_devices, int)
            or isinstance(num_devices, bool)
            or num_devices < 1
        ):
            raise ConfigError(
                f"a device pool needs a positive device count, got {num_devices!r}"
            )
        self.config = config
        self.devices = [
            AscendDevice(config, name=f"dev{i}") for i in range(num_devices)
        ]
        if fault_plans is not None:
            # dict {member: FaultPlan} or a per-member sequence (None = healthy)
            items = (
                fault_plans.items()
                if hasattr(fault_plans, "items")
                else enumerate(fault_plans)
            )
            for member, plan in items:
                if plan is not None:
                    self.inject_faults(member, plan)
        self.contexts = [
            ScanContext(config, device=d, warm_inputs=warm_inputs)
            for d in self.devices
        ]
        #: plans by trace key, shared by every member (see module doc)
        self.traces = weakref.WeakValueDictionary()
        for ctx in self.contexts:
            ctx.traces = self.traces
        #: tuned-plan store shared by every member (may be None)
        self.tune_store = tune_store

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.contexts)

    def __getitem__(self, index: int) -> ScanContext:
        return self.contexts[index]

    def inject_faults(self, member: int, plan) -> None:
        """Attach a :class:`~repro.hw.faults.FaultPlan` to one member.

        Every subsequent launch on that member's device consults the plan
        (see :meth:`repro.hw.device.AscendDevice.replay`).
        """
        if not 0 <= member < len(self.devices):
            raise ConfigError(
                f"no pool member {member!r} (pool has {len(self.devices)})"
            )
        self.devices[member].fault_plan = plan

    def gm_used_bytes(self) -> "list[int]":
        """Per-member HBM bytes currently allocated (plans, constants)."""
        return [d.memory.used_bytes for d in self.devices]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DevicePool({len(self)} x {self.config.name})"
