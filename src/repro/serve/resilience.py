"""Serve-layer resilience primitives: retry policy and member health.

:class:`RetryPolicy` bounds how a :class:`~repro.serve.service.ScanService`
reacts to a transient :class:`~repro.errors.DeviceFault`: up to
``max_attempts`` launches, with an exponential backoff between attempts
that is charged to *simulated device time* (the driver teardown +
re-issue the real stack would pay), so fault-heavy traffic shows up in
device throughput and in the pool's round loads, not just in
counters.

:class:`MemberHealth` is the pool's per-member health record
(:meth:`~repro.shard.service.PoolScanService.member_health`):

* ``healthy`` — no faults observed, no measurable slowdown;
* ``degraded`` — transient faults/retries/failovers observed, or the
  member's served launches run measurably slower than their memoized
  timelines (an injected MTE/vector slowdown);
* ``dead`` — a permanent fault was observed; the member is excluded from
  routing and its queued work has been rerouted onto survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["HEALTHY", "DEGRADED", "DEAD", "RetryPolicy", "MemberHealth"]

HEALTHY = "healthy"
DEGRADED = "degraded"
DEAD = "dead"

#: observed slowdown above which a member counts as degraded even without
#: any fault event (pure engine-slowdown degradation)
SLOWDOWN_DEGRADED_THRESHOLD = 1.05


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry discipline for transient launch faults."""

    #: total launch attempts per request/group (1 = no retry)
    max_attempts: int = 3
    #: base simulated backoff charged before each relaunch; None uses the
    #: device config's ``costs.relaunch_backoff_ns``
    backoff_ns: "float | None" = None
    #: backoff growth per consecutive retry (exponential)
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_ns is not None and self.backoff_ns < 0:
            raise ConfigError(
                f"backoff_ns must be >= 0, got {self.backoff_ns}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier must be >= 1.0, "
                f"got {self.backoff_multiplier}"
            )

    def backoff_for(self, retry_index: int, default_ns: float) -> float:
        """Simulated ns charged before retry number ``retry_index`` (0-based)."""
        base = self.backoff_ns if self.backoff_ns is not None else default_ns
        return base * self.backoff_multiplier**retry_index


@dataclass(frozen=True)
class MemberHealth:
    """Point-in-time health snapshot of one pool member."""

    member: int
    state: str  # HEALTHY / DEGRADED / DEAD
    #: successful-launch retries recorded by the member's service stats
    retries: int
    #: DeviceFault events the member's service observed (incl. terminal)
    fault_events: int
    #: launch groups taken away from this member and rerouted
    failovers: int
    #: EWMA of served device time over the healthy memoized timeline
    slowdown: float
