"""Service statistics: per-request latency and per-launch throughput.

Host latency (wall seconds from ``submit`` to completion) and simulated
device time are tracked separately — the whole point of the serve layer
is that the host side stops dominating, so the report shows both.

Every report is plain data first: :meth:`ServiceStats.snapshot` (and the
service and pool ``snapshot()`` methods built on it) returns counters
and percentiles as dicts, and :func:`render` is the one formatter that
turns any such snapshot into summary lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .resilience import HEALTHY
from .traffic import percentile_ns

__all__ = ["LaunchRecord", "ServiceStats", "render"]


@dataclass(frozen=True)
class LaunchRecord:
    """One device launch issued by the service."""

    kind: str  # "batched" or "single"
    device_ns: float
    #: logical elements across all requests in the launch
    n_elements: int
    io_bytes: int
    requests: int
    plan_hit: bool
    #: True when the launch replayed a memoized timeline (no scheduling)
    timeline_hit: bool = False
    #: True when the launch's plan config came from a tuned-plan store
    tuned: bool = False
    #: relaunches needed before this launch succeeded (0 = first try)
    retries: int = 0
    #: transient DeviceFaults absorbed while serving this launch
    faults: int = 0
    #: simulated backoff charged to device time across those retries
    backoff_ns: float = 0.0


@dataclass
class ServiceStats:
    """Aggregates over the lifetime of one :class:`ScanService`."""

    host_latencies_s: "list[float]" = field(default_factory=list)
    launches: "list[LaunchRecord]" = field(default_factory=list)
    #: every DeviceFault observed, including ones whose launch ultimately
    #: failed (so this can exceed the sum of per-launch ``faults``)
    fault_events: int = 0
    #: op kind -> (replayed launches, summed simulated device ns) for
    #: graph traffic — the per-op dimension of the device-time breakdown
    op_device_ns: "dict[str, tuple[int, float]]" = field(default_factory=dict)
    #: simulated arrival-to-completion latencies (ns) under open-loop
    #: traffic — queueing + batching wait + device time on the simulated
    #: clock, disjoint from the host-side ``host_latencies_s``
    sim_latencies_ns: "list[float]" = field(default_factory=list)
    #: served requests whose completion beat / missed their deadline
    deadline_hits: int = 0
    deadline_misses: int = 0
    #: requests refused at admission (deadline infeasible or pool dead)
    shed_requests: int = 0
    #: cost-model error over the launch units a device pool placed here
    #: with a predicted cost: count, and the sum and max of
    #: |served - predicted| / served
    predicted_units: int = 0
    cost_err_sum: float = 0.0
    cost_err_max: float = 0.0
    #: running totals over ``launches``, added in record order — the same
    #: left-to-right sums a re-scan would compute, at O(1) per read (the
    #: pool reads ``device_ns`` around every launch group)
    device_ns: float = field(default=0.0, init=False)
    n_elements: int = field(default=0, init=False)
    coalesced_requests: int = field(default=0, init=False)

    def record_op(self, kind: str, device_ns: float) -> None:
        """Charge one graph node's replay (simulated device ns) to its op
        kind."""
        count, ns = self.op_device_ns.get(kind, (0, 0.0))
        self.op_device_ns[kind] = (count + 1, ns + device_ns)

    def record_request(self, host_s: float) -> None:
        self.host_latencies_s.append(host_s)

    def record_sim_request(
        self, latency_ns: float, *, deadline_met: "bool | None" = None
    ) -> None:
        """Record one served open-loop request: simulated latency plus its
        deadline verdict (None = the request carried no deadline)."""
        self.sim_latencies_ns.append(latency_ns)
        if deadline_met is True:
            self.deadline_hits += 1
        elif deadline_met is False:
            self.deadline_misses += 1

    def record_shed(self, count: int = 1) -> None:
        """Count requests refused at admission (never enqueued)."""
        self.shed_requests += count

    def record_launch(self, record: LaunchRecord) -> None:
        self.launches.append(record)
        self.device_ns += record.device_ns
        self.n_elements += record.n_elements
        if record.kind == "batched":
            self.coalesced_requests += record.requests

    def record_fault(self) -> None:
        self.fault_events += 1

    def record_prediction(self, predicted_ns: float, served_ns: float) -> None:
        """Score one placed unit's predicted device ns against its served
        ns (including slowdown stretch and retry backoff)."""
        err = abs(served_ns - predicted_ns) / served_ns if served_ns else 0.0
        self.predicted_units += 1
        self.cost_err_sum += err
        self.cost_err_max = max(self.cost_err_max, err)

    # -- request-side metrics ----------------------------------------------

    @property
    def requests(self) -> int:
        return len(self.host_latencies_s)

    @property
    def mean_host_latency_s(self) -> float:
        if not self.host_latencies_s:
            return 0.0
        return sum(self.host_latencies_s) / len(self.host_latencies_s)

    def host_latency_percentile_s(self, q: float) -> float:
        return percentile_ns(self.host_latencies_s, q)

    # -- simulated open-loop metrics -----------------------------------------

    @property
    def sim_requests(self) -> int:
        """Served open-loop requests (simulated-latency samples)."""
        return len(self.sim_latencies_ns)

    # -- launch-side metrics -----------------------------------------------

    @property
    def launch_count(self) -> int:
        return len(self.launches)

    @property
    def gelems_per_s(self) -> float:
        """Simulated device throughput (elements/ns == GElems/s)."""
        ns = self.device_ns
        return self.n_elements / ns if ns else 0.0

    @property
    def bandwidth_gbps(self) -> float:
        ns = self.device_ns
        if not ns:
            return 0.0
        return sum(r.io_bytes for r in self.launches) / ns

    @property
    def plan_hit_rate(self) -> float:
        if not self.launches:
            return 0.0
        return sum(1 for r in self.launches if r.plan_hit) / len(self.launches)

    @property
    def timeline_hit_rate(self) -> float:
        """Fraction of launches served from a memoized timeline (every
        launch after a plan's first is a hit once replay caching is on)."""
        if not self.launches:
            return 0.0
        return sum(1 for r in self.launches if r.timeline_hit) / len(
            self.launches
        )

    @property
    def tuned_launches(self) -> int:
        """Launches whose plan configuration came from the tuned store."""
        return sum(1 for r in self.launches if r.tuned)

    @property
    def tuned_hit_rate(self) -> float:
        """Fraction of launches that used a tuned plan configuration."""
        if not self.launches:
            return 0.0
        return self.tuned_launches / len(self.launches)

    # -- resilience metrics --------------------------------------------------

    @property
    def total_retries(self) -> int:
        """Relaunches across all successful launches."""
        return sum(r.retries for r in self.launches)

    @property
    def total_faults(self) -> int:
        """Transient faults absorbed by launches that went on to succeed."""
        return sum(r.faults for r in self.launches)

    @property
    def total_backoff_ns(self) -> float:
        """Simulated retry backoff charged to device time."""
        return sum(r.backoff_ns for r in self.launches)

    @property
    def faulted_launches(self) -> int:
        """Launches that needed at least one retry."""
        return sum(1 for r in self.launches if r.retries)

    def snapshot(self) -> dict:
        """Counters and percentiles as plain data (see :func:`render`)."""
        snap = {
            "requests": self.requests,
            "coalesced_requests": self.coalesced_requests,
            "launches": self.launch_count,
            "plan_hit_rate": self.plan_hit_rate,
            "timeline_hit_rate": self.timeline_hit_rate,
            "tuned_hit_rate": self.tuned_hit_rate,
            "host_latency_s": {
                "mean": self.mean_host_latency_s,
                "p50": percentile_ns(self.host_latencies_s, 0.50),
                "p99": percentile_ns(self.host_latencies_s, 0.99),
            },
            "device_ns": self.device_ns,
            "gelems_per_s": self.gelems_per_s,
            "bandwidth_gbps": self.bandwidth_gbps,
            "ops": ops_snapshot(self.op_device_ns),
            "fault_events": self.fault_events,
            "retries": self.total_retries,
            "faulted_launches": self.faulted_launches,
            "backoff_ns": self.total_backoff_ns,
        }
        if self.predicted_units:
            snap["cost_model"] = {
                "units": self.predicted_units,
                "err_mean": self.cost_err_sum / self.predicted_units,
                "err_max": self.cost_err_max,
            }
        if self.sim_latencies_ns:
            snap["sim_latency_ns"] = {
                "requests": self.sim_requests,
                "p50": percentile_ns(self.sim_latencies_ns, 0.50),
                "p99": percentile_ns(self.sim_latencies_ns, 0.99),
                "p999": percentile_ns(self.sim_latencies_ns, 0.999),
                "deadline_hits": self.deadline_hits,
                "deadline_misses": self.deadline_misses,
                "shed": self.shed_requests,
            }
        return snap

    def summary(self) -> str:
        return render(self.snapshot())


def ops_snapshot(op_device_ns: "dict[str, tuple[int, float]]") -> dict:
    """Per-op-kind graph replay accounting as plain data, sorted by kind."""
    return {
        kind: {"launches": count, "device_ns": ns}
        for kind, (count, ns) in sorted(op_device_ns.items())
    }


def tune_store_snapshot(store) -> dict:
    """Size and lookup counters of a tuned-plan store."""
    return {
        "entries": len(store),
        "lookup_hits": store.lookup_hits,
        "lookup_misses": store.lookup_misses,
    }


def _member_line(m: dict) -> str:
    line = (
        f"  dev{m['member']}          : {m['state']}, "
        f"busy {m['busy_ns'] / 1e3:.1f} us "
        f"({m['fraction']:.0%} of makespan), "
        f"{m['requests']} requests / {m['groups']} units, "
        f"{m['plan_cache']['plans']} plans, "
        f"{m['plan_cache']['gm_bytes'] / 1e6:.1f} MB GM"
    )
    cost = m.get("cost_model")
    if cost is not None:
        line += (
            f", cost model err mean {cost['err_mean']:.2%} / "
            f"max {cost['err_max']:.2%} over {cost['units']} units"
        )
    if m["state"] != HEALTHY:
        line += (
            f" [{m['fault_events']} faults, {m['retries']} retries, "
            f"{m['failovers']} failovers, slowdown x{m['slowdown']:.2f}]"
        )
    return line


def render(snap: dict) -> str:
    """Summary lines for a service, pool or stats snapshot.

    Each section is rendered when its key is present, so the same
    function formats a whole pool, one member, bare
    :class:`ServiceStats`, or a single section such as
    ``{"graph_cache": ...}``."""
    lines = []
    pool = snap.get("pool")
    if pool is not None:
        lines += [
            f"device pool     : {pool['devices']} x {pool['config']}",
            f"aggregate       : {pool['requests']} requests, "
            f"{pool['elements'] / 1e6:.2f} M elements, "
            f"makespan {pool['makespan_ns'] / 1e3:.1f} us, "
            f"{pool['gelems_per_s']:.1f} GElems/s",
        ]
        lines += [_member_line(m) for m in snap["members"]]
    cache = snap.get("plan_cache")
    if cache is not None:
        lines += [
            "scan service",
            f"plan cache      : {cache['plans']} plans "
            f"({cache['tuned_plans']} tuned), "
            f"{cache['hits']} hits / {cache['misses']} misses, "
            f"{cache['evictions']} evictions "
            f"({cache['evicted_gm_bytes'] / 1e6:.1f} MB freed), "
            f"{cache['build_host_s'] * 1e3:.1f} ms build time, "
            f"{cache['gm_bytes'] / 1e6:.1f} MB GM pinned",
            f"timeline cache  : {cache['timeline_hits']} hits / "
            f"{cache['timeline_misses']} misses (memoized replays)",
        ]
    g = snap.get("graph_cache")
    if g is not None:
        lines.append(
            f"graph cache     : {g['lowered']} lowered "
            f"({g['fused']} fused, {g['tuned']} tuned, "
            f"fusion={g['fusion']}), "
            f"{g['hits']} hits / {g['misses']} misses, "
            f"{g['replays']} replays, "
            f"{g['build_host_s'] * 1e3:.1f} ms build time"
        )
    store = snap.get("tune_store")
    if store is not None:
        line = (
            f"tuned store     : {store['entries']} entries, "
            f"{store['lookup_hits']} lookup hits / "
            f"{store['lookup_misses']} misses"
        )
        if pool is not None:
            line += f" (shared across all {pool['devices']} members)"
        lines.append(line)
    if "launches" in snap:
        lat = snap["host_latency_s"]
        lines += [
            f"requests        : {snap['requests']} "
            f"({snap['coalesced_requests']} coalesced into batched launches)",
            f"launches        : {snap['launches']} "
            f"(plan hit rate {snap['plan_hit_rate']:.0%}, "
            f"timeline hit rate {snap['timeline_hit_rate']:.0%}, "
            f"tuned {snap['tuned_hit_rate']:.0%})",
            f"host latency    : mean {lat['mean'] * 1e3:.2f} ms, "
            f"p50 {lat['p50'] * 1e3:.2f} ms, "
            f"p99 {lat['p99'] * 1e3:.2f} ms",
            f"device          : {snap['device_ns'] / 1e3:.1f} us simulated, "
            f"{snap['gelems_per_s']:.1f} GElems/s, "
            f"{snap['bandwidth_gbps']:.1f} GB/s",
        ]
    sim = snap.get("sim_latency_ns")
    if sim is not None:
        lines.append(
            f"sim latency     : {sim['requests']} requests, "
            f"p50 {sim['p50'] / 1e3:.1f} us, "
            f"p99 {sim['p99'] / 1e3:.1f} us, "
            f"p999 {sim['p999'] / 1e3:.1f} us; "
            f"{sim['deadline_hits']} in deadline / "
            f"{sim['deadline_misses']} late / "
            f"{sim['shed']} shed"
        )
    if snap.get("ops"):
        parts = [
            f"{kind} {op['launches']}x {op['device_ns'] / 1e3:.1f} us"
            for kind, op in snap["ops"].items()
        ]
        lines.append("op breakdown    : " + ", ".join(parts))
    if snap.get("fault_events"):
        lines.append(
            f"resilience      : {snap['fault_events']} fault events, "
            f"{snap['retries']} retries over "
            f"{snap['faulted_launches']} launches, "
            f"{snap['backoff_ns'] / 1e3:.1f} us backoff"
        )
    return "\n".join(lines)
