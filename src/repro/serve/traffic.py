"""Open-loop traffic generation on a simulated clock.

The serve/shard layers so far are *closed-loop*: a caller submits a
batch, calls ``flush``, and waits — the paper's Fig. 5/12 regime, where
a full batch is already assembled.  Real serving is arrival-driven:
requests of mixed sizes arrive continuously, and batching policy (how
long to hold a bucket open, when a deadline forces a launch) dominates
tail latency long before kernel speed does.

This module is the load-generator half of that layer: seeded arrival
processes (Poisson, bursty, diurnal) over a weighted shape distribution,
each arrival carrying a completion deadline.  Everything is a pure
function of ``(TRAFFIC_SEED0, seed)`` — the schedule controller never
influences *what* arrives, only how the scheduler serves it, so a
replayed fuzz trace sees identical traffic.

The serving half — continuous batching, deadline admission, EDF +
cost-model routing — lives in :mod:`repro.shard.scheduler`, which layers
over :class:`~repro.shard.PoolScanService`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

__all__ = [
    "TRAFFIC_SEED0",
    "Arrival",
    "TrafficSpec",
    "TrafficReport",
    "generate_arrivals",
    "make_input",
    "percentile_ns",
]

#: root seed for every derived traffic stream (arrival times, sizes,
#: request payloads) — disjoint by construction from the fuzz layer's
#: FUZZ_SEED0-derived fault seeds
TRAFFIC_SEED0 = 0x0BE1

#: arrival process names ``generate_arrivals`` understands
_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class Arrival:
    """One open-loop request arrival on the simulated clock."""

    #: arrival index in time order (also the data-draw order)
    index: int
    #: simulated arrival time (ns)
    t_ns: float
    #: request length (elements)
    n: int
    #: simulated completion deadline (ns); completion after this counts
    #: as a deadline miss (goodput excludes it)
    deadline_ns: float


@dataclass(frozen=True)
class TrafficSpec:
    """One open-loop workload: an arrival process over a shape mix.

    ``rate_rps`` is the *offered* load in requests per simulated second;
    the arrival horizon follows from ``requests / rate_rps``.  Sizes are
    drawn per arrival from ``sizes`` with ``size_weights`` (uniform when
    None) — a skewed-small mixture approximates the small-to-medium
    segment traffic an inference integration feeds the scan operators.
    """

    name: str
    #: arrival process: "poisson" | "bursty" | "diurnal"
    process: str = "poisson"
    #: mean offered load, requests per simulated second
    rate_rps: float = 100_000.0
    #: arrivals to generate
    requests: int = 64
    #: request length mix (elements), drawn per arrival
    sizes: "tuple[int, ...]" = (1024, 4096, 16384)
    #: draw weights for ``sizes`` (None = uniform)
    size_weights: "tuple[float, ...] | None" = None
    #: per-request completion SLO: deadline = arrival + slo_ns
    slo_ns: float = 5_000_000.0
    #: bursty: mean burst size (geometric); bursts arrive as one tick
    burst_mean: float = 4.0
    #: diurnal: rate modulation depth in [0, 1) over the horizon
    diurnal_depth: float = 0.8
    dtype: str = "fp16"

    def __post_init__(self):
        if self.process not in _PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.process!r}; "
                f"expected one of {_PROCESSES}"
            )
        if self.rate_rps <= 0:
            raise ConfigError(f"rate_rps must be > 0, got {self.rate_rps}")
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ConfigError(
                f"diurnal_depth must be in [0, 1), got {self.diurnal_depth}"
            )
        if self.size_weights is not None and len(self.size_weights) != len(
            self.sizes
        ):
            raise ConfigError(
                f"size_weights has {len(self.size_weights)} entries for "
                f"{len(self.sizes)} sizes"
            )

    @property
    def np_dtype(self):
        return np.float16 if self.dtype == "fp16" else np.int8

    @property
    def mean_gap_ns(self) -> float:
        """Mean inter-arrival gap implied by the offered rate."""
        return 1e9 / self.rate_rps


def _draw_sizes(spec: TrafficSpec, rng, count: int) -> np.ndarray:
    p = None
    if spec.size_weights is not None:
        w = np.asarray(spec.size_weights, dtype=float)
        p = w / w.sum()
    return rng.choice(np.asarray(spec.sizes), size=count, p=p)


def _arrival_times(spec: TrafficSpec, rng) -> "list[float]":
    """Draw ``spec.requests`` arrival timestamps (ns, sorted)."""
    gap = spec.mean_gap_ns
    if spec.process == "poisson":
        gaps = rng.exponential(gap, spec.requests)
        return list(np.cumsum(gaps))
    if spec.process == "bursty":
        # burst epochs are Poisson at rate/burst_mean; each epoch lands a
        # geometric burst *in one arrival tick* (identical timestamps) —
        # the adversarial case for bucket capacity and same-tick joins
        times: list[float] = []
        t = 0.0
        while len(times) < spec.requests:
            t += rng.exponential(gap * spec.burst_mean)
            burst = int(rng.geometric(1.0 / spec.burst_mean))
            times.extend([t] * min(burst, spec.requests - len(times)))
        return times
    # diurnal: inhomogeneous Poisson by thinning — one modulation period
    # over the whole horizon, rate(t) = rate * (1 + depth * sin(2 pi t/T))
    horizon = spec.requests * gap
    peak = spec.rate_rps * (1.0 + spec.diurnal_depth)
    times = []
    t = 0.0
    while len(times) < spec.requests:
        t += rng.exponential(1e9 / peak)
        rate_t = spec.rate_rps * (
            1.0 + spec.diurnal_depth * math.sin(2.0 * math.pi * t / horizon)
        )
        if rng.random() <= rate_t / peak:
            times.append(t)
    return times


def generate_arrivals(spec: TrafficSpec, seed: int) -> "list[Arrival]":
    """Generate the spec's arrival stream for one seed.

    Deterministic in ``(TRAFFIC_SEED0, seed, spec)`` and independent of
    every scheduling decision, so fuzz replays and policy comparisons
    (continuous vs naive on the *same* traffic) are exact.
    """
    rng = np.random.default_rng((TRAFFIC_SEED0, seed))
    times = _arrival_times(spec, rng)
    sizes = _draw_sizes(spec, rng, len(times))
    return [
        Arrival(
            index=i,
            t_ns=float(t),
            n=int(n),
            deadline_ns=float(t) + spec.slo_ns,
        )
        for i, (t, n) in enumerate(zip(times, sizes))
    ]


def make_input(rng, n: int, dtype) -> np.ndarray:
    """One request payload: small integers in [-2, 2] in the serving
    dtype, so fp16 scans stay exact (no rounding ambiguity against the
    oracle).  Drawn as uint8 digits mapped through a 5-entry table by
    ``np.take``, which costs about half of an int64 draw and cast, and
    less than indexing the table with the digits."""
    digits = rng.integers(0, 5, n, dtype=np.uint8)
    return np.arange(-2, 3, dtype=dtype).take(digits)


def percentile_ns(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 if empty): simulated
    latencies here, host latencies in :mod:`repro.serve.stats`."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


@dataclass
class TrafficReport:
    """Outcome of one open-loop run (see ``repro.shard.scheduler``)."""

    spec: str
    seed: int
    #: "continuous" (bucketed batching) or "naive" (per-arrival launch)
    policy: str
    #: arrivals offered by the generator
    offered: int = 0
    #: arrivals admitted (ticket enqueued toward a device)
    admitted: int = 0
    #: admitted requests served to completion
    served: int = 0
    #: arrivals refused at admission (deadline infeasible / pool dead)
    shed: int = 0
    #: admitted requests that could not be served (every member dead);
    #: their tickets are retained in ``failed_tickets``, never lost
    failed: int = 0
    #: served requests that met their deadline
    deadline_met: int = 0
    #: simulated end-to-end span of the run (last completion or arrival)
    span_ns: float = 0.0
    #: per-served-request simulated latencies (arrival -> completion, ns)
    latencies_ns: "list[float]" = field(default_factory=list)
    #: served tickets in completion order
    tickets: list = field(default_factory=list)
    #: tickets of admitted-but-unservable requests (explicit, not lost)
    failed_tickets: list = field(default_factory=list)
    #: device launches issued / requests that rode a batched launch
    launches: int = 0
    coalesced: int = 0

    def percentile(self, q: float) -> float:
        return percentile_ns(self.latencies_ns, q)

    @property
    def offered_rps(self) -> float:
        if not self.span_ns:
            return 0.0
        return self.offered / (self.span_ns / 1e9)

    @property
    def goodput_rps(self) -> float:
        """Served requests that met their deadline, per simulated second
        of the run span — the serving quality the load curves plot."""
        if not self.span_ns:
            return 0.0
        return self.deadline_met / (self.span_ns / 1e9)

    @property
    def batched_fraction(self) -> float:
        return self.coalesced / self.served if self.served else 0.0

    def accounted(self) -> bool:
        """Every offered arrival is exactly one of served/shed/failed."""
        return self.offered == self.served + self.shed + self.failed

    def describe(self) -> str:
        return (
            f"{self.spec} seed={self.seed} [{self.policy}]: "
            f"{self.offered} offered -> {self.served} served "
            f"({self.deadline_met} in deadline), {self.shed} shed, "
            f"{self.failed} failed; "
            f"p50 {self.percentile(0.50) / 1e3:.1f} us, "
            f"p99 {self.percentile(0.99) / 1e3:.1f} us, "
            f"p999 {self.percentile(0.999) / 1e3:.1f} us; "
            f"goodput {self.goodput_rps:,.0f} rps "
            f"of {self.offered_rps:,.0f} offered "
            f"({self.batched_fraction:.0%} coalesced, "
            f"{self.launches} launches)"
        )
