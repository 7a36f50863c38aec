"""The benchmark's four seeded workloads.

Every workload is sized for a 2-CPU host: one process, the serial host
executor (``parallel=None``), the ``ASCEND_910B4`` config and a D=2 pool.
Rates, sizes and SLOs are fixed absolute values below; nothing is
calibrated at run time, so a faster kernel cannot change the offered load.

* ``traffic-steady`` / ``traffic-burst`` — open loop: seeded arrivals on
  the simulated clock through ``run_traffic`` (continuous policy).
* ``graph-mix`` — closed loop, one caller: rounds of ``submit_graph`` +
  ``flush`` on the pool with aggressive graph fusion.
* ``scan-bulk`` — closed loop, one caller: ``ShardedScanner.scan``
  (mcscan) over D=2, one ~1M or ~4M array at a time.

A workload has five parts: ``setup`` (pool build, tuning, plan warm-up),
``fresh`` (the state one pass starts from), ``serve_pass`` (one pass over a
fixed piece of the seeded input, returning its host wall time, its
caller-visible host latencies and its simulated results, with every
output already checked against the oracle), ``counters`` (program-side
counts, diffed around passes) and ``sim_metrics`` (end-to-end simulated
metrics over one pass per distinct input piece — exact per seed).

Every pass starts from the state set-up leaves: the pool keeps per-launch
records whose sums cost more as they grow, so a pass served after many
others would be slower for reasons no single request causes, and host
time would depend on how many passes the host managed before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.reference import exact_fp16_scan_input, inclusive_scan
from repro.graph.service import llm_sample, oracle_outputs, scan_pipeline, sort_graph
from repro.hw.config import ASCEND_910B4
from repro.serve import TRAFFIC_SEED0, TrafficSpec, percentile_ns
from repro.shard import DevicePool, PoolScanService, ShardedScanner, run_traffic
from repro.tune import TuneStore, WorkloadKey, warm_pool, warm_tune_store

CONFIG = ASCEND_910B4
DEVICES = 2

# -- open-loop traffic ------------------------------------------------------

#: fp16 request lengths, drawn uniformly per arrival
TRAFFIC_SIZES = (1024, 4096, 16384)
MAX_BATCH = 8
#: batched buckets the continuous scheduler launches (pow2 up to MAX_BATCH)
BUCKETS = (2, 4, 8)
SLO_NS = 200_000.0
#: arrivals per stream; a run serves TRAFFIC_STREAMS distinct streams,
#: enough samples that p99.9 has more than ten beyond it
TRAFFIC_REQUESTS = 2000
TRAFFIC_STREAMS = 8
#: about half of naive per-arrival capacity (mean solo service 9.77 us,
#: so ~102k rps per device): below saturation
STEADY_RPS = 100_000.0
#: about 1.8x naive capacity, arriving in same-tick bursts: overload
BURST_RPS = 370_000.0
#: capacity ladder: CAP_BASE_RPS * CAP_STEP**k, k < CAP_RUNGS; each rung
#: serves CAP_STREAMS streams of CAP_REQUESTS arrivals
CAP_BASE_RPS = 250_000.0
CAP_STEP = 1.05
CAP_RUNGS = 64
CAP_STREAMS = 4
CAP_REQUESTS = 1000
CAP_MAX_MISS = 0.01

# -- graph serving ----------------------------------------------------------

TOPK = 32
GRAPH_ROUNDS = 16
#: the vocabulary is jittered per seed (VOCAB + VOCAB_STEP * j, j in
#: [0, 4)) so simulated time depends on the seed; it shrinks from 2048,
#: the largest whose integer fp16 probabilities stay distinct
VOCAB, VOCAB_STEP = 2048, -128
PIPE_N = 16384
SORT_N = 4096

# -- bulk sharded scans -----------------------------------------------------

#: array lengths 1M and ~4M; the 4M ones are jittered per seed by whole
#: 2-shard pad units (BULK_STEP * j, j in [0, 4)) so simulated time
#: depends on the seed
BULK_NS = (1 << 20, 1 << 22)
BULK_STEP = 2 * 128 * 128
BULK_DTYPES = ("fp16", "int8")


def _rng(seed: int, stream: int):
    """Workload-private stream derived from the traffic root seed."""
    return np.random.default_rng((TRAFFIC_SEED0, seed, stream))


@dataclass
class Served:
    """One pass: what was attempted, what it cost, what came back."""

    requests: int
    wall_s: float
    #: caller-visible host latencies of the pass (ms)
    host_ms: "list[float]"
    #: outputs not bit-identical + failed tickets + broken accounting
    errors: int = 0
    #: logical elements requested
    elements: int = 0
    #: simulated results the workload's sim_metrics read
    sim: dict = field(default_factory=dict)
    #: program-side counter deltas over the pass (see ``counters``)
    counts: dict = field(default_factory=dict)
    #: host-speed factor measured around the pass (see run.HostSpeed)
    scale: float = 1.0


def _ticket_device_ns(tickets) -> float:
    """Σ ticket device ns, counting a batched launch once (its rows share
    the launch's device time)."""
    return sum(
        t.device_ns / t.batch_size if t.batched else t.device_ns
        for t in tickets
    )


def _pool_counters(svc, store=None) -> dict:
    out = {
        "launches": sum(w.stats.launch_count for w in svc.workers),
        "groups": sum(svc.groups_routed),
        "failovers": sum(svc.failovers),
        "retries": sum(w.stats.total_retries for w in svc.workers),
        "plan_hits": sum(w.cache.hits for w in svc.workers),
        "plan_misses": sum(w.cache.misses for w in svc.workers),
        "graph_hits": 0,
        "graph_misses": 0,
        "tune_hits": store.lookup_hits if store is not None else 0,
        "tune_misses": store.lookup_misses if store is not None else 0,
    }
    runner = svc.workers[0].graph_runner
    if runner is not None:
        out["plan_hits"] += runner.plans.hits
        out["plan_misses"] += runner.plans.misses
        out["graph_hits"] = runner.cache.hits
        out["graph_misses"] = runner.cache.misses
    for kind, (_, ns) in svc.op_device_ns().items():
        out[f"op_ns.{kind}"] = ns
    return out


def _gm_bytes(devices) -> int:
    return sum(d.memory.used_bytes for d in devices)


class Traffic:
    """Open-loop scan traffic through ``run_traffic`` on a warm pool."""

    open_loop = True
    reference = "interpreter"

    def __init__(self, name: str, process: str, rate_rps: float, seed: int):
        self.name = name
        self.process = process
        self.spec = self._spec(rate_rps, TRAFFIC_REQUESTS)
        # stream seeds derive from (TRAFFIC_SEED0, seed); run_traffic
        # derives arrivals and payloads from (TRAFFIC_SEED0, stream seed)
        state = np.random.SeedSequence((TRAFFIC_SEED0, seed)).generate_state(
            TRAFFIC_STREAMS
        )
        self.streams = [int(s) for s in state]

    def _spec(self, rate_rps: float, requests: int) -> TrafficSpec:
        return TrafficSpec(
            name=self.name,
            process=self.process,
            rate_rps=rate_rps,
            requests=requests,
            sizes=TRAFFIC_SIZES,
            slo_ns=SLO_NS,
        )

    @property
    def sim_passes(self) -> int:
        return len(self.streams)

    def setup(self) -> dict:
        svc = PoolScanService(
            DEVICES, config=CONFIG, max_batch=MAX_BATCH, parallel=None
        )
        t0 = time.perf_counter()
        warm_pool(
            svc,
            [WorkloadKey("1d", n, "fp16") for n in TRAFFIC_SIZES],
            buckets=BUCKETS,
            workers=1,
        )
        return {
            "svc": svc,
            "warm_s": time.perf_counter() - t0,
            "build_s": sum(w.cache.build_host_s for w in svc.workers),
        }

    def fresh(self, state) -> dict:
        # a warm pool costs one plan warm-up (tens of ms)
        return self.setup()

    def counters(self, state) -> dict:
        return _pool_counters(state["svc"])

    def gm_bytes(self, state) -> int:
        return _gm_bytes(state["svc"].pool.devices)

    def serve_pass(self, state, index: int, spec=None, policy="continuous"):
        svc = state["svc"]
        spec = spec if spec is not None else self.spec
        admitted = {}
        busy0 = list(svc.busy_ns)
        span0 = svc.span_ns
        t0 = time.perf_counter()
        rep = run_traffic(
            svc,
            spec,
            self.streams[index % len(self.streams)],
            policy=policy,
            on_admit=lambda t, x: admitted.__setitem__(t.req_id, x),
        )
        wall = time.perf_counter() - t0
        busy = [b - b0 for b, b0 in zip(svc.busy_ns, busy0)]
        errors = rep.failed + abs(rep.offered - rep.served - rep.shed - rep.failed)
        io_bytes = 0
        for t in rep.tickets:
            x = admitted[t.req_id]
            if not (t.done and np.array_equal(t.values, inclusive_scan(x))):
                errors += 1
            io_bytes += x.nbytes + t.values.nbytes
        if not np.isclose(_ticket_device_ns(rep.tickets), sum(busy), rtol=1e-9):
            errors += 1
        last_arrival = max((t.t_arrival_ns for t in rep.tickets), default=0.0)
        # keep numbers, not the report: its tickets hold every output
        return Served(
            requests=rep.offered,
            wall_s=wall,
            host_ms=[t.host_s * 1e3 for t in rep.tickets],
            errors=errors,
            elements=sum(t.n for t in rep.tickets),
            sim={
                "latencies_ns": rep.latencies_ns,
                "hold_ns": [t.t_admit_ns - t.t_arrival_ns for t in rep.tickets],
                "busy": busy,
                "pool_span_ns": svc.span_ns - span0,
                "span_ns": rep.span_ns,
                "io_bytes": io_bytes,
                "drain_ns": rep.span_ns - last_arrival,
                "offered": rep.offered,
                "served": rep.served,
                "deadline_met": rep.deadline_met,
                "shed": rep.shed,
                "failed": rep.failed,
                "launches": rep.launches,
                "coalesced": rep.coalesced,
            },
        )

    def sim_metrics(self, passes: "list[Served]") -> "tuple[dict, dict]":
        """(end-to-end sim metrics, per-layer counts) over one pass per
        stream."""
        sims = [p.sim for p in passes]
        total = {
            k: sum(s[k] for s in sims)
            for k in ("offered", "served", "deadline_met", "shed", "failed",
                      "launches", "coalesced", "span_ns", "pool_span_ns",
                      "io_bytes")
        }
        lat = sorted(ns for s in sims for ns in s["latencies_ns"])
        hold = sorted(ns for s in sims for ns in s["hold_ns"])
        busy = [sum(col) for col in zip(*(s["busy"] for s in sims))]
        late = total["served"] - total["deadline_met"]
        e2e = {
            "sim_p50_us": percentile_ns(lat, 0.50) / 1e3,
            "sim_mean_us": sum(lat) / len(lat) / 1e3,
            "goodput_rps": total["deadline_met"] / (total["span_ns"] / 1e9),
            "device_gbps": total["io_bytes"] / sum(busy),
            "device_us_per_req": sum(busy) / total["served"] / 1e3,
        }
        layer = {
            "shard.scheduler.hold_p50_us": percentile_ns(hold, 0.50) / 1e3,
            "shard.scheduler.hold_p99_us": percentile_ns(hold, 0.99) / 1e3,
            "shard.scheduler.rows_per_launch": total["served"] / total["launches"],
            "shard.scheduler.coalesced_frac": total["coalesced"] / total["served"],
            "shard.scheduler.shed": total["shed"],
            "shard.scheduler.late": late,
            "shard.scheduler.miss_frac": (late + total["shed"] + total["failed"])
            / total["offered"],
            **{
                f"shard.service.util.dev{i}": b / total["pool_span_ns"]
                for i, b in enumerate(busy)
            },
        }
        p99 = percentile_ns(lat, 0.99)
        layer["shard.scheduler.p99_slo_frac"] = p99 / SLO_NS
        return e2e, {
            "samples": len(lat),
            "offered": total["offered"],
            "sim_p99_us": p99 / 1e3,
            **layer,
        }

    def _meets_slo(self, probes: "list[Served]") -> bool:
        sims = [p.sim for p in probes]
        offered = sum(s["offered"] for s in sims)
        missed = sum(
            s["served"] - s["deadline_met"] + s["shed"] + s["failed"] for s in sims
        )
        lat = sorted(ns for s in sims for ns in s["latencies_ns"])
        return (
            missed / offered <= CAP_MAX_MISS
            and percentile_ns(lat, 0.99) <= SLO_NS
            and max(s["drain_ns"] for s in sims) <= SLO_NS
        )

    def capacity(self, state) -> "tuple[float, list[Served]]":
        """Highest ladder rate that meets the SLO on this workload's own
        arrival process and mix, pooled over CAP_STREAMS streams:
        ``miss_frac`` <= 1%, p99 <= SLO, and every stream's queue drains
        within one SLO of its last arrival (no growing backlog).  Binary
        search over the fixed ladder."""
        checked = []
        lo, hi = -1, CAP_RUNGS
        while hi - lo > 1:
            mid = (lo + hi) // 2
            spec = self._spec(CAP_BASE_RPS * CAP_STEP**mid, CAP_REQUESTS)
            probes = [
                self.serve_pass(self.fresh(state), i, spec=spec)
                for i in range(CAP_STREAMS)
            ]
            checked += probes
            if self._meets_slo(probes):
                lo = mid
            else:
                hi = mid
        return (CAP_BASE_RPS * CAP_STEP**lo if lo >= 0 else 0.0), checked

    def naive_capacity(self, state) -> "tuple[float, Served]":
        """Per-arrival-launch capacity: D / mean solo service time, from a
        naive-policy pass over stream 0 (reported only, never sets load)."""
        served = self.serve_pass(self.fresh(state), 0, policy="naive")
        mean_solo_ns = sum(served.sim["busy"]) / served.sim["served"]
        return DEVICES * 1e9 / mean_solo_ns, served


class GraphMix:
    """Closed-loop rounds of mixed operator graphs on the pool."""

    open_loop = False
    reference = "interpreter"
    sim_passes = 1

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        vocab = VOCAB + VOCAB_STEP * int(rng.integers(0, 4))
        llm = llm_sample(vocab, k=TOPK, prep=("abs", "double"))
        pipe = scan_pipeline(PIPE_N, pre=("abs",), post=("double",))
        sort = sort_graph(SORT_N)
        # each round: two of each graph, fresh seeded inputs and theta
        self.rounds = []
        for _ in range(GRAPH_ROUNDS):
            jobs = []
            for _ in range(2):
                probs = (rng.permutation(vocab) + 1).astype(np.float16)
                theta = float(rng.integers(1, 8)) / 8.0
                jobs.append((llm, {"probs": probs}, {"sample": {"theta": theta}}))
                x = rng.integers(-2, 3, PIPE_N).astype(np.float16)
                jobs.append((pipe, {"x": x}, None))
                x = rng.integers(-1000, 1000, SORT_N).astype(np.float16)
                jobs.append((sort, {"x": x}, None))
            self.rounds.append(
                [(g, i, p, oracle_outputs(g, i, p)) for g, i, p in jobs]
            )

    def setup(self) -> dict:
        store = TuneStore(CONFIG)
        t0 = time.perf_counter()
        warm_tune_store(
            [WorkloadKey("1d", PIPE_N, "fp16")], store, workers=1
        )
        warm_s = time.perf_counter() - t0
        svc = PoolScanService(
            DEVICES,
            config=CONFIG,
            tune_store=store,
            graph_fusion="aggressive",
            parallel=None,
        )
        # lowering warm-up: one request of each graph, lowered and served
        for graph, inputs, params, _ in self.rounds[0][:3]:
            svc.submit_graph(graph, inputs, params=params)
        svc.flush()
        runner = svc.workers[0].graph_runner
        build_s = runner.plans.build_host_s + runner.cache.build_host_s
        return {"svc": svc, "store": store, "warm_s": warm_s, "build_s": build_s}

    def fresh(self, state) -> dict:
        # a new pool on the tuned store and the set-up's graph runner, so
        # tuning and lowering stay warm
        svc = PoolScanService(
            DEVICES,
            config=CONFIG,
            tune_store=state["store"],
            graph_fusion="aggressive",
            parallel=None,
        )
        svc.workers[0].graph_runner = state["svc"].workers[0].graph_runner
        return {**state, "svc": svc}

    def counters(self, state) -> dict:
        return _pool_counters(state["svc"], state["store"])

    def gm_bytes(self, state) -> int:
        svc = state["svc"]
        runner = svc.workers[0].graph_runner
        return _gm_bytes(svc.pool.devices + [runner.device])

    def serve_pass(self, state, index: int) -> Served:
        svc = state["svc"]
        busy0 = list(svc.busy_ns)
        host_ms, round_ns, done = [], [], []
        t_pass = time.perf_counter()
        for jobs in self.rounds:
            span0 = svc.span_ns
            t0 = time.perf_counter()
            tickets = [
                svc.submit_graph(g, inputs, params=params)
                for g, inputs, params, _ in jobs
            ]
            svc.flush()
            host_ms.append((time.perf_counter() - t0) * 1e3)
            round_ns.append(svc.span_ns - span0)
            done.append(tickets)
        wall = time.perf_counter() - t_pass
        busy = [b - b0 for b, b0 in zip(svc.busy_ns, busy0)]
        errors = 0
        io_bytes = 0
        elements = 0
        for jobs, tickets in zip(self.rounds, done):
            for (_, inputs, _, want), t in zip(jobs, tickets):
                got = t.values if t.done else None
                if got is None or len(got) != len(want) or not all(
                    np.array_equal(a, b) for a, b in zip(got, want)
                ):
                    errors += 1
                io_bytes += sum(v.nbytes for v in inputs.values())
                io_bytes += sum(v.nbytes for v in want)
                elements += sum(v.size for v in inputs.values())
        all_tickets = [t for ts in done for t in ts]
        if not np.isclose(_ticket_device_ns(all_tickets), sum(busy), rtol=1e-9):
            errors += 1
        return Served(
            requests=len(all_tickets),
            wall_s=wall,
            host_ms=host_ms,
            errors=errors,
            elements=elements,
            sim={
                "round_ns": round_ns,
                "busy": busy,
                "io_bytes": io_bytes,
                "launches_per_req": sum(t.launches for t in all_tickets)
                / len(all_tickets),
            },
        )

    def sim_metrics(self, passes: "list[Served]") -> "tuple[dict, dict]":
        (p,) = passes
        rounds = p.sim["round_ns"]
        busy = p.sim["busy"]
        span = sum(rounds)
        e2e = {
            "sim_p50_us": percentile_ns(rounds, 0.50) / 1e3,
            "sim_mean_us": span / len(rounds) / 1e3,
            # closed loop without deadlines: every completion is good
            "goodput_rps": p.requests / (span / 1e9),
            "device_gbps": p.sim["io_bytes"] / sum(busy),
            "device_us_per_req": sum(busy) / p.requests / 1e3,
        }
        layer = {
            "graph.interp.launches_per_req": p.sim["launches_per_req"],
            **{
                f"shard.service.util.dev{i}": b / span
                for i, b in enumerate(busy)
            },
        }
        return e2e, {"samples": len(rounds), "offered": p.requests, **layer}


class ScanBulk:
    """Closed-loop sharded mcscan over D=2, one large array at a time."""

    open_loop = False
    reference = "streaming"
    sim_passes = 1

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.arrays = []
        jitter = (0, BULK_STEP * int(rng.integers(0, 4)))
        for base, extra in zip(BULK_NS, jitter):
            n = base + extra
            for dtype in BULK_DTYPES:
                if dtype == "fp16":
                    x, _ = exact_fp16_scan_input(n, rng)
                else:
                    x = rng.integers(-128, 128, n).astype(np.int8)
                self.arrays.append((x, inclusive_scan(x)))

    def setup(self) -> dict:
        pool = DevicePool(DEVICES, CONFIG)
        scanner = ShardedScanner(pool, algorithm="mcscan")
        # the first scan of each shape builds its shard plans
        t0 = time.perf_counter()
        for x, _ in self.arrays:
            scanner.scan(x)
        return {
            "pool": pool,
            "scanner": scanner,
            "warm_s": 0.0,
            "build_s": time.perf_counter() - t0,
        }

    def fresh(self, state) -> dict:
        # the scanner keeps no per-scan history
        return state

    def counters(self, state) -> dict:
        return {"plan_misses": state["scanner"].plans_built}

    def gm_bytes(self, state) -> int:
        return _gm_bytes(state["pool"].devices)

    def serve_pass(self, state, index: int) -> Served:
        scanner = state["scanner"]
        results, host_ms = [], []
        t_pass = time.perf_counter()
        for x, _ in self.arrays:
            t0 = time.perf_counter()
            results.append(scanner.scan(x))
            host_ms.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - t_pass
        errors = sum(
            not np.array_equal(r.values, want)
            for r, (_, want) in zip(results, self.arrays)
        )
        busy = [0.0] * DEVICES
        for r in results:
            for shard in r.shards:
                busy[shard.device] += shard.scan_ns + shard.carry_ns
        # keep numbers, not the results: they hold every output array
        return Served(
            requests=len(results),
            wall_s=wall,
            host_ms=host_ms,
            errors=errors,
            elements=sum(x.size for x, _ in self.arrays),
            sim={
                "wall_ns": [r.wall_ns for r in results],
                "scan_stage_ns": [r.scan_stage_ns for r in results],
                "carry_stage_ns": [r.carry_stage_ns for r in results],
                "io_bytes": sum(r.io_bytes for r in results),
                "busy": busy,
            },
        )

    def sim_metrics(self, passes: "list[Served]") -> "tuple[dict, dict]":
        (p,) = passes
        walls, busy = p.sim["wall_ns"], p.sim["busy"]
        n = len(walls)
        e2e = {
            "sim_p50_us": float(np.median(walls)) / 1e3,
            "sim_mean_us": sum(walls) / n / 1e3,
            "goodput_rps": n / (sum(walls) / 1e9),
            "device_gbps": p.sim["io_bytes"] / sum(busy),
            "device_us_per_req": sum(busy) / n / 1e3,
        }
        layer = {
            "shard.scan.scan_stage_us": sum(p.sim["scan_stage_ns"]) / n / 1e3,
            "shard.scan.carry_stage_us": sum(p.sim["carry_stage_ns"]) / n / 1e3,
            **{
                f"shard.service.util.dev{i}": b / sum(walls)
                for i, b in enumerate(busy)
            },
        }
        return e2e, {"samples": n, "offered": n, **layer}


WORKLOADS = {
    "traffic-steady": lambda seed: Traffic(
        "traffic-steady", "poisson", STEADY_RPS, seed
    ),
    "traffic-burst": lambda seed: Traffic(
        "traffic-burst", "bursty", BURST_RPS, seed
    ),
    "graph-mix": GraphMix,
    "scan-bulk": ScanBulk,
}
