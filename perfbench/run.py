"""Seeded end-to-end benchmark of the scan-serving stack.

    python3 perfbench/run.py --workload traffic-steady --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  One run of one workload:

1. sets the workload up ``SETUP_REPS`` times (pool build, tuning, plan
   warm-up) and reports the median as ``setup_s``;
2. serves passes for ``--seconds``, each from the state set-up left,
   cycling over the workload's distinct pieces of seeded input and
   checking every output against the oracle after the pass stops its
   clock.  The first pass over each piece gives the simulated metrics,
   exact per seed.  Host metrics are medians over passes of each pass's
   throughput and latency percentiles, scaled to an undisturbed host
   (see ``HostSpeed``).

With ``--trace 1`` the timed passes alternate untraced and traced; the
traced ones record per-layer spans (see ``ledger.py``), the traffic
workloads also search their capacity ladder and serve a naive-policy
baseline (both simulated), and the run reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output that is not
bit-identical to the oracle, a failed ticket, broken accounting, a plan
or graph lowering built inside a pass, or a traced ledger that misses its
wall time by more than ``MAX_LEDGER_ERR`` makes ``correct`` false and the
exit code 1.  The full record (environment, sample counts, spans of the first
traced pass) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from ledger import LAYERS, Ledger, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 3
#: timed passes per kind (untraced, traced) even when --seconds is short
MIN_PASSES = 3
#: largest share of the traced wall time the ledger may fail to account for
MAX_LEDGER_ERR = 0.03
#: reference-work calls timed before and after each pass or set-up
REFERENCE_CALLS = 4

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "setup_s": "s",
    "host_rps": "1/s",
    "host_p50_ms": "ms",
    "host_p99_ms": "ms",
    "sim_p50_us": "us",
    "sim_mean_us": "us",
    "goodput_rps": "1/s",
    "device_gbps": "GB/s",
    "device_us_per_req": "us",
    "peak_rss_mb": "MB",
}

ENGINE_KINDS = ("cube", "vec", "mte_in", "mte_out", "mte_local", "scalar")
OP_KINDS = ("elementwise", "radix_sort", "scan", "top_p_sample", "topk")

#: per-layer metrics (traced run): name -> (unit, better).  Counts come
#: from the untimed simulated passes (exact per seed) or from set-up;
#: times from the traced passes.  A layer a workload bypasses reads 0.
PER_LAYER = {
    "serve.traffic.gen_us": ("us/req", "lower"),
    "shard.scheduler.offer_us": ("us/call", "lower"),
    "shard.scheduler.hold_p50_us": ("us", "lower"),
    "shard.scheduler.hold_p99_us": ("us", "lower"),
    "shard.scheduler.rows_per_launch": ("ratio", "higher"),
    "shard.scheduler.coalesced_frac": ("fraction", "higher"),
    "shard.scheduler.shed": ("count", "lower"),
    "shard.scheduler.late": ("count", "lower"),
    "shard.scheduler.miss_frac": ("fraction", "lower"),
    "shard.scheduler.p99_slo_frac": ("fraction", "lower"),
    "shard.scheduler.capacity_rps": ("1/s", "higher"),
    "shard.scheduler.naive_capacity_rps": ("1/s", "higher"),
    "shard.service.dispatch_us": ("us/call", "lower"),
    "shard.service.util.dev0": ("fraction", "higher"),
    "shard.service.util.dev1": ("fraction", "higher"),
    "shard.service.groups": ("count", "lower"),
    "shard.service.failovers": ("count", "lower"),
    "serve.batcher.drain_us": ("us/call", "lower"),
    "serve.batcher.groups_per_drain": ("ratio", "lower"),
    "serve.plan.get_us": ("us/call", "lower"),
    "serve.plan.hits": ("count", "higher"),
    "serve.plan.misses": ("count", "lower"),
    "serve.plan.build_s": ("s", "lower"),
    "serve.plan.gm_mb": ("MB", "lower"),
    "serve.service.flush_self_us": ("us/launch", "lower"),
    "serve.service.retries": ("count", "lower"),
    "serve.numerics.us_per_launch": ("us/launch", "lower"),
    "serve.numerics.host_gbps": ("GB/s", "higher"),
    "hw.device.replay_us": ("us/call", "lower"),
    "hw.device.replays_per_req": ("ratio", "lower"),
    "hw.device.timeline_hit_frac": ("fraction", "higher"),
    "hw.device.l2_hit_frac": ("fraction", "higher"),
    **{
        f"hw.device.busy_ns_per_req.{kind}": ("ns/req", "lower")
        for kind in ENGINE_KINDS
    },
    "core.gm_bytes_per_elem": ("B", "lower"),
    "core.roofline_frac": ("fraction", "higher"),
    "core.launch_ns_p50": ("ns", "lower"),
    "graph.interp.lower_us": ("us/call", "lower"),
    "graph.interp.launches_per_req": ("ratio", "lower"),
    "graph.interp.hits": ("count", "higher"),
    "graph.interp.misses": ("count", "lower"),
    **{f"graph.interp.op_ns.{kind}": ("ns/req", "lower") for kind in OP_KINDS},
    "graph.service.oracle_us": ("us/call", "lower"),
    "shard.scan.scan_stage_us": ("us", "lower"),
    "shard.scan.carry_stage_us": ("us", "lower"),
    "shard.scan.host_ms": ("ms/call", "lower"),
    "tune.lookup_hits": ("count", "higher"),
    "tune.lookup_misses": ("count", "lower"),
    "tune.warm_s": ("s", "lower"),
    **{f"ledger.{name}.self_us": ("us/req", "lower") for name in LAYERS},
    "ledger.unattributed_us": ("us/req", "lower"),
    "ledger.wall_us": ("us/req", "lower"),
    "ledger.identity_err_frac": ("fraction", "lower"),
    "ledger.untraced_host_rps": ("1/s", "higher"),
    "ledger.traced_host_rps": ("1/s", "higher"),
    "ledger.overhead_frac": ("fraction", "lower"),
    "ledger.host_speed": ("fraction", "higher"),
}


def _load_program() -> bool:
    """Put the checkout's ``src/`` first on the path; False when the
    checkout holds no program (or an installed copy would shadow it)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import repro

    return Path(repro.__file__).resolve().parent == (src / "repro").resolve()


class HostSpeed:
    """How fast the host runs right now, from fixed reference work timed
    around each pass and set-up.

    The host is shared: while other tenants hold its cores, everything
    slows alike, by up to 2x for tens of seconds.  Host times multiplied
    by :meth:`scaled`'s factor read as on an undisturbed host.  The work
    matches the workload's own host work, because interference slows
    interpreter-bound code more than memory-bound array passes:

    * ``interpreter`` — dict updates, small lists, fp16 -> fp32 casts and
      cumsums of 16K elements (the serving path);
    * ``streaming`` — one cast + cumsum over 1M fp16 elements (the bulk
      numerics of million-element scans).
    """

    #: seconds one call takes on an undisturbed 2-CPU host of the kind
    #: the benchmark was written on: the unit scaled host times read in
    REFERENCE_S = {"interpreter": 2.4e-3, "streaming": 7.6e-3}

    def __init__(self, kind: str):
        self.reference_s = self.REFERENCE_S[kind]
        self._big = (
            np.arange(1 << 20, dtype=np.float16) if kind == "streaming" else None
        )

    def _work(self) -> None:
        if self._big is not None:
            np.cumsum(self._big.astype(np.float32))
            return
        table: dict = {}
        for i in range(4000):
            table[i % 97] = table.get(i % 97, 0) + i
        x = np.arange(16384, dtype=np.float16)
        for _ in range(8):
            np.cumsum(x.astype(np.float32))
        for i in range(3000):
            pair = [i, i + 1]
            table[i % 89] = len(pair) + pair[0]

    def _times(self) -> "list[float]":
        out = []
        for _ in range(REFERENCE_CALLS):
            t0 = time.perf_counter()
            self._work()
            out.append(time.perf_counter() - t0)
        return out

    def scaled(self, fn):
        """Run ``fn()``; return (result, its wall seconds, the factor that
        scales host times measured now to the undisturbed host)."""
        before = self._times()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        scale = self.reference_s / statistics.median(before + self._times())
        return result, wall, scale


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _delta(after: dict, before: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def _sum_counts(passes) -> dict:
    out: dict = {}
    for p in passes:
        for k, v in p.counts.items():
            out[k] = out.get(k, 0) + v
    return out


def _serve(wl, base, index: int, speed, tracer=None, totals=None):
    """One pass from a fresh state, with its counter deltas; traced when
    a tracer is given."""
    state = wl.fresh(base)
    before = wl.counters(state)

    def one_pass():
        # as timeit does: a collection left over from earlier passes must
        # not land inside this one
        gc.collect()
        gc.disable()
        try:
            if tracer is None:
                return wl.serve_pass(state, index)
            with tracer:
                return wl.serve_pass(state, index)
        finally:
            gc.enable()

    served, _, served.scale = speed.scaled(one_pass)
    served.counts = _delta(wl.counters(state), before)
    if tracer is not None:
        totals.add_pass(tracer.ledger, served)
    return served


def _timed_loop(wl, base, seconds: float, speed, tracer, totals):
    """Serve passes for ``seconds``, cycling over the workload's distinct
    input pieces; with a tracer, alternate untraced and traced passes.
    Returns (every pass in order, untraced passes, traced passes)."""
    passes, plain, traced = [], [], []
    t_end = time.perf_counter() + seconds
    while (
        len(passes) < wl.sim_passes
        or len(plain) < MIN_PASSES
        or (tracer is not None and len(traced) < MIN_PASSES)
        or time.perf_counter() < t_end
    ):
        if tracer is not None and len(plain) > len(traced):
            served = _serve(wl, base, len(passes), speed, tracer, totals)
            traced.append(served)
        else:
            served = _serve(wl, base, len(passes), speed)
            plain.append(served)
        passes.append(served)
    return passes, plain, traced


class LedgerTotals:
    """Wall and span-tree totals over the traced passes."""

    def __init__(self):
        self.wall_ns = 0
        self.tree_self_ns = 0
        self.roots_ns = 0
        self.requests = 0
        self.elements = 0
        self.launches = 0
        self.first_spans = None

    def add_pass(self, ledger, served) -> None:
        tree_self, roots = ledger.span_tree()
        self.wall_ns += int(served.wall_s * 1e9)
        self.tree_self_ns += tree_self
        self.roots_ns += roots
        self.requests += served.requests
        self.elements += served.elements
        self.launches += served.counts.get("launches", 0)
        if self.first_spans is None:
            t0 = min((s[1] for s in ledger.spans), default=0)
            self.first_spans = [
                [ledger.ops[op][0], a - t0, b - t0, parent]
                for op, a, b, parent in ledger.spans
            ]
        ledger.spans.clear()


def _per_call_us(ledger, *names) -> float:
    calls = sum(ledger.op(n)[0] for n in names)
    incl = sum(ledger.op(n)[1] for n in names)
    return incl / calls / 1e3 if calls else 0.0


def _device_metrics(ledger, totals) -> dict:
    """hw.device and core metrics from the kernels the traced passes
    replayed: each distinct kernel's trace is analysed once and weighted
    by its replay count."""
    from repro.analysis.roofline import memory_floor_ns

    replays = hits = 0
    gm = l2 = floor_ns = total_ns = 0.0
    busy = dict.fromkeys(ENGINE_KINDS, 0.0)
    launch_ns = []
    for count, hit, trace, _ in ledger.kernels.values():
        replays += count
        hits += hit
        g = trace.gm_bytes()
        gm += count * g
        l2 += count * trace.l2_hit_bytes()
        floor_ns += count * memory_floor_ns(trace.config, g)
        total_ns += count * trace.total_ns
        launch_ns.append((trace.total_ns, count))
        for stat in trace.engine_stats():
            if stat.info.engine_kind in busy:
                busy[stat.info.engine_kind] += count * stat.busy_ns
    launch_ns.sort()
    half, seen, p50 = replays / 2, 0, 0.0
    for ns, count in launch_ns:
        seen += count
        if seen >= half:
            p50 = ns
            break
    req = totals.requests or 1
    out = {
        "hw.device.replay_us": _per_call_us(ledger, "AscendDevice.replay"),
        "hw.device.replays_per_req": replays / req,
        "hw.device.timeline_hit_frac": hits / replays if replays else 0.0,
        "hw.device.l2_hit_frac": l2 / gm if gm else 0.0,
        "core.gm_bytes_per_elem": gm / totals.elements if totals.elements else 0.0,
        "core.roofline_frac": floor_ns / total_ns if total_ns else 0.0,
        "core.launch_ns_p50": p50,
    }
    for kind in ENGINE_KINDS:
        out[f"hw.device.busy_ns_per_req.{kind}"] = busy[kind] / req
    return out


def _layer_metrics(ledger, totals, plain, traced, sim, setup) -> dict:
    layer, counts, setup_counts = sim["layer"], sim["counts"], setup["counts"]
    req = totals.requests or 1
    launches = totals.launches
    drains = ledger.counts["drains"]
    numerics = ledger.op("group_scan_values")
    self_ns = ledger.layer_self_ns()
    unattributed = totals.wall_ns - totals.roots_ns
    identity_err = (
        abs(sum(self_ns.values()) + unattributed - totals.wall_ns)
        + abs(totals.tree_self_ns - totals.roots_ns)
    ) / totals.wall_ns
    untraced_rps = _median([p.requests / p.wall_s for p in plain])
    traced_rps = _median([p.requests / p.wall_s for p in traced])
    sim_requests = sim["offered"] or 1
    out = {
        "serve.traffic.gen_us": (
            (ledger.op("generate_arrivals")[1] + ledger.op("make_input")[1])
            / req
            / 1e3
        ),
        "shard.scheduler.offer_us": _per_call_us(ledger, "TrafficScheduler.offer"),
        "shard.scheduler.hold_p50_us": layer.get("shard.scheduler.hold_p50_us", 0.0),
        "shard.scheduler.hold_p99_us": layer.get("shard.scheduler.hold_p99_us", 0.0),
        "shard.scheduler.rows_per_launch": layer.get(
            "shard.scheduler.rows_per_launch", 0.0
        ),
        "shard.scheduler.coalesced_frac": layer.get(
            "shard.scheduler.coalesced_frac", 0.0
        ),
        "shard.scheduler.shed": layer.get("shard.scheduler.shed", 0),
        "shard.scheduler.late": layer.get("shard.scheduler.late", 0),
        "shard.scheduler.miss_frac": layer.get("shard.scheduler.miss_frac", 0.0),
        "shard.scheduler.p99_slo_frac": layer.get("shard.scheduler.p99_slo_frac", 0.0),
        "shard.scheduler.capacity_rps": sim.get("capacity_rps", 0.0),
        "shard.scheduler.naive_capacity_rps": sim.get("naive_capacity_rps", 0.0),
        "shard.service.dispatch_us": _per_call_us(ledger, "PoolScanService._dispatch"),
        "shard.service.util.dev0": layer.get("shard.service.util.dev0", 0.0),
        "shard.service.util.dev1": layer.get("shard.service.util.dev1", 0.0),
        "shard.service.groups": counts.get("groups", 0),
        "shard.service.failovers": counts.get("failovers", 0),
        "serve.batcher.drain_us": _per_call_us(ledger, "RequestBatcher.drain"),
        "serve.batcher.groups_per_drain": (
            ledger.counts["drained_groups"] / drains if drains else 0.0
        ),
        "serve.plan.get_us": _per_call_us(
            ledger, "PlanCache.get_1d", "PlanCache.get_batched"
        ),
        "serve.plan.hits": counts.get("plan_hits", 0),
        "serve.plan.misses": setup_counts.get("plan_misses", 0),
        "serve.plan.build_s": setup["build_s"],
        "serve.plan.gm_mb": setup["gm_bytes"] / 1e6,
        "serve.service.flush_self_us": (
            ledger.op("ScanService.flush")[2] / launches / 1e3 if launches else 0.0
        ),
        "serve.service.retries": counts.get("retries", 0),
        "serve.numerics.us_per_launch": (
            numerics[1] / launches / 1e3 if launches else 0.0
        ),
        "serve.numerics.host_gbps": (
            ledger.counts["numerics_bytes"] / numerics[1] if numerics[1] else 0.0
        ),
        **_device_metrics(ledger, totals),
        "graph.interp.lower_us": _per_call_us(ledger, "GraphRunner.lower"),
        "graph.interp.launches_per_req": layer.get(
            "graph.interp.launches_per_req", 0.0
        ),
        "graph.interp.hits": counts.get("graph_hits", 0),
        "graph.interp.misses": setup_counts.get("graph_misses", 0),
        **{
            f"graph.interp.op_ns.{kind}": counts.get(f"op_ns.{kind}", 0.0)
            / sim_requests
            for kind in OP_KINDS
        },
        "graph.service.oracle_us": _per_call_us(ledger, "graph_oracle_job"),
        "shard.scan.scan_stage_us": layer.get("shard.scan.scan_stage_us", 0.0),
        "shard.scan.carry_stage_us": layer.get("shard.scan.carry_stage_us", 0.0),
        "shard.scan.host_ms": _per_call_us(ledger, "ShardedScanner.scan") / 1e3,
        "tune.lookup_hits": setup_counts.get("tune_hits", 0),
        "tune.lookup_misses": setup_counts.get("tune_misses", 0),
        "tune.warm_s": setup["warm_s"],
        **{
            f"ledger.{name}.self_us": self_ns[name] / req / 1e3
            for name in LAYERS
        },
        "ledger.unattributed_us": unattributed / req / 1e3,
        "ledger.wall_us": totals.wall_ns / req / 1e3,
        "ledger.identity_err_frac": identity_err,
        "ledger.untraced_host_rps": untraced_rps,
        "ledger.traced_host_rps": traced_rps,
        "ledger.overhead_frac": 1.0 - traced_rps / untraced_rps,
        # 1 / the scale factor: below 1 while other tenants slow the host
        "ledger.host_speed": 1.0 / _median([p.scale for p in plain + traced]),
    }
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    speed = HostSpeed(wl.reference)

    # 1. set-up, repeated; the last state serves the run
    setup_s, warm_s, state = [], [], None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        state, wall, scale = speed.scaled(wl.setup)
        setup_s.append(wall * scale)
        warm_s.append(state["warm_s"] * scale)
    setup = {
        "counts": wl.counters(state),
        "build_s": state["build_s"] * scale,
        "warm_s": _median(warm_s),
        "gm_bytes": wl.gm_bytes(state),
    }

    # 2. timed passes; the first pass over each distinct input piece
    #    gives the simulated metrics
    ledger = Ledger()
    tracer = Tracer(ledger) if trace else None
    totals = LedgerTotals()
    checked, plain, traced = _timed_loop(wl, state, seconds, speed, tracer, totals)
    sim_passes = checked[: wl.sim_passes]
    e2e_sim, layer_sim = wl.sim_metrics(sim_passes)
    sim = {
        "layer": layer_sim,
        "counts": _sum_counts(sim_passes),
        "offered": layer_sim["offered"],
        "samples": layer_sim["samples"],
    }

    # 3. tracing: per-layer metrics, with the traffic workloads' capacity
    #    ladder and naive baseline (simulated); otherwise end to end
    if trace:
        if wl.open_loop:
            sim["capacity_rps"], probes = wl.capacity(state)
            sim["naive_capacity_rps"], naive = wl.naive_capacity(state)
            checked += probes + [naive]
        metrics = _layer_metrics(ledger, totals, plain, traced, sim, setup)
    else:
        from repro.serve import percentile_ns

        def per_pass(q):
            return _median(
                [percentile_ns(sorted(p.host_ms), q) * p.scale for p in plain]
            )

        metrics = {
            "setup_s": _median(setup_s),
            "host_rps": _median([p.requests / (p.wall_s * p.scale) for p in plain]),
            "host_p50_ms": per_pass(0.50),
            "host_p99_ms": per_pass(0.99),
            **e2e_sim,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }
        sim["host_samples"] = sum(len(p.host_ms) for p in plain)

    attempted = sum(p.requests for p in checked)
    # the steady-state guard: set-up left every plan and graph lowering
    # built, so a miss while serving is a cold build inside a pass
    cold_builds = sum(
        p.counts.get("plan_misses", 0) + p.counts.get("graph_misses", 0)
        for p in checked
    )
    failed = sum(p.errors for p in checked) + cold_builds
    # the ledger's accounting identity: layer self times plus the
    # unattributed remainder make up the traced wall time
    ledger_broken = trace and metrics["ledger.identity_err_frac"] > MAX_LEDGER_ERR
    failed += ledger_broken
    return {
        "workload": name,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "cold_builds_in_timed_loop": cold_builds,
        "passes": {"sim": len(sim_passes), "timed": len(plain), "traced": len(traced)},
        "sim_samples": sim["samples"],
        "sim_p99_us": sim["layer"].get("sim_p99_us"),
        "host_samples": sim.get("host_samples", 0),
        "setup_s_reps": setup_s,
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_scale": [p.scale for p in plain],
        "spans": totals.first_spans,
    }


def _environment(seed: int) -> dict:
    from repro.hw.config import ASCEND_910B4
    from repro.tune.store import config_fingerprint

    return {
        "seed": seed,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "device_config": ASCEND_910B4.name,
        "config_fingerprint": config_fingerprint(ASCEND_910B4)[:16],
        # arrivals are scheduled on the simulated clock, which the
        # generator drives itself: it is never late
        "generator_lateness_us": 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_program():
        print(f"no program under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = _environment(args.seed)
    units = (
        END_TO_END
        if not args.trace
        else {k: unit for k, (unit, _) in PER_LAYER.items()}
    )
    record["error_frac"] = record["failed"] / record["attempted"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} host_cpus={env['host_cpus']} "
        f"python={env['python']} numpy={env['numpy']} "
        f"config={env['device_config']}/{env['config_fingerprint']} "
        f"sim samples={record['sim_samples']} "
        f"sim_p99_us={record['sim_p99_us']} host samples="
        f"{record['host_samples']} passes={record['passes']}"
    )
    for key, value in record["metrics"].items():
        print(f"{key:40s} {value:.6g} {units.get(key, '')}".rstrip())
    print(f"error_frac {record['error_frac']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": v, "unit": units[k]}
            for k, v in record["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
