"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``info`` — print the simulated device configuration;
* ``scan`` — run one scan algorithm on random data and report time /
  bandwidth (optionally an ASCII timeline of the launch);
* ``experiment`` — regenerate one of the paper's figures (or ``all``) and
  print its series table;
* ``serve-bench`` — measure the plan-cached serving layer (cache-hit
  latency vs trace-every-call, batched-submission throughput, and the
  DES vs memoized-timeline replay comparison);
* ``tune`` — sweep plan configurations per workload shape on the
  simulator and write the persistent tuned-plan store that the serving
  layer consults;
* ``shard`` — shard one 1-D MCScan across a pool of simulated devices
  (phase I, a host scan of the shard totals, phase II) and compare its
  wall clock against a single device;
* ``chaos`` — serve a mixed load on a fault-injected device pool
  (transient launch failures, engine slowdowns, one permanent device
  loss) and report retries, failovers and per-member health (its checks
  live in ``tests/serve/test_chaos.py``);
* ``traffic`` — serve a generated open-loop arrival stream across the
  pool and compare continuous batching against one launch per arrival
  (its checks live in ``tests/shard/test_scheduler.py``);
* ``fuzz`` — seeded schedule fuzzing of the serve/shard/fault stack:
  every schedule-equivalent decision (drain order, routing tie-breaks,
  fault timing) is driven by a recorded controller, invariants are
  checked per seed, and failures are shrunk to a minimal decision trace
  (``--replay-corpus`` re-runs the pinned seed corpus);
* ``graph`` — serve operator graphs (top-k -> top-p sampling, sort)
  through the batched, fault-tolerant pool front end: graphs lower once
  to replayable device programs, every request's numerics come from the
  NumPy oracle bit-for-bit (its checks live in ``tests/graph/`` and
  ``benchmarks/bench_graph.py``);
* ``sort`` / ``compress`` / ``topp`` — run one operator comparison.

Examples::

    python -m repro info
    python -m repro scan --algorithm mcscan -n 1048576 --timeline
    python -m repro experiment fig08
    python -m repro experiment all --out EXPERIMENTS_RESULTS.md --markdown
    python -m repro tune --shapes 64K,1M --batched 8x8K --store tuned_plans.json
    python -m repro sort -n 1048576
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.api import (
    SCAN_ALGORITHMS,
    SCAN_STRATEGIES,
    ScanContext,
)
from .graph.fuse import FUSION_MODES
from .hw.config import ASCEND_910B4
from .hw.traceview import render_timeline
from .ops.driver import AscendOps
from .ops.topp import TopPSampler
from .runner import EXPERIMENTS, run_experiment, to_markdown, to_text

__all__ = ["main"]


def _parse_size(text: str) -> int:
    """Accept 1048576, 1M, 64K, 2G style sizes."""
    text = text.strip().upper()
    mult = 1
    if text and text[-1] in "KMG":
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[text[-1]]
        text = text[:-1]
    return int(float(text) * mult)


def cmd_info(args) -> int:
    cfg = ASCEND_910B4
    print(f"device          : {cfg.name} (simulated)")
    print(f"AI cores        : {cfg.num_ai_cores} "
          f"({cfg.num_cube_cores} cube + {cfg.num_vector_cores} vector)")
    print(f"clock           : {cfg.clock_ghz} GHz")
    print(f"HBM             : {cfg.memory.hbm_bandwidth_gbps:.0f} GB/s peak, "
          f"{cfg.memory.dram_efficiency:.0%} streaming efficiency")
    print(f"L2 cache        : {cfg.memory.l2_capacity_bytes >> 20} MiB")
    b = cfg.buffers
    print(f"local buffers   : UB {b.ub_bytes >> 10} KiB, L1 {b.l1_bytes >> 10} KiB, "
          f"L0A/L0B {b.l0a_bytes >> 10} KiB, L0C {b.l0c_bytes >> 10} KiB")
    print(f"scan algorithms : {', '.join(SCAN_ALGORITHMS)}")
    print(f"scan strategies : {', '.join(SCAN_STRATEGIES)}")
    print(f"experiments     : {', '.join(sorted(EXPERIMENTS))}")
    return 0


def cmd_scan(args) -> int:
    n = _parse_size(args.n)
    rng = np.random.default_rng(args.seed)
    if args.dtype == "fp16":
        x = (rng.integers(0, 3, n) - 1).astype(np.float16)
    else:
        x = rng.integers(-5, 6, n).astype(np.int8)
    ctx = ScanContext()
    if args.algorithm in SCAN_ALGORITHMS:
        res = ctx.scan(x, algorithm=args.algorithm, s=args.s,
                       exclusive=args.exclusive)
    else:
        res = ctx.scan_strategy(x, strategy=args.algorithm, s=args.s)
    print(
        f"{args.algorithm}(s={args.s}) over {n:,} {args.dtype} elements: "
        f"{res.time_us:.1f} us, {res.bandwidth_gbps:.1f} GB/s "
        f"({res.bandwidth_gbps / 8:.1f}% of peak), "
        f"{res.gelems_per_s:.1f} GElems/s"
    )
    print(res.trace.summary())
    if args.timeline:
        print()
        print(render_timeline(res.trace, width=args.width))
    return 0


def cmd_experiment(args) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    render = to_markdown if args.markdown else to_text
    chunks = []
    for name in names:
        result = run_experiment(name, quick=not args.full)
        chunks.append(render(result))
        if not args.out:
            print(chunks[-1])
            print()
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n\n".join(chunks) + "\n")
        print(f"wrote {len(names)} experiment table(s) to {args.out}")
    return 0


def cmd_serve_bench(args) -> int:
    import json

    from .serve.bench import format_report, run_serve_bench, serve_bench_json

    report = run_serve_bench(
        n=_parse_size(args.n),
        batch=args.batch,
        row_len=_parse_size(args.row_len),
        dtype=args.dtype,
        repeats=args.repeats,
    )
    text = format_report(report)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"\nwrote report to {args.out}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(serve_bench_json(report), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote machine-readable report to {args.json}")
    return 0


def cmd_tune(args) -> int:
    from .tune import TuneStore, WorkloadKey, format_result, tune_workload

    store = TuneStore.load(args.store, ASCEND_910B4)
    if store.invalidated:
        print(
            f"note: discarding {args.store} "
            f"(older schema or foreign device config)"
        )
    workloads = []
    for text in args.shapes.split(","):
        if text.strip():
            workloads.append(
                WorkloadKey(
                    "1d", _parse_size(text), args.dtype, exclusive=args.exclusive
                )
            )
    for text in args.batched.split(","):
        if text.strip():
            rows, _, row_len = text.strip().upper().partition("X")
            workloads.append(
                WorkloadKey(
                    "batched", _parse_size(row_len), args.dtype, batch=int(rows)
                )
            )
    if not workloads:
        print("nothing to tune: pass --shapes and/or --batched")
        return 1
    say = print if args.verbose else None
    for workload in workloads:
        # a fresh context per workload: an entry must not depend on what
        # was tuned before it (see repro.tune.warmup.warm_tune_store)
        result = tune_workload(
            ScanContext(store.config), workload, store=store, log=say
        )
        print(format_result(result))
    path = store.save(args.store)
    print(f"wrote {len(store)} tuned entr{'y' if len(store) == 1 else 'ies'} to {path}")
    return 0


def cmd_shard(args) -> int:
    from .shard import DevicePool, ShardedScanner
    from .tune import TuneStore

    n = _parse_size(args.n)
    rng = np.random.default_rng(args.seed)
    if args.dtype == "fp16":
        x = (rng.integers(0, 3, n) - 1).astype(np.float16)
    else:
        x = rng.integers(-5, 6, n).astype(np.int8)
    store = None
    tuned = False
    if args.store:
        store = TuneStore.load(args.store, ASCEND_910B4)
        if store.invalidated:
            print(f"note: ignoring {args.store} "
                  f"(older schema or foreign device config)")
            store = None
        else:
            tuned = True
    scanner = ShardedScanner(
        DevicePool(args.devices, tune_store=store), s=args.s, tuned=tuned
    )
    res = scanner.scan(x)
    single = ShardedScanner(
        DevicePool(1, tune_store=store), s=args.s, tuned=tuned
    ).scan(x)
    print(f"sharded mcscan(s={args.s}) over {n:,} {args.dtype} "
          f"elements on {res.num_devices} device(s):")
    for r in res.shards:
        cfg = " tuned" if r.tuned else ""
        if res.folded:
            stages = (f"phase I {r.phase_ns[0] / 1e3:8.1f} us  "
                      f"phase II {r.phase_ns[1] / 1e3:6.1f} us")
        else:
            stages = f"scan {r.scan_ns / 1e3:8.1f} us"
        print(f"  dev{r.device}: [{r.start:>12,}, {r.end:>12,})  {stages}{cfg}")
    stages = "one shard, no carry"
    if res.folded:
        phase1, phase2 = res.phase_stage_ns
        stages = (f"phase I {phase1 / 1e3:.1f} us + phase II "
                  f"{phase2 / 1e3:.1f} us, carry folded into phase II")
    print(f"wall clock  : {res.time_us:.1f} us ({stages})")
    print(f"bandwidth   : {res.bandwidth_gbps:.1f} GB/s on logical bytes")
    print(f"single dev  : {single.time_us:.1f} us -> "
          f"{single.wall_ns / res.wall_ns:.2f}x speedup "
          f"at D={res.num_devices}")
    return 0


def cmd_chaos(args) -> int:
    from .core.reference import exact_fp16_scan_input, inclusive_scan
    from .hw import FaultPlan
    from .serve import RetryPolicy
    from .shard import DevicePool, PoolScanService

    rng = np.random.default_rng(args.seed)
    plans = {}
    for i in range(args.devices):
        plans[i] = FaultPlan(
            seed=args.seed + i,
            transient_rate=args.rate,
            mte_slowdown=args.mte_slowdown if i == 0 else 1.0,
            vec_slowdown=args.vec_slowdown if i == 0 else 1.0,
            die_at_launch=args.kill_at if i == args.kill else None,
        )
    pool = DevicePool(args.devices, fault_plans=plans)
    svc = PoolScanService(
        pool=pool, retry=RetryPolicy(max_attempts=args.attempts)
    )
    sizes = [4096, 8192, 16384, 32768]
    inputs = {}
    for j in range(args.requests):
        x, _e = exact_fp16_scan_input(sizes[j % len(sizes)], rng)
        inputs[svc.submit(x).req_id] = x
    done = svc.flush()
    exact = sum(
        np.array_equal(t.result(), inclusive_scan(inputs[t.req_id]))
        for t in done
    )
    print(svc.summary())
    print(f"served          : {len(done)}/{len(inputs)} requests, "
          f"{exact} bit-identical to the oracle")
    for plan_i, plan in sorted(plans.items()):
        print(f"  dev{plan_i} faults   : {plan.describe()} -> "
              f"{plan.transient_faults} transient over "
              f"{plan.launches} launches"
              f"{', DEAD' if plan.dead else ''}")
    return 0 if exact == len(inputs) else 1


def cmd_traffic(args) -> int:
    from .serve import TrafficSpec
    from .shard import PoolScanService, run_traffic

    sizes = tuple(
        _parse_size(text) for text in args.sizes.split(",") if text.strip()
    )
    rate = args.rate
    if rate is None:
        # calibrate: 1.8x the per-arrival-launch capacity of one member,
        # scaled by the pool size — past naive's knee, moderate for
        # continuous batching
        probe = PoolScanService(1, max_batch=args.max_batch)
        cal = run_traffic(
            probe,
            TrafficSpec(
                name="calibrate", process="poisson", rate_rps=1_000.0,
                requests=32, sizes=sizes, slo_ns=1e12,
            ),
            args.seed, policy="naive",
        )
        mean_solo_ns = sum(probe.busy_ns) / cal.served
        rate = 1.8 * args.devices * 1e9 / mean_solo_ns
        print(f"calibrated offered load: {rate:,.0f} rps "
              f"(mean solo service {mean_solo_ns / 1e3:.1f} us)")
    spec = TrafficSpec(
        name="cli", process=args.process, rate_rps=rate,
        requests=args.requests, sizes=sizes, slo_ns=args.slo_us * 1e3,
    )
    policies = (
        ("continuous", "naive") if args.policy == "both" else (args.policy,)
    )
    reports = {}
    for policy in policies:
        svc = PoolScanService(args.devices, max_batch=args.max_batch)
        reports[policy] = run_traffic(svc, spec, args.seed, policy=policy)
        print()
        print(reports[policy].describe())
        print(svc.summary())
    if len(reports) == 2:
        cont, naive = reports["continuous"], reports["naive"]
        print()
        print(f"continuous vs naive: "
              f"p99 {cont.percentile(0.99) / 1e3:.1f} vs "
              f"{naive.percentile(0.99) / 1e3:.1f} us, goodput "
              f"{cont.goodput_rps / 1e3:.0f}k vs "
              f"{naive.goodput_rps / 1e3:.0f}k rps, deadlines met "
              f"{cont.deadline_met}/{cont.offered} vs "
              f"{naive.deadline_met}/{naive.offered}")
    return 0


def cmd_fuzz(args) -> int:
    import json

    from .verify import (
        WORKLOAD_MATRIX,
        failure_to_json,
        replay_corpus,
        run_fuzz,
        run_seed,
        shrink_trace,
    )

    specs = list(WORKLOAD_MATRIX)
    if args.spec:
        specs = [s for s in specs if s.name == args.spec]
        if not specs:
            print(f"unknown workload {args.spec!r}; known: "
                  f"{', '.join(s.name for s in WORKLOAD_MATRIX)}")
            return 1

    if args.replay is not None:
        spec = specs[0] if args.spec else WORKLOAD_MATRIX[0]
        result = run_seed(spec, args.replay)
        print(f"seed {args.replay} on {spec.describe()}")
        print(f"  {len(result.trace)} decisions, {result.served} requests "
              f"served, {result.flush_faults} flush-level faults")
        if result.ok:
            print("  all invariants held")
            return 0
        for v in result.violations:
            print(f"  {v.describe()}")
        if not args.no_shrink:
            shrunk = shrink_trace(spec, args.replay, result.trace)
            hot = [d for d in shrunk if d.pick]
            print(f"  shrunk to {len(shrunk)} decision(s) "
                  f"({len(hot)} non-canonical):")
            for d in hot:
                print(f"    {d.describe()}")
        return 1

    if args.replay_corpus:
        report = replay_corpus()
        print(report.describe())
        return 0 if report.ok else 1

    def progress(done: int, total: int, nfail: int) -> None:
        if done % 200 == 0 or done == total:
            print(f"  {done}/{total} seeds, {nfail} failure(s)")

    report = run_fuzz(
        specs,
        seeds=args.seeds,
        shrink=not args.no_shrink,
        progress=progress,
    )
    print(report.describe())
    if args.save_failures and report.failures:
        with open(args.save_failures, "w") as f:
            json.dump(
                {"failures": [failure_to_json(x) for x in report.failures]},
                f,
                indent=2,
            )
            f.write("\n")
        print(f"wrote {len(report.failures)} repro bundle(s) to "
              f"{args.save_failures}")
    return 0 if report.ok else 1


def cmd_graph(args) -> int:
    from .graph import llm_sample, oracle_outputs, sort_graph
    from .hw import FaultPlan
    from .serve import RetryPolicy
    from .shard import DevicePool, PoolScanService

    rng = np.random.default_rng(args.seed)
    pool = DevicePool(args.devices)
    svc = PoolScanService(
        pool=pool, retry=RetryPolicy(max_attempts=4), graph_fusion=args.fusion
    )
    if args.rate:
        for m in range(args.devices):
            pool.inject_faults(
                m, FaultPlan(seed=args.seed + m, transient_rate=args.rate)
            )
    # the prep chain gives the fusion pass a region to collapse (shown
    # in the summary's "graph cache" line when --fusion != off)
    prep = () if args.fusion == "off" else ("abs", "double")
    sampling = llm_sample(args.vocab, k=args.k, p=args.p, prep=prep)
    sorting = sort_graph(args.vocab, descending=True)
    jobs = []
    for j in range(args.requests):
        probs = (rng.permutation(args.vocab) + 1).astype(np.float16)
        if j % 3 == 2:
            graph, inputs, params = sorting, {"x": probs}, None
        else:
            graph, inputs = sampling, {"probs": probs}
            params = {"sample": {"theta": float(rng.random())}}
        ticket = svc.submit_graph(graph, inputs, params=params)
        jobs.append((ticket, oracle_outputs(graph, inputs, params)))
    done = svc.flush()
    exact = sum(
        all(np.array_equal(a, b) for a, b in zip(t.result(), want))
        for t, want in jobs
    )
    print(svc.summary())
    print(
        f"served          : {len(done)}/{len(jobs)} graph requests "
        f"({exact} bit-identical to the oracle) across "
        f"{len({t.device for t, _ in jobs})} device(s)"
    )
    return 0 if exact == len(jobs) else 1


def cmd_sort(args) -> int:
    n = _parse_size(args.n)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(n).astype(np.float16)
    ops = AscendOps()
    radix = ops.radix_sort(x, descending=args.descending)
    base = ops.baseline_sort(x, descending=args.descending)
    assert np.array_equal(radix.values, base.values)
    print(f"radix sort : {radix.time_ms:8.2f} ms ({radix.kernel_launches} launches)")
    print(f"torch.sort : {base.time_ms:8.2f} ms")
    print(f"speedup    : {base.time_ns / radix.time_ns:.2f}x "
          f"(paper: 1.3x-3.3x above ~525K elements)")
    return 0


def cmd_compress(args) -> int:
    n = _parse_size(args.n)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(n).astype(np.float16)
    mask = (rng.random(n) < args.density).astype(np.int8)
    ops = AscendOps()
    fast = ops.compress(x, mask, s=args.s)
    print(f"compress        : {fast.time_us:10.1f} us, "
          f"{fast.bandwidth_gbps:.1f} GB/s")
    if not args.skip_baseline:
        base = ops.masked_select_baseline(x, mask)
        print(f"masked_select   : {base.time_us:10.1f} us, "
              f"{base.bandwidth_gbps:.3f} GB/s "
              f"({base.time_ns / fast.time_ns:,.0f}x slower)")
    return 0


def cmd_topp(args) -> int:
    n = _parse_size(args.n)
    rng = np.random.default_rng(args.seed)
    logits = rng.standard_normal(n).astype(np.float32) * 3
    probs = np.exp(logits - logits.max())
    probs = (probs / probs.sum()).astype(np.float16)
    sampler = TopPSampler(AscendOps(), s=args.s)
    for backend in ("cube", "baseline"):
        res = sampler.sample(probs, args.p, theta=args.theta, backend=backend)
        print(f"{backend:8s}: token {int(res.values[0]):8d}  "
              f"nucleus {res.extras['nucleus_size']:6d}  "
              f"{res.time_ms:8.3f} ms  ({res.kernel_launches} launches)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Parallel scan on a simulated Ascend 910B4 "
        "(reproduction of Wroblewski et al., IPPS 2025)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the device configuration").set_defaults(
        fn=cmd_info
    )

    ps = sub.add_parser("scan", help="run one scan algorithm")
    ps.add_argument("--algorithm", default="mcscan",
                    choices=sorted(set(SCAN_ALGORITHMS) | set(SCAN_STRATEGIES)))
    ps.add_argument("-n", default="1M", help="input length (accepts K/M/G)")
    ps.add_argument("--s", type=int, default=128, choices=(16, 32, 64, 128))
    ps.add_argument("--dtype", default="fp16", choices=("fp16", "int8"))
    ps.add_argument("--exclusive", action="store_true")
    ps.add_argument("--timeline", action="store_true",
                    help="render an ASCII timeline of the launch")
    ps.add_argument("--width", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(fn=cmd_scan)

    pe = sub.add_parser("experiment", help="regenerate a paper figure")
    pe.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    pe.add_argument("--full", action="store_true",
                    help="full sweeps (slower) instead of quick mode")
    pe.add_argument("--markdown", action="store_true")
    pe.add_argument("--out", help="write the table(s) to a file")
    pe.set_defaults(fn=cmd_experiment)

    pv = sub.add_parser(
        "serve-bench", help="benchmark the plan-cached serving layer"
    )
    pv.add_argument("-n", default="1M", help="1-D request length (K/M/G)")
    pv.add_argument("--batch", type=int, default=16,
                    help="requests coalesced per batched launch")
    pv.add_argument("--row-len", default="64K",
                    help="row length of batched requests (K/M/G)")
    pv.add_argument("--dtype", default="fp16", choices=("fp16", "int8"))
    pv.add_argument("--repeats", type=int, default=3,
                    help="best-of repeats for host timings")
    pv.add_argument("--out", help="also write the report to a file")
    pv.add_argument("--json", help="also write a machine-readable JSON report")
    pv.set_defaults(fn=cmd_serve_bench)

    pu = sub.add_parser(
        "tune", help="autotune plan configs into a persistent store"
    )
    pu.add_argument("--store", default="tuned_plans.json",
                    help="path of the tuned-plan store (JSON)")
    pu.add_argument("--shapes", default="64K,1M",
                    help="comma-separated 1-D lengths to tune (K/M/G)")
    pu.add_argument("--batched", default="",
                    help="comma-separated BxL batched shapes, e.g. 8x8K,64x1K")
    pu.add_argument("--dtype", default="fp16", choices=("fp16", "int8"))
    pu.add_argument("--exclusive", action="store_true",
                    help="tune exclusive scans (MCScan only)")
    pu.add_argument("--verbose", action="store_true",
                    help="print every traced candidate")
    pu.set_defaults(fn=cmd_tune)

    ph = sub.add_parser(
        "shard", help="shard one 1-D scan across a device pool"
    )
    ph.add_argument("-n", default="4M", help="input length (accepts K/M/G)")
    ph.add_argument("--devices", type=int, default=4,
                    help="pool size D (shards run concurrently)")
    ph.add_argument("--s", type=int, default=128, choices=(16, 32, 64, 128))
    ph.add_argument("--dtype", default="fp16", choices=("fp16", "int8"))
    ph.add_argument("--store",
                    help="tuned-plan store consulted for every shard plan")
    ph.add_argument("--seed", type=int, default=0)
    ph.set_defaults(fn=cmd_shard)

    px = sub.add_parser(
        "chaos", help="fault-injected pool serving with retry/failover"
    )
    px.add_argument("--devices", type=int, default=3,
                    help="pool size D (one member may be killed)")
    px.add_argument("--requests", type=int, default=24,
                    help="number of mixed-shape requests to submit")
    px.add_argument("--rate", type=float, default=0.2,
                    help="per-launch transient fault probability")
    px.add_argument("--mte-slowdown", type=float, default=1.0,
                    help="MTE slowdown factor injected on dev0 (>= 1.0)")
    px.add_argument("--vec-slowdown", type=float, default=1.0,
                    help="vector slowdown factor injected on dev0 (>= 1.0)")
    px.add_argument("--kill", type=int, default=None,
                    help="member index to lose permanently (default: none)")
    px.add_argument("--kill-at", type=int, default=2,
                    help="launch index at which --kill member dies")
    px.add_argument("--attempts", type=int, default=4,
                    help="retry policy: total launch attempts per group")
    px.add_argument("--seed", type=int, default=0)
    px.set_defaults(fn=cmd_chaos)

    pw = sub.add_parser(
        "traffic", help="open-loop traffic serving with continuous batching"
    )
    pw.add_argument("--devices", type=int, default=2,
                    help="pool size D the stream is served across")
    pw.add_argument("--requests", type=int, default=200,
                    help="arrivals in the generated stream")
    pw.add_argument("--rate", type=float, default=None,
                    help="offered load in requests per simulated second "
                    "(default: calibrate to 1.8x the naive per-arrival-"
                    "launch capacity of the pool)")
    pw.add_argument("--process", default="poisson",
                    choices=("poisson", "bursty", "diurnal"),
                    help="arrival process of the generated stream")
    pw.add_argument("--slo-us", type=float, default=100.0,
                    help="per-request completion deadline (microseconds "
                    "after arrival)")
    pw.add_argument("--sizes", default="16K,64K",
                    help="comma-separated request lengths (K/M/G)")
    pw.add_argument("--policy", default="both",
                    choices=("both", "continuous", "naive"),
                    help="continuous batching, one-launch-per-arrival, "
                    "or a side-by-side comparison")
    pw.add_argument("--max-batch", type=int, default=8,
                    help="bucket capacity of the continuous batcher")
    pw.add_argument("--seed", type=int, default=0)
    pw.set_defaults(fn=cmd_traffic)

    pf = sub.add_parser(
        "fuzz", help="seeded schedule fuzzing of the serving stack"
    )
    pf.add_argument("--seeds", type=int, default=1000,
                    help="number of fuzz seeds (round-robin over the "
                    "workload matrix)")
    pf.add_argument("--spec", default=None,
                    help="fuzz only this workload (by name)")
    pf.add_argument("--replay", type=int, default=None, metavar="SEED",
                    help="replay one seed verbosely (with --spec to pick "
                    "its workload) and shrink it if it fails")
    pf.add_argument("--replay-corpus", action="store_true",
                    help="re-run only the pinned seed corpus")
    pf.add_argument("--no-shrink", action="store_true",
                    help="skip trace shrinking on failures")
    pf.add_argument("--save-failures", metavar="PATH",
                    help="write failing seeds + traces as JSON repro bundles")
    pf.set_defaults(fn=cmd_fuzz)

    pg = sub.add_parser(
        "graph", help="serve operator graphs through the pool"
    )
    pg.add_argument("--devices", type=int, default=2,
                    help="pool size D for the demo run")
    pg.add_argument("--requests", type=int, default=9,
                    help="mixed llm_sample/sort graph requests to submit")
    pg.add_argument("--vocab", type=int, default=512,
                    help="vocabulary size of the sampling graphs")
    pg.add_argument("--k", type=int, default=32,
                    help="top-k width of the llm_sample graph")
    pg.add_argument("--p", type=float, default=0.9,
                    help="nucleus mass of the llm_sample graph")
    pg.add_argument("--rate", type=float, default=0.0,
                    help="per-launch transient fault probability")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--fusion", default="conservative",
                    choices=FUSION_MODES,
                    help="graph-fusion mode: collapse map chains (and, "
                    "aggressively, pre->scan->post regions) into one "
                    "captured program per region")
    pg.set_defaults(fn=cmd_graph)

    po = sub.add_parser("sort", help="radix sort vs torch.sort")
    po.add_argument("-n", default="1M")
    po.add_argument("--descending", action="store_true")
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(fn=cmd_sort)

    pc = sub.add_parser("compress", help="compress vs masked_select")
    pc.add_argument("-n", default="512K")
    pc.add_argument("--density", type=float, default=0.5)
    pc.add_argument("--s", type=int, default=128, choices=(16, 32, 64, 128))
    pc.add_argument("--skip-baseline", action="store_true")
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(fn=cmd_compress)

    pt = sub.add_parser("topp", help="top-p sampling, cube vs baseline")
    pt.add_argument("-n", default="32K")
    pt.add_argument("--p", type=float, default=0.9)
    pt.add_argument("--theta", type=float, default=0.5)
    pt.add_argument("--s", type=int, default=128, choices=(32, 64, 128))
    pt.add_argument("--seed", type=int, default=0)
    pt.set_defaults(fn=cmd_topp)

    return p


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
