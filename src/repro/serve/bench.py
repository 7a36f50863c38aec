"""Serve-layer benchmark scenarios (shared by ``repro serve-bench`` and
``benchmarks/bench_serve.py``).

Two claims are measured:

* **plan-cache latency** — host wall time of a cache-hit execution vs the
  cold path a first request to a shape class pays (plan build, i.e. the
  full Python-level kernel trace plus validation, then execute).  The hit
  path skips emission, which dominates, so the speedup is large (the
  acceptance bar is >= 5x on ScanUL1, the most emission-heavy kernel).
  The one-shot ``ScanContext.scan`` latency is reported alongside for
  reference — it is the trace-every-call regime the cache replaces;
* **batched-submission throughput** — simulated device throughput of N
  same-shape requests submitted individually through the service (which
  coalesces them into one batched launch) vs calling the batched kernel
  directly on the same 2-D block.  When the batch fills its bucket the
  service issues the identical DAG, so the two agree to within noise; the
  acceptance bar is 10%;
* **replay engines** — host wall time of re-scheduling one cached plan
  with the discrete-event scheduler (:func:`~repro.hw.scheduler.simulate`,
  the per-execute cost without timeline memoization) vs serving the
  memoized timeline.  The two timelines are asserted equal; the
  acceptance bar is a >= 5x wall-clock win of the memoized path.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.api import ScanContext
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..hw.scheduler import simulate
from .plan import PlanCache
from .service import ScanService
from .stats import render

__all__ = [
    "bench_plan_cache",
    "bench_batched_throughput",
    "bench_replay_engines",
    "bench_graph_cache",
    "run_serve_bench",
    "format_report",
    "serve_bench_json",
]


def _bench_input(n: int, dtype: str, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(0xBE7C4 + seed)
    if dtype == "fp16":
        return (rng.integers(0, 3, n) - 1).astype(np.float16)
    return rng.integers(-2, 3, n).astype(np.int8)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_plan_cache(
    *,
    algorithm: str = "scanul1",
    n: int = 1 << 20,
    dtype: str = "fp16",
    s: int = 128,
    repeats: int = 3,
    config: DeviceConfig = ASCEND_910B4,
    ctx: "ScanContext | None" = None,
) -> dict:
    """Cold (cache-miss) vs cache-hit host latency for one shape class."""
    ctx = ctx if ctx is not None else ScanContext(config)
    x = _bench_input(n, dtype)

    oneshot_s = _best_of(lambda: ctx.scan(x, algorithm=algorithm, s=s), repeats)

    cache = PlanCache(ctx)
    t0 = time.perf_counter()
    plan = cache.get_1d(cache.key_1d(algorithm, n, dtype, s=s))
    result = plan.execute(x)
    cold_s = time.perf_counter() - t0  # what the first request pays
    hit_s = _best_of(lambda: plan.execute(x), repeats)

    return {
        "algorithm": algorithm,
        "n": n,
        "dtype": dtype,
        "s": s,
        "cold_host_s": cold_s,
        "oneshot_host_s": oneshot_s,
        "build_host_s": plan.build_host_s,
        "hit_host_s": hit_s,
        "speedup": cold_s / hit_s if hit_s > 0 else float("inf"),
        "validated": plan.validated,
        "device_us": result.trace.total_ns / 1e3,
    }


def bench_batched_throughput(
    *,
    algorithm: str = "scanu",
    batch: int = 16,
    row_len: int = 1 << 16,
    dtype: str = "fp16",
    s: int = 128,
    config: DeviceConfig = ASCEND_910B4,
    ctx: "ScanContext | None" = None,
) -> dict:
    """Service-coalesced submission vs a direct batched-kernel call."""
    ctx = ctx if ctx is not None else ScanContext(config)
    block = _bench_input(batch * row_len, dtype).reshape(batch, row_len)

    direct = ctx.batched_scan(block, algorithm=algorithm, s=s)
    direct_gelems = direct.n_elements / direct.trace.total_ns

    service = ScanService(ctx, max_batch=batch)
    tickets = [
        service.submit(block[i], algorithm=algorithm, s=s)
        for i in range(batch)
    ]
    service.flush()
    launches = {t.device_ns for t in tickets}
    assert len(launches) == 1, "expected one coalesced launch"
    service_ns = launches.pop()
    service_gelems = sum(t.n for t in tickets) / service_ns

    for i, t in enumerate(tickets):
        np.testing.assert_array_equal(t.result(), direct.values[i])

    return {
        "algorithm": algorithm,
        "batch": batch,
        "row_len": row_len,
        "dtype": dtype,
        "s": s,
        "direct_gelems": direct_gelems,
        "service_gelems": service_gelems,
        "throughput_ratio": service_gelems / direct_gelems,
        "coalesced": all(t.batched for t in tickets),
        "service_summary": service.summary(),
    }


def bench_replay_engines(
    *,
    algorithm: str = "scanul1",
    n: int = 1 << 20,
    dtype: str = "fp16",
    s: int = 128,
    repeats: int = 5,
    config: DeviceConfig = ASCEND_910B4,
    ctx: "ScanContext | None" = None,
) -> dict:
    """Replay-path wall clock for one plan: DES vs memoized.

    The replay timings isolate the scheduling cost (what timeline
    memoization removes); the execute timings show the same two paths
    end-to-end, where the functional NumPy computation is a shared floor.
    The memoized timeline is asserted equal to a fresh DES run.
    """
    ctx = ctx if ctx is not None else ScanContext(config)
    cache = PlanCache(ctx)
    plan = cache.get_1d(cache.key_1d(algorithm, n, dtype, s=s))
    traced = plan.traced
    device = ctx.device
    x = _bench_input(n, dtype)

    trace = device.replay(traced)
    assert trace.timeline == simulate(traced.program, ctx.config), (
        f"{algorithm}: memoized timeline differs from a fresh DES run"
    )

    def execute_des():
        plan.compute(x)
        simulate(traced.program, ctx.config)

    replay_des_s = _best_of(lambda: simulate(traced.program, ctx.config), repeats)
    replay_cached_s = _best_of(lambda: device.replay(traced), repeats)
    execute_des_s = _best_of(execute_des, repeats)
    execute_cached_s = _best_of(lambda: plan.execute(x), repeats)

    return {
        "algorithm": algorithm,
        "n": n,
        "dtype": dtype,
        "s": s,
        "ops": len(traced.program),
        "replay_des_s": replay_des_s,
        "replay_cached_s": replay_cached_s,
        "replay_cached_speedup": replay_des_s / replay_cached_s
        if replay_cached_s > 0
        else float("inf"),
        "execute_des_s": execute_des_s,
        "execute_cached_s": execute_cached_s,
        "execute_speedup": execute_des_s / execute_cached_s
        if execute_cached_s > 0
        else float("inf"),
        "timelines_identical": True,  # the assert above raised otherwise
        "device_us": trace.total_ns / 1e3,
    }


def bench_graph_cache(
    *,
    requests: int = 6,
    vocab: int = 96,
    fusion: str = "aggressive",
    config: DeviceConfig = ASCEND_910B4,
) -> dict:
    """Graph-serving slice: fused-region lowering through the service,
    reporting the GraphPlanCache counters (lowered/fused/hits/misses) from
    the service snapshot."""
    from ..graph import llm_sample, scan_pipeline

    service = ScanService(config=config, graph_fusion=fusion)
    rng = np.random.default_rng(0xBE7C4)
    sample = llm_sample(vocab, k=8, p=0.75, s=16, prep=("abs", "double"))
    pipe = scan_pipeline(256, pre=("abs",), post=("double",), s=16)
    for j in range(requests):
        if j % 2:
            service.submit_graph(
                pipe, {"x": rng.integers(-2, 3, 256).astype(np.float16)}
            )
        else:
            probs = (rng.permutation(vocab) + 1).astype(np.float16)
            service.submit_graph(sample, {"probs": probs})
    service.flush()
    stats = service.snapshot()["graph_cache"]
    return {
        "fusion": fusion,
        "requests": requests,
        "lowered": stats["lowered"],
        "fused_regions": stats["fused"],
        "hits": stats["hits"],
        "misses": stats["misses"],
        "replays": stats["replays"],
        "summary_line": render({"graph_cache": stats}),
    }


def run_serve_bench(
    *,
    n: int = 1 << 20,
    batch: int = 16,
    row_len: int = 1 << 16,
    dtype: str = "fp16",
    repeats: int = 3,
    config: DeviceConfig = ASCEND_910B4,
) -> dict:
    """Full serve-layer benchmark: plan cache per algorithm + batching."""
    ctx = ScanContext(config)

    def servable(*algorithms):
        # the plan cache refuses scanul1 on int8 (its C1 staging wraps)
        return [a for a in algorithms if not (a == "scanul1" and dtype == "int8")]

    plan_rows = [
        bench_plan_cache(
            algorithm=a, n=n, dtype=dtype, repeats=repeats, ctx=ctx
        )
        for a in servable("scanu", "scanul1", "mcscan", "vector")
    ]
    batched_rows = [
        bench_batched_throughput(
            algorithm=a, batch=batch, row_len=row_len, dtype=dtype, ctx=ctx
        )
        for a in servable("scanu", "scanul1")
    ]
    replay_rows = [
        bench_replay_engines(
            algorithm=a, n=n, dtype=dtype, repeats=repeats, ctx=ctx
        )
        for a in servable("scanu", "scanul1", "mcscan")
    ]
    return {
        "n": n,
        "dtype": dtype,
        "config": config.name,
        "plan_cache": plan_rows,
        "batched": batched_rows,
        "replay_engines": replay_rows,
        "graph_cache": bench_graph_cache(config=config),
    }


def format_report(report: dict) -> str:
    """Human-readable table of a :func:`run_serve_bench` result."""
    lines = [
        f"serve-bench: plan cache + request batching "
        f"(n={report['n']:,}, {report['dtype']})",
        "",
        "plan cache: host latency, cold (build+execute) vs cache hit",
        f"{'algorithm':>10} {'cold':>10} {'hit':>10} {'speedup':>8} "
        f"{'one-shot':>10} {'device':>10}",
    ]
    for r in report["plan_cache"]:
        lines.append(
            f"{r['algorithm']:>10} {r['cold_host_s'] * 1e3:8.1f}ms "
            f"{r['hit_host_s'] * 1e3:8.1f}ms {r['speedup']:7.1f}x "
            f"{r['oneshot_host_s'] * 1e3:8.1f}ms {r['device_us']:8.1f}us"
        )
    lines += [
        "",
        "batched submission: simulated throughput, service vs direct kernel",
        f"{'algorithm':>10} {'batch':>6} {'direct':>12} {'service':>12} "
        f"{'ratio':>7}",
    ]
    for r in report["batched"]:
        lines.append(
            f"{r['algorithm']:>10} {r['batch']:>6} "
            f"{r['direct_gelems']:8.1f} GE/s {r['service_gelems']:8.1f} GE/s "
            f"{r['throughput_ratio']:6.3f}"
        )
    if report.get("replay_engines"):
        lines += [
            "",
            "replay engines: scheduling wall time per execute "
            "(memoized timeline equal to a fresh DES run)",
            f"{'algorithm':>10} {'ops':>5} {'DES':>10} "
            f"{'memoized':>10} {'DES/cached':>10}",
        ]
        for r in report["replay_engines"]:
            lines.append(
                f"{r['algorithm']:>10} {r['ops']:>5} "
                f"{r['replay_des_s'] * 1e3:8.2f}ms "
                f"{r['replay_cached_s'] * 1e3:8.2f}ms "
                f"{r['replay_cached_speedup']:9.1f}x"
            )
    if report.get("graph_cache"):
        g = report["graph_cache"]
        lines += [
            "",
            f"graph serving ({g['requests']} requests, "
            f"fusion={g['fusion']}):",
            f"  {g['summary_line']}",
        ]
    return "\n".join(lines)


def serve_bench_json(report: dict) -> dict:
    """JSON-serializable form of a :func:`run_serve_bench` report.

    The report dicts are already plain scalars/strings; this adds a schema
    tag so ``BENCH_serve.json`` files stay comparable across PRs.
    """
    return {"schema": 1, "benchmark": "serve", **report}
