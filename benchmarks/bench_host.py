"""Host-path raw speed: vectorized group numerics, warm-up, sort order,
pool curve.

Asserts the serial host-path performance model (DESIGN 2.11):

* **vectorized group numerics** — one stacked NumPy pass over a 64 x 8K
  fp16 batch (``group_scan_values``, what the service runs per launch
  group) beats 64 per-request ``scan_into`` calls on the same rows by
  >= 1.2x.
* **serve-mix warm-up win** — a warmed service (plans prebuilt, store
  tuned) serves the steady-state mix >= 3x faster than a cold service
  that pays its plan builds inline, with zero inline builds, and its
  first pass runs no discrete-event schedule (warm-up primed every
  plan's timeline).  Plan
  tracing dominates the cold path, so this bar holds at any core count.
* **radix-keyed sort order** — ``stable_order`` (the served sort oracles'
  order) beats the widened-key argsort it replaced by >= 3x on a
  4,096-element fp16 row, ascending and descending, best of repeats.
* **exact BLAS int8 Mmad** — one 128 x 128 x 128 int8 ``Mmad`` (the
  intrinsic, op emission included) beats the int32 matmul formula it
  replaced by >= 10x, best of repeats, with equal int32 results.
* **cold shard-plan build** — a cold D=2 ``ShardedScanner`` scan of a 1M
  int8 array, recorded with the warm re-scan of the same array.  Both
  shards share one plan key, so the pool traces once: member 0 traces
  and member 1 mirrors that trace (2 plans built, 1 traced program), and
  the mirror builds >= 5x faster than the trace.
* **in-place sharded numerics** — a warm D=2 ``ShardedScanner`` scan of a
  4M fp16 array (each shard scanned straight into its output slice),
  recorded (not asserted) with host ms and minor page faults per call
  next to the allocate-and-copy numerics it replaced, on the same shards.
* **pool host curve** — PoolScanService flush wall-clock vs member count
  D in {1, 2, 4, 8}, recorded (not asserted) as the scaling curve.

Results (including ``host_cpus``) are committed to
``results/BENCH_host.json``.
"""

import os
import resource
import time

import numpy as np

from bench_util import write_bench_json

import repro.hw.device as device_mod
from repro.hw.config import ASCEND_910B4, toy_config
from repro.hw.datatypes import FP16
from repro.hw.device import AscendDevice
from repro.lang import Kernel, intrinsics as I
from repro.lang.tensor import BufferKind
from repro.serve import ScanService, group_scan_values
from repro.shard import DevicePool, PoolScanService, ShardedScanner
from repro.core.reference import inclusive_scan, stable_order
from repro.core.replay import scan_into
from repro.tune import WorkloadKey, warm_service

HOST_CPUS = os.cpu_count() or 1

BATCH = 64
ROW_LEN = 8192


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rows(batch: int = BATCH, row_len: int = ROW_LEN) -> "list[np.ndarray]":
    rng = np.random.default_rng(17)
    return [
        (rng.integers(-2, 3, row_len)).astype(np.float16) for _ in range(batch)
    ]


def bench_vectorized_numerics() -> dict:
    """64 per-request ``scan_into`` calls vs one stacked pass.

    Both sides time the same numerics on the same 64 x 8K fp16 rows: the
    per-request loop scans each row into its own fp32 output, one
    ``scan_into`` call per row, as a launch of one request does; the
    stacked side is ``group_scan_values``, the one pass the service runs
    per launch group (one fp32 batch, one row-wise ``np.cumsum``).  No
    replay, plan lookup or batcher is timed on either side.
    """
    xs = _rows()

    def per_request():
        return [scan_into(np.empty(x.size, np.float32), [x]) for x in xs]

    def stacked():
        return group_scan_values(xs, algorithm="scanu", in_dtype=FP16)[0]

    for a, b in zip(per_request(), stacked()):  # warm, and the same bits
        assert a.tobytes() == b.tobytes()
    per_request_s = _best_of(per_request, repeats=7)
    seconds = _best_of(stacked, repeats=7)
    return {
        "per_request_ms": per_request_s * 1e3,
        "vectorized_ms": seconds * 1e3,
        "speedup": per_request_s / seconds,
        "batch": BATCH,
        "row_len": ROW_LEN,
    }


_MIX_WORKLOADS = [
    WorkloadKey("1d", 8192, "fp16"),
    WorkloadKey("1d", 16384, "fp16"),
    WorkloadKey("1d", 4096, "int8"),
]


def _serve_mix(svc) -> None:
    rng = np.random.default_rng(23)
    for workload in _MIX_WORKLOADS:
        for _ in range(8):
            if workload.dtype == "fp16":
                x = (rng.integers(-2, 3, workload.n)).astype(np.float16)
            else:
                x = rng.integers(-20, 21, workload.n).astype(np.int8)
            svc.submit(x)
    svc.flush()


def bench_serve_mix_warmup() -> dict:
    """Cold service (inline plan builds) vs warmed service, same mix."""
    t0 = time.perf_counter()
    cold = ScanService(config=ASCEND_910B4, max_batch=8)
    _serve_mix(cold)
    cold_s = time.perf_counter() - t0
    cold_builds = cold.cache.misses

    warm = ScanService(config=ASCEND_910B4, max_batch=8)
    built = warm_service(warm, _MIX_WORKLOADS, buckets=(8,))
    # steady state from the first request: warm-up also scheduled every
    # plan's timeline, so the first pass runs no discrete-event schedule
    schedules = []
    simulate = device_mod.simulate

    def counting(program, config, **kw):
        schedules.append(program)
        return simulate(program, config, **kw)

    device_mod.simulate = counting
    try:
        _serve_mix(warm)
    finally:
        device_mod.simulate = simulate
    warm_s = _best_of(lambda: _serve_mix(warm))
    inline_builds = warm.cache.misses - built

    return {
        "mix_requests": 8 * len(_MIX_WORKLOADS),
        "cold_ms": cold_s * 1e3,
        "cold_plan_builds": cold_builds,
        "warmed_ms": warm_s * 1e3,
        "warmed_inline_builds": inline_builds,
        "warmed_schedules": len(schedules),
        "speedup": cold_s / warm_s,
    }


def bench_pool_scaling() -> dict:
    """Pool flush wall-clock vs member count."""
    rng = np.random.default_rng(31)
    fp16 = [
        (rng.integers(-2, 3, 32768)).astype(np.float16) for _ in range(24)
    ]
    int8 = [rng.integers(-20, 21, 16384).astype(np.int8) for _ in range(12)]

    def mix(svc):
        for x in fp16:
            svc.submit(x)
        for x in int8:
            svc.submit(x, algorithm="scanu", s=16)
        svc.flush()

    def warm_to_steady_state(svc):
        # least-loaded routing re-partitions the mix as busy_ns accrues, so
        # members keep meeting new bucket sizes; repeat until no member
        # pays an inline plan build (the caches cover every partition seen)
        for _ in range(12):
            before = [w.cache.misses for w in svc.workers]
            mix(svc)
            if [w.cache.misses for w in svc.workers] == before:
                return

    curve = []
    for devices in (1, 2, 4, 8):
        svc = PoolScanService(devices, config=toy_config())
        warm_to_steady_state(svc)
        curve.append(
            {"devices": devices, "ms": _best_of(lambda: mix(svc)) * 1e3}
        )
    return {"curve": curve}


SORT_N = 4096
SORT_CALLS = 100


def _widened_order(x: np.ndarray, *, descending: bool) -> np.ndarray:
    """The order ``stable_order`` replaced: fp16 keys widened to fp32,
    negated for descending, sorted by NumPy's stable timsort."""
    keys = x.astype(np.float32)
    return np.argsort(-keys if descending else keys, kind="stable")


def bench_sort_order() -> dict:
    """``stable_order`` vs the widened-key argsort, per call, on one
    normally distributed fp16 row (both sides checked equal first, which
    also builds the rank tables outside the timed loops)."""
    x = np.random.default_rng(37).standard_normal(SORT_N).astype(np.float16)
    report = {"n": SORT_N}
    for descending in (False, True):
        assert np.array_equal(
            stable_order(x, descending=descending),
            _widened_order(x, descending=descending),
        )

        def per_call(fn) -> float:
            def loop():
                for _ in range(SORT_CALLS):
                    fn(x, descending=descending)

            return _best_of(loop, repeats=5) / SORT_CALLS

        widened_s = per_call(_widened_order)
        ranked_s = per_call(stable_order)
        report["descending" if descending else "ascending"] = {
            "widened_us": widened_s * 1e6,
            "stable_order_us": ranked_s * 1e6,
            "speedup": widened_s / ranked_s,
        }
    return report


MMAD_DIM = 128
MMAD_REPEATS = 20


def _int32_mmad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int8 ``Mmad`` formula the float64 path replaced: an int32
    matmul, which NumPy runs without BLAS."""
    return a.astype(np.int32) @ b.astype(np.int32)


def bench_mmad() -> dict:
    """The int8 ``mmad`` intrinsic vs the int32 formula, per 128^3 tile."""
    rng = np.random.default_rng(41)
    d = MMAD_DIM
    a_np = rng.integers(-128, 128, (d, d)).astype(np.int8)
    b_np = rng.integers(-128, 128, (d, d)).astype(np.int8)
    out = {}

    class MmadKernel(Kernel):
        mode = "mix"

        def run(self, ctx):
            cpipe = ctx.make_pipe(ctx.require_cube())
            bufs = [
                cpipe.init_buffer(buffer=kind, depth=1, slot_bytes=d * d * size)
                for kind, size in (
                    (BufferKind.L0A, 1), (BufferKind.L0B, 1), (BufferKind.L0C, 4)
                )
            ]
            a = bufs[0].alloc_tensor("int8", d * d)
            b = bufs[1].alloc_tensor("int8", d * d)
            c = bufs[2].alloc_tensor("int32", d * d)
            a.array[:] = a_np.reshape(-1)
            b.array[:] = b_np.reshape(-1)
            out["mmad_s"] = _best_of(
                lambda: I.mmad(ctx, c, a, b, d, d, d), repeats=MMAD_REPEATS
            )
            out["c"] = c.array.reshape(d, d).copy()

    AscendDevice(ASCEND_910B4).trace_kernel(MmadKernel(1))
    assert np.array_equal(out["c"], _int32_mmad(a_np, b_np))
    int32_s = _best_of(lambda: _int32_mmad(a_np, b_np), repeats=MMAD_REPEATS)
    return {
        "shape": [d, d, d],
        "int32_us": int32_s * 1e6,
        "mmad_us": out["mmad_s"] * 1e6,
        "speedup": int32_s / out["mmad_s"],
    }


COLD_N = 1 << 20


def bench_cold_build() -> dict:
    """Cold D=2 sharded int8 scan (plans traced inline) vs a warm re-scan."""
    x = np.random.default_rng(43).integers(-128, 128, COLD_N).astype(np.int8)
    t0 = time.perf_counter()
    scanner = ShardedScanner(DevicePool(2), algorithm="mcscan")
    result = scanner.scan(x)
    cold_s = time.perf_counter() - t0
    assert np.array_equal(result.values, inclusive_scan(x))
    warm_s = _best_of(lambda: scanner.scan(x))
    # one shard plan per member, in member order
    traced, mirror = [plans[0] for _, plans in sorted(scanner._plans.items())]
    return {
        "n": COLD_N,
        "devices": 2,
        "plans_built": scanner.plans_built,
        "traces": len({id(traced.traced), id(mirror.traced)}),
        "cold_ms": cold_s * 1e3,
        "trace_ms": traced.build_host_s * 1e3,
        "mirror_ms": mirror.build_host_s * 1e3,
        "mirror_speedup": traced.build_host_s / mirror.build_host_s,
        "warm_ms": warm_s * 1e3,
    }


SHARD_N = 4 << 20
SHARD_CALLS = 5


def _copying_numerics(x, ranges, padded) -> np.ndarray:
    """The sharded numerics the in-place scan replaced: each shard's local
    scan is a buffered fp16 -> fp32 ``np.cumsum`` of a zero-padded copy,
    then copied into a fresh output with its carry added."""
    local = []
    for (start, end), pad in zip(ranges, padded):
        xp = np.zeros(pad, dtype=x.dtype)
        xp[: end - start] = x[start:end]
        local.append(np.cumsum(xp, dtype=np.float32)[: end - start])
    carries = np.cumsum([v[-1] for v in local[:-1]], dtype=np.float32)
    values = np.empty(x.size, dtype=np.float32)
    values[: ranges[0][1]] = local[0]
    for (start, end), v, carry in zip(ranges[1:], local[1:], carries):
        np.add(v, carry, out=values[start:end])
    return values


def _host_cost(fn) -> "tuple[float, float]":
    """(best ms, mean minor page faults) per call over ``SHARD_CALLS``."""
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(SHARD_CALLS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best * 1e3, faults / SHARD_CALLS


def bench_sharded_numerics() -> dict:
    """Warm D=2 4M fp16 sharded scan vs the replaced copying numerics.

    The copying side runs the numerics alone (no phase replays), so the
    comparison flatters it; both sides are checked bit-identical first."""
    x = np.random.default_rng(47).standard_normal(SHARD_N).astype(np.float16)
    scanner = ShardedScanner(DevicePool(2), algorithm="mcscan")
    result = scanner.scan(x)  # builds the shard plans
    ranges = [(r.start, r.end) for r in result.shards]
    padded = [r.padded for r in result.shards]
    copying = _copying_numerics(x, ranges, padded)
    assert copying.tobytes() == result.values.tobytes()
    del result, copying
    in_place_ms, in_place_faults = _host_cost(lambda: scanner.scan(x))
    copying_ms, copying_faults = _host_cost(
        lambda: _copying_numerics(x, ranges, padded)
    )
    return {
        "n": SHARD_N,
        "devices": 2,
        "in_place_ms": in_place_ms,
        "in_place_minor_faults": in_place_faults,
        "copying_ms": copying_ms,
        "copying_minor_faults": copying_faults,
    }


def test_host_path(benchmark, results_dir):
    def run_all():
        return {
            "vectorized": bench_vectorized_numerics(),
            "serve_mix": bench_serve_mix_warmup(),
            "sort_order": bench_sort_order(),
            "mmad": bench_mmad(),
            "cold_build": bench_cold_build(),
            "sharded_numerics": bench_sharded_numerics(),
            "pool": bench_pool_scaling(),
        }

    report = benchmark.pedantic(run_all, iterations=1, rounds=1)
    report["host_cpus"] = HOST_CPUS

    vec = report["vectorized"]
    mix = report["serve_mix"]
    order = report["sort_order"]
    mmad = report["mmad"]
    cold = report["cold_build"]
    shard = report["sharded_numerics"]
    pool = report["pool"]

    lines = [
        f"host-path bench ({HOST_CPUS} CPU(s))",
        "",
        f"vectorized numerics ({vec['batch']} x {vec['row_len']} fp16):",
        f"  per-request scan_into    : {vec['per_request_ms']:8.2f} ms",
        f"  one stacked pass         : {vec['vectorized_ms']:8.2f} ms "
        f"({vec['speedup']:.2f}x)",
        "",
        f"serve mix, cold vs warmed ({mix['mix_requests']} requests):",
        f"  cold (inline builds x{mix['cold_plan_builds']}) : "
        f"{mix['cold_ms']:8.1f} ms",
        f"  warmed (inline builds x{mix['warmed_inline_builds']}, "
        f"schedules x{mix['warmed_schedules']}) : "
        f"{mix['warmed_ms']:8.1f} ms ({mix['speedup']:.1f}x)",
        "",
        f"sort order ({order['n']} fp16 keys, per call):",
    ]
    for direction in ("ascending", "descending"):
        row = order[direction]
        lines.append(
            f"  {direction:<10}: widened argsort {row['widened_us']:7.1f} us, "
            f"stable_order {row['stable_order_us']:6.1f} us "
            f"({row['speedup']:.1f}x)"
        )
    lines += [
        "",
        "int8 Mmad ({0} x {0} x {0}):".format(MMAD_DIM),
        f"  int32 matmul formula     : {mmad['int32_us']:8.1f} us",
        f"  mmad (float64 BLAS)      : {mmad['mmad_us']:8.1f} us "
        f"({mmad['speedup']:.1f}x)",
        "",
        f"cold shard-plan build (D={cold['devices']}, {cold['n']:,} int8):",
        f"  cold scan (plans built x{cold['plans_built']}, "
        f"traced x{cold['traces']}) : {cold['cold_ms']:8.1f} ms",
        f"  member 0 trace           : {cold['trace_ms']:8.1f} ms",
        f"  member 1 mirror          : {cold['mirror_ms']:8.1f} ms "
        f"({cold['mirror_speedup']:.0f}x)",
        f"  warm re-scan             : {cold['warm_ms']:8.1f} ms",
        "",
        f"warm sharded scan (D={shard['devices']}, {shard['n']:,} fp16, per call):",
        f"  allocate-and-copy numerics : {shard['copying_ms']:8.1f} ms, "
        f"{shard['copying_minor_faults']:6.0f} minor faults",
        f"  in-place scan              : {shard['in_place_ms']:8.1f} ms, "
        f"{shard['in_place_minor_faults']:6.0f} minor faults",
    ]
    lines += ["", "pool host wall-clock vs D:"]
    for point in pool["curve"]:
        lines.append(f"  D={point['devices']}: {point['ms']:7.2f} ms")
    text = "\n".join(lines)
    print()
    print(text)
    (results_dir / "host.txt").write_text(text + "\n")
    write_bench_json(
        results_dir, "host", {"schema": 1, "benchmark": "host", **report}
    )

    # -- bars ---------------------------------------------------------------
    # warm-up eliminating inline plan builds and schedules is
    # core-count independent
    assert mix["warmed_inline_builds"] == 0
    assert mix["warmed_schedules"] == 0
    assert mix["speedup"] >= 3.0
    # one stacked pass beats 64 per-request passes over the same rows
    assert vec["speedup"] >= 1.2
    # radix-sorted 16-bit ranks beat the O(n log n) widened-key timsort
    for direction in ("ascending", "descending"):
        assert order[direction]["speedup"] >= 3.0
    # float64 BLAS beats NumPy's BLAS-less int32 matmul on one cube tile
    assert mmad["speedup"] >= 10.0
    # a D=2 pool traces a shard plan once; the other member mirrors it
    assert cold["plans_built"] == 2 and cold["traces"] == 1
    assert cold["mirror_speedup"] >= 5.0
