"""Multi-device sharding: latency scaling and pool-serving throughput.

Asserts the shard layer's contract on the full simulated 910B4:

* **bit-identity everywhere** — every sharded scan in the sweep (all D,
  all n) is ``np.array_equal`` to the ``core.reference`` oracle on exact
  fp16 inputs; sharding never trades correctness for speed;
* **sharded latency** — a 16M-element 1-D scan sharded over D devices
  beats the single-device plan (every shard plan is MCScan, tuned where
  the shared store's entry for its length is MCScan), and keeps
  improving from D=2 to D=8;
* **pool throughput** — serving one fixed mixed request load through
  :class:`PoolScanService` scales to at least 3x aggregate throughput
  at D=4 vs D=1 (LPT routing over near-equal launch groups), with every
  served result still matching the oracle.

``results/BENCH_shard.json`` is the committed evidence: per-(n, D) wall
clocks with the (max phase I, max phase II) split of the folded scans
(the device carry rides in MCScan's phase II at every D >= 2; D=1 runs
its plan whole), how many shard plans came from the store, and per-D
serve throughput with device utilisation.
"""

import numpy as np
from bench_util import write_bench_json

from repro.core.api import ScanContext
from repro.core.reference import exact_fp16_scan_input, inclusive_scan
from repro.shard import DevicePool, PoolScanService, ShardedScanner
from repro.tune import TuneStore, WorkloadKey, ensure_tuned

POOL_SIZES = (1, 2, 4, 8)
SCAN_LENGTHS = (1 << 20, 1 << 24)  # 1M and 16M elements

#: the serve mix: 16 near-equal shape classes, two requests each, so the
#: batcher forms 16 launch groups the router can spread over the pool
MIX_SIZES = tuple((1 << 20) + k * (1 << 14) for k in range(16))
MIX_REPEATS = 2


def _tune_shared_store():
    """One store covering every shard length the latency sweep produces
    (n / D for both lengths and every pool size) — tuned once, shared by
    every pool member and every pool size."""
    ctx = ScanContext()
    store = TuneStore(ctx.config)
    workloads = [
        WorkloadKey("1d", n // d, "fp16")
        for n in SCAN_LENGTHS
        for d in POOL_SIZES
    ]
    ensure_tuned(ctx, workloads, store)
    return store


def _latency_sweep(store, rng):
    rows = []
    for n in SCAN_LENGTHS:
        x, expected = exact_fp16_scan_input(n, rng)
        oracle = inclusive_scan(x)
        for d in POOL_SIZES:
            scanner = ShardedScanner(
                DevicePool(d, tune_store=store), algorithm="mcscan",
                tuned=True,
            )
            res = scanner.scan(x)
            exact = np.array_equal(res.values, oracle) and np.array_equal(
                res.values, expected
            )
            rows.append(
                {
                    "n": n,
                    "devices": d,
                    "wall_ns": res.wall_ns,
                    "phase_stage_ns": list(res.phase_stage_ns),
                    "folded": res.folded,
                    "bandwidth_gbps": res.bandwidth_gbps,
                    "shards_tuned": sum(r.tuned for r in res.shards),
                    "bit_identical": exact,
                }
            )
            scanner.release()
    return rows


def _serve_sweep(store, rng):
    inputs = [
        exact_fp16_scan_input(n, rng)[0]
        for n in MIX_SIZES
        for _ in range(MIX_REPEATS)
    ]
    oracles = [inclusive_scan(x) for x in inputs]
    rows = []
    for d in POOL_SIZES:
        svc = PoolScanService(d, tune_store=store)
        tickets = [svc.submit(x) for x in inputs]
        done = svc.flush()
        correct = len(done) == len(inputs) and all(
            np.array_equal(t.result(), oracles[t.req_id]) for t in tickets
        )
        rows.append(
            {
                "devices": d,
                "requests": svc.total_requests,
                "elements": svc.total_elements,
                "makespan_ns": svc.makespan_ns,
                "throughput_gelems": svc.throughput_gelems,
                "utilisation": svc.device_utilisation(),
                "all_correct": correct,
            }
        )
        print()
        print(svc.summary())
    return rows


def _run(rng):
    store = _tune_shared_store()
    return {
        "latency": _latency_sweep(store, rng),
        "serve": _serve_sweep(store, rng),
        "tuned_entries": len(store),
    }


def test_shard_scaling_and_pool_throughput(benchmark, results_dir):
    rng = np.random.default_rng(0)
    payload = benchmark.pedantic(_run, args=(rng,), iterations=1, rounds=1)

    # every sharded result in the sweep is bit-identical to the oracle
    assert all(row["bit_identical"] for row in payload["latency"])
    assert all(row["all_correct"] for row in payload["serve"])
    # the device carry rides in MCScan's phase II at every D >= 2
    assert all(
        row["folded"] == (row["devices"] > 1) for row in payload["latency"]
    )

    wall = {
        (row["n"], row["devices"]): row["wall_ns"]
        for row in payload["latency"]
    }
    # sharding a 16M scan beats the single-device plan, at every D
    n_big = SCAN_LENGTHS[-1]
    for d in POOL_SIZES[1:]:
        assert wall[(n_big, d)] < wall[(n_big, 1)]
    # and the win keeps growing: D=8 still beats D=2
    assert wall[(n_big, 8)] < wall[(n_big, 2)]

    # pool throughput on the fixed mix scales: >= 3x at D=4 vs D=1
    thr = {row["devices"]: row["throughput_gelems"] for row in payload["serve"]}
    payload["serve_scaling_d4_vs_d1"] = thr[4] / thr[1]
    payload["shard_speedup_16m_d4"] = wall[(n_big, 1)] / wall[(n_big, 4)]
    assert thr[4] / thr[1] >= 3.0
    assert thr[2] / thr[1] >= 1.5
    assert thr[8] >= thr[4]

    write_bench_json(results_dir, "shard", payload)
