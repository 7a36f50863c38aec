"""Serve layer: plan-cache latency + request batching + replay engines.

Asserts the serve-layer claims:

* a plan-cache hit is at least 5x cheaper (host wall time) than the cold
  path a first request pays (full kernel trace + validation + execute) —
  checked on ScanUL1, the most emission-heavy kernel, and reported for
  every algorithm;
* N same-shape requests submitted individually and coalesced by the
  service reach the simulated throughput of a direct batched-kernel call
  on the same block to within 10% (when the batch fills its bucket the
  service issues the identical op DAG, so the match is exact);
* replaying a cached plan from its memoized timeline is at least 5x
  cheaper (host wall time) than re-running the discrete-event scheduler
  per execute (the pre-memoization behaviour), and the memoized timeline
  equals a fresh scheduler run.

Host-timing assertions use best-of repeats to tolerate shared-runner
noise; the 5x bars are structural (emission dominates the cold cost, and
the memoized path does no scheduling at all — measured headroom is in
the hundreds), not tight performance bounds.
"""

from bench_util import write_bench_json

from repro.serve.bench import format_report, run_serve_bench, serve_bench_json

N = 1 << 20
BATCH = 16
ROW_LEN = 1 << 16


def test_serve_layer(benchmark, results_dir):
    report = benchmark.pedantic(
        run_serve_bench,
        kwargs=dict(n=N, batch=BATCH, row_len=ROW_LEN, repeats=3),
        iterations=1,
        rounds=1,
    )
    text = format_report(report)
    print()
    print(text)
    (results_dir / "serve.txt").write_text(text + "\n")
    write_bench_json(results_dir, "serve", serve_bench_json(report))

    rows = {r["algorithm"]: r for r in report["plan_cache"]}
    # every traced plan must have cross-validated against the oracle
    assert all(r["validated"] for r in rows.values())
    assert rows["scanul1"]["speedup"] >= 5.0
    # the others clear the bar too, with margin for runner noise
    assert all(r["speedup"] >= 3.0 for r in rows.values())

    for r in report["batched"]:
        assert r["coalesced"]
        assert 0.9 <= r["throughput_ratio"] <= 1.1

    # memoized-timeline replay vs DES-per-execute (PR 1's hot path): the
    # asserted bar is 5x; a regression to per-event scheduling shows up as
    # a collapse to ~1x
    replay = {r["algorithm"]: r for r in report["replay_engines"]}
    assert all(r["timelines_identical"] for r in replay.values())
    assert replay["scanul1"]["replay_cached_speedup"] >= 5.0
    assert all(r["replay_cached_speedup"] >= 5.0 for r in replay.values())
    # end-to-end execute still pays the functional NumPy compute, so the
    # bar is modest — but removing the scheduler must be visible
    assert replay["scanul1"]["execute_speedup"] >= 1.1
