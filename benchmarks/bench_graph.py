"""Operator-graph serving: batched replay vs hand-chaining, chaos, tuning.

Asserts the graph runtime's serving claims (DESIGN 2.12):

* **graph-served >= 2x over hand-chained** — submitting a batch of
  ``llm_sample`` (top-k -> top-p) requests through the service lowers the
  pipeline once and replays memoized programs per request; calling the
  same operators by hand (top-k, then the sort-free sampler tail the
  served graph lowers) re-traces every kernel per request.  Both
  cold (build inline; the median over COLD_RUNS fresh services, each
  lowering the graph anew) and warm passes must clear 2x, with the served
  tokens bit-identical to the NumPy oracle *and* to the hand-chained
  device path (tie-free inputs).
* **chaos bit-identity** — ``llm_sample`` and ``sort_graph`` requests
  served at D in {1, 2, 4} under a 20% per-launch transient fault mix
  stay bit-identical to the oracle; per-kernel retry absorbs at least one
  fault at every D.
* **tuned scans flow into graphs** — a ``scan`` node with no explicit
  algorithm resolves through the TuneStore, and the tuned lowering is
  never slower than the default on the tuned shape.
* **fusion >= 1.3x on an elementwise-heavy mix** — the same graph mix
  (map chains feeding scans, prep-chained ``llm_sample``) executed with
  ``fusion=aggressive`` captures one program per fused region: fewer
  launches, less GM traffic, >= 1.3x less device time than the per-node
  ``fusion=off`` lowering, with every output bit-identical.
* **topk-fed sampler skips its sort** — in ``llm_sample`` the
  ``top_p_sample`` reads ``topk``'s descending output, so it lowers
  without the radix sort: the unit replays in 3 launches and <= 12.5 us
  (its cumsum takes the 16 x 16 tile the runner sizes to k=32 inputs),
  the same node lowered standalone (same shapes, sort kept) in 7 launches
  and <= 0.8x its 112.2 us before the sort's digit passes became one
  launch each, and the device tokens of the sort-free program equal the
  oracle's.
* **compiled host numerics** — each canned graph's compiled numerics
  (what serving runs per request) equal ``Graph.run_oracle``'s bit for
  bit at the graph-mix shapes, and ``llm_sample``'s run >= 1.5x faster
  than ``run_oracle`` (best per call, alternating batches).
* **balanced pool rounds** — rounds of the graph-mix trio (two each of
  ``llm_sample``, ``sort_graph`` and ``scan_pipeline``) flushed on a D=2
  pool of full 910B4s: placement by predicted completion keeps every
  round's span within 1.05x of half the round's device time, with every
  output bit-identical to the oracle.

Results are committed to ``results/BENCH_graph.json``.
"""

import gc
import time

import numpy as np

from bench_util import write_bench_json

from repro.core.api import ScanContext
from repro.errors import DeviceFault
from repro.graph import (
    Graph,
    GraphRunner,
    llm_sample,
    oracle_outputs,
    scan_graph,
    scan_pipeline,
    sort_graph,
)
from repro.hw import FaultPlan
from repro.graph.interp import top_p_device_sample
from repro.graph.numerics import host_numerics
from repro.graph.op import get_op
from repro.hw.config import ASCEND_910B4, toy_config
from repro.ops import AscendOps, TopPSampler
from repro.serve import RetryPolicy, ScanService
from repro.shard import DevicePool, PoolScanService
from repro.tune import TunedEntry, TuneStore

VOCAB = 96
K = 8
P = 0.75
THETA = 0.4
S = 16
REQUESTS = 12
CHAOS_SORT_N = 1000

#: the pool-balance mix: perfbench graph-mix's trio at its largest
#: vocabulary — the pipeline carries 8x the sampler's input elements but
#: about half of its device time, so element counts are a poor proxy
BALANCE_VOCAB, BALANCE_PIPE_N, BALANCE_SORT_N = 2048, 16384, 4096
BALANCE_ROUNDS = 4
#: fresh services the cold pass is timed on (median): one cold pass per
#: process ranged 2.5-4.4x against the 2.0 bar on a 2-CPU host
COLD_RUNS = 3


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _scores(rng, vocab: int) -> np.ndarray:
    # pairwise-distinct fp16 so the device top-k has no tie-order hazard
    # vs the oracle's stable sort (see repro.graph.op)
    return (rng.permutation(vocab) + 1).astype(np.float16)


def bench_llm_sample_serving() -> dict:
    """Batched graph-served llm_sample vs the hand-chained operator loop."""
    config = toy_config()
    rng = np.random.default_rng(11)
    batch = [_scores(rng, VOCAB) for _ in range(REQUESTS)]
    graph = llm_sample(VOCAB, k=K, p=P, theta=THETA, s=S)

    # the oracle first: its memoized sort-rank tables are a one-time
    # process cost the hand-chained loop never pays
    expected = [
        int(oracle_outputs(graph, {"probs": b})[0][0]) for b in batch
    ]

    def serve():
        tickets = [svc.submit_graph(graph, {"probs": b}) for b in batch]
        svc.flush()
        return tickets

    # each cold pass lowers the graph on a fresh service; the last one
    # serves the warm passes
    cold = []
    for _ in range(COLD_RUNS):
        svc = ScanService(config=config)
        t0 = time.perf_counter()
        tickets = serve()
        cold.append(time.perf_counter() - t0)
    cold_s = float(np.median(cold))
    warm_s = _best_of(serve)

    ops = AscendOps(scan_context=ScanContext(config))
    sampler = TopPSampler(ops, s=S)

    def hand():
        out = []
        for b in batch:
            tk = ops.topk_baseline(b, K)
            res = sampler.sample_sorted(
                tk.values.astype(np.float16), tk.indices, P, THETA
            )
            out.append(int(res.values[0]))
        return out

    hand_tokens = hand()
    hand_s = _best_of(hand)

    tokens = [int(t.result()[0][0]) for t in tickets]
    breakdown = {
        kind: {"launches": count, "device_us": ns / 1e3}
        for kind, (count, ns) in sorted(svc.stats.op_device_ns.items())
    }
    return {
        "vocab": VOCAB,
        "k": K,
        "requests": REQUESTS,
        "tokens_match_oracle": tokens == expected,
        "tokens_match_handchained": tokens == hand_tokens,
        "cold_ms": cold_s * 1e3,
        "cold_runs_ms": [c * 1e3 for c in cold],
        "warm_ms": warm_s * 1e3,
        "handchained_ms": hand_s * 1e3,
        "speedup_cold": hand_s / cold_s,
        "speedup_warm": hand_s / warm_s,
        "op_breakdown": breakdown,
    }


def _flush_resilient(svc, limit: int = 50) -> int:
    """Flush until the queue drains; a flush aborted by retry exhaustion
    requeues the unserved tail, so the caller just flushes again.
    Returns the number of aborted flushes."""
    aborted = 0
    while True:
        try:
            svc.flush()
        except DeviceFault:
            aborted += 1
            if aborted >= limit:
                raise
            continue
        if not svc.pending:
            return aborted


def bench_chaos_identity() -> dict:
    """Graph serving at D in {1, 2, 4} under a transient-fault mix: two
    samplers and a sort, so the one-launch digit passes replay too."""
    config = toy_config()
    rng = np.random.default_rng(13)
    graphs = {v: llm_sample(v, k=K, p=P, s=S) for v in (96, 160)}
    sort = sort_graph(CHAOS_SORT_N, s=S)
    points = []
    for devices in (1, 2, 4):
        if devices == 1:
            svc = ScanService(
                config=config, retry=RetryPolicy(max_attempts=4)
            )
            svc.ctx.device.fault_plan = FaultPlan(seed=5, transient_rate=0.2)
        else:
            pool = DevicePool(devices, config)
            svc = PoolScanService(
                pool=pool, config=config, retry=RetryPolicy(max_attempts=4)
            )
            for m in range(devices):
                pool.inject_faults(
                    m, FaultPlan(seed=5 + m, transient_rate=0.2)
                )
        jobs = []
        for j in range(12):
            if j % 3 == 2:
                x = rng.integers(-1000, 1000, CHAOS_SORT_N).astype(np.float16)
                graph, feed, params = sort, {"x": x}, None
            else:
                vocab = 96 if j % 3 == 0 else 160
                graph, feed = graphs[vocab], {"probs": _scores(rng, vocab)}
                params = {"sample": {"theta": float(rng.integers(1, 8)) / 8.0}}
            ticket = svc.submit_graph(graph, feed, params=params)
            jobs.append((ticket, oracle_outputs(graph, feed, params)))
        aborted = _flush_resilient(svc)
        exact = sum(
            t.done
            and len(t.result()) == len(want)
            and all(np.array_equal(a, b) for a, b in zip(t.result(), want))
            for t, want in jobs
        )
        workers = getattr(svc, "workers", None) or [svc]
        points.append(
            {
                "devices": devices,
                "requests": len(jobs),
                "served": sum(t.done for t, _ in jobs),
                "aborted_flushes": aborted,
                "bit_identical": exact,
                "faults_absorbed": sum(
                    w.stats.fault_events for w in workers
                ),
                "retries": sum(w.stats.total_retries for w in workers),
            }
        )
    return {"transient_rate": 0.2, "points": points}


def bench_tuned_graph_scan(n: int = 4096) -> dict:
    """A store-resolved scan node is never slower than the default."""
    config = toy_config()
    rng = np.random.default_rng(17)
    x = rng.integers(-2, 3, n).astype(np.float16)

    times = {}
    for algorithm in ("scanu", "mcscan"):
        runner = GraphRunner(config)
        res = runner.execute(
            scan_graph(n, algorithm=algorithm, s=S), {"x": x}
        )
        times[algorithm] = res.time_ns
    best = min(times, key=times.get)

    store = TuneStore(config)
    store.record(
        f"1d:{n}:fp16:i",
        TunedEntry(
            algorithm=best,
            s=S,
            block_dim=None,
            layout="1d",
            tuned_ns=times[best],
            default_ns=times["scanu"],
        ),
    )
    tuned_runner = GraphRunner(config, tune_store=store)
    graph = scan_graph(n)  # no algorithm: resolves through the store
    entries, _built = tuned_runner.lower(graph)
    res = tuned_runner.execute(graph, {"x": x})
    return {
        "n": n,
        "default_algorithm": "scanu",
        "default_us": times["scanu"] / 1e3,
        "tuned_algorithm": best,
        "tuned_us": res.time_ns / 1e3,
        "graph_used_tuned": bool(entries[0][1].tuned),
        "tuned_not_slower": res.time_ns <= times["scanu"],
    }


def _map_chain(n: int, fns) -> Graph:
    g = Graph(name="map_chain")
    edge = g.add_input("x", "fp16", (n,))
    for i, fn in enumerate(fns):
        (edge,) = g.add_node(f"m{i}", "elementwise", [edge], {"fn": fn})
    g.set_outputs([edge])
    g.validate()
    return g


def bench_fused_vs_unfused() -> dict:
    """One captured program per fused region vs per-node lowering on an
    elementwise-heavy graph mix; outputs must stay bit-identical."""
    config = toy_config()
    rng = np.random.default_rng(23)
    mix = [
        (
            scan_pipeline(2048, pre=("abs", "double"), post=("negate",), s=S),
            {"x": rng.integers(-2, 3, 2048).astype(np.float16)},
        ),
        (
            scan_pipeline(
                1024,
                dtype="int8",
                pre=("abs",),
                post=("double", "abs"),
                exclusive=True,
                s=S,
            ),
            {"x": rng.integers(-20, 21, 1024).astype(np.int8)},
        ),
        (
            scan_pipeline(
                512, pre=("negate", "abs", "double"), post=(), s=S
            ),
            {"x": rng.integers(-2, 3, 512).astype(np.float16)},
        ),
        (
            _map_chain(4096, ("abs", "double", "negate", "abs")),
            {"x": rng.integers(-2, 3, 4096).astype(np.float16)},
        ),
    ]

    modes = {}
    outputs = {}
    for mode in ("off", "aggressive"):
        runner = GraphRunner(config, fusion=mode)
        outs, device_ns, launches = [], 0, 0
        for graph, inputs in mix:
            res = runner.execute(graph, inputs)
            outs.append(res.outputs)
            device_ns += res.time_ns
            launches += res.launches
        stats = runner.cache.stats()
        modes[mode] = {
            "device_us": device_ns / 1e3,
            "launches": launches,
            "lowered": stats["lowered"],
            "fused_regions": stats["fused"],
        }
        outputs[mode] = outs

    identical = all(
        len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
        for a, b in zip(outputs["off"], outputs["aggressive"])
    )
    return {
        "graphs": len(mix),
        "off": modes["off"],
        "aggressive": modes["aggressive"],
        "bit_identical": identical,
        "device_speedup": (
            modes["off"]["device_us"] / modes["aggressive"]["device_us"]
        ),
        "launches_saved": (
            modes["off"]["launches"] - modes["aggressive"]["launches"]
        ),
    }


def bench_sorted_sampler(requests: int = 8) -> dict:
    """The topk-fed top_p_sample unit of llm_sample vs the same node
    lowered standalone, on perfbench graph-mix's full 910B4 shapes."""
    rng = np.random.default_rng(19)
    runner = GraphRunner(ASCEND_910B4, fusion="aggressive")
    graph = llm_sample(BALANCE_VOCAB, k=32, prep=("abs", "double"))
    entries, _ = runner.lower(graph)
    units = {unit.kind: (unit, low) for unit, low in entries}
    topk = units["topk"][0]
    sample, fed = units["top_p_sample"]

    solo = Graph(name="top_p")
    probs = solo.add_input("probs", "fp16", (32,))
    ids = solo.add_input("ids", "int32", (32,))
    solo.set_outputs(
        list(solo.add_node("t", "top_p_sample", [probs, ids], sample.params))
    )
    ((_, standalone),) = runner.lower(solo)[0]

    # device tokens of the sort-free program: topk then the presorted tail
    exact = 0
    for _ in range(requests):
        row = _scores(rng, BALANCE_VOCAB)
        theta = float(rng.integers(1, 16)) / 16.0
        values, indices = get_op("topk").device_run(
            runner.ops, [row], topk.params
        )
        token = top_p_device_sample(
            runner.ops,
            values,
            indices,
            p=sample.params["p"],
            theta=theta,
            s=sample.params["s"],
            presorted=True,
        )
        want = oracle_outputs(
            graph, {"probs": row}, {"sample": {"theta": theta}}
        )[0]
        exact += bool(np.array_equal(token, want))
    fed_ns = fed.device_ns(runner.device)
    standalone_ns = standalone.device_ns(runner.device)
    return {
        "vocab": BALANCE_VOCAB,
        "k": 32,
        "fed_us": fed_ns / 1e3,
        "fed_launches": fed.launches,
        "standalone_us": standalone_ns / 1e3,
        "standalone_launches": standalone.launches,
        "fed_vs_standalone": fed_ns / standalone_ns,
        "requests": requests,
        "tokens_match_oracle": exact,
    }


def bench_pool_balance() -> dict:
    """D=2 rounds of the graph-mix trio, after a one-of-each warm-up
    flush that lowers every graph."""
    rng = np.random.default_rng(17)
    trio = (
        llm_sample(BALANCE_VOCAB, k=32, prep=("abs", "double")),
        scan_pipeline(BALANCE_PIPE_N, pre=("abs",), post=("double",)),
        sort_graph(BALANCE_SORT_N),
    )

    def inputs(graph):
        if graph.name == "llm_sample":
            return {"probs": _scores(rng, BALANCE_VOCAB)}
        if graph.name == "sort":
            x = rng.integers(-1000, 1000, BALANCE_SORT_N)
        else:
            x = rng.integers(-2, 3, BALANCE_PIPE_N)
        return {"x": x.astype(np.float16)}

    svc = PoolScanService(2, graph_fusion="aggressive")
    for graph in trio:
        svc.submit_graph(graph, inputs(graph))
    svc.flush()
    rounds = []
    for _ in range(BALANCE_ROUNDS):
        jobs = [(g, inputs(g)) for g in trio + trio]
        busy0, span0 = list(svc.busy_ns), svc.span_ns
        tickets = [svc.submit_graph(g, x) for g, x in jobs]
        svc.flush()
        loads = [b - b0 for b, b0 in zip(svc.busy_ns, busy0)]
        span = svc.span_ns - span0
        rounds.append(
            {
                "span_us": span / 1e3,
                "device_us": sum(loads) / 1e3,
                "member_us": [load / 1e3 for load in loads],
                "span_vs_half": span / (sum(loads) / 2),
                "bit_identical": all(
                    all(
                        np.array_equal(a, b)
                        for a, b in zip(t.result(), oracle_outputs(g, x))
                    )
                    for t, (g, x) in zip(tickets, jobs)
                ),
            }
        )
    return {"devices": 2, "rounds": rounds}


def _interleaved_best(fns, calls: int = 50, rounds: int = 40) -> list:
    """Best per-call seconds of each of ``fns``, timed in alternating
    batches of ``calls`` so host noise falls on every side alike, with
    the garbage collector off as ``timeit`` runs it: a collection of
    the objects earlier benches left must not land in one side's
    batch."""
    best = [float("inf")] * len(fns)
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                best[i] = min(best[i], (time.perf_counter() - t0) / calls)
    finally:
        gc.enable()
    return best


def bench_host_numerics() -> dict:
    """Each canned graph's compiled host numerics (what serving runs per
    request) vs ``Graph.run_oracle`` (what it ran before, the reference),
    on the same bound inputs at the graph-mix shapes."""
    rng = np.random.default_rng(19)
    pipe_x = rng.integers(-2, 3, BALANCE_PIPE_N).astype(np.float16)
    cases = {
        "llm_sample": (
            llm_sample(BALANCE_VOCAB, k=32, prep=("abs", "double")),
            {"probs": _scores(rng, BALANCE_VOCAB)},
            {"sample": {"theta": 0.375}},
        ),
        "scan_pipeline": (
            scan_pipeline(BALANCE_PIPE_N, pre=("abs",), post=("double",)),
            {"x": pipe_x},
            None,
        ),
        "scan": (scan_graph(BALANCE_PIPE_N), {"x": pipe_x}, None),
        "sort": (
            sort_graph(BALANCE_SORT_N),
            {"x": rng.integers(-1000, 1000, BALANCE_SORT_N).astype(np.float16)},
            None,
        ),
    }
    rows = {}
    for name, (graph, feed, params) in cases.items():
        bound = graph.bind(feed)
        compiled = host_numerics(graph)
        got = compiled(bound, params)
        want = graph.run_oracle(bound, params)
        oracle_s, compiled_s = _interleaved_best(
            [
                lambda: graph.run_oracle(bound, params),
                lambda: compiled(bound, params),
            ]
        )
        rows[name] = {
            "steps": len(compiled.steps),
            "nodes": len(graph.nodes),
            "oracle_us": oracle_s * 1e6,
            "compiled_us": compiled_s * 1e6,
            "speedup": oracle_s / compiled_s,
            "bit_identical": len(got) == len(want)
            and all(
                a.dtype == b.dtype and a.tobytes() == b.tobytes()
                for a, b in zip(got, want)
            ),
        }
    return rows


def test_graph_serving(benchmark, results_dir):
    def run_all():
        return {
            "serving": bench_llm_sample_serving(),
            "chaos": bench_chaos_identity(),
            "tuned": bench_tuned_graph_scan(),
            "fusion": bench_fused_vs_unfused(),
            "sorted_sampler": bench_sorted_sampler(),
            "balance": bench_pool_balance(),
            "host_numerics": bench_host_numerics(),
        }

    report = benchmark.pedantic(run_all, iterations=1, rounds=1)
    serving = report["serving"]
    chaos = report["chaos"]
    tuned = report["tuned"]
    fusion = report["fusion"]
    sampler = report["sorted_sampler"]
    balance = report["balance"]
    host = report["host_numerics"]

    lines = [
        "operator-graph serving bench",
        "",
        f"llm_sample (vocab {serving['vocab']}, k={serving['k']}, "
        f"{serving['requests']} requests):",
        f"  hand-chained (re-traced) : {serving['handchained_ms']:8.1f} ms",
        f"  graph-served, cold       : {serving['cold_ms']:8.1f} ms "
        f"({serving['speedup_cold']:.1f}x, median of "
        f"{len(serving['cold_runs_ms'])} fresh services)",
        f"  graph-served, warm       : {serving['warm_ms']:8.1f} ms "
        f"({serving['speedup_warm']:.1f}x)",
        "",
        f"chaos bit-identity (transient rate {chaos['transient_rate']}):",
    ]
    for point in chaos["points"]:
        lines.append(
            f"  D={point['devices']}: {point['bit_identical']}/"
            f"{point['requests']} bit-identical, "
            f"{point['faults_absorbed']} faults absorbed over "
            f"{point['retries']} retries"
        )
    lines += [
        "",
        f"tuned scan in graphs (n={tuned['n']}):",
        f"  default {tuned['default_algorithm']}: "
        f"{tuned['default_us']:8.1f} us",
        f"  tuned   {tuned['tuned_algorithm']}: "
        f"{tuned['tuned_us']:8.1f} us (store-resolved)",
        "",
        f"fused vs unfused ({fusion['graphs']}-graph elementwise-heavy mix):",
        f"  fusion=off        : {fusion['off']['device_us']:8.1f} us, "
        f"{fusion['off']['launches']} launches",
        f"  fusion=aggressive : {fusion['aggressive']['device_us']:8.1f} us, "
        f"{fusion['aggressive']['launches']} launches "
        f"({fusion['aggressive']['fused_regions']} fused regions)",
        f"  device speedup    : {fusion['device_speedup']:.2f}x, "
        f"{fusion['launches_saved']} launches saved, "
        f"bit-identical={fusion['bit_identical']}",
        "",
        f"topk-fed top_p_sample (vocab {sampler['vocab']}, "
        f"k={sampler['k']}, full 910B4):",
        f"  standalone (sorts) : {sampler['standalone_us']:8.1f} us, "
        f"{sampler['standalone_launches']} launches",
        f"  topk-fed (no sort) : {sampler['fed_us']:8.1f} us, "
        f"{sampler['fed_launches']} launches "
        f"({sampler['fed_vs_standalone']:.3f}x), device tokens "
        f"{sampler['tokens_match_oracle']}/{sampler['requests']} "
        f"equal the oracle",
        "",
        f"pool balance (D={balance['devices']}, graph-mix trio x2 per round):",
    ]
    for i, r in enumerate(balance["rounds"]):
        members = " / ".join(f"{us:.1f}" for us in r["member_us"])
        lines.append(
            f"  round {i}: span {r['span_us']:6.1f} us = "
            f"{r['span_vs_half']:.3f}x half its {r['device_us']:.1f} us "
            f"device time (member loads {members} us), "
            f"bit-identical={r['bit_identical']}"
        )
    lines += ["", "host numerics per request (compiled vs run_oracle, best per call):"]
    for name, row in host.items():
        lines.append(
            f"  {name:<13}: run_oracle {row['oracle_us']:6.1f} us "
            f"({row['nodes']} nodes), compiled {row['compiled_us']:6.1f} us "
            f"({row['steps']} steps, {row['speedup']:.2f}x), "
            f"bit-identical={row['bit_identical']}"
        )
    text = "\n".join(lines)
    print()
    print(text)
    (results_dir / "graph.txt").write_text(text + "\n")
    write_bench_json(
        results_dir, "graph", {"schema": 1, "benchmark": "graph", **report}
    )

    assert serving["tokens_match_oracle"]
    assert serving["tokens_match_handchained"]
    assert serving["speedup_cold"] >= 2.0
    assert serving["speedup_warm"] >= 2.0
    for point in chaos["points"]:
        assert point["bit_identical"] == point["requests"]
    assert sum(p["faults_absorbed"] for p in chaos["points"]) > 0
    for point in chaos["points"]:
        assert point["faults_absorbed"] >= 1
        assert point["retries"] >= 1
    assert tuned["graph_used_tuned"]
    assert tuned["tuned_not_slower"]
    assert fusion["bit_identical"]
    assert fusion["device_speedup"] >= 1.3
    assert fusion["aggressive"]["launches"] < fusion["off"]["launches"]
    assert fusion["aggressive"]["fused_regions"] >= 3
    # absolute bars: a ratio bar would also demand the standalone sort
    # stay >= 5x the fed unit, so it tightens as the sort gets faster
    assert sampler["fed_launches"] == 3
    # the unit is 11.8 us: the cumsum on one 16 x 16 tile (5.64) plus two
    # counts (3.09 each); 12.5 leaves 6 % and fails the 17.3 us of a
    # cumsum padded to one 128 x 128 tile
    assert sampler["fed_us"] <= 12.5
    assert sampler["standalone_launches"] == 7
    assert sampler["standalone_us"] <= 0.8 * 112.2
    assert sampler["tokens_match_oracle"] == sampler["requests"]
    for r in balance["rounds"]:
        assert r["bit_identical"]
        assert r["span_vs_half"] <= 1.05
    for row in host.values():
        assert row["bit_identical"]
    # abs+double as one table lookup and no re-sort after topk: 2.1x in
    # the sizing prototype, topk's own sort left as the largest step
    assert host["llm_sample"]["speedup"] >= 1.5
