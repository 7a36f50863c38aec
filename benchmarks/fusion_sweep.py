"""Fusion-mode sweep: ``aggressive`` vs ``conservative`` lowering of
``scan_pipeline`` variants on the 910B4.

Each variant (length, dtype, scan algorithm, exclusive flag, pre- and
post-map chains) is lowered on a fresh runner per mode and priced by
one fault-free replay (``GraphRunner.replay_ns``).  Prints how often,
and by how much, fusing the scan with its map chains wins or loses,
split by whether the region saves a launch (a post chain folded into a
``scanu`` / ``mcscan`` kernel) and by whether it pads its map passes to
the scan's s x s tiles past the input length.

    PYTHONPATH=src python benchmarks/fusion_sweep.py
"""

from __future__ import annotations

import itertools

from repro.core.api import FOLDABLE_SCAN_ALGORITHMS
from repro.errors import ConfigError, KernelError
from repro.graph import GraphRunner, scan_pipeline
from repro.hw.config import ASCEND_910B4
from repro.tune import TuneStore, WorkloadKey, warm_tune_store

NS = (1000, 2048, 5000, 16384, 65536, 262144)
DTYPES = ("fp16", "int8")
ALGORITHMS = ("scanu", "mcscan", "scanul1", "lookback", "ssa", "rss")
#: map chains tried before and after the scan
CHAINS = ((), ("abs",), ("negate", "double"))


def replay_ns(graph, mode: str, store=None) -> "tuple[float, object]":
    runner = GraphRunner(ASCEND_910B4, tune_store=store, fusion=mode)
    entries, _ = runner.lower(graph)
    return runner.replay_ns(graph), entries


def sweep() -> "list[dict]":
    rows = []
    for n, dtype, algorithm, exclusive, pre, post in itertools.product(
        NS, DTYPES, ALGORITHMS, (False, True), CHAINS, CHAINS
    ):
        if not pre and not post:
            continue
        graph = scan_pipeline(
            n, dtype=dtype, algorithm=algorithm, exclusive=exclusive,
            pre=pre, post=post,
        )
        try:
            conservative, _ = replay_ns(graph, "conservative")
        except (ConfigError, KernelError):
            continue  # a configuration no plan serves
        aggressive, entries = replay_ns(graph, "aggressive")
        (_, low), = entries
        rows.append({
            "saves_launch": bool(post) and algorithm in FOLDABLE_SCAN_ALGORITHMS,
            "padded": low.plan.padded > n,
            "change": aggressive / conservative - 1.0,
        })
    return rows


def summary(rows: "list[dict]", label: str) -> str:
    slower = [r["change"] for r in rows if r["change"] > 0]
    faster = [-r["change"] for r in rows if r["change"] < 0]
    return (
        f"{label:<26} {len(rows):>4} variants: aggressive slower in "
        f"{len(slower):>4} (by up to {100 * max(slower, default=0):.2f} %), "
        f"faster in {len(faster):>4} (by up to "
        f"{100 * max(faster, default=0):.2f} %)"
    )


def main() -> None:
    rows = sweep()
    print(summary(rows, "all"))
    for saves in (True, False):
        for padded in (False, True):
            part = [
                r for r in rows
                if r["saves_launch"] == saves and r["padded"] == padded
            ]
            label = (
                f"{'saves a launch' if saves else 'same launches'}, "
                f"{'padded' if padded else 'unpadded'}"
            )
            print(summary(part, label))
    # perfbench graph-mix's pipeline, on a store tuned as graph-mix tunes
    store = TuneStore(ASCEND_910B4)
    warm_tune_store([WorkloadKey("1d", 16384, "fp16")], store, workers=1)
    pipe = scan_pipeline(16384, pre=("abs",), post=("double",))
    for mode in ("conservative", "aggressive"):
        ns, _ = replay_ns(pipe, mode, store)
        print(f"graph-mix scan_pipeline, {mode:<12}: {ns:,.1f} ns")


if __name__ == "__main__":
    main()
