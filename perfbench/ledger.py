"""In-memory span ledger for the traced benchmark run.

Spans are recorded from the benchmark's own files: :class:`Tracer` wraps
the layer entry points listed in :data:`TARGETS` (class methods, and the
module attributes the serving code looks up at call time) for the length
of one traced pass, then restores the originals.  Every call records one
span — entry point, start, end, parent span — so a layer's self time is
its span minus the time its direct child spans cover.  Calls nest
strictly on one thread (serial executor), which makes that exact.

Optional hooks observe arguments and results outside the timed span:
they count what a layer did (groups drained, numerics bytes, kernels
replayed) where the work happens.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: (module, class or None, attribute, layer) — the wrapped entry points
TARGETS = (
    # the load generator: arrival schedule and request payloads, which
    # TrafficScheduler.run draws through these module attributes
    ("repro.shard.scheduler", None, "generate_arrivals", "serve.traffic"),
    ("repro.shard.scheduler", None, "make_input", "serve.traffic"),
    ("repro.shard.scheduler", "TrafficScheduler", "run", "shard.scheduler"),
    ("repro.shard.scheduler", "TrafficScheduler", "offer", "shard.scheduler"),
    ("repro.shard.service", "PoolScanService", "_prepare", "shard.service"),
    ("repro.shard.service", "PoolScanService", "submit_graph", "shard.service"),
    ("repro.shard.service", "PoolScanService", "flush", "shard.service"),
    ("repro.shard.service", "PoolScanService", "_dispatch", "shard.service"),
    ("repro.serve.batcher", "RequestBatcher", "drain", "serve.batcher"),
    ("repro.serve.plan", "PlanCache", "get_1d", "serve.plan"),
    ("repro.serve.plan", "PlanCache", "get_batched", "serve.plan"),
    ("repro.serve.service", "ScanService", "_prepare", "serve.service"),
    ("repro.serve.service", "ScanService", "_prepare_graph", "serve.service"),
    ("repro.serve.service", "ScanService", "flush", "serve.service"),
    # patched where serve.service looks it up at call time
    ("repro.serve.service", None, "group_scan_values", "serve.numerics"),
    ("repro.hw.device", "AscendDevice", "replay", "hw.device"),
    ("repro.hw.device", "AscendDevice", "time_traced", "hw.device"),
    ("repro.graph.interp", "GraphRunner", "lower", "graph.interp"),
    # serve.service imports it inside _serve_graph on every call, so the
    # module attribute is what each call resolves
    ("repro.graph.service", None, "graph_oracle_job", "graph.service"),
    ("repro.shard.scan", "ShardedScanner", "scan", "shard.scan"),
    ("repro.tune.store", "TuneStore", "lookup_1d", "tune"),
)

#: every host layer, in pipeline order (arrival -> ticket)
LAYERS = tuple(dict.fromkeys(t[3] for t in TARGETS))


class Ledger:
    """Recorded spans plus per-entry-point call and time totals."""

    def __init__(self):
        #: (entry-point name, layer) by op id
        self.ops: "list[tuple[str, str]]" = []
        #: op id -> [calls, inclusive ns, self ns]
        self.totals: "list[list[int]]" = []
        #: (op id, start ns, end ns, parent span index or -1)
        self.spans: list = []
        #: counters the hooks fill in
        self.counts: "dict[str, float]" = defaultdict(float)
        #: id(kernel) -> [replays, timeline hits, a returned Trace, kernel]
        self.kernels: dict = {}
        self._stack: "list[list[int]]" = []  # [span index, child ns]

    def wrap(self, fn, name: str, layer: str, pre=None, post=None):
        self.ops.append((name, layer))
        self.totals.append([0, 0, 0])
        op_id = len(self.ops) - 1
        totals = self.totals[op_id]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = pre(self, args) if pre is not None else None
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                spans[index] = (op_id, t0, t1, parent)
            if post is not None:
                post(self, args, result, token)
            return result

        return traced

    # -- derived views ---------------------------------------------------

    def op(self, name: str) -> "tuple[int, int, int]":
        """(calls, inclusive ns, self ns) of one entry point."""
        for (n, _), totals in zip(self.ops, self.totals):
            if n == name:
                return tuple(totals)
        raise KeyError(name)

    def layer_self_ns(self) -> "dict[str, int]":
        """Self ns per layer, from the online call totals."""
        out = dict.fromkeys(LAYERS, 0)
        for (_, layer), (_, _, own) in zip(self.ops, self.totals):
            out[layer] += own
        return out

    def span_tree(self) -> "tuple[int, int]":
        """(sum of self ns, sum of root-span ns) recomputed from the span
        list — an independent check of the online totals: each span's
        duration minus its direct children's."""
        child = roots = total = 0
        for _, t0, t1, parent in self.spans:
            dur = t1 - t0
            total += dur
            if parent >= 0:
                child += dur
            else:
                roots += dur
        return total - child, roots


# -- hooks (run outside the span they observe) ------------------------------


def _drain_post(ledger, args, result, token):
    ledger.counts["drains"] += 1
    ledger.counts["drained_groups"] += len(result)


def _numerics_post(ledger, args, result, token):
    values, _ = result
    ledger.counts["numerics_bytes"] += sum(x.nbytes for x in args[0]) + sum(
        v.nbytes for v in values
    )


def _replay_pre(ledger, args):
    return args[1].timeline_hits


def _replay_post(ledger, args, result, token):
    kernel = args[1]
    entry = ledger.kernels.get(id(kernel))
    if entry is None:
        # holding the kernel keeps its id() unique for the whole run
        entry = ledger.kernels[id(kernel)] = [0, 0, result, kernel]
    entry[0] += 1
    entry[1] += kernel.timeline_hits - token


HOOKS = {
    "RequestBatcher.drain": (None, _drain_post),
    "group_scan_values": (None, _numerics_post),
    "AscendDevice.replay": (_replay_pre, _replay_post),
}


class Tracer:
    """Builds the span wrappers once; ``with tracer:`` installs them for
    one traced pass and restores every original attribute on exit."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._patches = []
        for module_name, owner_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            name = f"{owner_name}.{attr}" if owner_name else attr
            pre, post = HOOKS.get(name, (None, None))
            wrapped = ledger.wrap(original, name, layer, pre, post)
            self._patches.append((owner, attr, original, wrapped))

    def __enter__(self) -> Ledger:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self.ledger

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
