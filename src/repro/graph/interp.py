"""Graph lowering + interpretation: capture once, replay per request.

:class:`GraphRunner` owns a dedicated *build* device (its own
:class:`~repro.core.api.ScanContext` on the **same** ``DeviceConfig``
object the serving devices use, so memoized kernel timelines — keyed by
config identity — transfer to every pool member) plus the ops driver and
a scan :class:`~repro.serve.plan.PlanCache`.  Lowering a node means
running its real device implementation once on the build device under
:meth:`AscendDevice.capture_launches
<repro.hw.device.AscendDevice.capture_launches>`, harvesting the traced
kernels, and differentially checking the device outputs bit-exactly
against the op's NumPy oracle on exactness-conditioned validation inputs
(:class:`~repro.errors.KernelError` on divergence).  One build step,
:meth:`GraphRunner._capture`, does this for every captured unit: op
nodes, the topk-fed sampler, fused map chains and fused scan regions
(checked against the composition of their member oracles).  Scan nodes
instead go through the plan cache and resolve their configuration as
``ScanService`` does (:func:`repro.tune.resolve_candidate`), so tuned
scan configurations flow into graphs for free; an op-zoo node whose
internal scan tile ``s`` is None lowers at the tile
:func:`~repro.core.api.op_scan_tile` sizes to its input.

Lowered nodes are memoized in :class:`GraphPlanCache` keyed on
``(kind, shape_class)``: the steady-state cost of serving a graph
request is replaying the captured kernels (O(1) memoized timelines) plus
the host numerics compiled once per graph
(:func:`~repro.graph.numerics.host_numerics`) — no re-tracing, which is
exactly what the hand-chained ``AscendOps`` path pays on every call.  A
``top_p_sample`` fed by ``topk`` keys apart and lowers without its sort
(:func:`~repro.graph.fuse.sorted_by_topk`).  Every build starts from a
cold L2.  That does not make build order irrelevant: the build context
caches its ``(s, dtype)`` scan constants, and where and when they were
uploaded moves a later program's timeline by a few ns, so a caller that
needs repeatable timings lowers in a fixed order (the pool flush does).

Build-device residency: all capture-time GM traffic lands on the build
device, so pool members' GM accounting (and the fuzz harness's GM
invariants) are untouched by graph serving; members only ever replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.api import (
    FOLDABLE_SCAN_ALGORITHMS,
    PLAN_1D_ALGORITHMS,
    ScanContext,
    ScanPlan,
    op_scan_tile,
)
from ..core.reference import stable_order
from ..errors import ConfigError, KernelError
from ..hw.datatypes import as_dtype, cube_accum_dtype
from ..ops.driver import AscendOps
from ..ops.elementwise import ElementwiseMapKernel
from ..ops.topp import TopPSampler
from ..serve.plan import PlanCache
from ..tune.space import WorkloadKey, resolve_candidate
from .fuse import FUSION_MODES, SORTED_INPUT, FusedNode, lowering_units
from .ir import Graph, Node
from .numerics import host_numerics
from .op import (
    ELEMENTWISE_FNS,
    SERVED_DIGIT_BITS,
    OpNode,
    TensorSpec,
    get_op,
    top_p_scan_length,
)

__all__ = [
    "LoweredNode",
    "GraphPlanCache",
    "GraphRunner",
    "top_p_device_sample",
]

#: algorithms a scan node may take from the TuneStore: the graph scan
#: contract is accumulator-dtype output (see :class:`~repro.graph.op.ScanOp`),
#: which the in-dtype ``vector`` baseline does not give
_GRAPH_SCAN_ALGORITHMS = tuple(a for a in PLAN_1D_ALGORITHMS if a != "vector")


def top_p_device_sample(
    ops: AscendOps,
    probs: np.ndarray,
    ids: np.ndarray,
    *,
    p: float,
    theta: float,
    s: "int | None" = None,
    presorted: bool = False,
) -> np.ndarray:
    """Device top-p pipeline (radix sort + MCScan cumsum + predicate
    counts) with the winner looked up in ``ids`` — the lowering behind the
    ``top_p_sample`` op.  ``presorted`` skips the sort: ``probs`` must
    already be non-increasing, as a ``topk`` output is.  An ``s`` of None
    takes the tile :func:`~repro.core.api.op_scan_tile` sizes to
    ``probs``, as the op's lowering does."""
    if s is None:
        n = probs.size
        s = op_scan_tile(
            ops.config, lambda t: top_p_scan_length(n, t, presorted)
        )
    sampler = TopPSampler(ops, s=s, digit_bits=SERVED_DIGIT_BITS)
    if presorted:
        return sampler.sample_sorted(probs, ids, p, theta).values
    res = sampler.sample(probs, p, backend="cube", theta=theta)
    token = int(ids[int(res.values[0])])
    return np.asarray([token], dtype=np.int64)


def _presorted_top_p(ops, inputs, params) -> "tuple[np.ndarray]":
    """``TopPSampleOp.device_run`` for a sampler fed by ``topk``."""
    token = top_p_device_sample(
        ops,
        *inputs,
        p=params["p"],
        theta=params["theta"],
        s=params["s"],
        presorted=True,
    )
    return (token,)


@dataclass
class LoweredNode:
    """One op kind at one shape class, lowered to replayable device
    programs.  ``traced`` replays on any device sharing the build config
    (timelines are memoized per config identity)."""

    kind: str
    shape_class: tuple
    #: captured device programs, in launch order
    traced: "list"
    #: True when the build-time device-vs-oracle check ran bit-exactly;
    #: None when delegated (scan plans validate inside build_plan)
    validated: "bool | None"
    #: host seconds the capture + differential validation cost (cold)
    build_host_s: float = 0.0
    #: True when a TuneStore entry picked the configuration (scan nodes)
    tuned: bool = False
    #: the owning scan plan, when the node lowered through the plan cache
    plan: "ScanPlan | None" = None
    replays: int = 0
    #: for fused regions: positional ``(member kind, device-time weight)``
    #: pairs summing to 1 — weights attribute a replayed region's span back
    #: to the original node kinds (empty for unfused nodes)
    members: "tuple" = ()

    @property
    def launches(self) -> int:
        return len(self.traced)

    def device_ns(self, device) -> float:
        """Simulated ns of one replay of this node (memoized timelines)."""
        return sum(device.time_traced(t) for t in self.traced)


class GraphPlanCache:
    """Build-once store of :class:`LoweredNode` keyed on
    ``(kind, shape_class)`` — the graph analogue of the scan PlanCache."""

    def __init__(self):
        self._lowered: "dict[tuple, LoweredNode]" = {}
        self.hits = 0
        self.misses = 0
        self.build_host_s = 0.0

    def get(self, key: tuple) -> "LoweredNode | None":
        low = self._lowered.get(key)
        if low is not None:
            self.hits += 1
        return low

    def put(self, key: tuple, low: LoweredNode) -> None:
        self.misses += 1
        self.build_host_s += low.build_host_s
        self._lowered[key] = low

    def __len__(self) -> int:
        return len(self._lowered)

    def __contains__(self, key: tuple) -> bool:
        return key in self._lowered

    def peek(self, key: tuple) -> "LoweredNode | None":
        """The lowered node for ``key``, or None, without counting a hit."""
        return self._lowered.get(key)

    def stats(self) -> dict:
        """Cache counters, shaped like ``PlanCache.stats`` (the scan plan
        cache): size / hits / misses / build cost, plus graph-specific
        gauges (fused regions, replays, memoized-timeline hit rates)."""
        lowered = list(self._lowered.values())
        return {
            "lowered": len(lowered),
            "fused": sum(1 for l in lowered if l.members),
            "hits": self.hits,
            "misses": self.misses,
            "build_host_s": self.build_host_s,
            "launches": sum(l.launches for l in lowered),
            "tuned": sum(1 for l in lowered if l.tuned),
            "replays": sum(l.replays for l in lowered),
            "timeline_hits": sum(
                t.timeline_hits for l in lowered for t in l.traced
            ),
            "timeline_misses": sum(
                t.timeline_misses for l in lowered for t in l.traced
            ),
        }


@dataclass
class GraphRunner:
    """Lowers and interprets operator graphs against one device config.

    One runner is shared across a whole service (all pool members): the
    cache key is the shape class, and replayed timelines are valid on any
    member because every member runs the same config object.
    """

    config: "object"
    tune_store: "object | None" = None
    validate: bool = True
    #: graph-level fusion mode (see :func:`repro.graph.fuse.fuse_graph`):
    #: ``off`` lowers one program per node, ``conservative`` fuses
    #: elementwise chains, ``aggressive`` additionally folds pre/post maps
    #: into scan programs
    fusion: str = "conservative"
    ctx: ScanContext = field(init=False)
    ops: AscendOps = field(init=False)
    plans: PlanCache = field(init=False)
    cache: GraphPlanCache = field(init=False)

    def __post_init__(self):
        if self.fusion not in FUSION_MODES:
            raise ConfigError(
                f"unknown fusion mode {self.fusion!r}; known: {FUSION_MODES}"
            )
        self.ctx = ScanContext(self.config)
        self.ops = AscendOps(scan_context=self.ctx)
        self.plans = PlanCache(self.ctx, validate=self.validate)
        self.cache = GraphPlanCache()

    @property
    def device(self):
        return self.ctx.device

    # -- lowering -----------------------------------------------------------

    def lower(self, graph: Graph) -> "tuple[list, bool]":
        """Validate, fuse (per :attr:`fusion`) and lower every unit;
        returns (``[(unit, LoweredNode)]`` in topological order — a unit
        is a :class:`Node` or a :class:`FusedNode` region lowered to one
        captured program — and whether anything had to be built).

        Analysis, fusion and cache keys are memoized on the graph
        (:func:`~repro.graph.fuse.lowering_units`), so lowering a graph
        served before is one cache lookup per unit."""
        entries = []
        built = False
        for unit, key in lowering_units(graph, self.fusion, self.config):
            low = self.cache.get(key)
            if low is None:
                # every build starts from a cold L2, so no earlier
                # lowering's L2 residue moves this program's timeline
                # (the cached scan constants still can; see the module
                # docstring)
                self.device.flush_l2()
                low = self._build(unit, key, graph.valid_specs())
                self.cache.put(key, low)
                built = True
            entries.append((unit, low))
        return entries, built

    def replay_ns(self, graph: Graph) -> "float | None":
        """Simulated ns of one fault-free replay of ``graph``: its lowered
        kernels' memoized timelines summed in launch order — exactly what
        serving it charges.  Only peeks: None until every unit is lowered,
        and never a lowering or a counted graph-cache hit."""
        total = 0.0
        for _, key in lowering_units(graph, self.fusion, self.config):
            low = self.cache.peek(key)
            if low is None:
                return None
            for kernel in low.traced:
                total += self.device.time_traced(kernel)
        return total

    # -- building -----------------------------------------------------------

    def _build(
        self, unit: "Node | FusedNode", key: tuple, specs
    ) -> LoweredNode:
        """Lower one unit: a scan node through the plan cache, a fused
        scan region through :meth:`_build_fused_scan`, any other node or a
        fused map chain as its registered op's ``device_run``; the last
        two through :meth:`_capture`."""
        t0 = time.perf_counter()
        in_specs = [specs[e] for e in unit.inputs]
        if any(s.n is None for s in in_specs):
            raise ConfigError(
                f"node {unit.name!r} ({unit.kind}) consumes a data-dependent"
                f"-length edge; such edges can only be graph outputs"
            )
        if unit.kind == "scan":
            # through the plan cache, which validates the plan itself;
            # the LoweredNode keeps the plan alive so its program replays
            plan, tuned = self._scan_plan(in_specs[0], unit.params)
            low = LoweredNode(
                kind="scan",
                shape_class=key[1],
                traced=[plan.traced],
                validated=plan.validated,
                tuned=tuned,
                plan=plan,
            )
        elif unit.kind == "fused_scan":
            low = self._build_fused_scan(key, unit, in_specs[0])
        else:
            op = get_op(unit.kind)
            params = (
                op.resolve_params({"fns": unit.pre_fns})
                if isinstance(unit, FusedNode)
                else unit.params
            )
            low = self._build_op(op, key, params, in_specs)
        if isinstance(unit, FusedNode):
            low.members = self._member_weights(unit, low)
        low.build_host_s = time.perf_counter() - t0
        return low

    def _capture(
        self, key: tuple, run, expected, names, *, tuned=False, plan=None
    ) -> LoweredNode:
        """The build step of every captured unit: run ``run()`` once on
        the build device under ``capture_launches``, refuse an empty
        capture, check each output bit for bit against ``expected()``
        (output names ``names``) when :attr:`validate` is set, and wrap
        the captured kernels in a :class:`LoweredNode`."""
        kind = key[0]
        with self.device.capture_launches() as captured:
            got = run()
        if not captured:
            raise KernelError(f"lowering {kind} captured no device launches")
        validated = None
        if self.validate:
            for name, g, e in zip(names, got, expected()):
                if g.dtype != e.dtype or not np.array_equal(g, e):
                    raise KernelError(
                        f"graph lowering validation failed for {kind} "
                        f"output {name!r}: device and oracle diverge on "
                        f"the exactness-conditioned build input"
                    )
            validated = True
        return LoweredNode(
            kind=kind,
            shape_class=key[1],
            traced=list(captured),
            validated=validated,
            tuned=tuned,
            plan=plan,
        )

    def _build_op(
        self, op: "type[OpNode]", key: tuple, params: dict, in_specs
    ) -> LoweredNode:
        """An op's ``device_run`` on its exactness-conditioned
        validation inputs, checked against its oracle."""
        inputs = op.validation_inputs(in_specs, params)
        device_run = op.device_run
        if key[-1] == SORTED_INPUT:
            # a sampler fed by topk lowers without its sort; it validates
            # on the op's own recipe sorted the way the oracle sorts it
            order = stable_order(inputs[0], descending=True)
            inputs = [x[order] for x in inputs]
            device_run = _presorted_top_p
        return self._capture(
            key,
            lambda: device_run(self.ops, inputs, params),
            lambda: op.oracle(inputs, params),
            op.output_names,
        )

    def _member_weights(self, unit: FusedNode, low: LoweredNode) -> tuple:
        """Positional ``(kind, weight)`` pairs attributing the fused
        region's replayed device time back to its members: the scan member
        gets its standalone plan's share, map members split the remainder
        in proportion to their fn counts."""
        total = low.device_ns(self.device)
        counts = {
            m.name: len(get_op(m.kind).map_fns(m.params))
            for m in unit.members
            if m.kind != "scan"
        }
        tot_fns = float(sum(counts.values())) or 1.0
        if total <= 0:
            k = len(unit.members)
            return tuple((m.kind, 1.0 / k) for m in unit.members)
        if unit.scan_index is None:
            return tuple(
                (m.kind, counts[m.name] / tot_fns) for m in unit.members
            )
        scan_share = total / len(unit.members)
        if low.plan is not None:
            scan_share = min(low.plan.time_ns(), total)
        rem = max(total - scan_share, 0.0)
        return tuple(
            (m.kind, scan_share / total)
            if m.kind == "scan"
            else (m.kind, (rem / total) * (counts[m.name] / tot_fns))
            for m in unit.members
        )

    def _build_fused_scan(
        self, key: tuple, unit: FusedNode, in_spec: TensorSpec
    ) -> LoweredNode:
        """Capture one program for a map-chain / scan / map-chain region.

        The scan stage resolves exactly like an unfused scan node
        (:meth:`_scan_plan`) and shares the plan cache, so the
        standalone plan also prices the scan's share of the fused span.
        Post-maps fold into the scan kernel's vector stage when the
        algorithm exposes that seam
        (:data:`FOLDABLE_SCAN_ALGORITHMS`); otherwise they trail as one
        in-place multi-fn map pass.  The captured output is checked
        against the composition of the member oracles."""
        n = in_spec.n
        dtype = in_spec.dtype
        plan, tuned = self._scan_plan(in_spec, unit.scan_member.params)
        # the program pads to the plan's s x s tiles, so the plan's
        # resolved block_dim is the one a None would resolve to here
        algorithm, s, block_dim = plan.algorithm, plan.s, plan.block_dim

        pre = tuple(ELEMENTWISE_FNS[f] for f in unit.pre_fns)
        post = tuple(ELEMENTWISE_FNS[f] for f in unit.post_fns)
        foldable = algorithm in FOLDABLE_SCAN_ALGORITHMS
        folded = post if foldable else ()
        trailing = () if foldable else post

        ctx = self.ctx
        device = self.device
        dt = as_dtype(dtype)
        out_dt = cube_accum_dtype(dt)
        consts = ctx.constants(s, dt)
        ell = s * s
        # exactness-conditioned build input (the ScanOp family): small
        # integers keep every map stage and the accumulator cumsum exact,
        # so the differential check can demand bit equality
        rng = np.random.default_rng((0xC0FFEE, 11, n))
        if dtype == "fp16":
            x = rng.integers(-2, 3, n).astype(np.float16)
        else:
            x = rng.integers(-20, 21, n).astype(np.int8)

        def run():
            mark = device.memory.mark()
            try:
                x_gm, padded = ctx._upload_padded("fused_x", x, ell, dt)
                vbd = self.ops._vec_block_dim(padded)
                scan_in = x_gm
                if pre:
                    t_gm = device.alloc("fused_t", (padded,), dt)
                    if ctx.warm_inputs:
                        device.warm_l2(x_gm)
                    device.launch(
                        ElementwiseMapKernel(
                            x_gm, t_gm, pre, vbd, label="fused pre"
                        ),
                        label="fused pre",
                    )
                    scan_in = t_gm
                y_gm = device.alloc("fused_y", (padded,), out_dt)
                if ctx.warm_inputs:
                    device.warm_l2(scan_in, y_gm)
                kernel = ctx._cube_1d_kernel(
                    algorithm, scan_in, y_gm, consts, s, block_dim,
                    plan.exclusive, post_fns=folded,
                )
                device.launch(kernel, label=f"fused {algorithm}(s={s})")
                if trailing:
                    device.launch(
                        ElementwiseMapKernel(
                            y_gm, y_gm, trailing, vbd, label="fused post"
                        ),
                        label="fused post",
                    )
                return (y_gm.to_numpy()[:n],)
            finally:
                device.memory.release(mark)

        def expected():
            out = x
            for m in unit.members:
                out = get_op(m.kind).oracle([out], m.params)[0]
            return (out,)

        return self._capture(
            key, run, expected, ("values",), tuned=tuned, plan=plan
        )

    def _scan_plan(
        self, spec: TensorSpec, params: dict
    ) -> "tuple[ScanPlan, bool]":
        """(plan, tuned) for a scan node reading ``spec``: its
        configuration resolved as :meth:`ScanService.submit` resolves a
        request, less ``vector``, and its plan from the runner's plan
        cache."""
        n, dtype, exclusive = spec.n, spec.dtype, bool(params["exclusive"])
        cand, tuned = resolve_candidate(
            WorkloadKey("1d", n, dtype, exclusive), self.tune_store,
            algorithm=params["algorithm"], s=params["s"], allowed=_GRAPH_SCAN_ALGORITHMS,
        )
        key = self.plans.key_1d(
            cand.algorithm, n, dtype, s=cand.s, exclusive=exclusive,
            block_dim=cand.block_dim,
        )
        return self.plans.get_1d(key, tuned=tuned), tuned

    # -- interpretation -----------------------------------------------------

    def replay(self, entries, device=None) -> "list":
        """Replay every node's captured programs on ``device`` (default:
        the build device); returns the traces in launch order.  Numerics
        are the caller's oracle — this is pure device-time accounting."""
        device = device if device is not None else self.device
        traces = []
        for node, low in entries:
            low.replays += 1
            for tk in low.traced:
                traces.append(device.replay(tk, label=f"graph {node.name}"))
        return traces

    def execute(
        self, graph: Graph, inputs, *, params_override=None, device=None
    ) -> "GraphRunResult":
        """Lower (or hit the cache), replay, and evaluate the served
        numerics (:func:`~repro.graph.numerics.host_numerics`) — the
        one-call interpreter used by the example, the CLI demo and the
        differential tests.  Serving does the same steps with batching,
        retry and stats around them: the numerics at submit
        (`ScanService._prepare_graph`), lowering and per-kernel replay
        under retry at flush (`ScanService._serve`, which hands graph
        groups to `_serve_graph`)."""
        entries, _ = self.lower(graph)
        traces = self.replay(entries, device=device)
        outputs = host_numerics(graph)(graph.bind(inputs), params_override)
        per_node = {}
        i = 0
        for unit, low in entries:
            span = traces[i : i + low.launches]
            i += low.launches
            ns = sum(t.total_ns for t in span)
            if isinstance(unit, FusedNode) and low.members:
                # attribute the fused span back to the original nodes
                for m, (_, w) in zip(unit.members, low.members):
                    per_node[m.name] = per_node.get(m.name, 0.0) + ns * w
            else:
                per_node[unit.name] = ns
        return GraphRunResult(
            outputs=outputs,
            traces=traces,
            node_ns=per_node,
        )


@dataclass
class GraphRunResult:
    """Served outputs + replayed device accounting of one graph run."""

    outputs: "tuple[np.ndarray, ...]"
    traces: "list"
    #: node name -> summed simulated ns of its launches
    node_ns: "dict[str, float]"

    @property
    def time_ns(self) -> float:
        return sum(t.total_ns for t in self.traces)

    @property
    def launches(self) -> int:
        return len(self.traces)
