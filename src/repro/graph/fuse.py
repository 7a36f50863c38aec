"""Graph-level fusion: group fusible regions into :class:`FusedNode`\\ s.

The pass runs after toposort/type inference and *only* changes how the
interpreter lowers the graph — the IR, its signature, the host oracle
(:meth:`Graph.run_oracle`) and the served host numerics compiled from
the graph alone (:func:`~repro.graph.numerics.host_numerics`) are
untouched, so served numerics are identical with fusion on or off by
construction.  What changes is the captured device program: a fused
region becomes **one** program (one launch chain, intermediates kept in
UB) instead of one program per node.

Regions and legality
--------------------
Two region shapes are recognised, controlled by the ``fusion`` knob:

* ``conservative`` — chains of spec-preserving elementwise maps
  (``fusable_map`` ops whose input and output :class:`TensorSpec` are
  equal and statically shaped).  Lowered through
  :class:`~repro.graph.op.FusedElementwiseOp` (the same
  :class:`~repro.graph.op.MapOp` implementation an ``elementwise`` node
  has) as one multi-fn
  :class:`~repro.ops.elementwise.ElementwiseMapKernel` pass.
* ``aggressive`` — additionally absorbs a ``scan`` node between a map
  chain and a trailing map chain (``elementwise→scan``,
  ``scan→elementwise``, or both), folding the epilogue into the scan
  kernel's vector stage where the algorithm exposes that seam
  (:data:`~repro.core.api.FOLDABLE_SCAN_ALGORITHMS`).

Both region kinds are captured, checked bit for bit against the
composition of their member oracles and admitted by the runner's one
build step, the step every unfused op node goes through too.

An intermediate edge may be fused over only when it has **exactly one
consumer** and is **not a graph output** — otherwise the edge's value must
materialise in GM and the region is cut at that point.  ``off`` disables
the pass entirely (byte-identical lowering to the pre-fusion runner).

:func:`lowering_units` memoizes the pass on the graph, per mode and
device config, together with each unit's name-free runner cache key, so
a served graph is fused and keyed once, not once per request.  A node
whose internal scan tile ``s`` is None gets the tile sized to its input
on that config (:func:`~repro.core.api.op_scan_tile`), and the key names
the resolved tile.  The key also marks a ``top_p_sample`` that reads a
``topk`` output directly (:func:`sorted_by_topk`): its input is already
sorted, so the runner lowers it without the sort, in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.api import SWEEP_S, op_scan_tile
from ..errors import ConfigError
from .ir import Graph, Node
from .op import get_op

__all__ = [
    "FUSION_MODES",
    "SORTED_INPUT",
    "FusedNode",
    "chain_successors",
    "fuse_graph",
    "lowering_units",
    "sorted_by_topk",
]

FUSION_MODES = ("off", "conservative", "aggressive")

#: last element of the cache key of a ``top_p_sample`` unit lowered
#: without its sort (see :func:`sorted_by_topk`); every fusion mode
#: applies it, ``off`` included, since it is not fusion
SORTED_INPUT = "sorted_input"


@dataclass(frozen=True)
class FusedNode:
    """A fusible region: a run of member :class:`Node`\\ s lowered as one
    captured program.  ``kind`` is ``fused_elementwise`` (pure map chain)
    or ``fused_scan`` (map chain / scan / map chain)."""

    name: str
    kind: str
    #: member nodes in topological (chain) order
    members: "tuple[Node, ...]"
    #: edges read from outside the region (single edge for these chains)
    inputs: "tuple[str, ...]"
    #: edges the region exposes to the rest of the graph (the tail
    #: member's outputs; interior edges are fused away and never
    #: materialise)
    outputs: "tuple[str, ...]"

    @property
    def member_names(self) -> "tuple[str, ...]":
        return tuple(m.name for m in self.members)

    @property
    def scan_index(self) -> "int | None":
        for i, m in enumerate(self.members):
            if m.kind == "scan":
                return i
        return None

    @property
    def scan_member(self) -> "Node | None":
        i = self.scan_index
        return None if i is None else self.members[i]

    def _fns(self, members) -> "tuple[str, ...]":
        out: "list[str]" = []
        for m in members:
            out.extend(get_op(m.kind).map_fns(m.params))
        return tuple(out)

    @property
    def pre_fns(self) -> "tuple[str, ...]":
        """Flattened map-fn names before the scan (all of them for a pure
        elementwise region)."""
        i = self.scan_index
        return self._fns(self.members if i is None else self.members[:i])

    @property
    def post_fns(self) -> "tuple[str, ...]":
        """Flattened map-fn names after the scan (empty for a pure
        elementwise region)."""
        i = self.scan_index
        return () if i is None else self._fns(self.members[i + 1 :])


def _is_spec_preserving_map(node: Node, specs) -> bool:
    """True when ``node`` is a single-input ``fusable_map`` op whose
    output spec equals its input spec (dtype *and* static shape) — the
    dtype/shape legality rule for chaining."""
    op = get_op(node.kind)
    if not op.fusable_map:
        return False
    if len(node.inputs) != 1 or len(op.output_names) != 1:
        return False
    in_spec = specs[node.inputs[0]]
    out_spec = specs[node.output_edges()[0]]
    return in_spec == out_spec and in_spec.shape is not None


def fuse_graph(graph: Graph, mode: str = "conservative"):
    """Group fusible regions of ``graph`` into :class:`FusedNode`\\ s.

    Returns the topological node order with each fused region replaced by
    a single :class:`FusedNode` (singleton regions stay plain
    :class:`Node`\\ s).  Pure analysis — ``graph`` is not modified.
    """
    if mode not in FUSION_MODES:
        raise ConfigError(
            f"unknown fusion mode {mode!r}; known: {FUSION_MODES}"
        )
    order = graph.toposort()
    if mode == "off":
        return list(order)
    specs = graph.infer()
    successors = chain_successors(graph)

    def scan_fusible(node: Node) -> bool:
        # the competitor "vector" baseline has no cube/vector split to
        # fold an epilogue into, and changes the output dtype contract
        return node.kind == "scan" and node.params.get("algorithm") != "vector"

    used: "set[str]" = set()
    result: "list[Node | FusedNode]" = []
    for node in order:
        if node.name in used:
            continue
        is_map = _is_spec_preserving_map(node, specs)
        starts_scan = mode == "aggressive" and scan_fusible(node)
        if not is_map and not starts_scan:
            result.append(node)
            continue

        members = [node]
        has_scan = starts_scan
        cursor = node
        while True:
            nxt = successors.get(cursor.name)
            if nxt is None or nxt.name in used:
                break
            if _is_spec_preserving_map(nxt, specs):
                members.append(nxt)
                cursor = nxt
                continue
            if mode == "aggressive" and not has_scan and scan_fusible(nxt):
                members.append(nxt)
                cursor = nxt
                has_scan = True
                continue
            break

        if len(members) < 2:
            result.append(node)
            continue
        used.update(m.name for m in members)
        kind = "fused_scan" if has_scan else "fused_elementwise"
        result.append(
            FusedNode(
                name="+".join(m.name for m in members),
                kind=kind,
                members=tuple(members),
                inputs=tuple(members[0].inputs),
                outputs=tuple(members[-1].output_edges()),
            )
        )
    return result


def chain_successors(graph: Graph) -> "dict[str, Node]":
    """Node name -> the sole consumer of the node's single output edge,
    for every node whose one output edge has exactly one consumer and is
    not a graph output: the edges a chain may run over without the value
    materialising.  Every node-input occurrence and every graph-output
    occurrence counts as a use."""
    uses: "dict[str, int]" = {}
    consumer: "dict[str, Node]" = {}
    for node in graph.nodes:
        for edge in node.inputs:
            uses[edge] = uses.get(edge, 0) + 1
            consumer[edge] = node
    for edge in graph.outputs:
        uses[edge] = uses.get(edge, 0) + 1
    successors = {}
    for node in graph.nodes:
        edges = node.output_edges()
        if len(edges) == 1 and uses.get(edges[0]) == 1 and edges[0] in consumer:
            successors[node.name] = consumer[edges[0]]
    return successors


def sorted_by_topk(node: Node, producers: "dict[str, Node]") -> bool:
    """True when ``node`` is a ``top_p_sample`` whose ``probs`` and
    ``ids`` are exactly the ``values`` and ``indices`` edges of one
    ``topk`` node, in that order.  Its input is then already in the
    descending order the sampler would sort it into, and a stable sort
    of it is the identity, so the node lowers without its sort."""
    if node.kind != "top_p_sample":
        return False
    source = producers.get(node.inputs[0])
    return (
        source is not None
        and source.kind == "topk"
        and node.inputs == source.output_edges()
    )


def _keyed_unit(unit: "Node | FusedNode", specs, producers, config) -> tuple:
    """``(unit, runner cache key)`` of one lowering unit.  A node whose
    internal scan tile ``s`` is None (and whose op names a scan length,
    :meth:`~repro.graph.op.OpNode.scan_length`) first takes the tile
    :func:`~repro.core.api.op_scan_tile` picks on ``config``, so the unit
    carries the tile it builds, and keys on ``(kind, shape_class)``: a
    node whose ``s`` resolves to 64 replays the program of an explicit
    ``s=64``.  :data:`SORTED_INPUT` is appended when it samples a ``topk``
    output (:func:`sorted_by_topk`), so it never shares a program with a
    sampler that sorts.  A fused region keys on its fn chain(s) plus the
    member shape classes, name-free, so two regions with equal keys
    replay the same captured program."""
    if isinstance(unit, Node):
        op = get_op(unit.kind)
        in_specs = [specs[e] for e in unit.inputs]
        sorted_input = sorted_by_topk(unit, producers)

        def length(s: int) -> "int | None":
            return op.scan_length(in_specs, s, sorted_input)

        if unit.params.get("s") is None and length(SWEEP_S[-1]) is not None:
            s = op_scan_tile(config, length)
            unit = replace(unit, params={**unit.params, "s": s})
        key = (unit.kind, op.shape_class(in_specs, unit.params))
        if sorted_input:
            key += (SORTED_INPUT,)
        return unit, key
    in_spec = specs[unit.inputs[0]]
    if unit.kind == "fused_elementwise":
        op = get_op("fused_elementwise")
        params = op.resolve_params({"fns": unit.pre_fns})
        return unit, ("fused_elementwise", op.shape_class([in_spec], params))
    scan = unit.scan_member
    scan_sc = get_op("scan").shape_class([specs[scan.inputs[0]]], scan.params)
    return unit, ("fused_scan", (unit.pre_fns, scan_sc, unit.post_fns))


def lowering_units(graph: Graph, mode: str, config) -> "tuple[tuple, ...]":
    """``(unit, cache key)`` pairs of the validated ``graph`` fused under
    ``mode`` and lowered on device ``config``, in topological order —
    memoized on the graph until it next changes.  The memo keys on the
    config's identity, since hashing a ``DeviceConfig`` costs more than
    the lookup it serves; the entry holds the config, so no other config
    can take its id while the entry lives."""
    return graph.memoized(
        ("units", mode, id(config)), _lowering_units, graph, mode, config
    )[1]


def _lowering_units(graph: Graph, mode: str, config) -> tuple:
    specs = graph.valid_specs()
    producers = graph.producers()
    units = tuple(
        _keyed_unit(unit, specs, producers, config)
        for unit in fuse_graph(graph, mode)
    )
    return config, units
