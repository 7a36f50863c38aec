"""Graph-level fusion: group fusible regions into :class:`FusedNode`\\ s.

The pass runs after toposort/type inference and *only* changes how the
interpreter lowers the graph — the IR, its signature, and the host oracle
(:meth:`Graph.run_oracle`) are untouched, so served numerics are identical
with fusion on or off by construction.  What changes is the captured
device program: a fused region becomes **one** program (one launch chain,
intermediates kept in UB) instead of one program per node.

Regions and legality
--------------------
Two region shapes are recognised, controlled by the ``fusion`` knob:

* ``conservative`` — chains of spec-preserving elementwise maps
  (``fusable_map`` ops whose input and output :class:`TensorSpec` are
  equal and statically shaped).  Lowered through
  :class:`~repro.graph.op.FusedElementwiseOp` as one multi-fn
  :class:`~repro.ops.elementwise.ElementwiseMapKernel` pass.
* ``aggressive`` — additionally absorbs a ``scan`` node between a map
  chain and a trailing map chain (``elementwise→scan``,
  ``scan→elementwise``, or both), folding the epilogue into the scan
  kernel's vector stage where the algorithm exposes that seam
  (:data:`~repro.core.api.FOLDABLE_SCAN_ALGORITHMS`).

An intermediate edge may be fused over only when it has **exactly one
consumer** and is **not a graph output** — otherwise the edge's value must
materialise in GM and the region is cut at that point.  ``off`` disables
the pass entirely (byte-identical lowering to the pre-fusion runner).

:func:`lowering_units` memoizes the pass on the graph, per mode, together
with each unit's name-free runner cache key, so a served graph is fused
and keyed once, not once per request.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .ir import Graph, Node
from .op import get_op

__all__ = ["FUSION_MODES", "FusedNode", "fuse_graph", "lowering_units"]

FUSION_MODES = ("off", "conservative", "aggressive")


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

    # consumer multiplicity per edge: every node-input occurrence plus
    # every graph-output occurrence pins the edge (it must materialise)
    consumers: "dict[str, int]" = {}
    sole_consumer: "dict[str, Node]" = {}
    for node in graph.nodes:
        for edge in node.inputs:
            consumers[edge] = consumers.get(edge, 0) + 1
            sole_consumer[edge] = node
    for edge in graph.outputs:
        consumers[edge] = consumers.get(edge, 0) + 1

    def fusible_edge(edge: str) -> bool:
        return consumers.get(edge, 0) == 1 and edge in sole_consumer

    def next_member(node: Node) -> "Node | None":
        """The sole consumer of ``node``'s single output edge, or None
        when the edge is pinned (multi-consumer or a graph output)."""
        edges = node.output_edges()
        if len(edges) != 1 or not fusible_edge(edges[0]):
            return None
        return sole_consumer[edges[0]]

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
            nxt = next_member(cursor)
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


def _unit_key(unit: "Node | FusedNode", specs) -> tuple:
    """The runner's cache key of one lowering unit.  A node keys on
    ``(kind, shape_class)``; a fused region on its fn chain(s) plus the
    member shape classes, name-free, so two regions with equal keys
    replay the same captured program."""
    if isinstance(unit, Node):
        op = get_op(unit.kind)
        in_specs = [specs[e] for e in unit.inputs]
        return (unit.kind, op.shape_class(in_specs, unit.params))
    in_spec = specs[unit.inputs[0]]
    if unit.kind == "fused_elementwise":
        op = get_op("fused_elementwise")
        params = op.resolve_params({"fns": unit.pre_fns})
        return ("fused_elementwise", op.shape_class([in_spec], params))
    scan = unit.scan_member
    scan_sc = get_op("scan").shape_class([specs[scan.inputs[0]]], scan.params)
    return ("fused_scan", (unit.pre_fns, scan_sc, unit.post_fns))


def lowering_units(graph: Graph, mode: str) -> "tuple[tuple, ...]":
    """``(unit, cache key)`` pairs of the validated ``graph`` fused under
    ``mode``, in topological order — memoized on the graph until it next
    changes."""
    return graph.memoized(("units", mode), _lowering_units, graph, mode)


def _lowering_units(graph: Graph, mode: str) -> "tuple[tuple, ...]":
    specs = graph.valid_specs()
    return tuple((unit, _unit_key(unit, specs)) for unit in fuse_graph(graph, mode))
