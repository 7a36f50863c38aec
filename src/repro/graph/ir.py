"""Graph IR: nodes (operators) connected by named tensor edges.

A :class:`Graph` is a small dataflow program over the registered operator
zoo (:mod:`repro.graph.op`): graph *inputs* are named tensors with a
declared :class:`~repro.graph.op.TensorSpec`; each *node* applies one
registered op kind to a list of edges and produces one edge per declared
output (``<node>.<output_name>``); graph *outputs* name the edges the
caller receives back, in order.

:meth:`Graph.validate` runs the structural diagnostics — unknown op
kinds, bad parameters, arity mismatches, dangling (undefined) input
edges, duplicate edge producers, cycles (Kahn's algorithm, reporting the
stuck nodes), missing outputs — and then type inference, where each op's
:meth:`~repro.graph.op.OpNode.infer` checks dtypes/shapes edge by edge.
Everything raises :class:`~repro.errors.ConfigError` with the node name
in the message.  The deterministic topological order it produces (Kahn
with a FIFO ready queue over declaration order) is what the interpreter
executes and what :meth:`Graph.signature` hashes for plan caching.

Analysis is memoized on the graph: the topological order, the inferred
edge specs, the validation verdict and the signature (plus the fusion
units :mod:`repro.graph.fuse` derives from them) are computed once and
reused by every later submit, lowering and oracle run.  The mutators
:meth:`Graph.add_input`, :meth:`Graph.add_node` and
:meth:`Graph.set_outputs` are the only ways to change a graph, and each
drops the memo.  A failed analysis caches nothing, so an invalid graph
raises again on every call.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .op import TensorSpec, get_op, np_dtype_of

__all__ = ["Node", "Graph"]

_VALID_NAME = "edge and node names must be non-empty strings without '.'"


def _memoized(analysis):
    """Method decorator: ``analysis(graph)`` runs once per graph structure
    (see :meth:`Graph.memoized`)."""
    key = analysis.__name__

    @functools.wraps(analysis)
    def memo(self):
        return self.memoized(key, analysis, self)

    return memo


@dataclass(frozen=True)
class Node:
    """One operator application: ``name.<out> = kind(*inputs; params)``."""

    name: str
    kind: str
    #: names of the edges consumed, in op argument order
    inputs: "tuple[str, ...]"
    #: resolved parameters (defaults merged at add_node time)
    params: "dict"

    def output_edges(self) -> "tuple[str, ...]":
        op = get_op(self.kind)
        return tuple(f"{self.name}.{out}" for out in op.output_names)


@dataclass
class Graph:
    """A validated operator graph (build with :meth:`add_input` /
    :meth:`add_node` / :meth:`set_outputs`, then :meth:`validate`)."""

    name: str = "graph"
    #: graph input name -> declared spec, in declaration order
    inputs: "dict[str, TensorSpec]" = field(default_factory=dict)
    nodes: "list[Node]" = field(default_factory=list)
    #: edge names returned to the caller, in order
    outputs: "list[str]" = field(default_factory=list)
    #: structural analyses by key; emptied by every mutator
    _memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def memoized(self, key, compute, *args):
        """``compute(*args)``, computed once until the graph next changes.
        Values are shared with every later caller, so they must never be
        mutated (public accessors hand out copies of mutable ones)."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute(*args)
        return value

    # -- construction -------------------------------------------------------

    def add_input(self, name: str, dtype: str, shape=None) -> str:
        if not name or not isinstance(name, str) or "." in name:
            raise ConfigError(f"graph {self.name!r}: {_VALID_NAME}, got {name!r}")
        if name in self.inputs or any(n.name == name for n in self.nodes):
            raise ConfigError(
                f"graph {self.name!r}: duplicate name {name!r}"
            )
        shape = None if shape is None else tuple(int(d) for d in shape)
        self.inputs[name] = TensorSpec(dtype, shape)
        self._memo.clear()
        return name

    def add_node(
        self, name: str, kind: str, inputs, params: "dict | None" = None
    ) -> "tuple[str, ...]":
        """Append a node; returns its output edge names.  Op kind,
        parameter names and required parameters are checked eagerly —
        arity/dtype/shape checks happen in :meth:`validate`, which can see
        the whole graph."""
        if not name or not isinstance(name, str) or "." in name:
            raise ConfigError(f"graph {self.name!r}: {_VALID_NAME}, got {name!r}")
        if name in self.inputs or any(n.name == name for n in self.nodes):
            raise ConfigError(f"graph {self.name!r}: duplicate name {name!r}")
        op = get_op(kind)
        node = Node(
            name=name,
            kind=kind,
            inputs=tuple(inputs),
            params=op.resolve_params(params),
        )
        self.nodes.append(node)
        self._memo.clear()
        return node.output_edges()

    def set_outputs(self, outputs) -> None:
        self.outputs = list(outputs)
        self._memo.clear()

    # -- structure ----------------------------------------------------------

    def producers(self) -> "dict[str, Node]":
        """edge name -> producing node (graph inputs excluded); raises on
        duplicate producers."""
        prod: "dict[str, Node]" = {}
        for node in self.nodes:
            for edge in node.output_edges():
                if edge in self.inputs:
                    raise ConfigError(
                        f"graph {self.name!r}: node {node.name!r} output "
                        f"{edge!r} collides with a graph input"
                    )
                if edge in prod:
                    raise ConfigError(
                        f"graph {self.name!r}: edge {edge!r} produced by "
                        f"both {prod[edge].name!r} and {node.name!r}"
                    )
                prod[edge] = node
        return prod

    def toposort(self) -> "list[Node]":
        """Deterministic topological order (Kahn, FIFO over declaration
        order).  Raises :class:`ConfigError` naming dangling edges or the
        nodes stuck on a cycle."""
        return [node for node, _, _ in self._steps()]

    @_memoized
    def _steps(self) -> "tuple[tuple[Node, type, tuple[str, ...]], ...]":
        """The topological order as ``(node, op class, output edges)``
        triples — what inference and the oracle walk."""
        prod = self.producers()
        for node in self.nodes:
            for edge in node.inputs:
                if edge not in self.inputs and edge not in prod:
                    raise ConfigError(
                        f"graph {self.name!r}: node {node.name!r} reads "
                        f"dangling edge {edge!r} (not a graph input and no "
                        f"node produces it)"
                    )
        indegree = {node.name: 0 for node in self.nodes}
        consumers: "dict[str, list[Node]]" = {}
        for node in self.nodes:
            for edge in node.inputs:
                producer = prod.get(edge)
                if producer is not None:
                    indegree[node.name] += 1
                    consumers.setdefault(producer.name, []).append(node)
        ready = deque(n for n in self.nodes if indegree[n.name] == 0)
        order: "list[Node]" = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for consumer in consumers.get(node.name, ()):
                indegree[consumer.name] -= 1
                if indegree[consumer.name] == 0:
                    ready.append(consumer)
        if len(order) != len(self.nodes):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise ConfigError(
                f"graph {self.name!r}: cycle through node(s) {stuck}"
            )
        return tuple(
            (node, get_op(node.kind), node.output_edges()) for node in order
        )

    # -- typing -------------------------------------------------------------

    def infer(self) -> "dict[str, TensorSpec]":
        """Edge name -> inferred spec for every edge (inputs included).
        Runs each op's dtype/shape checks in topological order."""
        return dict(self._specs())

    @_memoized
    def _specs(self) -> "dict[str, TensorSpec]":
        specs: "dict[str, TensorSpec]" = dict(self.inputs)
        for node, op, out_edges in self._steps():
            in_specs = [specs[e] for e in node.inputs]
            try:
                out_specs = op.infer(in_specs, node.params)
            except ConfigError as exc:
                raise ConfigError(
                    f"graph {self.name!r}: node {node.name!r}: {exc}"
                ) from None
            for edge, spec in zip(out_edges, out_specs):
                specs[edge] = spec
        return specs

    def validate(self) -> "dict[str, TensorSpec]":
        """Full structural + type validation; returns the edge specs."""
        return dict(self.valid_specs())

    @_memoized
    def valid_specs(self) -> "dict[str, TensorSpec]":
        """:meth:`validate` without the copy: the memoized edge specs of a
        valid graph, for callers that only read them."""
        if not self.nodes:
            raise ConfigError(f"graph {self.name!r} has no nodes")
        if not self.outputs:
            raise ConfigError(f"graph {self.name!r} declares no outputs")
        specs = self._specs()
        for edge in self.outputs:
            if edge not in specs:
                raise ConfigError(
                    f"graph {self.name!r}: output {edge!r} is not a known "
                    f"edge"
                )
        return specs

    @_memoized
    def signature(self) -> tuple:
        """Hashable identity of the lowered program: per-node (kind,
        shape-class, input edges) in topological order plus the output
        wiring — the input wiring decides fusion regions and whether a
        sampler keeps its sort.  Two graphs with equal signatures replay
        the same captured device programs, so this is the batcher's
        coalescing key."""
        specs = self.valid_specs()
        node_sigs = []
        for node, op, _ in self._steps():
            in_specs = [specs[e] for e in node.inputs]
            node_sigs.append(
                (node.kind, op.shape_class(in_specs, node.params), node.inputs)
            )
        return (self.name, tuple(node_sigs), tuple(self.outputs))

    # -- execution (host oracle) --------------------------------------------

    def bind(self, inputs) -> "dict[str, np.ndarray]":
        """Normalize caller inputs (dict or sequence in declaration order)
        into edge-name -> array, checking dtype and declared shape."""
        if not isinstance(inputs, dict):
            seq = list(inputs)
            if len(seq) != len(self.inputs):
                raise ConfigError(
                    f"graph {self.name!r} takes {len(self.inputs)} input(s) "
                    f"({list(self.inputs)}), got {len(seq)}"
                )
            inputs = dict(zip(self.inputs, seq))
        missing = set(self.inputs) - set(inputs)
        extra = set(inputs) - set(self.inputs)
        if missing or extra:
            raise ConfigError(
                f"graph {self.name!r}: input mismatch "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        bound = {}
        for name, spec in self.inputs.items():
            x = np.ascontiguousarray(inputs[name])
            want = np_dtype_of(spec.dtype)
            if x.dtype != want:
                raise ConfigError(
                    f"graph {self.name!r}: input {name!r} must be "
                    f"{spec.dtype}, got {x.dtype}"
                )
            if spec.shape is not None and tuple(x.shape) != spec.shape:
                raise ConfigError(
                    f"graph {self.name!r}: input {name!r} must have shape "
                    f"{spec.shape}, got {tuple(x.shape)}"
                )
            bound[name] = x
        return bound

    def run_oracle(self, inputs, params_override=None) -> "tuple[np.ndarray, ...]":
        """Evaluate the graph on host with every op's NumPy oracle, node by
        node — the reference served outputs are compared against (serving
        runs the graph's compiled form,
        :func:`~repro.graph.numerics.host_numerics`, bit-identical to
        this).  ``params_override`` maps node name -> dict of runtime
        parameter values (e.g. a per-request sampling ``theta``)."""
        values = self.bind(inputs)
        overrides = params_override or {}
        for node, op, out_edges in self._steps():
            params = node.params
            if node.name in overrides:
                params = op.resolve_params({**params, **overrides[node.name]})
            outs = op.oracle([values[e] for e in node.inputs], params)
            for edge, val in zip(out_edges, outs):
                values[edge] = val
        return tuple(values[e] for e in self.outputs)
