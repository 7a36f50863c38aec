"""A served graph's host numerics, compiled once per graph.

:meth:`Graph.run_oracle <repro.graph.ir.Graph.run_oracle>` walks a graph
node by node, calling each op's NumPy oracle: the reference every served
output is compared against.  :func:`host_numerics` compiles the same
arithmetic into fewer NumPy passes, once per graph, the way a code
generator builds one program from per-op emitters instead of
interpreting the graph per call.  The compiled steps are:

* **map chains as one table** — a maximal chain of ``fusable_map``
  nodes along single-consumer edges that are not graph outputs.  On an
  8- or 16-bit dtype it becomes one ``take`` from a table holding the
  chain's value of every bit pattern (:func:`map_table`), built by
  applying the chain's :data:`~repro.graph.op.ELEMENTWISE_FNS` callables
  to all patterns with the oracle's ``astype`` after each fn.  On a wider
  dtype (the fp32/int32 output of a scan) the callables run in sequence
  without the oracle's per-fn copy.
* **maps around a scan** — a chain that feeds a ``scan`` folds into the
  scan's widening table (:func:`widen_table`, passed to
  :func:`~repro.core.replay.scan_into`): ``abs`` then an fp16 scan widens
  through the fp32 table of ``|x|``.
* **no re-sort after topk** — a ``top_p_sample`` fed straight by ``topk``
  (:func:`~repro.graph.fuse.sorted_by_topk`, the predicate the sort-free
  lowering uses) samples without its ``stable_order``: topk's values
  already come out in that order (ties, ±0 and NaNs each share a rank),
  so the stable re-sort is the identity.
* every other node calls its op's oracle unchanged.

Each step does what the oracle does to the same bits, so the outputs are
bit-identical to ``run_oracle``'s (``tests/graph/test_host_numerics.py``
checks every table on all bit patterns and the compiled graphs against
``run_oracle``).  The compiled numerics depend on the graph alone — not on
the fusion mode or the device config — since they run at submit, before
anything is lowered, and served numerics are the same in every mode.
Tables are memoized per (fns, dtype), like the sort-rank tables of
:func:`~repro.core.reference.stable_order`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.reference import accum_np_dtype
from ..core.replay import _FP16_TO_FP32, _PATTERN_DTYPES, scan_into
from .fuse import chain_successors, sorted_by_topk
from .ir import Graph, Node
from .op import ELEMENTWISE_FNS, get_op, np_dtype_of

__all__ = ["HostNumerics", "host_numerics", "map_table", "widen_table"]


@lru_cache(maxsize=None)
def map_table(fns: "tuple[str, ...]", dt: np.dtype) -> np.ndarray:
    """The value of the map chain ``fns`` at every bit pattern of the 8-
    or 16-bit ``dt``, indexed by the pattern: each fn applied as
    :meth:`MapOp.oracle <repro.graph.op.MapOp.oracle>` applies it, the
    dtype re-applied after each.  Overflow (an fp16 ``double`` past
    65504) rounds as it does in the oracle, without its warnings."""
    raw = _PATTERN_DTYPES[dt.itemsize]
    table = np.arange(1 << (8 * dt.itemsize), dtype=raw).view(dt)
    with np.errstate(all="ignore"):
        for name in fns:
            table = np.asarray(ELEMENTWISE_FNS[name](table)).astype(dt)
    table.flags.writeable = False  # one shared instance per key
    return table


@lru_cache(maxsize=None)
def widen_table(fns: "tuple[str, ...]", dt: np.dtype) -> np.ndarray:
    """The accumulator-dtype value of the map chain ``fns`` at every bit
    pattern of a scan's input dtype ``dt`` (fp16 or int8): the chain's
    :func:`map_table`, widened exactly (fp16 through the fp32 table the
    served scans widen by)."""
    mapped = map_table(fns, dt)
    if dt == np.float16:
        table = _FP16_TO_FP32.take(mapped.view(np.uint16))
    else:
        table = mapped.astype(accum_np_dtype(dt))
    table.flags.writeable = False
    return table


def _fns(nodes, params) -> "tuple[str, ...]":
    return tuple(
        fn for node, p in zip(nodes, params) for fn in get_op(node.kind).map_fns(p)
    )


def _map_step(chain, dt: np.dtype):
    """One map chain: a table lookup on 8/16-bit data, else the fns in
    sequence, cast back without a copy."""
    default = _fns(chain, [m.params for m in chain])
    if dt.itemsize > 2:

        def run(args, params):
            x = args[0]
            for name in default if params is None else _fns(chain, params):
                x = np.asarray(ELEMENTWISE_FNS[name](x)).astype(dt, copy=False)
            return (x,)

        return run
    table = map_table(default, dt)
    raw = _PATTERN_DTYPES[dt.itemsize]

    def run(args, params):
        t = table if params is None else map_table(_fns(chain, params), dt)
        return (t.take(args[0].view(raw)),)

    return run


def _scan_step(pre, scan: Node, dt: np.dtype):
    """A scan whose input the map chain ``pre`` (maybe empty) produced:
    the chain folds into the widening table."""
    table = widen_table(_fns(pre, [m.params for m in pre]), dt) if pre else None
    acc = accum_np_dtype(dt)

    def run(args, params):
        x = args[0]
        t, exclusive = table, scan.params["exclusive"]
        if params is not None:
            if pre:
                t = widen_table(_fns(pre, params[:-1]), dt)
            exclusive = params[-1]["exclusive"]
        out = np.empty(x.shape, acc)
        return (scan_into(out, [x], exclusive=exclusive, table=t),)

    return run


def _oracle_step(node: Node, **kw):
    oracle = get_op(node.kind).oracle

    def run(args, params):
        return oracle(args, node.params if params is None else params[0], **kw)

    return run


class HostNumerics:
    """One graph's compiled host numerics (see the module docstring):
    ``numerics(inputs, params_override)`` returns what
    ``graph.run_oracle(inputs, params_override)`` returns, for inputs
    already bound by :meth:`Graph.bind <repro.graph.ir.Graph.bind>`."""

    def __init__(self, graph: Graph):
        specs = graph.valid_specs()
        successors = chain_successors(graph)
        producers = graph.producers()
        steps = []
        claimed: "set[str]" = set()
        pre_chains: "dict[str, list[Node]]" = {}
        for node, op, out_edges in graph._steps():
            if node.name in claimed:
                continue
            if op.fusable_map:
                chain = [node]
                nxt = successors.get(node.name)
                while nxt is not None and get_op(nxt.kind).fusable_map:
                    chain.append(nxt)
                    nxt = successors.get(nxt.name)
                claimed.update(m.name for m in chain)
                if nxt is not None and nxt.kind == "scan":
                    pre_chains[nxt.name] = chain
                    continue
                dt = np_dtype_of(specs[node.inputs[0]].dtype)
                run = _map_step(chain, dt)
                members = chain
            elif node.kind == "scan":
                pre = pre_chains.pop(node.name, [])
                members = pre + [node]
                dt = np_dtype_of(specs[members[0].inputs[0]].dtype)
                run = _scan_step(pre, node, dt)
            elif sorted_by_topk(node, producers):
                run = _oracle_step(node, presorted=True)
                members = [node]
            else:
                run = _oracle_step(node)
                members = [node]
            steps.append(
                (
                    run,
                    tuple(members),
                    frozenset(m.name for m in members),
                    members[0].inputs,
                    members[-1].output_edges(),
                )
            )
        self.steps = tuple(steps)
        self.outputs = tuple(graph.outputs)

    def __call__(
        self, inputs: "dict[str, np.ndarray]", params_override=None
    ) -> "tuple[np.ndarray, ...]":
        values = dict(inputs)
        overrides = params_override or {}
        for run, members, names, in_edges, out_edges in self.steps:
            params = None
            if not names.isdisjoint(overrides):
                params = [
                    get_op(m.kind).resolve_params({**m.params, **overrides[m.name]})
                    if m.name in overrides
                    else m.params
                    for m in members
                ]
            outs = run([values[e] for e in in_edges], params)
            values.update(zip(out_edges, outs))
        return tuple(values[e] for e in self.outputs)


def host_numerics(graph: Graph) -> HostNumerics:
    """The validated ``graph``'s :class:`HostNumerics`, compiled once and
    memoized on the graph until it next changes."""
    return graph.memoized("host_numerics", HostNumerics, graph)
