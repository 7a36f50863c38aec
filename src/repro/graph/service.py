"""Graph serving types + canned graphs.

:class:`GraphRequest` duck-types :class:`~repro.serve.batcher.ScanRequest`
just enough for the shared :class:`~repro.serve.batcher.RequestBatcher`
queue (``req_id``/``t_submit`` plus the ``graph_key`` marker the drain
branches on); :class:`GraphKey` is the coalescing key — the graph's
lowered-program signature — shaped like a
:class:`~repro.serve.plan.PlanKey` with ``batch=None`` so graph groups
pass through the batcher whole.  :class:`GraphTicket` extends
:class:`~repro.serve.service.ScanTicket`: ``values`` holds the tuple of
output arrays in ``graph.outputs`` order, computed at submit and
attached once the request's replay succeeds.

Served numerics are the graph's compiled host numerics
(:func:`~repro.graph.numerics.host_numerics`, reached through
:func:`graph_oracle_job`): map chains as table lookups, the sampler
without a re-sort after ``topk``, every other node its op's oracle.
They are bit-identical to :meth:`Graph.run_oracle`
(:func:`oracle_outputs`), which stays the reference the tests and the
benchmark compare served outputs against.

The canned graphs are the repo's two first-class graph workloads:
:func:`llm_sample` (top-k → top-p nucleus sampling, the
``examples/llm_sampling.py`` pipeline as a served graph) and
:func:`sort_graph` (full radix sort, the ``torch.sort`` contract).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..serve.service import ScanTicket
from .ir import Graph
from .numerics import host_numerics

__all__ = [
    "GraphKey",
    "GraphRequest",
    "GraphTicket",
    "llm_sample",
    "sort_graph",
    "scan_graph",
    "scan_pipeline",
    "oracle_outputs",
    "graph_oracle_job",
]


@dataclass(frozen=True)
class GraphKey:
    """Batcher coalescing key for graph requests (hashable; equal keys =
    same lowered programs).  It has the two ``PlanKey`` fields the shared
    serving code reads of any group key: ``batch`` and ``padded``."""

    graph: str
    #: Graph.signature() — per-node (kind, shape-class, inputs) + output
    #: wiring
    signature: tuple
    #: total input elements (per request): the pool's cold-flush order key
    padded: int
    #: None keeps graph groups on the batcher's pass-through-whole path
    batch: "None" = None


@dataclass
class GraphRequest:
    """One queued graph request (internal to the service)."""

    req_id: int
    graph: Graph
    #: input edge name -> bound array (validated by Graph.bind)
    inputs: "dict[str, np.ndarray]"
    #: node name -> runtime parameter overrides (e.g. sampling theta)
    params: "dict | None"
    graph_key: GraphKey
    #: served outputs in ``graph.outputs`` order, computed at submit by
    #: the compiled host numerics (bit-identical to ``run_oracle``)
    outputs: "tuple[np.ndarray, ...]"
    #: host clock (perf_counter) at submit, for per-request latency
    t_submit: float = field(default_factory=time.perf_counter)

    @property
    def n(self) -> int:
        return sum(v.size for v in self.inputs.values())


@dataclass
class GraphTicket(ScanTicket):
    """Handle for one submitted graph request; ``values`` is the tuple of
    output arrays in ``graph.outputs`` order."""

    #: graph name (the ScanTicket ``algorithm`` field reads "graph")
    graph: str = ""
    #: device launches replayed to serve the request
    launches: int = 0
    #: operator nodes in the served graph
    nodes: int = 0

    def result(self) -> "tuple[np.ndarray, ...]":
        if not self.done:
            raise RuntimeError(
                f"graph request {self.req_id} is still queued; call "
                f"flush() first"
            )
        return self.values


# -- canned graphs -----------------------------------------------------------


def llm_sample(
    vocab: int,
    *,
    k: int = 32,
    p: float = 0.9,
    theta: float = 0.5,
    method: str = "baseline",
    s: "int | None" = None,
    prep: "tuple[str, ...]" = (),
) -> Graph:
    """Top-k → top-p nucleus sampling over a ``vocab``-sized fp16
    probability row: ``topk`` narrows to the k largest, ``top_p_sample``
    sorts/cumsums the survivors and samples at ``theta`` — the
    ``examples/llm_sampling.py`` pipeline as one served graph.  Outputs:
    the sampled token id (int64), plus the top-k values/ids.

    ``s`` is both nodes' scan tile.  Left None, the sampler's cumsum
    takes the tile the runner sizes to its k inputs and ``topk`` keeps
    its own default (see :class:`~repro.graph.op.TopKOp`).

    ``prep`` prepends a chain of named elementwise maps to the
    probability row (e.g. ``("abs", "double")`` — a stand-in for logit
    post-processing); single-consumer and spec-preserving, the chain is
    exactly what the fusion pass collapses into one program."""
    if k > vocab:
        raise ConfigError(f"llm_sample k={k} exceeds vocab {vocab}")
    g = Graph(name="llm_sample")
    probs = g.add_input("probs", "fp16", (vocab,))
    for i, fn in enumerate(prep):
        (probs,) = g.add_node(f"prep{i}", "elementwise", [probs], {"fn": fn})
    topk = {"k": k, "method": method}
    if s is not None:
        topk["s"] = s
    tk_v, tk_i = g.add_node("topk", "topk", [probs], topk)
    (token,) = g.add_node(
        "sample",
        "top_p_sample",
        [tk_v, tk_i],
        {"p": p, "theta": theta, "s": s},
    )
    g.set_outputs([token, tk_v, tk_i])
    g.validate()
    return g


def sort_graph(
    n: int,
    *,
    dtype: str = "fp16",
    descending: bool = False,
    s: "int | None" = None,
) -> Graph:
    """Full stable sort of one column — the ``torch.sort`` contract
    (values + original indices) as a one-node graph.  An ``s`` of None
    lets the runner size the digit passes' scan tile to ``n``."""
    g = Graph(name="sort")
    x = g.add_input("x", dtype, (n,))
    vals, idx = g.add_node(
        "rsort", "radix_sort", [x], {"descending": descending, "s": s}
    )
    g.set_outputs([vals, idx])
    g.validate()
    return g


def scan_graph(
    n: int,
    *,
    dtype: str = "fp16",
    exclusive: bool = False,
    algorithm: "str | None" = None,
    s: "int | None" = None,
) -> Graph:
    """A raw prefix sum as a one-node graph (TuneStore-resolved when
    ``algorithm`` is None) — lets graph and scan traffic mix in one
    service queue."""
    g = Graph(name="scan")
    x = g.add_input("x", dtype, (n,))
    (y,) = g.add_node(
        "scan",
        "scan",
        [x],
        {"exclusive": exclusive, "algorithm": algorithm, "s": s},
    )
    g.set_outputs([y])
    g.validate()
    return g


def scan_pipeline(
    n: int,
    *,
    dtype: str = "fp16",
    pre: "tuple[str, ...]" = ("abs",),
    post: "tuple[str, ...]" = ("double",),
    exclusive: bool = False,
    algorithm: "str | None" = None,
    s: "int | None" = None,
) -> Graph:
    """Elementwise pre-maps → prefix sum → elementwise post-maps, the
    canonical fusible region: under ``fusion=aggressive`` the whole
    pipeline is one fused unit.  On a foldable scan algorithm
    (:data:`~repro.core.api.FOLDABLE_SCAN_ALGORITHMS`) it captures the pre
    chain as one map pass and the scan with the post chain folded into
    its vector stage: 2 launches.  Any other algorithm keeps the post
    chain as a trailing map pass, so a scan tuned to ``lookback`` lowers
    to 3 launches."""
    g = Graph(name="scan_pipeline")
    edge = g.add_input("x", dtype, (n,))
    for i, fn in enumerate(pre):
        (edge,) = g.add_node(f"pre{i}", "elementwise", [edge], {"fn": fn})
    (edge,) = g.add_node(
        "scan",
        "scan",
        [edge],
        {"exclusive": exclusive, "algorithm": algorithm, "s": s},
    )
    for i, fn in enumerate(post):
        (edge,) = g.add_node(f"post{i}", "elementwise", [edge], {"fn": fn})
    g.set_outputs([edge])
    g.validate()
    return g


# -- numerics ----------------------------------------------------------------


def oracle_outputs(
    graph: Graph, inputs, params: "dict | None" = None
) -> "tuple[np.ndarray, ...]":
    """The NumPy oracle a served graph request must be bit-identical to."""
    return graph.run_oracle(inputs, params)


def graph_oracle_job(
    graph: Graph, inputs: "dict[str, np.ndarray]", params: "dict | None"
) -> "tuple[np.ndarray, ...]":
    """One served graph request's numerics, in ``graph.outputs`` order:
    the graph's compiled :func:`~repro.graph.numerics.host_numerics` on
    ``inputs`` already bound by :meth:`Graph.bind`, bit-identical to
    :func:`oracle_outputs`."""
    return host_numerics(graph)(inputs, params)
