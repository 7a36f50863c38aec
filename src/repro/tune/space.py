"""Candidate search space of the autotuner.

A *workload* is what the serve layer sees — a logical shape plus dtype
(and exclusivity / batch geometry).  A *candidate* is one concrete plan
configuration that could serve it: algorithm (or competitor strategy) ×
tile size ``s`` × ``block_dim`` × layout (batched kernel vs one 1-D plan
replayed per row).  Only the multi-core 1-D kernels sweep ``block_dim``:
a batched plan key carries none, so batched candidates take the
kernel's own.  Pad units, the ``block_dim`` limit and the int8 rule are
the core's (:mod:`repro.core.api`).

The expensive part of evaluating a candidate is not device time — it is
the *host-side Python trace* (op-DAG emission), which grows with the tile
count.  So the space attaches a roofline **floor** to every candidate: a
device-time lower bound derived from :mod:`repro.analysis.roofline` that
is sound by construction (no schedule can beat the memory roof, the MTE
link width, or the cube's serialised Mmad issue).  The tuner evaluates the
default config first and then visits candidates in ascending-floor order,
skipping any whose floor already exceeds the incumbent — which is exactly
what kills the trace-heavy small-``s`` configs on large inputs without
ever tracing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.roofline import cube_issue_floor_ns, link_floor_ns, memory_floor_ns
from ..core.api import (
    BATCHED_ALGORITHMS,
    PLAN_1D_ALGORITHMS,
    SCAN_STRATEGIES,
    SWEEP_S,
    check_plan_config,
    max_block_dim,
    plan_pad_unit,
)
from ..core.batched import default_batched_block_dim
from ..core.matrices import padded_length
from ..errors import ConfigError, KernelError
from ..hw.config import DeviceConfig
from ..hw.datatypes import as_dtype, cube_accum_dtype
from .store import store_key_1d

__all__ = [
    "SWEEP_S",
    "WorkloadKey",
    "Candidate",
    "default_candidate",
    "resolve_candidate",
    "enumerate_candidates",
    "candidate_floor_ns",
]


@dataclass(frozen=True)
class WorkloadKey:
    """What the tuner optimises for: a logical request shape.

    ``kind`` is ``"1d"`` (then ``n`` is the element count, ``batch`` is
    None) or ``"batched"`` (then ``n`` is the row length and ``batch``
    the row count).  Keys use the *logical* n, not a padded length —
    padding depends on ``s``, which is precisely what is being chosen.
    """

    kind: str
    n: int
    dtype: str
    exclusive: bool = False
    batch: "int | None" = None

    def __post_init__(self):
        if self.kind not in ("1d", "batched"):
            raise ConfigError(f"workload kind must be '1d' or 'batched', got {self.kind!r}")
        if self.n < 1:
            raise ConfigError(f"workload n must be >= 1, got {self.n}")
        if (self.kind == "batched") != (self.batch is not None):
            raise ConfigError("batched workloads need batch, 1-D workloads must not set it")
        if self.batch is not None and self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        as_dtype(self.dtype)  # validates the name

    @property
    def store_key(self) -> str:
        if self.kind == "1d":
            return store_key_1d(self.n, self.dtype, self.exclusive)
        return f"batched:{self.batch}x{self.n}:{self.dtype}"


@dataclass(frozen=True)
class Candidate:
    """One concrete plan configuration for a workload.

    ``layout`` is ``"batched"`` for the row-parallel batched kernels and
    ``"1d"`` for serving each row through a single 1-D plan (only
    meaningful for batched workloads; 1-D workloads always use ``"1d"``).
    ``block_dim`` of None means the algorithm's own heuristic.
    """

    algorithm: str
    s: int
    block_dim: "int | None" = None
    layout: str = "1d"

    def describe(self) -> str:
        bd = "auto" if self.block_dim is None else str(self.block_dim)
        if self.algorithm == "vector":
            return f"{self.layout}/vector(bd={bd})"
        return f"{self.layout}/{self.algorithm}(s={self.s}, bd={bd})"


#: the defaults, built once: every submit without a tuned entry takes one
_EXCLUSIVE_DEFAULT = Candidate("mcscan", 128)
_DEFAULTS = {"1d": Candidate("scanu", 128), "batched": Candidate("scanu", 128, None, "batched")}


def default_candidate(workload: WorkloadKey) -> Candidate:
    """The configuration that serves a workload without a tuned entry:
    MCScan (the paper's only exclusive kernel) for an exclusive scan,
    ScanU otherwise.  It is always a member of the search space and always
    evaluated first, which is what guarantees the tuned choice is never
    slower than the default."""
    return _EXCLUSIVE_DEFAULT if workload.exclusive else _DEFAULTS[workload.kind]


def resolve_candidate(
    workload: WorkloadKey,
    store=None,
    *,
    algorithm: "str | None" = None,
    s: "int | None" = None,
    allowed: "tuple[str, ...]" = PLAN_1D_ALGORITHMS,
    peek: bool = False,
) -> "tuple[Candidate, bool]":
    """The configuration that serves ``workload`` and whether it came
    from ``store``: the one place every serving path makes that choice.

    An explicit ``algorithm`` or ``s`` skips the store, and the fields
    left None come from :func:`default_candidate`.  Otherwise a store
    entry wins if the caller can serve its algorithm (``allowed``).
    Lookups count through :meth:`TuneStore.lookup_1d
    <repro.tune.store.TuneStore.lookup_1d>`; ``peek`` reads the entry
    uncounted (warm-up, the only caller with batched workloads).
    """
    default = default_candidate(workload)
    if algorithm is not None or s is not None:
        return Candidate(
            default.algorithm if algorithm is None else algorithm,
            default.s if s is None else s,
            None, default.layout,
        ), False
    if store is not None:
        entry = store.entries.get(workload.store_key) if peek else store.lookup_1d(
            n=workload.n, dtype=workload.dtype, exclusive=workload.exclusive
        )
        if entry is not None and entry.algorithm in allowed:
            return Candidate(entry.algorithm, entry.s, entry.block_dim, entry.layout), True
    return default, False


def _1d_block_dims(config: DeviceConfig, n_tiles: int) -> "list[int | None]":
    """block_dim sweep for the multi-core 1-D kernels: the heuristic
    (None → :func:`~repro.core.api.max_block_dim`) plus a coarse
    power-of-two ladder below it."""
    limit = max_block_dim(config, n_tiles)
    dims: "list[int | None]" = [None]
    bd = 1
    while bd < limit:
        dims.append(bd)
        bd *= 2
    return dims


def enumerate_candidates(
    config: DeviceConfig, workload: WorkloadKey
) -> "list[Candidate]":
    """All candidates for a workload, default first, no duplicates.

    A candidate the plan cache would refuse to serve
    (:func:`~repro.core.api.check_plan_config`: ScanUL1 on int8) is never
    offered."""
    default = default_candidate(workload)
    seen = {default}
    out = [default]
    dt = as_dtype(workload.dtype)

    def add(c: Candidate) -> None:
        try:
            check_plan_config(
                c.algorithm, dt, batched=c.layout == "batched",
                exclusive=False, served=True,
            )
        except KernelError:
            return
        if c not in seen:
            seen.add(c)
            out.append(c)

    if workload.kind == "1d":
        for algorithm in PLAN_1D_ALGORITHMS:
            if workload.exclusive and algorithm != "mcscan":
                continue
            if algorithm == "vector":
                add(Candidate("vector", 0, None, "1d"))
                continue
            for s in SWEEP_S:
                unit = plan_pad_unit(algorithm, s)
                n_tiles = padded_length(workload.n, unit) // unit
                dims = (
                    _1d_block_dims(config, n_tiles)
                    if algorithm in SCAN_STRATEGIES
                    else [None]
                )
                for bd in dims:
                    add(Candidate(algorithm, s, bd, "1d"))
        return out

    # batched workloads: the row-parallel kernels ...
    for algorithm in BATCHED_ALGORITHMS:
        if algorithm == "vector":
            add(Candidate("vector", 0, None, "batched"))
            continue
        for s in SWEEP_S:
            add(Candidate(algorithm, s, None, "batched"))
    # ... versus one 1-D plan replayed per row (competitive for few long
    # rows, where per-row multi-core beats row-parallelism)
    row = WorkloadKey("1d", workload.n, workload.dtype)
    for cand in enumerate_candidates(config, row):
        add(Candidate(cand.algorithm, cand.s, cand.block_dim, "1d"))
    return out


def _gm_floor_bytes(workload: WorkloadKey, cand: Candidate, padded: int) -> int:
    """Bytes any execution of this candidate must move through GM: padded
    input read once + padded output written once (a lower bound — real
    kernels add partials/r-array traffic)."""
    dt = as_dtype(workload.dtype)
    out_itemsize = (
        dt.itemsize if cand.algorithm == "vector" else cube_accum_dtype(dt).itemsize
    )
    rows = workload.batch if (workload.batch and cand.layout == "batched") else 1
    return rows * padded * (dt.itemsize + out_itemsize)


def candidate_floor_ns(
    config: DeviceConfig, workload: WorkloadKey, cand: Candidate
) -> float:
    """Sound device-time lower bound for one candidate (used to prune).

    max(memory roof, MTE-link width, cube Mmad issue) + launch overhead;
    for the per-row 1-D layout on a batched workload the whole bound is
    paid once per row.
    """
    per_launch_workload = workload
    launches = 1
    if workload.kind == "batched" and cand.layout == "1d":
        per_launch_workload = WorkloadKey("1d", workload.n, workload.dtype)
        launches = workload.batch

    batched = cand.layout == "batched"
    unit = plan_pad_unit(cand.algorithm, cand.s, workload.n if batched else None)
    padded = padded_length(workload.n, unit)
    gm = _gm_floor_bytes(per_launch_workload, cand, padded)
    floor = memory_floor_ns(config, gm)

    if cand.algorithm == "vector":
        lanes = config.num_vector_cores
        floor = max(floor, link_floor_ns(config, gm, lanes))
    else:
        n_tiles = padded // unit
        if batched:
            n_tiles *= workload.batch  # tiles across all rows
            bd = default_batched_block_dim(config, cand.algorithm, workload.batch)
        elif cand.algorithm in SCAN_STRATEGIES:
            bd = cand.block_dim or max_block_dim(config, n_tiles)
        else:
            bd = 1  # scanu / scanul1 run their cube stage on one core
        bd = max(1, min(bd, config.num_ai_cores))
        lanes = bd * config.vector_cores_per_ai_core
        floor = max(floor, link_floor_ns(config, gm, lanes))
        # every tile costs at least one Mmad issue on its core
        mmads_per_core = -(-n_tiles // bd)
        floor = max(floor, cube_issue_floor_ns(config, mmads_per_core))

    return launches * (floor + config.costs.kernel_launch_ns)
