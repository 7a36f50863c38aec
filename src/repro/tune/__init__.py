"""Simulator-guided autotuner with a persistent tuned-plan store.

The serve layer's defaults (ScanU, or MCScan for an exclusive scan, at
``s=128``) are reasonable, but the best plan configuration depends on the
workload shape — MCScan dominates at large 1-D sizes, small tile sizes
lose to Mmad issue overhead, and few-long-row batches are sometimes better served row-by-row
through a multi-core 1-D plan.  This package searches that space *on the
simulator* (one host-side trace per surviving candidate, never executing
numerics), prunes with sound roofline lower bounds from
:mod:`repro.analysis`, and persists the winners in a fingerprinted JSON
store.  Each candidate is built through the core's public plan builders
(unvalidated) and released once its timeline is read, so the tuner
scores the plans the serve layer builds.
:func:`~repro.tune.space.resolve_candidate` is the one place that
decides which configuration serves a workload — a store entry the caller
can serve, else the default — for the scan service, graph scan nodes,
plan warm-up and the sharded scanner; the core plan builders have no
algorithm or ``s`` default and build the configuration they are given.
:func:`~repro.tune.warmup.warm_tune_store` tunes each workload on a
fresh context, so a store entry does not depend on workload order.

See ``repro tune --help`` for the CLI entry point.
"""

from .evaluate import CandidateCost, evaluate_candidate
from .space import (
    SWEEP_S,
    Candidate,
    WorkloadKey,
    candidate_floor_ns,
    default_candidate,
    enumerate_candidates,
    resolve_candidate,
)
from .store import STORE_VERSION, TunedEntry, TuneStore, config_fingerprint
from .tuner import (
    CandidateOutcome,
    TuneResult,
    format_result,
    tune_workload,
)
from .warmup import WarmupReport, warm_pool, warm_service, warm_tune_store

__all__ = [
    "SWEEP_S",
    "STORE_VERSION",
    "Candidate",
    "CandidateCost",
    "CandidateOutcome",
    "TunedEntry",
    "TuneResult",
    "TuneStore",
    "WorkloadKey",
    "candidate_floor_ns",
    "config_fingerprint",
    "default_candidate",
    "enumerate_candidates",
    "evaluate_candidate",
    "format_result",
    "resolve_candidate",
    "tune_workload",
    "WarmupReport",
    "warm_tune_store",
    "warm_service",
    "warm_pool",
]
