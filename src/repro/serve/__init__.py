"""Plan-cached scan serving layer.

The one-shot :class:`~repro.core.api.ScanContext` API re-traces the whole
kernel (Python-level op emission + hazard analysis) on every call, which
dominates host-side latency.  This package adds the serving discipline an
operator integration would use in steady state:

* :class:`PlanCache` — memoizes built :class:`~repro.core.api.ScanPlan`
  objects per (algorithm, padded length, dtype, batch, s) so repeated
  shapes skip tracing entirely;
* :class:`RequestBatcher` — coalesces queued same-shape 1-D requests into
  one batched-kernel launch with per-request scatter-back;
* :class:`ScanService` — the ``submit``/``flush`` façade tying the two
  together, with per-request latency and aggregate throughput statistics
  (``snapshot()`` as plain data, ``summary()`` rendered from it).

``python -m repro serve-bench`` exercises the layer end to end.
"""

from .batcher import LaunchGroup, RequestBatcher, ScanRequest, bucket_size
from .numerics import group_scan_values
from .plan import PlanCache, PlanKey
from .resilience import DEAD, DEGRADED, HEALTHY, MemberHealth, RetryPolicy
from .service import ScanService, ScanTicket
from .stats import LaunchRecord, ServiceStats, render
from .traffic import (
    TRAFFIC_SEED0,
    Arrival,
    TrafficReport,
    TrafficSpec,
    generate_arrivals,
    make_input,
    percentile_ns,
)

__all__ = [
    "PlanCache",
    "PlanKey",
    "RequestBatcher",
    "ScanRequest",
    "LaunchGroup",
    "bucket_size",
    "ScanService",
    "ScanTicket",
    "ServiceStats",
    "LaunchRecord",
    "render",
    "group_scan_values",
    "RetryPolicy",
    "MemberHealth",
    "HEALTHY",
    "DEGRADED",
    "DEAD",
    "TRAFFIC_SEED0",
    "Arrival",
    "TrafficSpec",
    "TrafficReport",
    "generate_arrivals",
    "make_input",
    "percentile_ns",
]
