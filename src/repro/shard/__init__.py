"""Multi-device sharding: the third level of the scan hierarchy.

The paper's MCScan composes two levels — cube ``s``-tile scans inside a
core, then a block-reduction array ``r`` across cores.  This package adds
a **device** level above both, exactly the recursion LightScan applies
across processors: partition the input over a :class:`DevicePool` of
independently-timed simulated 910Bs, scan each shard locally, and
exclusive-scan the per-device totals on the host.  With MCScan shard
plans the host scan sits between the two kernel phases, in place of
the ``SyncAll``, and each device's carry rides into phase II from the
front of ``r``; other plans propagate the carry with a streamed ``Adds``
pass after the scan.

Three execution paths are offered:

* :class:`ShardedScanner` — one large scan, latency-bound: simulated
  wall-clock is max(phase I) + max(phase II) over the devices, or the
  max scan launch plus the carry pass;
* :class:`PoolScanService` — many independent requests, throughput-bound:
  a pool front end routes launch groups onto the least-loaded member
  (longest-processing-time first), with per-device plan caches sharing
  one tuned-plan store;
* :class:`TrafficScheduler` — open-loop serving over the pool: continuous
  batching with deadline-driven admission and EDF + cost-model placement
  for arrival streams from :mod:`repro.serve.traffic`.
"""

from .pool import DevicePool
from .scan import (
    CarryAddKernel,
    ShardedScanner,
    ShardedScanResult,
    ShardRecord,
    shard_ranges,
)
from .scheduler import TrafficScheduler, run_traffic
from .service import PoolScanService

__all__ = [
    "CarryAddKernel",
    "DevicePool",
    "PoolScanService",
    "ShardRecord",
    "ShardedScanResult",
    "ShardedScanner",
    "TrafficScheduler",
    "run_traffic",
    "shard_ranges",
]
