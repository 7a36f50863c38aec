"""Multi-device sharding: the third level of the scan hierarchy.

The paper's MCScan composes two levels — cube ``s``-tile scans inside a
core, then a block-reduction array ``r`` across cores.  This package adds
a **device** level above both, exactly the recursion LightScan applies
across processors: partition the input over a :class:`DevicePool` of
independently-timed simulated 910Bs, scan each shard locally, and
exclusive-scan the per-device totals on the host.  Every shard plan is
MCScan: the host scan sits between its two kernel phases, in place of
the ``SyncAll``, and each device's carry rides into phase II from the
front of ``r``.

Three execution paths are offered:

* :class:`ShardedScanner` — one large scan, latency-bound: simulated
  wall-clock is max(phase I) + max(phase II) over the devices;
* :class:`PoolScanService` — many independent requests, throughput-bound:
  a pool front end places each flush's launch units, heaviest group
  first, onto the member with the least predicted completion in the
  round, with per-device plan caches sharing one tuned-plan store;
* :class:`TrafficScheduler` — open-loop serving over the pool: continuous
  batching with deadline-driven admission and EDF + cost-model placement
  for arrival streams from :mod:`repro.serve.traffic`.
"""

from .pool import DevicePool
from .scan import ShardedScanner, ShardedScanResult, ShardRecord, shard_ranges
from .scheduler import TrafficScheduler, run_traffic
from .service import PoolScanService

__all__ = [
    "DevicePool",
    "PoolScanService",
    "ShardRecord",
    "ShardedScanResult",
    "ShardedScanner",
    "TrafficScheduler",
    "run_traffic",
    "shard_ranges",
]
