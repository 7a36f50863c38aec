"""The pool's one failover budget, pinned under both serving loops.

``PoolScanService.flush`` and the open-loop ``TrafficScheduler`` serve
every launch unit through one failover loop
(``PoolScanService._serve_unit``): a unit whose member exhausts its retry
policy is recalled and re-placed, at most ``_max_group_failovers`` times.
With every launch on every member faulting, each unit is therefore
dispatched exactly ``1 + _max_group_failovers`` times; then flush raises
with the work back in the pool queue, and the traffic run fails the
tickets explicitly.  Neither loses a ticket.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceFault
from repro.hw.config import toy_config
from repro.serve import TrafficSpec
from repro.shard import PoolScanService, run_traffic

S = 32
REQUESTS = 3


class _AlwaysTransient:
    """Duck-typed fault plan: every launch fails transiently."""

    def on_launch(self, device):
        raise DeviceFault("transient", device=device, permanent=False)

    def stretch_ns(self, trace):
        return 0.0


def _serve_by_flush(svc) -> None:
    rng = np.random.default_rng(0)
    tickets = [
        svc.submit(rng.integers(-2, 3, 600).astype(np.float16), algorithm="scanu", s=S)
        for _ in range(REQUESTS)
    ]
    with pytest.raises(DeviceFault) as exc:
        svc.flush()
    assert not exc.value.permanent
    # every unserved ticket is back in the pool queue, still tracked
    assert svc.pending == REQUESTS
    assert sorted(svc._tickets) == [t.req_id for t in tickets]
    assert not any(t.done for t in tickets)


def _serve_by_traffic(svc) -> None:
    # arrivals microseconds apart under a one-second SLO: one bucket,
    # staged when the stream ends
    spec = TrafficSpec(
        name="budget", rate_rps=1_000_000.0, requests=REQUESTS,
        sizes=(600,), slo_ns=1e9,
    )
    rep = run_traffic(svc, spec, 0, algorithm="scanu", s=S)
    assert rep.accounted()
    assert (rep.admitted, rep.served, rep.failed) == (REQUESTS, 0, REQUESTS)
    assert all(not t.done for t in rep.failed_tickets)
    # failed explicitly: out of pool custody, kept on the report
    assert not svc._tickets and svc.pending == 0


@pytest.mark.parametrize("serve", [_serve_by_flush, _serve_by_traffic])
def test_one_unit_is_dispatched_one_plus_budget_times(monkeypatch, serve):
    svc = PoolScanService(2, config=toy_config(), max_batch=8)
    for device in svc.pool.devices:
        device.fault_plan = _AlwaysTransient()
    dispatched = []
    dispatch = PoolScanService._dispatch

    def counted(self, unit, target):
        dispatched.append(tuple(req.req_id for req in unit.requests))
        return dispatch(self, unit, target)

    monkeypatch.setattr(PoolScanService, "_dispatch", counted)
    serve(svc)
    # one batched unit, every attempt carrying all its requests
    assert dispatched == [tuple(range(REQUESTS))] * (1 + svc._max_group_failovers)
    assert sum(svc.failovers) == len(dispatched)
    assert not any(svc._dead)
