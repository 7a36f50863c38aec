"""Host work per offered arrival on the open-loop serving path, counted.

Submit builds a request's plan keys once — its 1-D key and, when the
batched kernels can serve it, its batched row key — and keeps them on the
request, so admission, bucketing, cost prediction, batching and the
plan-cache lookup of every launch read them instead of re-running the key
rules.  These tests count, on a warm pool, the calls a seeded toy-config
traffic run makes into those rules (``check_plan_config``,
``plan_pad_unit`` and the dtype resolution every key starts from) and pin
them exactly: two keys per arrival and nothing per launch.  Rebuilding a
key per launch, per bucket probe or per prediction moves the pin.  The
counters wrap the functions from outside, so ``src`` carries no counting
hook.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.api as core_api
import repro.serve.plan as serve_plan
from repro.core.api import ScanContext
from repro.hw.config import toy_config
from repro.serve import TrafficSpec
from repro.shard import PoolScanService, run_traffic

S = 16
SEED = 5
#: 30k rps on the toy pool: mostly coalesced buckets, one solo launch
SPEC = TrafficSpec(
    name="host-work",
    process="poisson",
    rate_rps=30_000.0,
    requests=200,
    sizes=(256, 1024, 4096),
    slo_ns=500_000.0,
)


def _count(monkeypatch, counts: Counter, owner, name: str, label: str) -> None:
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[label] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture(scope="module")
def warm_pool():
    """A pool that already served the stream once: every plan is built
    and every launch cost is memoized, so a second run does only the
    per-arrival work."""
    svc = PoolScanService(2, config=toy_config(), max_batch=8)
    run_traffic(svc, SPEC, SEED, s=S)
    return svc


def test_plan_rules_run_once_per_key(monkeypatch, warm_pool):
    counts: Counter = Counter()
    for owner in (serve_plan, core_api):
        for name in ("check_plan_config", "plan_pad_unit"):
            _count(monkeypatch, counts, owner, name, f"{owner.__name__}.{name}")
    _count(monkeypatch, counts, ScanContext, "_as_plan_dtype", "_as_plan_dtype")
    rep = run_traffic(warm_pool, SPEC, SEED, s=S)
    assert (rep.offered, rep.served, rep.launches) == (200, 200, 35)
    keys = 2 * rep.offered
    assert counts == {
        "repro.serve.plan.check_plan_config": keys,
        "repro.serve.plan.plan_pad_unit": keys,
        # plus the input's own dtype resolution per arrival; a launch's
        # numerics take the plan's dtype
        "_as_plan_dtype": keys + rep.offered,
    }
    assert keys == 400
