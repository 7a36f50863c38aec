"""Shared-bandwidth model for concurrent GM transfers.

All in-flight DMA flows share the HBM pool.  Rates are assigned by
**max-min fair waterfilling**: each flow is capped by its MTE link width;
remaining pool bandwidth is split equally among unconstrained flows.  This
is the standard fluid approximation for a bandwidth-arbitrated memory
system and is what makes multi-core kernels saturate (and single-core
kernels *not* saturate) the 800 GB/s the paper reports against.
"""

from __future__ import annotations

__all__ = ["waterfill"]


def waterfill(demands: "list[float]", pool: float) -> "list[float]":
    """Max-min fair allocation of ``pool`` bandwidth.

    Args:
        demands: per-flow rate caps (e.g. MTE link bytes/ns); must be > 0.
        pool: total pool bandwidth (bytes/ns).

    Returns:
        Per-flow allocated rates, in the same order as ``demands``.
        ``sum(rates) <= pool`` and ``rates[i] <= demands[i]`` always hold;
        the allocation is max-min fair.
    """
    n = len(demands)
    if n == 0:
        return []
    if pool <= 0:
        return [0.0] * n
    order = sorted(range(n), key=lambda i: demands[i])
    rates = [0.0] * n
    remaining_pool = pool
    remaining_flows = n
    for idx in order:
        fair_share = remaining_pool / remaining_flows
        rate = min(demands[idx], fair_share)
        rates[idx] = rate
        remaining_pool -= rate
        remaining_flows -= 1
    return rates

