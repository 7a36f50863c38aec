"""Request batcher: coalesce same-shape 1-D scans into batched launches.

Queued requests are partitioned by *launch group*: requests whose
(algorithm, padded row length, dtype, s) match can ride the row-wise
batched kernels (:class:`~repro.core.batched.BatchedScanUKernel` /
``BatchedScanUL1Kernel`` / the batched vector baseline) as rows of one
2-D launch, each scattered back to its own ticket afterwards.

Batch sizes are rounded up to power-of-two *buckets* (rows beyond the
real batch are zero-padded), so the plan cache needs only ``log2``
distinct batched plans per shape class instead of one per observed batch
size.  Chunks of fewer than :data:`MIN_GROUP` rows (a lone request, or
the 1-row tail of a class larger than the bucket cap) — and requests the
batched kernels cannot serve (``mcscan``, exclusive scans) — fall back
to 1-D plans, one launch per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plan import PlanKey

__all__ = ["MIN_GROUP", "ScanRequest", "LaunchGroup", "RequestBatcher", "bucket_size"]

#: fewest rows a batched launch carries; a smaller chunk falls back to
#: one 1-D launch per request
MIN_GROUP = 2


def bucket_size(batch: int, *, max_batch: int = 64) -> int:
    """Smallest power of two >= batch, capped at the largest power of two
    <= ``max_batch``.

    The cap must itself be a power of two: buckets are the plan cache's
    batched shape classes, and a non-power-of-two ``max_batch`` (say 48)
    would otherwise leak through as a bucket of 48 — a shape class that
    defeats the log2-classes guarantee and pads every 33-row batch as if
    it were 48 rows.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    cap = 1 << (max_batch.bit_length() - 1)
    return min(1 << (batch - 1).bit_length(), cap)


@dataclass
class ScanRequest:
    """One queued 1-D scan request (internal to the service).  Its plan
    configuration (algorithm, s, dtype, exclusive, block_dim) lives in
    its keys, resolved once at submit."""

    req_id: int
    x: np.ndarray
    #: host clock (perf_counter) at submit, for per-request latency
    t_submit: float
    #: True when the config came from a tuned-plan store lookup
    tuned: bool = False
    #: simulated-clock arrival time (ns) under open-loop traffic; None for
    #: closed-loop submit/flush callers (no simulated arrival process)
    t_arrival_ns: "float | None" = None
    #: simulated-clock completion deadline (ns); None = no deadline
    deadline_ns: "float | None" = None
    #: the request's 1-D plan key, built once at submit (``_prepare``)
    key: "PlanKey | None" = None
    #: its batched shape class (a 1-row batched key) when the batched
    #: kernels can serve it, else None; built once at submit
    row_key: "PlanKey | None" = None

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def shape_key(self) -> PlanKey:
        """The shape class the request coalesces in: its batched row key
        when it has one, else its 1-D key."""
        return self.key if self.row_key is None else self.row_key


@dataclass
class LaunchGroup:
    """A set of requests served by one device launch (or, for the 1-D
    fallback, one launch each)."""

    #: plan-cache shape class the group maps to (1-D key for fallbacks)
    key: PlanKey
    requests: "list[ScanRequest]" = field(default_factory=list)
    #: True when served as rows of one batched kernel launch
    batched: bool = False
    #: bucket row capacity of the batched launch (0 for fallbacks)
    bucket: int = 0
    #: True when the requests are operator-graph requests:
    #: ``ScanService._serve`` replays each request's lowered kernels one
    #: by one (``_serve_graph``) instead of one scan launch
    graph: bool = False

    @property
    def padded_elements(self) -> int:
        """Padded element count of the *actual rows* the group carries.

        A device-pool flush orders its launch units by their source
        group's count, heaviest first, which keeps its serving (and
        lowering) order; it places them by predicted device ns
        (``PoolScanService._launch_ns``), not by this count.

        Batched groups are costed by the rows launched, not the bucket
        capacity: a half-full bucket moves (and pays for) its real rows,
        and charging ``key.padded * bucket`` instead over-weighted it —
        a 5-row group in an 8-bucket would order ahead of a genuinely
        heavier group whose bucket happened to be fuller.
        """
        return self.key.padded * len(self.requests)


class RequestBatcher:
    """Accumulates requests and partitions them into launch groups."""

    def __init__(
        self,
        *,
        max_batch: int = 64,
        controller=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        #: optional :class:`repro.verify.ScheduleController`; permutes the
        #: pending-queue order seen by ``drain`` so the fuzzer can exercise
        #: every coalescing interleaving (results must be
        #: submission-order independent)
        self.controller = controller
        self._pending: list[ScanRequest] = []

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: ScanRequest) -> None:
        self._pending.append(request)

    def drain(self) -> "list[LaunchGroup]":
        """Partition and clear the pending queue.

        Returns groups in deterministic order (by first-submitted request),
        splitting oversized groups at the bucket cap (the largest power of
        two <= ``max_batch``).  This is the only place a request is
        grouped: a device-pool member serves the routed group as it
        stands, so every chunk smaller than :data:`MIN_GROUP` — including
        the tail of an oversized class — goes to the 1-D fallback here.
        """
        pending, self._pending = self._pending, []
        if self.controller is not None and len(pending) > 1:
            pending = self.controller.permute("batcher.drain", pending)
        by_shape: dict[PlanKey, LaunchGroup] = {}
        order: list[LaunchGroup] = []
        for req in pending:
            graph_key = getattr(req, "graph_key", None)
            if graph_key is not None:
                # graph requests group by lowered-program signature; the
                # key's batch is None, so the group passes through whole
                # below (each request replays its own captured programs)
                group = by_shape.get(graph_key)
                if group is None:
                    group = by_shape[graph_key] = LaunchGroup(
                        key=graph_key, graph=True
                    )
                    order.append(group)
                group.requests.append(req)
                continue
            key = req.shape_key
            group = by_shape.get(key)
            if group is None:
                group = by_shape[key] = LaunchGroup(key=key)
                order.append(group)
            group.requests.append(req)

        out: list[LaunchGroup] = []
        # chunk at the bucket cap (pow2 floor of max_batch), not max_batch
        # itself: a 48-row chunk cannot ride a 32-row bucket
        chunk_rows = 1 << (self.max_batch.bit_length() - 1)
        for group in order:
            if group.key.batch is None:
                # already a 1-D shape class (or a graph signature)
                out.append(group)
                continue
            rows = group.requests
            # a class below MIN_GROUP falls back whole, not chunk by chunk
            step = chunk_rows if len(rows) >= MIN_GROUP else len(rows)
            for lo in range(0, len(rows), step):
                chunk = rows[lo : lo + step]
                if len(chunk) < MIN_GROUP:
                    # too small for a batched launch — a small class, or
                    # the tail of an oversized one: fall back to 1-D plans
                    out.extend(self._fallback(chunk))
                    continue
                bucket = bucket_size(len(chunk), max_batch=self.max_batch)
                out.append(
                    LaunchGroup(
                        key=group.key.with_batch(bucket),
                        requests=chunk,
                        batched=True,
                        bucket=bucket,
                    )
                )
        return out

    def _fallback(self, requests: "list[ScanRequest]") -> "list[LaunchGroup]":
        """1-D fallback groups for batchable requests below :data:`MIN_GROUP`.

        The 1-D key is each request's own — requests that share a batched
        shape class can still differ in 1-D key (e.g. tuned block_dim) —
        so re-partition instead of keying off requests[0].
        """
        groups: dict[PlanKey, LaunchGroup] = {}
        for req in requests:
            group = groups.get(req.key)
            if group is None:
                group = groups[req.key] = LaunchGroup(key=req.key)
            group.requests.append(req)
        return list(groups.values())
