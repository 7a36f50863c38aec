"""Operator registry for the graph runtime (one class per operator).

Adapted from the AscendGraph idiom (a per-op ``Operator`` class registry
consumed by an FX-graph interpreter): each operator the serve layer can
host is a subclass of :class:`OpNode` registered under its ``kind`` via
:func:`register_op`.  An op class declares

* **arity and typing** — :meth:`~OpNode.infer` validates input
  :class:`TensorSpec` dtypes/shapes and produces the output specs (raising
  :class:`~repro.errors.ConfigError` with a diagnostic on mismatch);
* **a shape-class signature** — :meth:`~OpNode.shape_class` is the
  memoization key of the graph plan cache: two nodes with equal shape
  classes replay the same captured device program;
* **a NumPy oracle** — :meth:`~OpNode.oracle` defines the op's served
  numerics (the graph layer serves oracle bits, exactly as the scan serve
  layer's ``plan_compute`` numerics *are* the checker oracle; a graph's
  compiled host numerics, :mod:`repro.graph.numerics`, call it or
  reproduce its bits in fewer passes);
* **a device lowering** — :meth:`~OpNode.device_run` executes the op once
  through :class:`~repro.ops.driver.AscendOps` on the build device; the
  interpreter's one build step (``GraphRunner._capture``, which fused
  scan regions go through too) runs it under
  :meth:`AscendDevice.capture_launches
  <repro.hw.device.AscendDevice.capture_launches>` to harvest the traced
  kernels, and differentially compares the device outputs against the
  oracle on **exactness-conditioned** validation data
  (:meth:`~OpNode.validation_inputs`) before admitting the lowering;
* **an internal scan tile** — an op whose lowering runs an MCScan takes
  an ``s`` parameter; left None, the runner sizes it to the input with
  :func:`~repro.core.api.op_scan_tile` over the op's
  :meth:`~OpNode.scan_length`, and an explicit ``s`` builds exactly that
  tile.

Elementwise maps are one implementation, :class:`MapOp`, over the
op's :meth:`~OpNode.map_fns`: the ``elementwise`` node applies one fn and
the ``fused_elementwise`` op the fusion pass lowers a map chain through
applies several, in one kernel pass either way.

Tie/rounding conventions: sorting ops (radix_sort, topk, top_p_sample)
define ties as *stable on the original index*.  The oracles order keys
with :func:`~repro.core.reference.stable_order`, a stable radix sort of
per-key ranks that keeps NumPy's ties: -0.0 and +0.0 are equal and NaN
sorts last in either direction.  The device radix sort is a stable LSB
sort on order-preserving key encodings, so the two match on every
validation input.  Signed zeros and NaN are outside the device contract:
the device's fp16 key encoding orders ``-0.0 < +0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.matrices import padded_length
from ..core.reference import (
    accum_np_dtype,
    compress as compress_oracle,
    stable_order,
    stable_split,
)
from ..core.replay import scan_into
from ..errors import ConfigError
from ..hw.datatypes import as_dtype
from ..ops.driver import radix_scan_length
from ..ops.elementwise import ElementwiseMapKernel
from ..tune.space import WorkloadKey, resolve_candidate

__all__ = [
    "TensorSpec",
    "OpNode",
    "MapOp",
    "OP_REGISTRY",
    "register_op",
    "get_op",
    "ELEMENTWISE_FNS",
    "SERVED_DIGIT_BITS",
    "top_p_scan_length",
]

#: radix digit width of every served ``radix_sort`` and ``top_p_sample``
#: lowering: 16-bit keys sort in 4 digit-split passes instead of the
#: paper's 16 one-bit splits, with the same stable order
SERVED_DIGIT_BITS = 4

#: named elementwise functions — the kernel and the oracle share the same
#: callable, so the device map (``fn(src).astype(out_dt)`` per tile) and
#: the oracle are identical by construction
ELEMENTWISE_FNS = {
    "negate": lambda v: -v,
    "double": lambda v: v + v,
    "abs": lambda v: np.abs(v),
    "relu": lambda v: np.maximum(v, 0),
}

_DTYPE_NAMES = {
    np.dtype(np.float16): "fp16",
    np.dtype(np.float32): "fp32",
    np.dtype(np.int8): "int8",
    np.dtype(np.uint8): "uint8",
    np.dtype(np.int16): "int16",
    np.dtype(np.uint16): "uint16",
    np.dtype(np.int32): "int32",
    np.dtype(np.int64): "int64",
}
_NP_DTYPES = {name: dt for dt, name in _DTYPE_NAMES.items()}


def dtype_name(np_dtype) -> str:
    dt = np.dtype(np_dtype)
    if dt not in _DTYPE_NAMES:
        raise ConfigError(f"graph tensors do not support dtype {dt}")
    return _DTYPE_NAMES[dt]


def np_dtype_of(name: str) -> np.dtype:
    if name not in _NP_DTYPES:
        raise ConfigError(f"unknown graph dtype {name!r}")
    return _NP_DTYPES[name]


@dataclass(frozen=True)
class TensorSpec:
    """Dtype + shape of one graph edge.  ``shape`` of None marks a
    data-dependent length (e.g. compress output) that only the oracle can
    determine."""

    dtype: str
    shape: "tuple[int, ...] | None" = None

    @property
    def n(self) -> "int | None":
        return None if self.shape is None else int(np.prod(self.shape))


#: kind -> OpNode subclass
OP_REGISTRY: "dict[str, type[OpNode]]" = {}


def register_op(cls: "type[OpNode]") -> "type[OpNode]":
    """Class decorator: register an :class:`OpNode` under ``cls.kind``."""
    if not cls.kind:
        raise ConfigError(f"{cls.__name__} must set a non-empty kind")
    if cls.kind in OP_REGISTRY:
        raise ConfigError(f"operator kind {cls.kind!r} registered twice")
    OP_REGISTRY[cls.kind] = cls
    return cls


def get_op(kind: str) -> "type[OpNode]":
    op = OP_REGISTRY.get(kind)
    if op is None:
        raise ConfigError(
            f"unknown operator kind {kind!r}; registered: "
            f"{sorted(OP_REGISTRY)}"
        )
    return op


class OpNode:
    """Base class for registered operators (all hooks are classmethods —
    node instances live in the IR as (kind, params) records, see
    :mod:`repro.graph.ir`)."""

    kind: str = ""
    #: number of input edges
    num_inputs: int = 1
    #: output edge name suffixes (node ``a`` with outputs ``("values",)``
    #: produces edge ``a.values``)
    output_names: "tuple[str, ...]" = ("values",)
    #: parameter defaults; a default of ``Ellipsis`` marks a required
    #: parameter the node must supply at construction
    param_defaults: "dict[str, object]" = {}
    #: True for single-input ops that are pure per-element maps preserving
    #: dtype and shape — the fusion pass may chain them (see
    #: :mod:`repro.graph.fuse`); such ops must implement :meth:`map_fns`
    fusable_map: bool = False

    @classmethod
    def map_fns(cls, params: dict) -> "tuple[str, ...]":
        """Named :data:`ELEMENTWISE_FNS` entries this map applies, in
        order.  Only meaningful when :attr:`fusable_map` is True."""
        raise NotImplementedError

    # -- parameters ---------------------------------------------------------

    @classmethod
    def resolve_params(cls, params: "dict | None") -> dict:
        """Merge ``params`` over the declared defaults; unknown keys and
        missing required parameters raise :class:`ConfigError`."""
        params = dict(params or {})
        unknown = set(params) - set(cls.param_defaults)
        if unknown:
            raise ConfigError(
                f"op {cls.kind!r} got unknown parameter(s) "
                f"{sorted(unknown)}; accepts {sorted(cls.param_defaults)}"
            )
        out = dict(cls.param_defaults)
        out.update(params)
        missing = [k for k, v in out.items() if v is Ellipsis]
        if missing:
            raise ConfigError(
                f"op {cls.kind!r} requires parameter(s) {sorted(missing)}"
            )
        return out

    # -- typing -------------------------------------------------------------

    @classmethod
    def infer(
        cls, specs: "list[TensorSpec]", params: dict
    ) -> "tuple[TensorSpec, ...]":
        """Validate input specs and produce output specs."""
        raise NotImplementedError

    @classmethod
    def check_arity(cls, specs: "list[TensorSpec]") -> None:
        if len(specs) != cls.num_inputs:
            raise ConfigError(
                f"op {cls.kind!r} takes {cls.num_inputs} input(s), "
                f"got {len(specs)}"
            )

    @classmethod
    def shape_class(cls, specs: "list[TensorSpec]", params: dict) -> tuple:
        """Hashable plan-cache key component.  The default covers every op
        whose trace depends only on input shapes/dtypes plus the structural
        parameters listed in :attr:`trace_params`."""
        return (
            tuple((s.dtype, s.shape) for s in specs),
            tuple(sorted((k, params[k]) for k in cls.trace_params())),
        )

    @classmethod
    def trace_params(cls) -> "tuple[str, ...]":
        """Parameters that change the emitted device program (runtime-only
        scalars like ``theta`` are excluded: the trace structure — and so
        the cached timing — does not depend on them)."""
        return tuple(sorted(cls.param_defaults))

    # -- internal scan tile ----------------------------------------------------

    @classmethod
    def scan_length(
        cls, specs: "list[TensorSpec]", s: int, sorted_input: bool = False
    ) -> "int | None":
        """Elements the lowering's internal MCScan scans at tile ``s`` (its
        padded length), or None when it runs no MCScan whose tile the op
        picks.  An ``s`` of None lowers at the tile
        :func:`~repro.core.api.op_scan_tile` picks over this length
        (:mod:`repro.graph.fuse`).  ``sorted_input`` marks a
        ``top_p_sample`` that lowers without its sort
        (:func:`repro.graph.fuse.sorted_by_topk`)."""
        return None

    # -- numerics ------------------------------------------------------------

    @classmethod
    def oracle(
        cls, inputs: "list[np.ndarray]", params: dict
    ) -> "tuple[np.ndarray, ...]":
        raise NotImplementedError

    @classmethod
    def validation_inputs(
        cls, specs: "list[TensorSpec]", params: dict
    ) -> "list[np.ndarray]":
        """Deterministic, exactness-conditioned inputs for the build-time
        differential check (device vs oracle must be bit-exact on them)."""
        raise NotImplementedError

    @classmethod
    def device_run(
        cls, ops, inputs: "list[np.ndarray]", params: dict
    ) -> "tuple[np.ndarray, ...]":
        """Execute once on the (build) device via ``ops`` (AscendOps)."""
        raise NotImplementedError


def _rng(specs: "list[TensorSpec]", salt: int) -> np.random.Generator:
    total = sum(s.n or 0 for s in specs)
    return np.random.default_rng((0xC0FFEE, salt, total))


def _distinct_fp16(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` distinct positive fp16 values (deterministic permutation).

    Up to 2048 they are exact small integers; beyond that, positive fp16
    bit patterns in ascending order (order-preserving, exact under the
    fp32 cast the oracles compare through)."""
    if n <= 2048:
        return (rng.permutation(n) + 1).astype(np.float16)
    if n > 30000:
        raise ConfigError(
            f"validation needs distinct positive fp16 values; n={n} exceeds "
            f"the representable supply"
        )
    return (rng.permutation(n).astype(np.uint16) + 1).view(np.float16)


def top_p_scan_length(n: int, s: int, presorted: bool) -> int:
    """Elements the longest MCScan of a top-p sample over ``n``
    probabilities scans at tile ``s``: each digit pass's flags when it
    sorts, the cumsum's padded probabilities when a ``topk`` sorted them
    (one ``s`` serves the sort and the cumsum)."""
    if presorted:
        return padded_length(n, s * s)
    return radix_scan_length(n, s, SERVED_DIGIT_BITS)


_SCAN_DTYPES = ("fp16", "int8")
_SORT_DTYPES = ("fp16", "uint8", "int16", "uint16")


@register_op
class ScanOp(OpNode):
    """1-D prefix sum through the serve layer's tuned plan machinery.

    ``algorithm``/``s`` of None resolve as in :meth:`ScanService.submit`
    (:func:`repro.tune.resolve_candidate`, the runner's TuneStore).  The
    output is always the accumulator dtype (fp32 for fp16, int32 for
    int8) — tuned ``vector`` entries are skipped rather than change the
    node's declared output type."""

    kind = "scan"
    num_inputs = 1
    output_names = ("values",)
    param_defaults = {"algorithm": None, "s": None, "exclusive": False}

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        (x,) = specs
        if x.dtype not in _SCAN_DTYPES:
            raise ConfigError(
                f"scan takes {_SCAN_DTYPES} input, got {x.dtype!r}"
            )
        out = dtype_name(accum_np_dtype(np_dtype_of(x.dtype)))
        return (TensorSpec(out, x.shape),)

    @classmethod
    def oracle(cls, inputs, params):
        # the served scan numerics, bit-identical to reference.inclusive_scan
        x = np.asarray(inputs[0])
        out = np.empty(x.shape, accum_np_dtype(x.dtype))
        return (scan_into(out, [x], exclusive=params["exclusive"]),)

    @classmethod
    def validation_inputs(cls, specs, params):
        # PlanCache validates scan plans itself on exact data; this input
        # only feeds the (unused) generic path
        rng = _rng(specs, 1)
        n = specs[0].n
        if specs[0].dtype == "fp16":
            return [rng.integers(-2, 3, n).astype(np.float16)]
        return [rng.integers(-20, 21, n).astype(np.int8)]

    @classmethod
    def device_run(cls, ops, inputs, params):
        x = inputs[0]
        cand, _ = resolve_candidate(
            WorkloadKey("1d", x.size, dtype_name(x.dtype), params["exclusive"]),
            algorithm=params["algorithm"], s=params["s"],
        )
        plan = ops.sc.build_plan(
            algorithm=cand.algorithm,
            n=x.size,
            dtype=x.dtype,
            s=cand.s,
            exclusive=params["exclusive"],
        )
        try:
            result = plan.execute(inputs[0])
        finally:
            plan.release()
        return (result.values,)


_MAP_DTYPES = ("fp16", "int8", "int16", "fp32", "int32")


class MapOp(OpNode):
    """A chain of :data:`ELEMENTWISE_FNS` maps (its :meth:`map_fns`),
    lowered as one :class:`~repro.ops.elementwise.ElementwiseMapKernel`
    pass over UB tiles.  Kernel and oracle apply the same callables with
    the dtype re-applied after every stage, so a chain is bit-identical
    to its maps run one node at a time — which makes the build-time
    differential check the fused-vs-composed validation the fusion pass
    needs."""

    fusable_map = True

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        fns = cls.map_fns(params)
        if not fns:
            raise ConfigError(f"{cls.kind} needs at least one fn")
        unknown = [f for f in fns if f not in ELEMENTWISE_FNS]
        if unknown:
            raise ConfigError(
                f"unknown elementwise fn(s) {unknown}; "
                f"known: {sorted(ELEMENTWISE_FNS)}"
            )
        (x,) = specs
        if x.dtype not in _MAP_DTYPES:
            raise ConfigError(
                f"{cls.kind} does not support dtype {x.dtype!r}"
            )
        return (TensorSpec(x.dtype, x.shape),)

    @classmethod
    def oracle(cls, inputs, params):
        x = inputs[0]
        dt = x.dtype
        for name in cls.map_fns(params):
            x = np.asarray(ELEMENTWISE_FNS[name](x)).astype(dt)
        return (x,)

    @classmethod
    def validation_inputs(cls, specs, params):
        rng = _rng(specs, 2)
        n = specs[0].n
        dt = np_dtype_of(specs[0].dtype)
        return [rng.integers(-3, 4, n).astype(dt)]

    @classmethod
    def device_run(cls, ops, inputs, params):
        x = inputs[0]
        names = cls.map_fns(params)
        dt = as_dtype(dtype_name(x.dtype))
        mark = ops.device.memory.mark()
        try:
            x_gm = ops._alloc_padded("map_x", x, 1, dt)
            y_gm = ops.device.alloc("map_y", (x.size,), dt)
            if ops.sc.warm_inputs:
                ops.device.warm_l2(x_gm)
            vbd = ops._vec_block_dim(x.size)
            label = f"{cls.kind} {'+'.join(names)}"
            fns = tuple(ELEMENTWISE_FNS[name] for name in names)
            ops.device.launch(
                ElementwiseMapKernel(x_gm, y_gm, fns, vbd, label=label),
                label=label,
            )
            values = y_gm.to_numpy()
        finally:
            ops.device.memory.release(mark)
        return (values,)


@register_op
class ElementwiseOp(MapOp):
    """Tiled elementwise map ``y = fn(x)``."""

    kind = "elementwise"
    param_defaults = {"fn": Ellipsis}

    @classmethod
    def map_fns(cls, params):
        return (params["fn"],)


@register_op
class FusedElementwiseOp(MapOp):
    """A chain of elementwise maps executed in one UB pass (graph-level
    fusion); ``fns`` is the ordered tuple of :data:`ELEMENTWISE_FNS`
    names."""

    kind = "fused_elementwise"
    param_defaults = {"fns": Ellipsis}

    @classmethod
    def map_fns(cls, params):
        return tuple(params["fns"])

    @classmethod
    def resolve_params(cls, params):
        out = super().resolve_params(params)
        fns = out["fns"]
        if isinstance(fns, str) or not isinstance(fns, (tuple, list)):
            raise ConfigError(
                f"fused_elementwise fns must be a sequence of fn names, "
                f"got {fns!r}"
            )
        out["fns"] = tuple(fns)
        return out


@register_op
class SplitOp(OpNode):
    """Stable split (SplitInd): true-flagged values first, then false,
    both in submission order, plus the original indices."""

    kind = "split"
    num_inputs = 2
    output_names = ("values", "indices")
    param_defaults = {"s": None}

    @classmethod
    def scan_length(cls, specs, s, sorted_input=False):
        return padded_length(specs[0].n, s * s)

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        x, flags = specs
        if x.dtype not in _SORT_DTYPES:
            raise ConfigError(
                f"split takes {_SORT_DTYPES} values, got {x.dtype!r}"
            )
        if flags.dtype != "int8":
            raise ConfigError(
                f"split flags must be int8, got {flags.dtype!r}"
            )
        if (
            x.shape is not None
            and flags.shape is not None
            and x.shape != flags.shape
        ):
            raise ConfigError(
                f"split values/flags shapes differ: {x.shape} vs "
                f"{flags.shape}"
            )
        return (TensorSpec(x.dtype, x.shape), TensorSpec("int32", x.shape))

    @classmethod
    def oracle(cls, inputs, params):
        values, order = stable_split(inputs[0], inputs[1])
        return (values, order.astype(np.int32))

    @classmethod
    def validation_inputs(cls, specs, params):
        rng = _rng(specs, 3)
        n = specs[0].n
        dt = np_dtype_of(specs[0].dtype)
        lo, hi = (-3, 4) if dt != np.dtype(np.uint8) else (0, 7)
        x = rng.integers(lo, hi, n).astype(dt)
        flags = (rng.random(n) < 0.5).astype(np.int8)
        return [x, flags]

    @classmethod
    def device_run(cls, ops, inputs, params):
        res = ops.split(inputs[0], inputs[1], s=params["s"])
        return (res.values, res.indices)


@register_op
class CompressOp(OpNode):
    """Masked select: masked values in original order (output length is
    data-dependent — its spec carries no shape)."""

    kind = "compress"
    num_inputs = 2
    output_names = ("values",)
    param_defaults = {"s": None}

    @classmethod
    def scan_length(cls, specs, s, sorted_input=False):
        return padded_length(specs[0].n, s * s)

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        x, mask = specs
        if x.dtype not in _SORT_DTYPES:
            raise ConfigError(
                f"compress takes {_SORT_DTYPES} values, got {x.dtype!r}"
            )
        if mask.dtype != "int8":
            raise ConfigError(
                f"compress mask must be int8, got {mask.dtype!r}"
            )
        if (
            x.shape is not None
            and mask.shape is not None
            and x.shape != mask.shape
        ):
            raise ConfigError(
                f"compress values/mask shapes differ: {x.shape} vs "
                f"{mask.shape}"
            )
        return (TensorSpec(x.dtype, None),)

    @classmethod
    def oracle(cls, inputs, params):
        return (compress_oracle(inputs[0], inputs[1]),)

    @classmethod
    def validation_inputs(cls, specs, params):
        rng = _rng(specs, 4)
        n = specs[0].n
        dt = np_dtype_of(specs[0].dtype)
        lo, hi = (-3, 4) if dt != np.dtype(np.uint8) else (0, 7)
        x = rng.integers(lo, hi, n).astype(dt)
        mask = (rng.random(n) < 0.5).astype(np.int8)
        return [x, mask]

    @classmethod
    def device_run(cls, ops, inputs, params):
        res = ops.compress(inputs[0], inputs[1], s=params["s"])
        return (res.values,)


@register_op
class RadixSortOp(OpNode):
    """Stable LSB radix sort returning (values, indices), the
    ``torch.sort`` contract.  Ties keep original order (both the device's
    stable splits and the oracle's stable argsort guarantee it).  The
    lowering splits on :data:`SERVED_DIGIT_BITS`-bit digits, one
    :class:`~repro.ops.split.DigitSplitKernel` launch per digit (4 for
    16-bit keys, 2 for 8-bit), with the keys encoded in UB: no encode,
    decode or negate launch.  Each pass's gather lengths depend on the
    keys, so the captured timeline is the one for the validation recipe's
    keys, served for every input (ROADMAP item 7)."""

    kind = "radix_sort"
    num_inputs = 1
    output_names = ("values", "indices")
    param_defaults = {"s": None, "descending": False}

    @classmethod
    def scan_length(cls, specs, s, sorted_input=False):
        return radix_scan_length(specs[0].n, s, SERVED_DIGIT_BITS)

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        (x,) = specs
        if x.dtype not in _SORT_DTYPES:
            raise ConfigError(
                f"radix_sort takes {_SORT_DTYPES} keys, got {x.dtype!r}"
            )
        return (TensorSpec(x.dtype, x.shape), TensorSpec("int32", x.shape))

    @classmethod
    def oracle(cls, inputs, params):
        x = inputs[0]
        order = stable_order(x, descending=params["descending"])
        return (x[order], order.astype(np.int32))

    @classmethod
    def validation_inputs(cls, specs, params):
        rng = _rng(specs, 5)
        n = specs[0].n
        dt = np_dtype_of(specs[0].dtype)
        if dt == np.dtype(np.float16):
            # nonzero integers of both signs: exact, so a key that ignores
            # the sign bit misorders them, and no +-0 pair, which the
            # oracle ties but the device keys apart; duplicates exercise
            # the stable-tie contract
            magnitude = 1 + rng.integers(0, 97, n)
            sign = rng.choice(np.array([-1, 1]), n)
            return [(sign * magnitude).astype(np.float16)]
        lo, hi = (0, 97) if dt.kind == "u" else (-48, 49)
        return [rng.integers(lo, hi, n).astype(dt)]

    @classmethod
    def device_run(cls, ops, inputs, params):
        res = ops.radix_sort(
            inputs[0],
            s=params["s"],
            descending=params["descending"],
            digit_bits=SERVED_DIGIT_BITS,
        )
        return (res.values, res.indices)


_TOPK_METHODS = ("baseline", "quickselect", "radix")


@register_op
class TopKOp(OpNode):
    """Top-k selection (descending values + original indices).

    ``method`` picks the device lowering: the streaming ``baseline``
    kernel (single launch, data-independent trace — the default),
    the paper's ``quickselect`` on SplitInd, or the RadiK-style ``radix``
    counting selection.  Quickselect/radix traces depend on the data: the
    captured timeline is the one for the validation recipe's keys, served
    for every input (ROADMAP item 7).

    ``s`` keeps its fixed default of 128 rather than the input-sized
    tile of the other scan ops: quickselect splits until a segment fits
    in ``2 s^2`` elements, so a smaller tile adds split passes, and the
    tile rule's ``s=16`` is slower than 128 on 1,024 and 2,048 keys."""

    kind = "topk"
    num_inputs = 1
    output_names = ("values", "indices")
    param_defaults = {"k": Ellipsis, "s": 128, "method": "baseline"}

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        (x,) = specs
        if x.dtype != "fp16":
            raise ConfigError(f"topk takes fp16 values, got {x.dtype!r}")
        k = params["k"]
        if not isinstance(k, int) or k < 1:
            raise ConfigError(f"topk k must be a positive int, got {k!r}")
        if x.n is not None and k > x.n:
            raise ConfigError(f"topk k={k} exceeds input length {x.n}")
        if params["method"] not in _TOPK_METHODS:
            raise ConfigError(
                f"unknown topk method {params['method']!r}; "
                f"known: {_TOPK_METHODS}"
            )
        # unlike the sized-tile ops, topk has no rule that resolves None
        s = params["s"]
        if not isinstance(s, int) or isinstance(s, bool):
            raise ConfigError(f"topk s must be an int tile width, got {s!r}")
        return (TensorSpec("fp16", (k,)), TensorSpec("int32", (k,)))

    @classmethod
    def oracle(cls, inputs, params):
        x = inputs[0]
        order = stable_order(x, descending=True)[: params["k"]]
        return (x[order], order.astype(np.int32))

    @classmethod
    def validation_inputs(cls, specs, params):
        # distinct values: the baseline kernel's merge does not promise
        # the oracle's lowest-index-first tie order
        return [_distinct_fp16(specs[0].n, _rng(specs, 6))]

    @classmethod
    def device_run(cls, ops, inputs, params):
        method = params["method"]
        if method == "baseline":
            res = ops.topk_baseline(inputs[0], params["k"])
        elif method == "quickselect":
            res = ops.topk(inputs[0], params["k"], s=params["s"])
        else:
            res = ops.topk_radix(inputs[0], params["k"], s=params["s"])
        return (res.values, res.indices)


@register_op
class TopPSampleOp(OpNode):
    """Llama3 nucleus sampling: radix-sort descending, MCScan cumsum, two
    predicate-count passes — returns the sampled token id looked up in
    ``ids``.  The lowering sorts on :data:`SERVED_DIGIT_BITS`-bit digits,
    so a sample chains 5 scans in 7 launches (4 one-launch digit passes,
    the cumsum and the two counts) where the paper's per-bit sort chains
    17 scans.  Fed straight by a ``topk`` node's
    ``values`` and ``indices`` (see :func:`repro.graph.fuse.sorted_by_topk`)
    the input is already in sort order, so the lowering drops the sort and
    chains 1 scan: the cumsum and the two counts.

    ``p`` is structural (the nucleus cut); ``theta`` is the runtime draw
    in [0, 1) — neither changes the trace structure, so one captured
    program serves every (p, theta).  The oracle takes the device
    pipeline's steps (the descending stable sort, an fp32 cumsum, the
    same two scalar comparisons), but its cumsum adds sequentially where
    the device's MCScan adds in tile order (ROADMAP item 2), so the two
    are bit-identical only when every partial sum is exact, as on the
    exactness-conditioned validation probabilities.  ``presorted`` skips
    the sort, as the sort-free lowering does: the probabilities must
    already be in the sort's order, as a ``topk`` output is (its values
    come out in ``stable_order``, so the stable re-sort is the
    identity)."""

    kind = "top_p_sample"
    num_inputs = 2
    output_names = ("token",)
    param_defaults = {"p": Ellipsis, "theta": 0.5, "s": None}

    @classmethod
    def trace_params(cls):
        return ("s",)

    @classmethod
    def scan_length(cls, specs, s, sorted_input=False):
        return top_p_scan_length(specs[0].n, s, sorted_input)

    @classmethod
    def infer(cls, specs, params):
        cls.check_arity(specs)
        probs, ids = specs
        if probs.dtype != "fp16":
            raise ConfigError(
                f"top_p_sample takes fp16 probabilities, got {probs.dtype!r}"
            )
        if ids.dtype != "int32":
            raise ConfigError(
                f"top_p_sample ids must be int32, got {ids.dtype!r}"
            )
        if (
            probs.shape is not None
            and ids.shape is not None
            and probs.shape != ids.shape
        ):
            raise ConfigError(
                f"top_p_sample probs/ids shapes differ: {probs.shape} vs "
                f"{ids.shape}"
            )
        p = params["p"]
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"top_p_sample p must be in (0, 1], got {p!r}")
        theta = params["theta"]
        if not 0.0 <= theta < 1.0:
            raise ConfigError(
                f"top_p_sample theta must be in [0, 1), got {theta!r}"
            )
        return (TensorSpec("int64", (1,)),)

    @classmethod
    def oracle(cls, inputs, params, *, presorted: bool = False):
        probs, ids = inputs
        n = probs.size
        if not presorted:
            order = stable_order(probs, descending=True)
            probs, ids = probs[order], ids[order]
        cum = np.cumsum(probs, dtype=np.float32)
        total = float(cum[-1])
        if not (math.isfinite(total) and total > 0):
            raise ConfigError(
                f"top_p_sample probabilities must sum to a finite positive "
                f"total, got {total}"
            )
        k_nucleus = min(1 + int(np.count_nonzero(cum <= params["p"] * total)), n)
        mass = float(cum[k_nucleus - 1])
        cut = params["theta"] * mass
        pos = min(int(np.count_nonzero(cum < cut)), k_nucleus - 1)
        return (np.asarray([ids[pos]], dtype=np.int64),)

    @classmethod
    def validation_inputs(cls, specs, params):
        rng = _rng(specs, 7)
        n = specs[0].n
        # strictly positive integer-valued fp16: the descending sort has
        # no signed-zero hazard and the fp32 cumsum is exact (sum < 2^24)
        probs = (1 + rng.integers(0, 97, n)).astype(np.float16)
        ids = np.arange(n, dtype=np.int32)
        return [probs, ids]

    @classmethod
    def device_run(cls, ops, inputs, params):
        from .interp import top_p_device_sample

        token = top_p_device_sample(
            ops,
            inputs[0],
            inputs[1],
            p=params["p"],
            theta=params["theta"],
            s=params["s"],
        )
        return (token,)
