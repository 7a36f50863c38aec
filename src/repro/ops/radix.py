"""LSB radix sort built on SplitInd (paper Section 5, Figure 11).

"A radix sort algorithm loops over the bits of the input elements, starting
at the least significant bit, and executes a split where the mask is
obtained by reading the corresponding bit (radix) on each iteration."

Components:

* :class:`RadixSingleKernel` — the vector-only radix extraction: for bit
  ``b`` it produces the int8 flag array ``flag = NOT bit_b(key)`` using
  ``ShiftRight`` / ``Not`` vector instructions (flag = 1 means the key goes
  to the *front*, so zero bits first gives an ascending sort);
* :func:`radix_keys_np` / :func:`radix_values_np` — the order-preserving
  unsigned key of every 8/16-bit value type in either direction and its
  inverse; the multi-bit :class:`~repro.ops.split.DigitSplitKernel`
  computes the keys in UB from the values themselves, and
  :func:`radix_pad_value` is the value a digit sort pads with;
* :class:`EncodeFp16Kernel` / :class:`DecodeFp16Kernel` — the pre/post
  processing for floats (Knuth ex. 5.2.5-8/9, also [9]): positive numbers
  get their MSB inverted, negative numbers all bits, yielding an
  order-preserving unsigned encoding;
* the per-bit split itself is :class:`~repro.ops.split.SplitIndKernel`.

The driver in :mod:`repro.ops.driver` chains one split per key bit (16
for 16-bit keys, 8 for 8-bit keys: the paper's path, ``digit_bits=1``) or
one digit split per ``b``-bit digit (``16 / b`` passes, each a single
launch over the values themselves), with ping-pong buffers, and carries
the original indices through every split, so the operator returns
(sorted values, argsort indices) like ``torch.sort``.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError, ShapeError
from ..hw.memory import GlobalTensor
from ..lang import intrinsics as I
from ..lang.kernel import Kernel
from ..lang.tensor import BufferKind

__all__ = [
    "RadixSingleKernel",
    "EncodeFp16Kernel",
    "DecodeFp16Kernel",
    "encode_fp16_np",
    "decode_fp16_np",
    "radix_keys_np",
    "radix_values_np",
    "radix_pad_value",
]

#: elements per vector tile of the elementwise kernels
_TILE = 16384


def encode_fp16_np(x: np.ndarray) -> np.ndarray:
    """Order-preserving fp16 -> uint16 encoding (reference / host side)."""
    bits = x.astype(np.float16).view(np.uint16)
    sign = (bits >> 15).astype(bool)
    out = np.where(sign, ~bits, bits ^ np.uint16(0x8000))
    return out.astype(np.uint16)


def decode_fp16_np(e: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_fp16_np`."""
    e = np.asarray(e, dtype=np.uint16)
    was_positive = (e >> 15).astype(bool)
    bits = np.where(was_positive, e ^ np.uint16(0x8000), ~e)
    return bits.astype(np.uint16).view(np.float16)


def _sign_bias(dtype: np.dtype) -> int:
    """The XOR that maps two's-complement order onto unsigned order."""
    return 1 << (dtype.itemsize * 8 - 1) if dtype.kind == "i" else 0


def radix_keys_np(values: np.ndarray, descending: bool = False) -> np.ndarray:
    """Order-preserving unsigned radix keys of 8/16-bit values: fp16 via
    :func:`encode_fp16_np`, signed integers with the sign bit flipped,
    unsigned as they are; ``descending`` inverts every key."""
    v = np.asarray(values)
    key_np = np.dtype(f"uint{v.dtype.itemsize * 8}")
    if v.dtype == np.float16:
        keys = encode_fp16_np(v)
    elif v.dtype.kind in "iu" and v.dtype.itemsize in (1, 2):
        keys = v.view(key_np) ^ key_np.type(_sign_bias(v.dtype))
    else:
        raise KernelError(f"no radix key for {v.dtype} values")
    return ~keys if descending else keys


def radix_values_np(keys: np.ndarray, dtype, descending: bool = False) -> np.ndarray:
    """Inverse of :func:`radix_keys_np`: the ``dtype`` values of ``keys``."""
    dtype = np.dtype(dtype)
    keys = np.asarray(keys)
    if descending:
        keys = ~keys
    if dtype == np.float16:
        return decode_fp16_np(keys)
    return (keys ^ keys.dtype.type(_sign_bias(dtype))).view(dtype)


def radix_pad_value(dtype, descending: bool = False):
    """The value whose radix key is all ones: it sorts after every real
    key in the sort direction, NaN encodings included."""
    key_np = np.dtype(f"uint{np.dtype(dtype).itemsize * 8}")
    top = np.array([np.iinfo(key_np).max], dtype=key_np)
    return radix_values_np(top, dtype, descending)[0]


class _ElementwiseVecKernel(Kernel):
    """Shared scaffolding: tile loop over all vector cores."""

    mode = "vec"

    def __init__(self, x: GlobalTensor, y: GlobalTensor, block_dim: int):
        super().__init__(block_dim=block_dim)
        if y.num_elements != x.num_elements:
            raise ShapeError("output length must match input")
        self.x = x
        self.y = y

    def _tiles(self, ctx):
        n = self.x.num_elements
        n_tiles = -(-n // _TILE)
        per_block = -(-n_tiles // self.block_dim) * _TILE
        start = ctx.block_idx * per_block
        end = min(start + per_block, n)
        off = start
        while off < end:
            ln = min(_TILE, end - off)
            yield off, ln
            off += ln


def _check_radix_operands(keys: GlobalTensor, flags: GlobalTensor) -> None:
    if keys.dtype.name not in ("uint16", "uint8"):
        raise KernelError(
            f"radix keys must be uint16 or uint8, got {keys.dtype.name}"
        )
    if flags.dtype.name != "int8":
        raise KernelError(f"radix flags must be int8, got {flags.dtype.name}")


class RadixSingleKernel(_ElementwiseVecKernel):
    """Extract radix ``bit`` of uint16 keys into an int8 flag array
    (flag = 1 where the bit is zero: those elements split to the front)."""

    def __init__(self, keys: GlobalTensor, flags: GlobalTensor, bit: int, block_dim: int):
        super().__init__(keys, flags, block_dim)
        _check_radix_operands(keys, flags)
        if not 0 <= bit < keys.dtype.itemsize * 8:
            raise KernelError(
                f"bit must be in [0, {keys.dtype.itemsize * 8}), got {bit}"
            )
        self.bit = bit

    def run(self, ctx) -> None:
        esz = self.x.dtype.itemsize
        pipe = ctx.make_pipe(ctx.vec_core(0))
        q_in = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE * esz)
        q_bits = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE * esz)
        q_out = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE)
        for off, ln in self._tiles(ctx):
            keys = q_in.alloc_tensor(self.x.dtype, ln)
            I.data_copy(ctx, keys, self.x.slice(off, ln), label="load keys")
            bits = q_bits.alloc_tensor(self.x.dtype, ln)
            I.shift_right(ctx, bits, keys, self.bit, label=f"bit {self.bit}")
            flags = q_out.alloc_tensor("int8", ln)
            # flag = NOT(bit & 1): compare (bit & 1) == 0
            I.bit_and(ctx, bits, bits, 1, label="mask lsb")
            I.compare_scalar(ctx, flags, bits, "eq", 0, label="not")
            I.data_copy(ctx, self.y.slice(off, ln), flags, label="store flags")
            q_out.free_tensor(flags)
            q_bits.free_tensor(bits)
            q_in.free_tensor(keys)


class EncodeFp16Kernel(_ElementwiseVecKernel):
    """Order-preserving fp16 -> uint16 encode (radix sort pre-processing)."""

    def __init__(self, x: GlobalTensor, y: GlobalTensor, block_dim: int):
        super().__init__(x, y, block_dim)
        if x.dtype.name != "fp16" or y.dtype.name != "uint16":
            raise KernelError(
                f"encode maps fp16 -> uint16, got {x.dtype.name} -> {y.dtype.name}"
            )

    def run(self, ctx) -> None:
        pipe = ctx.make_pipe(ctx.vec_core(0))
        q_in = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE * 2)
        q_out = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE * 2)
        for off, ln in self._tiles(ctx):
            t = q_in.alloc_tensor("fp16", ln)
            I.data_copy(ctx, t, self.x.slice(off, ln), label="load")
            out = q_out.alloc_tensor("uint16", ln)
            src_arr = t.array
            dst_arr = out.array

            def _encode() -> None:
                dst_arr[...] = encode_fp16_np(src_arr)

            # sign extraction, select, xor/not: four bit-wise vector
            # instructions over the tile (paper: "implemented the pre- and
            # post-processing steps using AscendC bit-wise vector
            # instructions")
            I.vector_macro(
                ctx,
                label="encode fp16",
                reads=(t,),
                writes=(out,),
                nbytes=4 * ln * 2,
                n_instructions=4,
                apply=_encode,
            )
            I.data_copy(ctx, self.y.slice(off, ln), out, label="store")
            q_out.free_tensor(out)
            q_in.free_tensor(t)


class DecodeFp16Kernel(_ElementwiseVecKernel):
    """uint16 -> fp16 decode (radix sort post-processing)."""

    def __init__(self, x: GlobalTensor, y: GlobalTensor, block_dim: int):
        super().__init__(x, y, block_dim)
        if x.dtype.name != "uint16" or y.dtype.name != "fp16":
            raise KernelError(
                f"decode maps uint16 -> fp16, got {x.dtype.name} -> {y.dtype.name}"
            )

    def run(self, ctx) -> None:
        pipe = ctx.make_pipe(ctx.vec_core(0))
        q_in = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE * 2)
        q_out = pipe.init_buffer(buffer=BufferKind.UB, depth=2, slot_bytes=_TILE * 2)
        for off, ln in self._tiles(ctx):
            t = q_in.alloc_tensor("uint16", ln)
            I.data_copy(ctx, t, self.x.slice(off, ln), label="load")
            out = q_out.alloc_tensor("fp16", ln)
            src_arr = t.array
            dst_arr = out.array

            def _decode() -> None:
                dst_arr[...] = decode_fp16_np(src_arr)

            I.vector_macro(
                ctx,
                label="decode fp16",
                reads=(t,),
                writes=(out,),
                nbytes=4 * ln * 2,
                n_instructions=4,
                apply=_decode,
            )
            I.data_copy(ctx, self.y.slice(off, ln), out, label="store")
            q_out.free_tensor(out)
            q_in.free_tensor(t)
