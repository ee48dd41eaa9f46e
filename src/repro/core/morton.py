"""Morton (z-order) key codecs.

The zd-tree splits space by the bits of the z-order (Morton) key of each
point: the key interleaves the bits of the D coordinates, most-significant
bit first, cycling through dimensions.  This module provides

* ``split_by_2`` / ``split_by_3`` — the O(log bits) "gap" spreading tricks
  from the paper (§6, *Fast z-Order Computation*), vectorised over NumPy
  ``uint64`` arrays, with exact inverses ``compact_by_2``/``compact_by_3``;
* a byte-lookup-table generalisation for arbitrary dimension
  (``split_bits_lut``), which keeps the O(bits / 8) table-lookup cost the
  paper's technique targets while supporting D > 3;
* :class:`MortonCodec` — quantises floating-point points inside a bounding
  box onto an integer grid and encodes/decodes full Morton keys, exposing
  the prefix→cell geometry the tree needs for bounding boxes.

The O(bits) per-bit interleaving of prior work yields bitwise-equal keys,
so it is not run: the Table 3 "Fast z-order" ablation is a charge
(``PIMZdTree.encode_keys`` books O(log bits) or O(bits) CPU ops per key
from ``config.fast_zorder``; ``ZdTree`` likewise from ``naive_zorder``).
The per-bit reference lives with the tests (``tests/test_morton.py``).

Bit layout convention
---------------------
For ``D`` dimensions with ``bits`` bits per dimension, coordinate bit ``i``
(``i = 0`` is the least-significant grid bit) of dimension ``d`` lands at
key-bit position ``i * D + (D - 1 - d)``.  Dimension 0 is therefore the
most significant dimension within each group, and the top key bit is bit
``D * bits - 1``.  A tree level ``l`` (root = 0) splits on key bit
``D * bits - 1 - l``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "split_by_2",
    "split_by_3",
    "compact_by_2",
    "compact_by_3",
    "split_bits_lut",
    "compact_bits_lut",
    "morton_encode",
    "morton_decode",
    "MortonCodec",
    "max_bits_per_dim",
]

_U64 = np.uint64

# Magic (shift, mask) stages for spreading 32 bits with one-bit gaps
# (2-D case), as ``np.uint64`` so no stage converts a Python int.
_MASKS_2 = tuple((_U64(shift), _U64(mask)) for shift, mask in (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
))

# Magic stages for spreading 21 bits with two-bit gaps (3-D case); the
# constants are the ones printed in the paper (§6).
_MASKS_3 = tuple((_U64(shift), _U64(mask)) for shift, mask in (
    (32, 0x001F00000000FFFF),
    (16, 0x001F0000FF0000FF),
    (8, 0x100F00F00F00F00F),
    (4, 0x10C30C30C30C30C3),
    (2, 0x1249249249249249),
))
_LOW_32, _LOW_21 = _U64(0xFFFFFFFF), _U64(0x1FFFFF)


def max_bits_per_dim(dims: int) -> int:
    """Largest per-dimension bit width so the full key fits in 64 bits."""
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    return min(64 // dims, 32)


def _as_u64(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype != _U64:
        if np.issubdtype(arr.dtype, np.signedinteger) and arr.size and arr.min() < 0:
            raise ValueError("coordinates must be non-negative integers")
        if np.issubdtype(arr.dtype, np.floating) and arr.size:
            # A negative or fractional float silently wraps / truncates in
            # the uint64 cast (e.g. -1.0 → 2**64 - 1), scrambling the key.
            if not np.isfinite(arr).all():
                raise ValueError("coordinates must be finite")
            if arr.min() < 0:
                raise ValueError("coordinates must be non-negative integers")
            if (arr != np.floor(arr)).any():
                raise ValueError("float coordinates must be integral")
        arr = arr.astype(_U64)
    return arr


def split_by_2(x) -> np.ndarray:
    """Spread the low 32 bits of ``x`` so bit ``i`` moves to bit ``2*i``."""
    v = _as_u64(x) & _LOW_32
    for shift, mask in _MASKS_2:
        v = (v | (v << shift)) & mask
    return v


def split_by_3(x) -> np.ndarray:
    """Spread the low 21 bits of ``x`` so bit ``i`` moves to bit ``3*i``."""
    v = _as_u64(x) & _LOW_21
    for shift, mask in _MASKS_3:
        v = (v | (v << shift)) & mask
    return v


def compact_by_2(x) -> np.ndarray:
    """Inverse of :func:`split_by_2`: gather bits ``0,2,4,…`` of ``x``."""
    v = _as_u64(x) & _U64(0x5555555555555555)
    v = (v | (v >> _U64(1))) & _U64(0x3333333333333333)
    v = (v | (v >> _U64(2))) & _U64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> _U64(4))) & _U64(0x00FF00FF00FF00FF)
    v = (v | (v >> _U64(8))) & _U64(0x0000FFFF0000FFFF)
    v = (v | (v >> _U64(16))) & _U64(0x00000000FFFFFFFF)
    return v


def compact_by_3(x) -> np.ndarray:
    """Inverse of :func:`split_by_3`: gather bits ``0,3,6,…`` of ``x``."""
    v = _as_u64(x) & _U64(0x1249249249249249)
    v = (v | (v >> _U64(2))) & _U64(0x10C30C30C30C30C3)
    v = (v | (v >> _U64(4))) & _U64(0x100F00F00F00F00F)
    v = (v | (v >> _U64(8))) & _U64(0x001F0000FF0000FF)
    v = (v | (v >> _U64(16))) & _U64(0x001F00000000FFFF)
    v = (v | (v >> _U64(32))) & _U64(0x00000000001FFFFF)
    return v


@functools.lru_cache(maxsize=32)
def _spread_lut(dims: int) -> np.ndarray:
    """256-entry table mapping a byte to its bits spread with gap ``dims``."""
    lut = np.zeros(256, dtype=_U64)
    for byte in range(256):
        out = 0
        for i in range(8):
            if byte >> i & 1:
                out |= 1 << (i * dims)
        lut[byte] = out
    return lut


def split_bits_lut(x, dims: int, bits: int) -> np.ndarray:
    """Spread the low ``bits`` bits of ``x`` with gap ``dims`` via byte LUTs.

    This is the general-dimension fast path: O(bits / 8) vectorised table
    lookups per key instead of O(bits) single-bit operations.
    """
    if dims == 2:
        return split_by_2(x) & _mask_u64(2 * bits)
    if dims == 3:
        return split_by_3(x) & _mask_u64(3 * bits)
    v = _as_u64(x) & _mask_u64(bits)
    lut = _spread_lut(dims)
    out = np.zeros_like(v)
    nbytes = (bits + 7) // 8
    for j in range(nbytes):
        byte = (v >> _U64(8 * j)) & _U64(0xFF)
        out |= lut[byte.astype(np.intp)] << _U64(8 * j * dims)
    return out


def compact_bits_lut(x, dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`split_bits_lut` (general-dimension)."""
    if dims == 2:
        return compact_by_2(x) & _mask_u64(bits)
    if dims == 3:
        return compact_by_3(x) & _mask_u64(bits)
    v = _as_u64(x)
    out = np.zeros_like(v)
    for i in range(bits):
        out |= ((v >> _U64(i * dims)) & _U64(1)) << _U64(i)
    return out


def _mask_u64(nbits: int) -> np.uint64:
    if nbits >= 64:
        return _U64(0xFFFFFFFFFFFFFFFF)
    return _U64((1 << nbits) - 1)


def morton_encode(grid: np.ndarray, bits: int) -> np.ndarray:
    """Interleave integer grid coordinates into Morton keys.

    Spreads with the O(log bits) / LUT technique of §6.

    Parameters
    ----------
    grid:
        ``(n, D)`` array of non-negative integer coordinates, each
        ``< 2**bits``.
    bits:
        Bits per dimension; ``D * bits`` must be ≤ 64.
    """
    grid = np.atleast_2d(np.asarray(grid))
    n, dims = grid.shape
    if dims * bits > 64:
        raise ValueError(f"key would need {dims * bits} bits; max is 64")
    key = np.zeros(n, dtype=_U64)
    for start in range(0, n, _ENCODE_BLOCK):
        # One spread of the block's whole grid; column d then shifts to
        # its interleave offset D - 1 - d and the columns OR together.
        spread_block = split_bits_lut(grid[start:start + _ENCODE_BLOCK],
                                      dims, bits)
        block = key[start:start + _ENCODE_BLOCK]
        for d in range(dims):
            block |= spread_block[:, d] << _U64(dims - 1 - d)
    return key


# Rows spread per pass of :func:`morton_encode`: a block's (rows, D)
# temporaries stay in cache, where spreading a million-row grid at once
# ran slower than a column at a time.
_ENCODE_BLOCK = 8192


def morton_decode(keys: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Invert :func:`morton_encode`: recover the ``(n, D)`` grid coordinates."""
    keys = np.atleast_1d(_as_u64(keys))
    grid = np.empty((keys.shape[0], dims), dtype=_U64)
    for d in range(dims):
        grid[:, d] = compact_bits_lut(keys >> _U64(dims - 1 - d), dims, bits)
    return grid


@dataclass(frozen=True)
class MortonCodec:
    """Quantises float points in a bounding box and encodes Morton keys.

    The codec is the only place where floating-point geometry meets the
    integer key space; the tree itself works purely on keys and prefixes.

    Attributes
    ----------
    lo, hi:
        Bounding box of the key space (length-``dims`` float arrays).
        Points outside are clipped onto the box surface, which matches the
        zd-tree's "root represents the entire bounding box" semantics.
    dims:
        Number of dimensions.
    bits:
        Bits per dimension.  ``key_bits = dims * bits``.
    """

    lo: np.ndarray
    hi: np.ndarray
    dims: int
    bits: int
    _scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64).reshape(self.dims)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(self.dims)
        if np.any(hi < lo):
            raise ValueError("bounding box has hi < lo")
        if self.bits < 1 or self.dims * self.bits > 64:
            raise ValueError(f"invalid bits={self.bits} for dims={self.dims}")
        extent = np.maximum(hi - lo, np.finfo(np.float64).tiny)
        scale = (2.0**self.bits - 1.0) / extent
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_scale", scale)

    @classmethod
    def fit(cls, points: np.ndarray, bits: int | None = None, *,
            pad: float = 1e-9) -> "MortonCodec":
        """Build a codec whose box (slightly padded) covers ``points``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        dims = points.shape[1]
        if bits is None:
            bits = max_bits_per_dim(dims)
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1.0)
        return cls(lo - pad * span, hi + pad * span, dims, bits)

    @property
    def key_bits(self) -> int:
        """Total number of significant bits in a key."""
        return self.dims * self.bits

    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Map float points to integer grid coordinates (clipped to box)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dims:
            raise ValueError(f"expected {self.dims}-D points, got {points.shape[1]}-D")
        g = np.floor((points - self.lo) * self._scale)
        np.clip(g, 0, 2**self.bits - 1, out=g)
        return g.astype(_U64)

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Encode float points to Morton keys."""
        return morton_encode(self.quantize(points), self.bits)

    def prefix_box(self, prefix: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box of the tree node with the given key prefix.

        ``prefix`` holds the top ``depth`` key bits in the *low* bits of an
        integer (i.e. the node's path from the root), exactly as the tree
        stores it.  Returns ``(lo, hi)`` float arrays.
        """
        kb = self.key_bits
        if not 0 <= depth <= kb:
            raise ValueError(f"depth {depth} out of range [0, {kb}]")
        lo_key = int(prefix) << (kb - depth) if depth < kb else int(prefix)
        glo = morton_decode(np.array([lo_key], dtype=_U64), self.dims, self.bits)[0]
        # Per-dimension: how many of this dimension's bits are fixed by the
        # prefix.  Dimension d owns key bits at positions p ≡ (dims-1-d)
        # (mod dims) counting from the top; of the top `depth` bits,
        # dimension d contributes ceil((depth - d) / dims) bits.
        box_lo = np.empty(self.dims)
        box_hi = np.empty(self.dims)
        for d in range(self.dims):
            fixed = max(0, (depth - d + self.dims - 1) // self.dims)
            free = self.bits - fixed
            cell_lo = int(glo[d])
            cell_hi = cell_lo + (1 << free) - 1
            box_lo[d] = self.lo[d] + cell_lo / self._scale[d]
            box_hi[d] = self.lo[d] + (cell_hi + 1) / self._scale[d]
        return box_lo, box_hi

    def prefix_box_batch(self, prefixes, depths) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`prefix_box` over ``M`` (prefix, depth) pairs.

        Returns ``(lo, hi)`` of shape ``(M, dims)``.  Bitwise identical to
        the scalar method row by row: every intermediate stays an exact
        integer below 2**53, so the float arithmetic reassociates freely.
        """
        kb = self.key_bits
        pfx = np.asarray(prefixes, dtype=_U64)
        dep = np.asarray(depths, dtype=np.int64)
        if dep.size and (dep.min() < 0 or dep.max() > kb):
            raise ValueError("depth out of range")
        # prefix << (kb - depth); a 64-bit shift (depth == 0, kb == 64) is
        # undefined for uint64, but the root's prefix is 0 — mask it out.
        shift = kb - dep
        full = shift >= 64
        lo_key = np.where(dep < kb, pfx << np.where(full, 0, shift).astype(_U64), pfx)
        lo_key = np.where(full, _U64(0), lo_key)
        glo = morton_decode(lo_key, self.dims, self.bits).astype(np.float64)
        d_idx = np.arange(self.dims)
        fixed = np.maximum(0, (dep[:, None] - d_idx + self.dims - 1) // self.dims)
        free = self.bits - fixed
        pow2 = (np.int64(1) << free).astype(np.float64)  # exact: free <= 32
        box_lo = self.lo + glo / self._scale
        box_hi = self.lo + (glo + pow2) / self._scale
        return box_lo, box_hi
