"""Unit tests for the Morton (z-order) codecs (§6 fast z-order).

The O(bits) per-bit interleaving of prior work is kept here, as the
reference the fast spreading paths must equal bit for bit; the package
runs the fast paths only (the Table 3 ablation is a charge).
"""

import numpy as np
import pytest

from repro.core.morton import (
    MortonCodec,
    compact_by_2,
    compact_by_3,
    compact_bits_lut,
    max_bits_per_dim,
    morton_decode,
    morton_encode,
    split_by_2,
    split_by_3,
    split_bits_lut,
)

_U64 = np.uint64


def split_bits_naive(x, dims: int, bits: int) -> np.ndarray:
    """O(bits) per-bit spreading: bit ``i`` of ``x`` moves to ``i * dims``."""
    v = np.asarray(x, dtype=_U64) & _U64((1 << bits) - 1)
    out = np.zeros_like(v)
    for i in range(bits):
        out |= ((v >> _U64(i)) & _U64(1)) << _U64(i * dims)
    return out


def compact_bits_naive(x, dims: int, bits: int) -> np.ndarray:
    """O(bits) per-bit gathering — inverse of :func:`split_bits_naive`."""
    v = np.asarray(x, dtype=_U64)
    out = np.zeros_like(v)
    for i in range(bits):
        out |= ((v >> _U64(i * dims)) & _U64(1)) << _U64(i)
    return out


def morton_encode_naive(grid, bits: int) -> np.ndarray:
    """Per-bit interleaving of ``(n, D)`` grid coordinates into keys."""
    grid = np.atleast_2d(np.asarray(grid, dtype=_U64))
    dims = grid.shape[1]
    key = np.zeros(grid.shape[0], dtype=_U64)
    for d in range(dims):
        key |= split_bits_naive(grid[:, d], dims, bits) << _U64(dims - 1 - d)
    return key


class TestMaxBits:
    def test_common_dims(self):
        assert max_bits_per_dim(1) == 32
        assert max_bits_per_dim(2) == 32
        assert max_bits_per_dim(3) == 21
        assert max_bits_per_dim(4) == 16
        assert max_bits_per_dim(8) == 8

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            max_bits_per_dim(0)


class TestSplitMagic:
    """The unrolled magic-constant paths must equal the per-bit reference."""

    @pytest.mark.parametrize("value", [0, 1, 0x155, 0xFFFFFFFF, 0xDEADBEEF])
    def test_split2_matches_naive(self, value):
        got = split_by_2(np.array([value], dtype=np.uint64))[0]
        want = split_bits_naive(np.array([value], dtype=np.uint64), 2, 32)[0]
        assert got == want

    @pytest.mark.parametrize("value", [0, 1, 0x1FFFFF, 0xABCDE, 0x155555])
    def test_split3_matches_naive(self, value):
        got = split_by_3(np.array([value], dtype=np.uint64))[0]
        want = split_bits_naive(np.array([value], dtype=np.uint64), 3, 21)[0]
        assert got == want

    def test_split2_roundtrip_bulk(self, rng):
        x = rng.integers(0, 2**32, size=500, dtype=np.uint64)
        assert np.array_equal(compact_by_2(split_by_2(x)), x)

    def test_split3_roundtrip_bulk(self, rng):
        x = rng.integers(0, 2**21, size=500, dtype=np.uint64)
        assert np.array_equal(compact_by_3(split_by_3(x)), x)

    def test_split3_masks_top_bits(self):
        # Bits above the 21 supported ones must be discarded.
        x = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert split_by_3(x)[0] == split_by_3(np.array([0x1FFFFF], dtype=np.uint64))[0]


class TestGeneralDims:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_lut_matches_naive(self, dims, rng):
        bits = max_bits_per_dim(dims)
        x = rng.integers(0, 2**bits, size=200, dtype=np.uint64)
        assert np.array_equal(
            split_bits_lut(x, dims, bits), split_bits_naive(x, dims, bits)
        )

    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6, 8])
    def test_compact_inverts_split(self, dims, rng):
        bits = max_bits_per_dim(dims)
        x = rng.integers(0, 2**bits, size=200, dtype=np.uint64)
        assert np.array_equal(compact_bits_lut(split_bits_lut(x, dims, bits), dims, bits), x)
        assert np.array_equal(
            compact_bits_naive(split_bits_naive(x, dims, bits), dims, bits), x
        )


class TestEncodeDecode:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 6])
    def test_roundtrip(self, dims, rng):
        bits = max_bits_per_dim(dims)
        g = rng.integers(0, 2**bits, size=(300, dims), dtype=np.uint64)
        keys = morton_encode(g, bits)
        assert np.array_equal(morton_decode(keys, dims, bits), g)

    @pytest.mark.parametrize("n", [0, 1, 1000, 20000])
    @pytest.mark.parametrize("spread", [split_bits_lut, split_bits_naive],
                             ids=["fast", "naive"])
    @pytest.mark.parametrize("dims", range(1, 9))
    def test_one_pass_encode_matches_the_per_dimension_loop(self, dims, spread,
                                                            n, rng):
        # D = 2 and 3 take the magic-mask path, the others the byte LUT;
        # 20000 rows span three encode blocks.  The loop spreads one
        # column at a time, with the fast path or the per-bit reference.
        bits = max_bits_per_dim(dims)
        g = rng.integers(0, 2**bits, size=(n, dims), dtype=np.uint64)
        want = np.zeros(n, dtype=np.uint64)
        for d in range(dims):
            want |= spread(g[:, d], dims, bits) << np.uint64(dims - 1 - d)
        got = morton_encode(g, bits)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dims", [2, 3, 5])
    def test_fast_equals_naive(self, dims, rng):
        bits = max_bits_per_dim(dims)
        g = rng.integers(0, 2**bits, size=(300, dims), dtype=np.uint64)
        assert np.array_equal(morton_encode(g, bits), morton_encode_naive(g, bits))

    def test_order_is_lexicographic_on_interleaved_bits(self):
        # The highest set bit across dimensions decides the order; within
        # one bit level, dimension 0 is the more significant one.
        g = np.array([[0, 7], [4, 0], [4, 1], [5, 0]], dtype=np.uint64)
        keys = morton_encode(g, 3).astype(np.int64)
        assert keys[1] > keys[0]  # dim0 bit2 outranks dim1 bits below it
        assert keys[3] > keys[2]  # dim0 bit0 outranks dim1 bit0

    def test_key_too_wide_raises(self):
        with pytest.raises(ValueError):
            morton_encode(np.zeros((1, 3), dtype=np.uint64), 22)

    def test_negative_coords_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([[-1, 2]], dtype=np.int64), 8)


class TestFloatCoordValidation:
    """Regression: the uint64 cast used to wrap negative / fractional
    floats silently (split_by_2([-1.0]) came back as a huge key)."""

    def test_negative_float_rejected(self):
        with pytest.raises(ValueError):
            split_by_2(np.array([-1.0]))

    def test_non_integral_float_rejected(self):
        with pytest.raises(ValueError):
            split_by_2(np.array([1.5]))
        with pytest.raises(ValueError):
            morton_encode(np.array([[0.25, 2.0]]), 8)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                split_by_2(np.array([bad]))

    def test_integral_floats_encode_like_ints(self):
        f = np.array([[3.0, 7.0], [0.0, 255.0]])
        i = f.astype(np.uint64)
        assert np.array_equal(morton_encode(f, 8), morton_encode(i, 8))
        assert np.array_equal(
            split_by_2(np.array([12.0])), split_by_2(np.array([12], dtype=np.uint64))
        )


class TestCodec:
    def test_fit_covers_points(self, pts3d):
        codec = MortonCodec.fit(pts3d)
        g = codec.quantize(pts3d)
        assert g.max() < 2**codec.bits

    def test_quantize_clips_outside_box(self):
        codec = MortonCodec(np.zeros(2), np.ones(2), 2, 8)
        g = codec.quantize(np.array([[-5.0, 7.0]]))
        assert g[0, 0] == 0
        assert g[0, 1] == 2**8 - 1

    def test_encode_monotone_along_axis(self):
        codec = MortonCodec(np.zeros(1), np.ones(1), 1, 16)
        pts = np.linspace(0, 1, 50).reshape(-1, 1)
        keys = codec.encode(pts)
        assert np.all(np.diff(keys.astype(np.int64)) >= 0)

    def test_degenerate_extent(self):
        # All points identical in one dimension must not divide by zero.
        pts = np.array([[0.5, 0.2], [0.5, 0.9]])
        codec = MortonCodec.fit(pts)
        keys = codec.encode(pts)
        assert len(keys) == 2

    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            MortonCodec(np.ones(2), np.zeros(2), 2, 8)

    def test_invalid_bits_raises(self):
        with pytest.raises(ValueError):
            MortonCodec(np.zeros(3), np.ones(3), 3, 25)


class TestPrefixBox:
    def test_root_prefix_is_whole_box(self, pts3d):
        codec = MortonCodec.fit(pts3d)
        lo, hi = codec.prefix_box(0, 0)
        assert np.all(lo <= codec.lo + 1e-12)
        assert np.all(hi >= codec.hi - 1e-12)

    def test_depth_one_halves_first_dimension(self):
        codec = MortonCodec(np.zeros(2), np.ones(2), 2, 8)
        lo0, hi0 = codec.prefix_box(0, 1)
        lo1, hi1 = codec.prefix_box(1, 1)
        assert hi0[0] == pytest.approx(0.5, abs=0.01)
        assert lo1[0] == pytest.approx(0.5, abs=0.01)
        # Second dimension still spans the full box at depth 1.
        assert hi0[1] == pytest.approx(1.0, abs=0.01)

    def test_point_key_prefix_contains_point(self, rng):
        codec = MortonCodec(np.zeros(3), np.ones(3), 3, 21)
        pts = rng.random((50, 3))
        keys = codec.encode(pts)
        kb = codec.key_bits
        for p, k in zip(pts, keys.tolist()):
            for depth in (0, 1, 5, 17, 30):
                prefix = int(k) >> (kb - depth) if depth else 0
                lo, hi = codec.prefix_box(prefix, depth)
                assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)

    def test_children_partition_parent(self):
        codec = MortonCodec(np.zeros(2), np.ones(2), 2, 8)
        for depth in range(0, 6):
            for prefix in range(2**depth):
                plo, phi = codec.prefix_box(prefix, depth)
                llo, lhi = codec.prefix_box(prefix << 1, depth + 1)
                rlo, rhi = codec.prefix_box((prefix << 1) | 1, depth + 1)
                assert np.all(llo >= plo - 1e-12) and np.all(lhi <= phi + 1e-12)
                assert np.all(rlo >= plo - 1e-12) and np.all(rhi <= phi + 1e-12)
                vol_p = np.prod(phi - plo)
                vol_children = np.prod(lhi - llo) + np.prod(rhi - rlo)
                assert vol_children == pytest.approx(vol_p, rel=1e-9)

    def test_bad_depth_raises(self):
        codec = MortonCodec(np.zeros(2), np.ones(2), 2, 8)
        with pytest.raises(ValueError):
            codec.prefix_box(0, 99)
