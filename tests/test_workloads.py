"""Tests for the workload generators and skew statistics (§7.1–7.3)."""

import numpy as np
import pytest

from repro.workloads import (
    bin_points,
    bursty_arrivals,
    cosmos_like_points,
    diurnal_arrivals,
    gini_coefficient,
    max_alpha,
    osm_like_points,
    poisson_arrivals,
    uniform_points,
    varden_points,
    zipf_exponent_fit,
    zipf_mix_queries,
)


GENERATORS = [uniform_points, cosmos_like_points, osm_like_points, varden_points]


class TestBasics:
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_shape_and_domain(self, gen):
        pts = gen(5000, 3, seed=1)
        assert pts.shape == (5000, 3)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_deterministic_by_seed(self, gen):
        a = gen(2000, 3, seed=7)
        b = gen(2000, 3, seed=7)
        np.testing.assert_array_equal(a, b)
        c = gen(2000, 3, seed=8)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_2d_supported(self, gen):
        pts = gen(1000, 2, seed=0)
        assert pts.shape == (1000, 2)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_accepts_generator_object(self, gen):
        rng = np.random.default_rng(5)
        pts = gen(500, 3, rng)
        assert pts.shape == (500, 3)


# SHA-256 of ``varden_points(...).tobytes()`` as generated with NumPy array
# steps; the walk now steps on Python floats and must not move a bit.
_VARDEN_DIGESTS = [
    ((100_000, 3, 7), {},
     "0f42e4542341fc46fab14aecd27e4c49d9b772d44c4ccd94ed14302e6db3430c"),
    ((60_000, 3, 7), {},
     "6a572107b80074f8eef0e6b4c5169b09b48997482be0ab856bd6bb4f020bb3c4"),
    ((20_000, 2, 3), {},
     "04b373aca3cf5f28d305d45febe66d4b1e4515f9b2ec1daa6420aaaeffbff47e"),
    ((5_000, 5, 11), {},
     "022ce595bf2e9a04acf59675f1ca4b2fe4746ef77484066df260a6606820eb63"),
    # Frequent restarts and reflections off every face.
    ((5_000, 3, 5), {"restart_prob": 0.05, "step_scale": 0.2},
     "f9009ff33ba10e9ba47c09b48f9d2d56b03d377ecf1a43cb1b0cc64fccc9aded"),
]


@pytest.mark.parametrize("args, kw, digest", _VARDEN_DIGESTS,
                         ids=[f"{a[0]}x{a[1]}-s{a[2]}" for a, _, _ in _VARDEN_DIGESTS])
def test_varden_bytes_are_pinned(args, kw, digest):
    import hashlib

    assert hashlib.sha256(varden_points(*args, **kw).tobytes()).hexdigest() == digest
    assert varden_points(0, args[1], seed=args[2]).shape == (0, args[1])


class TestSkewCalibration:
    """The synthetic datasets must match the published Gini coefficients:
    COSMOS ≈ 0.287, OSM ≈ 0.967 over 2048 bins (§7.2)."""

    def test_uniform_low_gini(self):
        g = gini_coefficient(uniform_points(60_000, 3, 0), 2048)
        assert g < 0.15

    def test_cosmos_moderate_gini(self):
        g = gini_coefficient(cosmos_like_points(60_000, 3, 0), 2048)
        assert 0.2 < g < 0.42

    def test_osm_extreme_gini(self):
        g = gini_coefficient(osm_like_points(60_000, 3, 0), 2048)
        assert g > 0.9

    def test_varden_extreme_gini(self):
        g = gini_coefficient(varden_points(60_000, 3, 0), 2048)
        assert g > 0.9

    def test_ordering(self):
        gs = [
            gini_coefficient(gen(40_000, 3, 0), 2048)
            for gen in (uniform_points, cosmos_like_points, osm_like_points)
        ]
        assert gs[0] < gs[1] < gs[2]

    def test_osm_zipf_exponent(self):
        counts = bin_points(osm_like_points(60_000, 3, 0), 2048)
        z = zipf_exponent_fit(counts)
        assert z > 0.8  # paper: ≈ 1.5 for real OSM

    def test_cosmos_zipf_below_osm(self):
        zc = zipf_exponent_fit(bin_points(cosmos_like_points(60_000, 3, 0), 2048))
        zo = zipf_exponent_fit(bin_points(osm_like_points(60_000, 3, 0), 2048))
        assert zc < zo


class TestGini:
    def test_all_equal_counts_zero(self):
        assert gini_coefficient(np.full(100, 5)) == pytest.approx(0.0, abs=0.02)

    def test_single_hot_bin_near_one(self):
        counts = np.zeros(1000)
        counts[0] = 1e6
        assert gini_coefficient(counts) > 0.99

    def test_empty_input(self):
        assert gini_coefficient(np.array([])) == 0.0

    def test_bounds(self, rng):
        counts = rng.integers(0, 100, 500)
        g = gini_coefficient(counts)
        assert 0.0 <= g <= 1.0

    def test_bin_points_total(self, rng):
        pts = rng.random((5000, 2))
        counts = bin_points(pts, 1024)
        assert counts.sum() == 5000


class TestAlphaBetaSkew:
    def test_uniform_keys_high_alpha(self, rng):
        keys = rng.random(10_000)
        a = max_alpha(keys, beta=16, key_range=(0, 1))
        assert a > 8  # ideal alpha = beta = 16

    def test_point_mass_alpha_one(self):
        keys = np.full(1000, 0.5)
        assert max_alpha(keys, beta=16, key_range=(0, 1)) == pytest.approx(1.0)

    def test_empty_batch(self):
        assert max_alpha(np.array([]), 4) == float("inf")

    def test_monotone_in_concentration(self, rng):
        spread = rng.random(5000)
        tight = rng.random(5000) * 0.05
        assert max_alpha(spread, 32, key_range=(0, 1)) > max_alpha(
            tight, 32, key_range=(0, 1)
        )


class TestZipfMix:
    def test_fraction_zero_is_uniform(self, rng):
        base = rng.random((1000, 3))
        q = zipf_mix_queries(base, 4000, 0.0, seed=1)
        assert q.shape == (4000, 3)
        assert gini_coefficient(q, 512) < 0.5

    def test_fraction_one_is_skewed(self, rng):
        base = rng.random((1000, 3))
        q = zipf_mix_queries(base, 4000, 1.0, seed=1)
        assert gini_coefficient(q, 512) > 0.8

    def test_mix_monotone_in_fraction(self, rng):
        base = rng.random((1000, 3))
        gs = [
            gini_coefficient(zipf_mix_queries(base, 4000, f, seed=1), 512)
            for f in (0.0, 0.2, 1.0)
        ]
        assert gs[0] < gs[2]

    def test_queries_within_base_extent(self, rng):
        base = rng.random((1000, 3)) * 0.5 + 0.2
        q = zipf_mix_queries(base, 300, 0.0, seed=2)
        assert q.min() >= 0.2 - 1e-9 and q.max() <= 0.7 + 1e-9


ARRIVAL_PROCESSES = [poisson_arrivals, bursty_arrivals, diurnal_arrivals]


class TestArrivalProcesses:
    @pytest.mark.parametrize("proc", ARRIVAL_PROCESSES)
    def test_sorted_positive_and_sized(self, proc):
        t = proc(1000.0, 500, seed=3)
        assert t.shape == (500,)
        assert np.all(t > 0)
        assert np.all(np.diff(t) >= 0)

    @pytest.mark.parametrize("proc", ARRIVAL_PROCESSES)
    def test_deterministic_by_seed(self, proc):
        a = proc(500.0, 200, seed=9)
        b = proc(500.0, 200, seed=9)
        np.testing.assert_array_equal(a, b)
        c = proc(500.0, 200, seed=10)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("proc", ARRIVAL_PROCESSES)
    def test_mean_rate_close_to_requested(self, proc):
        rate = 2000.0
        n = 8000
        t = proc(rate, n, seed=5)
        # Empirical rate over the generated span within 15% of requested
        # (all three processes are normalised to the same long-run mean).
        assert n / t[-1] == pytest.approx(rate, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        rate, n = 1000.0, 6000
        poisson_gaps = np.diff(poisson_arrivals(rate, n, seed=7))
        bursty_gaps = np.diff(bursty_arrivals(rate, n, seed=7))
        # Squared coefficient of variation: 1 for Poisson, > 1 for MMPP.
        def cv2(g):
            return float(np.var(g) / np.mean(g) ** 2)
        assert cv2(bursty_gaps) > 1.5 * cv2(poisson_gaps)

    def test_diurnal_rate_modulates(self):
        t = diurnal_arrivals(1000.0, 8000, seed=2, day_s=4.0,
                             peak_to_trough=6.0)
        counts, _ = np.histogram(t, bins=np.arange(0.0, t[-1], 0.5))
        # Peak half-second buckets must see far more arrivals than troughs.
        assert counts.max() > 2.0 * max(1, counts.min())

    @pytest.mark.parametrize("proc", ARRIVAL_PROCESSES)
    def test_invalid_rate_rejected(self, proc):
        with pytest.raises(ValueError):
            proc(0.0, 10)

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, -1)
        with pytest.raises(ValueError):
            bursty_arrivals(10.0, 5, burst_fraction=1.5)
        with pytest.raises(ValueError):
            bursty_arrivals(10.0, 5, burst_factor=0.5)
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 5, peak_to_trough=0.5)
