import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mgepool.errors import ConfigRangeError, DegenerateSpectrumError, InvalidInputError
from mgepool.transforms import (
    RngStream,
    _as_vector,
    cumulative_energy,
    dct2,
    idct2,
    sample_bounded_normal,
)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup distance of empirical
    CDFs. Each sample must be a non-empty finite vector."""
    x = np.sort(_as_vector(a, "a"))
    y = np.sort(_as_vector(b, "b"))
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def naive_dct2(x):
    """O(n^2) orthonormal DCT-II straight from the definition sum."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = sum(x[j] * np.cos(np.pi * k * (2 * j + 1) / (2 * n)) for j in range(n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def naive_idct2(c):
    n = len(c)
    out = np.zeros(n)
    for j in range(n):
        s = c[0] / np.sqrt(n)
        for k in range(1, n):
            s += np.sqrt(2.0 / n) * c[k] * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
        out[j] = s
    return out


class TestDct:
    def test_constant_vector_is_dc_only(self):
        for n in (1, 5, 16):
            c = dct2(np.full(n, 3.25))
            assert c[0] == pytest.approx(3.25 * np.sqrt(n), abs=1e-12)
            assert np.all(np.abs(c[1:]) < 1e-12)

    @pytest.mark.parametrize("n", [1, 7, 64, 4096])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        back = idct2(dct2(x))
        assert np.max(np.abs(back - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))
        c = rng.normal(size=n)
        again = dct2(idct2(c))
        assert np.max(np.abs(again - c)) <= 1e-9 * max(1.0, np.max(np.abs(c)))

    def test_matches_naive_definition(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.max(np.abs(dct2(x) - naive_dct2(x))) <= 1e-12

    def test_naive_oracle_many_lengths(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8, 33, 100, 256):
            x = rng.normal(size=n)
            assert np.max(np.abs(dct2(x) - naive_dct2(x))) <= 1e-12

    def test_inverse_matches_naive_oracle(self):
        rng = np.random.default_rng(33)
        c = rng.normal(size=33)
        assert np.max(np.abs(idct2(c) - naive_idct2(c))) <= 1e-12

    def test_dc_inversion(self):
        n = 9
        c = np.zeros(n)
        c[0] = np.sqrt(n) * 0.7
        assert np.allclose(idct2(c), 0.7, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        for n in (1, 10, 1000, 100_000):
            x = rng.normal(size=n)
            assert abs(np.linalg.norm(dct2(x)) - np.linalg.norm(x)) <= 1e-9 * np.linalg.norm(x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4096), seed=st.integers(0, 2**32 - 1),
           top=st.integers(-150, 150), decades=st.integers(0, 300))
    @example(n=4096, seed=0, top=150, decades=0)
    @example(n=1, seed=0, top=150, decades=0)
    @example(n=4096, seed=1, top=150, decades=300)
    def test_round_trip_and_parseval_properties(self, n, seed, top, decades):
        """Both round trips give the vector back, and both transforms keep
        its 2-norm, to a relative 1e-12 of that norm; entries are spread
        over ``decades`` decades below 10**top, so up to ~1e150 in size."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * 10.0 ** (top - rng.uniform(0, decades, n))
        norm = np.linalg.norm(x)
        for forth, back in ((dct2, idct2), (idct2, dct2)):
            y = forth(x)
            assert abs(np.linalg.norm(y) - norm) <= 1e-12 * norm
            assert np.linalg.norm(back(y) - x) <= 1e-12 * norm

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            dct2(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInputError):
            idct2(np.array([np.inf]))


class TestCumulativeEnergy:
    def test_single_nonzero(self):
        assert np.allclose(cumulative_energy([2.0, 0.0, 0.0]), [1.0, 1.0, 1.0])

    def test_symmetric_pair(self):
        assert np.allclose(cumulative_energy([1.0, 1.0]), [0.5, 1.0])

    def test_matches_prefix_sum_oracle(self):
        rng = np.random.default_rng(16)
        c = rng.normal(size=16)
        # brute-force: sort squared magnitudes descending, prefix-sum, normalize
        sq = sorted((v * v for v in c), reverse=True)
        expected = np.cumsum(sq) / sum(sq)
        assert np.max(np.abs(cumulative_energy(c) - expected)) <= 1e-12

    def test_non_decreasing_ends_at_one(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 50, 333):
            frac = cumulative_energy(rng.normal(size=n))
            assert np.all(np.diff(frac) >= -1e-15)
            assert frac[-1] == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            cumulative_energy(np.zeros(4))


class TestBoundedNormal:
    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(0)
        s = sample_bounded_normal(0.2, 10_000, rng)
        assert np.all(np.abs(s) <= 0.2)
        assert abs(s.mean()) < 0.01

    def test_single_sample_bound(self):
        s = sample_bounded_normal(0.01, 1, np.random.default_rng(1))
        assert abs(s[0]) <= 0.01

    def test_std_matches_truncated_normal_quadrature(self):
        z = 0.2
        sigma = z / 3.0

        def phi(x):
            return np.exp(-x * x / (2 * sigma * sigma)) / (sigma * np.sqrt(2 * np.pi))

        mass = quad(phi, -z, z)[0]
        var = quad(lambda x: x * x * phi(x), -z, z)[0] / mass
        s = sample_bounded_normal(z, 100_000, np.random.default_rng(7))
        assert s.std() == pytest.approx(np.sqrt(var), rel=0.02)

    def test_deterministic_under_stream(self):
        a = sample_bounded_normal(0.1, 100, RngStream(42).generator())
        b = sample_bounded_normal(0.1, 100, RngStream(42).generator())
        assert np.array_equal(a, b)

    def test_range_validation(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.1, 0.21):
            with pytest.raises(ConfigRangeError):
                sample_bounded_normal(bad, 10, rng)


    @pytest.mark.parametrize("count", [2.5, 0, -1, np.nan, np.inf, True, "10", None])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ConfigRangeError, match="^count must be an integer"):
            sample_bounded_normal(0.1, count, np.random.default_rng(0))

    def test_integral_count_accepted(self):
        a = sample_bounded_normal(0.1, 10.0, np.random.default_rng(0))
        assert np.array_equal(a, sample_bounded_normal(0.1, 10, np.random.default_rng(0)))

class TestKsStatistic:
    def test_identical_samples(self):
        a = np.array([0.3, 0.1, 0.9])
        assert ks_statistic(a, a.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_matches_brute_force_cdf_scan(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=100)
        b = rng.normal(0.3, 1.2, size=100)
        # O(n*m) scan: evaluate both empirical CDFs at every sample point
        points = np.concatenate([a, b])
        best = 0.0
        for p in points:
            ca = np.mean(a <= p)
            cb = np.mean(b <= p)
            best = max(best, abs(ca - cb))
        assert ks_statistic(a, b) == best

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ks_statistic([], [1.0])


class TestRngStream:
    def test_children_are_independent_and_reproducible(self):
        root = RngStream(99)
        a1 = root.child(0).generator().normal(size=5)
        a2 = root.child(0).generator().normal(size=5)
        b = root.child(1).generator().normal(size=5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    @pytest.mark.parametrize("seed", [5, 2**64 - 1])
    def test_seeds_past_64_bits_do_not_alias(self, seed):
        """A seed of 2**64 or more keys its own streams; one below keeps the
        stream its (seed, key) SeedSequence gives."""
        draws = RngStream(seed).child(0).generator().random(3)
        assert RngStream(seed).child(0).seed == int(
            np.random.SeedSequence([seed, 0]).generate_state(1, np.uint64)[0])
        for big in (seed + 2**64, seed + 2**128):
            assert not np.array_equal(RngStream(big).child(0).generator().random(3), draws)
