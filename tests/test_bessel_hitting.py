import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize
from scipy import special as sp

from exitwalk.specfun import BesselIndex
from exitwalk.harness import ExperimentConfig, run_experiment, run_result_document
from exitwalk.samplers import RngStream, sample_tau_psi
from exitwalk import bessel_hitting
from exitwalk.bessel_hitting import (
    InversionError,
    MovingBoundary,
    SeriesTruncationError,
    SpectralSeriesCache,
    hitting_pdf,
    invert_cdf_batch,
    laplace_transform,
    moving_sphere_t_max,
    psi,
    tail_spectral,
)


def maximize_psi(boundary: MovingBoundary) -> float:
    """Golden-section oracle for sup_t psi(t)."""
    res = optimize.minimize_scalar(
        lambda t: -psi(t, boundary),
        bounds=(1e-12 * boundary.t_max, boundary.t_max),
        method="bounded",
        options={"xatol": 1e-14 * boundary.t_max},
    )
    return -res.fun


class TestMovingBoundary:
    def test_t_max_dimension_two_is_a(self):
        # in dimension 2, t_max is the paper's image parameter a = gamma^2 e d^2 / 2
        d, gamma = 0.4, 0.7
        mb = MovingBoundary.for_step(d, gamma, BesselIndex(2))
        assert mb.t_max == pytest.approx(gamma * gamma * math.e * d * d / 2.0, rel=1e-15)

    def test_rejects_nonpositive_a(self):
        # t_max is positive exactly when the image parameter a is
        with pytest.raises(ValueError):
            MovingBoundary(0.0, BesselIndex(2))

    def test_psi_vanishes_at_t_max(self):
        for delta in (2, 3, 5):
            mb = MovingBoundary(0.7, BesselIndex(delta))
            assert psi(mb.t_max, mb) == 0.0

    def test_psi_domain(self):
        mb = MovingBoundary(1.0, BesselIndex(2))
        with pytest.raises(ValueError):
            psi(0.0, mb)
        with pytest.raises(ValueError):
            psi(mb.t_max * (1 + 1e-9), mb)

    def test_maximum_dimension_two(self):
        # maximize 2 t ln(t_max/t): maximizer t_max/e, value sqrt(2 t_max/e)
        t_max = 1.3
        mb = MovingBoundary(t_max, BesselIndex(2))
        assert psi(t_max / math.e, mb) == pytest.approx(math.sqrt(2.0 * t_max / math.e), rel=1e-14)

    @pytest.mark.parametrize("delta", [2, 3, 5])
    def test_supremum_is_gamma_d(self, delta):
        d, gamma = 0.35, 0.99
        mb = MovingBoundary.for_step(d, gamma, BesselIndex(delta))
        assert maximize_psi(mb) == pytest.approx(gamma * d, abs=1e-10)
        # closed-form check at the analytic maximizer t_max / e
        assert psi(mb.t_max / math.e, mb) == pytest.approx(gamma * d, abs=1e-12)

    @pytest.mark.parametrize("delta", [300, 400])
    def test_builds_in_large_dimension(self, delta):
        # the image parameter a of the paper underflows a double at delta = 300; t_max does not
        mb = MovingBoundary.for_step(0.5, 0.99, BesselIndex(delta))
        assert psi(mb.t_max / math.e, mb) == pytest.approx(0.99 * 0.5, rel=1e-12)


class TestHittingPdf:
    def test_vanishes_at_t_max(self):
        mb = MovingBoundary(0.9, BesselIndex(3))
        assert hitting_pdf(mb.t_max, mb) == 0.0

    def test_dimension_two_closed_form(self):
        t_max = 0.62
        mb = MovingBoundary(t_max, BesselIndex(2))
        t = np.linspace(1e-6, t_max, 200)
        assert np.allclose(hitting_pdf(t, mb), np.log(t_max / t) / t_max, rtol=1e-12)

    # at delta = 400, core^(nu+1) and Gamma(nu+1) overflow a double; the log form does not
    @pytest.mark.parametrize("delta", [*range(2, 9), 400])
    def test_normalization(self, delta):
        mb = MovingBoundary(0.8, BesselIndex(delta))
        mass, err = integrate.quad(lambda t: hitting_pdf(t, mb), 0.0, mb.t_max, limit=300)
        assert abs(mass - 1.0) < 1e-8

    def test_dimension_two_mean(self):
        t_max = 0.55
        mb = MovingBoundary(t_max, BesselIndex(2))
        mean, _ = integrate.quad(lambda t: t * hitting_pdf(t, mb), 0.0, t_max, limit=300)
        assert mean == pytest.approx(t_max / 4.0, abs=1e-10)

    def test_domain(self):
        mb = MovingBoundary(1.0, BesselIndex(2))
        with pytest.raises(ValueError):
            hitting_pdf(-0.1, mb)


class TestMovingSphereParamA:
    """The per-step boundary parameter t_max, built by MovingBoundary.for_step.

    The paper writes it through the image parameter a, a monotone function
    of t_max.
    """

    def test_dimension_two_closed_form(self):
        d, gamma = 0.4, 0.7
        expected = gamma * gamma * math.e * d * d / 2.0
        assert moving_sphere_t_max(d, gamma, BesselIndex(2)) == pytest.approx(expected, rel=1e-15)

    @given(
        d=st.floats(min_value=1e-4, max_value=5.0),
        gamma=st.floats(min_value=1e-3, max_value=0.999),
        delta=st.integers(min_value=2, max_value=8),
    )
    def test_strictly_increasing_in_distance(self, d, gamma, delta):
        index = BesselIndex(delta)
        assert (
            MovingBoundary.for_step(2.0 * d, gamma, index).t_max
            > MovingBoundary.for_step(d, gamma, index).t_max
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            MovingBoundary.for_step(0.0, 0.5, BesselIndex(2))
        with pytest.raises(ValueError):
            MovingBoundary.for_step(1.0, 1.0, BesselIndex(2))
        with pytest.raises(ValueError):
            MovingBoundary.for_step(1.0, 0.0, BesselIndex(2))


class TestSafetyInvariant:
    @pytest.mark.parametrize("delta", [2, 3, 5])
    def test_draws_stay_inside_safety_ball(self, delta):
        d, gamma = 0.8, 0.95
        index = BesselIndex(delta)
        mb = MovingBoundary.for_step(d, gamma, index)
        r = sample_tau_psi(np.full(20_000, mb.t_max), index, RngStream(31, delta))[0]
        assert np.all(psi(r, mb) <= gamma * d + 1e-12)


class TestTailSpectral:
    def test_one_term_dominance(self):
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        j01 = sp.jn_zeros(0, 1)[0]
        expected = 2.0 / (j01 * sp.jv(1, j01)) * math.exp(-j01 * j01 * 5.0)
        assert tail_spectral(10.0, cache) == pytest.approx(expected, abs=1e-10)

    def test_monotone_nonincreasing(self):
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        grid = np.linspace(0.05, 5.0, 100)
        values = [tail_spectral(t, cache) for t in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("delta", [2, 3, 5])
    def test_bounded_near_floor(self, delta):
        cache = SpectralSeriesCache(BesselIndex(delta), radius=1.0)
        for t in np.linspace(cache.t_min, 0.06, 20):
            assert 0.0 <= tail_spectral(t, cache) <= 1.0
        assert cache.clamp_count >= 0

    def test_partial_sum_stability(self):
        # at t >= 0.1 L^2 the K-th and (K+1)-th partial sums agree to 1e-12
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        for t in (0.1, 0.5, 2.0):
            k = cache.terms_needed(t)
            tail_k, _ = cache.series_eval(t, k)
            tail_k1, _ = cache.series_eval(t, k + 1)
            assert abs(float(tail_k[0]) - float(tail_k1[0])) < 1e-12

    def test_refuses_below_floor(self):
        # t < t_min is False for NaN, which then ran the series out of terms at K_MAX
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        for t in (0.5 * cache.t_min, math.nan):
            with pytest.raises(ValueError, match="below series validity floor"):
                tail_spectral(t, cache)

    def test_survival_matches_inversion_sampler(self):
        # self-consistency: the empirical survival of 1e6 quantile-inverted
        # draws reproduces the series within binomial noise
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        n = 10**6
        u = np.clip(RngStream(808, 0).generator.random(n), 1e-12, 1 - 1e-12)
        draws = invert_cdf_batch(u, cache)
        for t in (0.2, 0.5, 1.0):
            survival = tail_spectral(t, cache)
            emp = float((draws > t).mean())
            se = math.sqrt(survival * (1.0 - survival) / n)
            assert abs(emp - survival) < 3.0 * se

    def test_radius_scaling_of_floor(self):
        cache = SpectralSeriesCache(BesselIndex(2), radius=2.0)
        assert cache.t_min == pytest.approx(0.08)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, radius):
        # a NaN radius gave t_min = nan, so the t < t_min guards never fired
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            SpectralSeriesCache(BesselIndex(2), radius=radius)


class TestLaplaceTransform:
    def test_at_boundary(self):
        for lam in (0.1, 1.0, 25.0):
            assert laplace_transform(lam, 1.0, 1.0, BesselIndex(4)) == 1.0

    def test_small_lambda_limit(self):
        for delta in (2, 3, 5):
            value = laplace_transform(1e-10, 0.0, 1.0, BesselIndex(delta))
            assert value == pytest.approx(1.0, abs=1e-6)

    def test_dimension_two_center_value(self):
        got = laplace_transform(1.0, 0.0, 1.0, BesselIndex(2))
        assert got == pytest.approx(1.0 / sp.iv(0, math.sqrt(2.0)), rel=1e-12)

    def test_no_overflow_large_lambda(self):
        value = laplace_transform(1e4, 0.5, 1.0, BesselIndex(3))
        assert 0.0 < value < 1.0
        # far beyond that the true value underflows double range; the scaled
        # evaluation must still come back finite and nonnegative
        extreme = laplace_transform(1e8, 0.5, 1.0, BesselIndex(3))
        assert extreme >= 0.0 and math.isfinite(extreme)

    def test_interior_value_monotone_in_x(self):
        vals = [laplace_transform(2.0, x, 1.0, BesselIndex(2)) for x in (0.0, 0.3, 0.7, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            laplace_transform(0.0, 0.5, 1.0, BesselIndex(2))
        with pytest.raises(ValueError):
            laplace_transform(1.0, 1.5, 1.0, BesselIndex(2))
        # min(1.0, nan) is 1.0, so a NaN or infinite lambda came back as 1.0
        for lam, L in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="positive and finite"):
                laplace_transform(lam, 0.0, L, BesselIndex(2))


@pytest.fixture(scope="module")
def cache():
    return SpectralSeriesCache(BesselIndex(2), radius=1.0)


class TestInvertCdf:

    @pytest.mark.parametrize("t", [0.1, 0.3, 1.0])
    def test_round_trip(self, cache, t):
        u = 1.0 - tail_spectral(t, cache)
        assert invert_cdf_batch(np.array([u]), cache)[0] == pytest.approx(t, abs=1e-8)

    def test_residual_tolerance(self, cache):
        ts = invert_cdf_batch(np.array([0.01, 0.2, 0.5, 0.9, 0.999]), cache)
        for u, t in zip((0.01, 0.2, 0.5, 0.9, 0.999), ts):
            assert abs((1.0 - tail_spectral(t, cache)) - u) <= 1e-10

    def test_monotone_in_u(self, cache):
        qs = np.arange(1, 101) / 101.0
        ts = invert_cdf_batch(qs, cache)
        assert np.all(np.diff(ts) > 0.0)

    def test_scaling_by_radius_squared(self, cache):
        from scipy import stats

        other = SpectralSeriesCache(BesselIndex(2), radius=1.5)
        n = 10**6
        u1 = np.clip(RngStream(9, 0).generator.random(n), 1e-12, 1 - 1e-12)
        u2 = np.clip(RngStream(9, 1).generator.random(n), 1e-12, 1 - 1e-12)
        scaled = 1.5**2 * invert_cdf_batch(u1, cache)
        direct = invert_cdf_batch(u2, other)
        assert stats.ks_2samp(scaled, direct).statistic < 0.002

    def test_scalar_quantile_is_one_row(self, cache):
        # numpy refused the 0-d array with "Calling nonzero on 0d arrays"
        assert np.array_equal(invert_cdf_batch(0.3, cache), invert_cdf_batch(np.array([0.3]), cache))

    def test_tiny_quantile_uses_small_time_law(self, cache):
        t = invert_cdf_batch(np.array([1e-13]), cache)[0]
        assert 0.0 < t < cache.t_min

    @pytest.mark.parametrize("delta", [3, 5])
    def test_round_trip_half_integer_orders(self, delta):
        # odd dimensions run the series on half-integer Bessel orders
        other = SpectralSeriesCache(BesselIndex(delta), radius=1.0)
        for t in (0.1, 0.4, 1.0):
            u = 1.0 - tail_spectral(t, other)
            assert invert_cdf_batch(np.array([u]), other)[0] == pytest.approx(t, abs=1e-8)

    def test_convergence_failure_carries_bracket(self, cache, monkeypatch):
        monkeypatch.setattr(bessel_hitting, "NEWTON_TOL", 1e-16)
        monkeypatch.setattr(bessel_hitting, "NEWTON_MAX_ITER", 1)
        with pytest.raises(InversionError) as err:
            invert_cdf_batch(np.array([0.4]), cache)
        lo, hi = err.value.bracket
        assert lo < hi

    def test_rejects_bad_quantiles(self, cache):
        # u <= 0 or u >= 1 is False for NaN, which then ran Newton to its cap
        for u in (0.0, 1.0, -0.5, 2.0, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                invert_cdf_batch(np.array([0.5, u]), cache)


class TestLaplaceMonteCarloConsistency:
    def test_transform_matches_inversion_sampler(self):
        # E[e^{-tau}] via 2e5 inversion draws against the closed form
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        n = 2 * 10**5
        u = np.clip(RngStream(17, 0).generator.random(n), 1e-12, 1 - 1e-12)
        tau = invert_cdf_batch(u, cache)
        weights = np.exp(-tau)
        expected = laplace_transform(1.0, 0.0, 1.0, BesselIndex(2))
        half_width = 3.0 * weights.std(ddof=1) / math.sqrt(n)
        assert abs(weights.mean() - expected) < half_width


def reference_series_eval(cache, t, k):
    """The plain formula series_eval must reproduce bit for bit."""
    zeros, coeffs = cache.zeros[:k], cache.coeffs[:k]
    rates = zeros**2 / (2.0 * cache.radius**2)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    e = coeffs * np.exp(-np.outer(t_arr, rates))
    tail = e.sum(axis=1)
    pdf = (e * rates).sum(axis=1)
    return tail, pdf


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


class TestSeriesEvalExactness:
    """series_eval floors its exponents for speed; the sums must not move.

    The t grid reaches far beyond 600 / rates[0], where every row takes the
    plain formula, and mixes such rows with ordinary ones in one call.
    """

    @pytest.mark.parametrize("delta", [2, 3, 5, 8])
    def test_bit_identical_to_plain_formula(self, delta):
        cache = SpectralSeriesCache(BesselIndex(delta), radius=1.0)
        uniform = RngStream(404, delta).generator.uniform(cache.t_min, 5.0, 4000)
        t = np.concatenate([np.geomspace(cache.t_min, 1e3, 4000), uniform])
        for k in (1, 5, 8, cache.k):
            tail, pdf = cache.series_eval(t, k)
            ref_tail, ref_pdf = reference_series_eval(cache, t, k)
            assert np.array_equal(bits(tail), bits(ref_tail)), (delta, k)
            assert np.array_equal(bits(pdf), bits(ref_pdf)), (delta, k)

    def test_scalar_and_other_radius(self):
        cache = SpectralSeriesCache(BesselIndex(3), radius=1.7)
        for t in (cache.t_min, 0.3, 40.0, 400.0, 5e3):
            got = cache.series_eval(t, cache.k)
            ref = reference_series_eval(cache, t, cache.k)
            assert bits(got[0]) == bits(ref[0]) and bits(got[1]) == bits(ref[1])

    def test_rejects_empty_series(self):
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        with pytest.raises(ValueError):
            cache.series_eval(0.5, 0)

    def test_rejects_more_terms_than_the_table(self):
        cache = SpectralSeriesCache(BesselIndex(2), radius=1.0)
        with pytest.raises(ValueError, match=f"k must lie in \\[1, {cache.k}\\]"):
            cache.series_eval(0.5, cache.k + 1)


class TestFixedCache:
    """The term table is built once, from t_min, and never changes."""

    # k, SHA-256 prefixes of zeros, coeffs and rates, and cdf_floor.hex(),
    # captured from the grow-on-demand cache this one replaced
    @pytest.mark.parametrize(
        "delta, radius, k, zeros, coeffs, rates, floor",
        [
            (2, 0.5, 19, "b54d519ac52ff2a9", "f1e95726adcf556a", "51f38e477edc2aec", "0x1.e3ec800000000p-36"),
            (2, 1.0, 19, "b54d519ac52ff2a9", "f1e95726adcf556a", "6279901eac09293b", "0x1.e3ec800000000p-36"),
            (2, 1.7, 19, "b54d519ac52ff2a9", "f1e95726adcf556a", "3d852899ac212428", "0x1.e3ed000000000p-36"),
            (3, 0.5, 19, "1d0777e9254c01ae", "57ea9f0e96611ff9", "b133e9b9451b76fc", "0x1.5894800000000p-33"),
            (3, 1.0, 19, "1d0777e9254c01ae", "57ea9f0e96611ff9", "b4c029014edde54b", "0x1.5894800000000p-33"),
            (3, 1.7, 19, "1d0777e9254c01ae", "57ea9f0e96611ff9", "c2b94a50f3e12da5", "0x1.5894900000000p-33"),
            (5, 0.5, 19, "9d1814625b633800", "1ed29ebf4b891093", "d70bdfc1b1de7ef5", "0x1.6e489e0000000p-29"),
            (5, 1.0, 19, "9d1814625b633800", "1ed29ebf4b891093", "14d80c92a75e827a", "0x1.6e489e0000000p-29"),
            (5, 1.7, 19, "9d1814625b633800", "1ed29ebf4b891093", "2b92563bb5d2f2f1", "0x1.6e48920000000p-29"),
            (8, 0.5, 19, "1306358d48f8cf0a", "ac6e98bc5e63c4b6", "03c5ebbf36e42b2d", "0x1.47816a2000000p-24"),
            (8, 1.0, 19, "1306358d48f8cf0a", "ac6e98bc5e63c4b6", "d86e092451597f93", "0x1.47816a2000000p-24"),
            (8, 1.7, 19, "1306358d48f8cf0a", "ac6e98bc5e63c4b6", "8ae3517b7c0b3e32", "0x1.47816a2000000p-24"),
        ],
    )
    def test_frozen_table(self, delta, radius, k, zeros, coeffs, rates, floor):
        cache = SpectralSeriesCache(BesselIndex(delta), radius=radius)
        assert cache.k == cache.terms_needed(cache.t_min) == k
        assert (sha(cache.zeros), sha(cache.coeffs), sha(cache.rates)) == (zeros, coeffs, rates)
        assert cache.cdf_floor.hex() == floor

    def test_arrays_are_read_only(self):
        cache = SpectralSeriesCache(BesselIndex(3), radius=1.0)
        for arr in (cache.zeros, cache.coeffs, cache.rates):
            assert len(arr) == cache.k
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_raises_past_term_cap(self, monkeypatch):
        monkeypatch.setattr(bessel_hitting, "K_MAX", 16)  # the unit disk needs 19 terms
        with pytest.raises(SeriesTruncationError, match="K_MAX=16"):
            SpectralSeriesCache(BesselIndex(2), radius=1.0)

    def test_later_times_need_no_more_terms(self):
        cache = SpectralSeriesCache(BesselIndex(5), radius=1.0)
        needed = [cache.terms_needed(t) for t in np.geomspace(cache.t_min, 50.0, 200)]
        assert needed[0] == cache.k and all(a >= b for a, b in zip(needed, needed[1:]))


class TestFrozenInversionOutput:
    """Outputs frozen from the plain-formula implementation.

    The constants hold for the numpy build they were captured with
    (numpy 2.4, x86-64 with AVX-512); another np.exp implementation may
    round a last bit differently.
    """

    @pytest.mark.parametrize(
        "delta, digest",
        [
            (2, "9898bed28fc877e7673bb6a892649325f2f3a03eab9c1a120b0f99b60009739c"),
            (3, "251a4c86e02a21f37bf0b4187f716535703079eca6beda19a004f16a6a00f055"),
        ],
    )
    def test_invert_cdf_batch_digest(self, delta, digest):
        cache = SpectralSeriesCache(BesselIndex(delta), radius=1.0)
        u = np.clip(RngStream(2718, delta).generator.random(10**4), 1e-12, 1 - 1e-12)
        t = invert_cdf_batch(u, cache)
        assert hashlib.sha256(t.tobytes()).hexdigest() == digest

    def test_wos_inversion_run(self):
        config = ExperimentConfig(
            method="wos_inversion", x0=(0.5, 0.0), epsilon=1e-5,
            trajectories=2000, seed=41, workers=1,
        )
        results = run_result_document(config, run_experiment(config))["results"]
        assert results["mean_exit_time"].hex() == "0x1.8c838bd354985p-2"
        assert results["var_exit_time"].hex() == "0x1.fe8b3c9e7fe66p-4"
