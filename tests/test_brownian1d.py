import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize, stats

from exitwalk.samplers import RngStream
from exitwalk.brownian1d import (
    NEVER,
    Boundary1D,
    durbin_pdf,
    durbin_q1,
    durbin_series_table,
    level_hitting_pdf,
    line_hitting_pdf,
    sample_level_hitting,
    sample_line_hitting,
    volterra_apply,
)

N_BIG = 10**6

# Monte Carlo oracle for the quadratic boundary 1 + t^2/4, frozen from
# scripts/curved_boundary_mc.py (bridge-corrected paths, h = 1e-3):
#   8e6 paths, seed 20240901 -> 0.156012 +- 0.000987
#   2e7 paths, seed 7151623  -> 0.153817 +- 0.000620
# inverse-variance combination of the two runs:
MC_QUADRATIC_DENSITY = 0.154438
MC_QUADRATIC_SE = 0.000525


def quadratic_boundary(curvature: float = 0.25) -> Boundary1D:
    return Boundary1D.general(lambda t: 1.0 + curvature * t * t, lambda t: 2.0 * curvature * t)


class TestLevelHitting:
    def test_normalization(self):
        mass, _ = integrate.quad(lambda t: level_hitting_pdf(t, 1.0), 0.0, np.inf, limit=400)
        assert abs(mass - 1.0) < 1e-8

    def test_mode(self):
        # maximize the log density; the root of the derivative is L^2/3
        L = 1.7
        res = optimize.minimize_scalar(
            lambda t: -math.log(level_hitting_pdf(t, L)), bounds=(1e-6, 10.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert res.x == pytest.approx(L * L / 3.0, abs=1e-6)

    def test_point_value(self):
        expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)  # = 0.24197072451914337
        assert level_hitting_pdf(1.0, 1.0) == pytest.approx(expected, rel=1e-15)
        assert level_hitting_pdf(1.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-15)

    def test_sampler_cdf(self):
        draws = sample_level_hitting(1.0, RngStream(51), size=N_BIG)
        for t in (0.5, 1.0, 2.0):
            exact = 2.0 * (1.0 - stats.norm.cdf(1.0 / math.sqrt(t)))
            se = math.sqrt(exact * (1.0 - exact) / N_BIG)
            assert abs((draws <= t).mean() - exact) < 3.0 * se

    def test_sampler_scaling(self):
        a = 4.0 * sample_level_hitting(1.0, RngStream(52, 0), size=N_BIG)
        b = sample_level_hitting(2.0, RngStream(52, 1), size=N_BIG)
        assert stats.ks_2samp(a, b).statistic < 0.002

    def test_median(self):
        draws = sample_level_hitting(1.0, RngStream(53), size=N_BIG)
        expected = 1.0 / stats.norm.ppf(0.75) ** 2
        assert np.median(draws) == pytest.approx(expected, rel=0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            level_hitting_pdf(1.0, 0.0)
        with pytest.raises(ValueError):
            level_hitting_pdf(-1.0, 1.0)


class TestLineHitting:
    def test_reduces_to_level(self):
        t = np.linspace(0.01, 8.0, 100)
        assert np.array_equal(line_hitting_pdf(t, 1.2, 0.0), level_hitting_pdf(t, 1.2))

    @pytest.mark.parametrize("L,beta", [(1.0, 0.5), (1.0, 1.0), (2.0, 0.3)])
    def test_defective_mass(self, L, beta):
        mass, _ = integrate.quad(lambda t: line_hitting_pdf(t, L, beta), 0.0, np.inf, limit=400)
        assert abs(mass - math.exp(-2.0 * L * beta)) < 1e-8

    def test_never_probability(self):
        draws = sample_line_hitting(1.0, 0.5, RngStream(61), size=N_BIG)
        p_never = np.isinf(draws).mean()
        expected = 1.0 - math.exp(-1.0)
        se = math.sqrt(expected * (1.0 - expected) / N_BIG)
        assert abs(p_never - expected) < 3.0 * se

    def test_conditional_mean(self):
        draws = sample_line_hitting(1.0, 1.0, RngStream(62), size=N_BIG)
        hits = draws[np.isfinite(draws)]
        tol = 3.0 * hits.std(ddof=1) / math.sqrt(hits.size)
        assert abs(hits.mean() - 1.0) < tol  # inverse Gaussian mean L/beta

    def test_zero_slope_matches_level_sampler(self):
        a = sample_line_hitting(1.0, 0.0, RngStream(63, 0), size=N_BIG)
        b = sample_level_hitting(1.0, RngStream(63, 1), size=N_BIG)
        assert not np.any(np.isinf(a))
        assert stats.ks_2samp(a, b).statistic < 0.002

    def test_scalar_never_is_inf(self):
        # with beta large, essentially every draw is NEVER
        out = sample_line_hitting(1.0, 50.0, RngStream(64))
        assert out == NEVER


class TestDurbinQ1:
    def test_constant_boundary_exact(self):
        b = Boundary1D.constant(1.4)
        for t in (0.05, 0.7, 3.0):
            assert durbin_q1(t, b) == pytest.approx(level_hitting_pdf(t, 1.4), abs=1e-15)

    def test_line_boundary_exact(self):
        b = Boundary1D.line(1.0, 0.7)
        for t in np.linspace(0.05, 5.0, 60):
            assert abs(durbin_q1(t, b) - line_hitting_pdf(t, 1.0, 0.7)) < 1e-14

    def test_square_root_boundary_plug_in(self):
        # psi(t) = sqrt(1+t): at t = 1, b1 = psi(1)/1 - psi'(1) = sqrt(2) - 1/(2 sqrt(2))
        # and xi(1) = exp(-psi(1)^2/2)/sqrt(2 pi) = e^{-1}/sqrt(2 pi).
        b = Boundary1D.general(lambda t: math.sqrt(1.0 + t), lambda t: 0.5 / math.sqrt(1.0 + t))
        expected = (math.sqrt(2.0) - 1.0 / (2.0 * math.sqrt(2.0))) * math.exp(-1.0) / math.sqrt(
            2.0 * math.pi
        )
        assert durbin_q1(1.0, b) == pytest.approx(expected, rel=1e-14)

    @given(
        curvature=st.floats(min_value=-0.2, max_value=1.0),
        t=st.floats(min_value=0.05, max_value=4.0),
    )
    def test_sign_follows_tangent_excess(self, curvature, t):
        b = Boundary1D(
            psi=lambda s: 1.0 + curvature * s * s,
            psi_prime=lambda s: 2.0 * curvature * s,
        )
        excess = b.psi(t) / t - b.psi_prime(t)
        q1 = durbin_q1(t, b)
        assert q1 == 0.0 if excess == 0.0 else math.copysign(1.0, q1) == math.copysign(1.0, excess)


class TestVolterraOperator:
    def test_zero_on_line_boundary(self):
        f = RngStream(71).generator.random(64)
        assert volterra_apply(f, 2.0, Boundary1D.line(1.0, 0.8)) == 0.0

    def test_zero_on_constant_boundary(self):
        f = RngStream(72).generator.random(64)
        assert volterra_apply(f, 2.0, Boundary1D.constant(1.0)) == 0.0

    def test_near_zero_on_wrapped_line(self):
        # a straight line passed through the general-boundary path exercises
        # the quadrature; the kernel factor is pure cancellation noise
        b = Boundary1D.general(lambda t: 1.0 + 0.8 * t, lambda t: 0.8)
        f = np.ones(256)
        assert abs(volterra_apply(f, 1.0, b)) < 1e-12

    @given(alpha=st.floats(min_value=-3.0, max_value=3.0), seed=st.integers(0, 2**32))
    def test_linearity(self, alpha, seed):
        b = quadratic_boundary()
        gen = RngStream(seed).generator
        f = gen.random(64)
        g = gen.random(64)
        lhs = volterra_apply(alpha * f + g, 1.0, b)
        rhs = alpha * volterra_apply(f, 1.0, b) + volterra_apply(g, 1.0, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_grid_refinement_self_convergence(self):
        b = Boundary1D.general(lambda t: 1.0 + t * t, lambda t: 2.0 * t)
        values = {}
        for m in (512, 8192):
            f = np.array([durbin_q1((i + 0.5) / m, b) for i in range(m)])
            values[m] = volterra_apply(f, 1.0, b)
        assert abs(values[512] - values[8192]) < 1e-6

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            volterra_apply(np.ones(7), 1.0, quadratic_boundary())


class TestDurbinSeries:
    def test_single_term_is_q1(self):
        b = quadratic_boundary()
        assert durbin_pdf(1.0, b, 1, 64) == durbin_q1(1.0, b)

    @pytest.mark.parametrize("terms", [1, 2, 4])
    def test_line_boundary_exact_any_truncation(self, terms):
        b = Boundary1D.line(1.0, 0.4)
        for t in (0.3, 1.0, 2.5):
            assert abs(durbin_pdf(t, b, terms, 64) - line_hitting_pdf(t, 1.0, 0.4)) < 1e-14

    def test_truncations_form_cauchy_sequence(self):
        b = quadratic_boundary()
        vals = [durbin_pdf(1.0, b, k, 512) for k in (2, 3, 4)]
        deltas = [abs(b_ - a_) for a_, b_ in zip(vals, vals[1:])]
        assert deltas[1] < deltas[0]

    def test_matches_path_simulation(self):
        value = durbin_pdf(1.0, quadratic_boundary(), 4, 512)
        assert abs(value - MC_QUADRATIC_DENSITY) < 3.0 * MC_QUADRATIC_SE

    def test_grid_stability(self):
        b = quadratic_boundary()
        assert durbin_pdf(1.0, b, 4, 512) == pytest.approx(
            durbin_pdf(1.0, b, 4, 2048), abs=1e-7
        )

    def test_table_matches_scalar(self):
        b = quadratic_boundary()
        nodes, q1_vals, series = durbin_series_table(b, 1.0, 3, 64)
        assert q1_vals[10] == pytest.approx(durbin_q1(nodes[10], b), rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            durbin_pdf(1.0, quadratic_boundary(), 0, 64)
        with pytest.raises(ValueError):
            durbin_pdf(1.0, quadratic_boundary(), 3, 4)


class TestBoundaryValidation:
    def test_general_requires_positive_start(self):
        with pytest.raises(ValueError):
            Boundary1D.general(lambda t: -1.0 + t, lambda t: 1.0)

    def test_line_requires_positive_level(self):
        with pytest.raises(ValueError):
            Boundary1D.line(0.0, 1.0)


NAN, INF = math.nan, math.inf
LINE_CASES = [
    (NAN, 1.0, "L must be positive and finite"),
    (INF, 1.0, "L must be positive and finite"),
    (1.0, NAN, "beta must be >= 0 and finite"),
    (1.0, INF, "beta must be >= 0 and finite"),
]


class TestNonFiniteParameters:
    """Each of these returned NaN, or all-NEVER draws, instead of failing."""

    @pytest.mark.parametrize("L", [NAN, INF, -INF])
    def test_level_hitting_pdf(self, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            level_hitting_pdf(1.0, L)

    @pytest.mark.parametrize("L", [NAN, INF])
    def test_sample_level_hitting(self, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            sample_level_hitting(L, RngStream(1), 3)

    @pytest.mark.parametrize("L, beta, fragment", LINE_CASES)
    def test_line_hitting_pdf(self, L, beta, fragment):
        with pytest.raises(ValueError, match=fragment):
            line_hitting_pdf(1.0, L, beta)

    @pytest.mark.parametrize("L, beta, fragment", LINE_CASES)
    def test_sample_line_hitting(self, L, beta, fragment):
        with pytest.raises(ValueError, match=fragment):
            sample_line_hitting(L, beta, RngStream(1), 2)
