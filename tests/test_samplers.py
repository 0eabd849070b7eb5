import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from exitwalk.specfun import BesselIndex
from exitwalk.samplers import (
    RngStream,
    sample_inverse_gaussian,
    sample_tau_psi,
    sample_unit_direction,
)

N_BIG = 10**6


class TestRngStream:
    def test_identical_streams_replay(self):
        a = RngStream(seed=2024, stream_id=3)
        b = RngStream(seed=2024, stream_id=3)
        draws_a = [a.generator.standard_normal() for _ in range(100)]
        draws_b = [b.generator.standard_normal() for _ in range(100)]
        assert draws_a == draws_b

    def test_distinct_streams_differ(self):
        a = RngStream(seed=2024, stream_id=0)
        b = RngStream(seed=2024, stream_id=1)
        assert a.generator.standard_normal(16).tolist() != b.generator.standard_normal(16).tolist()

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngStream(seed=-1)
        with pytest.raises(ValueError):
            RngStream(seed=2**64)


class TestGaussian:
    def test_moments(self):
        x = RngStream(7).generator.standard_normal(N_BIG)
        assert abs(x.mean()) < 4e-3  # 3 sigma / sqrt(n) with sigma = 1
        assert abs(x.var() - 1.0) < 1e-2


class TestUnitDirection:
    @pytest.mark.parametrize("delta", [2, 3, 5, 7])
    def test_unit_norm(self, delta):
        v = sample_unit_direction(delta, RngStream(11), size=1000)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-14

    def test_dimension_two_is_cos_sin_of_one_uniform(self):
        rng = RngStream(42, 9)
        v = sample_unit_direction(2, rng)
        replay = RngStream(42, 9)
        w = replay.generator.random()
        assert v[0] == math.cos(2.0 * math.pi * w)
        assert v[1] == math.sin(2.0 * math.pi * w)

    @pytest.mark.parametrize("delta", [2, 3])
    def test_component_means_vanish(self, delta):
        v = sample_unit_direction(delta, RngStream(13, delta), size=N_BIG)
        assert np.max(np.abs(v.mean(axis=0))) < 4e-3

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            sample_unit_direction(1, RngStream(1))

    def test_zero_gaussian_vector_is_redrawn(self):
        class FirstRowZero:
            """Gaussians whose first call returns a zero first row."""

            def __init__(self):
                self.inner = np.random.default_rng(3)
                self.calls = 0

            def standard_normal(self, size):
                out = self.inner.standard_normal(size)
                if self.calls == 0:
                    out[0] = 0.0
                self.calls += 1
                return out

        rng = SimpleNamespace(generator=FirstRowZero())
        v = sample_unit_direction(3, rng, size=4)
        assert rng.generator.calls == 2
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-14


class TestTauPsi:
    def test_dimension_two_is_product_of_two_uniforms(self):
        t_max = 0.37
        rng = RngStream(77, 1)
        r = sample_tau_psi(np.array([t_max]), BesselIndex(2), rng)[0][0]
        replay = RngStream(77, 1)
        u = 1.0 - replay.generator.random((1, 2))[0]
        # identical draws, equal up to the exp-of-log-sum rounding
        assert r == pytest.approx(t_max * u[0] * u[1], rel=1e-15)

    @given(
        t_max=st.floats(min_value=1e-6, max_value=10.0),
        delta=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60)
    def test_support(self, t_max, delta, seed):
        r = sample_tau_psi(np.full(64, t_max), BesselIndex(delta), RngStream(seed))[0]
        assert np.all(r > 0.0)
        assert np.all(r <= t_max)

    def test_mean_dimension_two(self):
        # E[t_max U1 U2] = t_max/4; cross-checked against the density ln(t_max/t)/t_max.
        t_max = 0.8
        quad_mean, _ = integrate.quad(lambda t: t * math.log(t_max / t) / t_max, 0.0, t_max)
        assert quad_mean == pytest.approx(t_max / 4.0, abs=1e-12)
        r = sample_tau_psi(np.full(N_BIG, t_max), BesselIndex(2), RngStream(3))[0]
        tol = 3.0 * r.std(ddof=1) / math.sqrt(N_BIG)
        assert abs(r.mean() - t_max / 4.0) < tol

    def test_replay(self):
        idx = BesselIndex(5)
        r1 = sample_tau_psi(np.full(50, 1.3), idx, RngStream(15, 2))
        r2 = sample_tau_psi(np.full(50, 1.3), idx, RngStream(15, 2))
        assert np.array_equal(r1, r2)


class TestInverseGaussian:
    def test_moments(self):
        x = sample_inverse_gaussian(1.0, 1.0, RngStream(21), size=N_BIG)
        # var of the sample variance estimate ~ (m4 - var^2)/n with m4 = 18
        assert abs(x.mean() - 1.0) < 3e-3
        assert abs(x.var(ddof=1) - 1.0) < 3.0 * math.sqrt(17.0 / N_BIG)

    def test_mean_scales(self):
        x = sample_inverse_gaussian(2.5, 4.0, RngStream(22), size=N_BIG)
        tol = 3.0 * x.std(ddof=1) / math.sqrt(N_BIG)
        assert abs(x.mean() - 2.5) < tol

    def test_concentrates_for_large_shape(self):
        x = sample_inverse_gaussian(1.0, 1e6, RngStream(23), size=10**5)
        assert x.std() < 2e-3
        assert abs(x.mean() - 1.0) < 1e-4

    def test_positive(self):
        x = sample_inverse_gaussian(0.3, 0.7, RngStream(24), size=10**5)
        assert np.all(x > 0.0)

    @pytest.mark.parametrize(
        "mu,lam",
        [
            (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
            # the non-finite ones returned NaN draws
            (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        ],
    )
    def test_domain(self, mu, lam):
        with pytest.raises(ValueError):
            sample_inverse_gaussian(mu, lam, RngStream(1))
