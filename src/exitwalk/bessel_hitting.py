"""Hitting-time mathematics for the radial part of Brownian motion.

Everything here concerns the first time the Euclidean norm of a
delta-dimensional Brownian motion reaches a boundary:

* ``MovingBoundary`` / ``psi`` / ``hitting_pdf``: the shrinking boundary
  psi(t) = sqrt(2 (nu+1) t ln(t_max / t)) obtained from the method of
  images with image measure y^(2nu+1) dy, whose hitting law has the
  closed-form density ((nu+1) (t/t_max) ln(t_max/t))^(nu+1) / (t Gamma(nu+1))
  on (0, t_max].
* ``moving_sphere_t_max`` / ``MovingBoundary.for_step``: the per-step
  t_max = gamma^2 d^2 e / (2 (nu+1)) that keeps the moving sphere inside
  the gamma-shrunk safety ball of radius gamma * d.
* ``SpectralSeriesCache`` / ``tail_spectral``: the spectral series for
  P_0(tau_L > t) with rates j_{nu,k}^2 / (2 L^2), its term table fixed
  and read-only once built.
* ``laplace_transform``: E_x[exp(-lambda tau_L)] via scaled modified
  Bessel functions.
* ``invert_cdf_batch``: numerical inversion of F(t) = P(tau_L <= t) by
  safeguarded Newton on the series, with a small-time fallback below the
  series' validity floor.  Its tolerance and iteration caps are the module
  constants NEWTON_TOL, NEWTON_MAX_ITER and MAX_BRACKET_GROWTH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import BesselIndex, bessel_j, bessel_i, bessel_zero, log_gamma

__all__ = [
    "MovingBoundary",
    "psi",
    "hitting_pdf",
    "moving_sphere_t_max",
    "SpectralSeriesCache",
    "tail_spectral",
    "laplace_transform",
    "InversionError",
    "SeriesTruncationError",
    "invert_cdf_batch",
]

TERM_FLOOR = 1e-14  # series truncated once the next term magnitude drops below this
K_MAX = 512  # cap on the number of series terms
EXP_FLOOR = -700.0  # series exponents are floored here, where exp is still a normal double
FAR_LEAD_EXPONENT = 600.0  # rows whose leading exponent is below minus this skip the floor
SERIES_BLOCK = 2**15  # terms per block of series rows: a 256 KiB buffer, reused


def moving_sphere_t_max(d, gamma: float, index: BesselIndex):
    """t_max = gamma^2 d^2 e / (2 (nu+1)), which makes sup_t psi(t) = gamma * d.

    Unchecked, as the walker calls it on every step; for_step validates.
    """
    return gamma * gamma * d * d * math.e / (2.0 * (index.nu + 1.0))


@dataclass(frozen=True)
class MovingBoundary:
    """The pair (t_max, nu) parameterizing the shrinking boundary psi.

    t_max is the right end of the support: psi is real and nonnegative
    exactly on (0, t_max] and psi(t_max) = 0.  The maximum of psi sits at
    t_max / e and equals sqrt(2 (nu+1) t_max / e).
    """

    t_max: float
    index: BesselIndex

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")

    @classmethod
    def for_step(cls, d: float, gamma: float, index: BesselIndex) -> "MovingBoundary":
        """The boundary of one walk step at distance d, with sup psi = gamma * d."""
        if d <= 0:
            raise ValueError(f"distance to boundary must be positive, got {d}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        return cls(moving_sphere_t_max(d, gamma, index), index)


def psi(t, boundary: MovingBoundary):
    """Boundary radius psi(t) = sqrt(2 (nu+1) t ln(t_max / t)) on (0, t_max]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(t_arr > boundary.t_max):
        raise ValueError(f"t must lie in (0, t_max={boundary.t_max}], got {t}")
    nu = boundary.index.nu
    out = np.sqrt(2.0 * (nu + 1.0) * t_arr * np.log(boundary.t_max / t_arr))
    return float(out) if np.isscalar(t) else out


def hitting_pdf(t, boundary: MovingBoundary):
    """Density ((nu+1) (t/t_max) ln(t_max/t))^(nu+1) / (t Gamma(nu+1)) of the hitting time.

    Evaluated in log form, so that large nu overflows neither the power nor
    Gamma(nu+1); the density is exactly 0 at t = t_max.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(t_arr > boundary.t_max):
        raise ValueError(f"t must lie in (0, t_max={boundary.t_max}], got {t}")
    nu = boundary.index.nu
    ratio = t_arr / boundary.t_max
    core = (nu + 1.0) * ratio * np.log(boundary.t_max / t_arr)
    with np.errstate(divide="ignore"):  # log(0) = -inf at t = t_max gives density 0
        out = np.exp((nu + 1.0) * np.log(core) - log_gamma(nu + 1.0)) / t_arr
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# Spectral series for the fixed-level hitting time from the center


class SeriesTruncationError(RuntimeError):
    """The term bound was not met within the truncation cap."""


def _first_below(zeros, coeffs, t: float, radius: float) -> int:
    # 1 + the index of the first term below TERM_FLOOR at t, or 0 if none is.
    rate = t / (2.0 * radius**2)
    mags = np.abs(coeffs) * np.exp(-(zeros**2) * rate)
    below = np.nonzero(mags < TERM_FLOOR)[0]
    return int(below[0]) + 1 if below.size else 0


class SpectralSeriesCache:
    """The fixed term table of the tail series for tau_L, start at 0.

    Terms are c_k exp(-j_{nu,k}^2 t / (2 L^2)) with
    c_k = j_{nu,k}^(nu-1) / J_{nu+1}(j_{nu,k}) scaled by
    1 / (2^(nu-1) Gamma(nu+1)).

    The series needs O(L/sqrt(t)) terms as t -> 0, so evaluation is
    refused below t_min = 0.02 L^2, and the table holds exactly the
    k = terms_needed(t_min) terms that t_min needs.  Every term shrinks as
    t grows, so no t >= t_min needs more.  The read-only arrays zeros,
    coeffs and rates and cdf_floor = F(t_min), below which the inversion
    falls back to the small-time law, are all fixed when the cache is
    built, so one cache is safe to share across threads.
    """

    def __init__(self, index: BesselIndex, radius: float = 1.0):
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.index = index
        self.radius = float(radius)
        self.t_min = 0.02 * radius * radius
        self.clamp_count = 0
        nu = index.nu
        prefactor = math.exp(-(nu - 1.0) * math.log(2.0) - log_gamma(nu + 1.0))
        zeros: list[float] = []
        coeffs: list[float] = []
        k = 0
        while not k:  # 8, 16, 32, ... terms until one is below TERM_FLOOR at t_min
            if len(zeros) == K_MAX:
                raise SeriesTruncationError(
                    f"term bound {TERM_FLOOR} not met within K_MAX={K_MAX} at t={self.t_min}"
                )
            for i in range(len(zeros), min(max(8, 2 * len(zeros)), K_MAX)):
                z = bessel_zero(nu, i + 1)
                zeros.append(z)
                coeffs.append(prefactor * z ** (nu - 1.0) / bessel_j(nu + 1.0, z))
            k = _first_below(np.asarray(zeros), np.asarray(coeffs), self.t_min, self.radius)
        self.k = k
        self.zeros, self.coeffs = np.asarray(zeros[:k]), np.asarray(coeffs[:k])
        self.rates = self.zeros**2 / (2.0 * self.radius**2)
        for arr in (self.zeros, self.coeffs, self.rates):
            arr.flags.writeable = False
        tail, _ = self.series_eval(self.t_min, k)
        self.cdf_floor = max(0.0, 1.0 - float(tail[0]))

    def terms_needed(self, t: float) -> int:
        """Smallest K whose K-th term magnitude is below TERM_FLOOR at t >= t_min."""
        if not t >= self.t_min:
            raise ValueError(f"t={t} below series validity floor t_min={self.t_min}")
        return _first_below(self.zeros, self.coeffs, t, self.radius)

    def series_eval(self, t, k: int):
        """(tail, pdf) partial sums with k terms; no clamping, no guards.

        The result is bit for bit that of the plain formula
        e = coeffs * exp(-outer(t, rates)), tail = e.sum(1),
        pdf = (e * rates).sum(1), but cheaper: np.exp is 20-130x slower
        per element when its result is subnormal or flushes to zero, so
        every exponent is first floored at EXP_FLOOR = -700, where
        exp(-700) ~ 1e-304 is still a normal double.  A floored term is
        below |c_k| 1e-304 with or without the floor.  On a row whose
        leading exponent -t rates[0] is at least -FAR_LEAD_EXPONENT = -600,
        the row sum is of order e^-600 ~ 1e-261 or more, whose last bit is
        near 1e-277: the floored terms stay some 27 orders of magnitude
        below it and never change its rounding.  Rows beyond that
        (t > 600 / rates[0], about 207 L^2 for delta = 2) take the plain
        formula; the inversion never reaches them, since its bracket stops
        growing once the tail is below 1.1e-16.

        Rows are independent, so they are evaluated in blocks of about
        SERIES_BLOCK terms in one reused buffer: no (n, k) temporary is
        allocated, which keeps both the peak and the memory the allocator
        retains afterwards small for large batches.
        """
        if not 1 <= k <= self.k:
            raise ValueError(f"k must lie in [1, {self.k}], got {k}")
        coeffs, rates = self.coeffs[:k], self.rates[:k]
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        n = len(t_arr)
        tail = np.empty(n)
        pdf = np.empty(n)
        # The buffer holds the exponents, then the terms, then the pdf
        # terms; -outer(t, rates) and outer(t, -rates) are bit-equal.
        rows = max(1, SERIES_BLOCK // k)
        block = np.empty((min(rows, n), k))
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            terms = block[: stop - start]
            np.multiply.outer(t_arr[start:stop], -rates, out=terms)
            np.maximum(terms, EXP_FLOOR, out=terms)
            np.exp(terms, out=terms)
            terms *= coeffs
            terms.sum(axis=1, out=tail[start:stop])
            terms *= rates
            terms.sum(axis=1, out=pdf[start:stop])
        far = t_arr * rates[0] > FAR_LEAD_EXPONENT
        if far.any():
            e = coeffs * np.exp(-np.outer(t_arr[far], rates))
            tail[far] = e.sum(axis=1)
            pdf[far] = (e * rates).sum(axis=1)
        return tail, pdf


def tail_spectral(t: float, cache: SpectralSeriesCache) -> float:
    """Survival probability P_0(tau_L > t), clamped to [0, 1].

    Refuses t below the cache's validity floor t_min, where the truncated
    series is unreliable, and NaN.
    """
    k = cache.terms_needed(t)
    tail, _ = cache.series_eval(t, k)
    value = float(tail[0])
    if value < 0.0 or value > 1.0:
        cache.clamp_count += 1
        value = min(1.0, max(0.0, value))
    return value


def laplace_transform(lam: float, x: float, L: float, index: BesselIndex) -> float:
    """E_x[exp(-lambda tau_L)] for the radial process started at x in [0, L].

    Uses exponentially scaled I_nu throughout, so large lambda cannot
    overflow: the x > 0 form is (L/x)^nu I_nu(x s) / I_nu(L s) and the
    x = 0 form is (L s)^nu / (2^nu Gamma(nu+1) I_nu(L s)), s = sqrt(2 lambda).
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    if not 0.0 <= x <= L:
        raise ValueError(f"x must lie in [0, L], got {x}")
    if x == L:
        return 1.0
    nu = index.nu
    s = math.sqrt(2.0 * lam)
    z_L = L * s
    i_L = bessel_i(nu, z_L, scaled=True)
    if x > 0.0:
        z_x = x * s
        i_x = bessel_i(nu, z_x, scaled=True)
        log_value = nu * math.log(L / x) + math.log(i_x) + z_x - math.log(i_L) - z_L
    else:
        log_value = (
            nu * math.log(z_L)
            - nu * math.log(2.0)
            - log_gamma(nu + 1.0)
            - math.log(i_L)
            - z_L
        )
    return min(1.0, math.exp(log_value))


# ---------------------------------------------------------------------------
# CDF inversion


NEWTON_TOL = 1e-12  # |F(t) - u| target (spec requires <= 1e-10)
NEWTON_MAX_ITER = 100
MAX_BRACKET_GROWTH = 200  # doublings of the right end of the bracket


class InversionError(RuntimeError):
    """Newton/bisection failed to converge; carries the final bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (final bracket {bracket})")
        self.bracket = bracket


def _small_time_quantile(u, L: float):
    # One-sided level-hitting approximation of the tiny left tail:
    # P(tau <= t) ~ 2 (1 - Phi(L / sqrt(t)))  =>  t = L^2 / ndtri(1 - u/2)^2.
    z = _sp.ndtri(1.0 - 0.5 * np.asarray(u, dtype=float))
    return L * L / (z * z)


def invert_cdf_batch(u: np.ndarray, cache: SpectralSeriesCache) -> np.ndarray:
    """Quantiles t with |F(t) - u| <= NEWTON_TOL, F(t) = 1 - tail_spectral(t), per entry.

    Safeguarded Newton on the series with its term-by-term derivative,
    falling back to bisection whenever a Newton step leaves the bracket.
    Quantiles below F(t_min) (an event of probability ~1e-11 for the unit
    disk) are resolved with the small-time one-sided approximation because
    the series itself is refused there.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))  # a scalar u gives one row
    if not np.all((u > 0.0) & (u < 1.0)):  # also refuses NaN
        raise ValueError("all quantiles must lie in (0, 1)")
    L = cache.radius
    out = np.empty_like(u)

    tiny = u <= cache.cdf_floor
    if np.any(tiny):
        out[tiny] = _small_time_quantile(u[tiny], L)
    work = np.nonzero(~tiny)[0]
    if work.size == 0:
        return out

    uw = u[work]
    j1, c1 = float(cache.zeros[0]), float(cache.coeffs[0])

    def f_df(t):
        tail, pdf = cache.series_eval(t, cache.k)
        return 1.0 - tail, pdf

    # Per-element bracket [lo, hi] with F(lo) <= u <= F(hi).
    lo = np.full(uw.shape, cache.t_min)
    one_term = (2.0 * L * L / (j1 * j1)) * np.log(np.maximum(c1, 1.0 + 1e-9) / (1.0 - uw))
    hi = np.maximum(one_term, 2.0 * cache.t_min)
    for _ in range(MAX_BRACKET_GROWTH):
        f_hi, _ = f_df(hi)
        short = f_hi < uw
        if not np.any(short):
            break
        hi[short] *= 2.0
    else:
        bad = int(np.nonzero(short)[0][0])
        raise InversionError(
            "failed to bracket quantile", (float(lo[bad]), float(hi[bad]))
        )

    # Start Newton from the one-term median approximation above the median,
    # from the bracket midpoint below it (the left flank needs the
    # safeguard more than a sharp start).
    x = np.where(uw >= 0.5, np.clip(one_term, lo, hi), 0.5 * (lo + hi))

    active = np.arange(uw.size)
    t_val = x.copy()
    for _ in range(NEWTON_MAX_ITER):
        f, df = f_df(t_val[active])
        resid = f - uw[active]
        done = np.abs(resid) <= NEWTON_TOL
        if np.any(done):
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            resid = resid[keep]
            f = f[keep]
            df = df[keep]
        above = resid > 0.0
        hi[active[above]] = t_val[active[above]]
        lo[active[~above]] = t_val[active[~above]]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / df
        cand = t_val[active] - step
        ok = np.isfinite(cand) & (cand > lo[active]) & (cand < hi[active])
        t_val[active] = np.where(ok, cand, 0.5 * (lo[active] + hi[active]))
    if active.size:
        bad = int(active[0])
        raise InversionError(
            f"no convergence after {NEWTON_MAX_ITER} iterations",
            (float(lo[bad]), float(hi[bad])),
        )
    out[work] = t_val
    return out
