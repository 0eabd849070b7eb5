"""One-dimensional Brownian hitting times for curved one-sided boundaries.

The exactly solvable cases are the constant level L (density
L exp(-L^2/2t) / sqrt(2 pi t^3), sampled as L^2/G^2) and the straight line
L + beta t (Bachelier-Levy density, defective with total mass
exp(-2 L beta), sampled through the inverse Gaussian law).  For a general
smooth boundary the density solves a Volterra equation of the second kind
whose first iterate is Durbin's tangent approximation

    q1(t) = (psi(t)/t - psi'(t)) * xi(t),
    xi(t) = exp(-psi(t)^2 / (2t)) / sqrt(2 pi t),

and whose higher iterates q_{k+1} = P q_k are built here by product
quadrature of the operator

    (P_t f) = int_0^t f(s) {(psi(t)-psi(s))/(t-s) - psi'(t)}
              q(t-s, psi(s), psi(t)) ds.

The integrand vanishes like sqrt(t-s) at the upper limit; the quadrature
splits that factor off and integrates it exactly per cell (weighted
midpoint rule), which keeps plain-midpoint's O(h^{3/2}) endpoint error out
of the refinement limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .samplers import RngStream, sample_inverse_gaussian

__all__ = [
    "NEVER",
    "Boundary1D",
    "level_hitting_pdf",
    "sample_level_hitting",
    "line_hitting_pdf",
    "sample_line_hitting",
    "durbin_q1",
    "volterra_apply",
    "durbin_pdf",
    "durbin_series_table",
]

# Sampling a defective hitting law can legitimately come back "never hits";
# infinity is that variant, not an error.
NEVER = math.inf

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Boundary1D:
    """A one-sided moving boundary psi with its derivative.

    kind is "constant", "line" or "general".  psi(0+) must be positive and
    finite: the walker starts strictly below the boundary.
    """

    psi: Callable[[float], float]
    psi_prime: Callable[[float], float]
    kind: str = "general"

    @staticmethod
    def constant(L: float) -> "Boundary1D":
        if not (math.isfinite(L) and L > 0):
            raise ValueError(f"level must be positive and finite, got {L}")
        return Boundary1D(lambda t: L, lambda t: 0.0, kind="constant")

    @staticmethod
    def line(L: float, beta: float) -> "Boundary1D":
        if not (math.isfinite(L) and L > 0):
            raise ValueError(f"level must be positive and finite, got {L}")
        if not (math.isfinite(beta) and beta >= 0):
            raise ValueError(f"slope must be >= 0 and finite, got {beta}")
        return Boundary1D(lambda t: L + beta * t, lambda t: beta, kind="line")

    @staticmethod
    def general(psi: Callable[[float], float], psi_prime: Callable[[float], float]) -> "Boundary1D":
        if not 0 < psi(1e-12) < math.inf:
            raise ValueError("boundary must start finite and above the origin (0 < psi(0+) < inf)")
        return Boundary1D(psi, psi_prime, kind="general")


def level_hitting_pdf(t, L: float):
    """Density of the first passage of level L: L exp(-L^2/2t) / sqrt(2 pi t^3)."""
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    out = L / (_SQRT_2PI * t_arr**1.5) * np.exp(-L * L / (2.0 * t_arr))
    return float(out) if np.isscalar(t) else out


def sample_level_hitting(L: float, rng: RngStream, size=None):
    """Passage time of level L, sampled as L^2 / G^2."""
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    n = 1 if size is None else size
    g = rng.generator.standard_normal(n)
    while np.any(g == 0.0):
        bad = g == 0.0
        g[bad] = rng.generator.standard_normal(int(bad.sum()))
    out = L * L / (g * g)
    return float(out[0]) if size is None else out


def line_hitting_pdf(t, L: float, beta: float):
    """Bachelier-Levy density for the line L + beta t (defective for beta > 0)."""
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    out = L / (_SQRT_2PI * t_arr**1.5) * np.exp(-((L + beta * t_arr) ** 2) / (2.0 * t_arr))
    return float(out) if np.isscalar(t) else out


def sample_line_hitting(L: float, beta: float, rng: RngStream, size=None):
    """Passage time of the line L + beta t, or NEVER with probability 1 - e^{-2 L beta}.

    Conditionally on hitting, the law is inverse Gaussian with mean L/beta
    and shape L^2; beta = 0 reduces to the plain level-hitting sampler.
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if beta == 0.0:
        return sample_level_hitting(L, rng, size=size)
    n = 1 if size is None else size
    hit = rng.generator.random(n) < math.exp(-2.0 * L * beta)
    out = np.full(n, NEVER)
    n_hit = int(hit.sum())
    if n_hit:
        out[hit] = sample_inverse_gaussian(L / beta, L * L, rng, size=n_hit)
    return float(out[0]) if size is None else out


def _xi(t, psi_t):
    return np.exp(-np.asarray(psi_t) ** 2 / (2.0 * np.asarray(t))) / np.sqrt(
        2.0 * math.pi * np.asarray(t)
    )


def durbin_q1(t: float, boundary: Boundary1D) -> float:
    """Tangent approximation (psi(t)/t - psi'(t)) xi(t) of the hitting density.

    Exact for constant and straight-line boundaries.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    psi_t = boundary.psi(t)
    b1 = psi_t / t - boundary.psi_prime(t)
    return b1 * float(_xi(t, psi_t))


def _second_derivative(boundary: Boundary1D, t: float) -> float:
    # Central difference of psi'; only the removable-limit guard needs it.
    e = 1e-5 * max(1.0, abs(t))
    lo = max(t - e, 0.5 * t)
    return (boundary.psi_prime(t + e) - boundary.psi_prime(lo)) / (t + e - lo)


def _kernel_over_sqrt(s, upper: float, boundary: Boundary1D, psi_upper: float, psip_upper: float):
    """Integrand of P_upper divided by sqrt(upper - s), a smooth function of s."""
    s = np.asarray(s, dtype=float)
    u = upper - s
    psi_s = np.asarray([boundary.psi(v) for v in np.atleast_1d(s)], dtype=float)
    factor = (psi_upper - psi_s) / u - psip_upper
    gauss = np.exp(-((psi_upper - psi_s) ** 2) / (2.0 * u)) / np.sqrt(2.0 * math.pi * u)
    return factor * gauss / np.sqrt(u)


def _sqrt_cell_weights(upper: float, edges_lo, edges_hi):
    # Exact integral of sqrt(upper - s) over each cell [lo, hi].
    a = np.maximum(upper - np.asarray(edges_lo), 0.0)
    b = np.maximum(upper - np.asarray(edges_hi), 0.0)
    return (2.0 / 3.0) * (a**1.5 - b**1.5)


def _apply_operator(f_nodes, h: float, upper: float, j_cells: int, boundary: Boundary1D) -> float:
    """Weighted-midpoint value of (P_upper f) using the first j_cells nodes.

    f_nodes[i] approximates f at s_i = (i + 1/2) h.  When upper exceeds the
    covered cells (upper = s_j for node recursion) the leftover half-cell
    uses the removable-limit value of the integrand, which needs psi''.
    """
    psi_upper = boundary.psi(upper)
    psip_upper = boundary.psi_prime(upper)
    total = 0.0
    if j_cells > 0:
        nodes = (np.arange(j_cells) + 0.5) * h
        g = _kernel_over_sqrt(nodes, upper, boundary, psi_upper, psip_upper)
        w = _sqrt_cell_weights(upper, np.arange(j_cells) * h, (np.arange(j_cells) + 1) * h)
        total = float(np.dot(f_nodes[:j_cells] * g, w))
    leftover = upper - j_cells * h
    if leftover > 1e-15 * max(upper, 1.0):
        # G(s) -> -psi''(upper) / (2 sqrt(2 pi)) as s -> upper.
        g_lim = -_second_derivative(boundary, upper) / (2.0 * _SQRT_2PI)
        f_end = f_nodes[j_cells] if len(f_nodes) > j_cells else f_nodes[-1]
        total += float(f_end) * g_lim * (2.0 / 3.0) * leftover**1.5
    return total


def _next_term(q_prev, h: float, nodes, boundary: Boundary1D) -> np.ndarray:
    """q_{k+1} = P q_k at every midpoint node, each from the nodes before it."""
    return np.array([_apply_operator(q_prev, h, s, j, boundary) for j, s in enumerate(nodes)])


def volterra_apply(f_values, t: float, boundary: Boundary1D) -> float:
    """(P_t f) for f tabulated at the midpoints (i + 1/2) t/m, i = 0..m-1.

    The grid must have at least 8 nodes.  Constant and straight-line
    boundaries annihilate the kernel, so the result is exactly 0 there.
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_values.ndim != 1 or len(f_values) < 8:
        raise ValueError("f must be tabulated on a uniform grid of at least 8 nodes")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if boundary.kind in ("constant", "line"):
        return 0.0
    m = len(f_values)
    return _apply_operator(f_values, t / m, t, m, boundary)


def durbin_series_table(boundary: Boundary1D, t: float, terms: int, grid: int):
    """Tabulate the truncated alternating series on the midpoint grid.

    Returns (nodes, q1 at nodes, sum_{k<=terms} (-1)^(k-1) q_k at nodes).
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if grid < 8:
        raise ValueError(f"grid must have at least 8 nodes, got {grid}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    h = t / grid
    nodes = (np.arange(grid) + 0.5) * h
    q1_nodes = np.array([durbin_q1(s, boundary) for s in nodes])
    series = q1_nodes.copy()
    if boundary.kind in ("constant", "line"):
        return nodes, q1_nodes, series
    q_prev = q1_nodes
    for k in range(2, terms + 1):
        q_next = _next_term(q_prev, h, nodes, boundary)
        series += (-1.0) ** (k - 1) * q_next
        q_prev = q_next
    return nodes, q1_nodes, series


def durbin_pdf(t: float, boundary: Boundary1D, terms: int, grid: int) -> float:
    """Truncated series sum_{k=1}^{terms} (-1)^(k-1) q_k(t) for the hitting density."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    value = durbin_q1(t, boundary)
    if terms == 1 or boundary.kind in ("constant", "line"):
        return value
    if grid < 8:
        raise ValueError(f"grid must have at least 8 nodes, got {grid}")
    h = t / grid
    nodes = (np.arange(grid) + 0.5) * h
    q_prev = np.array([durbin_q1(s, boundary) for s in nodes])
    for k in range(2, terms + 1):
        value += (-1.0) ** (k - 1) * _apply_operator(q_prev, h, t, grid, boundary)
        if k < terms:
            q_prev = _next_term(q_prev, h, nodes, boundary)
    return value
