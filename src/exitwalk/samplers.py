"""Random-variate generation with reproducible parallel streams.

RNG contract: a stream is identified by a (seed, stream_id) pair and feeds
a counter-based philox4x64 generator, so identical pairs replay the exact
same variate sequence on every run and platform, and distinct stream ids
give statistically independent streams with no coordination.  Gaussians
come from numpy's ziggurat; the algorithm name recorded in result files is
``philox4x64-numpy``.

The tau_psi sampler takes the log of 1 - U, which lies in (0, 1] for a
uniform U on [0, 1), so it never sees log(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import BesselIndex

__all__ = [
    "RNG_ALGORITHM",
    "RngStream",
    "sample_unit_direction",
    "sample_tau_psi",
    "sample_inverse_gaussian",
]

RNG_ALGORITHM = "philox4x64-numpy"


@dataclass
class RngStream:
    """One reproducible variate stream, exclusively owned by one worker.

    Cloning a stream for another worker means constructing a new RngStream
    with the same seed and a fresh stream_id.
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (0 <= int(value) < 2**64):
                raise ValueError(f"{name} must fit in 64 bits, got {value}")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) bit for bit, for a C-contiguous (k, w) array, w >= 2.

    numpy adds rows narrower than 8 left to right; column adds in that order
    give the same bits with less per-call overhead.  Wider rows are summed
    pairwise, so they stay with numpy.
    """
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    s = a[:, 0] + a[:, 1]
    for j in range(2, a.shape[1]):
        s += a[:, j]
    return s


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) bit for bit, for a C-contiguous (k, delta) array."""
    s = _row_sums(x * x)
    return np.sqrt(s, out=s)


def sample_unit_direction(delta: int, rng: RngStream, size: int | None = None):
    """Uniform direction(s) on the unit sphere in dimension delta >= 2.

    In dimension 2 this is literally (cos 2*pi*W, sin 2*pi*W) for a single
    uniform W; higher dimensions normalize a Gaussian vector.  Returns
    shape (delta,) for size=None, else (size, delta).
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    n = 1 if size is None else size
    if delta == 2:
        ang = 2.0 * math.pi * rng.generator.random(n)
        v = np.empty((n, 2))
        np.cos(ang, out=v[:, 0])
        np.sin(ang, out=v[:, 1])
    else:
        v = rng.generator.standard_normal((n, delta))
        norms = _norms(v)
        # A zero Gaussian vector has probability 0; redraw defensively.
        while not norms.all():
            bad = norms == 0.0
            v[bad] = rng.generator.standard_normal((int(bad.sum()), delta))
            norms = _norms(v)
        v /= norms[:, None]
    return v[0] if size is None else v


def sample_tau_psi(t_max: np.ndarray, index: BesselIndex, rng: RngStream):
    """Hitting times r in (0, t_max] of the boundaries psi, one per entry of t_max.

    From floor(nu)+2 uniforms per entry, plus a Gaussian G when nu is a
    half-integer, returns (r, z) with psi(r) = sqrt(2 (nu+1) r z):

        z = (-sum log(1 - U_i) + (nu - floor(nu)) G^2) / (nu+1),  r = t_max exp(-z).

    In dimension 2, r = t_max (1 - U_1)(1 - U_2).  t_max (a 1-D array) is
    unchecked, as the walker calls this on every step.
    """
    nu = index.nu
    gen = rng.generator
    k = t_max.size
    z = -_row_sums(np.log(1.0 - gen.random((k, int(math.floor(nu)) + 2))))
    if index.frac != 0.0:
        g = gen.standard_normal(k)
        z = z + index.frac * g * g
    z /= nu + 1.0
    return t_max * np.exp(-z), z


def sample_inverse_gaussian(mu: float, lam: float, rng: RngStream, size=None):
    """Inverse Gaussian variate(s) with mean mu and shape lam.

    One Gaussian and one uniform per draw: the transformation-with-roots
    generator (Michael, Schucany, Haas).
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    n = 1 if size is None else size
    g = rng.generator.standard_normal(n)
    v = g * g
    w = mu * v
    x1 = mu + (mu / (2.0 * lam)) * (w - np.sqrt(w * (4.0 * lam + w)))
    u = rng.generator.random(n)
    take_x1 = u <= mu / (mu + x1)
    out = np.where(take_x1, x1, mu * mu / x1)
    return float(out[0]) if size is None else out
