"""Trajectory engines for the exit problem of a sphere.

Two families of walkers approximate the exit time and exit position of a
delta-dimensional Brownian motion from the sphere of radius L centred at
the origin:

* walk on moving spheres: each step samples the hitting time R of a
  shrinking boundary whose supremum is gamma * (distance to the sphere),
  then jumps a distance psi(R) in a uniform direction and advances the
  clock by R; and
* classical walk on spheres: each step jumps to a uniform point on the
  largest inscribed sphere; the elapsed time per step is r^2 times a draw
  of the unit-sphere exit time tau_1.  wos_batch takes the source of those
  draws as one argument, whose type fixes how they are made: a Tau1Table
  (uniform lookup in a precomputed table), a SpectralSeriesCache (numerical
  CDF inversion), or None (positions only, the clock stays at zero).

A naive Euler scheme (fixed step h, no boundary correction) serves as a
distribution baseline.

Both walks are step kernels (positions, norms) -> (new positions, elapsed
time) of one lockstep loop that advances n independent walkers; a single
trajectory is the same loop with n = 1.  The loop keeps the alive walkers'
ids, positions, clocks and norms compacted: one boolean mask compresses all
four when some retire, keeping the survivors' order, and retired rows go to
the output by id.  Every alive walker has taken as many steps as the loop
has iterations, and the norm of the retire test is the next step's
distance.  Rows narrower than 8 are summed by column adds, in the
left-to-right order numpy uses for them, so the results match the plain
row-reduction formulas bit for bit.

Walkers stop on the first state inside the epsilon-shell
{L - eps <= |x| < L}; intermediate states stay strictly inside the domain.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .specfun import BesselIndex
from .samplers import RngStream, _norms, sample_tau_psi, sample_unit_direction
from .bessel_hitting import SpectralSeriesCache, invert_cdf_batch, moving_sphere_t_max

__all__ = [
    "SphereDomain",
    "BatchResult",
    "StepBudgetError",
    "woms_batch",
    "wos_batch",
    "euler_batch",
    "Tau1Table",
    "precompute_table",
    "write_table",
    "read_table",
]

DEFAULT_MAX_STEPS = 10**6


@dataclass(frozen=True)
class SphereDomain:
    """The sphere of radius L centred at the origin in dimension delta."""

    radius: float
    delta: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        BesselIndex(self.delta)  # validates delta

    @property
    def index(self) -> BesselIndex:
        return BesselIndex(self.delta)


@dataclass
class BatchResult:
    """Vectorized trajectories: exit_times (n,), steps (n,), positions (n, delta)."""

    exit_times: np.ndarray
    steps: np.ndarray
    exit_positions: np.ndarray

    def projected_positions(self, radius: float) -> np.ndarray:
        norms = np.linalg.norm(self.exit_positions, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        return self.exit_positions * (radius / safe)


class StepBudgetError(RuntimeError):
    """Trajectories exceeded their step budget; state holds the alive ids and positions."""

    def __init__(self, message: str, state):
        super().__init__(message)
        self.state = state


# ---------------------------------------------------------------------------
# Lockstep loop


def _lockstep(x0, domain: SphereDomain, epsilon: float, n: int, max_steps: int, step) -> BatchResult:
    """Advance n walkers from x0 by step(pos, norms) -> (pos, dt), which may update pos in place."""
    _check_run_args(x0, domain, epsilon)
    threshold = domain.radius - epsilon
    pos = np.tile(np.asarray(x0, dtype=float), (n, 1))
    norms, t, ids = _norms(pos), np.zeros(n), np.arange(n)
    out = BatchResult(np.empty(n), np.empty(n, dtype=np.int64), np.empty_like(pos))
    it = 0
    while True:
        done = norms >= threshold
        if done.any():
            fin = ids[done]
            out.exit_positions[fin] = pos.compress(done, axis=0)
            out.exit_times[fin] = t[done]
            out.steps[fin] = it
            keep = ~done
            # compress, not pos[keep]: numpy gathers 2-D rows by mask ~10x slower
            ids, pos, t, norms = ids[keep], pos.compress(keep, axis=0), t[keep], norms[keep]
        if not ids.size:
            return out
        if it >= max_steps:
            raise StepBudgetError(
                f"step budget {max_steps} exceeded by {ids.size} trajectories",
                {"alive": ids.copy(), "positions": pos.copy()},
            )
        it += 1
        pos, dt = step(pos, norms)
        t += dt
        norms = _norms(pos)


# ---------------------------------------------------------------------------
# Walk on moving spheres


def woms_batch(
    x0,
    domain: SphereDomain,
    epsilon: float,
    gamma: float,
    rng: RngStream,
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> BatchResult:
    """n independent moving-sphere trajectories advanced in lockstep."""
    if not 0.0 < gamma < 1.0:  # also rejects NaN, which would spin to the step budget
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    index = domain.index
    nu = index.nu

    def step(pos, norms):
        # d lives to the end of the step: freeing it early costs a third more page faults at k = 2e5
        d = domain.radius - norms
        r, z = sample_tau_psi(moving_sphere_t_max(d, gamma, index), index, rng)
        pos += sample_unit_direction(domain.delta, rng, r.size) * np.sqrt(2.0 * (nu + 1.0) * r * z)[:, None]
        return pos, r

    return _lockstep(x0, domain, epsilon, n, max_steps, step)


def _check_run_args(x0, domain: SphereDomain, epsilon: float) -> None:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.delta,):
        raise ValueError(f"x0 must have shape ({domain.delta},), got {x0.shape}")
    if not float(np.linalg.norm(x0)) < domain.radius:  # also rejects NaN and inf
        raise ValueError("x0 must lie strictly inside the domain")
    if not 0.0 < epsilon < domain.radius:
        raise ValueError(f"epsilon must lie in (0, radius), got {epsilon}")


# ---------------------------------------------------------------------------
# Classical walk on spheres


def wos_batch(
    x0,
    domain: SphereDomain,
    epsilon: float,
    tau1: "Tau1Table | SpectralSeriesCache | None",
    rng: RngStream,
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> BatchResult:
    """n independent classical-walk trajectories advanced in lockstep.

    Each step jumps to a uniform point on the largest inscribed sphere.  The
    elapsed time grows by r^2 * tau_1, because the exit time of a sphere of
    radius r is r^2 times the unit-sphere one.  tau1 is the source of those
    draws: a Tau1Table (uniform lookup), a unit-radius SpectralSeriesCache
    (CDF inversion), or None, which leaves the clock at zero.
    """
    if isinstance(tau1, Tau1Table):
        if tau1.delta != domain.delta:
            raise ValueError(
                f"table dimension {tau1.delta} does not match domain dimension {domain.delta}"
            )
    elif isinstance(tau1, SpectralSeriesCache):
        if tau1.index.delta != domain.delta or tau1.radius != 1.0:
            raise ValueError(
                f"series cache (dimension {tau1.index.delta}, radius {tau1.radius}) must be "
                f"for the unit sphere in dimension {domain.delta}"
            )
    elif tau1 is not None:
        raise ValueError(
            f"tau1 must be a Tau1Table, a SpectralSeriesCache or None, got {type(tau1).__name__}"
        )
    gen = rng.generator

    def step(pos, norms):
        r = domain.radius - norms
        pos += sample_unit_direction(domain.delta, rng, r.size) * r[:, None]
        if tau1 is None:
            return pos, 0.0
        if isinstance(tau1, Tau1Table):
            draws = tau1.samples[gen.integers(0, tau1.count, r.size)]
        else:
            u = np.clip(gen.random(r.size), 1e-300, np.nextafter(1.0, 0.0))
            draws = invert_cdf_batch(u, tau1)
        return pos, r * r * draws

    return _lockstep(x0, domain, epsilon, n, max_steps, step)


# ---------------------------------------------------------------------------
# Naive Euler baseline


def euler_batch(
    x0,
    domain: SphereDomain,
    h: float,
    rng: RngStream,
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> BatchResult:
    """n independent Euler trajectories advanced in lockstep.

    Steps are generated in blocks (cumulative sums of Gaussian increments,
    first-crossing scan per block); for small h this trades a few wasted
    post-crossing draws for far fewer passes over the batch.  Every alive
    walker has taken the same number of steps, and no block runs past
    max_steps.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be positive and finite, got {h}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.delta,):
        raise ValueError(f"x0 must have shape ({domain.delta},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    gen = rng.generator
    delta = domain.delta
    positions = np.tile(x0, (n, 1))
    out_pos = np.empty_like(positions)
    out_s = np.empty(n, dtype=np.int64)
    sqrt_h = math.sqrt(h)
    block_budget = 2**22  # ~4M scalars per block keeps temporaries cache-friendly

    alive = np.arange(n)
    norms = np.linalg.norm(positions, axis=1)
    done = norms >= domain.radius
    if np.any(done):
        idx = alive[done]
        out_pos[idx] = positions[idx] * (domain.radius / norms[done, None])
        out_s[idx] = 0
    alive = alive[~done]
    taken = 0
    while alive.size:
        if taken >= max_steps:
            raise StepBudgetError(
                f"step budget {max_steps} exceeded by {alive.size} trajectories",
                {"alive": alive.copy(), "positions": positions[alive].copy()},
            )
        k = alive.size
        m = min(int(np.clip(block_budget // (k * delta), 1, 1024)), max_steps - taken)
        block = gen.standard_normal((k, m, delta))
        np.cumsum(block, axis=1, out=block)
        block *= sqrt_h
        block += positions[alive][:, None, :]
        crossed = np.einsum("ijk,ijk->ij", block, block) >= domain.radius**2
        has_hit = crossed.any(axis=1)
        first = crossed.argmax(axis=1)
        if np.any(has_hit):
            fin = alive[has_hit]
            hit_pos = block[has_hit, first[has_hit]]
            hit_norms = np.linalg.norm(hit_pos, axis=1, keepdims=True)
            out_pos[fin] = hit_pos * (domain.radius / hit_norms)
            out_s[fin] = taken + first[has_hit] + 1
        survivors = alive[~has_hit]
        positions[survivors] = block[~has_hit, -1]
        taken += m
        alive = survivors
    return BatchResult(exit_times=h * out_s.astype(float), steps=out_s, exit_positions=out_pos)


# ---------------------------------------------------------------------------
# Precomputed unit-sphere exit-time tables

_TABLE_MAGIC = b"EXWTAU01"
_TABLE_VERSION = 1
_TABLE_HEADER = struct.Struct("<8sIIB7xQ")
_PROVENANCE_TO_TAG = {"inversion": 0, "euler": 1}
_TAG_TO_PROVENANCE = {v: k for k, v in _PROVENANCE_TO_TAG.items()}


@dataclass(frozen=True)
class Tau1Table:
    """Precomputed draws of tau_1 (unit sphere, start at the center).

    Sampling picks an index uniformly with replacement; the residual bias
    from the finite table size is accepted and grows smaller with count.
    """

    delta: int
    samples: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        BesselIndex(self.delta)
        if self.provenance not in _PROVENANCE_TO_TAG:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype="<f8"))
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples) & (samples > 0.0)):
            raise ValueError("all table samples must be finite and positive")
        object.__setattr__(self, "samples", samples)

    @property
    def count(self) -> int:
        return int(self.samples.size)


def write_table(table: Tau1Table, path) -> None:
    """Serialize bit-exactly: magic, version, dimension, provenance, count, f64 LE samples."""
    header = _TABLE_HEADER.pack(
        _TABLE_MAGIC,
        _TABLE_VERSION,
        table.delta,
        _PROVENANCE_TO_TAG[table.provenance],
        table.count,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.samples.astype("<f8", copy=False).tobytes())


def read_table(path) -> Tau1Table:
    with open(path, "rb") as fh:
        raw = fh.read(_TABLE_HEADER.size)
        if len(raw) != _TABLE_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, delta, tag, count = _TABLE_HEADER.unpack(raw)
        if magic != _TABLE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _TABLE_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if tag not in _TAG_TO_PROVENANCE:
            raise ValueError(f"{path}: unknown provenance tag {tag}")
        payload = fh.read(8 * count)
        if len(payload) != 8 * count:
            raise ValueError(f"{path}: truncated payload")
    samples = np.frombuffer(payload, dtype="<f8", count=count).copy()
    return Tau1Table(delta=int(delta), samples=samples, provenance=_TAG_TO_PROVENANCE[tag])


def precompute_table(
    count: int,
    delta: int,
    method: str,
    rng: RngStream,
    h: float = 1e-5,
) -> Tau1Table:
    """Build a tau_1 table by CDF inversion or by the naive Euler scheme."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if method == "inversion":
        cache = SpectralSeriesCache(BesselIndex(delta), radius=1.0)
        u = rng.generator.random(count)
        u = np.clip(u, 1e-300, np.nextafter(1.0, 0.0))
        samples = invert_cdf_batch(u, cache)
    elif method == "euler":
        domain = SphereDomain(radius=1.0, delta=delta)
        result = euler_batch(np.zeros(delta), domain, h, rng, count)
        samples = result.exit_times
    else:
        raise ValueError(f"unknown table method {method!r}; expected 'inversion' or 'euler'")
    return Tau1Table(delta=delta, samples=samples, provenance=method)
