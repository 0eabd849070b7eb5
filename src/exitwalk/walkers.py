"""Trajectory engines for the exit problem of a sphere.

Two families of walkers approximate the exit time and exit position of a
delta-dimensional Brownian motion from the sphere of radius L centred at
the origin:

* walk on moving spheres: each step samples the hitting time R of a
  shrinking boundary whose supremum is gamma * (distance to the sphere),
  then jumps a distance psi(R) in a uniform direction and advances the
  clock by R; and
* classical walk on spheres: each step jumps to a uniform point on the
  largest inscribed sphere; the elapsed time per step, when requested, is
  r^2 times a draw of the unit-sphere exit time tau_1 obtained either by
  numerical CDF inversion or by uniform lookup in a precomputed table.

A naive Euler scheme (fixed step h, no boundary correction) serves as a
distribution baseline.  Every engine exists in a scalar per-step form,
mirroring the published step recursions draw for draw, and in a batched
form; both consume the same reproducible streams.

The batched walk on moving spheres and walk on spheres are step kernels
(positions, norms) -> (new positions, elapsed time) of one lockstep loop.
The loop keeps the alive walkers' ids, positions, clocks and norms
compacted: one boolean mask compresses all four when some retire, keeping
the survivors' order, and retired rows go to the output by id.  Every alive
walker has taken as many steps as the loop has iterations, and the norm
of the retire test is the next step's distance.  Rows narrower than 8 are
summed by column adds, in the left-to-right order numpy uses for them, so
the results match the plain row-reduction formulas bit for bit.

Walkers stop on the first state inside the epsilon-shell
{L - eps <= |x| < L}; intermediate states stay strictly inside the domain.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .specfun import BesselIndex
from .samplers import RngStream, sample_tau_psi, sample_unit_direction
from .bessel_hitting import (
    InversionConfig,
    SpectralSeriesCache,
    moving_sphere_param_a,
    psi as boundary_psi,
    MovingBoundary,
    invert_cdf_batch,
)

__all__ = [
    "SphereDomain",
    "WalkState",
    "ExitSample",
    "BatchResult",
    "StepBudgetError",
    "WosDeps",
    "EXIT_MODES",
    "woms_step",
    "woms_run",
    "woms_batch",
    "wos_step",
    "wos_run",
    "wos_batch",
    "euler_run",
    "euler_batch",
    "Tau1Table",
    "precompute_table",
    "write_table",
    "read_table",
]

DEFAULT_MAX_STEPS = 10**6
EXIT_MODES = ("position_only", "inversion", "table")


@dataclass(frozen=True)
class SphereDomain:
    """The sphere of radius L centred at the origin in dimension delta."""

    radius: float
    delta: int

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        BesselIndex(self.delta)  # validates delta

    @property
    def index(self) -> BesselIndex:
        return BesselIndex(self.delta)

    def distance_to_boundary(self, position: np.ndarray) -> float:
        return self.radius - float(np.linalg.norm(position))


@dataclass
class WalkState:
    """Current position, elapsed clock and step count of one walker."""

    position: np.ndarray
    elapsed: float = 0.0
    steps: int = 0


@dataclass(frozen=True)
class ExitSample:
    """Outcome of one trajectory.

    exit_position is the raw in-shell (or, for Euler, overshot-then-
    projected) position; projected_position is its radial projection onto
    the sphere, which is what boundary-function estimates should use.
    """

    exit_position: np.ndarray
    exit_time: float
    steps: int
    projected_position: np.ndarray


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
    """A trajectory exceeded its step budget; carries the partial state."""

    def __init__(self, message: str, state):
        super().__init__(message)
        self.state = state


def _project(position: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(position))
    if norm == 0.0:
        raise ValueError("cannot project the origin onto the sphere")
    return position * (radius / norm)


# ---------------------------------------------------------------------------
# Lockstep loop


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) bit for bit, for a C-contiguous (k, w) array, w >= 2 (see module doc)."""
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


def _directions(gen: np.random.Generator, k: int, delta: int) -> np.ndarray:
    """k uniform unit vectors: one angle each for delta = 2, normalized Gaussians above."""
    if delta == 2:
        ang = 2.0 * math.pi * gen.random(k)
        v = np.empty((k, 2))
        np.cos(ang, out=v[:, 0])
        np.sin(ang, out=v[:, 1])
        return v
    v = gen.standard_normal((k, delta))
    v /= _norms(v)[:, None]
    return v


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


def woms_step(state: WalkState, domain: SphereDomain, gamma: float, rng: RngStream) -> WalkState:
    """One moving-sphere step: jump psi(R) in a uniform direction, advance by R."""
    d = domain.distance_to_boundary(state.position)
    a = moving_sphere_param_a(d, gamma, domain.index)
    r = sample_tau_psi(a, domain.index, rng)
    v = sample_unit_direction(domain.delta, rng)
    displacement = boundary_psi(r, MovingBoundary(a, domain.index))
    return WalkState(
        position=state.position + displacement * v,
        elapsed=state.elapsed + r,
        steps=state.steps + 1,
    )


def woms_run(
    x0,
    domain: SphereDomain,
    epsilon: float,
    gamma: float,
    rng: RngStream,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExitSample:
    """Iterate woms_step until the walker enters the epsilon-shell."""
    _check_run_args(x0, domain, epsilon)
    state = WalkState(position=np.array(x0, dtype=float))
    threshold = domain.radius - epsilon
    while float(np.linalg.norm(state.position)) < threshold:
        if state.steps >= max_steps:
            raise StepBudgetError(f"step budget {max_steps} exceeded", state)
        state = woms_step(state, domain, gamma, rng)
    return ExitSample(
        exit_position=state.position,
        exit_time=state.elapsed,
        steps=state.steps,
        projected_position=_project(state.position, domain.radius),
    )


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
    nu, frac = domain.index.nu, domain.index.frac
    m = int(math.floor(nu)) + 2
    gen = rng.generator

    def step(pos, norms):
        k = norms.size
        d = domain.radius - norms
        t_max = gamma * gamma * d * d * math.e / (2.0 * (nu + 1.0))
        z = -_row_sums(np.log(1.0 - gen.random((k, m))))
        if frac != 0.0:
            g = gen.standard_normal(k)
            z = z + frac * g * g
        z /= nu + 1.0
        r = t_max * np.exp(-z)
        pos += _directions(gen, k, domain.delta) * np.sqrt(2.0 * (nu + 1.0) * r * z)[:, None]
        return pos, r

    return _lockstep(x0, domain, epsilon, n, max_steps, step)


def _check_run_args(x0, domain: SphereDomain, epsilon: float) -> None:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.delta,):
        raise ValueError(f"x0 must have shape ({domain.delta},), got {x0.shape}")
    if float(np.linalg.norm(x0)) >= domain.radius:
        raise ValueError("x0 must lie strictly inside the domain")
    if not 0.0 < epsilon < domain.radius:
        raise ValueError(f"epsilon must lie in (0, radius), got {epsilon}")


# ---------------------------------------------------------------------------
# Classical walk on spheres


@dataclass
class WosDeps:
    """Exit-time dependencies for WOS: series cache + inversion settings, or a table."""

    cache: SpectralSeriesCache | None = None
    inversion: InversionConfig = field(default_factory=InversionConfig)
    table: "Tau1Table | None" = None

    @staticmethod
    def for_mode(exit_mode: str, domain: SphereDomain, table: "Tau1Table | None" = None) -> "WosDeps":
        if exit_mode not in EXIT_MODES:
            raise ValueError(f"unknown exit mode {exit_mode!r}; expected one of {EXIT_MODES}")
        deps = WosDeps(table=table)
        if exit_mode == "inversion":
            deps.cache = SpectralSeriesCache(domain.index, radius=1.0)
        if exit_mode == "table":
            if table is None:
                raise ValueError("table exit mode requires a loaded Tau1Table")
            if table.delta != domain.delta:
                raise ValueError(
                    f"table dimension {table.delta} does not match domain dimension {domain.delta}"
                )
        return deps


def _tau1_draws(exit_mode: str, deps: WosDeps, gen: np.random.Generator, size: int) -> np.ndarray:
    if exit_mode == "inversion":
        u = gen.random(size)
        u = np.clip(u, 1e-300, np.nextafter(1.0, 0.0))
        return invert_cdf_batch(u, deps.cache, deps.inversion)
    if exit_mode == "table":
        if deps.table is None:
            raise ValueError("table exit mode requires a loaded Tau1Table")
        idx = gen.integers(0, deps.table.count, size)
        return deps.table.samples[idx]
    raise ValueError(f"unknown exit mode {exit_mode!r}")


def wos_step(
    state: WalkState,
    domain: SphereDomain,
    exit_mode: str,
    deps: WosDeps,
    rng: RngStream,
) -> WalkState:
    """One classical step: uniform point on the largest inscribed sphere.

    The elapsed time grows by r^2 * tau_1 (inversion or table mode) because
    the exit time of a sphere of radius r is r^2 times the unit-sphere one;
    position_only mode leaves the clock untouched.
    """
    if exit_mode not in EXIT_MODES:
        raise ValueError(f"unknown exit mode {exit_mode!r}; expected one of {EXIT_MODES}")
    r = domain.distance_to_boundary(state.position)
    v = sample_unit_direction(domain.delta, rng)
    elapsed = state.elapsed
    if exit_mode != "position_only":
        elapsed += r * r * float(_tau1_draws(exit_mode, deps, rng.generator, 1)[0])
    return WalkState(position=state.position + r * v, elapsed=elapsed, steps=state.steps + 1)


def wos_run(
    x0,
    domain: SphereDomain,
    epsilon: float,
    exit_mode: str,
    deps: WosDeps,
    rng: RngStream,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExitSample:
    """Iterate wos_step until the walker enters the epsilon-shell."""
    _check_run_args(x0, domain, epsilon)
    state = WalkState(position=np.array(x0, dtype=float))
    threshold = domain.radius - epsilon
    while float(np.linalg.norm(state.position)) < threshold:
        if state.steps >= max_steps:
            raise StepBudgetError(f"step budget {max_steps} exceeded", state)
        state = wos_step(state, domain, exit_mode, deps, rng)
    return ExitSample(
        exit_position=state.position,
        exit_time=state.elapsed,
        steps=state.steps,
        projected_position=_project(state.position, domain.radius),
    )


def wos_batch(
    x0,
    domain: SphereDomain,
    epsilon: float,
    exit_mode: str,
    deps: WosDeps,
    rng: RngStream,
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> BatchResult:
    """n independent classical-walk trajectories advanced in lockstep."""
    if exit_mode not in EXIT_MODES:
        raise ValueError(f"unknown exit mode {exit_mode!r}; expected one of {EXIT_MODES}")
    gen = rng.generator

    def step(pos, norms):
        r = domain.radius - norms
        pos += _directions(gen, r.size, domain.delta) * r[:, None]
        if exit_mode == "position_only":
            return pos, 0.0
        return pos, r * r * _tau1_draws(exit_mode, deps, gen, r.size)

    return _lockstep(x0, domain, epsilon, n, max_steps, step)


# ---------------------------------------------------------------------------
# Naive Euler baseline


def euler_run(
    x0,
    domain: SphereDomain,
    h: float,
    rng: RngStream,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExitSample:
    """Fixed-step Euler walk: X += sqrt(h) G until |X| >= L, no boundary correction."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.delta,):
        raise ValueError(f"x0 must have shape ({domain.delta},), got {x0.shape}")
    state = WalkState(position=np.array(x0, dtype=float))
    sqrt_h = math.sqrt(h)
    while float(np.linalg.norm(state.position)) < domain.radius:
        if state.steps >= max_steps:
            raise StepBudgetError(f"step budget {max_steps} exceeded", state)
        g = rng.generator.standard_normal(domain.delta)
        state = WalkState(
            position=state.position + sqrt_h * g,
            elapsed=state.elapsed + h,
            steps=state.steps + 1,
        )
    projected = _project(state.position, domain.radius)
    return ExitSample(
        exit_position=projected,
        exit_time=state.elapsed,
        steps=state.steps,
        projected_position=projected,
    )


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
    post-crossing draws for far fewer passes over the batch.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.delta,):
        raise ValueError(f"x0 must have shape ({domain.delta},), got {x0.shape}")
    gen = rng.generator
    delta = domain.delta
    positions = np.tile(x0, (n, 1))
    steps = np.zeros(n, dtype=np.int64)
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
    while alive.size:
        if int(steps[alive].min()) >= max_steps:
            raise StepBudgetError(
                f"step budget {max_steps} exceeded by {alive.size} trajectories",
                {"alive": alive.copy(), "positions": positions[alive].copy()},
            )
        k = alive.size
        m = int(np.clip(block_budget // (k * delta), 1, 1024))
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
            out_s[fin] = steps[fin] + first[has_hit] + 1
        survivors = alive[~has_hit]
        positions[survivors] = block[~has_hit, -1]
        steps[survivors] += m
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
        if np.any(samples <= 0.0):
            raise ValueError("all table samples must be positive")
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
