import hashlib
import math
import struct

import numpy as np
import pytest
from scipy import stats

from exitwalk.specfun import BesselIndex
from exitwalk.samplers import RngStream, sample_tau_psi, sample_unit_direction
from exitwalk.bessel_hitting import MovingBoundary, SpectralSeriesCache, invert_cdf, psi
from exitwalk.walkers import (
    BatchResult,
    SphereDomain,
    StepBudgetError,
    Tau1Table,
    euler_batch,
    precompute_table,
    read_table,
    woms_batch,
    wos_batch,
    write_table,
)

DISK = SphereDomain(radius=1.0, delta=2)


def _replay_disk(x0, epsilon: float, rng: RngStream, step):
    """Iterate step(x, rng) -> (x, dt) from x0 until |x| >= 1 - epsilon.

    A one-walker reference runner for the unit disk: each test's step
    redraws the kernel's variates in the kernel's order from its own copy
    of the stream.  Returns (steps, elapsed time, exit position).
    """
    x, t, steps = np.array(x0, dtype=float), 0.0, 0
    while np.linalg.norm(x) < 1.0 - epsilon:
        x, dt = step(x, rng)
        assert np.linalg.norm(x) < 1.0
        t += dt
        steps += 1
    return steps, t, x


def _assert_replayed(res: BatchResult, replay) -> None:
    steps, t, x = replay
    assert res.steps.tolist() == [steps]
    assert steps > 0
    assert res.exit_times[0] == pytest.approx(t, rel=1e-12)
    assert res.exit_positions[0] == pytest.approx(x, rel=1e-12)


def _unit_angle(rng: RngStream) -> np.ndarray:
    w = rng.generator.random()
    return np.array([math.cos(2 * math.pi * w), math.sin(2 * math.pi * w)])


def _woms_psi_step(gamma: float):
    """A moving-sphere step built from MovingBoundary.for_step and psi."""

    def step(x, rng):
        d = 1.0 - np.linalg.norm(x)
        boundary = MovingBoundary.for_step(d, gamma, DISK.index)
        u, v = 1.0 - rng.generator.random((1, 2))[0]
        r = boundary.t_max * u * v
        disp = psi(r, boundary)
        assert disp <= gamma * d
        return x + disp * _unit_angle(rng), r

    return step


def _inscribed_step(cache=None):
    """A classical step: the direction angle, then (given a cache) one quantile."""

    def step(x, rng):
        r = 1.0 - np.linalg.norm(x)
        x = x + r * _unit_angle(rng)
        if cache is None:
            return x, 0.0
        u = float(np.clip(rng.generator.random(), 1e-300, np.nextafter(1.0, 0.0)))
        return x, r * r * invert_cdf(u, cache)

    return step


class TestSphereDomain:
    def test_distance(self):
        # a walk-on-spheres step jumps exactly the distance radius - |x| to the boundary
        dom = SphereDomain(radius=2.0, delta=2)
        x0 = np.array([0.6, 0.0])
        with pytest.raises(StepBudgetError) as err:
            wos_batch(x0, dom, 1e-5, None, RngStream(1), 50, max_steps=1)
        jumps = np.linalg.norm(err.value.state["positions"] - x0, axis=1)
        assert jumps == pytest.approx(np.full(jumps.size, 1.4), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            SphereDomain(radius=0.0, delta=2)
        with pytest.raises(ValueError):
            SphereDomain(radius=1.0, delta=1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            SphereDomain(radius=radius, delta=2)


class TestWomsStep:
    def test_displacement_is_psi_of_elapsed_increment(self):
        x0 = np.array([0.3, 0.1])
        res = woms_batch(x0, DISK, 1e-4, 0.99, RngStream(5, 1), 1)
        _assert_replayed(res, _replay_disk(x0, 1e-4, RngStream(5, 1), _woms_psi_step(0.99)))

    def test_dimension_two_reduction_replays_three_uniforms(self):
        def step(x, rng):
            u, v = 1.0 - rng.generator.random((1, 2))[0]
            d = 1.0 - np.linalg.norm(x)
            t_max = 0.9**2 * math.e / 2.0 * d * d
            r = t_max * u * v
            return x + math.sqrt(2.0 * r * math.log(t_max / r)) * _unit_angle(rng), r

        x0 = np.array([0.2, -0.4])
        res = woms_batch(x0, DISK, 1e-4, 0.9, RngStream(8, 3), 1)
        _assert_replayed(res, _replay_disk(x0, 1e-4, RngStream(8, 3), step))

    @pytest.mark.parametrize("delta", [2, 3, 5, 10])
    def test_first_step_draws_through_sample_tau_psi(self, delta):
        # the sampler that criteria 4 and 5 check is the walker's own draw, bit for bit
        x0 = np.zeros(delta)
        x0[0] = 0.3
        domain = SphereDomain(1.0, delta)
        with pytest.raises(StepBudgetError) as err:
            woms_batch(x0, domain, 1e-5, 0.99, RngStream(12, delta), 64, max_steps=1)
        rng, nu = RngStream(12, delta), domain.index.nu
        t_max = MovingBoundary.for_step(1.0 - x0[0], 0.99, domain.index).t_max
        r, z = sample_tau_psi(np.full(64, t_max), domain.index, rng)
        replay = x0 + sample_unit_direction(delta, rng, 64) * np.sqrt(2.0 * (nu + 1.0) * r * z)[:, None]
        assert np.array_equal(err.value.state["positions"], replay)

    def test_small_gamma_caps_displacement(self):
        # 200 first steps from one state, as the budget stops every walker after one
        x0 = np.array([0.5, 0.0])
        with pytest.raises(StepBudgetError) as err:
            woms_batch(x0, DISK, 1e-4, 0.01, RngStream(9), 200, max_steps=1)
        assert err.value.state["alive"].size == 200
        jumps = np.linalg.norm(err.value.state["positions"] - x0, axis=1)
        assert np.all(jumps <= 0.01 * 0.5 + 1e-15)

    def test_intermediate_positions_stay_strictly_inside(self):
        x0 = np.array([0.5, 0.0])
        full = woms_batch(x0, DISK, 1e-4, 0.99, RngStream(30), 1)
        assert np.linalg.norm(full.exit_positions[0]) < 1.0
        # one walker's draws do not depend on the budget, so each budget stops the same path
        for budget in range(1, int(full.steps[0])):
            with pytest.raises(StepBudgetError) as err:
                woms_batch(x0, DISK, 1e-4, 0.99, RngStream(30), 1, max_steps=budget)
            assert np.linalg.norm(err.value.state["positions"][0]) < 1.0


class TestWomsRun:
    def test_immediate_return_inside_shell(self):
        x0 = np.array([0.999999, 0.0])
        out = woms_batch(x0, DISK, 1e-5, 0.99, RngStream(1), 1)
        assert out.steps[0] == 0
        assert out.exit_times[0] == 0.0
        assert np.array_equal(out.exit_positions[0], x0)
        assert np.linalg.norm(out.projected_positions(1.0)[0]) == pytest.approx(1.0, abs=1e-14)

    def test_terminates_in_shell(self):
        out = woms_batch(np.array([0.5, 0.0]), DISK, 1e-4, 0.99, RngStream(2), 1)
        norm = np.linalg.norm(out.exit_positions[0])
        assert 1.0 - 1e-4 <= norm < 1.0
        assert out.steps[0] > 0
        assert out.exit_times[0] > 0.0

    def test_mean_exit_time_small_sample(self):
        times = woms_batch(np.array([0.5, 0.0]), DISK, 1e-4, 0.99, RngStream(3), 4000).exit_times
        tol = 3.0 * times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - 0.375) < tol

    def test_step_budget(self):
        x0 = np.array([0.5, 0.0])
        with pytest.raises(StepBudgetError) as err:
            woms_batch(x0, DISK, 1e-12, 0.99, RngStream(4), 1, max_steps=3)
        assert err.value.state["alive"].tolist() == [0]
        assert err.value.state["positions"].shape == (1, 2)
        assert woms_batch(x0, DISK, 1e-12, 0.99, RngStream(4), 1).steps[0] > 3

    def test_rejects_outside_start(self):
        with pytest.raises(ValueError):
            woms_batch(np.array([1.5, 0.0]), DISK, 1e-4, 0.99, RngStream(5), 1)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0, math.nan])
    def test_rejects_gamma_outside_unit_interval(self, gamma):
        # gamma = 3 let steps leave the sphere; NaN never retired a walker
        with pytest.raises(ValueError, match="gamma must lie in"):
            woms_batch(np.array([0.5, 0.0]), DISK, 1e-4, gamma, RngStream(5), 1)


class TestWomsBatch:
    def test_mean_exit_time_matches_exact(self):
        batch = woms_batch(np.array([0.5, 0.0]), DISK, 1e-4, 0.99, RngStream(6), 50_000)
        tol = 3.0 * batch.exit_times.std(ddof=1) / math.sqrt(batch.exit_times.size)
        assert abs(batch.exit_times.mean() - 0.375) < tol

    def test_exit_norms_in_shell(self):
        batch = woms_batch(np.array([0.5, 0.0]), DISK, 1e-4, 0.99, RngStream(8), 20_000)
        norms = np.linalg.norm(batch.exit_positions, axis=1)
        assert np.all(norms >= 1.0 - 1e-4)
        assert np.all(norms < 1.0)

    @pytest.mark.parametrize("delta", [3, 5])
    def test_higher_dimensions_mean_exit_time(self, delta):
        # from the center, the mean exit time of the unit sphere is 1/delta
        dom = SphereDomain(1.0, delta)
        batch = woms_batch(np.zeros(delta), dom, 1e-4, 0.99, RngStream(9, delta), 100_000)
        tol = 3.0 * batch.exit_times.std(ddof=1) / math.sqrt(batch.exit_times.size)
        assert abs(batch.exit_times.mean() - 1.0 / delta) < tol


def _digest(res: BatchResult) -> str:
    h = hashlib.sha256()
    for a in (res.exit_times, res.steps, res.exit_positions):
        h.update(a.view(np.uint8))
    return h.hexdigest()


def _start(delta: int) -> np.ndarray:
    x0 = np.zeros(delta)
    x0[0] = 0.5
    return x0


class TestFrozenBatchOutputs:
    """SHA-256 of exit_times, steps and exit_positions of fixed-seed batches.

    Captured from the gather/scatter walkers that the compacted lockstep
    loop replaced, so they pin its bit-identity.  They hold for this
    numpy build and CPU; another libm may round a log, exp or sin in the
    last bit.  delta = 10 sums its squared norms over rows of 8 or more,
    which numpy adds pairwise, not left to right.
    """

    @pytest.mark.parametrize(
        "delta, digest",
        [
            (2, "76db6ad8d94e11b2206fbae80f50a6b59683d8b771b6d17020d35d82218ce50d"),
            (3, "d841b1e13093d46b5adc76dd531b6cabdfc6295381b37efa762d5ad8bc199873"),
            (5, "b82a32d7bc21c90e8655e9e5e3be4c1403c6aa173c3ed91186728c55494c3af8"),
            (10, "34ee44ddcdae558aadd7b1d36d9b264a80b7409bfb41ab0941e8beb1ac2fe571"),
        ],
    )
    def test_woms(self, delta, digest):
        res = woms_batch(_start(delta), SphereDomain(1.0, delta), 1e-5, 0.99, RngStream(314, delta), 20_000)
        assert _digest(res) == digest

    @pytest.mark.parametrize(
        "source, delta, n, digest",
        [
            ("position_only", 2, 20000, "dd42ff7dab44fc4286db55ce465987339e9f0d8aa4968ff176fa35cc8dd2a862"),
            ("position_only", 3, 20000, "dfd7831d870549d867c0a6848ea0dfadbe15d26a69a3fc55029dda89dd1e7f05"),
            ("table", 2, 20000, "c090d15629097f4c9cc7e00af3de4e32f27e48a4c64ca919ace38eee694b3056"),
            ("table", 3, 20000, "3936ba88db63e2adcca81c2a9fa28ef1dd0a0ba2526f7699b0fc4a16f1d2439b"),
            ("inversion", 2, 5000, "5c85c533b4a9dd07ad9ba9ae24797c38fd96342e50bcec9dcff1bb644201f3f4"),
            ("inversion", 3, 5000, "d77e48a197b7dfa0e8b7af389777ff812e5d26583e6d7fe719f60317aa609575"),
        ],
    )
    def test_wos(self, source, delta, n, digest):
        dom = SphereDomain(1.0, delta)
        tau1 = {
            "position_only": None,
            "table": Tau1Table(delta=delta, samples=np.linspace(0.02, 1.5, 997), provenance="inversion"),
            "inversion": SpectralSeriesCache(dom.index),
        }[source]
        res = wos_batch(_start(delta), dom, 1e-5, tau1, RngStream(271, delta), n)
        assert _digest(res) == digest


def _batch(walk: str, x0, epsilon: float, rng: RngStream, n: int, max_steps: int = 10**6) -> BatchResult:
    dom = SphereDomain(1.0, len(x0))
    if walk == "woms":
        return woms_batch(x0, dom, epsilon, 0.99, rng, n, max_steps)
    return wos_batch(x0, dom, epsilon, None, rng, n, max_steps)


@pytest.mark.parametrize("walk", ["woms", "wos"])
class TestLockstepLoop:
    def test_start_in_shell_retires_at_once(self, walk):
        x0 = np.array([0.0, 1.0 - 1e-6, 0.0])
        res = _batch(walk, x0, 1e-5, RngStream(40), 5)
        assert res.steps.tolist() == [0] * 5
        assert res.exit_times.tolist() == [0.0] * 5
        assert np.array_equal(res.exit_positions, np.tile(x0, (5, 1)))

    def test_single_trajectory_matches_scalar_runner(self, walk):
        x0 = np.array([0.5, 0.0])
        res = _batch(walk, x0, 1e-4, RngStream(41), 1)
        assert res.exit_times.shape == res.steps.shape == (1,)
        assert res.exit_positions.shape == (1, 2)
        step = _woms_psi_step(0.99) if walk == "woms" else _inscribed_step()
        _assert_replayed(res, _replay_disk(x0, 1e-4, RngStream(41), step))

    @pytest.mark.parametrize("max_steps", [1, 2])
    def test_step_budget_reports_alive_ids_and_positions(self, walk, max_steps):
        # a wide shell retires some walkers within the budget, so the alive
        # ids are a proper subset; the full run from the same stream shows which
        x0 = np.array([0.5, 0.0])
        full = _batch(walk, x0, 0.2, RngStream(42), 400)
        with pytest.raises(StepBudgetError) as err:
            _batch(walk, x0, 0.2, RngStream(42), 400, max_steps=max_steps)
        alive, positions = err.value.state["alive"], err.value.state["positions"]
        assert 0 < alive.size < 400
        assert np.array_equal(alive, np.flatnonzero(full.steps > max_steps))
        assert positions.shape == (alive.size, 2)
        assert np.all(np.linalg.norm(positions, axis=1) < 0.8)

    @pytest.mark.parametrize("x0", [(math.nan, 0.0), (0.0, math.inf)], ids=["nan", "inf"])
    def test_rejects_non_finite_start(self, walk, x0):
        # a NaN norm is never in the shell: the walk would spin to the step budget
        with pytest.raises(ValueError, match="x0 must lie strictly inside the domain"):
            _batch(walk, np.array(x0), 1e-4, RngStream(5), 1)


class TestWosStep:
    def test_position_only_keeps_clock_at_zero(self):
        out = wos_batch(np.array([0.2, 0.2]), DISK, 1e-5, None, RngStream(10), 1)
        assert out.exit_times[0] == 0.0
        assert out.steps[0] > 0

    def test_jump_lands_on_inscribed_sphere(self):
        x0 = np.array([0.3, -0.1])
        res = wos_batch(x0, DISK, 1e-4, None, RngStream(11), 1)
        _assert_replayed(res, _replay_disk(x0, 1e-4, RngStream(11), _inscribed_step()))

    def test_inversion_increment_is_r_squared_times_tau1(self):
        x0 = np.array([0.5, 0.0])
        cache = SpectralSeriesCache(DISK.index)
        res = wos_batch(x0, DISK, 1e-4, cache, RngStream(12, 4), 1)
        replay = _replay_disk(x0, 1e-4, RngStream(12, 4), _inscribed_step(cache))
        _assert_replayed(res, replay)

    def test_table_dimension_mismatch(self):
        table = Tau1Table(delta=3, samples=np.array([0.5, 1.0]), provenance="inversion")
        with pytest.raises(ValueError, match="table dimension 3"):
            wos_batch(np.zeros(2), DISK, 1e-5, table, RngStream(1), 1)

    @pytest.mark.parametrize(
        "index, radius", [(BesselIndex(3), 1.0), (BesselIndex(2), 2.0)], ids=["dimension", "radius"]
    )
    def test_cache_mismatch(self, index, radius):
        cache = SpectralSeriesCache(index, radius=radius)
        with pytest.raises(ValueError, match="must be for the unit sphere in dimension 2"):
            wos_batch(np.zeros(2), DISK, 1e-5, cache, RngStream(1), 1)

    def test_unknown_mode(self):
        # a tau1 source of any type other than a table, a series cache or None is rejected
        with pytest.raises(ValueError, match="tau1 must be"):
            wos_batch(np.zeros(2), DISK, 1e-5, "inversion", RngStream(1), 1)


class TestWosRun:
    def test_immediate_return(self):
        x0 = np.array([0.0, 1.0 - 1e-6])
        out = wos_batch(x0, DISK, 1e-5, None, RngStream(13), 1)
        assert out.steps[0] == 0 and out.exit_times[0] == 0.0

    def test_harmonic_identity_small_sample(self):
        # f(x, y) = x^2 - y^2 is harmonic: E f(exit) = f(x0)
        batch = wos_batch(np.array([0.3, 0.4]), DISK, 1e-5, None, RngStream(14), 100_000)
        proj = batch.projected_positions(1.0)
        f = proj[:, 0] ** 2 - proj[:, 1] ** 2
        tol = 3.0 * f.std(ddof=1) / math.sqrt(f.size)
        assert abs(f.mean() - (0.3**2 - 0.4**2)) < tol

    def test_exit_time_agrees_with_woms(self):
        cache = SpectralSeriesCache(DISK.index)
        wos = wos_batch(np.array([0.5, 0.0]), DISK, 1e-4, cache, RngStream(15, 0), 50_000)
        woms = woms_batch(np.array([0.5, 0.0]), DISK, 1e-4, 0.99, RngStream(15, 1), 50_000)
        se = math.hypot(
            wos.exit_times.std(ddof=1) / math.sqrt(wos.exit_times.size),
            woms.exit_times.std(ddof=1) / math.sqrt(woms.exit_times.size),
        )
        assert abs(wos.exit_times.mean() - woms.exit_times.mean()) < 3.0 * se

    def test_inversion_mode_half_integer_dimension(self):
        # odd-dimension inversion draws exercise half-integer series orders;
        # from (0.4, 0, 0) the exact mean exit time is (1 - 0.16) / 3
        dom = SphereDomain(1.0, 3)
        cache = SpectralSeriesCache(dom.index)
        res = wos_batch(np.array([0.4, 0.0, 0.0]), dom, 1e-4, cache, RngStream(2025), 50_000)
        want = (1.0 - 0.16) / 3.0
        tol = 3.0 * res.exit_times.std(ddof=1) / math.sqrt(res.exit_times.size)
        assert abs(res.exit_times.mean() - want) < tol


class TestRotationalUniformity:
    def test_exit_angles_uniform_from_center(self):
        batch = wos_batch(np.zeros(2), DISK, 1e-5, None, RngStream(16), 100_000)
        angles = np.arctan2(batch.exit_positions[:, 1], batch.exit_positions[:, 0])
        counts, _ = np.histogram(angles, bins=36, range=(-math.pi, math.pi))
        expected = batch.exit_positions.shape[0] / 36
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, 35) > 0.001

    def test_woms_exit_angles_uniform_from_center(self):
        batch = woms_batch(np.zeros(2), DISK, 1e-5, 0.99, RngStream(17), 100_000)
        angles = np.arctan2(batch.exit_positions[:, 1], batch.exit_positions[:, 0])
        counts, _ = np.histogram(angles, bins=36, range=(-math.pi, math.pi))
        expected = batch.exit_positions.shape[0] / 36
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, 35) > 0.001


class TestEuler:
    def test_immediate_return_outside(self):
        out = euler_batch(np.array([1.2, 0.0]), DISK, 1e-3, RngStream(18), 1)
        assert out.steps[0] == 0 and out.exit_times[0] == 0.0
        assert np.linalg.norm(out.exit_positions[0]) == pytest.approx(1.0, abs=1e-14)

    def test_exit_time_is_step_multiple(self):
        out = euler_batch(np.array([0.5, 0.0]), DISK, 1e-3, RngStream(19), 1)
        assert out.steps[0] > 0
        assert out.exit_times[0] == pytest.approx(out.steps[0] * 1e-3, rel=1e-12)
        assert np.linalg.norm(out.exit_positions[0]) == pytest.approx(1.0, abs=1e-12)

    def test_overestimates_and_converges(self):
        coarse = euler_batch(np.array([0.5, 0.0]), DISK, 1e-2, RngStream(20, 0), 100_000)
        fine = euler_batch(np.array([0.5, 0.0]), DISK, 1e-4, RngStream(20, 1), 100_000)
        assert coarse.exit_times.mean() > 0.375  # discrete monitoring bias
        assert abs(fine.exit_times.mean() - 0.375) < abs(coarse.exit_times.mean() - 0.375)

    def test_batch_times_are_h_times_steps(self):
        batch = euler_batch(np.array([0.5, 0.0]), DISK, 1e-2, RngStream(21), 2000)
        assert np.allclose(batch.exit_times, 1e-2 * batch.steps)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            euler_batch(np.array([0.5, 0.0]), DISK, 0.0, RngStream(22), 1)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, h):
        # h = inf made every increment inf, and the exits NaN
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            euler_batch(np.array([0.5, 0.0]), DISK, h, RngStream(22), 1)

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError, match="x0 must be finite"):
            euler_batch(np.array([math.nan, 0.0]), DISK, 1e-3, RngStream(22), 1)

    def test_step_budget_binds_inside_a_block(self):
        # blocks are up to 1024 steps long; none may run past the budget
        with pytest.raises(StepBudgetError) as err:
            euler_batch(np.array([0.97, 0.0]), DISK, 1e-3, RngStream(1), 5, max_steps=10)
        alive = err.value.state["alive"]
        assert 0 < alive.size <= 5
        assert err.value.state["positions"].shape == (alive.size, 2)

    def test_budgeted_run_stays_within_budget(self):
        x0 = np.array([0.97, 0.0])
        # unbudgeted, one of these walkers needs 734 steps, all within the first block
        full = euler_batch(x0, DISK, 1e-3, RngStream(1), 5)
        assert 100 < full.steps.max() <= 1024
        out = euler_batch(x0, DISK, 1e-3, RngStream(1), 5, max_steps=100)
        assert out.steps.max() <= 100
        # a budget that leaves the blocks whole leaves the draws as they were
        out = euler_batch(x0, DISK, 1e-3, RngStream(1), 5, max_steps=2000)
        assert np.array_equal(out.steps, full.steps)
        assert np.array_equal(out.exit_positions, full.exit_positions)


class TestTau1Table:
    def test_round_trip_bit_exact(self, tmp_path):
        samples = RngStream(23).generator.random(1000) + 0.01
        table = Tau1Table(delta=2, samples=samples, provenance="inversion")
        path = tmp_path / "tau.bin"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.delta == 2
        assert loaded.provenance == "inversion"
        assert np.array_equal(loaded.samples, table.samples)
        write_table(loaded, tmp_path / "tau2.bin")
        assert (tmp_path / "tau.bin").read_bytes() == (tmp_path / "tau2.bin").read_bytes()

    def test_file_layout(self, tmp_path):
        samples = np.array([0.25, 1.5])
        table = Tau1Table(delta=3, samples=samples, provenance="euler")
        path = tmp_path / "tau.bin"
        write_table(table, path)
        raw = path.read_bytes()
        assert raw[:8] == b"EXWTAU01"
        version, dim = struct.unpack_from("<II", raw, 8)
        assert (version, dim) == (1, 3)
        assert raw[16] == 1  # euler provenance tag
        assert raw[17:24] == b"\x00" * 7
        (count,) = struct.unpack_from("<Q", raw, 24)
        assert count == 2
        assert np.frombuffer(raw[32:], dtype="<f8").tolist() == [0.25, 1.5]

    def test_rejects_corrupt_files(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(ValueError):
            read_table(path)
        path.write_bytes(b"EXW")
        with pytest.raises(ValueError):
            read_table(path)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            Tau1Table(delta=2, samples=np.array([0.5, 0.0]), provenance="euler")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            Tau1Table(delta=2, samples=np.array([0.5, bad]), provenance="euler")

    def test_read_rejects_nan_payload(self, tmp_path):
        path = tmp_path / "tau.bin"
        write_table(Tau1Table(delta=2, samples=np.array([0.5, 1.0]), provenance="inversion"), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + struct.pack("<d", math.nan))
        with pytest.raises(ValueError, match="finite and positive"):
            read_table(path)


class TestPrecomputeTable:
    def test_inversion_mean_is_half(self):
        table = precompute_table(100_000, 2, "inversion", RngStream(24))
        tol = 3.0 * table.samples.std(ddof=1) / math.sqrt(table.count)
        assert abs(table.samples.mean() - 0.5) < tol

    def test_euler_mean_coarse(self):
        table = precompute_table(20_000, 2, "euler", RngStream(25), h=1e-3)
        # discrete monitoring overestimates by O(sqrt(h)) ~ 0.02 here
        mean = table.samples.mean()
        assert 0.5 < mean < 0.56

    def test_table_mode_run_uses_samples(self):
        table = precompute_table(1000, 2, "inversion", RngStream(26))
        out = wos_batch(np.array([0.5, 0.0]), DISK, 1e-3, table, RngStream(27), 1)
        assert out.exit_times[0] > 0.0

    def test_bad_method(self):
        with pytest.raises(ValueError):
            precompute_table(10, 2, "exact", RngStream(28))
