import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from exitwalk.harness import (
    METHODS,
    ExperimentConfig,
    FitResult,
    _Moments,
    fit_loglinear,
    harmonic_functions,
    run_experiment,
    run_result_document,
    sweep,
    sweep_fit,
    write_csv,
    write_json,
)
from exitwalk.samplers import RngStream
from exitwalk.walkers import precompute_table, write_table

# SHA-256 of the result documents of TestResultFiles.test_frozen_documents,
# captured from the harness that mapped method names to exit-mode strings.
# Like the walker digests, they hold for this numpy build and CPU.
FROZEN_DOCUMENTS = {
    "woms": "b97c5a16a71840b590024cf9c97a7fbc06d6fc36dc1e0b3ec22e2e08450dbd49",
    "wos_inversion": "6ad5dd37bf9e6a568f0781b34ba87d6f77ec95add927ad4e4537e6e91535cd38",
    "wos_table": "bec42f16a9908f5894c811d2f04bed010ac25eaea2260eb61ee4acfa2e0b1cbd",
    "wos_position": "73c1179a2de3360b4eab252b00378bdfa669143fe3830c96a983da70d25c964c",
    "euler": "d41102e6476b5dca12f03791db1a83f201d40bec966e6a9f43eb5fbad63c3db7",
}


def small_config(**overrides):
    base = dict(
        method="woms",
        x0=(0.5, 0.0),
        radius=1.0,
        delta=2,
        epsilon=1e-4,
        gamma=0.99,
        trajectories=20_000,
        seed=7,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFitLoglinear:
    def test_exact_line(self):
        fit = fit_loglinear([(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)])
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_least_squares_arithmetic(self):
        fit = fit_loglinear([(1.0, 1.0), (2.0, 2.0), (3.0, 2.0)])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            fit_loglinear([(1.0, 1.0), (1.0, 2.0)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglinear([(1.0, 1.0)])

    @given(
        a=st.floats(min_value=-5, max_value=5),
        b=st.floats(min_value=-5, max_value=5),
    )
    def test_recovers_synthetic_affine(self, a, b):
        # slopes below float rounding leave no signal for r^2 to measure
        assume(abs(b) > 1e-6)
        xs = [0.5, 1.0, 2.0, 4.0]
        fit = fit_loglinear([(x, a + b * x) for x in xs])
        assert fit.intercept == pytest.approx(a, abs=1e-9)
        assert fit.slope == pytest.approx(b, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_points_preserved(self):
        pts = [(1.0, 2.0), (2.0, 4.0), (5.0, 9.0)]
        assert list(fit_loglinear(pts).points) == pts


class TestMoments:
    @given(st.integers(1, 500), st.integers(1, 500), st.integers(0, 2**31))
    def test_merge_matches_pooled(self, n1, n2, seed):
        gen = RngStream(seed).generator
        a = gen.random(n1)
        b = gen.random(n2) * 3.0 + 1.0
        merged = _Moments.from_array(a).merge(_Moments.from_array(b))
        pooled = np.concatenate([a, b])
        assert merged.n == pooled.size
        assert merged.mean == pytest.approx(pooled.mean(), rel=1e-12)
        if pooled.size > 1:
            assert merged.variance == pytest.approx(pooled.var(ddof=1), rel=1e-10)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(method="bogus")
        with pytest.raises(ValueError):
            small_config(x0=(1.5, 0.0))
        with pytest.raises(ValueError):
            small_config(epsilon=2.0)
        with pytest.raises(ValueError):
            small_config(trajectories=0)
        with pytest.raises(ValueError):
            small_config(x0=(0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            small_config(method="wos_table")  # no table path

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(x0=(math.nan, 0.0)), "x0 must lie strictly inside"),
            (dict(x0=(0.0, -math.inf)), "x0 must lie strictly inside"),
            (dict(h=math.inf), "h must be positive and finite"),
            (dict(h=math.nan), "h must be positive and finite"),
            (dict(radius=math.inf), "radius must be positive and finite"),
            (dict(radius=math.nan), "radius must be positive and finite"),
        ],
        ids=["x0-nan", "x0-inf", "h-inf", "h-nan", "radius-inf", "radius-nan"],
    )
    def test_rejects_non_finite(self, overrides, message):
        # a NaN start was accepted and spun to the step budget; h = inf gave NaN exits
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)

    def test_rejects_dimension_below_two(self):
        # failed only inside run_experiment before
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            small_config(delta=1, x0=(0.5,))

    def test_rejects_step_budget_below_one(self):
        # surfaced as "StepBudgetError: step budget -1 exceeded" before
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            small_config(max_steps=-1)


class TestRunExperiment:
    def test_mean_exit_time(self):
        stats = run_experiment(small_config())
        assert abs(stats.mean_time - 0.375) < 3.0 * math.sqrt(stats.var_time / stats.n) + 1e-4
        assert stats.n == 20_000
        assert stats.mean_steps > 1.0
        assert stats.wall_seconds > 0.0

    def test_single_trajectory_degenerate_stats(self):
        stats = run_experiment(small_config(trajectories=1))
        assert stats.n == 1
        assert stats.var_time == 0.0
        assert stats.ci95_time == 0.0

    def test_mean_exit_time_from_origin(self):
        stats = run_experiment(small_config(x0=(0.0, 0.0)))
        tol = 3.0 * math.sqrt(stats.var_time / stats.n) + 1e-4
        assert abs(stats.mean_time - 0.5) < tol

    def test_deterministic_given_config(self):
        a = run_experiment(small_config(trajectories=5000, workers=3))
        b = run_experiment(small_config(trajectories=5000, workers=3))
        assert a.mean_time == b.mean_time
        assert a.var_time == b.var_time
        assert a.mean_steps == b.mean_steps
        assert a.dirichlet_estimates == b.dirichlet_estimates

    def test_worker_count_changes_stream_not_distribution(self):
        a = run_experiment(small_config(trajectories=40_000, workers=1))
        b = run_experiment(small_config(trajectories=40_000, workers=8))
        se = math.hypot(
            math.sqrt(a.var_time / a.n), math.sqrt(b.var_time / b.n)
        )
        assert a.mean_time != b.mean_time  # different streams
        assert abs(a.mean_time - b.mean_time) < 3.0 * se

    def test_dirichlet_estimates_present(self):
        stats = run_experiment(small_config(x0=(0.3, 0.4)))
        est = stats.dirichlet_estimates
        assert set(est) == {"1", "x", "y", "x2-y2", "xy"}
        mean, ci = est["x2-y2"]
        assert abs(mean - (0.3**2 - 0.4**2)) < 3.0 * ci / 1.96 + 1e-3
        one_mean, one_ci = est["1"]
        assert one_mean == 1.0 and one_ci == 0.0

    def test_euler_method(self):
        stats = run_experiment(small_config(method="euler", h=1e-3, trajectories=5000))
        assert stats.mean_time > 0.3

    def test_table_method(self, tmp_path):
        table = precompute_table(50_000, 2, "inversion", RngStream(40))
        path = tmp_path / "tau.bin"
        write_table(table, path)
        stats = run_experiment(small_config(method="wos_table", table_path=str(path)))
        assert abs(stats.mean_time - 0.375) < 5e-3

    def test_ci_honesty(self):
        # known mean must land inside the reported 95% band in >= 90% of
        # small repeated experiments
        hits = 0
        reps = 200
        for i in range(reps):
            stats = run_experiment(small_config(trajectories=10_000, seed=1000 + i))
            if abs(stats.mean_time - 0.375) <= stats.ci95_time:
                hits += 1
        assert hits / reps >= 0.90


class TestHarmonicRegistry:
    def test_dimension_three_set(self):
        fns = harmonic_functions(3)
        assert set(fns) == {"1", "x0", "x1", "x2", "x0x1", "x0x2", "x1x2"}

    def test_other_dimensions_minimal(self):
        assert set(harmonic_functions(5)) == {"1"}


class TestSweeps:
    def test_step_scaling_small(self):
        base = small_config(trajectories=3000)
        rows = sweep(["woms"], base, [1e-2, 1e-3, 1e-4])
        assert len(rows) == 3
        assert sweep_fit(rows, "woms", "mean_steps").slope > 0.0
        assert [r["eps"] for r in rows] == [1e-2, 1e-3, 1e-4]
        for row in rows:
            assert row["abs_ln_eps"] == pytest.approx(abs(math.log(row["eps"])))

    def test_timing_single_point_no_fit(self):
        rows = sweep(["woms"], small_config(trajectories=2000), [1e-3])
        assert len(rows) == 1
        assert rows[0]["seconds"] > 0.0
        with pytest.raises(ValueError):
            sweep_fit(rows, "woms", "seconds")

    def test_repeats_change_only_seconds(self):
        base = small_config(trajectories=2000)
        methods, epsilons = ["woms", "wos_position"], [1e-2, 1e-3]
        once = sweep(methods, base, epsilons)
        thrice = sweep(methods, base, epsilons, repeats=3)
        assert [r["method"] for r in once] == ["woms", "woms", "wos_position", "wos_position"]
        assert all(r.pop("seconds") > 0.0 for r in once + thrice)
        assert once == thrice

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            sweep(["woms"], small_config(trajectories=10), [1e-3], repeats=0)


class TestResultFiles:
    def test_json_reproducible(self, tmp_path):
        config = small_config(trajectories=5000, workers=2)
        doc1 = run_result_document(config, run_experiment(config))
        doc2 = run_result_document(config, run_experiment(config))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, doc1)
        write_json(p2, doc2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_schema_fields(self):
        config = small_config(trajectories=1000)
        doc = run_result_document(config, run_experiment(config))
        assert doc["schema"] == "exitwalk-run-v1"
        assert doc["rng"] == "philox4x64-numpy"
        assert "build" in doc
        assert doc["config"]["seed"] == 7
        assert doc["config"]["method"] == "woms"
        assert "wall" not in json.dumps(doc)  # timing kept out of the file
        results = doc["results"]
        assert set(results) >= {"n", "mean_exit_time", "var_exit_time", "mean_steps"}

    @pytest.mark.parametrize("method", METHODS)
    def test_frozen_documents(self, tmp_path, method):
        # SHA-256 of the result document, build id dropped, for every method:
        # pins the dispatch from the harness to the walkers bit for bit
        path = tmp_path / "tau.bin"
        write_table(precompute_table(2000, 2, "inversion", RngStream(7)), path)
        config = ExperimentConfig(
            method=method, x0=(0.5, 0.0), epsilon=1e-3, trajectories=64, seed=3, workers=2,
            table_path=str(path) if method == "wos_table" else None,
        )
        doc = run_result_document(config, run_experiment(config))
        del doc["build"]
        if doc["config"]["table_path"] is not None:
            doc["config"]["table_path"] = "TABLE"
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == FROZEN_DOCUMENTS[method]

    def test_csv_seventeen_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [(1.0 / 3.0, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "0.33333333333333331,2"
