import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest

from exitwalk import cli
from exitwalk.bessel_hitting import InversionError
from exitwalk.cli import main
from exitwalk.brownian1d import level_hitting_pdf
from exitwalk.walkers import Tau1Table, read_table, write_table


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_run_writes_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = run_cli(
            "run", "--method", "woms", "--x0", "0.5,0", "--radius", "1", "--dim", "2",
            "--eps", "1e-4", "--gamma", "0.99", "--n", "5000", "--seed", "3",
            "--workers", "2", "--json", str(json_path), "--csv", str(csv_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_exit_time=" in out
        doc = json.loads(json_path.read_text())
        assert doc["config"]["trajectories"] == 5000
        assert abs(doc["results"]["mean_exit_time"] - 0.375) < 0.02
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,mean_time,var_time,ci95_time,mean_steps,var_steps"
        assert len(lines) == 2

    def test_run_reproducible_json(self, tmp_path):
        args = [
            "run", "--method", "woms", "--x0", "0.2,0.1", "--eps", "1e-3",
            "--n", "2000", "--seed", "11", "--workers", "3",
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(*args, "--json", str(p1))
        run_cli(*args, "--json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--method", "teleport", "--n", "10")


class TestErrorReporting:
    """Failures end in one `exitwalk: error:` line and exit code 1, no traceback."""

    def assert_one_line_error(self, capsys, code, fragment):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("exitwalk: error: ") and err.count("\n") == 1
        assert fragment in err and "Traceback" not in err

    def test_start_outside_domain(self, capsys):
        code = run_cli("run", "--method", "woms", "--x0", "2,0", "--n", "10")
        self.assert_one_line_error(capsys, code, "x0 must lie strictly inside the domain")

    def test_inversion_failure(self, monkeypatch, capsys):
        def fail(u, cache):
            raise InversionError("failed to bracket quantile", (0.02, 0.04))

        monkeypatch.setattr("exitwalk.walkers.invert_cdf_batch", fail)
        code = run_cli("run", "--method", "wos-inversion", "--n", "10", "--seed", "1")
        self.assert_one_line_error(capsys, code, "failed to bracket quantile")

    def test_step_budget_exceeded(self, monkeypatch, capsys):
        run = cli.run_experiment
        monkeypatch.setattr(
            cli, "run_experiment", lambda config: run(dataclasses.replace(config, max_steps=1))
        )
        code = run_cli("run", "--method", "woms", "--n", "100", "--seed", "1")
        self.assert_one_line_error(capsys, code, "step budget 1 exceeded")

    def test_bad_table_file(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a table at all, but long enough for a header")
        code = run_cli("run", "--method", "wos-table", "--n", "10", "--table", str(path))
        self.assert_one_line_error(capsys, code, "bad magic")

    def test_missing_table_file(self, tmp_path, capsys):
        path = tmp_path / "missing.bin"
        code = run_cli("run", "--method", "wos-table", "--n", "10", "--table", str(path))
        self.assert_one_line_error(capsys, code, "No such file or directory")

    def test_nan_table_sample(self, tmp_path, capsys):
        path = tmp_path / "nan.bin"
        write_table(Tau1Table(delta=2, samples=np.array([0.5, 1.0]), provenance="inversion"), path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", math.nan))
        code = run_cli("run", "--method", "wos-table", "--n", "10", "--table", str(path))
        self.assert_one_line_error(capsys, code, "all table samples must be finite and positive")

    @pytest.mark.parametrize(
        "boundary, L, beta, fragment",
        [
            ("level", "nan", "0", "level must be positive and finite"),
            ("level", "inf", "0", "level must be positive and finite"),
            ("line", "1", "nan", "slope must be >= 0 and finite"),
            ("general-demo", "nan", "0", "boundary must start finite"),
        ],
    )
    def test_non_finite_pdf1d_boundary(self, tmp_path, capsys, boundary, L, beta, fragment):
        # these wrote a CSV of NaN rows and exited 0
        out = tmp_path / "pdf.csv"
        code = run_cli(
            "pdf1d", "--boundary", boundary, "--L", L, "--beta", beta,
            "--terms", "2", "--grid", "64", "--out", str(out),
        )
        self.assert_one_line_error(capsys, code, fragment)
        assert not out.exists()


# SHA-256 of the `steps` document (build id dropped) and of its stdout for
# STEPS_FROZEN_ARGS, captured before the step-count and timing studies were
# folded into harness.sweep.
STEPS_FROZEN_ARGS = (
    "steps", "--method", "wos-position", "--eps-list", "1e-2,1e-3,1e-4",
    "--n", "3000", "--seed", "5", "--workers", "2",
)
STEPS_FROZEN_DOCUMENT = "9e2b8595223456be7fabc3f7f912dde3076625e0c30b568b53e5fd5ed90fad9a"
STEPS_FROZEN_STDOUT = "d1df6743aa01093bd45e821c5ec0fe251ed4015b37048801bf181624550a79e6"


class TestStepsCommand:
    def test_frozen_document_and_stdout(self, tmp_path, capsys):
        path = tmp_path / "steps.json"
        assert run_cli(*STEPS_FROZEN_ARGS, "--json", str(path)) == 0
        out = capsys.readouterr().out
        doc = json.loads(path.read_text())
        del doc["build"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == STEPS_FROZEN_DOCUMENT
        assert hashlib.sha256(out.encode()).hexdigest() == STEPS_FROZEN_STDOUT

    def test_step_scaling_needs_three_epsilons(self, capsys):
        code = run_cli("steps", "--method", "woms", "--eps-list", "1e-2,1e-3", "--n", "10")
        err = capsys.readouterr().err
        assert code == 1
        assert err == "exitwalk: error: need at least 3 epsilon values\n"

    def test_steps_csv_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "steps.csv"
        json_path = tmp_path / "steps.json"
        code = run_cli(
            "steps", "--method", "woms", "--eps-list", "1e-2,1e-3,1e-4",
            "--x0", "0.5,0", "--n", "2000", "--seed", "5",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "eps,abs_ln_eps,mean_steps,ci95"
        assert len(lines) == 4
        doc = json.loads(json_path.read_text())
        assert {"intercept", "slope", "r_squared"} <= set(doc["fit"])
        assert "fit:" in capsys.readouterr().out


class TestTimingCommand:
    def test_timing_csv_columns(self, tmp_path):
        csv_path = tmp_path / "timing.csv"
        code = run_cli(
            "timing", "--methods", "woms,wos-position", "--eps-list", "1e-2,1e-3",
            "--x0", "0.5,0", "--n", "1000", "--seed", "5", "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,eps,abs_ln_eps,seconds"
        assert len(lines) == 5
        assert lines[1].startswith("woms,")

    def test_document_below_three_epsilons(self, tmp_path, capsys):
        path = tmp_path / "timing.json"
        code = run_cli(
            "timing", "--methods", "woms,wos-position", "--eps-list", "1e-2,1e-3",
            "--n", "500", "--seed", "5", "--json", str(path),
        )
        assert code == 0
        assert ": seconds = " not in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert set(doc) == {"schema", "build", "rng", "config", "eps_list", "rows", "fits"}
        assert doc["schema"] == "exitwalk-timing-v1"
        assert doc["fits"] == {"woms": None, "wos-position": None}
        assert all(row.pop("seconds") > 0.0 for row in doc["rows"])
        assert doc["rows"] == [
            {"method": m, "eps": e, "abs_ln_eps": abs(math.log(e))}
            for m in ("woms", "wos-position")
            for e in (1e-2, 1e-3)
        ]

    def test_fits_from_three_epsilons(self, tmp_path, capsys):
        path = tmp_path / "timing.json"
        code = run_cli(
            "timing", "--methods", "woms,wos-position", "--eps-list", "1e-2,1e-3,1e-4",
            "--n", "500", "--seed", "5", "--json", str(path),
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,eps,abs_ln_eps,seconds"
        assert [line.split(":")[0] for line in lines[7:]] == ["woms", "wos-position"]
        fits = json.loads(path.read_text())["fits"]
        assert all(set(f) == {"intercept", "slope", "r_squared"} for f in fits.values())

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            run_cli("timing", "--methods", "warp", "--eps-list", "1e-2")

    def test_rejects_empty_method_list(self, capsys):
        # `--methods ,` ended in an IndexError traceback
        with pytest.raises(SystemExit) as exc:
            run_cli("timing", "--methods", ",", "--eps-list", "1e-2")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --methods: method list is empty" in err and "Traceback" not in err


class TestPrecomputeCommand:
    def test_precompute_then_table_run(self, tmp_path, capsys):
        table_path = tmp_path / "tau.bin"
        code = run_cli(
            "precompute", "--dim", "2", "--count", "20000", "--method", "inversion",
            "--out", str(table_path), "--seed", "9",
        )
        assert code == 0
        table = read_table(table_path)
        assert table.count == 20000
        assert table.provenance == "inversion"
        code = run_cli(
            "run", "--method", "wos-table", "--x0", "0.5,0", "--eps", "1e-4",
            "--n", "5000", "--seed", "4", "--table", str(table_path),
        )
        assert code == 0
        assert "mean_exit_time=" in capsys.readouterr().out

    def test_euler_precompute(self, tmp_path):
        table_path = tmp_path / "tau_euler.bin"
        code = run_cli(
            "precompute", "--dim", "2", "--count", "2000", "--method", "euler",
            "--h", "1e-3", "--out", str(table_path), "--seed", "9",
        )
        assert code == 0
        assert read_table(table_path).provenance == "euler"


class TestPdf1dCommand:
    @pytest.mark.parametrize("boundary", ["level", "line", "general-demo"])
    def test_columns(self, tmp_path, boundary):
        out = tmp_path / f"{boundary}.csv"
        code = run_cli(
            "pdf1d", "--boundary", boundary, "--L", "1.0", "--beta", "0.5",
            "--terms", "2", "--grid", "64", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q1,p_K"
        assert len(lines) == 65

    def test_level_matches_closed_form(self, tmp_path):
        out = tmp_path / "level.csv"
        run_cli("pdf1d", "--boundary", "level", "--L", "1.0", "--terms", "3",
                "--grid", "64", "--out", str(out))
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        t, q1, pk = rows[:, 0], rows[:, 1], rows[:, 2]
        assert np.allclose(q1, level_hitting_pdf(t, 1.0), rtol=1e-12)
        assert np.array_equal(q1, pk)  # every correction term vanishes
