import json
import sys
from pathlib import Path

import numpy as np
import pytest

import lossylqr
from lossylqr import (
    UnstableError,
    critical_probability,
    dare_solve,
    gap,
    mare_solve,
    min_samples,
    region_map,
    st_lower_bound,
)
from lossylqr import riccati
from lossylqr.cli import Emitter, _fmt, load_system, main

SPECS = Path(__file__).resolve().parent.parent / "specs"
EX1 = str(SPECS / "example1.json")
EX2 = str(SPECS / "example2.json")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGoldenRuns:
    def test_certify_example2(self, capsys):
        doc = run_json(capsys, "certify", "--spec", EX2, "--qhat", "0.1633", "--n", "300", "--beta", "0.01")
        result = doc["result"]
        assert result["q_bar"] == pytest.approx(0.4181, abs=2e-3)
        assert result["delta"] == pytest.approx(0.0940, abs=1e-4)
        assert result["passed"] is True

    def test_threshold_fixed_point(self, capsys):
        doc = run_json(capsys, "threshold", "--spec", EX1, "--variant", "scalar", "--fixed-point")
        assert doc["result"]["safe_q"] == pytest.approx(0.231, abs=2e-3)

    def test_solve_example1(self, capsys):
        doc = run_json(capsys, "solve", "--spec", EX1, "--q", "0.2")
        assert doc["result"]["P"][0][0] == pytest.approx(4.49537, abs=5e-6)
        assert doc["result"]["residual"] <= 1e-10

    def test_qc_example2(self, capsys):
        doc = run_json(capsys, "qc", "--spec", EX2)
        assert doc["result"]["exact"] == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert doc["result"]["method"] == "invertible_B"

    def test_synth_example1(self, capsys):
        doc = run_json(capsys, "synth", "--spec", EX1, "--qhat", "0")
        assert doc["result"]["K"][0][0] == pytest.approx(-1.08680, abs=5e-6)

    def test_check_exact(self, capsys):
        doc = run_json(capsys, "check", "--spec", EX1, "--q", "0.4", "--qhat", "0", "--criterion", "exact")
        assert doc["result"]["certificate"] == pytest.approx(1.00244, abs=1e-4)
        assert doc["result"]["stable"] is False

    def test_check_sufficient(self, capsys):
        doc = run_json(capsys, "check", "--spec", EX2, "--q", "0.2", "--qhat", "0.1633", "--criterion", "sufficient")
        assert doc["result"]["criterion"] == "lyapunov_sufficient"
        assert doc["result"]["stable"] is True

    def test_solve_dare(self, capsys):
        doc = run_json(capsys, "solve", "--spec", EX1, "--dare")
        assert doc["result"]["P"][0][0] == pytest.approx(2.63020, abs=5e-6)

    def test_samples_hoeffding(self, capsys):
        doc = run_json(capsys, "samples", "--n", "300", "--beta", "0.01")
        assert doc["result"]["delta"] == pytest.approx(0.09397, abs=5e-6)

    def test_samples_complexity(self, capsys):
        doc = run_json(capsys, "samples", "--spec", EX1, "--q", "0.2", "--beta", "0.1", "--variant", "scalar")
        assert doc["result"]["min_N"] == 43

    def test_gap_point(self, capsys):
        doc = run_json(capsys, "gap", "--spec", EX1, "--q", "0.2", "--qhat", "0", "--x0", "1")
        assert doc["result"]["gap"] == pytest.approx(0.20915, abs=1e-4)
        assert doc["result"]["upper_bound"] >= doc["result"]["gap"]


class TestJsonRoundTrip:
    def test_reparse_reproduces_values(self, capsys):
        code, out, _ = run(capsys, "certify", "--spec", EX2, "--qhat", "0.1633", "--n", "300")
        assert code == 0
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


class TestCsvOutputs:
    def test_regions_format(self, capsys):
        code, out, _ = run(capsys, "regions", "--spec", EX1, "--step", "0.01", "--variant", "general")
        assert code == 0
        lines = out.strip().splitlines()
        manifest = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any("command: regions" in l for l in manifest)
        assert body[0] == "q,q_hat,class"
        classes = {row.split(",")[2] for row in body[1:]}
        assert classes <= {"blue_stabilizing", "red_unstable", "gray_undecided"}
        assert "blue_stabilizing" in classes and "red_unstable" in classes
        # every data row has exactly three fields
        assert all(len(row.split(",")) == 3 for row in body[1:])

    def test_gap_curve_flags_unstable(self, capsys):
        code, out, _ = run(capsys, "gap", "--spec", EX1, "--q", "0.4", "--x0", "1", "--curve", "--step", "0.01")
        assert code == 0
        body = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert body[0] == "q_hat,gap,stable"
        assert any(",unstable,0" in row for row in body[1:])
        assert any(row.endswith(",1") for row in body[1:])

    def test_trajectory_output(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--spec", EX2, "--q", "0.2", "--qhat", "0.1633",
            "--x0", "0.9325,1.1616", "--horizon", "10", "--traj", "1", "--seed", "4",
        )
        assert code == 0
        body = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert body[0] == "t,x1,x2,lambda"
        assert len(body) == 12  # header + states 0..10

    def test_decay_of_divergent_loop_is_unstable(self, capsys):
        # All 100 trajectories pass DIVERGENCE_NORM by step 1367; the zeroed
        # states must not read as a decaying mean square.
        doc = run_json(
            capsys, "simulate", "--spec", EX1, "--q", "0.9", "--qhat", "0", "--x0", "1",
            "--mode", "decay", "--traj", "100", "--horizon", "3000",
        )
        assert doc["result"]["stable"] is False
        assert doc["result"]["slope"] == float("inf")

    def test_complexity_curve(self, capsys):
        code, out, _ = run(
            capsys, "complexity-curve", "--spec", EX1, "--variant", "scalar",
            "--beta", "0.1", "--step", "0.05",
        )
        assert code == 0
        body = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert body[0] == "q,bound,min_N"
        rows = [row.split(",") for row in body[1:]]
        # complexity grows toward the critical rate
        assert float(rows[-1][1]) > float(rows[0][1])

    def test_gnuplot_script(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "threshold", "--spec", EX1, "--variant", "general", "--curve",
            "--step", "0.05", "--out", str(out_csv), "--gnuplot",
        )
        assert code == 0
        assert out_csv.exists()
        script = Path(str(out_csv) + ".gp").read_text()
        assert str(out_csv) in script


class TestRegionsCsv:
    @pytest.mark.parametrize(
        "spec, variant", [(EX1, "general"), (EX2, "invertible_B")], ids=["example1-general", "example2-invertible_B"]
    )
    def test_rows_equal_per_row_formatting(self, capsys, spec, variant):
        code, out, err = run(capsys, "regions", "--spec", spec, "--step", "0.01", "--variant", variant)
        assert code == 0, err
        rm = region_map(load_system(spec), step=0.01, sufficient_variant=variant)
        manifest = [
            "# command: regions",
            f"# arguments: regions --spec {spec} --step 0.01 --variant {variant}",
            "# seed: 0",
            f"# version: {lossylqr.__version__}",
            *(f"# cells_{label}: {count}" for label, count in rm.counts().items()),
        ]
        body = ["q,q_hat,class", *(",".join(_fmt(v) for v in row) for row in rm.rows())]
        lines = out.splitlines()
        assert lines[len(manifest)].startswith("# wall_time_s: ")
        assert lines[: len(manifest)] == manifest
        assert lines[len(manifest) + 1 :] == body
        assert out.endswith("\n")


class TestThresholdCurve:
    @pytest.mark.parametrize(
        "spec, variant", [(EX2, "general"), (EX1, "scalar")], ids=["example2-general", "example1-scalar"]
    )
    def test_rows_equal_pointwise_bounds(self, capsys, monkeypatch, spec, variant):
        captured = []
        emit_csv = Emitter.emit_csv

        def capture(self, columns, rows, plot=None):
            captured.extend(rows)
            return emit_csv(self, columns, rows, plot)

        monkeypatch.setattr(Emitter, "emit_csv", capture)
        code, _, err = run(capsys, "threshold", "--spec", spec, "--variant", variant, "--curve", "--step", "0.02")
        assert code == 0, err
        sys_spec = load_system(spec)
        assert len(captured) > 10
        for q, bound in captured:
            assert bound == st_lower_bound(sys_spec, q, variant).bound

    def test_upper_end_clamped_at_qc_for_schur_stable_plant(self, capsys, monkeypatch, tmp_path):
        # q_c = 1: without the clamp the grid would reach the invalid rate 1.
        spec = tmp_path / "schur.json"
        spec.write_text(json.dumps({"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}))
        captured = capture_rows(monkeypatch)
        code, _, err = run(capsys, "threshold", "--spec", str(spec), "--variant", "general", "--curve", "--q-max", "1.5")
        assert code == 0, err
        assert len(captured) == 200 and captured[-1][0] == 0.995

    def test_upper_end_above_qc_keeps_rows_below_qc(self, capsys, monkeypatch):
        captured = capture_rows(monkeypatch)
        code, _, err = run(capsys, "threshold", "--spec", EX1, "--variant", "general", "--curve", "--q-max", "1.5")
        assert code == 0, err
        assert len(captured) == 89

    def test_negative_lower_end_is_usage_error(self, capsys):
        code, _, err = run(capsys, "complexity-curve", "--spec", EX1, "--variant", "general", "--q-min", "-0.1")
        assert code == 1
        assert "got -0.1" in err


def capture_rows(monkeypatch) -> list:
    """Collect the rows every CSV emission receives."""
    captured = []
    emit_csv = Emitter.emit_csv

    def capture(self, columns, rows, plot=None):
        rows = list(rows)
        captured.extend(rows)
        return emit_csv(self, columns, rows, plot)

    monkeypatch.setattr(Emitter, "emit_csv", capture)
    return captured


def count_calls(monkeypatch, func) -> list:
    """Replace func in every lossylqr module that binds it by a wrapper that records its calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "lossylqr" or name.startswith("lossylqr."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestGapCurve:
    def test_rows_equal_pointwise_gap_with_one_true_rate_solve(self, capsys, monkeypatch):
        captured = capture_rows(monkeypatch)
        solves = count_calls(monkeypatch, mare_solve)
        grid_solves = count_calls(monkeypatch, riccati._mare_solve_rates)
        code, _, err = run(capsys, "gap", "--spec", EX2, "--q", "0.2", "--x0", "5,5", "--curve")
        assert code == 0, err
        assert len(captured) == 89
        assert [args[1] for args in solves] == [0.2]
        assert len(grid_solves) == 1 and len(grid_solves[0][1]) == len(captured)
        monkeypatch.undo()
        sys_spec = load_system(EX2)
        for q_hat, value, stable in captured:
            try:
                assert (value, stable) == (gap(sys_spec, 0.2, q_hat, np.array([5.0, 5.0])).gap, 1)
            except UnstableError:
                assert (value, stable) == ("unstable", 0)

    @pytest.mark.parametrize(
        "spec, x0, last",
        [("qc_at_lower", "1,1,1", 0.57), ("plant3", "1,1,1", 0.59), ("example1", "1", 0.44)],
    )
    def test_grid_ends_below_the_refined_qc(self, capsys, monkeypatch, spec, x0, last):
        # qc_at_lower's q_c = 0.5739 is the lower end of its bracket [0.5739, 0.6944].
        captured = capture_rows(monkeypatch)
        spec = str(SPECS / f"{spec}.json")
        code, _, err = run(capsys, "gap", "--spec", spec, "--q", "0.1", "--x0", x0, "--curve", "--step", "0.01")
        assert code == 0, err
        assert [row[0] for row in captured] == np.arange(0.0, last + 0.005, 0.01).tolist()


class TestComplexityCurve:
    @pytest.mark.parametrize(
        "spec, variant, q_min",
        [(EX2, "general", 0.0), (EX1, "scalar", 0.0), (EX2, "general", 0.0123)],
        ids=["example2-general", "example1-scalar", "example2-general-q_min"],
    )
    def test_rows_equal_pointwise_min_samples(self, capsys, monkeypatch, spec, variant, q_min):
        captured = capture_rows(monkeypatch)
        code, _, err = run(
            capsys, "complexity-curve", "--spec", spec, "--variant", variant,
            "--q-min", str(q_min), "--step", "0.02",
        )
        assert code == 0, err
        sys_spec = load_system(spec)
        expected = []
        for q in np.arange(q_min, critical_probability(sys_spec, refine=False).upper, 0.02):
            report = min_samples(sys_spec, float(q), 0.1, variant)
            if not report.infinite:
                expected.append((float(q), report.bound, report.min_N))
        assert len(expected) > 10
        assert captured == expected

    @pytest.mark.parametrize("q_min", ["0", "0.01"])
    def test_one_standard_solution_and_one_qc_per_curve(self, capsys, monkeypatch, q_min):
        dare_calls = count_calls(monkeypatch, dare_solve)
        qc_calls = count_calls(monkeypatch, critical_probability)
        code, out, err = run(
            capsys, "complexity-curve", "--spec", EX2, "--variant", "general",
            "--q-min", q_min, "--step", "0.005",
        )
        assert code == 0, err
        assert len([l for l in out.splitlines() if not l.startswith("#")]) > 80
        assert len(dare_calls) <= 1
        assert len(qc_calls) == 1

    def test_invalid_beta_is_usage_error_without_feasible_rows(self, capsys):
        code, _, err = run(
            capsys, "complexity-curve", "--spec", EX2, "--variant", "general", "--q-min", "0.5", "--beta", "2",
        )
        assert code == 1
        assert "beta" in err


class TestExitCodes:
    def test_out_of_range_rate_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--spec", EX1, "--q", "0.5")
        assert code == 1
        assert "critical" in err

    def test_malformed_spec_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[1.5]],\n "B": oops}')
        code, _, err = run(capsys, "solve", "--spec", str(bad), "--q", "0.1")
        assert code == 1
        assert "line 2" in err and "column" in err

    def test_missing_keys(self, capsys, tmp_path):
        bad = tmp_path / "partial.json"
        bad.write_text('{"A": [[1.5]], "B": [[1.0]]}')
        code, _, err = run(capsys, "solve", "--spec", str(bad), "--q", "0.1")
        assert code == 1
        assert "Q" in err and "R" in err

    def test_unstable_gap_is_exit_two(self, capsys):
        code, _, err = run(capsys, "gap", "--spec", EX1, "--q", "0.4", "--qhat", "0", "--x0", "1")
        assert code == 2
        assert "stable" in err

    def test_non_finite_initial_state_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gap", "--spec", EX2, "--q", "0.2", "--qhat", "0.1633", "--x0", "nan,1")
        assert code == 1
        assert "non-finite" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--spec", EX1, "--nope")
        assert code == 1

    def test_success_is_zero(self, capsys):
        code, _, _ = run(capsys, "qc", "--spec", EX1)
        assert code == 0

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "qc.json"
        code, _, err = run(capsys, "qc", "--spec", EX1, "--out", str(out))
        assert code == 1
        assert f"error: cannot write {out}" in err and "Traceback" not in err

    def test_unwritable_gnuplot_script_is_usage_error(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        Path(str(out_csv) + ".gp").mkdir()
        code, _, err = run(
            capsys, "threshold", "--spec", EX1, "--variant", "general", "--curve",
            "--step", "0.05", "--out", str(out_csv), "--gnuplot",
        )
        assert code == 1
        assert f"error: cannot write {out_csv}.gp" in err and "Traceback" not in err


class TestSeedResolution:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LOSSYLQR_SEED", "7")
        doc = run_json(
            capsys, "simulate", "--spec", EX1, "--q", "0.2", "--qhat", "0",
            "--x0", "1", "--mode", "cost", "--horizon", "20", "--traj", "10",
        )
        assert doc["manifest"]["seed"] == 7
        assert doc["result"]["seed"] == 7

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOSSYLQR_SEED", "7")
        doc = run_json(
            capsys, "simulate", "--spec", EX1, "--q", "0.2", "--qhat", "0",
            "--x0", "1", "--mode", "cost", "--horizon", "20", "--traj", "10", "--seed", "3",
        )
        assert doc["manifest"]["seed"] == 3

    def test_default_seed_zero(self, capsys):
        doc = run_json(capsys, "qc", "--spec", EX1)
        assert doc["manifest"]["seed"] == 0

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LOSSYLQR_SEED", "not-a-number")
        code, _, err = run(capsys, "qc", "--spec", EX1)
        assert code == 1
        assert "LOSSYLQR_SEED" in err


RICCATI_KEYS = ["P", "q_used", "iterations", "residual"]
CHECK_KEYS = ["criterion", "certificate", "stable", "margin_note"]


class TestResultSchema:
    """JSON results list the fields of the library's result types, in declaration order."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            pytest.param(["solve", "--spec", EX1, "--q", "0.2"], RICCATI_KEYS, id="solve"),
            pytest.param(["solve", "--spec", EX2, "--dare"], RICCATI_KEYS, id="solve-dare"),
            pytest.param(
                ["qc", "--spec", EX2], ["lower", "upper", "exact", "method", "unstable_moduli"], id="qc"
            ),
            pytest.param(["synth", "--spec", EX2, "--qhat", "0.1633"], ["K", "q_design", "riccati"], id="synth"),
            *(
                pytest.param(
                    ["check", "--spec", EX1, "--q", "0.2", "--qhat", "0.1", "--criterion", criterion],
                    CHECK_KEYS,
                    id=f"check-{criterion}",
                )
                for criterion in ("scalar", "sufficient", "exact")
            ),
            pytest.param(
                ["threshold", "--spec", EX2, "--variant", "general", "--q", "0.2"],
                ["variant", "bound", "constituents"],
                id="threshold-q",
            ),
            pytest.param(
                ["certify", "--spec", EX2, "--qhat", "0.1633", "--n", "300"],
                ["q_hat", "N_q", "beta", "delta", "q_bar", "passed"],
                id="certify",
            ),
        ],
    )
    def test_result_keys(self, capsys, argv, keys):
        assert list(run_json(capsys, *argv)["result"]) == keys

    def test_synth_riccati_keyed_like_solve(self, capsys):
        result = run_json(capsys, "synth", "--spec", EX1, "--qhat", "0.1")["result"]
        assert list(result["riccati"]) == RICCATI_KEYS
        assert result["riccati"] == run_json(capsys, "solve", "--spec", EX1, "--q", "0.1")["result"]


class TestUsageErrors:
    def test_samples_complexity_without_spec(self, capsys):
        code, out, err = run(capsys, "samples", "--q", "0.1")
        assert code == 1
        assert "--spec" in err
        assert out == ""

    @pytest.mark.parametrize("step", ["0", "-0.01", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "--spec", EX1, "--variant", "general", "--curve"],
            ["complexity-curve", "--spec", EX1, "--variant", "general"],
            ["gap", "--spec", EX1, "--q", "0.2", "--x0", "1", "--curve"],
        ],
        ids=["threshold-curve", "complexity-curve", "gap-curve"],
    )
    def test_non_positive_step(self, capsys, argv, step):
        code, out, err = run(capsys, *argv, "--step", step)
        assert code == 1
        assert "step" in err
        assert out == ""
