"""CLI behavior: exit codes, formats, schema, file handling."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from delaymargin import verification
from delaymargin.cli import (
    EXIT_INPUT,
    EXIT_NO_FEASIBLE,
    EXIT_OK,
    main,
)
from delaymargin.projection import derivative_moment_map, weighted_moment_map
from delaymargin.sdp import STOP_REASONS
from delaymargin.search import STEPS
from delaymargin.systems import (
    SystemFileError,
    bundled_system,
    bundled_system_path,
    load_system,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# System files.
# ---------------------------------------------------------------------------


def test_bundled_systems_load():
    for name in ("example1", "example2", "example3"):
        sys_, meta = bundled_system(name)
        assert sys_.n_x == 2
        assert "analytical_bounds" in meta


def test_roundtrip_value_identical(tmp_path):
    # the bundled file's JSON text, re-written elsewhere, loads to the same
    # system and metadata
    sys_, meta = bundled_system("example2")
    doc = json.loads(bundled_system_path("example2").read_text())
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(doc))
    sys2, meta2 = load_system(path)
    assert np.array_equal(sys_.a, sys2.a)
    assert np.array_equal(sys_.a_d1, sys2.a_d1)
    assert np.array_equal(sys_.a_d2, sys2.a_d2)
    assert sys_.name == sys2.name
    assert meta2 == meta


def test_missing_distributed_matrix_defaults_to_zero(tmp_path):
    path = tmp_path / "nod2.json"
    path.write_text(json.dumps({"n_x": 1, "A": [[-1.0]], "A_d1": [[0.5]]}))
    sys_, _ = load_system(path)
    assert np.array_equal(sys_.a_d2, np.zeros((1, 1)))


@pytest.mark.parametrize(
    "doc",
    [
        {"n_x": 2, "A": [[1, 0], [0, 1]]},  # missing A_d1
        {"n_x": 2, "A": [[1, 0]], "A_d1": [[1, 0], [0, 1]]},  # bad shape
        {"n_x": 0, "A": [], "A_d1": []},
        {"n_x": 2, "A": [[1, "x"], [0, 1]], "A_d1": [[1, 0], [0, 1]]},
        {"n_x": 2.5, "A": [[1, 0], [0, 1]], "A_d1": [[1, 0], [0, 1]]},  # not an integer
        {"n_x": True, "A": [[-1.0]], "A_d1": [[0.5]]},  # a bool, not 1
    ],
)
def test_malformed_documents_rejected(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemFileError):
        load_system(path)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{"n_x": 2,\n  "A": [[1, 0], [0, 1]\n}')
    with pytest.raises(SystemFileError) as ei:
        load_system(path)
    assert "line" in str(ei.value)


# ---------------------------------------------------------------------------
# bounds command.
# ---------------------------------------------------------------------------


def test_bounds_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--system", "example1", "--M", "1", "--m", "1",
        "--tol", "1e-4",
    )
    assert code == EXIT_OK
    assert "tau_upper       6.059" in out
    assert "crossings       - 6.17258" in out


def test_bounds_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--system", str(bundled_system_path("example1")),
        "--M", "1", "--m", "1", "--tol", "1e-4", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 7
    assert doc["direction"] == "upper"
    assert doc["tau_upper"] == pytest.approx(6.05932, abs=1e-2)
    assert doc["nodv"] == 22
    # the window the bound was found in: open at zero, up to the crossing
    lower, upper = doc["crossings"]
    assert lower is None and upper == pytest.approx(6.172581, abs=1e-6)
    assert doc["tau_upper"] < upper
    assert all({"tau", "status", "margin"} <= set(p) for p in doc["probes"])
    assert all(p["iterations"] >= 1 and p["margin_error"] >= 0 for p in doc["probes"])
    assert all(p["stop_reason"] in STOP_REASONS for p in doc["probes"])
    assert all(p["verified"] is True for p in doc["probes"] if p["status"] == "feasible")
    for p in doc["probes"]:
        for key in ("assemble_s", "solve_s", "verify_s"):
            assert math.isfinite(p[key]) and p[key] >= 0.0
        assert p["step"] in STEPS
        for key in ("gap", "primal", "dual"):
            assert math.isfinite(p[key]) and p[key] >= 0.0
        # a margin slope on exactly the verified feasible probes
        assert (p["slope"] is not None) == (p["verified"] is True)
    # the margin falls to zero at the bound
    (bound,) = [p for p in doc["probes"] if p["tau"] == doc["tau_upper"]]
    assert math.isfinite(bound["slope"]) and bound["slope"] < 0
    assert doc["range_probe"] is None


def test_bounds_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--system", "example1", "--M", "1", "--m", "1",
        "--tol", "1e-4", "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["tau_upper"]) == pytest.approx(6.05932, abs=1e-2)


@pytest.mark.parametrize("direction,certified", [("upper", ""), ("interval", "true")])
def test_bounds_csv_reports_range_certification(capsys, direction, certified):
    code, out, _ = run_cli(
        capsys, "bounds", "--system", "example1", "--M", "1", "--m", "1",
        "--tol", "1e-3", "--direction", direction, "--format", "csv",
    )
    assert code == EXIT_OK
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["range_certified"] == certified


def test_bounds_interval_direction(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--system", "example3", "--M", "1", "--m", "1",
        "--tol", "1e-3", "--direction", "interval", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tau_lower"] == pytest.approx(0.10055, abs=1e-2)
    assert doc["tau_upper"] == pytest.approx(1.5405, abs=1e-2)
    assert doc["range_certified"] is not None
    lower, upper = doc["crossings"]
    assert lower < doc["tau_lower"] < doc["tau_upper"] < upper
    # the delay-range solve has its own record, not a probe of the memo
    range_probe = doc["range_probe"]
    assert set(range_probe) == {"status", "iterations", "margin", "stop_reason", "solve_s"}
    assert range_probe["iterations"] >= 1 and range_probe["solve_s"] > 0
    assert range_probe["stop_reason"] in STOP_REASONS
    if doc["range_certified"]:
        assert range_probe["status"] == "feasible"


def test_bounds_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bounds", "--system", "missing.json")
    assert code == EXIT_INPUT and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "bounds", "--system", str(bad))
    assert code == EXIT_INPUT and "line" in err
    code, _, err = run_cli(capsys, "bounds", "--system", "example1", "--M", "0")
    assert code == EXIT_INPUT
    for tol in ("0", "nan", "inf"):
        code, _, err = run_cli(capsys, "bounds", "--system", "example1", "--tol", tol)
        assert code == EXIT_INPUT and "tolerance must be positive" in err


@pytest.mark.parametrize("a,a_d1,message", [
    (-1e160, -2e160, "error: the crossing polynomial overflows"),
    (-1.5e308, -1.5e308, "error: the system overflows"),  # A + A_d1 = -inf
])
def test_bounds_overflowing_system_is_input_error(capsys, tmp_path, a, a_d1, message):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_x": 1, "A": [[a]], "A_d1": [[a_d1]]}))
    code, _, err = run_cli(capsys, "bounds", "--system", str(path))
    assert code == EXIT_INPUT
    assert err.startswith(message) and "Traceback" not in err


def test_sweep_overflowing_system_is_input_error(capsys, tmp_path):
    # one input error before any cell, not the same error in every cell
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_x": 1, "A": [[-1e160]], "A_d1": [[-2e160]]}))
    code, out, err = run_cli(capsys, "sweep", "--system", str(path), "--M", "2", "--m", "1")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: the crossing polynomial overflows") and "Traceback" not in err


def test_bounds_no_feasible_point(capsys, tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"n_x": 1, "A": [[1.0]], "A_d1": [[0.0]]}))
    code, _, err = run_cli(capsys, "bounds", "--system", str(path), "--tol", "1e-3")
    assert code == EXIT_NO_FEASIBLE
    assert "no feasible delay" in err


def test_usage_error_is_input_error(capsys):
    assert main(["bounds"]) == EXIT_INPUT  # missing --system
    assert main(["bounds", "--system", "example1", "--seed", "1"]) == EXIT_INPUT
    capsys.readouterr()


def test_inconclusive_dominated_run_exits_3(capsys, monkeypatch):
    import delaymargin.cli as cli_mod
    from delaymargin.search import DelayBoundsReport, ProbeRecord

    def fake_max_delay(system, params, tol):
        report = DelayBoundsReport("fake", params.big_m, params.m, "upper")
        report.tau_upper = 1.0
        report.probes = [
            ProbeRecord(0.5, "feasible", 1.0, True),
            ProbeRecord(1.5, "numerically-inconclusive", 0.0),
            ProbeRecord(2.0, "numerically-inconclusive", 0.0),
        ]
        return 1.0, report

    monkeypatch.setattr(cli_mod, "max_delay", fake_max_delay)
    code, out, err = run_cli(capsys, "bounds", "--system", "example1")
    assert code == 3
    assert "inconclusive" in err


# ---------------------------------------------------------------------------
# sweep command.
# ---------------------------------------------------------------------------


def test_sweep_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--system", "example1", "--M", "1", "--m", "1",
        "--tol", "1e-3",
    )
    assert code == EXIT_OK
    assert "monotonicity violations: none" in out


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--system", "example1", "--M", "2", "--m", "1",
        "--tol", "1e-3", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 7
    taus = {(c["M"], c["m"]): c["tau_upper"] for c in doc["cells"]}
    assert taus[(1, 1)] == pytest.approx(6.05932, abs=1e-2)
    assert taus[(2, 1)] == pytest.approx(6.16893, abs=1e-2)
    assert doc["violations"] == []


def test_sweep_csv_reports_failed_cells(capsys, monkeypatch):
    import delaymargin.search as search_mod

    real_max_delay = search_mod.max_delay

    def failing_at_2_1(sys, params, tol):
        if (params.big_m, params.m) == (2, 1):
            raise search_mod.NoFeasiblePointError("no feasible delay (test)")
        return real_max_delay(sys, params, tol)

    monkeypatch.setattr(search_mod, "max_delay", failing_at_2_1)
    code, out, err = run_cli(
        capsys, "sweep", "--system", "example1", "--M", "2", "--m", "1",
        "--tol", "1e-3", "--format", "csv",
    )
    # the report still lists every cell, but the run failed
    assert code == EXIT_NO_FEASIBLE
    assert "error: 1 of 2 sweep cells failed" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["M"], r["m"]) for r in rows] == [("1", "1"), ("2", "1")]
    assert rows[0]["error"] == "" and float(rows[0]["tau_upper"]) > 6.0
    assert rows[1]["error"] == "no feasible delay (test)"
    assert all(rows[1][key] == "" for key in ("tau_upper", "nodv", "probes", "wall_time_s"))


def test_sweep_failed_cells_take_precedence_over_violations(capsys, monkeypatch):
    import delaymargin.search as search_mod

    def fake_max_delay(sys, params, tol):
        if (params.big_m, params.m) == (2, 1):
            raise search_mod.BracketError("no upper crossing (test)")
        report = search_mod.DelayBoundsReport("fake", params.big_m, params.m, "upper")
        report.tau_upper = 2.0 / params.m  # falls with m: a violation
        return report.tau_upper, report

    monkeypatch.setattr(search_mod, "max_delay", fake_max_delay)
    code, out, err = run_cli(capsys, "sweep", "--system", "example1", "--M", "2", "--m", "2")
    assert code == EXIT_NO_FEASIBLE
    assert "error: 1 of 4 sweep cells failed" in err
    assert "(M=2, m=1) failed: no upper crossing (test)" in out
    assert "m: (M=1, m=1) tau=2.00000 -> (M=1, m=2) tau=1.00000" in out


@pytest.mark.parametrize("m", ["0", "-1"])
def test_sweep_rejects_weight_depth_below_one(capsys, m):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "example1", "--M", "1", "--m", m,
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# verify command (including fault injection at the suite level).
# ---------------------------------------------------------------------------


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--cases", "40")
    assert code == EXIT_OK
    assert "0 failures" in out


def test_verify_reports_corrupted_projection(monkeypatch):
    def corrupted(m, nu, big_m):
        real = weighted_moment_map(m, nu, big_m)
        if (m, nu, big_m) == (1, 1, 3):
            rows = [list(r) for r in real.entries]
            rows[0][0] += 1  # poison one entry
            return type(real)(tuple(tuple(r) for r in rows))
        return real

    monkeypatch.setattr(verification, "weighted_moment_map", corrupted)
    report = verification.check_projection_reconstruction(
        max_m=2, max_nu=2, max_big_m=4
    )
    assert not report.ok
    assert any("(m=1, nu=1, M=3)" in f for f in report.failures)


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_verify_reports_each_corrupted_derivative_map_column(monkeypatch, column):
    # columns 0 and 1 are the boundary values q(1) and -q(0), 2.. the
    # Legendre coordinates of -q'
    def corrupted(m, nu, big_m):
        real = derivative_moment_map(m, nu, big_m)
        if (m, nu, big_m) == (1, 1, 3):
            rows = [list(r) for r in real.entries]
            rows[1][column] += Fraction(1, 3)
            return type(real)(tuple(tuple(r) for r in rows))
        return real

    monkeypatch.setattr(verification, "derivative_moment_map", corrupted)
    report = verification.check_projection_reconstruction(
        max_m=2, max_nu=2, max_big_m=4
    )
    assert report.failures == [
        "derivative-map reconstruction broken at (m=1, nu=1, M=3), row 1"
    ]


def test_verify_fails_nan_bounds(monkeypatch):
    # a NaN bound fails every check that reads it, at unchanged check counts
    def nan(*args, **kwargs):
        return float("nan")

    monkeypatch.setattr(verification, "lower_bound_values", nan)
    monkeypatch.setattr(verification, "lower_bound_derivative", nan)
    soundness = verification.check_bound_soundness(cases=20)
    assert (soundness.checks_run, len(soundness.failures)) == (152, 152)
    dominance = verification.check_competitor_dominance(cases=20)
    assert (dominance.checks_run, len(dominance.failures)) == (20, 20)
    assert all(f.startswith("dominance broken") for f in dominance.failures)


def test_verify_exit_nonzero_on_failure(capsys, monkeypatch):
    import delaymargin.cli as cli_mod
    from delaymargin.verification import VerificationReport

    def fake_run_all(**kwargs):
        rep = VerificationReport(seed=0, checks_run=1)
        rep.failures.append("synthetic failure at (m=0, nu=0, M=1)")
        return rep

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    code, out, _ = run_cli(capsys, "verify")
    assert code != EXIT_OK
    assert "synthetic failure" in out


@pytest.mark.parametrize("cases,dominance_cases", [(4, 50), (120, 60)])
def test_run_all_sizes_dominance_from_soundness_cases(cases, dominance_cases):
    # the dominance suite runs half the soundness cases, at least 50
    seed = 3
    parts = (
        verification.check_polynomial_identities(max_m=4, max_n=6),
        verification.check_projection_reconstruction(max_m=1, max_nu=2, max_big_m=2),
        verification.check_bound_soundness(seed=seed, cases=cases),
        verification.check_competitor_dominance(seed=seed, cases=dominance_cases),
    )
    report = verification.run_all(seed=seed, max_m=1, max_big_m=2, cases=cases)
    assert report.checks_run == sum(part.checks_run for part in parts)
    assert report.ok


# ---------------------------------------------------------------------------
# crosscheck command.
# ---------------------------------------------------------------------------


def test_crosscheck_clean(capsys):
    # --max-m 3 is the deepest weight that --max-M 4 reaches (nu = 0)
    code, out, _ = run_cli(capsys, "crosscheck", "--max-m", "3", "--max-M", "4")
    assert code == EXIT_OK
    assert "clean" in out
    assert "note:" in out  # index corrections are surfaced


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--seed", "-1"),
        ("verify", "--cases", "0"),
        ("verify", "--max-m", "-1"),
        ("verify", "--max-M", "0"),
        ("verify", "--cases", "-5", "--max-m", "-1", "--max-M", "0"),
        ("crosscheck", "--max-m", "-1"),
        ("crosscheck", "--max-M", "0"),
        # no M <= 2 reaches m = 2..5, so only m = 0, 1 would be checked
        ("crosscheck", "--max-m", "5", "--max-M", "2"),
        ("verify", "--max-m", "5", "--max-M", "2"),
    ],
)
def test_suites_reject_ranges_that_check_nothing(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"cases": 0},
        {"max_m": -1},
        {"max_big_m": 0},
        {"cases": -5, "max_m": -1, "max_big_m": 0},
        # no M <= 2 reaches m = 2..5
        {"max_m": 5, "max_big_m": 2},
    ],
)
def test_run_all_rejects_the_ranges_verify_rejects(kwargs):
    with pytest.raises(ValueError):
        verification.run_all(**kwargs)


def test_solver_breakdown_is_not_an_input_error(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError; it must not become exit 1
    import delaymargin.cli as cli_mod

    def broken_max_delay(system, params, tol):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(cli_mod, "max_delay", broken_max_delay)
    with pytest.raises(np.linalg.LinAlgError):
        main(["bounds", "--system", "example1"])
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the environment does not reach the solver.
# ---------------------------------------------------------------------------


def test_environment_does_not_change_bounds(capsys, monkeypatch):
    argv = ("bounds", "--system", "example1", "--M", "1", "--m", "1",
            "--tol", "1e-3", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    clean = json.loads(out)["tau_upper"]
    # a NaN feasibility threshold and a zero box bound would break any solve
    monkeypatch.setenv("DELAYMARGIN_FEAS_THRESHOLD", "nan")
    monkeypatch.setenv("DELAYMARGIN_BOX_BOUND", "0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["tau_upper"] == clean
