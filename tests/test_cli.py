"""Tests for the command line interface.

All commands run in-process through ``dispatch`` so exit codes and emitted
reports can be asserted directly.
"""

import json
import math

import pytest

from polyhelix import acceptance, odelab, spherecurves
from polyhelix.cli import (
    RunConfig,
    _parse_grid,
    _parse_params,
    _parse_span,
    _parse_zeros,
    dispatch,
    validate_report,
)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


# -- flag parsing ------------------------------------------------------------


class TestFlagParsing:
    def test_span(self):
        assert _parse_span("1:3") == (1.0, 3.0)
        with pytest.raises(Exception):
            _parse_span("1:2:3")

    def test_grid(self):
        assert _parse_grid("0:3:7") == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        with pytest.raises(Exception):
            _parse_grid("0:3")
        with pytest.raises(Exception):
            _parse_grid("0:3:0")

    def test_params(self):
        assert _parse_params("a2=1.2,b2=0.8") == {"a2": 1.2, "b2": 0.8}
        assert _parse_params(None) == {}
        with pytest.raises(Exception):
            _parse_params("a2")

    def test_zeros(self):
        assert _parse_zeros("") == set()
        assert _parse_zeros("2,4") == {2, 4}

    def test_config_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            RunConfig(command="verify", tol=-1.0)


# -- report schema -----------------------------------------------------------


class TestReportSchema:
    def test_validates_round_trip(self, capsys):
        code, out = run(capsys, "verify", "--curve", "tri-planar", "--json")
        assert code == 0
        body = json.loads(out)
        validate_report(body)
        assert body["command"] == "verify"
        assert body["passed"] is True

    def test_rejects_missing_and_unknown_keys(self):
        with pytest.raises(ValueError, match="missing"):
            validate_report({"command": "x", "payload": 1})
        with pytest.raises(ValueError, match="unknown"):
            validate_report(
                {"command": "x", "version": "1", "payload": 1, "extra": 2}
            )

    def test_timing_is_opt_in(self, capsys):
        code, out = run(capsys, "verify", "--curve", "tri-planar", "--json")
        assert "wall_time" not in json.loads(out)
        code, out = run(
            capsys, "verify", "--curve", "tri-planar", "--json", "--timing"
        )
        body = json.loads(out)
        validate_report(body)
        assert body["wall_time"] > 0


# -- constraint-system printing ----------------------------------------------


class TestTau:
    def test_text_form(self, capsys):
        code, out = run(capsys, "tau", "--order", "3")
        assert code == 0
        assert "k1^2 + k2^2 + k3^2 + k4^2 - K" in out
        assert "F4" in out

    def test_latex_form(self, capsys):
        code, out = run(capsys, "tau", "--order", "2", "--format", "latex")
        assert code == 0
        assert r"\left(" in out and "k_{1}" in out

    def test_json_form(self, capsys):
        code, out = run(capsys, "tau", "--order", "3", "--format", "json")
        assert code == 0
        body = json.loads(out)
        validate_report(body)
        equations = body["payload"]["equations"]
        assert [eq["frame"] for eq in equations] == [2, 4]
        assert set(equations[0]) == {"frame", "raw", "gcd", "factored"}

    def test_zero_pattern(self, capsys):
        code, out = run(capsys, "tau", "--order", "3", "--zeros", "2")
        assert code == 0
        assert "k1^2 - 2*K" in out


# -- solution search ---------------------------------------------------------


class TestClassify:
    def test_planar_order_three_solution(self, capsys):
        code, out = run(
            capsys, "classify", "--order", "3", "--K", "1",
            "--zeros", "2", "--trials", "100", "--json",
        )
        assert code == 0
        body = json.loads(out)
        validate_report(body)
        solutions = body["payload"]["solutions"]
        assert len(solutions) == 1
        assert math.isclose(solutions[0]["curvatures"][0], math.sqrt(2.0))

    def test_negative_curvature_is_empty_with_certificate(self, capsys):
        code, out = run(
            capsys, "classify", "--order", "3", "--K", "-1",
            "--trials", "100", "--json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["solutions"] == []
        assert payload["infeasibility_certificates"]

    def test_text_certificates_are_rendered(self, capsys):
        code, out = run(
            capsys, "classify", "--order", "3", "--K", "-1", "--trials", "100",
        )
        assert code == 0
        assert "{'frame'" not in out
        assert "certificate F4: " in out

    def test_seed_resolution(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYHELIX_SEED", "7")
        code, out = run(
            capsys, "classify", "--order", "2", "--K", "1",
            "--trials", "20", "--json",
        )
        assert json.loads(out)["payload"]["search"]["seed"] == 7
        code, out = run(
            capsys, "classify", "--order", "2", "--K", "1",
            "--trials", "20", "--seed", "11", "--json",
        )
        assert json.loads(out)["payload"]["search"]["seed"] == 11


# -- curve verification ------------------------------------------------------


class TestVerify:
    @pytest.mark.parametrize(
        "curve",
        [
            "biharmonic-circle",
            "biharmonic-two-freq",
            "tri-planar",
            "tri-hyperbola",
            "four-planar",
        ],
    )
    def test_all_curves_verify(self, capsys, curve):
        code, out = run(capsys, "verify", "--curve", curve)
        assert code == 0
        assert "verified" in out

    def test_custom_parameters(self, capsys):
        code, out = run(
            capsys, "verify", "--curve", "biharmonic-two-freq",
            "--params", "a2=1.2,b2=0.8", "--json",
        )
        assert code == 0
        body = json.loads(out)
        assert body["payload"]["parameters"] == {"a2": 1.2, "b2": 0.8}

    def test_impossible_tolerance_fails_with_exit_one(self, capsys):
        code, out = run(
            capsys, "verify", "--curve", "four-planar", "--tol", "1e-15"
        )
        assert code == 1
        assert "FAILED" in out

    def test_invalid_parameters_are_usage_errors(self, capsys):
        # a2 + b2 must equal 2 for an arclength curve
        code = dispatch(
            ["verify", "--curve", "biharmonic-two-freq", "--params", "a2=1.5,b2=0.6"]
        )
        assert code == 2


# -- family sweep ------------------------------------------------------------


class TestFamily:
    def test_csv_table(self, capsys):
        code, out = run(capsys, "family", "tri-hyperbola", "--samples", "12")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,x,alpha1sq,alpha3sq,tau3_residual,lambda"
        assert len(lines) == 8  # 7 admissible samples on this grid
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_csv_flag_is_gone(self, capsys):
        assert dispatch(["family", "tri-hyperbola", "--csv"]) == 2

    def test_json_rows(self, capsys):
        code, out = run(
            capsys, "family", "tri-hyperbola", "--samples", "12", "--json"
        )
        rows = json.loads(out)["payload"]
        assert len(rows) == 7
        assert {"y", "x", "alpha1sq", "alpha3sq", "tau3_residual", "lambda",
                "quartic_residual", "lambda_residual"} == set(rows[0])


# -- numerical lab plumbing --------------------------------------------------


class TestIntegrateConserve:
    def test_integrate_to_file_then_monitor(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        code, out = run(
            capsys, "integrate", "--profile", "k1=1/s,k2=2/s",
            "--span", "1:3", "--step", "1e-3", "--out", str(path),
        )
        assert code == 0
        header = path.read_text().split("\n", 1)[0]
        assert header == "s,x1,x2,x3"

        code, out = run(
            capsys, "conserve", "--order", "3", "--in", str(path),
            "--ambient", "flat", "--json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["order"] == 3
        assert abs(payload["empirical_constant"]) < 1e-5

    def test_integrate_to_stdout(self, capsys):
        code, out = run(
            capsys, "integrate", "--profile", "k1=1",
            "--span", "0:1", "--step", "0.1",
        )
        assert code == 0
        assert out.startswith("s,x1,x2\n")
        assert len(out.strip().split("\n")) == 12

    def test_sphere_monitor_from_csv(self, capsys, tmp_path):
        curve = spherecurves.tri_planar()
        samples = odelab.sample_trig_curve(curve, (0.0, curve.period()), 513)
        path = tmp_path / "circle.csv"
        samples.to_csv(path)
        code, out = run(
            capsys, "conserve", "--order", "3", "--in", str(path),
            "--ambient", "sphere", "--json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert abs(payload["empirical_constant"] + 4.0) < 1e-5
        assert payload["drift"] < 1e-6

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_samples_are_usage_errors(self, capsys, tmp_path, bad):
        path = tmp_path / "samples.csv"
        rows = [f"{0.01 * i!r},{math.cos(0.01 * i)!r},{math.sin(0.01 * i)!r}"
                for i in range(200)]
        rows[100] = f"{0.01 * 100!r},{bad},0.0"
        path.write_text("s,x1,x2\n" + "\n".join(rows) + "\n")
        code = dispatch(
            ["conserve", "--order", "3", "--in", str(path), "--ambient", "flat", "--json"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite value on CSV line 102" in captured.err

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        code = dispatch(
            ["conserve", "--order", "3", "--in", str(tmp_path / "nope.csv"),
             "--ambient", "flat"]
        )
        assert code == 2


class TestConjecture:
    def test_order_three_table(self, capsys):
        code, out = run(
            capsys, "conjecture", "--order", "3", "--alpha", "1",
            "--beta-grid", "0:3:7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("beta,law_residual")
        best = min(lines[1:], key=lambda ln: float(ln.split(",")[1]))
        assert best.startswith("2.0,")

    def test_order_four_json(self, capsys):
        code, out = run(
            capsys, "conjecture", "--order", "4", "--alpha", "1",
            "--beta-grid", "0:2:3", "--json",
        )
        assert code == 0
        body = json.loads(out)
        validate_report(body)
        rows = body["payload"]
        assert [row["beta"] for row in rows] == [0.0, 1.0, 2.0]
        assert all(
            entry["power"] == -9
            for row in rows
            for entry in row["scaling"]
        )


# -- non-finite and empty requests -------------------------------------------


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["integrate", "--profile", "k1=1e400", "--span", "1:2"], "inf"),
            (["conjecture", "--order", "3", "--alpha", "nan", "--beta-grid", "0:1:2"], "nan"),
            (["conjecture", "--order", "3", "--alpha", "inf", "--beta-grid", "0:1:2"], "inf"),
            (["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:inf:2"], "0:inf:2"),
            (["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:1:2",
              "--span", "1:inf"], "1:inf"),
            (["integrate", "--profile", "k1=1", "--span", "0:nan"], "0:nan"),
            (["classify", "--order", "3", "--K", "nan"], "nan"),
            (["classify", "--order", "3", "--K", "inf"], "inf"),
            (["classify", "--order", "3", "--K", "1", "--trials", "0"], "got 0"),
            (["classify", "--order", "3", "--K", "1", "--trials", "-5"], "got -5"),
            # work bounds, checked before anything is allocated
            (["classify", "--order", "6", "--K", "1", "--trials", "282475249"], "got 282475249"),
            (["integrate", "--profile", "k1=1", "--span", "1:2", "--step", "1e-12"], "step 1e-12"),
            (["integrate", "--profile", "k1=1", "--span", "1:2", "--dimension", "1000000000"],
             "dimension 1000000000"),
            (["tau", "--order", "1000000"], "got 1000000"),
            (["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:1:10000000000"],
             "10000000000 points"),
            # the error estimate's 2h pass needs two steps
            (["integrate", "--profile", "k1=1", "--span", "0:0.01", "--step", "0.01"],
             "span 0.0:0.01 is shorter than one step at 2h = 0.02"),
            # a malformed zero pattern names the flag and the text given
            (["tau", "--order", "3", "--zeros", "2,,3"], "--zeros: expected comma-separated"
             " curvature indices such as 3,4, got '2,,3'"),
            (["tau", "--order", "3", "--zeros", "a"], "--zeros: expected comma-separated"
             " curvature indices such as 3,4, got 'a'"),
            (["classify", "--order", "3", "--K", "1", "--zeros", "3;4"],
             "--zeros: expected comma-separated curvature indices such as 3,4, got '3;4'"),
            (["classify", "--order", "9", "--K", "1"], "between 2 and 8, got 9"),
            (["classify", "--order", "8", "--K", "1", "--trials", "8000"],
             "8000 multistart trials x 2168 monomials"),
            # text that is no number names the flag and the text given
            (["integrate", "--profile", "k1=1", "--span", "a:b"],
             "--span: expected lo:hi with numeric bounds, got 'a:b'"),
            (["integrate", "--profile", "k1=1", "--span", "1:2", "--step", "abc"],
             "--step: expected a positive number, got 'abc'"),
            (["classify", "--order", "3", "--K", "1", "--tol", "1e-x"],
             "--tol: expected a positive number, got '1e-x'"),
            (["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:1:x"],
             "--beta-grid: expected lo:hi:n with numeric bounds and a whole number n, got '0:1:x'"),
            (["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:y:3"],
             "--beta-grid: expected lo:hi:n with numeric bounds and a whole number n, got '0:y:3'"),
            (["verify", "--curve", "tri-hyperbola", "--params", "y=abc"],
             "--params: expected name=value pairs such as a2=1.2,b2=0.8, got 'y=abc'"),
            (["verify", "--curve", "tri-hyperbola", "--params", "abc"],
             "--params: expected name=value pairs such as a2=1.2,b2=0.8, got 'abc'"),
            # a name the curve does not take names it and the accepted ones
            (["verify", "--curve", "tri-planar", "--params", "y=0.5"],
             "--params: curve tri-planar takes no parameters, got y"),
            (["verify", "--curve", "biharmonic-two-freq", "--params", "a2=1.5,b2=0.5,c=3"],
             "--params: curve biharmonic-two-freq takes a2, b2, got c"),
            # work bound on the family sweep, checked before the sweep
            (["family", "tri-hyperbola", "--samples", "100000000"], "got 100000000"),
        ],
    )
    def test_usage_error_names_the_value(self, capsys, argv, value):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert value in captured.err


# -- acceptance driver -------------------------------------------------------


class TestReproduce:
    def test_symbolic_subset(self, capsys):
        code, out = run(capsys, "reproduce", "--only", "symbolic")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "3/3 criteria passed"
        assert all(line.startswith("[PASS]") for line in lines[:-1])

    def test_single_criterion_by_number(self, capsys):
        code, out = run(capsys, "reproduce", "--only", "7", "--json")
        assert code == 0
        body = json.loads(out)
        criteria = body["payload"]["criteria"]
        assert len(criteria) == 1
        assert criteria[0]["number"] == 7
        assert body["passed"] is True

    def test_unknown_filter_is_usage_error(self, capsys):
        assert dispatch(["reproduce", "--only", "nonexistent"]) == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        failing = acceptance.CriterionResult(
            number=1,
            name="frame derivative expansions",
            tags=("symbolic",),
            passed=False,
            detail="injected failure",
            elapsed=0.0,
            limit_seconds=1.0,
        )
        monkeypatch.setattr(acceptance, "run_all", lambda only, seed: [failing])
        code, out = run(capsys, "reproduce")
        assert code == 1
        assert "[FAIL]" in out
        assert "0/1 criteria passed" in out


# -- exit codes and determinism ----------------------------------------------


class TestContract:
    def test_usage_errors(self):
        assert dispatch(["no-such-command"]) == 2
        assert dispatch(["tau"]) == 2  # missing required --order
        assert dispatch(["verify", "--curve", "unknown-curve"]) == 2
        assert dispatch(["tau", "--order", "3", "--tol", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["tau", "--order", "3"],
        ["family", "tri-hyperbola"],
        ["integrate", "--profile", "k1=1", "--span", "0:1"],
        ["conserve", "--order", "3", "--in", "samples.csv", "--ambient", "flat"],
        ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:3:2"],
        ["reproduce"],
    ])
    def test_tol_is_not_a_flag_of_commands_that_ignore_it(self, capsys, argv):
        assert dispatch(argv + ["--tol", "1e-3"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["classify", "--order", "2", "--K", "1"],
        ["verify", "--curve", "tri-planar"],
    ])
    def test_negative_tol_is_rejected(self, capsys, argv):
        assert dispatch(argv + ["--tol", "-1"]) == 2
        assert "--tol: must be positive" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_json_reports_are_byte_identical(self, capsys):
        first = run(capsys, "verify", "--curve", "tri-hyperbola", "--json")[1]
        second = run(capsys, "verify", "--curve", "tri-hyperbola", "--json")[1]
        assert first == second
        first = run(
            capsys, "classify", "--order", "3", "--K", "1", "--zeros", "2",
            "--trials", "50", "--json",
        )[1]
        second = run(
            capsys, "classify", "--order", "3", "--K", "1", "--zeros", "2",
            "--trials", "50", "--json",
        )[1]
        assert first == second

    def test_report_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = dispatch(
            ["verify", "--curve", "tri-planar", "--json", "--out", str(path)]
        )
        assert code == 0
        validate_report(json.loads(path.read_text()))
