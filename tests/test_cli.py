"""Tests for the command line interface.

All commands run in-process through ``dispatch`` so exit codes and emitted
reports can be asserted directly.
"""

import argparse
import inspect
import json
import re
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyhelix import acceptance, classify, cli, odelab, spherecurves
from polyhelix.cli import (
    DEFAULT_SEED,
    VERIFY_CURVES,
    _parse_grid,
    _parse_params,
    _parse_span,
    _parse_zeros,
    dispatch,
)
from polyhelix.frenet import MAX_TENSION_ORDER, ConstraintEquation, ConstraintSystem
from polyhelix.ratpoly import CurvaturePolynomial, ambient, kvar


def case(label: str, *values):
    """A parametrized case whose id is ``label`` joined to its string values
    by "-", as pytest joins them: fixed here, so that removing a case
    renames no other one.  The ``argv<n>`` labels keep the ids the cases
    had when pytest numbered them by position."""
    return pytest.param(
        *values, id="-".join([label, *(v for v in values if isinstance(v, str))])
    )


def run(capsys, *argv: str) -> tuple[int, str]:
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


def validate_report(body: dict) -> None:
    """Schema check for the JSON envelope; raises ValueError on defects."""
    required = {"command", "version", "payload"}
    missing = required - set(body)
    if missing:
        raise ValueError(f"report missing keys {sorted(missing)}")
    extras = set(body) - required - {"passed", "wall_time"}
    if extras:
        raise ValueError(f"report carries unknown keys {sorted(extras)}")
    if not isinstance(body["command"], str) or not isinstance(body["version"], str):
        raise ValueError("command and version must be strings")


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
        params = _parse_params("a2=1.2,b2=0.8")
        assert params == {"a2": Fraction(6, 5), "b2": Fraction(4, 5)}
        assert params["a2"] + params["b2"] == 2
        assert _parse_params(None) == {}
        # a zero float reads as 0, and no exponent builds a huge power of ten
        assert _parse_params("y=1e-400,x=0e-999999999") == {"y": 0, "x": 0}
        for text in ("a2", "y=inf", "y=nan", "y=1e999999999", "y=1/3"):
            with pytest.raises(Exception):
                _parse_params(text)

    def test_zeros(self):
        assert _parse_zeros("") == set()
        assert _parse_zeros("2,4") == {2, 4}


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

    @pytest.mark.parametrize("fmt, unused", [
        ("json", ("render", "render_latex")),
        ("text", ("to_json_dict",)),
        ("latex", ("to_json_dict",)),
    ])
    def test_builds_only_the_requested_form(self, capsys, monkeypatch, fmt, unused):
        def refuse(*args, **kwargs):
            raise AssertionError(f"tau --format {fmt} built another form")

        for method in unused:
            monkeypatch.setattr(ConstraintSystem, method, refuse)
        code, out = run(capsys, "tau", "--order", "4", "--zeros", "3", "--format", fmt)
        assert code == 0
        assert "K" in out


# -- solution search ---------------------------------------------------------


class TestClassify:
    def test_planar_order_three_solution(self, capsys):
        code, out = run(
            capsys, "classify", "--order", "3", "--K", "1", "--zeros", "2", "--json",
        )
        assert code == 0
        body = json.loads(out)
        validate_report(body)
        solutions = body["payload"]["solutions"]
        assert len(solutions) == 1
        assert math.isclose(solutions[0]["curvatures"][0], math.sqrt(2.0))

    def test_negative_curvature_is_empty_with_certificate(self, capsys):
        code, out = run(capsys, "classify", "--order", "3", "--K", "-1", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["solutions"] == []
        assert payload["infeasibility_certificates"]

    def test_negative_curvature_reports_the_lone_geodesic(self, capsys):
        # pattern {3, 4} reads (x1 + x2)^2 - K (2 x1 + x2) = 0: at K < 0 every
        # term must vanish, so x = 0 is its one root
        code, out = run(capsys, "classify", "--order", "3", "--K", "-1", "--zeros", "3,4")
        assert code == 0
        assert "solutions: 1 (0 proper)" in out
        assert "  (0, 0, 0, 0)  residual 0.000e+00" in out

    def test_text_certificates_are_rendered(self, capsys):
        code, out = run(capsys, "classify", "--order", "3", "--K", "-1")
        assert code == 0
        assert "{'frame'" not in out
        assert "certificate F4: " in out

    def test_text_prints_the_positive_combination(self, capsys):
        code, out = run(capsys, "classify", "--order", "3", "--K", "1")
        assert code == 0
        assert "solutions: 0 (0 proper)" in out
        assert "  certificate F2, F4: N = -Q4*F2 + Q2*F4, " in out
        assert "has 5 terms, all positive, among them x1^2;" in out

    def test_text_names_the_exact_set(self, capsys):
        code, out = run(capsys, "classify", "--order", "3", "--K", "1", "--zeros", "3,4")
        assert code == 0
        assert "solutions: 8 (8 proper)" in out
        assert (
            "  exact set: arc x1^2 + 2*x1*x2 - 2*K*x1 + x2^2 - K*x2 = 0; "
            "t = x1 + x2, x1 = t*(t - K)/K, x2 = t - x1; K < t <= 2*K\n"
        ) in out

    def test_certificate_answers_where_newton_would_pass_the_power_table(self, capsys):
        # --trials sets no work: the full order-8 system is certified
        # whatever the trial count
        code, out = run(capsys, "classify", "--order", "8", "--K", "1", "--trials", "8000")
        assert code == 0
        assert "solutions: 0 (0 proper)" in out
        assert "has 2375 terms, all positive, among them x1^12;" in out

    def test_every_layer_shares_one_order_bound(self, capsys):
        # tau, classify and negative_K_scan take orders 2..10 and reject 1
        # and 11 with one message; the command line exits 2 without a traceback
        top = str(MAX_TENSION_ORDER)
        for K in ("1", "0", "-1"):
            assert dispatch(["classify", "--order", top, f"--K={K}"]) == 0
        assert dispatch(["tau", "--order", top]) == 0
        assert classify.negative_K_scan(MAX_TENSION_ORDER, -1.0).order == MAX_TENSION_ORDER
        capsys.readouterr()
        for r in (1, MAX_TENSION_ORDER + 1):
            message = f"tension order must be between 2 and {MAX_TENSION_ORDER}, got {r}"
            for argv in (["tau"], ["classify", "--K", "1"]):
                assert dispatch([*argv, "--order", str(r)]) == 2
                assert capsys.readouterr() == ("", f"polyhelix {argv[0]}: {message}\n")
            with pytest.raises(ValueError, match=f"^{message}$"):
                classify.negative_K_scan(r, -1.0)

    def test_an_undecided_system_exits_2(self, capsys, monkeypatch):
        # k1^2 - 3K in place of the order-three circle k1^2 - 2K matches no
        # closed form: a usage-style exit with the reason, no traceback
        crafted = kvar(1) ** 2 - 3 * ambient()
        equation = ConstraintEquation(2, crafted, CurvaturePolynomial.constant(1), crafted)
        system = ConstraintSystem(3, frozenset({2}), (equation,))
        monkeypatch.setattr(classify, "constraint_system", lambda r, zeros: system)
        code = dispatch(["classify", "--order", "3", "--K", "1", "--zeros", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("polyhelix classify: undecided at K > 0")
        assert "Traceback" not in captured.err

    def test_trials_and_seed_set_no_work(self, capsys):
        # the report depends on the order, K and the zero pattern alone:
        # --trials and --seed are accepted and ignored
        argv = ("classify", "--order", "3", "--K", "1", "--zeros", "3", "--json")
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--trials", "0", "--seed", "7") == plain
        search = json.loads(plain[1])["payload"]["search"]
        assert search == {"underdetermined": True, "unknowns": ["k1", "k2"]}


# -- curve verification ------------------------------------------------------


class TestVerify:
    @pytest.mark.parametrize("curve", list(VERIFY_CURVES))
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

    def test_slow_block_of_the_family_verifies(self, capsys):
        # y = b^2 = 1e-30 gives a slow block whose period is about 6e15
        code, out = run(
            capsys, "verify", "--curve", "tri-hyperbola", "--params", "y=1e-30"
        )
        assert code == 0
        assert "verified" in out

    @pytest.mark.parametrize(
        "params", ["a2=1.999999,b2=1e-6", "a2=1.999999999999,b2=1e-12", "a2=1e-320,b2=2"]
    )
    def test_slow_block_of_a_biharmonic_curve_verifies(self, capsys, params):
        # over the slow block's period the fast block's angles reach 1e160,
        # where adding a derivative's phase l pi/2 loses it
        code, out = run(
            capsys, "verify", "--curve", "biharmonic-two-freq", "--params", params, "--json"
        )
        assert code == 0
        checks = json.loads(out)["payload"]["checks"]
        assert checks["equation_residual"]["residual"] < 1e-14

    def test_invalid_parameters_are_usage_errors(self, capsys):
        # a2 + b2 must equal 2 for an arclength curve
        code = dispatch(
            ["verify", "--curve", "biharmonic-two-freq", "--params", "a2=1.5,b2=0.6"]
        )
        assert code == 2

    def test_near_arclength_parameters_are_usage_errors(self, capsys):
        # |gamma'|^2 = (a2 + b2)/2 = 1 + 5e-11 exactly: unit speed is checked
        # in the curve's field, not to a float tolerance
        code = dispatch(
            ["verify", "--curve", "biharmonic-two-freq", "--params", "a2=1.5,b2=0.5000000001"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not arclength parametrized" in captured.err


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


    def test_rows_are_the_members_that_verify_reports(self, capsys):
        # every row is the exact family member rounded to floats, so verify
        # at the row's y reports the same x and tension residual
        code, out = run(capsys, "family", "tri-hyperbola", "--samples", "64", "--json")
        assert code == 0
        for row in json.loads(out)["payload"]:
            code, out = run(
                capsys, "verify", "--curve", "tri-hyperbola", "--params",
                f"y={row['y']!r}", "--json",
            )
            assert code == 0
            payload = json.loads(out)["payload"]
            assert payload["parameters"]["x"] == row["x"], row["y"]
            residual = payload["checks"]["tension_residual"]["residual"]
            assert residual == row["tau3_residual"], row["y"]


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
        curve = spherecurves.planar_circle(3)
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

    @pytest.mark.parametrize("row, width", [("0.5,0.1", 2), ("0.5,0.1,0.2,0.3", 4)])
    def test_row_width_must_match_the_header(self, capsys, tmp_path, row, width):
        path = tmp_path / "samples.csv"
        rows = [f"{0.01 * i!r},{math.cos(0.01 * i)!r},{math.sin(0.01 * i)!r}"
                for i in range(200)]
        rows[50] = row
        path.write_text("s,x1,x2\n" + "\n".join(rows) + "\n")
        code = dispatch(
            ["conserve", "--order", "3", "--in", str(path), "--ambient", "flat"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"CSV line 52 has {width} fields, the header has 3" in captured.err

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        code = dispatch(
            ["conserve", "--order", "3", "--in", str(tmp_path / "nope.csv"),
             "--ambient", "flat"]
        )
        assert code == 2

    @pytest.mark.parametrize("s_column, coordinates, message", [
        (None, None, "first CSV column must be s"),  # empty file
        ([1.0] * 200, 2, "spacing must be positive and finite, got 0.0"),
        ([0.01 * (199 - i) for i in range(200)], 2, "spacing must be positive"),
        ([0.01 * i for i in range(200)], 0, "at least one coordinate column"),
    ])
    def test_malformed_samples_are_usage_errors(
        self, capsys, tmp_path, s_column, coordinates, message
    ):
        path = tmp_path / "samples.csv"
        if s_column is None:
            path.write_text("")
        else:
            header = ",".join(["s"] + [f"x{i + 1}" for i in range(coordinates)])
            rows = [",".join([repr(s)] + [repr(math.cos(s)), repr(math.sin(s))][:coordinates])
                    for s in s_column]
            path.write_text(header + "\n" + "\n".join(rows) + "\n")
        code = dispatch(
            ["conserve", "--order", "4", "--in", str(path), "--ambient", "sphere"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def mostly(typical, rare):
    """Draw from ``typical`` four times in five, else from ``rare``."""
    return st.integers(0, 4).flatmap(lambda i: rare if i == 0 else typical)


@st.composite
def sample_csv_texts(draw) -> str:
    """CSV text near the format conserve reads: a header, an arithmetic s
    column of any step and coordinates of any scale, sometimes with arbitrary
    text spliced in; or arbitrary text alone."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=200))

    finite = st.floats(allow_nan=False, allow_infinity=False)
    n = draw(mostly(st.integers(64, 300), st.integers(0, 8)))
    dimension = draw(mostly(st.integers(1, 3), st.just(0)))
    start = draw(mostly(st.floats(-10.0, 10.0), finite))
    step = draw(mostly(st.floats(1e-3, 0.1),
                       st.one_of(finite, st.sampled_from([0.0, 5e-324, -0.01]))))
    scale = draw(mostly(st.floats(0.1, 10.0), finite))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(all="ignore"):
        s = start + step * np.arange(n)
        x = scale * rng.standard_normal((n, dimension))
    header = "s" + "".join(f",x{i + 1}" for i in range(dimension))
    header = draw(mostly(st.just(header), st.sampled_from(["s", "t,x1", ""])))
    lines = [header] + [",".join(repr(float(v)) for v in (si, *xi)) for si, xi in zip(s, x)]
    text = "\n".join(lines) + "\n"
    if draw(mostly(st.just(False), st.just(True))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(max_size=12)) + text[at:]
    return text


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=sample_csv_texts(), order=st.sampled_from(["3", "4"]),
       ambient=st.sampled_from(["flat", "sphere"]))
def test_conserve_on_arbitrary_csv_exits_cleanly(capsys, tmp_path, text, order, ambient):
    path = tmp_path / "samples.csv"
    path.write_text(text, encoding="utf-8")
    code = dispatch(["conserve", "--order", order, "--in", str(path), "--ambient", ambient])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert captured.err.startswith("polyhelix conserve: ")
        assert captured.out == ""


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
            case("argv0", ["integrate", "--profile", "k1=1e400", "--span", "1:2"], "inf"),
            case("argv1", ["conjecture", "--order", "3", "--alpha", "nan", "--beta-grid", "0:1:2"],
                 "nan"),
            case("argv2", ["conjecture", "--order", "3", "--alpha", "inf", "--beta-grid", "0:1:2"],
                 "inf"),
            case("argv3", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:inf:2"],
                 "0:inf:2"),
            case("argv4", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:1:2",
                           "--span", "1:inf"],
                 "1:inf"),
            case("argv5", ["integrate", "--profile", "k1=1", "--span", "0:nan"], "0:nan"),
            case("argv6", ["classify", "--order", "3", "--K", "nan"], "nan"),
            case("argv7", ["classify", "--order", "3", "--K", "inf"], "inf"),
            case("argv8", ["tau", "--order", "0"], "got 0"),
            case("argv9", ["classify", "--order", "-5", "--K", "1"], "got -5"),
            # work bounds, checked before anything is allocated
            case("argv10", ["classify", "--order", "282475249", "--K", "1"], "got 282475249"),
            case("argv11", ["integrate", "--profile", "k1=1", "--span", "1:2", "--step", "1e-12"],
                 "step 1e-12"),
            case("argv12", ["integrate", "--profile", "k1=1", "--span", "1:2", "--dimension",
                            "1000000000"],
                 "dimension 1000000000"),
            case("argv13", ["tau", "--order", "1000000"], "got 1000000"),
            case("argv14", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid",
                            "0:1:10000000000"],
                 "10000000000 points"),
            # the error estimate's 2h pass needs two steps
            case("argv15", ["integrate", "--profile", "k1=1", "--span", "0:0.01", "--step", "0.01"],
                 "span 0.0:0.01 is shorter than one step at 2h = 0.02"),
            # a malformed zero pattern names the flag and the text given
            case("argv16", ["tau", "--order", "3", "--zeros", "2,,3"],
                 "--zeros: expected comma-separated curvature indices such as 3,4, got '2,,3'"),
            case("argv17", ["tau", "--order", "3", "--zeros", "a"],
                 "--zeros: expected comma-separated curvature indices such as 3,4, got 'a'"),
            case("argv18", ["classify", "--order", "3", "--K", "1", "--zeros", "3;4"],
                 "--zeros: expected comma-separated curvature indices such as 3,4, got '3;4'"),
            case("argv19", ["classify", "--order", "11", "--K", "1"], "between 2 and 10, got 11"),
            # every argument check runs before the K > 0 certificate
            case("argv20", ["classify", "--order", "50001", "--K", "1", "--zeros", "3"],
                 "got 50001"),
            # text that is no number names the flag and the text given
            case("argv21", ["integrate", "--profile", "k1=1", "--span", "a:b"],
                 "--span: expected lo:hi with numeric bounds, got 'a:b'"),
            case("argv22", ["integrate", "--profile", "k1=1", "--span", "1:2", "--step", "abc"],
                 "--step: expected a positive number, got 'abc'"),
            case("argv23", ["verify", "--curve", "tri-planar", "--tol", "1e-x"],
                 "--tol: expected a positive number, got '1e-x'"),
            case("argv24", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:1:x"],
                 "--beta-grid: expected lo:hi:n with numeric bounds and a whole number n, got "
                 "'0:1:x'"),
            case("argv25", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:y:3"],
                 "--beta-grid: expected lo:hi:n with numeric bounds and a whole number n, got "
                 "'0:y:3'"),
            case("argv26", ["verify", "--curve", "tri-hyperbola", "--params", "y=abc"],
                 "--params: expected name=value pairs such as a2=1.2,b2=0.8, got 'y=abc'"),
            case("argv27", ["verify", "--curve", "tri-hyperbola", "--params", "abc"],
                 "--params: expected name=value pairs such as a2=1.2,b2=0.8, got 'abc'"),
            # a name the curve does not take names it and the accepted ones
            case("argv28", ["verify", "--curve", "tri-planar", "--params", "y=0.5"],
                 "--params: curve tri-planar takes no parameters, got y"),
            case("argv29", ["verify", "--curve", "biharmonic-two-freq", "--params",
                            "a2=1.5,b2=0.5,c=3"],
                 "--params: curve biharmonic-two-freq takes a2, b2, got c"),
            # work bound on the family sweep, checked before the sweep
            case("argv30", ["family", "tri-hyperbola", "--samples", "100000000"], "got 100000000"),
            # arithmetic overflow in the integrator is reported, never written out
            case("argv31", ["integrate", "--profile", "k1=1e308", "--span", "0:1", "--step",
                            "0.01", "--out", os.devnull],
                 "integration at step 0.01 overflowed"),
            case("argv32", ["conjecture", "--order", "3", "--alpha", "1e200", "--beta-grid",
                            "0:1:2"],
                 "integration at step 0.001 overflowed"),
            # an infinite step or tolerance would accept any residual
            case("argv33", ["integrate", "--profile", "k1=1", "--span", "1:2", "--step", "inf"],
                 "--step: must be positive and finite, got 'inf'"),
            case("argv34", ["verify", "--curve", "biharmonic-circle", "--tol", "inf"],
                 "--tol: must be positive and finite, got 'inf'"),
            case("argv35", ["verify", "--curve", "tri-planar", "--tol", "inf"],
                 "--tol: must be positive and finite, got 'inf'"),
            case("argv36", ["verify", "--curve", "tri-planar", "--tol", "nan"],
                 "--tol: must be positive and finite, got 'nan'"),
            # at K <= 0 nothing is sampled, but the same input checks hold
            case("argv37", ["classify", "--order", "3", "--K=-inf"], "K must be finite, got -inf"),
            case("argv38", ["classify", "--order", "11", "--K", "-1"], "between 2 and 10, got 11"),
            case("argv39", ["classify", "--order", "1", "--K", "0"], "between 2 and 10, got 1"),
            case("argv40", ["classify", "--order", "0", "--K", "0"], "got 0"),
            case("argv41", ["classify", "--order", "50001", "--K", "-1"], "got 50001"),
            # the joined form of a flag is checked the same way
            case("argv42", ["verify", "--curve", "four-planar", "--tol=inf"],
                 "--tol: must be positive and finite, got 'inf'"),
            # a separate value that begins with "-" parses as the joined form
            case("argv43", ["classify", "--order", "3", "--K", "-inf"],
                 "K must be finite, got -inf"),
            case("argv44", ["conjecture", "--order", "3", "--alpha", "-inf", "--beta-grid", "0:1:2"],
                 "alpha must be finite and nonzero, got -inf"),
            case("argv45", ["integrate", "--profile", "k1=1", "--span", "-1:-inf"], "-1:-inf"),
            case("argv46", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "-inf:1:2"],
                 "-inf:1:2"),
            # 0 is a dimension like any other, not "use the default"
            case("argv47", ["integrate", "--profile", "k1=1", "--span", "0:0.01", "--step",
                            "0.001", "--dimension", "0"],
                 "ambient dimension must be at least 2"),
            # the h pass stays finite and only the error estimate's 2h pass
            # overflows: reported on both output paths, never written out
            case("coarse-overflow-stdout", ["integrate", "--profile", "k1=8", "--span", "0:200",
                                            "--step", "1"],
                 "integration at step 1.0 overflowed"),
            case("coarse-overflow-out", ["integrate", "--profile", "k1=8", "--span", "0:200",
                                         "--step", "1", "--out", os.devnull],
                 "integration at step 1.0 overflowed"),
        ],
    )
    def test_usage_error_names_the_value(self, capsys, argv, value):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert value in captured.err

    @pytest.mark.parametrize("argv, flag, value", [
        case("argv0", ["classify", "--order", "2"], "--K", "-1e-3"),
        case("argv1", ["classify", "--order", "2"], "--K", "-1e300"),
        case("argv2", ["classify", "--order", "2"], "--K", "-0.5"),
        case("argv3", ["conjecture", "--order", "3", "--beta-grid", "0:1:2"], "--alpha", "-1e-1"),
        case("argv4", ["integrate", "--profile", "k1=1", "--step", "0.01"], "--span", "-1:1"),
        case("argv5", ["conjecture", "--order", "3", "--alpha", "1"], "--beta-grid", "-1:1:3"),
    ])
    def test_signed_value_parses_like_the_joined_form(self, capsys, argv, flag, value):
        assert dispatch(argv + [f"{flag}={value}"]) == 0
        joined = capsys.readouterr()
        assert dispatch(argv + [flag, value]) == 0
        assert capsys.readouterr() == joined


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

# the flags no handler reads: perfbench/workloads.py passes them on every
# operation, so they stay accepted and ignored
IGNORED_FLAGS = {
    ("classify", "trials"): ["--trials"],  # until ROADMAP item 1
    ("classify", "seed"): ["--seed"],  # until ROADMAP item 1
    ("tau", "seed"): ["--seed"],  # until ROADMAP item 1
}



class TestContract:
    def test_usage_errors(self):
        assert dispatch(["no-such-command"]) == 2
        assert dispatch(["tau"]) == 2  # missing required --order
        assert dispatch(["verify", "--curve", "unknown-curve"]) == 2
        assert dispatch(["tau", "--order", "3", "--tol", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        case("argv0", ["tau", "--order", "3"]),
        case("argv1", ["family", "tri-hyperbola"]),
        case("argv2", ["integrate", "--profile", "k1=1", "--span", "0:1"]),
        case("argv3", ["conserve", "--order", "3", "--in", "samples.csv", "--ambient", "flat"]),
        case("argv4", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:3:2"]),
        case("argv5", ["reproduce"]),
        case("argv6", ["classify", "--order", "3", "--K", "1"]),
    ])
    def test_tol_is_not_a_flag_of_commands_that_ignore_it(self, capsys, argv):
        assert dispatch(argv + ["--tol", "1e-3"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        case("argv0", ["verify", "--curve", "tri-planar"]),
        case("argv1", ["family", "tri-hyperbola"]),
        case("argv2", ["integrate", "--profile", "k1=1", "--span", "0:1"]),
        case("argv3", ["conserve", "--order", "3", "--in", "samples.csv", "--ambient", "flat"]),
        case("argv4", ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:3:2"]),
    ])
    def test_seed_is_not_a_flag_of_commands_that_ignore_it(self, capsys, argv):
        assert dispatch(argv + ["--seed", "7"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        case("argv0", ["verify", "--curve", "four-planar"]),
        case("argv1", ["verify", "--curve", "tri-planar"]),
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
        first = run(capsys, "classify", "--order", "3", "--K", "1", "--zeros", "2", "--json")[1]
        second = run(capsys, "classify", "--order", "3", "--K", "1", "--zeros", "2", "--json")[1]
        assert first == second

    def test_repeated_dispatch_leaks_nothing_between_calls(self, capsys):
        # one parser serves every call: a flag given once must not stick
        tau = ("tau", "--order", "3")
        zeros = tau + ("--zeros", "2")
        outputs = [run(capsys, *argv)[1] for argv in (zeros, tau, zeros, tau)]
        assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
        assert "zero pattern [2]" in outputs[0] and "zero pattern {}" in outputs[1]

        argv = ("verify", "--curve", "tri-planar", "--json")
        tight = argv + ("--tol", "1e-6")
        outputs = [run(capsys, *a)[1] for a in (tight, argv, tight, argv)]
        assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
        checks = [json.loads(out)["payload"]["checks"] for out in outputs[:2]]
        default = spherecurves.TOLERANCES["tension_residual"]
        assert [c["tension_residual"]["tolerance"] for c in checks] == [1e-6, default]

        # the seed is resolved on every call, not once per parser
        parser = cli.build_parser()
        seeds = [parser.parse_args(line).seed for line in (["reproduce", "--seed", "7"],
                                                           ["reproduce"])]
        assert seeds == [7, DEFAULT_SEED] == [7, 42]

    def test_parser_is_built_once_per_process(self):
        # a fresh interpreter counts every ArgumentParser it builds: none at
        # import, the root and one per subcommand on the first call, and no
        # more on later calls, whatever they parse
        probe = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from polyhelix.cli import dispatch\n"
            "counts = [len(built)]\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    for argv in (['tau', '--order', '2'], ['tau', '--order', '2', '--format', 'json'],\n"
            "                 ['tau'], ['family', 'tri-hyperbola', '--samples', '1']):\n"
            "        dispatch(argv)\n"
            "        counts.append(len(built))\n"
            "print(counts)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        subcommands = 8
        assert json.loads(done.stdout) == [0] + [1 + subcommands] * 4

    def test_every_flag_is_read(self):
        # each parsed value is read as args.<dest> by its handler or by
        # _finish, except the allowlisted flags, accepted and ignored
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        finish = inspect.getsource(cli._finish)
        unread = {}
        for command, sub in commands.choices.items():
            source = inspect.getsource(sub.get_default("handler")) + finish
            for action in sub._actions:
                dest = action.dest
                read = rf'\bargs\.{dest}\b|getattr\(args, "{dest}"'
                if dest != "help" and not re.search(read, source):
                    unread[command, dest] = action.option_strings
        assert unread == IGNORED_FLAGS

    def test_report_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = dispatch(
            ["verify", "--curve", "tri-planar", "--json", "--out", str(path)]
        )
        assert code == 0
        validate_report(json.loads(path.read_text()))


# -- fuzzed flag values ------------------------------------------------------
#
# Whatever text a flag carries, dispatch returns an exit code: 0, 2 for a
# usage error, or 1 for a curve that fails verification.  An exception that
# escapes it fails the test.

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


number_texts = mostly(st.floats().map(repr), st.text(max_size=8))
zero_texts = mostly(
    st.lists(st.integers(0, 15), max_size=4).map(lambda ks: ",".join(map(str, ks))),
    st.text(max_size=8),
)


@st.composite
def verify_requests(draw) -> tuple[str, str]:
    """A curve and --params text: name=value pairs, usually over the names
    the curve takes, with values usually inside the tri-hyperbola domain
    (0, 3), uniform or across every decade of scale; or any text."""
    curve = draw(st.sampled_from(sorted(VERIFY_CURVES)))
    if draw(st.integers(0, 4)) == 0:
        return curve, draw(st.text(max_size=20))
    names = mostly(st.sampled_from(sorted(VERIFY_CURVES[curve].params) or ["y"]),
                   st.sampled_from(["y", "a2", "b2", "x"]))
    scales = st.integers(-320, 0).map(lambda e: 3.0 * 10.0**e)
    values = mostly(st.one_of(st.floats(0.0, 3.0), scales).map(repr), number_texts)
    pairs = draw(st.lists(st.tuples(names, values), max_size=3))
    return curve, ",".join(f"{name}={value}" for name, value in pairs)


@settings(FUZZ, max_examples=100)
@given(request=verify_requests())
def test_verify_params_exit_cleanly(capsys, request):
    curve, params = request
    code = dispatch(["verify", "--curve", curve, f"--params={params}"])
    capsys.readouterr()
    assert code in (0, 1, 2)


@FUZZ
@given(order=st.integers(0, 8), zeros=zero_texts)
def test_tau_zeros_exit_cleanly(capsys, order, zeros):
    code = dispatch(["tau", "--order", str(order), f"--zeros={zeros}"])
    capsys.readouterr()
    assert code in (0, 2)


@FUZZ
@given(order=mostly(st.integers(1, 9).map(str), st.text(max_size=4)),
       K=number_texts, zeros=zero_texts)
def test_classify_flags_exit_cleanly(capsys, order, K, zeros):
    code = dispatch(["classify", f"--order={order}", f"--K={K}", f"--zeros={zeros}"])
    capsys.readouterr()
    assert code in (0, 2)


@st.composite
def span_and_step(draw) -> tuple[str, str]:
    """--span and --step texts; numeric ones cover at most 1000 steps, so
    that an example stays near 0.1 s."""
    lo, step = draw(st.floats(-1.0, 10.0)), draw(st.floats(1e-3, 1.0))
    bound = st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf]))
    span = draw(mostly(
        st.integers(0, 1000).map(lambda steps: f"{lo!r}:{lo + steps * step!r}"),
        st.one_of(st.text(max_size=10),
                  st.tuples(bound, bound).map(lambda b: f"{b[0]!r}:{b[1]!r}")),
    ))
    step_text = draw(mostly(
        st.just(repr(step)),
        st.one_of(st.text(max_size=8), st.floats(-1.0, 1e-12).map(repr)),
    ))
    return span, step_text


@FUZZ
@given(profile=st.sampled_from(["k1=1", "k1=1/s,k2=2/s", "k1=0.6,k2=0.4,k3=0.3"]),
       flags=span_and_step())
def test_integrate_span_and_step_exit_cleanly(capsys, profile, flags):
    span, step = flags
    code = dispatch(["integrate", "--profile", profile, f"--span={span}", f"--step={step}"])
    capsys.readouterr()
    assert code in (0, 2)


@st.composite
def conjecture_requests(draw) -> tuple[str, str, str, str]:
    """--order, --alpha, --beta-grid and --span texts.  Four times in five
    all four are numeric, with grids of at most 5 points and spans of length
    at most 2, so that an example stays cheap; else any of them may be any
    float or text."""
    wild = draw(st.integers(0, 4)) == 0

    def pick(typical, rare):
        return draw(st.one_of(typical, rare) if wild else typical)

    number = st.one_of(st.floats(-4.0, 4.0), st.floats()) if wild else st.floats(-4.0, 4.0)
    order = pick(st.sampled_from(["3", "4"]), st.text(max_size=3))
    alpha = pick(number.map(repr), st.text(max_size=8))
    grid = pick(
        st.tuples(number, number, st.integers(1, 5)).map(lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}"),
        st.one_of(st.text(max_size=10), st.sampled_from(["0:1:0", "0:1:-1", "0:1:1001"])),
    )
    lo = pick(st.floats(0.1, 5.0), st.floats(allow_nan=False))
    span = pick(
        st.floats(1e-4, 2.0).map(lambda length: f"{lo!r}:{lo + length!r}"),
        st.text(max_size=10),
    )
    return order, alpha, grid, span


@FUZZ
@given(request=conjecture_requests())
def test_conjecture_flags_exit_cleanly(capsys, request):
    order, alpha, grid, span = request
    code = dispatch(["conjecture", f"--order={order}", f"--alpha={alpha}",
                     f"--beta-grid={grid}", f"--span={span}"])
    capsys.readouterr()
    assert code in (0, 2)


def _no_slow_sample_count(text: str) -> bool:
    """False for a text that ``int`` reads as a sample count above 20 that
    the sweep would accept, and so run slowly."""
    try:
        value = int(text)
    except ValueError:
        return True
    return value <= 20 or value > spherecurves.MAX_FAMILY_SAMPLES


@FUZZ
@given(samples=mostly(
    st.integers(-3, 20).map(str),
    st.one_of(
        st.text(max_size=8).filter(_no_slow_sample_count),
        st.floats().map(repr),
        st.sampled_from([str(spherecurves.MAX_FAMILY_SAMPLES + 1), "10**3", "1e3", "0x10"]),
    ),
), json_flag=st.booleans())
def test_family_samples_exit_cleanly(capsys, samples, json_flag):
    code = dispatch(["family", "tri-hyperbola", f"--samples={samples}"]
                    + (["--json"] if json_flag else []))
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert captured.out == ""


@st.composite
def profile_texts(draw) -> str:
    """--profile text: one to four assignments ``k<i>=<c>[/s[^p]]``, usually
    with indices running from 1 and coefficients of modest size; else any
    indices, coefficients and powers, or any text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=20))
    count = draw(st.integers(1, 4))
    indices = draw(mostly(st.just(list(range(1, count + 1))),
                          st.lists(st.integers(0, 6), min_size=1, max_size=4)))
    coefficients = mostly(
        st.floats(-5.0, 5.0).map(lambda c: f"{c:.3g}"),
        st.one_of(st.floats().map(repr), st.text(max_size=4), st.just("1e308")),
    )
    tails = mostly(st.sampled_from(["", "/s", "/s^2"]),
                   st.sampled_from(["/s^1", "/s^3", "/ s", "/t", "*s"]))
    return ",".join(f"k{i}={draw(coefficients)}{draw(tails)}" for i in indices)


@FUZZ
@given(profile=profile_texts())
def test_integrate_profile_exits_cleanly(capsys, profile):
    # 100 steps at most, in dimension at most 5
    code = dispatch(["integrate", f"--profile={profile}", "--span", "1:2", "--step", "0.01"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert captured.out == ""
