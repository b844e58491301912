"""Golden CLI outputs: the ``tau``, ``verify``, ``family``, ``conjecture``
and ``conserve`` reports must stay byte-identical across refactors of the
Frenet engine, the sphere-curve algebra and the curvature-profile lab.

Each file under ``tests/golden/`` is the standard output of the command of
the same name below.  Recapture a file only for an intended output change,
by running its command with ``--out`` pointing at the file.  The ``conserve``
cases read a trajectory that the test first writes with :data:`TRAJECTORY`.

The ``classify`` snapshots guard the multistart solver.  Floating-point
evaluation order may change under a refactor, so they are compared field by
field rather than byte for byte: counts, flags, certificates and search
metadata exactly, curvatures to :data:`CURVATURE_TOL`, and every residual
must stay below the search tolerance.
"""

import json
from pathlib import Path

import pytest

from polyhelix.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"

VERIFY_CURVES = (
    "biharmonic-circle",
    "biharmonic-two-freq",
    "tri-planar",
    "tri-hyperbola",
    "four-planar",
)

CASES = {
    **{f"tau_r{r}": ["tau", "--order", str(r), "--format", "json"] for r in range(2, 8)},
    "tau_r4_zeros3": ["tau", "--order", "4", "--zeros", "3", "--format", "json"],
    **{f"verify_{c}": ["verify", "--curve", c, "--json"] for c in VERIFY_CURVES},
    "verify_tri-hyperbola_y0.5": [
        "verify", "--curve", "tri-hyperbola", "--params", "y=0.5", "--json",
    ],
    "verify_biharmonic-two-freq_a1.2_b0.8": [
        "verify", "--curve", "biharmonic-two-freq", "--params", "a2=1.2,b2=0.8", "--json",
    ],
    "family_64": ["family", "tri-hyperbola", "--samples", "64", "--json"],
    "family_200": ["family", "tri-hyperbola", "--samples", "200", "--json"],
    "conjecture_r3_alpha1": [
        "conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:3:5", "--json",
    ],
    "conjecture_r4_alpha1": [
        "conjecture", "--order", "4", "--alpha", "1", "--beta-grid", "0:2:5", "--json",
    ],
}

CLASSIFY_CASES = {
    "classify_r2_K1": ["--order", "2", "--K", "1", "--trials", "100"],
    "classify_r3_K1": ["--order", "3", "--K", "1", "--trials", "200"],
    "classify_r3_K1_zeros34": ["--order", "3", "--K", "1", "--zeros", "3,4", "--trials", "200"],
    "classify_r3_K1_zeros234": ["--order", "3", "--K", "1", "--zeros", "2,3,4", "--trials", "50"],
    "classify_r4_K1_zeros2": ["--order", "4", "--K", "1", "--zeros", "2", "--trials", "200"],
    "classify_r4_K1_zeros3": ["--order", "4", "--K", "1", "--zeros", "3", "--trials", "200"],
    "classify_r3_Km1": ["--order", "3", "--K", "-1", "--trials", "200"],
    "classify_r3_K0_zeros34": ["--order", "3", "--K", "0", "--zeros", "3,4", "--trials", "100"],
}

CURVATURE_TOL = 1e-12

TRAJECTORY = ["integrate", "--profile", "k1=1/s,k2=2/s", "--span", "1:3", "--step", "1e-3"]

CONSERVE_CASES = {
    "conserve_r3_flat.txt": ["conserve", "--order", "3", "--ambient", "flat"],
    "conserve_r4_flat.json": ["conserve", "--order", "4", "--ambient", "flat", "--json"],
}


def test_every_golden_file_has_a_case():
    expected = [f"{name}.json" for name in {**CASES, **CLASSIFY_CASES}] + list(CONSERVE_CASES)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_is_byte_identical(capsys, name):
    code = dispatch(CASES[name])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(CONSERVE_CASES))
def test_conserve_report_is_byte_identical(capsys, tmp_path, name):
    trajectory = tmp_path / "trajectory.csv"
    assert dispatch(TRAJECTORY + ["--out", str(trajectory)]) == 0
    capsys.readouterr()
    assert dispatch(CONSERVE_CASES[name] + ["--in", str(trajectory)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CLASSIFY_CASES))
def test_classify_report_matches_snapshot(capsys, name):
    assert dispatch(["classify", *CLASSIFY_CASES[name], "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got_payload, want_payload = got.pop("payload"), want.pop("payload")
    assert got == want
    got_solutions = got_payload.pop("solutions")
    want_solutions = want_payload.pop("solutions")
    assert got_payload == want_payload  # certificates, search metadata, K, pattern
    assert len(got_solutions) == len(want_solutions)
    tol = got_payload["search"]["tol"]
    for got_solution, want_solution in zip(got_solutions, want_solutions):
        assert got_solution["curvatures"] == pytest.approx(
            want_solution["curvatures"], abs=CURVATURE_TOL, rel=0
        )
        assert got_solution["residual"] < tol
