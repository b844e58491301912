"""Golden CLI outputs: the ``tau``, ``verify``, ``family``, ``conjecture``
and ``conserve`` reports must stay byte-identical across refactors of the
Frenet engine, the sphere-curve algebra and the curvature-profile lab.

Each file under ``tests/golden/`` is the standard output of the command of
the same name below.  Recapture a file only for an intended output change,
by running its command with ``--out`` pointing at the file.  The ``conserve``
cases read a trajectory that the test first writes with :data:`TRAJECTORY`.
"""

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

TRAJECTORY = ["integrate", "--profile", "k1=1/s,k2=2/s", "--span", "1:3", "--step", "1e-3"]

CONSERVE_CASES = {
    "conserve_r3_flat.txt": ["conserve", "--order", "3", "--ambient", "flat"],
    "conserve_r4_flat.json": ["conserve", "--order", "4", "--ambient", "flat", "--json"],
}


def test_every_golden_file_has_a_case():
    expected = [f"{name}.json" for name in CASES] + list(CONSERVE_CASES)
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
