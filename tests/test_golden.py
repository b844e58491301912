"""Golden CLI outputs: the ``tau``, ``verify`` and ``family`` JSON reports
must stay byte-identical across refactors of the Frenet engine and the
sphere-curve algebra.

Each file under ``tests/golden/`` is the standard output of the command of
the same name below.  Recapture a file only for an intended output change,
by running its command with ``--out`` pointing at the file.
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
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_is_byte_identical(capsys, name):
    code = dispatch(CASES[name])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
