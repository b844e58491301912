"""Golden CLI outputs: the ``tau``, ``verify``, ``family``, ``conjecture``,
``conserve`` and ``integrate`` reports must stay byte-identical across
refactors of the Frenet engine, the sphere-curve algebra and the
curvature-profile lab.

Each file under ``tests/golden/`` is the standard output of the command of
the same name below.  Recapture a file only for an intended output change,
by running its command with ``--out`` pointing at the file.  The ``conserve``
cases read a trajectory that the test first writes with :data:`TRAJECTORY`.

Every canonical constraint system of orders 2..8 (the full system and each
upward-closed zero pattern, 63 in all) must render to the SHA-256 digest
that ``perfbench/reference.json`` records for it; the test only reads that
file.  ``tau_sha256.json`` pins the whole ``tau`` report of each of them in
every ``--format`` (text, LaTeX and JSON) by its SHA-256; recapture it only
for an intended output change, from the output of the same commands.
``text_sha256.json`` pins the text forms the JSON goldens leave out: the
``verify`` and ``conjecture`` reports without ``--json`` (of
:data:`TEXT_CASES`), and the ``(number, passed, detail)`` triple of every
criterion of ``reproduce --json``, hashed as the compact JSON list of those
triples; recapture it the same way.  ``scan_sha256.json`` pins the exact
``K < 0`` scan, ``negative_K_scan(r, -1.0).to_json_dict()`` for r = 2..8, as
compact JSON with sorted keys.  ``high_order_sha256.json`` pins the full
systems of orders 9 and 10, the only ones whose curvatures reach
``k15 .. k18``: ``constraint_system(r).to_json_dict()`` hashed the same way,
``render_latex()``, and ``solve_helix(r, 1.0).to_json_dict()`` hashed the
same way, whose frame-2/frame-4 combination N (7 373 and 22 803 terms) is the
largest polynomial the package renders.

The ``classify`` snapshots guard ``solve_helix``: the frame-2/frame-4
certificate and the closed forms (circle, arc, order-two segment) at K > 0,
and the exact decision at K <= 0.  Floating-point evaluation order may
change under a refactor, so they are compared field by field rather than
byte for byte: counts, flags, certificates, closed forms and search
metadata exactly, curvatures to :data:`CURVATURE_TOL`, and every residual
must stay below the search tolerance.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polyhelix.classify import negative_K_scan, solve_helix
from polyhelix.cli import dispatch
from polyhelix.frenet import constraint_system

GOLDEN = Path(__file__).parent / "golden"
REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference.json"
TAU_DIGESTS = Path(__file__).parent / "tau_sha256.json"
TEXT_DIGESTS = Path(__file__).parent / "text_sha256.json"
SCAN_DIGESTS = Path(__file__).parent / "scan_sha256.json"
HIGH_ORDER_DIGESTS = Path(__file__).parent / "high_order_sha256.json"
HIGH_ORDERS = (9, 10)
DIGEST_ORDERS = range(2, 9)
TAU_FORMATS = ("text", "latex", "json")

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

TEXT_CASES = {
    **{f"verify_{c}": ["verify", "--curve", c] for c in VERIFY_CURVES},
    "verify_tri-hyperbola_y0.5": ["verify", "--curve", "tri-hyperbola", "--params", "y=0.5"],
    # a slow block: its period 2 pi / sqrt(y) dwarfs the fast block's
    "verify_tri-hyperbola_y1e-300": [
        "verify", "--curve", "tri-hyperbola", "--params", "y=1e-300",
    ],
    "verify_biharmonic-two-freq_a1.2_b0.8": [
        "verify", "--curve", "biharmonic-two-freq", "--params", "a2=1.2,b2=0.8",
    ],
    "conjecture_r3_alpha1": ["conjecture", "--order", "3", "--alpha", "1", "--beta-grid", "0:3:5"],
    "conjecture_r4_alpha1": ["conjecture", "--order", "4", "--alpha", "1", "--beta-grid", "0:2:5"],
}
REPRODUCE_KEY = "reproduce_criteria"

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

# 201 RK4 steps (an odd count) of a constant-curvature helix in R^4
INTEGRATE_CASES = {
    "integrate_helix_odd.csv": [
        "integrate", "--profile", "k1=0.6,k2=0.4,k3=0.3", "--span", "0:2.01", "--step", "0.01",
    ],
}


def test_every_golden_file_has_a_case():
    expected = [f"{name}.json" for name in {**CASES, **CLASSIFY_CASES}]
    expected += list(CONSERVE_CASES) + list(INTEGRATE_CASES)
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


@pytest.mark.parametrize("name", sorted(INTEGRATE_CASES))
def test_integrate_csv_is_byte_identical(capsys, name):
    assert dispatch(INTEGRATE_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def canonical_patterns(r: int) -> list[tuple[int, ...]]:
    """The full system and each upward-closed zero pattern of order ``r``."""
    m = 2 * r - 2
    return [()] + [tuple(range(t, m + 1)) for t in range(1, m + 1)]


def test_digest_cases_cover_the_reference():
    digests = json.loads(REFERENCE.read_text())["derive_sha256"]
    keys = [f"{r}/{','.join(map(str, z))}" for r in DIGEST_ORDERS for z in canonical_patterns(r)]
    assert len(keys) == 63
    assert sorted(keys) == sorted(digests)
    tau_digests = json.loads(TAU_DIGESTS.read_text())
    assert sorted(keys) == sorted(tau_digests)
    assert all(sorted(entry) == sorted(TAU_FORMATS) for entry in tau_digests.values())


@pytest.mark.parametrize("r", DIGEST_ORDERS)
def test_canonical_systems_match_reference_digests(r):
    digests = json.loads(REFERENCE.read_text())["derive_sha256"]
    for zeros in canonical_patterns(r):
        payload = constraint_system(r, set(zeros)).to_json_dict()
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        key = f"{r}/{','.join(map(str, zeros))}"
        assert hashlib.sha256(text.encode()).hexdigest() == digests[key], key


@pytest.mark.parametrize("r", DIGEST_ORDERS)
def test_tau_reports_match_digests(capsys, r):
    digests = json.loads(TAU_DIGESTS.read_text())
    for zeros in canonical_patterns(r):
        key = f"{r}/{','.join(map(str, zeros))}"
        for fmt in TAU_FORMATS:
            argv = ["tau", "--order", str(r), "--zeros", ",".join(map(str, zeros)),
                    "--format", fmt]
            assert dispatch(argv) == 0
            text = capsys.readouterr().out
            assert hashlib.sha256(text.encode()).hexdigest() == digests[key][fmt], (key, fmt)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("r", HIGH_ORDERS)
def test_highest_order_systems_match_digests(r):
    digests = json.loads(HIGH_ORDER_DIGESTS.read_text())
    assert sorted(digests, key=int) == [str(o) for o in HIGH_ORDERS]
    system = constraint_system(r)
    text = json.dumps(system.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert _sha256(text) == digests[str(r)]["json"]
    assert _sha256(system.render_latex()) == digests[str(r)]["latex"]
    report = json.dumps(solve_helix(r, 1.0).to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert _sha256(report) == digests[str(r)]["classify_K1"]


def test_text_digests_cover_the_cases():
    assert sorted(json.loads(TEXT_DIGESTS.read_text())) == sorted([*TEXT_CASES, REPRODUCE_KEY])


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_report_matches_digest(capsys, name):
    assert dispatch(TEXT_CASES[name]) == 0
    text = capsys.readouterr().out
    assert _sha256(text) == json.loads(TEXT_DIGESTS.read_text())[name]


def test_reproduce_criteria_match_digest(capsys):
    assert dispatch(["reproduce", "--json"]) == 0
    criteria = json.loads(capsys.readouterr().out)["payload"]["criteria"]
    triples = [[c["number"], c["passed"], c["detail"]] for c in criteria]
    text = json.dumps(triples, separators=(",", ":"))
    assert _sha256(text) == json.loads(TEXT_DIGESTS.read_text())[REPRODUCE_KEY]


def test_scan_digests_cover_the_orders():
    assert sorted(json.loads(SCAN_DIGESTS.read_text())) == [str(r) for r in DIGEST_ORDERS]


@pytest.mark.parametrize("r", DIGEST_ORDERS)
def test_negative_scan_matches_digest(r):
    payload = negative_K_scan(r, -1.0).to_json_dict()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert _sha256(text) == json.loads(SCAN_DIGESTS.read_text())[str(r)]


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
