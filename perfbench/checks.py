"""Output checks for every benchmark operation.

Each check reads the file an operation wrote and returns ``None`` when the
output is right, or a one-line reason when it is not.  The checks hold for
any seed.  Roots are evaluated here, by a small evaluator of the rendered
polynomials in ``reference.json``, not read from the run's own ``residual``
field; derived systems are compared with the renderings captured in
``reference.json`` (exact arithmetic, so byte equality is the right test).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ROOT_TOL = 1e-9          # |f(k)| relative to the sum of |term| (at least 1)
K1_SQUARED_TOL = 1e-9
CRITERIA = list(range(1, 13))


def payload_digest(payload: object) -> str:
    """SHA-256 of the canonical JSON of a payload: equal digests mean every
    rendered polynomial is equal byte for byte."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def evaluate(text: str, ks: list[float], K: float) -> tuple[float, float]:
    """Value of a rendered polynomial such as ``k1^4 - 2*K*k1^2`` at the
    curvatures ``ks`` and ambient curvature ``K``, with the sum of the
    absolute term values as its scale."""
    if text == "0":
        return 0.0, 0.0
    pieces = re.split(r" ([+-]) ", text)
    signed = [("-", pieces[0][1:]) if pieces[0].startswith("-") else ("+", pieces[0])]
    signed += zip(pieces[1::2], pieces[2::2])
    total = scale = 0.0
    for sign, term in signed:
        value = 1.0
        for factor in term.split("*"):
            name, _, exponent = factor.partition("^")
            power = int(exponent) if exponent else 1
            if name == "K":
                value *= K**power
            elif name.startswith("k"):
                value *= ks[int(name[1:]) - 1] ** power
            else:
                value *= float(Fraction(name))
        total += value if sign == "+" else -value
        scale += abs(value)
    return total, scale


class Checker:
    """Checks operation outputs against the captured reference.json."""

    def __init__(self):
        self.reference = json.loads(REFERENCE_PATH.read_text())

    def check(self, spec: dict, path: Path) -> str | None:
        try:
            body = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            return f"unreadable output: {error}"
        try:
            if spec["kind"] == "reproduce":
                return self._reproduce(body)
            if spec["kind"] == "derive":
                return self._derive(spec, body["payload"])
            if spec["kind"] == "negative":
                return self._negative(spec, body)
            return self._classify(spec, body["payload"])
        except (KeyError, IndexError, TypeError, ValueError) as error:
            return f"malformed output: {type(error).__name__}: {error}"

    def _reproduce(self, body: dict) -> str | None:
        criteria = body["payload"]["criteria"]
        numbers = [c["number"] for c in criteria]
        if numbers != CRITERIA:
            return f"criteria {numbers}, expected {CRITERIA}"
        failed = [c["number"] for c in criteria if c["passed"] is not True]
        if failed:
            return f"criteria {failed} failed"
        if body["payload"]["passed"] is not True or body.get("passed") is not True:
            return "report not marked passed"
        return None

    def _derive(self, spec: dict, payload: dict) -> str | None:
        expected = self.reference["derive_sha256"][spec["system"]]
        if payload_digest(payload) != expected:
            return f"system {spec['system']} differs from its reference rendering"
        return None

    def _roots_satisfy(self, system: dict, solutions: list[dict], K: float) -> str | None:
        r = system["order"]
        for number, solution in enumerate(solutions):
            ks = solution["curvatures"]
            if len(ks) != 2 * r - 2:
                return f"root {number} has {len(ks)} curvatures"
            if not all(math.isfinite(k) and k >= 0 for k in ks):
                return f"root {number} has a negative or non-finite curvature"
            if any(ks[i - 1] != 0 for i in system["zero_pattern"]):
                return f"root {number} breaks the zero pattern"
            for equation in system["equations"]:
                value, scale = evaluate(equation["factored"], ks, K)
                if abs(value) > ROOT_TOL * max(1.0, scale):
                    return f"root {number} leaves F{equation['frame']} at {value:.3e}"
        return None

    def _classify(self, spec: dict, payload: dict) -> str | None:
        system = self.reference["systems"][spec["system"]]
        if (payload["order"], payload["K"]) != (system["order"], 1.0):
            return "report is for another order or K"
        if payload["zero_pattern"] != system["zero_pattern"]:
            return "report is for another zero pattern"
        solutions = payload["solutions"]
        reason = self._roots_satisfy(system, solutions, 1.0)
        if reason is not None:
            return reason
        if spec["kind"] == "isolated":
            proper = [s["curvatures"][0] for s in solutions if s["curvatures"][0] > 0]
            if len(proper) != 1:
                return f"{len(proper)} proper roots, expected exactly one"
            if abs(proper[0] ** 2 - spec["k1_squared"]) > K1_SQUARED_TOL:
                return f"k1^2 = {proper[0] ** 2!r}, expected {spec['k1_squared']}"
        if spec["kind"] == "family" and payload["search"]["underdetermined"] is not True:
            return "family pattern not flagged underdetermined"
        return None

    def _negative(self, spec: dict, body: dict) -> str | None:
        r = spec["order"]
        m = 2 * r - 2
        if (body["order"], body["K"]) != (r, -1.0):
            return "scan is for another order or K"
        patterns = body["patterns"]
        if len(patterns) != 2 * r - 1:
            return f"{len(patterns)} patterns, expected {2 * r - 1}"
        proper = sum(s["curvatures"][0] > 0 for p in patterns for s in p["solutions"])
        if proper or body["proper_solutions"]:
            return f"{proper} proper solutions at K = -1"
        if not body["witness"].strip():
            return "empty witness"
        for pattern in patterns:
            if len(pattern["zero_pattern"]) == m:
                if [s["curvatures"] for s in pattern["solutions"]] != [[0.0] * m]:
                    return "all-zero pattern does not give exactly the geodesic"
            elif not pattern["infeasibility_certificates"]:
                return f"pattern {pattern['zero_pattern']} has no certificate"
        return None
