"""The benchmark's workloads: the operations one pass runs.  Why each
workload exists is recorded in README.md and BENCHMARK.json.

Each operation is a dict with an ``id``, either CLI ``argv`` or ``scan``
keyword arguments for ``classify.negative_K_scan``, and the ``check`` its
output must pass (see ``checks.py``).  The harness adds the output path.
"""

from __future__ import annotations

NAMES = ("reproduce", "solve-sweep", "derive-sweep")

SOLVE_FULL_ORDERS = (3, 4, 5)
SOLVE_PATTERN_ORDERS = (3, 4, 5, 6)
DERIVE_ORDERS = range(2, 9)


def canonical_patterns(r: int) -> list[tuple[int, ...]]:
    """The full system and each upward-closed zero pattern of order r: the
    2r - 1 systems every other zero pattern reduces to."""
    m = 2 * r - 2
    return [()] + [tuple(range(t, m + 1)) for t in range(1, m + 1)]


def system_key(r: int, zeros: tuple[int, ...]) -> str:
    return f"{r}/{','.join(map(str, zeros))}"


def _classify(r: int, zeros: tuple[int, ...], seed: int, check: dict) -> dict:
    zero_text = ",".join(map(str, zeros))
    return {
        "id": f"classify r={r} K=1 zeros={{{zero_text}}}",
        "argv": ["classify", "--order", str(r), "--K", "1", "--zeros", zero_text,
                 "--trials", "1000", "--json", "--seed", str(seed)],
        "check": {"system": system_key(r, zeros), **check},
    }


def operations(workload: str, seed: int) -> list[dict]:
    if workload == "reproduce":
        return [{
            "id": "reproduce",
            "argv": ["reproduce", "--json", "--seed", str(seed)],
            "check": {"kind": "reproduce"},
        }]
    if workload == "solve-sweep":
        ops = [_classify(r, (), seed, {"kind": "roots"}) for r in SOLVE_FULL_ORDERS]
        ops += [_classify(r, (2,), seed, {"kind": "isolated", "k1_squared": r - 1})
                for r in SOLVE_PATTERN_ORDERS]
        ops += [_classify(r, (3,), seed, {"kind": "family"}) for r in SOLVE_PATTERN_ORDERS]
        ops.append({
            "id": "negative_K_scan r=5 K=-1",
            "scan": {"r": 5, "K": -1.0, "trials": 1000, "seed": seed},
            "check": {"kind": "negative", "order": 5},
        })
        return ops
    if workload == "derive-sweep":
        return [
            {
                "id": f"tau r={r} zeros={{{','.join(map(str, zeros))}}}",
                "argv": ["tau", "--order", str(r), "--zeros", ",".join(map(str, zeros)),
                         "--format", "json", "--seed", str(seed)],
                "check": {"kind": "derive", "system": system_key(r, zeros)},
            }
            for r in DERIVE_ORDERS
            for zeros in canonical_patterns(r)
        ]
    raise ValueError(f"unknown workload {workload!r}")
