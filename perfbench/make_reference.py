"""Capture ``reference.json``: the rendered constraint systems the output
checks compare against.

Usage, from the repository root:  python3 perfbench/make_reference.py

Stores the digest of every derive-sweep system and, in full, the systems
whose roots the solve-sweep checks evaluate.  Re-run it only when a change
is meant to alter the rendered systems, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import polyhelix
    import polyhelix.cli

    scratch = root / ".perfbench" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)

    def render(r: int, zeros: tuple[int, ...]) -> dict:
        out = scratch / "tau.json"
        code = polyhelix.cli.dispatch(
            ["tau", "--order", str(r), "--zeros", ",".join(map(str, zeros)),
             "--format", "json", "--out", str(out)]
        )
        if code != 0:
            raise RuntimeError(f"tau r={r} zeros={zeros} exited {code}")
        return json.loads(out.read_text())["payload"]

    digests = {
        workloads.system_key(r, zeros): checks.payload_digest(render(r, zeros))
        for r in workloads.DERIVE_ORDERS
        for zeros in workloads.canonical_patterns(r)
    }
    solve_systems = [(r, ()) for r in workloads.SOLVE_FULL_ORDERS]
    solve_systems += [(r, z) for z in ((2,), (3,)) for r in workloads.SOLVE_PATTERN_ORDERS]
    systems = {workloads.system_key(r, z): render(r, z) for r, z in solve_systems}
    shutil.rmtree(scratch)

    reference = {
        "captured_with": f"polyhelix {polyhelix.__version__}",
        "derive_sha256": digests,
        "systems": systems,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests and {len(systems)} systems to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
