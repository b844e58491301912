"""The README's library example runs and prints what its comments say.

The example is the ``python`` block under ``## Library example``.  Each
comment line of it, and the trailing comment of each ``print`` call, states
one printed line; the printed lines must contain them, in order.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def stated_lines(code: str) -> list[str]:
    stated = []
    for line in code.splitlines():
        text = line.strip()
        if text.startswith("# "):
            stated.append(text[2:])
        elif text.startswith("print(") and "  # " in text:
            stated.append(text.split("  # ", 1)[1].strip())
    return stated


def test_library_example_prints_what_it_states():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    stated = stated_lines(code)
    assert len(stated) == 4
    printed = iter(out.getvalue().splitlines())
    # each stated line is printed, after the one stated before it
    assert all(line in printed for line in stated)
