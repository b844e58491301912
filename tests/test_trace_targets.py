"""Every function the benchmark's span recorder wraps must exist.

``perfbench/spans.py`` resolves its ``TARGETS`` when a traced pass starts and
raises on a missing one; this test resolves them the same way, by attribute
lookup only, so a rename in the package fails here instead.  It does not call
``install()``, which would patch the modules for every later test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for module, path, _, _ in _targets()]
)
def test_trace_target_is_bound(module_name, path):
    owner = importlib.import_module(f"polyhelix.{module_name}")
    *classes, attribute = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(attribute)), f"polyhelix.{module_name}.{path}"
