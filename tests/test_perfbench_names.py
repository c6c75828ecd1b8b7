"""Every library name the benchmark tracer wraps must exist.

``perfbench/spans.py`` wraps a fixed list of fairsketch functions by name
(``TRACED``); a rename or deletion there would only surface as a crash of a
traced benchmark run. The module imports only the standard library, so it is
loaded here straight from its path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _load_traced()


@pytest.mark.parametrize("name", [f"{layer}.{attr}" for layer, attrs in TRACED.items() for attr in attrs])
def test_traced_name_resolves(name):
    layer, attr = name.split(".", 1)
    target = importlib.import_module(f"fairsketch.{layer}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)

