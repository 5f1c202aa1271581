"""The benchmark's traced run (``bench/run.py --trace 1``) reports every
per-layer metric that BENCHMARK.json names, and fails outright when a
named function no longer exists. Each name must therefore stay a public
function of its quasilab module (or be ``operators.QuasiState``, whose
construction the trace times)."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TRACED = sorted(
    {
        metric["name"].rsplit(".", 1)[0]
        for metric in SPEC["per_layer"]
        if not metric["name"].startswith(("numpy.", "trace.")) and ".ms.d" not in metric["name"]
    }
)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_public_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"quasilab.{layer}")
    obj = getattr(module, attr, None)
    if name == "operators.QuasiState":
        assert inspect.isclass(obj) and hasattr(obj, "__post_init__")
        return
    # the functions the trace wraps: defined in the module, not private
    assert not attr.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__, f"{name} is not a function of its module"
