"""The benchmark tracer binds functions of ctrllab by name; a rename or a
deletion there would leave the tracer's per-layer metrics reading 0, so
every bound name is checked here against the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_in_ctrllab():
    traced = load_tracer().TRACED
    assert traced
    missing = [f"{home}.{attr}" for home, attr in traced
               if not callable(getattr(importlib.import_module(f"ctrllab.{home}"), attr, None))]
    assert missing == []
