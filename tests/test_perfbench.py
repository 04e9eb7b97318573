"""The benchmark tracer binds functions of ctrllab by name; a rename or a
deletion there would leave the tracer's per-layer metrics reading 0, so
every bound name is checked here against the package.  The benchmark's
experiments pin the digests of their report rows; the benchmark checks
them only at full size, so they are checked here too."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

from ctrllab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_benchmark_experiments_keep_their_pinned_digests(capsys):
    # each experiment as the benchmark runs it: its argv plus --seed and
    # --format json, and the sha256 of its rows as canonical JSON
    spec = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))
    seed = str(spec["default_seed"])
    checked = 0
    for name, workload in spec["workloads"].items():
        assert len(workload["experiments"]) == len(workload["digests"]), name
        for argv, pinned in zip(workload["experiments"], workload["digests"]):
            assert main(argv + ["--seed", seed, "--format", "json"]) == 0, argv
            rows = json.loads(capsys.readouterr().out)["rows"]
            text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned, (name, argv)
            checked += 1
    assert checked == 6
