"""The benchmark tracer binds functions of ctrllab by name; a rename or a
deletion there would leave the tracer's per-layer metrics reading 0, so
every bound name is checked here against the package.  The benchmark's
experiments pin the digests of their report rows; the benchmark checks
them only at full size, so they are checked here too."""

import hashlib
import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

from ctrllab import harness
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


def test_tracer_sees_the_chunk_work():
    # a chunk is drawn and decided through the public samplers and
    # pbh_controllable, the functions the tracer binds, so their spans open
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        opened, chunks = {}, {}
        for name in ("thm-wigner-basis", "cor-gnp-rand"):
            config = harness.make_scenario_config(name, n_grid=(8,), trials=3)
            tracer.reset()
            harness.run_experiment(config)
            opened[name] = Counter(span[0] for span in tracer.spans)
            chunks[name] = len(harness._chunks(config, 8))
    finally:
        tracer.uninstall()
    assert all(spans["spectral.pbh"] > 0 for spans in opened.values())
    assert opened["thm-wigner-basis"]["ensembles.sample"] >= chunks["thm-wigner-basis"] >= 1


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


def test_tracer_keys_minctrl_work_by_trial():
    # the tracer keys each minctrl span by the run_trial span around it, so
    # chunk work of minctrl-gnp must run inside a trial: pass_counts and
    # kalman_tests_by_n raise KeyError(None) on a minctrl span outside one
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        config = harness.make_scenario_config("minctrl-gnp", n_grid=(10, 12), trials=20,
                                              master_seed=1506)
        tracer.reset()
        harness.run_experiment(config)
        counts = module.pass_counts(tracer.spans, tracer.results)
        by_n = module.kalman_tests_by_n(tracer.spans, tracer.results)
    finally:
        tracer.uninstall()
    trials = [span for span in tracer.spans if span[0] == "harness.trial"]
    assert len(trials) == 40
    assert all(span[4] is not None for span in tracer.spans if span[0].startswith("minctrl."))
    assert counts["minctrl.supports_tested"] > 0
    assert counts["minctrl.scan_calls"] == 2  # one basis scan per chunk, one chunk per n
    # each scan decides its spectra through the public spectrum test, which
    # the tracer binds, so that per-layer metric is fed
    assert counts["exact.simple_spectrum_calls"] == 2
    assert set(by_n) == {"10", "12"}
