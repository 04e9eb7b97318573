"""ctrllab benchmark.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all      every workload, one table each
  python3 perfbench/run.py --self-check        minimal size; checks metric names

Each workload runs in fresh Python processes (``perfbench/worker.py``) that
import ctrllab from ``src/`` with BLAS pinned to one thread.  ``--trace 0``
reports the end-to-end metrics: ``setup_s`` is the median over
``SETUP_SAMPLES`` fresh processes, the rates are medians over the passes of
one measuring process, and ``ok_trial_ratio`` is 1 - failed / attempted
trials.  ``--trace 1`` reports the per-layer metrics of a separate traced
run.  Times are scaled to a host of fixed speed by a reference kernel run
between passes (``REF_KERNEL_S`` in worker.py); the unscaled values are
printed too.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
environment included, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 7
# one measurement, all its processes included, ends within this many seconds
# beyond --seconds (set-up, the check pass and the last pass need about 6)
HEADROOM_S = 130

UNITS = {"trials_per_s": "trials/s", "cpu_ms_per_trial": "ms", "setup_s": "s",
         "peak_rss_mb": "MiB", "ok_trial_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else ref[5:]
    return ref


def spawn(workload: str, seed: int, seconds: float, mode: str, size: str,
          deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--size", size]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process for {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, size: str, setup_samples: int,
               deadline: float) -> dict:
    setups = [spawn(workload, seed, 0, "setup", size, deadline) for _ in range(setup_samples - 1)]
    run = spawn(workload, seed, seconds, "run", size, deadline)
    passes = run["passes"]
    setup_times = [s["setup_scaled_s"] for s in setups] + [run["setup_scaled_s"]]
    attempted = run["attempted"] + sum(s["attempted"] for s in setups)
    failed = run["failed"] + sum(s["failed"] for s in setups)
    values = {
        "trials_per_s": statistics.median(
            p["trials"] / (p["wall_s"] * p["wall_scale"]) for p in passes),
        "cpu_ms_per_trial": statistics.median(
            1e3 * p["cpu_s"] * p["cpu_scale"] / p["trials"] for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_trial_ratio": 1.0 - failed / attempted,
    }
    samples = {"trials_per_s": len(passes), "cpu_ms_per_trial": len(passes),
               "setup_s": len(setup_times), "peak_rss_mb": 1, "ok_trial_ratio": attempted}
    return {
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": run["problems"] + [p for s in setups for p in s["problems"]],
        "environment": run["environment"],
        "default_seed_digests": run["default_seed_digests"],
        "unscaled": {
            "trials_per_s": statistics.median(p["trials"] / p["wall_s"] for p in passes),
            "cpu_ms_per_trial": statistics.median(1e3 * p["cpu_s"] / p["trials"] for p in passes),
            "setup_s": statistics.median([s["setup_s"] for s in setups] + [run["setup_s"]]),
            "ref_kernel_ms": statistics.median(1e3 * p["ref_s"] for p in passes),
        },
        "passes": passes,
    }


def traced(workload: str, seed: int, seconds: float, size: str, deadline: float) -> dict:
    run = spawn(workload, seed, seconds, "trace", size, deadline)
    trace = run.pop("trace")
    samples = trace.pop("samples")
    run["samples"] = {name: samples for name in trace["metrics"]}
    run.update(trace)
    return run


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
            setup_samples: int = SETUP_SAMPLES) -> dict:
    deadline = time.monotonic() + seconds + HEADROOM_S
    if trace:
        result = traced(workload, seed, seconds, size, deadline)
    else:
        result = end_to_end(workload, seed, seconds, size, setup_samples, deadline)
    result["environment"]["git_commit"] = git_commit()
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}  correct={result['correct']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:9s} "
              f"samples={result['samples'][name]}")
    if "share_of_traced_trial_time" in result:
        shares = sorted(result["share_of_traced_trial_time"].items(), key=lambda kv: -kv[1])
        print("  share of traced per-trial wall time: "
              + ", ".join(f"{name} {share:.1%}" for name, share in shares if share >= 0.005))
        if result["untraced_functions"]:
            print(f"  not found, so not traced: {', '.join(result['untraced_functions'])}")
        if result["kalman_tests_per_trial_by_n"]:
            print("  minctrl Kalman tests per trial by n: "
                  f"{result['kalman_tests_per_trial_by_n']}")
    if "unscaled" in result:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items()))
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def save(workload: str, seed: int, trace: int, result: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def self_check() -> int:
    """Every workload at minimal size, both modes; every named metric must appear."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for name in SPEC["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = measure(name, SPEC["default_seed"], 0, trace, size="min", setup_samples=1)
            print_table(name, result)
            if not result["correct"]:
                missing.append(f"{name} trace={trace}: output checks failed")
            for entry in listed:
                got = result["metrics"].get(entry["name"])
                if got is None or not isinstance(got.get("value"), (int, float)):
                    missing.append(f"{name} trace={trace}: no value for {entry['name']}")
                elif not got.get("unit"):
                    missing.append(f"{name} trace={trace}: no unit for {entry['name']}")
    for line in missing:
        print(f"SELF-CHECK FAILED: {line}")
    if not missing:
        print("self-check ok")
    return 1 if missing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ctrllab benchmark")
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctrllab" / "cli.py").is_file():
        print(f"error: no ctrllab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            ok = True
            for name in SPEC["workloads"]:
                result = measure(name, args.seed, args.seconds, 0)
                save(name, args.seed, 0, result)
                print_table(name, result)
                ok = ok and result["correct"]
            print(json.dumps({"correct": ok}))
            return 0 if ok else 1
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(args.workload, args.seed, args.trace, result)
    print_table(args.workload, result)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
