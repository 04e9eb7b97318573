"""Run one ctrllab workload in this (fresh) process and print its measurements.

Started by ``perfbench/run.py``; the last line on stdout is one JSON object.
The process sends the workload's experiments one after another through
``ctrllab.cli.main(argv)``: a closed loop with a single caller and
``workers=1``, which is all the CLI offers.

Modes:
  setup  import ctrllab.cli, build and validate every config, run a one-trial
         warm-up, report the time taken, exit.
  run    set-up, one output-check pass at the default seed, then untraced
         passes until ``--seconds`` have elapsed.
  trace  set-up and check pass as in ``run``, then pairs of (untraced, traced)
         passes over the same inputs until ``--seconds`` have elapsed, then a
         repeat of the first traced pass, whose counts must match exactly.

Pass k runs every experiment with ``--seed seed + k * 2**32``, so a run
covers many independent inputs and the same seed always gives the same
sequence of inputs; pass 0 uses the seed itself.  Every pass is bracketed
by a fixed reference kernel whose speed scales the pass's times (see
REF_KERNEL_S).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
PASS_SEED_STRIDE = 1 << 32
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# On a shared 2-vCPU VM, host speed was measured to drift by up to +-40% in
# phases of seconds (neighbouring load), in CPU time as much as in wall time.
# Every pass is therefore bracketed by a fixed reference kernel, and its
# times are scaled to a host on which that kernel takes REF_KERNEL_S.
REF_KERNEL_S = 0.010


def _random_graph(n: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = int(rng.random() < 0.5)
    return a


_REF_A = _random_graph(24, seed=1506)


def reference_kernel() -> tuple[float, float]:
    """Fixed work resembling the workloads, independent of ctrllab: two
    big-int Kalman builds with fraction-free elimination on a fixed
    24-vertex graph, then seeded sampling and small symmetric
    eigenproblems.  Returns (wall, cpu) seconds."""
    import numpy as np

    wall0, cpu0 = time.perf_counter(), time.process_time()
    n = len(_REF_A)
    for start in range(2):
        cols = [[int(i == start) for i in range(n)]]
        for _ in range(n - 1):
            prev = cols[-1]
            cols.append([sum(_REF_A[i][j] * prev[j] for j in range(n)) for i in range(n)])
        rows = [[col[i] for col in cols] for i in range(n)]
        prev_pivot, row = 1, 0
        for c0 in range(n):
            pick = next((r for r in range(row, n) if rows[r][c0]), None)
            if pick is None:
                continue
            rows[row], rows[pick] = rows[pick], rows[row]
            pivot = rows[row][c0]
            for r in range(row + 1, n):
                factor, rr, pr = rows[r][c0], rows[r], rows[row]
                for c in range(c0 + 1, n):
                    rr[c] = (rr[c] * pivot - factor * pr[c]) // prev_pivot
            prev_pivot, row = pivot, row + 1
    ones = np.ones(12)
    for j in range(60):
        rng = np.random.default_rng(np.random.SeedSequence([j, 7]))
        m = np.zeros((12, 12))
        iu = np.triu_indices(12, 1)
        m[iu] = rng.normal(size=iu[0].size)
        m += m.T
        _, v = np.linalg.eigh(m)
        float(np.min(np.abs(v.T @ ones)))
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _with_flag(argv: list[str], name: str, value: str) -> list[str]:
    out = list(argv)
    out[out.index(name) + 1] = value
    return out


def cli_argv(argv: list[str], seed: int, trials: int | None = None) -> list[str]:
    if trials is not None:
        argv = _with_flag(argv, "--trials", str(trials))
    return list(argv) + ["--seed", str(seed), "--format", "json"]


def n_grid(argv: list[str]) -> list[int]:
    return [int(n) for n in _flag(argv, "--n").split(",")]


def trial_count(argv: list[str]) -> int:
    return len(n_grid(argv)) * int(_flag(argv, "--trials"))


def call(main, argv: list[str]) -> tuple[str | None, str | None]:
    """One CLI call with its output captured; returns (report text, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        return None, f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception:  # one failing experiment must not end the run
        return None, traceback.format_exc(limit=3)
    if code != 0:
        return None, f"exit {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


def rows_digest(rows: list[dict]) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(argv: list[str], text: str | None, error: str | None,
                 pinned: str | None) -> tuple[str | None, str | None]:
    """Output checks on one report; returns (rows digest, problem)."""
    if error is not None:
        return None, error
    doc = json.loads(text)
    rows = doc["rows"]
    digest = rows_digest(rows)
    if [row["n"] for row in rows] != n_grid(argv):
        return digest, f"rows cover n={[row['n'] for row in rows]}, expected {n_grid(argv)}"
    if sum(row["trials"] for row in rows) != trial_count(argv):
        return digest, "report trial count differs from the requested trials"
    agreement = doc.get("agreement")
    if agreement is not None and agreement["compared"] != agreement["agreed"]:
        return digest, f"exact/float disagreement: {agreement}"
    if pinned is not None and digest != pinned:
        return digest, f"rows digest {digest} differs from the pinned {pinned}"
    return digest, None


class Workload:
    """The experiments of one workload plus the run's failure bookkeeping."""

    def __init__(self, name: str, size: str) -> None:
        spec = SPEC["workloads"][name]
        self.name = name
        self.experiments: list[list[str]] = spec["experiments"]
        self.digests: list[str] = spec["digests"]
        self.trials = 1 if size == "min" else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._last_ref: tuple[float, float] | None = None

    def run_pass(self, main, seed: int, pin: bool = False) -> dict:
        """Send every experiment once, timed; then check each report.

        The reference kernel runs between passes; a pass's speed factors
        average the kernel runs on either side of it.
        """
        argvs = [cli_argv(argv, seed, self.trials) for argv in self.experiments]
        before = self._last_ref or reference_kernel()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs = [call(main, argv) for argv in argvs]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = self._last_ref = reference_kernel()
        ref_wall, ref_cpu = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
        # digests are pinned for the full-size experiments only
        pins = self.digests if pin and self.trials is None else [None] * len(argvs)
        if len(pins) != len(argvs):
            self.problems.append("spec.json pins no digest for some experiments")
            pins = [None] * len(argvs)
        digests, trials = [], 0
        for argv, (text, error), pinned in zip(argvs, outputs, pins):
            digest, problem = check_report(argv, text, error, pinned)
            count = trial_count(argv)
            trials += count
            self.attempted += count
            if problem is not None:
                self.failed += count
                self.problems.append(f"seed {seed} {' '.join(argv)}: {problem}")
            digests.append(digest)
        return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "trials": trials, "digests": digests,
                "ref_s": ref_wall, "wall_scale": REF_KERNEL_S / ref_wall,
                "cpu_scale": REF_KERNEL_S / ref_cpu}


def set_up(workload: Workload, seed: int):
    """Import the CLI, build and validate the configs, warm up; timed by the caller."""
    from ctrllab import cli
    from ctrllab.harness import make_scenario_config

    parser = cli.build_parser()
    for argv in workload.experiments:
        a = parser.parse_args(cli_argv(argv, seed, workload.trials))
        make_scenario_config(a.scenario, n_grid=a.n, trials=a.trials, p=a.p,
                             master_seed=a.seed, method=a.method, fmt=a.fmt)
    first = workload.experiments[0]
    warm = _with_flag(first, "--n", str(min(n_grid(first))))
    text, error = call(cli.main, cli_argv(warm, seed, trials=1))
    workload.attempted += 1
    if error is not None:
        workload.failed += 1
        workload.problems.append(f"warm-up: {error}")
    return cli


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS actually uses, read from numpy's bundled library."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads": _openblas_threads(),
    }


def timed_loop(seconds: float, step) -> None:
    """Call step(k) for k = 0, 1, ... until `seconds` have elapsed (at least once)."""
    start = time.perf_counter()
    k = 0
    while True:
        step(k)
        k += 1
        if time.perf_counter() - start >= seconds:
            break


def trace_passes(workload: Workload, cli, seed: int, seconds: float) -> dict:
    from tracer import UNITS, Tracer, kalman_tests_by_n, pass_counts, pass_self_ms

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)

    def traced_pass(pass_seed: int) -> tuple[dict, list, dict]:
        tracer.reset()
        tracer.install()
        try:
            stats = workload.run_pass(traced_main, pass_seed)
        finally:
            tracer.uninstall()
        return stats, list(tracer.spans), {k: list(v) for k, v in tracer.results.items()}

    untraced, traced, self_ms, shares, durations = [], [], [], [], []
    first: dict = {}

    def step(k: int) -> None:
        pass_seed = seed + k * PASS_SEED_STRIDE
        # alternate which of the pair runs first, so order effects cancel in the ratio
        if k % 2:
            stats, spans, results = traced_pass(pass_seed)
            plain = workload.run_pass(cli.main, pass_seed)
        else:
            plain = workload.run_pass(cli.main, pass_seed)
            stats, spans, results = traced_pass(pass_seed)
        if stats["digests"] != plain["digests"]:
            workload.problems.append(f"seed {pass_seed}: traced report rows differ from untraced")
        per_trial, trial_ms = pass_self_ms(spans, stats["trials"])
        wall_ms = 1e3 * stats["wall_s"] / stats["trials"]
        untraced.append(plain)
        traced.append(stats)
        self_ms.append({name: ms * stats["wall_scale"] for name, ms in per_trial.items()})
        shares.append({name: ms / wall_ms for name, ms in per_trial.items()})
        durations.extend(ms * stats["wall_scale"] for ms in trial_ms)
        if k == 0:
            first.update(spans=spans, counts=pass_counts(spans, results),
                         by_n=kalman_tests_by_n(spans, results))

    timed_loop(seconds, step)
    _, spans, results = traced_pass(seed)
    if pass_counts(spans, results) != first["counts"]:
        workload.problems.append("count metrics differ between two traced passes of one seed")

    metrics = dict(first["counts"])
    for name in self_ms[0]:
        metrics[name] = statistics.median(p[name] for p in self_ms)
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    metrics["harness.trial_ms_p50"], metrics["harness.trial_ms_p99"] = cuts[49], cuts[98]
    metrics["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] * t["wall_scale"] / (u["wall_s"] * u["wall_scale"])
        for t, u in zip(traced, untraced))
    share = {name: statistics.median(p[name] for p in shares) for name in shares[0]}

    origin = first["spans"][0][1]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{workload.name}.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, trial in first["spans"]:
            fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                 "parent": parent, "trial": trial}) + "\n")
    return {
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "samples": len(traced),
        "share_of_traced_trial_time": share,
        "kalman_tests_per_trial_by_n": first["by_n"],
        "untraced_functions": sorted(tracer.missing),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--size", choices=("full", "min"), default="full")
    args = parser.parse_args()

    # pinned before numpy loads; the default of two OpenBLAS threads doubles
    # CPU time here with no wall-time gain and makes float timings jumpier
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    workload = Workload(args.workload, args.size)

    t0 = time.perf_counter()
    cli = set_up(workload, args.seed)
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported ctrllab from {cli.__file__}, not from {src}")

    ref_wall = statistics.median(reference_kernel()[0] for _ in range(3))
    result: dict = {"setup_s": setup_s, "setup_scaled_s": setup_s * REF_KERNEL_S / ref_wall}
    if args.mode != "setup":
        result["environment"] = env = environment()
        if env["blas_threads"] not in (None, env["blas_threads_pinned"]):
            workload.problems.append(f"BLAS runs {env['blas_threads']} threads, "
                                     f"pinned {env['blas_threads_pinned']}")
        check = workload.run_pass(cli.main, SPEC["default_seed"], pin=True)
        result["default_seed_digests"] = check["digests"]
        if args.mode == "run":
            passes: list[dict] = []
            timed_loop(args.seconds, lambda k: passes.append(
                workload.run_pass(cli.main, args.seed + k * PASS_SEED_STRIDE)))
            result["passes"] = passes
        else:
            result["trace"] = trace_passes(workload, cli, args.seed, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=workload.attempted, failed=workload.failed,
                  problems=workload.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
