"""Outside-in span tracer for the ctrllab layers.

No ctrllab source is edited.  :meth:`Tracer.install` replaces each public
layer function with a timing wrapper in every ctrllab namespace that binds
the original object, so both cross-module calls (``harness.kalman_matrix``)
and internal ones (``is_controllable_exact`` -> ``exact.kalman_matrix``) are
seen; :meth:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory as ``(name, start, end, parent, trial)`` tuples, where ``parent`` is
the index of the enclosing span (-1 at top level) and ``trial`` is shared by
every span opened inside one ``run_trial`` call.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

LAYER_MODULES = ("seeding", "ensembles", "spectral", "exact", "minctrl", "harness", "cli")

# (defining module, function) -> span name.  Several functions may share a
# span name when they do the same job for the layer.
TRACED = {
    ("ensembles", "sample_ensemble"): "ensembles.sample",
    ("ensembles", "sample_vector"): "ensembles.sample",
    ("spectral", "eig_sym"): "spectral.eig",
    ("spectral", "pbh_controllable"): "spectral.pbh",
    ("exact", "kalman_matrix"): "exact.kalman",
    ("exact", "rank_exact"): "exact.rank",
    ("exact", "is_controllable_exact"): "exact.controllable",
    ("exact", "charpoly_exact"): "exact.charpoly",
    ("exact", "has_simple_spectrum_exact"): "exact.simple_spectrum",
    ("minctrl", "basis_scan"): "minctrl.basis_scan",
    ("minctrl", "sparsest_input"): "minctrl.sparsest_input",
    ("harness", "run_trial"): "harness.trial",
    ("harness", "run_experiment"): "harness.run_experiment",
    ("harness", "report_csv"): "harness.report",
    ("harness", "report_json"): "harness.report",
}
# Return values inspected after the pass, outside every timed span.
KEEP_RESULTS = {"exact.kalman", "minctrl.sparsest_input", "harness.trial"}

# per-trial self time (ms) of these span names -> per-layer metric
SELF_MS = {
    "seeding.generator_ms": ("seeding.generator",),
    "ensembles.sample_ms": ("ensembles.sample",),
    "spectral.eig_ms": ("spectral.eig",),
    "spectral.pbh_ms": ("spectral.pbh",),
    "exact.kalman_ms": ("exact.kalman",),
    "exact.rank_ms": ("exact.rank",),
    "exact.controllable_ms": ("exact.controllable",),
    "exact.charpoly_ms": ("exact.charpoly",),
    "exact.simple_spectrum_ms": ("exact.simple_spectrum",),
    "minctrl.self_ms": ("minctrl.basis_scan", "minctrl.sparsest_input"),
    "harness.trial_self_ms": ("harness.trial",),
    "harness.aggregate_ms": ("harness.run_experiment",),
    "harness.report_ms": ("harness.report",),
    "cli.self_ms": ("cli.main",),
}
# span count per pass -> per-layer metric
CALLS = {
    "seeding.generator_calls": "seeding.generator",
    "ensembles.sample_calls": "ensembles.sample",
    "spectral.eig_calls": "spectral.eig",
    "exact.kalman_calls": "exact.kalman",
    "exact.rank_calls": "exact.rank",
    "exact.controllable_calls": "exact.controllable",
    "exact.simple_spectrum_calls": "exact.simple_spectrum",
    "minctrl.scan_calls": "minctrl.basis_scan",
}
UNITS = {
    "exact.kalman_entry_bits_max": "bits",
    "minctrl.kalman_tests_per_trial": "count",
    "minctrl.supports_tested": "count",
    "spectral.indeterminate_ratio": "ratio",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in CALLS},
}


class Tracer:
    """Collects spans for one pass at a time while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._trial = None
        self._next_trial = 0
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = self.results.setdefault(name, []) if name in KEEP_RESULTS else None
        opens_trial = name == "harness.trial"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if opens_trial:
                outer = self._trial
                self._trial = self._next_trial
                self._next_trial += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._trial)
                if opens_trial:
                    self._trial = outer
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every layer namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"ctrllab.{m}") for m in LAYER_MODULES]
        modules.append(importlib.import_module("ctrllab"))
        for (home, attr), name in TRACED.items():
            original = getattr(importlib.import_module(f"ctrllab.{home}"), attr, None)
            if original is None:  # renamed or removed; its metrics read 0
                self.missing.add(f"{home}.{attr}")
                continue
            wrapped = self.wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        seed_path = importlib.import_module("ctrllab.seeding").SeedPath
        self._saved.append((seed_path, "generator", seed_path.generator))
        seed_path.generator = self.wrap("seeding.generator", seed_path.generator)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        """Drop the spans and results of the previous pass."""
        self.spans.clear()
        for kept in self.results.values():
            kept.clear()
        self._next_trial = 0


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def pass_counts(spans, results) -> dict:
    """Count-type metrics of one traced pass; they depend only on the inputs."""
    names = Counter(span[0] for span in spans)
    counts = {metric: names[name] for metric, name in CALLS.items()}
    bits = 0
    for kalman in results.get("exact.kalman", ()):
        bits = max(bits, max((abs(int(x)) for x in kalman.flat), default=0).bit_length())
    counts["exact.kalman_entry_bits_max"] = bits
    counts["minctrl.supports_tested"] = sum(
        r.supports_tested for r in results.get("minctrl.sparsest_input", ()))
    float_verdicts = [v for rec in results.get("harness.trial", ())
                      for key, v in rec.verdicts.items() if key.startswith("float")]
    counts["spectral.indeterminate_ratio"] = (
        sum(v == "indeterminate" for v in float_verdicts) / len(float_verdicts)
        if float_verdicts else 0.0)
    tests, trials = _kalman_tests_under_minctrl(spans)
    counts["minctrl.kalman_tests_per_trial"] = sum(tests.values()) / len(trials) if trials else 0.0
    return counts


def _kalman_tests_under_minctrl(spans):
    """Exact Kalman tests issued from minctrl, keyed by trial id."""
    inside = [False] * len(spans)
    tests: Counter = Counter()
    trials = set()
    for i, (name, _, _, parent, trial) in enumerate(spans):
        # a parent is appended before its children, so its flag is final here
        inside[i] = name.startswith("minctrl.") or (parent >= 0 and inside[parent])
        if name.startswith("minctrl."):
            trials.add(trial)
        if name == "exact.controllable" and parent >= 0 and inside[parent]:
            tests[trial] += 1
    return tests, trials


def kalman_tests_by_n(spans, results) -> dict:
    """minctrl Kalman tests per trial for each dimension n."""
    tests, trials = _kalman_tests_under_minctrl(spans)
    dims = {i: rec.n for i, rec in enumerate(results.get("harness.trial", ()))}
    per_n: dict[int, list[int]] = {}
    for trial in trials:
        per_n.setdefault(dims[trial], []).append(tests[trial])
    return {str(n): statistics.fmean(v) for n, v in sorted(per_n.items())}


def pass_self_ms(spans, trials: int) -> tuple[dict, list[float]]:
    """Per-trial self time (ms) by metric, plus inclusive trial durations (ms)."""
    own = self_times(spans)
    by_name: Counter = Counter()
    for span, t in zip(spans, own):
        by_name[span[0]] += t
    per_trial = {metric: 1e3 * sum(by_name[n] for n in names) / trials
                 for metric, names in SELF_MS.items()}
    durations = [1e3 * (end - start) for name, start, end, _, _ in spans
                 if name == "harness.trial"]
    return per_trial, durations
