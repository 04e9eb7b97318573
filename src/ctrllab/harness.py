"""Reproducible Monte Carlo experiments over the scenario presets.

Each preset ties one probabilistic statement about random systems to a
concrete experiment: sample a matrix (and input vector) per trial, decide
controllability with the configured method, and aggregate success
frequencies with Wilson 95% intervals over a grid of dimensions.

Per-trial seeds are derived from (master seed, scenario, n, trial index), so
grids can be extended and trials re-run in isolation without perturbing any
other draw, and reports are identical under any parallel schedule.

Scenario ids
------------
conj1              G(n,p): all standard basis inputs controllable at once
conj2              G(n,p) with the all-ones input (open conjecture; measured only)
thm-wigner-basis   Wigner matrix: all standard basis inputs at once
thm-wigner-rand    Wigner matrix with an iid random input
thm-wigner-sphere  Wigner matrix with a uniform unit-sphere input
cor-gnp-rand       G(n,p) with a Bernoulli input and a sphere input (both must pass)
thm-goe            GOE with a fixed basis input
kn-allones         complete graph with the all-ones input (deterministically
                   uncontrollable; regression fixture)
diag-mingap        distribution probe: minimal eigenvalue gap
diag-smallball     distribution probe: small-ball probability of an eigenvector
diag-norm          distribution probe: spectral norm over sqrt(n)
minctrl-gnp        exact sparsest-input search on G(n,p)
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .ensembles import (
    Atom,
    EnsembleSpec,
    VectorSpec,
    sample_ensemble,
    sample_vector,
)
from .exact import DEFAULT_EXACT_CAP, kalman_ranks_exact
from .minctrl import sparsest_input
from .seeding import SeedPath
from .spectral import (
    CONTROLLABLE,
    INDETERMINATE,
    UNCONTROLLABLE,
    Tolerances,
    eig_sym,
    min_gap,
    pbh_controllable,
    small_ball_estimate,
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ReportRow",
    "ExperimentReport",
    "SCENARIOS",
    "scenario_presets",
    "make_scenario_config",
    "run_trial",
    "run_experiment",
    "report_emit",
    "wilson_interval",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # at the boundaries the score bounds are algebraically exact; avoid
    # rounding the interval off its own frequency
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_METHODS = ("exact", "float-pbh", "both")
_FORMATS = ("csv", "json")


@dataclass
class ExperimentConfig:
    """Complete description of one experiment.

    `params` carries scenario-specific knobs (bands, small-ball sample
    counts, search depth); everything else is common bookkeeping.
    """

    scenario: str
    ensemble: EnsembleSpec
    vector: VectorSpec | None
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int = 12345
    method: str = "float-pbh"
    p: float | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    exact_cap: int = DEFAULT_EXACT_CAP
    params: dict = field(default_factory=dict)
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; known: {sorted(SCENARIOS)}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError(f"n-grid must be strictly increasing, got {self.n_grid}")
        if any(n < 1 for n in self.n_grid):
            raise ValueError(f"dimensions must be >= 1, got {self.n_grid}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.fmt!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.method == "exact":
            if not _exact_applicable(self):
                raise ValueError(f"scenario {self.scenario!r} cannot run on the exact path "
                                 "(non-integer matrix or input)")
            over = [n for n in self.n_grid if n > self.exact_cap]
            if over:
                raise ValueError(f"method=exact but n-grid {over} exceeds exact cap {self.exact_cap}")
        if self.scenario in _STRICT_P_SCENARIOS and not 0.0 < (self.p or 0.0) < 1.0:
            raise ValueError(f"scenario {self.scenario!r} requires 0 < p < 1, got {self.p}")
        if self.scenario == "diag-smallball" and self.params.get("m", _SMALLBALL_M) < 1000:
            raise ValueError("diag-smallball needs params.m >= 1000")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "ensemble": self.ensemble.to_dict(),
            "vector": self.vector.to_dict() if self.vector is not None else None,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "method": self.method,
            "p": self.p,
            "tolerances": self.tolerances.to_dict(),
            "exact_cap": self.exact_cap,
            "params": dict(self.params),
            "workers": self.workers,
            "out": self.out,
            "format": self.fmt,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            scenario=d["scenario"],
            ensemble=EnsembleSpec.from_dict(d["ensemble"]),
            vector=VectorSpec.from_dict(d["vector"]) if d.get("vector") else None,
            n_grid=tuple(d["n_grid"]),
            trials=d["trials"],
            master_seed=d.get("master_seed", 12345),
            method=d.get("method", "float-pbh"),
            p=d.get("p"),
            tolerances=Tolerances.from_dict(d["tolerances"]) if "tolerances" in d else Tolerances(),
            exact_cap=d.get("exact_cap", DEFAULT_EXACT_CAP),
            params=dict(d.get("params", {})),
            workers=d.get("workers", 1),
            out=d.get("out"),
            fmt=d.get("format", "csv"),
        )


@dataclass
class TrialRecord:
    """Outcome of one trial; equality ignores wall time.

    (master_seed, scenario, n, trial) is the full seed lineage: feeding the
    same four values back into :func:`run_trial` reproduces the record.
    """

    scenario: str
    n: int
    trial: int
    master_seed: int
    success: bool
    indeterminate: bool
    verdicts: dict[str, str]
    witnesses: dict[str, float]
    wall_time: float = field(compare=False, default=0.0)

    def seed_path(self) -> SeedPath:
        return SeedPath(self.master_seed).child(self.scenario, self.n, self.trial)


@dataclass
class ReportRow:
    """One (scenario, n) aggregate; mirrors the CSV schema exactly."""

    scenario: str
    n: int
    p: float | None
    trials: int
    successes: int
    indeterminates: int
    frequency: float
    ci_lo: float
    ci_hi: float
    method: str
    seed: int
    gap_tol: float
    ortho_tol: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "n": self.n, "p": self.p,
            "trials": self.trials, "successes": self.successes,
            "indeterminates": self.indeterminates, "frequency": self.frequency,
            "ci_lo": self.ci_lo, "ci_hi": self.ci_hi, "method": self.method,
            "seed": self.seed, "gap_tol": self.gap_tol, "ortho_tol": self.ortho_tol,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReportRow":
        return cls(**d)


@dataclass
class ExperimentReport:
    """Aggregated frequencies plus the config echo and tool version."""

    version: str
    config: dict
    rows: list[ReportRow]
    agreement: dict | None = None

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "rows": [r.to_dict() for r in self.rows],
            "agreement": self.agreement,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(version=d["version"], config=d["config"],
                   rows=[ReportRow.from_dict(r) for r in d["rows"]],
                   agreement=d.get("agreement"))


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

def _exact_applicable(config: ExperimentConfig) -> bool:
    if config.scenario == "minctrl-gnp":
        return config.ensemble.integer_valued
    vector_ok = config.vector is None or config.vector.integer_valued
    return config.ensemble.integer_valued and vector_ok


def _methods_for(config: ExperimentConfig, n: int) -> list[str]:
    if config.method == "exact":
        return ["exact"]
    if config.method == "float-pbh":
        return ["float"]
    if _exact_applicable(config) and n <= config.exact_cap:
        return ["exact", "float"]
    return ["float"]


def _exact_pair_verdict(a, b, cap: int | None) -> tuple[str, int]:
    """Exact decision plus the Kalman rank witness."""
    bv = np.asarray(b)
    (rank,) = kalman_ranks_exact(a, bv.reshape(-1, 1), cap)
    return (CONTROLLABLE if rank == bv.size else UNCONTROLLABLE), rank


def _float_witnesses(witnesses: dict, verdict, eigsys) -> None:
    witnesses["min_gap"] = verdict.min_gap
    witnesses["min_abs_inner"] = verdict.min_abs_inner
    witnesses["norm_a"] = float(np.max(np.abs(eigsys.eigenvalues)))


def _trial_single_vector(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    b = sample_vector(config.vector, n, path.child("vector"))
    methods = _methods_for(config, n)
    verdicts: dict[str, str] = {}
    witnesses: dict[str, float] = {}
    if "float" in methods:
        eigsys = eig_sym(np.asarray(a, dtype=np.float64), label=str(path.labels))
        fv = pbh_controllable(None, b, config.tolerances, eigsys=eigsys)
        verdicts["float"] = fv.decision
        _float_witnesses(witnesses, fv, eigsys)
    if "exact" in methods:
        decision, rank = _exact_pair_verdict(a, b, config.exact_cap)
        verdicts["exact"] = decision
        witnesses["rank"] = float(rank)
    deciding = verdicts["exact"] if "exact" in verdicts else verdicts["float"]
    return deciding == CONTROLLABLE, deciding == INDETERMINATE, verdicts, witnesses


def _all_basis_float(eigsys, tol: Tolerances) -> tuple[str, float, float]:
    """Aggregate per-basis verdicts from one factorization (n row sweeps)."""
    w, v = eigsys.eigenvalues, eigsys.eigenvectors
    scale = max(1.0, float(np.max(np.abs(w))))
    gap = min_gap(w)
    row_min = np.min(np.abs(v), axis=1)  # row i: min_j |v_j[i]| = min inner with e_i
    worst = float(np.min(row_min))
    if worst < tol.ortho_reject or gap < tol.gap_reject * scale:
        return UNCONTROLLABLE, gap, worst
    if gap > tol.gap_tol * scale and worst > tol.ortho_tol:
        return CONTROLLABLE, gap, worst
    return INDETERMINATE, gap, worst


def _trial_all_basis(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    methods = _methods_for(config, n)
    verdicts: dict[str, str] = {}
    witnesses: dict[str, float] = {}
    if "float" in methods:
        eigsys = eig_sym(np.asarray(a, dtype=np.float64), label=str(path.labels))
        decision, gap, worst = _all_basis_float(eigsys, config.tolerances)
        verdicts["float"] = decision
        witnesses["min_gap"] = gap
        witnesses["min_abs_inner"] = worst
        witnesses["norm_a"] = float(np.max(np.abs(eigsys.eigenvalues)))
    if "exact" in methods:
        ranks = kalman_ranks_exact(a, np.eye(n, dtype=np.int64), config.exact_cap)
        verdicts["exact"] = CONTROLLABLE if all(r == n for r in ranks) else UNCONTROLLABLE
        witnesses["rank"] = float(min(ranks))
    deciding = verdicts["exact"] if "exact" in verdicts else verdicts["float"]
    return deciding == CONTROLLABLE, deciding == INDETERMINATE, verdicts, witnesses


def _trial_two_vectors(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    b = sample_vector(config.vector, n, path.child("vector"))
    u = sample_vector(VectorSpec.uniform_sphere(), n, path.child("sphere"))
    methods = _methods_for(config, n)
    verdicts: dict[str, str] = {}
    witnesses: dict[str, float] = {}
    eigsys = eig_sym(np.asarray(a, dtype=np.float64), label=str(path.labels))
    fb = pbh_controllable(None, b, config.tolerances, eigsys=eigsys)
    fu = pbh_controllable(None, u, config.tolerances, eigsys=eigsys)
    verdicts["float:b"] = fb.decision
    verdicts["float:u"] = fu.decision
    witnesses["min_gap"] = fb.min_gap
    witnesses["min_abs_inner"] = min(fb.min_abs_inner, fu.min_abs_inner)
    witnesses["norm_a"] = float(np.max(np.abs(eigsys.eigenvalues)))
    decided_b = fb.decision
    if "exact" in methods:
        decision, rank = _exact_pair_verdict(a, b, config.exact_cap)
        verdicts["exact:b"] = decision
        witnesses["rank"] = float(rank)
        decided_b = decision
    pair = (decided_b, fu.decision)
    if UNCONTROLLABLE in pair:
        return False, False, verdicts, witnesses
    if INDETERMINATE in pair:
        return False, True, verdicts, witnesses
    return True, False, verdicts, witnesses


def _trial_mingap(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))
    gap = min_gap(w)
    scale = max(1.0, float(np.max(np.abs(w))))
    success = gap > config.tolerances.gap_tol * scale
    witnesses = {"min_gap": gap, "norm_a": float(np.max(np.abs(w)))}
    return success, False, {}, witnesses


_SMALLBALL_M = 2000


def _trial_smallball(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    eigsys = eig_sym(np.asarray(a, dtype=np.float64), label=str(path.labels))
    idx = config.params.get("eig_index")
    idx = n // 2 if idx is None else int(idx)
    beta = config.params.get("beta", 0.25)
    m = int(config.params.get("m", _SMALLBALL_M))
    atom = config.ensemble.offdiag if config.ensemble.offdiag is not None else Atom.gaussian()
    est = small_ball_estimate(eigsys.eigenvectors[:, idx], atom, n ** (-beta), m,
                              path.child("smallball"))
    bound = config.params.get("rho_bound", 0.5)
    witnesses = {"rho_hat": est.rho_hat, "rho_std_err": est.std_err, "delta": est.delta,
                 "min_gap": min_gap(eigsys.eigenvalues)}
    return est.rho_hat <= bound, False, {}, witnesses


def _trial_norm(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))
    norm = float(max(abs(w[0]), abs(w[-1])))
    ratio = norm / math.sqrt(n)
    lo, hi = config.params.get("band", (1.8, 2.3))
    witnesses = {"norm_a": norm, "norm_ratio": ratio}
    return lo <= ratio <= hi, False, {}, witnesses


def _trial_minctrl(config: ExperimentConfig, n: int, path: SeedPath):
    a = sample_ensemble(config.ensemble, path.child("matrix"), n)
    kmax = config.params.get("kmax")
    budget = config.params.get("budget", 10**6)
    result = sparsest_input(a, kmax=kmax, entry_mode="binary01",
                            cap=config.exact_cap, budget=budget)
    witnesses = {
        "k_star": -1.0 if result.k_star is None else float(result.k_star),
        "basis_count": float(len(result.basis_controllable)),
        "supports_tested": float(result.supports_tested),
    }
    return result.k_star == 1, False, {}, witnesses


_TRIAL_FAMILIES = {
    "single": _trial_single_vector,
    "all-basis": _trial_all_basis,
    "two-vectors": _trial_two_vectors,
    "mingap": _trial_mingap,
    "smallball": _trial_smallball,
    "norm": _trial_norm,
    "minctrl": _trial_minctrl,
}


def run_trial(config: ExperimentConfig, n: int, trial: int) -> TrialRecord:
    """Run one trial in isolation; fully determined by (config, n, trial)."""
    start = time.perf_counter()
    path = SeedPath(config.master_seed).child(config.scenario, n, trial)
    family = SCENARIOS[config.scenario].family
    success, indeterminate, verdicts, witnesses = _TRIAL_FAMILIES[family](config, n, path)
    return TrialRecord(
        scenario=config.scenario, n=n, trial=trial, master_seed=config.master_seed,
        success=success, indeterminate=indeterminate, verdicts=verdicts,
        witnesses=witnesses, wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# scenario presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Scenario:
    family: str
    describe: str
    build: "callable"


def _rademacher_wigner(n=None) -> EnsembleSpec:
    return EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0), n)


def _preset_conj1(p):
    return dict(ensemble=EnsembleSpec.gnp(p), vector=None,
                n_grid=(8, 16, 24), trials=200, method="both", p=p)


def _preset_conj2(p):
    return dict(ensemble=EnsembleSpec.gnp(p), vector=VectorSpec.all_ones(),
                n_grid=(8, 16, 24), trials=200, method="both", p=p)


def _preset_wigner_basis(p):
    return dict(ensemble=_rademacher_wigner(), vector=None,
                n_grid=(8, 16, 32), trials=200, method="float-pbh")


def _preset_wigner_rand(p):
    return dict(ensemble=_rademacher_wigner(),
                vector=VectorSpec.iid_atom(Atom.rademacher()),
                n_grid=(8, 16, 32), trials=200, method="float-pbh")


def _preset_wigner_sphere(p):
    return dict(ensemble=_rademacher_wigner(), vector=VectorSpec.uniform_sphere(),
                n_grid=(8, 16, 32), trials=200, method="float-pbh")


def _preset_gnp_rand(p):
    return dict(ensemble=EnsembleSpec.gnp(p), vector=VectorSpec.bernoulli01(p),
                n_grid=(8, 16, 24), trials=200, method="both", p=p)


def _preset_goe(p):
    return dict(ensemble=EnsembleSpec.goe(), vector=VectorSpec.standard_basis(0),
                n_grid=(10, 30), trials=500, method="float-pbh")


def _preset_kn_allones(p):
    return dict(ensemble=EnsembleSpec.gnp(1.0), vector=VectorSpec.all_ones(),
                n_grid=(5, 10), trials=10, method="both", p=1.0)


def _preset_mingap(p):
    return dict(ensemble=_rademacher_wigner(), vector=None,
                n_grid=(50, 100, 200), trials=200, method="float-pbh")


def _preset_smallball(p):
    return dict(ensemble=_rademacher_wigner(), vector=None,
                n_grid=(16, 32, 64), trials=100, method="float-pbh",
                params={"beta": 0.25, "m": _SMALLBALL_M, "rho_bound": 0.5})


def _preset_norm(p):
    return dict(ensemble=_rademacher_wigner(), vector=None,
                n_grid=(100, 400), trials=200, method="float-pbh",
                params={"band": [1.8, 2.3]})


def _preset_minctrl(p):
    return dict(ensemble=EnsembleSpec.gnp(p), vector=None,
                n_grid=(10,), trials=100, method="exact", p=p,
                params={"kmax": None, "budget": 10**6})


SCENARIOS: dict[str, _Scenario] = {
    "conj1": _Scenario("all-basis", "G(n,p): every basis input controllable", _preset_conj1),
    "conj2": _Scenario("single", "G(n,p) with the all-ones input", _preset_conj2),
    "thm-wigner-basis": _Scenario("all-basis", "Wigner: every basis input controllable", _preset_wigner_basis),
    "thm-wigner-rand": _Scenario("single", "Wigner with an iid random input", _preset_wigner_rand),
    "thm-wigner-sphere": _Scenario("single", "Wigner with a uniform sphere input", _preset_wigner_sphere),
    "cor-gnp-rand": _Scenario("two-vectors", "G(n,p) with Bernoulli and sphere inputs", _preset_gnp_rand),
    "thm-goe": _Scenario("single", "GOE with a fixed basis input", _preset_goe),
    "kn-allones": _Scenario("single", "complete graph with all-ones input (fixture)", _preset_kn_allones),
    "diag-mingap": _Scenario("mingap", "minimal eigenvalue gap probe", _preset_mingap),
    "diag-smallball": _Scenario("smallball", "eigenvector small-ball probability probe", _preset_smallball),
    "diag-norm": _Scenario("norm", "spectral norm over sqrt(n) probe", _preset_norm),
    "minctrl-gnp": _Scenario("minctrl", "exact sparsest input on G(n,p)", _preset_minctrl),
}

_STRICT_P_SCENARIOS = {"conj1", "conj2", "cor-gnp-rand", "minctrl-gnp"}


def make_scenario_config(name: str, *, n_grid=None, trials=None, p=None,
                         master_seed=None, method=None, gap_tol=None,
                         ortho_tol=None, out=None, fmt=None, params=None,
                         workers=None, vector=None) -> ExperimentConfig:
    """Build a preset config, with keyword overrides applied on top.

    `vector` replaces the preset's input-vector spec (for single-vector
    scenarios such as thm-goe, where the statement holds for any choice).
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    default_p = 0.5
    base = SCENARIOS[name].build(p if p is not None else default_p)
    if p is not None and base.get("p") != p:
        raise ValueError(f"scenario {name!r} does not take an edge-density override")
    config = ExperimentConfig(scenario=name, **base)
    if vector is not None:
        if SCENARIOS[name].family != "single":
            raise ValueError(f"scenario {name!r} does not take a vector override")
        config.vector = vector
    if n_grid is not None:
        config.n_grid = tuple(int(v) for v in n_grid)
    else:
        config.n_grid = tuple(config.n_grid)
    if trials is not None:
        config.trials = int(trials)
    if master_seed is not None:
        config.master_seed = int(master_seed)
    if method is not None:
        config.method = method
    if gap_tol is not None or ortho_tol is not None:
        tol = config.tolerances
        config.tolerances = replace(
            tol,
            gap_tol=gap_tol if gap_tol is not None else tol.gap_tol,
            ortho_tol=ortho_tol if ortho_tol is not None else tol.ortho_tol,
        )
    if params:
        config.params = {**config.params, **params}
    if out is not None:
        config.out = out
    if fmt is not None:
        config.fmt = fmt
    if workers is not None:
        config.workers = int(workers)
    config.validate()
    return config


def scenario_presets() -> dict[str, ExperimentConfig]:
    """All presets with documented defaults, keyed by scenario id."""
    return {name: make_scenario_config(name) for name in SCENARIOS}


# ---------------------------------------------------------------------------
# experiment runner and reports
# ---------------------------------------------------------------------------

def _agreement_meta(records: list[TrialRecord]) -> dict | None:
    compared = agreed = 0
    for rec in records:
        for exact_key, float_key in (("exact", "float"), ("exact:b", "float:b")):
            if exact_key in rec.verdicts and float_key in rec.verdicts:
                if rec.verdicts[float_key] == INDETERMINATE:
                    continue
                compared += 1
                agreed += rec.verdicts[float_key] == rec.verdicts[exact_key]
    if compared == 0:
        return None
    return {"compared": compared, "agreed": agreed}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all (n, trial) cells and aggregate; deterministic for fixed config.

    Trials run under a thread pool when ``config.workers > 1``; records are
    aggregated in (n, trial) order, so the report never depends on the
    execution schedule.
    """
    config.validate()
    cells = [(n, t) for n in config.n_grid for t in range(config.trials)]
    if config.workers > 1 and cells:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(lambda c: run_trial(config, *c), cells))
    else:
        records = [run_trial(config, n, t) for n, t in cells]
    records.sort(key=lambda r: (r.n, r.trial))
    rows = []
    for n in config.n_grid:
        per_n = [r for r in records if r.n == n]
        successes = sum(r.success for r in per_n)
        indet = sum(r.indeterminate for r in per_n)
        lo, hi = wilson_interval(successes, len(per_n))
        rows.append(ReportRow(
            scenario=config.scenario, n=n, p=config.p, trials=len(per_n),
            successes=successes, indeterminates=indet,
            frequency=successes / len(per_n), ci_lo=lo, ci_hi=hi,
            method=config.method, seed=config.master_seed,
            gap_tol=config.tolerances.gap_tol, ortho_tol=config.tolerances.ortho_tol,
        ))
    return ExperimentReport(version=__version__, config=config.to_dict(), rows=rows,
                            agreement=_agreement_meta(records))


CSV_COLUMNS = ("scenario", "n", "p", "trials", "successes", "indeterminates",
               "frequency", "ci_lo", "ci_hi", "method", "seed", "gap_tol", "ortho_tol")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def report_csv(report: ExperimentReport) -> str:
    """Render the report in the fixed CSV schema (17 significant digits)."""
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        d = row.to_dict()
        lines.append(",".join(_csv_cell(d[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def report_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def report_emit(report: ExperimentReport, path: str, fmt: str = "csv") -> str:
    """Write the report to `path` as csv or json; returns the path."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")
    text = report_csv(report) if fmt == "csv" else report_json(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def report_load_json(path: str) -> ExperimentReport:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentReport.from_dict(json.load(fh))
