"""Reproducible Monte Carlo experiments over the scenario table.

Each scenario ties one probabilistic statement about random systems to a
concrete experiment: sample a matrix (and input vector) per trial, decide
controllability with the configured method, and aggregate success
frequencies with Wilson 95% intervals over a grid of dimensions.

Per-trial seeds are derived from (master seed, scenario, n, trial index), so
grids can be extended and trials re-run in isolation, in any order, without
perturbing any other draw.  An experiment runs the trials of a grid point in
chunks: every trial of a chunk is drawn from its own seed, one stacked exact
call decides all their Kalman ranks, and one stacked eigendecomposition
gives all their float eigensystems, so a record never depends on the chunk
it was decided in.

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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from ._version import __version__
from .codec import Record
from .ensembles import (
    Atom,
    EnsembleSpec,
    VectorSpec,
    sample_ensemble,
    sample_vector,
)
from .exact import DEFAULT_EXACT_CAP, kalman_ranks_exact
from .minctrl import DEFAULT_SUPPORT_BUDGET, BasisScanResult, sparsest_input
from .seeding import SeedPath
from .spectral import (
    CONTROLLABLE,
    INDETERMINATE,
    UNCONTROLLABLE,
    EigenSystem,
    Tolerances,
    basis_witnesses,
    classify,
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
    "apply_overrides",
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
class ExperimentConfig(Record):
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
    out: str | None = None
    fmt: str = "csv"

    _keys = {"fmt": "format"}
    _decoders = {"ensemble": EnsembleSpec.from_dict, "vector": VectorSpec.from_dict,
                 "n_grid": tuple, "tolerances": Tolerances.from_dict}

    def validate(self) -> None:
        scenario = _scenario(self.scenario)
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
        if self.method == "exact":
            if not _exact_applicable(self):
                raise ValueError(f"scenario {self.scenario!r} cannot run on the exact path "
                                 "(non-integer matrix or input)")
            over = [n for n in self.n_grid if n > self.exact_cap]
            if over:
                raise ValueError(f"method=exact but n-grid {over} exceeds exact cap {self.exact_cap}")
        if scenario.density and not 0.0 < (self.p or 0.0) < 1.0:
            raise ValueError(f"scenario {self.scenario!r} requires 0 < p < 1, got {self.p}")
        if self.scenario == "diag-smallball" and self.params.get("m", _SMALLBALL_M) < 1000:
            raise ValueError("diag-smallball needs params.m >= 1000")


@dataclass
class TrialRecord:
    """Outcome of one trial.

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

    def seed_path(self) -> SeedPath:
        return SeedPath(self.master_seed).child(self.scenario, self.n, self.trial)


@dataclass
class ReportRow(Record):
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


@dataclass
class ExperimentReport(Record):
    """Aggregated frequencies plus the config echo and tool version."""

    version: str
    config: dict
    rows: list[ReportRow]
    agreement: dict | None = None

    _decoders = {"rows": lambda rows: [ReportRow.from_dict(r) for r in rows]}


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

def _exact_applicable(config: ExperimentConfig) -> bool:
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


def _exact_verdict(ranks: list[int], n: int) -> tuple[str, float]:
    """Exact decision for every input at once, plus the least Kalman rank."""
    rank = min(ranks)
    return (CONTROLLABLE if rank == n else UNCONTROLLABLE), float(rank)


def _uses_float(config: ExperimentConfig, n: int) -> bool:
    return "float" in _methods_for(config, n)


def _always(config: ExperimentConfig, n: int) -> bool:
    return True


def _never(config: ExperimentConfig, n: int) -> bool:
    return False


@dataclass(frozen=True)
class _Family:
    """How one kind of trial runs, in two stages.

    `draw(config, n, path)` samples the trial from its own SeedPath and
    returns (A, b, ...), where b is the exact input, or None for every
    standard basis input at once.  A chunk of draws is then prepared in
    bulk (see :func:`_draw_chunk`): when `kalman` is set and the exact
    method applies at n, the Kalman ranks of those inputs come from one
    call, and when `eig(config, n)` holds, the eigensystems of the matrices
    from one stacked :func:`eig_sym`.  Then, inside :func:`run_trial`,
    `decide(config, n, prepared)` returns (success, indeterminate,
    verdicts, witnesses).
    """

    draw: Callable
    decide: Callable
    kalman: bool = False
    eig: Callable[[ExperimentConfig, int], bool] = _never


class _Prepared(NamedTuple):
    """One trial's chunk-stage output: its seed path, its draw, and the
    Kalman ranks and eigensystem of the draw, each None when not computed."""

    path: SeedPath
    drawn: tuple
    ranks: list[int] | None
    eigsys: EigenSystem | None


def _draw_matrix(config: ExperimentConfig, n: int, path: SeedPath):
    return sample_ensemble(config.ensemble, path.child("matrix"), n), None


def _draw_input(config: ExperimentConfig, n: int, path: SeedPath):
    """A and the config's input vector, None without one."""
    a, _ = _draw_matrix(config, n, path)
    b = None if config.vector is None else sample_vector(config.vector, n, path.child("vector"))
    return a, b


def _draw_two_vectors(config: ExperimentConfig, n: int, path: SeedPath):
    a, b = _draw_input(config, n, path)
    return a, b, sample_vector(VectorSpec.uniform_sphere(), n, path.child("sphere"))


def _trial_pbh(config: ExperimentConfig, n: int, prepared: _Prepared):
    """(A, b) for the config's input vector; without one, (A, e_i) for every i at once."""
    _, (_, b), ranks, eigsys = prepared
    verdicts: dict[str, str] = {}
    witnesses: dict[str, float] = {}
    if eigsys is not None:
        if b is None:
            gap, scale, inner = basis_witnesses(eigsys)
            worst = float(np.min(inner))
            verdicts["float"] = classify(gap, worst, scale, 1.0, config.tolerances)
        else:
            fv = pbh_controllable(None, b, config.tolerances, eigsys=eigsys)
            verdicts["float"], gap, worst = fv.decision, fv.min_gap, fv.min_abs_inner
        witnesses.update(min_gap=gap, min_abs_inner=worst, norm_a=eigsys.norm)
    if ranks is not None:
        verdicts["exact"], witnesses["rank"] = _exact_verdict(ranks, n)
    deciding = verdicts["exact"] if "exact" in verdicts else verdicts["float"]
    return deciding == CONTROLLABLE, deciding == INDETERMINATE, verdicts, witnesses


def _trial_two_vectors(config: ExperimentConfig, n: int, prepared: _Prepared):
    _, (_, b, u), ranks, eigsys = prepared
    fb = pbh_controllable(None, b, config.tolerances, eigsys=eigsys)
    fu = pbh_controllable(None, u, config.tolerances, eigsys=eigsys)
    verdicts = {"float:b": fb.decision, "float:u": fu.decision}
    witnesses = {"min_gap": fb.min_gap, "min_abs_inner": min(fb.min_abs_inner, fu.min_abs_inner),
                 "norm_a": eigsys.norm}
    decided_b = fb.decision
    if ranks is not None:
        verdicts["exact:b"], witnesses["rank"] = _exact_verdict(ranks, n)
        decided_b = verdicts["exact:b"]
    pair = (decided_b, fu.decision)
    if UNCONTROLLABLE in pair:
        return False, False, verdicts, witnesses
    if INDETERMINATE in pair:
        return False, True, verdicts, witnesses
    return True, False, verdicts, witnesses


def _trial_mingap(config: ExperimentConfig, n: int, prepared: _Prepared):
    a, _ = prepared.drawn
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))
    gap, norm = min_gap(w), float(np.max(np.abs(w)))
    witnesses = {"min_gap": gap, "norm_a": norm}
    # the gap alone decides (inner = inf); between reject and accept is a failure
    success = classify(gap, math.inf, max(1.0, norm), 1.0, config.tolerances) == CONTROLLABLE
    return success, False, {}, witnesses


_SMALLBALL_M = 2000


def _trial_smallball(config: ExperimentConfig, n: int, prepared: _Prepared):
    path, eigsys = prepared.path, prepared.eigsys
    idx = config.params.get("eig_index")
    idx = n // 2 if idx is None else int(idx)
    beta = config.params.get("beta", 0.25)
    m = int(config.params.get("m", _SMALLBALL_M))
    atom = config.ensemble.offdiag if config.ensemble.offdiag is not None else Atom.gaussian()
    est = small_ball_estimate(eigsys.eigenvectors[:, idx], atom, n ** (-beta), m,
                              path.child("smallball"))
    bound = config.params.get("rho_bound", 0.5)
    witnesses = {"rho_hat": est.rho_hat, "rho_std_err": est.std_err, "delta": est.delta,
                 "min_gap": eigsys.gap}
    return est.rho_hat <= bound, False, {}, witnesses


def _trial_norm(config: ExperimentConfig, n: int, prepared: _Prepared):
    a, _ = prepared.drawn
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))
    norm = float(max(abs(w[0]), abs(w[-1])))
    ratio = norm / math.sqrt(n)
    lo, hi = config.params.get("band", (1.8, 2.3))
    witnesses = {"norm_a": norm, "norm_ratio": ratio}
    return lo <= ratio <= hi, False, {}, witnesses


def _trial_minctrl(config: ExperimentConfig, n: int, prepared: _Prepared):
    (a, _), ranks = prepared.drawn, prepared.ranks
    kmax = config.params.get("kmax")
    budget = config.params.get("budget", DEFAULT_SUPPORT_BUDGET)
    scan = None if ranks is None else BasisScanResult.from_ranks(ranks)
    result = sparsest_input(a, kmax=kmax, entry_mode="binary01",
                            cap=config.exact_cap, budget=budget, scan=scan)
    witnesses = {
        "k_star": -1.0 if result.k_star is None else float(result.k_star),
        "basis_count": float(len(result.basis_controllable)),
        "supports_tested": float(result.supports_tested),
    }
    return result.k_star == 1, False, {}, witnesses


_PBH = _Family(_draw_input, _trial_pbh, kalman=True, eig=_uses_float)
_TWO_VECTORS = _Family(_draw_two_vectors, _trial_two_vectors, kalman=True, eig=_always)
_MINCTRL = _Family(_draw_matrix, _trial_minctrl, kalman=True)
_MINGAP = _Family(_draw_matrix, _trial_mingap)
_SMALLBALL = _Family(_draw_matrix, _trial_smallball, eig=_always)
_NORM = _Family(_draw_matrix, _trial_norm)

# Bound on the entries of one chunk's stacked work: T * m * n^2 int64
# entries of the Krylov stack when the chunk's exact Kalman ranks are
# computed (T trials, m exact inputs each), T * n^2 float64 entries (128 KiB)
# of the eigendecomposition stack otherwise.  Measured on the exact-kalman and
# minctrl-search benchmark workloads against one trial per call: peak RSS
# grows 0.3-1.3% at 2**13, 0.7-1.8% at 2**14, 2.3-3.5% at 2**15 and up to
# 6.5% unbounded, while trials/s stops growing beyond 2**14.
_KRYLOV_ENTRIES = 2**14


def _kalman_applies(config: ExperimentConfig, n: int) -> bool:
    return SCENARIOS[config.scenario].trial.kalman and "exact" in _methods_for(config, n)


def _chunks(config: ExperimentConfig, n: int) -> list[range]:
    """The trial indices of grid point n, in chunks within _KRYLOV_ENTRIES.

    A trial counts m * n^2 entries when the chunk decides the Kalman ranks
    of its m = n basis inputs, and n^2 otherwise (one exact input, or only
    the float work).
    """
    m = n if config.vector is None and _kalman_applies(config, n) else 1
    size = max(1, _KRYLOV_ENTRIES // (m * n * n))
    return [range(start, min(start + size, config.trials))
            for start in range(0, config.trials, size)]


def _draw_chunk(config: ExperimentConfig, n: int, trials) -> list[_Prepared]:
    """The :class:`_Prepared` stage of each trial index in `trials` at grid point n.

    Each trial is drawn from its own SeedPath, so a draw never depends on
    the chunk it is in.  The Kalman ranks of every draw in the chunk come
    from one :func:`kalman_ranks_exact` call over the stack of matrices,
    and their eigensystems from one :func:`eig_sym` call over the same
    stack as float64; each equals what the trial alone would compute.
    """
    family = SCENARIOS[config.scenario].trial
    paths = [SeedPath(config.master_seed).child(config.scenario, n, t) for t in trials]
    draws = [family.draw(config, n, path) for path in paths]
    mats = np.stack([drawn[0] for drawn in draws])
    ranks = eigs = [None] * len(draws)
    if _kalman_applies(config, n):
        if draws[0][1] is None:
            inputs = np.eye(n, dtype=np.int64)
        else:
            inputs = np.stack([drawn[1] for drawn in draws])[:, :, None]
        ranks = kalman_ranks_exact(mats, inputs, config.exact_cap)
    if family.eig(config, n):
        eigs = eig_sym(mats, label=[path.labels for path in paths])
    return [_Prepared(*stage) for stage in zip(paths, draws, ranks, eigs)]


def run_trial(config: ExperimentConfig, n: int, trial: int, *, prepared=None) -> TrialRecord:
    """Run one trial in isolation; fully determined by (config, n, trial).

    `prepared` is the trial's entry of a :func:`_draw_chunk` over a chunk
    that holds it; :func:`run_experiment` passes it in.  Without it, the
    trial is drawn as a chunk of one, with the same result.
    """
    if prepared is None:
        (prepared,) = _draw_chunk(config, n, [trial])
    success, indeterminate, verdicts, witnesses = SCENARIOS[config.scenario].trial.decide(
        config, n, prepared)
    return TrialRecord(
        scenario=config.scenario, n=n, trial=trial, master_seed=config.master_seed,
        success=success, indeterminate=indeterminate, verdicts=verdicts, witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# scenario table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Scenario:
    """One row of the scenario table: trial family, description, defaults.

    `ensemble` and `vector` are specs, or, for the G(n, p) experiments,
    constructors taking the edge density; only those scenarios take a `p`
    override, and they need 0 < p < 1.  `p` is the default density.
    """

    trial: _Family
    describe: str
    ensemble: Any
    n_grid: tuple[int, ...]
    trials: int
    method: str = "float-pbh"
    vector: Any = None
    p: float | None = None
    params: dict = field(default_factory=dict)

    @property
    def density(self) -> bool:
        return callable(self.ensemble)

    def at(self, p: float | None) -> tuple[EnsembleSpec, VectorSpec | None]:
        """Ensemble and input vector at edge density `p`."""
        return tuple(x(p) if callable(x) else x for x in (self.ensemble, self.vector))


_GNP = EnsembleSpec.gnp
_WIGNER = EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0))

SCENARIOS: dict[str, _Scenario] = {
    "conj1": _Scenario(_PBH, "G(n,p): every basis input controllable",
                       _GNP, (8, 16, 24), 200, "both", p=0.5),
    "conj2": _Scenario(_PBH, "G(n,p) with the all-ones input",
                       _GNP, (8, 16, 24), 200, "both", VectorSpec.all_ones(), p=0.5),
    "thm-wigner-basis": _Scenario(_PBH, "Wigner: every basis input controllable",
                                  _WIGNER, (8, 16, 32), 200),
    "thm-wigner-rand": _Scenario(_PBH, "Wigner with an iid random input",
                                 _WIGNER, (8, 16, 32), 200,
                                 vector=VectorSpec.iid_atom(Atom.rademacher())),
    "thm-wigner-sphere": _Scenario(_PBH, "Wigner with a uniform sphere input",
                                   _WIGNER, (8, 16, 32), 200, vector=VectorSpec.uniform_sphere()),
    "cor-gnp-rand": _Scenario(_TWO_VECTORS, "G(n,p) with Bernoulli and sphere inputs",
                              _GNP, (8, 16, 24), 200, "both", VectorSpec.bernoulli01, p=0.5),
    "thm-goe": _Scenario(_PBH, "GOE with a fixed basis input",
                         EnsembleSpec.goe(), (10, 30), 500, vector=VectorSpec.standard_basis(0)),
    "kn-allones": _Scenario(_PBH, "complete graph with all-ones input (fixture)",
                            EnsembleSpec.gnp(1.0), (5, 10), 10, "both", VectorSpec.all_ones(),
                            p=1.0),
    "diag-mingap": _Scenario(_MINGAP, "minimal eigenvalue gap probe",
                             _WIGNER, (50, 100, 200), 200),
    "diag-smallball": _Scenario(_SMALLBALL, "eigenvector small-ball probability probe",
                                _WIGNER, (16, 32, 64), 100,
                                params={"beta": 0.25, "m": _SMALLBALL_M, "rho_bound": 0.5}),
    "diag-norm": _Scenario(_NORM, "spectral norm over sqrt(n) probe",
                           _WIGNER, (100, 400), 200, params={"band": (1.8, 2.3)}),
    "minctrl-gnp": _Scenario(_MINCTRL, "exact sparsest input on G(n,p)",
                             _GNP, (10,), 100, "exact", p=0.5,
                             params={"kmax": None, "budget": DEFAULT_SUPPORT_BUDGET}),
}


def _scenario(name: str) -> _Scenario:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def make_scenario_config(name: str, **overrides) -> ExperimentConfig:
    """Build a scenario's config from the table, with keyword overrides
    applied on top (see :func:`apply_overrides`)."""
    s = _scenario(name)
    ensemble, vector = s.at(s.p)
    config = ExperimentConfig(name, ensemble, vector, s.n_grid, s.trials, method=s.method,
                              p=s.p, params=dict(s.params))
    return apply_overrides(config, **overrides)


def apply_overrides(config: ExperimentConfig, *, n_grid=None, trials=None, p=None,
                    master_seed=None, method=None, gap_tol=None, ortho_tol=None,
                    out=None, fmt=None, params=None, vector=None) -> ExperimentConfig:
    """Apply every override that is not None to `config`, validate it, return it.

    `p` rebuilds a G(n, p) scenario's ensemble and input vector at that
    density.  `vector` replaces the input-vector spec of a single-vector
    scenario such as thm-goe, where the statement holds for any choice.
    """
    s = _scenario(config.scenario)
    if p is not None:
        if not s.density and p != s.p:
            raise ValueError(f"scenario {config.scenario!r} does not take an edge-density override")
        config.ensemble, config.vector = s.at(p)
        config.p = p
    if vector is not None:
        if s.trial is not _PBH or s.vector is None:
            raise ValueError(f"scenario {config.scenario!r} does not take a vector override")
        config.vector = vector
    if n_grid is not None:
        config.n_grid = tuple(int(v) for v in n_grid)
    if trials is not None:
        config.trials = int(trials)
    if master_seed is not None:
        config.master_seed = int(master_seed)
    if method is not None:
        config.method = method
    tol = {k: v for k, v in (("gap_tol", gap_tol), ("ortho_tol", ortho_tol)) if v is not None}
    if tol:
        config.tolerances = replace(config.tolerances, **tol)
    if params:
        config.params = {**config.params, **params}
    if out is not None:
        config.out = out
    if fmt is not None:
        config.fmt = fmt
    config.validate()
    return config


def scenario_presets() -> dict[str, ExperimentConfig]:
    """All scenarios with their documented defaults, keyed by scenario id."""
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
    """Run all (n, trial) cells in order and aggregate; deterministic for a fixed config.

    The trials of each grid point run in chunks (see :func:`_draw_chunk`):
    each chunk is drawn, its exact Kalman ranks decided and its matrices
    decomposed in one batch, and then every record is built by one
    :func:`run_trial` call with its trial's stage passed in.  The records
    equal standalone run_trial ones.
    """
    config.validate()
    records, rows = [], []
    for n in config.n_grid:
        per_n = []
        for chunk in _chunks(config, n):
            per_n += [run_trial(config, n, t, prepared=prepared)
                      for t, prepared in zip(chunk, _draw_chunk(config, n, chunk))]
        records += per_n
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
        lines.append(",".join(_csv_cell(getattr(row, c)) for c in CSV_COLUMNS))
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
