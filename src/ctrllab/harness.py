"""Reproducible Monte Carlo experiments over the scenario table.

Each scenario ties one probabilistic statement about random systems to a
concrete experiment: sample a matrix (and input vector) per trial, decide
controllability with the configured method, and aggregate success
frequencies with Wilson 95% intervals over a grid of dimensions.

Per-trial seeds are derived from (master seed, scenario, n, trial index), so
grids can be extended and trials re-run in isolation, in any order, without
perturbing any other draw.  An experiment runs the trials of a grid point in
chunks: the random streams of all trials of a chunk are derived in one
batch, every trial is drawn from its own streams and one stacked
eigendecomposition gives all their eigensystems.  Then the trial family
decides the whole chunk at once, each exact or float decider over the
whole stack, so a record never depends on the chunk it was decided in.
Only the PBH family, behind every controllability row, reads the method:
it decides each input exactly where the exact method runs and in float
otherwise, and wherever both run, the JSON report counts how often they agree.

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

import functools
import json
import math
from itertools import islice
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from ._version import __version__
from .codec import Record, _check, _encode, _is_int
from .ensembles import (Atom, EnsembleSpec, VectorSpec, _integer, _vector_misfit, sample_ensemble,
                        sample_vector)
from .exact import DEFAULT_EXACT_CAP, kalman_ranks_exact
from .minctrl import DEFAULT_SUPPORT_BUDGET, BudgetExceededError, basis_scan, sparsest_input
from .seeding import SeedPath
from .spectral import (
    CONTROLLABLE,
    INDETERMINATE,
    UNCONTROLLABLE,
    EigenDecompositionError,
    EigenSystem,
    Tolerances,
    classify,
    eig_sym,
    pbh_controllable,
    small_ball_estimate,
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ReportRow",
    "ExperimentReport",
    "SCENARIOS",
    "make_scenario_config",
    "apply_overrides",
    "run_trial",
    "run_experiment",
    "report_csv",
    "report_json",
    "report_emit",
    "wilson_interval",
]

# the two-sided 95% normal quantile
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    successes, trials = _integer(successes, "successes"), _integer(trials, "trials")
    z = _Z95
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials: successes={successes}, trials={trials}")
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
    """The knobs of one experiment; its scenario row names the ensemble
    (:attr:`ensemble`, at `p`) and the input vector, which `vector`, if not
    None, overrides.  `params` carries scenario-specific knobs (bands,
    small-ball sample counts, search depth); the rest is bookkeeping.
    """

    scenario: str
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
    _decoders = {"vector": VectorSpec.from_dict, "n_grid": tuple,
                 "tolerances": Tolerances.from_dict}

    @property
    def ensemble(self) -> EnsembleSpec:
        """The ensemble the scenario row samples at `p`."""
        return _sampled(self)[0]

    def validate(self) -> None:
        scenario = _scenario(self.scenario)
        _integer(self.master_seed, "master_seed")
        if _integer(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        grid = _grid(self.n_grid)
        if not grid:
            raise ValueError("n-grid must hold at least one dimension")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n-grid must be strictly increasing, got {self.n_grid}")
        if any(n < 1 for n in grid):
            raise ValueError(f"dimensions must be >= 1, got {self.n_grid}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.fmt!r}")
        if _integer(self.exact_cap, "exact_cap") < 1:
            raise ValueError(f"exact_cap must be >= 1, got {self.exact_cap}")
        # as JSON gives them: no bool p, a str out, a spec, a Tolerances and a dict
        for name in ("p", "out", "vector", "tolerances", "params"):
            _check(ExperimentConfig, name, getattr(self, name), name)
        if scenario.density and not 0.0 < (self.p or 0.0) < 1.0:
            raise ValueError(f"scenario {self.scenario!r} requires 0 < p < 1, got {self.p}")
        if not scenario.density and self.p != scenario.p:
            raise ValueError(f"scenario {self.scenario!r} samples p={scenario.p}, got p={self.p}")
        # only the PBH family reads the method; every other row fixes it
        if scenario.trial.decide is not _trials_pbh and self.method != scenario.method:
            raise ValueError(f"scenario {self.scenario!r} runs method={scenario.method}, "
                             f"got method={self.method}")
        if self.vector is not None and not scenario.vector_override:
            raise ValueError(f"scenario {self.scenario!r} does not take a vector override")
        for n in self.n_grid if self.vector is not None else ():
            misfit = _vector_misfit(self.vector, n)
            if misfit is not None:
                raise ValueError(f"vector {misfit} at n={n}")
        if self.method == "exact":
            if not _exact_applicable(self):
                raise ValueError(f"scenario {self.scenario!r} cannot run on the exact path "
                                 "(non-integer matrix or input)")
            over = [n for n in self.n_grid if n > self.exact_cap]
            if over:
                raise ValueError(f"method=exact but n-grid {over} exceeds exact cap {self.exact_cap}")
        for key, value in self.params.items():
            if key not in scenario.accepts:
                raise ValueError(f"unknown params key {key!r} for scenario {self.scenario!r}; "
                                 f"known: {sorted(scenario.accepts)}")
            param = scenario.accepts[key]
            unfit = [n for n in self.n_grid if not param.fits(value, n)]
            if not param.ok(value) or unfit:
                at = f" at n={unfit[0]}" if param.ok(value) else ""
                raise ValueError(f"params key {key!r} must be {param.must}, got {value!r}{at}")


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

def _sampled(config: ExperimentConfig) -> tuple[EnsembleSpec, VectorSpec | None]:
    """The ensemble and input vector of the config's trials: its scenario
    row's at p, with the config's vector, if any, in place of the row's."""
    row = _scenario(config.scenario)
    ensemble, vector = _row_specs(row.ensemble, row.vector, config.p)
    return ensemble, vector if config.vector is None else config.vector


@functools.lru_cache(maxsize=64, typed=True)
def _row_specs(ensemble, vector, p) -> tuple[EnsembleSpec, VectorSpec | None]:
    """A scenario row's `ensemble` and `vector`, each a spec or a constructor
    taking the edge density, at p; built once per row and p, as specs are
    frozen and their constructors pure."""
    return tuple(x(p) if callable(x) else x for x in (ensemble, vector))


def _exact_applicable(config: ExperimentConfig) -> bool:
    ensemble, vector = _sampled(config)
    return ensemble.integer_valued and (vector is None or vector.integer_valued)


def _exact_runs(config: ExperimentConfig, n: int) -> bool:
    """Whether the exact method decides grid point n of a PBH row: always
    under "exact", and under "both" where its samples are integers and n is
    within the exact cap."""
    if config.method == "both":
        return _exact_applicable(config) and n <= config.exact_cap
    return config.method == "exact"


@dataclass(frozen=True)
class _Family:
    """How one kind of trial runs, declared as data.

    A chunk of trials is drawn and decomposed in bulk by :func:`_draw_chunk`:
    each trial draws a matrix A, the scenario's input vector b (None for
    every standard basis input at once) and the generators of the streams
    `extra` names, and the eigensystems of the matrices come from one
    stacked :func:`eig_sym`, with eigenvectors unless `vectors` is false
    (no such family runs an exact decider, which the eigenvectors help
    certify).  Then `decide(config, n, chunk)` does the family's own work,
    exact or float, and gives the outcome of each trial of the
    :class:`_Chunk` in order: (success, indeterminate, verdicts, witnesses).
    Only the PBH family reads `config.method`.  A family whose work is per
    trial yields them one at a time, so that a trial's own work runs inside
    its :func:`run_trial` call.
    """

    decide: Callable
    extra: tuple[str, ...] = ()
    vectors: bool = True


class _Chunk(NamedTuple):
    """The draws of a chunk of T trials and their stacked eigensystem.

    `mats` is the (T, n, n) stack of matrices; `b` the (T, n) inputs, or
    None for every standard basis input at once; `extra` maps each extra
    stream to its T generators, and `eigsys` is the stack's
    :class:`EigenSystem` or the :class:`EigenDecompositionError` its
    decomposition raised.
    """

    mats: np.ndarray
    b: np.ndarray | None
    extra: dict[str, list]
    eigsys: EigenSystem | EigenDecompositionError

    @property
    def eig(self) -> EigenSystem:
        """The stack's eigensystem, for a float verdict; a failed
        decomposition is raised here."""
        if isinstance(self.eigsys, EigenDecompositionError):
            raise self.eigsys
        return self.eigsys

    @property
    def certificate(self) -> EigenSystem | None:
        """The stack's eigensystem, or None if the decomposition failed: an
        exact decider certifies with it where it can, and without it
        otherwise, so a failure raises nothing there."""
        return None if isinstance(self.eigsys, EigenDecompositionError) else self.eigsys


def _streams(config: ExperimentConfig, family: _Family) -> tuple[str, ...]:
    """The stream labels a trial of `family` draws from, in order."""
    vector = _sampled(config)[1]
    seeded = vector is not None and vector.seeded
    return (("matrix", "vector") if seeded else ("matrix",)) + family.extra


_SPHERE = VectorSpec.uniform_sphere()


def _both(a: list, b: list) -> list:
    """Trial by trial, the verdict of two inputs that must both pass: it
    fails where either fails, and is otherwise indeterminate where either is."""
    return [x if x == UNCONTROLLABLE or y == CONTROLLABLE else y for x, y in zip(a, b)]


def _trials_pbh(config: ExperimentConfig, n: int, chunk: _Chunk) -> list:
    """Every input of a PBH trial decided, exact or float: the scenario's
    input vector b, or, without one, every e_i at once; with a "sphere"
    stream (cor-gnp-rand), also a uniform sphere input u, keyed ":b" and
    ":u".  Where the exact method runs at n, one :func:`kalman_ranks_exact`
    call over the stack, handed the chunk's eigensystem, decides b; every
    input is decided in float unless the exact verdicts cover them all.  An
    input counts by its exact verdict where it has one, and a trial passes
    when every input passes.
    """
    inputs = {"": chunk.b}
    if "sphere" in chunk.extra:
        inputs = {":b": chunk.b, ":u": sample_vector(_SPHERE, n, chunk.extra["sphere"])}
    verdicts = [{} for _ in chunk.mats]
    deciding = {}  # each input's verdict, trial by trial
    if config.method != "exact" or len(inputs) > 1:
        pbhs = [pbh_controllable(None, b, config.tolerances, chunk.eig) for b in inputs.values()]
        for suffix, pbh in zip(inputs, pbhs):
            key, deciding[suffix] = "float" + suffix, pbh.decision.tolist()
            for v, decision in zip(verdicts, deciding[suffix]):
                v[key] = decision
        inner = functools.reduce(np.minimum, (pbh.min_abs_inner for pbh in pbhs))
        witnesses = [{"min_gap": gap, "min_abs_inner": worst, "norm_a": norm}
                     for gap, worst, norm in zip(chunk.eig.gap.tolist(), inner.tolist(),
                                                 chunk.eig.norm.tolist())]
    else:
        witnesses = [{} for _ in chunk.mats]
    if _exact_runs(config, n):
        suffix = next(iter(inputs))
        cols = np.eye(n, dtype=np.int64) if chunk.b is None else chunk.b[:, :, None]
        ranks = [min(r) for r in kalman_ranks_exact(chunk.mats, cols, config.exact_cap,
                                                    eigsys=chunk.certificate)]
        key, deciding[suffix] = "exact" + suffix, [
            CONTROLLABLE if rank == n else UNCONTROLLABLE for rank in ranks]
        for v, w, decision, rank in zip(verdicts, witnesses, deciding[suffix], ranks):
            v[key], w["rank"] = decision, float(rank)
    return [(d == CONTROLLABLE, d == INDETERMINATE, v, w) for d, v, w in zip(
        functools.reduce(_both, deciding.values()), verdicts, witnesses)]


def _trials_mingap(config: ExperimentConfig, n: int, chunk: _Chunk) -> list:
    eig = chunk.eig
    # the gap alone decides (inner = inf); between reject and accept is a failure
    decisions = classify(eig.gap, math.inf, eig.scale, 1.0, config.tolerances).tolist()
    return [(decision == CONTROLLABLE, False, {}, {"min_gap": gap, "norm_a": norm})
            for decision, gap, norm in zip(decisions, eig.gap.tolist(), eig.norm.tolist())]


def _params(config: ExperimentConfig) -> dict:
    """The config's params over its scenario's defaults."""
    return {**SCENARIOS[config.scenario].params, **config.params}


def _trials_smallball(config: ExperimentConfig, n: int, chunk: _Chunk):
    params = _params(config)
    idx = n // 2 if params.get("eig_index") is None else params["eig_index"]
    atom = config.ensemble.offdiag
    for v, gap, rng in zip(chunk.eig.eigenvectors, chunk.eig.gap.tolist(),
                           chunk.extra["smallball"]):
        est = small_ball_estimate(v[:, idx], atom, n ** (-params["beta"]), params["m"], rng)
        witnesses = {"rho_hat": est.rho_hat, "rho_std_err": est.std_err, "delta": est.delta,
                     "min_gap": gap}
        yield est.rho_hat <= params["rho_bound"], False, {}, witnesses


def _trials_norm(config: ExperimentConfig, n: int, chunk: _Chunk) -> list:
    lo, hi = _params(config)["band"]
    ratios = chunk.eig.norm / math.sqrt(n)
    return [(lo <= ratio <= hi, False, {}, {"norm_a": norm, "norm_ratio": ratio})
            for norm, ratio in zip(chunk.eig.norm.tolist(), ratios.tolist())]


def _trials_minctrl(config: ExperimentConfig, n: int, chunk: _Chunk):
    """The binary01 sparsest-input search of each trial.  Its chunk work,
    one :func:`basis_scan` of the stack with its eigensystem, runs at the
    first trial's outcome, within that trial's :func:`run_trial`, and
    beyond the exact cap raises there.  Only a search that goes past the
    basis gets its matrix's eigensystem."""
    params = _params(config)
    eig = chunk.certificate
    scans = basis_scan(chunk.mats, config.exact_cap, eig)
    for t, (a, scan) in enumerate(zip(chunk.mats, scans)):
        past = eig is not None and scan.simple_spectrum and not scan.controllable
        result = sparsest_input(a, kmax=params["kmax"], cap=config.exact_cap,
                                budget=params["budget"], scan=scan,
                                eigsys=eig[t] if past else None)
        witnesses = {
            "k_star": -1.0 if result.k_star is None else float(result.k_star),
            "basis_count": float(len(result.basis_controllable)),
            "supports_tested": float(result.supports_tested),
        }
        yield result.k_star == 1, False, {}, witnesses


_PBH = _Family(_trials_pbh)
_PBH_SPHERE = _Family(_trials_pbh, ("sphere",))
_MINCTRL = _Family(_trials_minctrl)
_MINGAP = _Family(_trials_mingap, vectors=False)
_SMALLBALL = _Family(_trials_smallball, ("smallball",))
_NORM = _Family(_trials_norm, vectors=False)

# Bound on the float64 entries of one chunk's eigendecomposition stack,
# T * n^2 for T trials at dimension n (128 KiB).  A family's exact work
# needs no bound here: kalman_ranks_exact bounds its own Krylov stacks.
_STACK_ENTRIES = 2**14


def _chunks(config: ExperimentConfig, n: int) -> list[range]:
    """The trial indices of grid point n, in chunks of T trials with
    T * n^2 <= _STACK_ENTRIES (at least one trial)."""
    size = max(1, _STACK_ENTRIES // (n * n))
    return [range(start, min(start + size, config.trials))
            for start in range(0, config.trials, size)]


def _draw_chunk(config: ExperimentConfig, n: int, trials) -> _Chunk:
    """The :class:`_Chunk` of the trial indices `trials` at grid point n:
    only draws and the decomposition, for the trial family to decide.

    Each trial is drawn from the streams of its own SeedPath, so a draw
    never depends on the chunk it is in; the generators of all streams of
    the chunk come from one :meth:`SeedPath.generators` batch below the
    grid point's path; one :func:`sample_ensemble` call draws every matrix
    and one :func:`sample_vector` call every input (on None seeds if it
    draws nothing).  The eigensystems come from one :func:`eig_sym` call
    over the stack as float64; each equals what the trial alone would
    compute.  A failed decomposition, which names the first failing trial,
    is kept in the chunk and raised only where a family reads
    :attr:`_Chunk.eig`.
    """
    family = SCENARIOS[config.scenario].trial
    grid = SeedPath(config.master_seed).child(config.scenario, n)
    streams = _streams(config, family)
    rngs = grid.generators([(t, stream) for stream in streams for t in trials])
    drawn = {stream: list(islice(rngs, len(trials))) for stream in streams}
    ensemble, vector = _sampled(config)
    mats = sample_ensemble(ensemble, drawn["matrix"], n)
    b = None if vector is None else \
        sample_vector(vector, n, drawn.get("vector", [None] * len(trials)))
    try:
        eig = eig_sym(mats, label=[grid.labels + (t,) for t in trials], vectors=family.vectors)
    except EigenDecompositionError as exc:
        eig = exc
    return _Chunk(mats, b, {stream: drawn[stream] for stream in family.extra}, eig)


def _decide_chunk(config: ExperimentConfig, n: int, trials):
    """An iterator over the outcomes of the trial indices `trials` at grid point n."""
    return iter(SCENARIOS[config.scenario].trial.decide(config, n, _draw_chunk(config, n, trials)))


def run_trial(config: ExperimentConfig, n: int, trial: int, *, outcomes=None) -> TrialRecord:
    """Run one trial in isolation; fully determined by (config, n, trial).

    `outcomes` is the :func:`_decide_chunk` iterator of a chunk that holds
    the trial, advanced up to it; :func:`run_experiment` passes it in, and
    the trial takes its own outcome from it.  Without it, the trial is
    decided as a chunk of one, with the same result; n and trial must be
    integers, trial >= 0.  A search budget overrun is raised again with
    the trial's seed labels.
    """
    if outcomes is None:
        n, trial = _integer(n, "n"), _integer(trial, "trial")
        if trial < 0:
            raise ValueError(f"trial must be >= 0, got {trial}")
        outcomes = _decide_chunk(config, n, [trial])
    try:
        success, indeterminate, verdicts, witnesses = next(outcomes)
    except BudgetExceededError as exc:
        raise BudgetExceededError(exc.supports_tested, exc.k_reached, exc.budget,
                                  (config.scenario, n, trial)) from exc
    return TrialRecord(
        scenario=config.scenario, n=n, trial=trial, master_seed=config.master_seed,
        success=success, indeterminate=indeterminate, verdicts=verdicts, witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# scenario table
# ---------------------------------------------------------------------------

def _is_real(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _any_n(value, n: int) -> bool:
    return True


class _Param(NamedTuple):
    """A scenario parameter: what its value `must` be, as a test of the value
    alone (`ok`) and, for a value that passes it, at each grid dimension n (`fits`)."""

    must: str
    ok: Callable[[Any], bool]
    fits: Callable[[Any, int], bool] = _any_n


_REAL = _Param("a finite real number", _is_real)
_BAND = _Param("a pair [lo, hi] of finite reals with lo <= hi",
               lambda v: isinstance(v, (list, tuple)) and len(v) == 2
               and all(map(_is_real, v)) and v[0] <= v[1])
_SAMPLES = _Param("an int >= 1000", lambda v: _is_int(v) and v >= 1000)
_EIG_INDEX = _Param("null or an int in [0, n)", lambda v: v is None or (_is_int(v) and v >= 0),
                    lambda v, n: v is None or v < n)
_KMAX = _Param("null or an int in [1, n]", lambda v: v is None or (_is_int(v) and v >= 1),
               lambda v, n: v is None or v <= n)
_BUDGET = _Param("an int >= n", _is_int, lambda v, n: v >= n)  # the basis scan alone tests n


@dataclass(frozen=True)
class _Scenario:
    """One row of the scenario table: trial family, description, defaults.

    `ensemble` and `vector` are specs, or, for the G(n, p) experiments,
    constructors taking the edge density; only those scenarios take a `p`
    override, and they need 0 < p < 1.  `p` is the default density.
    `params` holds the defaults of the scenario's parameters, and `accepts`
    declares every parameter the scenario reads.
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
    accepts: dict[str, _Param] = field(default_factory=dict)

    @property
    def density(self) -> bool:
        return callable(self.ensemble)

    @property
    def vector_override(self) -> bool:
        """Whether any input vector may replace the row's: single-vector PBH
        scenarios, where the statement holds for every choice."""
        return self.trial is _PBH and self.vector is not None


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
    "cor-gnp-rand": _Scenario(_PBH_SPHERE, "G(n,p) with Bernoulli and sphere inputs",
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
                                params={"beta": 0.25, "m": 2000, "rho_bound": 0.5},
                                accepts={"beta": _REAL, "m": _SAMPLES, "rho_bound": _REAL,
                                         "eig_index": _EIG_INDEX}),
    "diag-norm": _Scenario(_NORM, "spectral norm over sqrt(n) probe",
                           _WIGNER, (100, 400), 200, params={"band": (1.8, 2.3)},
                           accepts={"band": _BAND}),
    "minctrl-gnp": _Scenario(_MINCTRL, "exact sparsest input on G(n,p)",
                             _GNP, (10,), 100, "exact", p=0.5,
                             params={"kmax": None, "budget": DEFAULT_SUPPORT_BUDGET},
                             accepts={"kmax": _KMAX, "budget": _BUDGET}),
}


def _grid(value) -> tuple[int, ...]:
    """The n-grid `value`, a sequence of integers, as a tuple of ints; else
    a ValueError naming the grid or its first entry that is no integer."""
    try:
        entries = tuple(value)
    except TypeError:
        raise ValueError(f"n-grid must be a sequence of integers, got {value!r}") from None
    return tuple(_integer(n, "n-grid entry") for n in entries)


def _scenario(name: str) -> _Scenario:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def make_scenario_config(name: str, **overrides) -> ExperimentConfig:
    """Build a scenario's config from the table, with keyword overrides
    applied on top (see :func:`apply_overrides`)."""
    s = _scenario(name)
    config = ExperimentConfig(name, None, s.n_grid, s.trials, method=s.method, p=s.p,
                              params=dict(s.params))
    return apply_overrides(config, **overrides)


def apply_overrides(config: ExperimentConfig, *, n_grid=None, trials=None, p=None,
                    master_seed=None, method=None, gap_tol=None, ortho_tol=None,
                    out=None, fmt=None, params=None, vector=None) -> ExperimentConfig:
    """Apply every override that is not None to `config`, validate it, return it.

    `p` is the edge density of a G(n, p) scenario, at which its ensemble
    and input vector are drawn.  `vector` replaces the input vector of a
    single-vector scenario such as thm-goe, where the statement holds for
    any choice.
    """
    for name, value in (("p", p), ("vector", vector), ("method", method), ("out", out),
                        ("fmt", fmt)):
        if value is not None:
            setattr(config, name, value)
    if n_grid is not None:
        config.n_grid = _grid(n_grid)
    if trials is not None:
        config.trials = _integer(trials, "trials")
    if master_seed is not None:
        config.master_seed = _integer(master_seed, "master_seed")
    tol = {k: v for k, v in (("gap_tol", gap_tol), ("ortho_tol", ortho_tol)) if v is not None}
    if tol:
        config.tolerances = replace(config.tolerances, **tol)
    if params is not None:
        config.params = {**config.params, **_check(ExperimentConfig, "params", params, "params")}
    config.validate()
    return config


# ---------------------------------------------------------------------------
# experiment runner and reports
# ---------------------------------------------------------------------------

def _agreement_meta(records: list[TrialRecord]) -> dict | None:
    """How many `exact<suffix>` verdicts were compared with a decided
    (not indeterminate) `float<suffix>` twin, and how many agreed."""
    compared = agreed = 0
    for rec in records:
        for key, verdict in rec.verdicts.items():
            if key.startswith("exact"):
                twin = rec.verdicts.get("float" + key[5:], INDETERMINATE)
                if twin != INDETERMINATE:
                    compared += 1
                    agreed += twin == verdict
    if compared == 0:
        return None
    return {"compared": compared, "agreed": agreed}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all (n, trial) cells in order and aggregate; deterministic for a fixed config.

    The trials of each grid point run in chunks (see :func:`_draw_chunk`):
    each chunk is drawn and its matrices decomposed in one batch, its
    family decides every trial of it, and then every record is built by
    one :func:`run_trial` call that takes its trial's outcome from the
    chunk's.  The records equal standalone run_trial ones.
    """
    config.validate()
    records, rows = [], []
    for n in config.n_grid:
        per_n = []
        for chunk in _chunks(config, n):
            outcomes = _decide_chunk(config, n, chunk)
            per_n += [run_trial(config, n, t, outcomes=outcomes) for t in chunk]
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
    ensemble, vector = _sampled(config)
    echo = _encode({"scenario": config.scenario, "ensemble": ensemble, **config.to_dict(),
                    "vector": vector})
    return ExperimentReport(version=__version__, config=echo, rows=rows,
                            agreement=_agreement_meta(records))


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


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
