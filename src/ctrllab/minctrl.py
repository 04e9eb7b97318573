"""Minimal controllability: basis scans and sparsest-input search.

The sparsest-input problem is NP-hard in general, so everything here is
exhaustive desk-scale search: supports are enumerated lexicographically by
increasing size, and the first support admitting a controllable input wins.
Two entry alphabets are provided, 0/1 indicator vectors decided on the exact
integer path, and generic random entries (uniform on [1, 2], bounded away
from zero) verified by the float PBH decider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .exact import (
    _KRYLOV_ENTRIES,
    DEFAULT_EXACT_CAP,
    DimensionCapError,
    _ints,
    has_simple_spectrum_exact,
    kalman_ranks_exact,
)
from .seeding import SeedPath
from .spectral import (
    CONTROLLABLE,
    DEFAULT_TOLERANCES,
    EigenSystem,
    INDETERMINATE,
    Tolerances,
    _integer,
    _matrix,
    _stack_of_one,
    basis_witnesses,
    classify,
    eig_sym,
    pbh_controllable,
)

__all__ = [
    "BudgetExceededError",
    "BasisScanResult",
    "MinCtrlResult",
    "basis_scan",
    "support_feasibility",
    "sparsest_input",
    "DEFAULT_SUPPORT_BUDGET",
]

DEFAULT_SUPPORT_BUDGET = 10**6
# random vectors tried per feasible support in generic-random mode
_WITNESS_TRIALS = 8


class BudgetExceededError(RuntimeError):
    """Support enumeration budget exhausted before a decision; `label`, when
    given, names the run that overran (a trial's seed labels)."""

    def __init__(self, supports_tested: int, k_reached: int, budget: int, label=None):
        self.supports_tested = supports_tested
        self.k_reached = k_reached
        self.budget = budget
        where = f" ({label})" if label is not None else ""
        super().__init__(
            f"enumeration budget {budget} exhausted{where} after {supports_tested} supports "
            f"(reached support size {k_reached})")


@dataclass(frozen=True)
class BasisScanResult:
    """Indices i for which (A, e_i) is controllable (0-based), and whether
    A's spectrum is simple, None when not decided."""

    controllable: frozenset[int]
    indeterminate: frozenset[int]
    method: str
    simple_spectrum: bool | None = None

    @classmethod
    def from_ranks(cls, ranks, simple_spectrum: bool | None = None) -> BasisScanResult:
        """The exact scan given the Kalman ranks of e_0, ..., e_(n-1)."""
        return cls(frozenset(i for i, r in enumerate(ranks) if r == len(ranks)),
                   frozenset(), "exact", simple_spectrum)


def basis_scan(a, method: str = "exact", tolerances: Tolerances = DEFAULT_TOLERANCES,
               cap: int | None = DEFAULT_EXACT_CAP) -> BasisScanResult:
    """Decide (A, e_i) for every standard basis vector.

    With the float method, indices whose verdict is indeterminate are
    reported separately and never counted as controllable.
    """
    if method == "float-pbh":
        return _float_scan(eig_sym(_matrix(a)), tolerances)
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    mat = _matrix(a, _ints)
    return BasisScanResult.from_ranks(kalman_ranks_exact(mat, np.eye(len(mat), dtype=np.int64), cap))


def _float_scan(eigsys: EigenSystem, tolerances: Tolerances) -> BasisScanResult:
    gap, scale, inner = basis_witnesses(eigsys)
    decisions = classify(gap, inner, scale, 1.0, tolerances)
    return BasisScanResult(frozenset(np.flatnonzero(decisions == CONTROLLABLE).tolist()),
                           frozenset(np.flatnonzero(decisions == INDETERMINATE).tolist()),
                           "float-pbh")


def support_feasibility(a, support, tolerances: Tolerances = DEFAULT_TOLERANCES,
                        eigsys: EigenSystem | None = None) -> bool:
    """True iff some vector supported on `support` can be controllable.

    A support works iff the spectrum is numerically simple and every
    eigenvector has a coordinate inside the support above the orthogonality
    threshold: :func:`classify` calls the witness min_j max_{i in support}
    |V[i, j]| controllable with norm_b = 1 (eigenvectors are unit length).
    Indeterminate counts as infeasible.  Indices must be integers in [0, n).
    """
    idx = sorted(set(_integer(i, "support index") for i in support))
    if not idx:
        raise ValueError("support must be nonempty")
    if eigsys is None:
        eigsys = eig_sym(_matrix(a))
    bad = [i for i in idx if not 0 <= i < eigsys.n]
    if bad:
        raise ValueError(f"support index {bad[0]} out of range for n={eigsys.n}")
    inner = float(np.min(np.max(np.abs(_stack_of_one(eigsys).eigenvectors[0, idx]), axis=0)))
    return classify(eigsys.gap, inner, eigsys.scale, 1.0, tolerances) == CONTROLLABLE


@dataclass(frozen=True)
class MinCtrlResult:
    """Outcome of the sparsest-input search.

    `k_star` is the minimal support size admitting a controllable input, or
    None when no support up to `kmax` works (for a symmetric matrix with a
    single input this happens exactly when the spectrum is not simple).
    """

    basis_controllable: frozenset[int]
    k_star: int | None
    witness: np.ndarray | None
    method: str
    supports_tested: int
    basis_indeterminate: frozenset[int] = field(default_factory=frozenset)

    @property
    def infeasible(self) -> bool:
        return self.k_star is None


def sparsest_input(a, kmax: int | None = None, entry_mode: str = "binary01",
                   seed: SeedPath | None = None, tolerances: Tolerances = DEFAULT_TOLERANCES,
                   cap: int | None = DEFAULT_EXACT_CAP,
                   budget: int = DEFAULT_SUPPORT_BUDGET,
                   scan: BasisScanResult | None = None,
                   eigsys: EigenSystem | None = None) -> MinCtrlResult:
    """Search supports of size 1..kmax for a controllable input vector.

    ``binary01`` enumerates indicator vectors under the exact decider (the
    matrix must be integer and within the exact cap); ``generic-random``
    tests each support for feasibility against one shared eigendecomposition
    and then verifies up to `_WITNESS_TRIALS` random vectors (entries uniform
    on [1, 2]) with the float decider, requiring a controllable, not merely
    non-rejected, verdict.  Supports are enumerated lexicographically and
    the first success is returned; enumeration beyond `budget` supports
    raises :class:`BudgetExceededError` with progress attached.  In
    ``binary01`` mode the n singletons are decided together by one exact
    basis scan, so a budget below n raises before any support is tested,
    and each larger layer in lexicographic slices of at most
    max(1, 2^14 // n^2) indicator vectors, one :func:`kalman_ranks_exact`
    call per slice (so its Krylov stack stays within 2^14 entries); a slice
    never reaches past the budget, and its first column of rank n is the
    witness, so the result and the count of supports tested are those of
    testing one support at a time.
    `scan`, in ``binary01`` mode only, is the exact :func:`basis_scan` of
    `a` when the caller has it already (say, from one batched call over
    many matrices), and its `simple_spectrum`, when not None, is used
    instead of testing the spectrum again.  `eigsys`, the float
    eigensystem of `a` (as :func:`~ctrllab.spectral.eig_sym` returns it),
    is used when given: in ``binary01`` mode it lets
    :func:`has_simple_spectrum_exact` and each slice's
    :func:`kalman_ranks_exact` settle most verdicts without elimination,
    and in ``generic-random`` mode it replaces the search's own
    decomposition.
    """
    mat = _matrix(a, _ints if entry_mode == "binary01" else None)
    n = len(mat)
    kmax = n if kmax is None else _integer(kmax, "kmax")
    budget = _integer(budget, "budget")
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must lie in [1, {n}], got {kmax}")
    if scan is not None and (entry_mode != "binary01" or scan.method != "exact"):
        raise ValueError("a precomputed scan must be an exact basis scan, in binary01 mode")

    if entry_mode == "binary01":
        if cap is not None and n > _integer(cap, "cap"):
            raise DimensionCapError(f"n={n} exceeds exact cap {cap}")
        if budget < n:
            raise BudgetExceededError(0, 1, budget)
        if scan is None:
            scan = basis_scan(mat, "exact", cap=cap)
        tested = n
        if scan.controllable:
            first = min(scan.controllable)
            b = np.zeros(n, dtype=np.int64)
            b[first] = 1
            return MinCtrlResult(scan.controllable, 1, b, "exact", tested)
        # A controllable e_i proves the spectrum simple, so only now is it
        # tested.  A repeated eigenvalue bounds the Krylov degree below n for
        # every b, so the whole search is infeasible; skip the enumeration.
        simple = scan.simple_spectrum
        if not (has_simple_spectrum_exact(mat, eigsys) if simple is None else simple):
            return MinCtrlResult(frozenset(), None, None, "exact", supports_tested=0)
        size = max(1, _KRYLOV_ENTRIES // (n * n))
        for k in range(2, kmax + 1):
            layer = combinations(range(n), k)
            for first in layer:
                if tested >= budget:
                    raise BudgetExceededError(tested, k, budget)
                supports = [first, *islice(layer, min(size, budget - tested) - 1)]
                cols = np.zeros((n, len(supports)), dtype=np.int64)
                cols[np.array(supports), np.arange(len(supports))[:, None]] = 1
                ranks = kalman_ranks_exact(mat, cols, cap, eigsys)
                if n in ranks:
                    hit = ranks.index(n)
                    return MinCtrlResult(frozenset(), k, cols[:, hit].copy(), "exact",
                                         tested + hit + 1)
                tested += len(supports)
        return MinCtrlResult(frozenset(), None, None, "exact", tested)

    if entry_mode != "generic-random":
        raise ValueError(f"unknown entry mode {entry_mode!r}")
    if seed is None:
        raise ValueError("generic-random mode needs a SeedPath")
    if eigsys is None:
        eigsys = eig_sym(mat)
    scan = _float_scan(eigsys, tolerances)
    tested = 0
    for k in range(1, kmax + 1):
        for supp in combinations(range(n), k):
            if tested >= budget:
                raise BudgetExceededError(tested, k, budget)
            tested += 1
            if not support_feasibility(None, supp, tolerances, eigsys=eigsys):
                continue
            rng = seed.child("support", *supp).generator()
            for _ in range(_WITNESS_TRIALS):
                b = np.zeros(n)
                b[list(supp)] = rng.uniform(1.0, 2.0, size=k)
                if pbh_controllable(None, b, tolerances, eigsys=eigsys).controllable:
                    return MinCtrlResult(scan.controllable, k, b, "float-pbh",
                                         tested, scan.indeterminate)
    return MinCtrlResult(scan.controllable, None, None, "float-pbh",
                         tested, scan.indeterminate)
