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
from itertools import combinations

import numpy as np

from .exact import (
    DEFAULT_EXACT_CAP,
    DimensionCapError,
    has_simple_spectrum_exact,
    is_controllable_exact,
    kalman_ranks_exact,
)
from .seeding import SeedPath
from .spectral import (
    CONTROLLABLE,
    DEFAULT_TOLERANCES,
    EigenSystem,
    INDETERMINATE,
    Tolerances,
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


class BudgetExceededError(RuntimeError):
    """Support enumeration budget exhausted before a decision."""

    def __init__(self, supports_tested: int, k_reached: int, budget: int):
        self.supports_tested = supports_tested
        self.k_reached = k_reached
        self.budget = budget
        super().__init__(
            f"enumeration budget {budget} exhausted after {supports_tested} supports "
            f"(reached support size {k_reached})")


@dataclass(frozen=True)
class BasisScanResult:
    """Indices i for which (A, e_i) is controllable (0-based)."""

    controllable: frozenset[int]
    indeterminate: frozenset[int]
    method: str


def basis_scan(a, method: str = "exact", tolerances: Tolerances | None = None,
               cap: int | None = DEFAULT_EXACT_CAP) -> BasisScanResult:
    """Decide (A, e_i) for every standard basis vector.

    With the float method, indices whose verdict is indeterminate are
    reported separately and never counted as controllable.
    """
    n = np.asarray(a).shape[0]
    if method == "exact":
        ranks = kalman_ranks_exact(a, np.eye(n, dtype=np.int64), cap)
        return BasisScanResult(frozenset(i for i, r in enumerate(ranks) if r == n),
                               frozenset(), "exact")
    if method != "float-pbh":
        raise ValueError(f"unknown method {method!r}")
    return _float_scan(eig_sym(np.asarray(a, dtype=np.float64)), tolerances)


def _float_scan(eigsys: EigenSystem, tolerances: Tolerances | None) -> BasisScanResult:
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    gap, scale, inner = basis_witnesses(eigsys)
    decisions = [classify(gap, x, scale, 1.0, tol) for x in inner.tolist()]
    return BasisScanResult(frozenset(i for i, d in enumerate(decisions) if d == CONTROLLABLE),
                           frozenset(i for i, d in enumerate(decisions) if d == INDETERMINATE),
                           "float-pbh")


def support_feasibility(a, support, tolerances: Tolerances | None = None,
                        eigsys: EigenSystem | None = None) -> bool:
    """True iff some vector supported on `support` can be controllable.

    A support works iff the spectrum is numerically simple and every
    eigenvector has a coordinate inside the support above the orthogonality
    threshold: :func:`classify` calls the witness min_j max_{i in support}
    |V[i, j]| controllable with norm_b = 1 (eigenvectors are unit length).
    Indeterminate counts as infeasible.
    """
    idx = sorted(set(int(i) for i in support))
    if not idx:
        raise ValueError("support must be nonempty")
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    if eigsys is None:
        eigsys = eig_sym(np.asarray(a, dtype=np.float64))
    gap, scale = eigsys.gap_and_scale()
    inner = float(np.min(np.max(np.abs(eigsys.eigenvectors[idx, :]), axis=0)))
    return classify(gap, inner, scale, 1.0, tol) == CONTROLLABLE


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
                   seed: SeedPath | None = None, tolerances: Tolerances | None = None,
                   cap: int | None = DEFAULT_EXACT_CAP,
                   budget: int = DEFAULT_SUPPORT_BUDGET,
                   witness_trials: int = 8) -> MinCtrlResult:
    """Search supports of size 1..kmax for a controllable input vector.

    ``binary01`` enumerates indicator vectors under the exact decider (the
    matrix must be integer and within the exact cap); ``generic-random``
    tests each support for feasibility against one shared eigendecomposition
    and then verifies up to `witness_trials` random vectors (entries uniform
    on [1, 2]) with the float decider, requiring a controllable, not merely
    non-rejected, verdict.  Supports are enumerated lexicographically and
    the first success is returned; enumeration beyond `budget` supports
    raises :class:`BudgetExceededError` with progress attached.
    """
    mat = np.asarray(a)
    n = mat.shape[0]
    kmax = n if kmax is None else kmax
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must lie in [1, {n}], got {kmax}")

    if entry_mode == "binary01":
        if cap is not None and n > cap:
            raise DimensionCapError(f"n={n} exceeds exact cap {cap}")
        # Non-simple exact spectrum bounds the Krylov degree below n for
        # every b, so the whole search is infeasible; skip the enumeration.
        if not has_simple_spectrum_exact(mat):
            return MinCtrlResult(frozenset(), None, None, "exact", supports_tested=0)
        scan = basis_scan(mat, "exact", cap=cap)
        tested = n
        if scan.controllable:
            first = min(scan.controllable)
            b = np.zeros(n, dtype=np.int64)
            b[first] = 1
            return MinCtrlResult(scan.controllable, 1, b, "exact", tested)
        for k in range(2, kmax + 1):
            for supp in combinations(range(n), k):
                if tested >= budget:
                    raise BudgetExceededError(tested, k, budget)
                tested += 1
                b = np.zeros(n, dtype=np.int64)
                b[list(supp)] = 1
                if is_controllable_exact(mat, b, cap=cap):
                    return MinCtrlResult(frozenset(), k, b, "exact", tested)
        return MinCtrlResult(frozenset(), None, None, "exact", tested)

    if entry_mode != "generic-random":
        raise ValueError(f"unknown entry mode {entry_mode!r}")
    if seed is None:
        raise ValueError("generic-random mode needs a SeedPath")
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    eigsys = eig_sym(mat.astype(np.float64))
    scan = _float_scan(eigsys, tol)
    tested = 0
    for k in range(1, kmax + 1):
        for supp in combinations(range(n), k):
            if tested >= budget:
                raise BudgetExceededError(tested, k, budget)
            tested += 1
            if not support_feasibility(None, supp, tol, eigsys=eigsys):
                continue
            rng = seed.child("support", *supp).generator()
            for _ in range(witness_trials):
                b = np.zeros(n)
                b[list(supp)] = rng.uniform(1.0, 2.0, size=k)
                if pbh_controllable(None, b, tol, eigsys=eigsys).controllable:
                    return MinCtrlResult(scan.controllable, k, b, "float-pbh",
                                         tested, scan.indeterminate)
    return MinCtrlResult(scan.controllable, None, None, "float-pbh",
                         tested, scan.indeterminate)
