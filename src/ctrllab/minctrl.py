"""Minimal controllability: basis scans and sparsest-input search.

The sparsest-input problem is NP-hard in general, so everything here is
exhaustive desk-scale search: supports are enumerated lexicographically by
increasing size, and the first support whose 0/1 indicator vector is
controllable wins, decided on the exact integer path.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .spectral import EigenSystem, _integer, _matrix

__all__ = [
    "BudgetExceededError",
    "BasisScanResult",
    "MinCtrlResult",
    "basis_scan",
    "sparsest_input",
    "DEFAULT_SUPPORT_BUDGET",
]

DEFAULT_SUPPORT_BUDGET = 10**6


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
    simple_spectrum: bool | None = None

    @classmethod
    def from_ranks(cls, ranks, simple_spectrum: bool | None = None) -> BasisScanResult:
        """The scan given the Kalman ranks of e_0, ..., e_(n-1)."""
        return cls(frozenset(i for i, r in enumerate(ranks) if r == len(ranks)), simple_spectrum)


def basis_scan(a, cap: int | None = DEFAULT_EXACT_CAP) -> BasisScanResult:
    """Decide (A, e_i) exactly for every standard basis vector."""
    mat = _matrix(a, _ints)
    return BasisScanResult.from_ranks(kalman_ranks_exact(mat, np.eye(len(mat), dtype=np.int64), cap))


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
    supports_tested: int

    @property
    def infeasible(self) -> bool:
        return self.k_star is None


def sparsest_input(a, kmax: int | None = None, cap: int | None = DEFAULT_EXACT_CAP,
                   budget: int = DEFAULT_SUPPORT_BUDGET,
                   scan: BasisScanResult | None = None,
                   eigsys: EigenSystem | None = None) -> MinCtrlResult:
    """Search supports of size 1..kmax for a controllable 0/1 input vector.

    The matrix must be integer and within the exact cap.  Supports are
    enumerated lexicographically and the first success is returned;
    enumeration beyond `budget` supports raises
    :class:`BudgetExceededError` with progress attached.  The n singletons
    are decided together by one exact basis scan, so a budget below n
    raises before any support is tested, and each larger layer in
    lexicographic slices of at most max(1, 2^14 // n^2) indicator vectors,
    one :func:`kalman_ranks_exact` call per slice (so its Krylov stack stays
    within 2^14 entries); a slice never reaches past the budget, and its
    first column of rank n is the witness, so the result and the count of
    supports tested are those of testing one support at a time.
    `scan` is the :func:`basis_scan` of `a` when the caller has it already
    (say, from one batched call over many matrices), and its
    `simple_spectrum`, when not None, is used instead of testing the
    spectrum again.  `eigsys`, the float eigensystem of `a` (as
    :func:`~ctrllab.spectral.eig_sym` returns it), lets
    :func:`has_simple_spectrum_exact` and each slice's
    :func:`kalman_ranks_exact` settle most verdicts without elimination.
    """
    mat = _matrix(a, _ints)
    n = len(mat)
    kmax = n if kmax is None else _integer(kmax, "kmax")
    budget = _integer(budget, "budget")
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must lie in [1, {n}], got {kmax}")
    if cap is not None and n > _integer(cap, "cap"):
        raise DimensionCapError(f"n={n} exceeds exact cap {cap}")
    if budget < n:
        raise BudgetExceededError(0, 1, budget)
    if scan is None:
        scan = basis_scan(mat, cap)
    tested = n
    if scan.controllable:
        b = np.zeros(n, dtype=np.int64)
        b[min(scan.controllable)] = 1
        return MinCtrlResult(scan.controllable, 1, b, tested)
    # A controllable e_i proves the spectrum simple, so only now is it
    # tested.  A repeated eigenvalue bounds the Krylov degree below n for
    # every b, so the whole search is infeasible; skip the enumeration.
    simple = scan.simple_spectrum
    if not (has_simple_spectrum_exact(mat, eigsys) if simple is None else simple):
        return MinCtrlResult(frozenset(), None, None, supports_tested=0)
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
                return MinCtrlResult(frozenset(), k, cols[:, hit].copy(), tested + hit + 1)
            tested += len(supports)
    return MinCtrlResult(frozenset(), None, None, tested)
