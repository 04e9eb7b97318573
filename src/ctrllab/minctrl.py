"""Minimal controllability: basis scans and sparsest-input search.

Every decision here is exact, on the integer path, and starts from the
spectrum: for symmetric A and a single input, a repeated eigenvalue
bounds the Krylov degree of every b below n, so no input controls A.
:func:`basis_scan` decides the spectra of one matrix or a whole stack in
one call, and then, for the matrices with a simple spectrum only, which
standard basis inputs e_i control.  :func:`sparsest_input` goes on from
that scan.  The sparsest-input problem is NP-hard in general, so the
search is exhaustive and desk-scale: supports are enumerated
lexicographically by increasing size, and the first support whose 0/1
indicator vector is controllable wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, islice

import numpy as np

from .exact import (
    _KRYLOV_ENTRIES,
    DEFAULT_EXACT_CAP,
    DimensionCapError,
    _float_system,
    _ints,
    _kalman_ranks,
    has_simple_spectrum_exact,
)
from .spectral import EigenSystem, _checked, _integer, _matrix, _stack_of_one

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
    A's spectrum is simple; a repeated eigenvalue leaves the scan empty."""

    controllable: frozenset[int]
    simple_spectrum: bool


def basis_scan(a, cap: int | None = DEFAULT_EXACT_CAP, eigsys: EigenSystem | None = None):
    """Decide (A, e_i) exactly for every standard basis vector, spectrum first.

    `a` is one integer symmetric matrix, or a (T, n, n) stack of them and
    the result a list of T scans; `eigsys`, when given, is its float
    eigensystem, shaped like `a` (as for :func:`kalman_ranks_exact`).  The
    stack is checked once and decided in one pass: one
    :func:`has_simple_spectrum_exact` call decides every spectrum,
    computing the eigensystem's bounds and keeping them on it, and then
    the rank stage of :func:`kalman_ranks_exact` ranks the basis of the
    matrices with a simple spectrum only, on those bounds (and no rank
    stage runs when no spectrum is simple): a repeated eigenvalue bounds
    every Krylov degree below n, so such a matrix gets an empty scan and
    no Kalman test.  Dimensions beyond `cap` raise
    :class:`DimensionCapError` before any test.
    """
    mats = _checked(a, _ints, system=True)
    single = mats.ndim == 2
    mats = mats[None] if single else mats
    t, n, _ = mats.shape
    if cap is not None and n > _integer(cap, "cap"):
        raise DimensionCapError(f"n={n} exceeds exact cap {cap}")
    if single and eigsys is not None:
        eigsys = _stack_of_one(eigsys)
    simple = np.array(has_simple_spectrum_exact(mats, eigsys), dtype=bool)
    ranks = np.full((t, n), -1)
    ranks[~simple] = 0  # rank only the simple spectra
    if simple.any():
        system = None if eigsys is None else _float_system(mats, eigsys)
        ranks = _kalman_ranks(mats, np.eye(n, dtype=np.int64)[None].repeat(t, axis=0), system,
                              ranks)
    scans = [BasisScanResult(frozenset(compress(range(n), full)), s)
             for full, s in zip((ranks == n).tolist(), simple.tolist())]
    return scans[0] if single else scans


@dataclass(frozen=True)
class MinCtrlResult:
    """Outcome of the sparsest-input search.

    `k_star` is the minimal support size admitting a controllable input, or
    None when no support up to `kmax` works, as for every support when the
    spectrum is repeated.
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

    The matrix must be integer and within the exact cap.  The search
    starts from the :func:`basis_scan` of `a`, which decides the spectrum
    first: a repeated eigenvalue ends it with no support tested, and a
    controllable e_i gives k* = 1 with the n singletons tested.  `scan` is
    that scan when the caller has it already (say, from one call over a
    whole stack).  Each larger support size is enumerated lexicographically,
    in slices of at most max(1, 2^14 // n^2) indicator vectors, each
    ranked by the rank stage of :func:`kalman_ranks_exact` on the matrix as
    checked here (so its Krylov stack stays within 2^14 entries); the first
    column of rank n is the witness, so the result and the count of
    supports tested are those of testing one support at a time.
    Enumeration beyond `budget` supports raises :class:`BudgetExceededError`
    with progress attached; a slice never reaches past the budget, and as
    the singletons are decided together, a budget below n raises before any
    test.  `eigsys`, the float
    eigensystem of `a` (as :func:`~ctrllab.spectral.eig_sym` returns it),
    lets the scan and each slice settle most verdicts without elimination;
    the slices read its bounds once per search, when the first is ranked.
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
        scan = basis_scan(mat, cap, eigsys)
    if not scan.simple_spectrum:
        return MinCtrlResult(frozenset(), None, None, supports_tested=0)
    tested = n
    if scan.controllable:
        b = np.zeros(n, dtype=np.int64)
        b[min(scan.controllable)] = 1
        return MinCtrlResult(scan.controllable, 1, b, tested)
    size = max(1, _KRYLOV_ENTRIES // (n * n))
    stack, system = mat[None], None
    for k in range(2, kmax + 1):
        layer = combinations(range(n), k)
        for first in layer:
            if tested >= budget:
                raise BudgetExceededError(tested, k, budget)
            supports = [first, *islice(layer, min(size, budget - tested) - 1)]
            cols = np.zeros((1, n, len(supports)), dtype=np.int64)
            cols[0, np.array(supports), np.arange(len(supports))[:, None]] = 1
            if system is None and eigsys is not None:
                system = _float_system(stack, _stack_of_one(eigsys))
            ranks = _kalman_ranks(stack, cols, system, np.full((1, len(supports)), -1))[0].tolist()
            if n in ranks:
                hit = ranks.index(n)
                return MinCtrlResult(frozenset(), k, cols[0, :, hit].copy(), tested + hit + 1)
            tested += len(supports)
    return MinCtrlResult(frozenset(), None, None, tested)
