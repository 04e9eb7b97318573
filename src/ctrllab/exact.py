"""Exact controllability decisions for integer symmetric systems.

Every verdict here is exact (no tolerances, no rounding).  Kalman ranks and
the distinct-eigenvalue test are first tried as one-sided certificates
modulo the word-size prime ``_P``: a rank computed mod p never exceeds the
rank over the rationals, so a Krylov stack of full rank mod p has full rank,
and a characteristic polynomial coprime to its derivative mod p is
square-free.  Whatever the certificate cannot settle falls back to the
arbitrary-precision path, which also serves as the oracle: Krylov/Kalman
matrices over Python integers, fraction-free Bareiss rank and determinant,
Faddeev-LeVerrier characteristic polynomials and a Euclidean remainder
sequence over the rationals.

Krylov entries grow like ``norm(A)**n``, so the exact path is capped at
``DEFAULT_EXACT_CAP`` dimensions by default; pass ``cap=None`` (or a larger
cap) to override for fixtures.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .spectral import nonfinite_error

__all__ = [
    "DEFAULT_EXACT_CAP",
    "DimensionCapError",
    "kalman_matrix",
    "rank_exact",
    "det_exact",
    "charpoly_exact",
    "has_simple_spectrum_exact",
    "is_controllable_exact",
    "kalman_ranks_exact",
]

DEFAULT_EXACT_CAP = 24

# Largest prime below 2**26.  Residues multiply to below 2**52, so int64
# matrix products mod _P stay exact up to _MOD_MAX_N terms per entry, and
# every dimension up to there is invertible mod _P.
_P = 67108859
_MOD_MAX_N = (2**63 - 1) // (_P - 1) ** 2


class DimensionCapError(ValueError):
    """Exact-path dimension cap exceeded; use the float PBH path instead."""


def _checked_ints(m, ndim: int, what: str) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != ndim:
        raise ValueError(f"expected a {what}, got ndim={a.ndim}")
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise nonfinite_error(a, what)
        if not np.all(a == np.round(a)):
            raise ValueError("exact path requires integer entries")
    elif a.dtype.kind not in "iubO":
        raise ValueError(f"exact path requires integer entries, got dtype {a.dtype}")
    return a


def _as_int_rows(m) -> list[list[int]]:
    return [[int(x) for x in row] for row in _checked_ints(m, 2, "matrix")]


def _as_int_vector(v) -> list[int]:
    return [int(x) for x in _checked_ints(v, 1, "vector")]


def _check_symmetric(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix is not square")
    differs = m != m.T
    if differs.any():
        i, j = np.argwhere(np.triu(differs, 1))[0]
        raise ValueError(f"matrix is not symmetric at ({i},{j})")


def kalman_matrix(a, b) -> np.ndarray:
    """Exact Kalman matrix with columns b, Ab, ..., A^(n-1) b.

    Returns an object-dtype array of Python ints, so entries never overflow.
    """
    rows = _as_int_rows(a)
    vec = _as_int_vector(b)
    n = len(rows)
    if any(len(r) != n for r in rows) or len(vec) != n:
        raise ValueError(f"dimension mismatch: A is {len(rows)}x{len(rows[0]) if rows else 0}, b has {len(vec)}")
    cols = [vec]
    for _ in range(n - 1):
        prev = cols[-1]
        cols.append([sum(rows[i][j] * prev[j] for j in range(n)) for i in range(n)])
    out = np.empty((n, n), dtype=object)
    for k, col in enumerate(cols):
        for i in range(n):
            out[i, k] = col[i]
    return out


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination; returns (rank, det_sign, last_pivot).

    Pivots are searched per column among the remaining rows; columns with no
    nonzero entry are skipped.  Each update divides by the previous pivot,
    which is exact by Sylvester's determinant identity.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    pivot = 1
    row = 0
    for col in range(n):
        if row == m:
            break
        piv = next((r for r in range(row, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
            sign = -sign
        pivot = rows[row][col]
        for r in range(row + 1, m):
            factor = rows[r][col]
            rr, pr = rows[r], rows[row]
            for c in range(col + 1, n):
                rr[c] = (rr[c] * pivot - factor * pr[c]) // prev
            rr[col] = 0
        prev = pivot
        rank += 1
        row += 1
    return rank, sign, pivot


def rank_exact(m) -> int:
    """Exact rank over the rationals of an integer matrix."""
    rows = _as_int_rows(m)
    if not rows:
        return 0
    rank, _, _ = _bareiss(rows)
    return rank


def det_exact(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss final pivot)."""
    rows = _as_int_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == n else 0


def charpoly_exact(a) -> list[int]:
    """Characteristic polynomial det(xI - A), ascending coefficients.

    Faddeev-LeVerrier recursion; every division by the step index is exact
    for integer input.  The leading coefficient is always 1.
    """
    rows = _as_int_rows(a)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [1]  # descending: x^n, x^(n-1), ...
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_0 = I
    for k in range(1, n + 1):
        am = [[sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        trace = sum(am[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible; non-integer input?")
        coeffs.append(q)
        m = [[am[i][j] + (q if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs[::-1]


def _poly_normalize(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while a and len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        a.pop()  # leading term cancels exactly
        a = _poly_normalize(a)
    return a


# ---------------------------------------------------------------------------
# certificates modulo _P
# ---------------------------------------------------------------------------

def _residues(m: np.ndarray) -> np.ndarray:
    """Entries mod _P as int64; entries int64 may not hold are reduced as
    Python ints first, so no entry size overflows."""
    if m.dtype.kind in "bi" or (m.dtype.kind == "u" and m.dtype.itemsize < 8):
        return _reduce(m.astype(np.int64))
    return np.array([int(x) % _P for x in m.flat], dtype=np.int64).reshape(m.shape)


def _reduce(x: np.ndarray) -> np.ndarray:
    """x mod _P in place; numpy's int64 floor division by a scalar is far
    faster than its remainder."""
    x -= x // _P * _P
    return x


def _full_rank_mod_p(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each column b of `v`, whether [b, Ab, ..., A^(n-1)b] has full rank.

    `a` and `v` hold residues mod _P, and so does the rank.  All Krylov
    stacks are built at once and eliminated together: at each column every
    stack swaps its first row with a nonzero entry to the top, then clears
    the column below by cross-multiplication (no inverses needed) and drops
    the top row and the column.
    """
    n, m = v.shape
    krylov = np.empty((n, n, m), dtype=np.int64)  # [k] = A^k V mod p
    krylov[0] = v
    for k in range(1, n):
        krylov[k] = _reduce(a @ krylov[k - 1])
    s = krylov.transpose(2, 0, 1)  # s[i] rows: b_i, A b_i, ... (same rank as Kalman)
    full = np.ones(m, dtype=bool)
    stacks = np.arange(m)
    for _ in range(n):
        piv = (s[:, :, 0] != 0).argmax(axis=1)
        if piv.any():
            top = s[stacks, piv]
            s[stacks, piv] = s[:, 0]
            s[:, 0] = top
        full &= s[:, 0, 0] != 0
        nxt = s[:, 1:, 1:] * s[:, :1, :1]
        nxt -= s[:, 1:, :1] * s[:, :1, 1:]
        s = _reduce(nxt)
    return full


def _charpoly_mod_p(a: np.ndarray) -> list[int]:
    """det(xI - A) mod _P, ascending, from the residues `a` of A.

    Faddeev-LeVerrier as in :func:`charpoly_exact`, with each exact division
    by the step index k replaced by multiplication with k^-1 mod _P.
    """
    n = a.shape[0]
    diag = np.arange(n)
    coeffs = [1]  # descending: x^n, x^(n-1), ...
    m = np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        am = _reduce(a @ m)
        c = -int(np.trace(am)) * pow(k, -1, _P) % _P
        coeffs.append(c)
        am[diag, diag] = (am[diag, diag] + c) % _P
        m = am
    return coeffs[::-1]


def _simple_spectrum_mod_p(a: np.ndarray) -> bool:
    """True if gcd(chi, chi') = 1 over GF(_P) for chi = det(xI - A).

    chi is monic and chi' has leading coefficient n, a unit mod _P, so the
    resultant of the reductions is the discriminant of chi mod _P; a unit
    gcd makes it nonzero, hence chi is square-free over the rationals.
    """
    p = _charpoly_mod_p(a)
    q = [i * c % _P for i, c in enumerate(p)][1:]
    while q:
        p, q = q, _poly_mod_p(p, q)
    return len(p) == 1


def _poly_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b over GF(_P); b has a nonzero leading coefficient."""
    a = a[:]
    inv = pow(b[-1], -1, _P)
    while a and len(a) >= len(b):
        factor = a[-1] * inv % _P
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % _P
        a.pop()  # leading term cancels exactly
        while a and a[-1] == 0:
            a.pop()
    return a


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def has_simple_spectrum_exact(a) -> bool:
    """True iff all eigenvalues of the integer symmetric matrix are distinct.

    Decided exactly: the spectrum is simple iff gcd(p, p') is constant for
    the characteristic polynomial p.  A unit gcd mod ``_P`` certifies this
    directly; otherwise the gcd is computed by a Euclidean remainder
    sequence over the rationals.
    """
    mat = _checked_ints(a, 2, "matrix")
    _check_symmetric(mat)
    if mat.shape[0] <= _MOD_MAX_N and _simple_spectrum_mod_p(_residues(mat)):
        return True
    p = [Fraction(c) for c in charpoly_exact(mat)]
    q = _poly_normalize([Fraction(i * c) for i, c in enumerate(p)][1:])
    p = _poly_normalize(p)
    while q:
        p, q = q, _poly_mod(p, q)
    return len(p) == 1


def kalman_ranks_exact(a, inputs, cap: int | None = DEFAULT_EXACT_CAP) -> list[int]:
    """Exact rank of [b, Ab, ..., A^(n-1)b] for every column b of `inputs`.

    The zero vector has rank 0.  Every other column is first checked mod
    ``_P``, all columns in one batched elimination; full rank there is full
    rank over the rationals.  Only columns that fail the check go through
    :func:`kalman_matrix` and Bareiss :func:`rank_exact`, so the ranks equal
    the Bareiss ranks for every input.  Dimensions beyond `cap` raise
    :class:`DimensionCapError`.
    """
    mat = _checked_ints(a, 2, "matrix")
    _check_symmetric(mat)
    cols = _checked_ints(inputs, 2, "input matrix")
    n = mat.shape[0]
    if cols.shape[0] != n:
        raise ValueError(f"dimension mismatch: A is {n}x{n}, inputs have {cols.shape[0]} rows")
    if cap is not None and n > cap:
        raise DimensionCapError(f"n={n} exceeds exact cap {cap}; use the float PBH path")
    ranks = [0] * cols.shape[1]
    live = np.flatnonzero((cols != 0).any(axis=0))
    if live.size == 0:
        return ranks
    certified = (_full_rank_mod_p(_residues(mat), _residues(cols[:, live]))
                 if n <= _MOD_MAX_N else np.zeros(live.size, dtype=bool))
    for j, full in zip(live.tolist(), certified.tolist()):
        ranks[j] = n if full else rank_exact(kalman_matrix(mat, cols[:, j]))
    return ranks


def is_controllable_exact(a, b, cap: int | None = DEFAULT_EXACT_CAP) -> bool:
    """Kalman rank test, decided exactly: rank [b, Ab, ..., A^(n-1)b] == n.

    The zero vector is never controllable.  Dimensions beyond `cap` raise
    :class:`DimensionCapError`.  See :func:`kalman_ranks_exact`.
    """
    vec = _checked_ints(b, 1, "vector")
    (rank,) = kalman_ranks_exact(a, vec[:, None], cap)
    return rank > 0 and rank == len(vec)
