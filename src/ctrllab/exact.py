"""Exact controllability decisions for integer symmetric systems.

Every verdict here is exact (no tolerances, no rounding).  Kalman ranks and
the distinct-eigenvalue test are first tried as certificates modulo the
word-size prime ``_P``.  A rank computed mod p never exceeds the rank over
the rationals, so a Krylov matrix of full rank mod p has full rank.  A rank
r < n mod p comes with the monic relation q(A) b = 0 mod p of degree r;
lifted to integers and verified exactly, it bounds the rank over the
rationals by r from above, so the rank is exactly r.  A characteristic
polynomial coprime to its derivative mod p is square-free.  Whatever the
certificates cannot settle falls back to the arbitrary-precision path,
which also serves as the oracle: Krylov/Kalman matrices over Python
integers, fraction-free Bareiss rank and determinant, Faddeev-LeVerrier
characteristic polynomials and a Euclidean remainder sequence over the
rationals.

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
    floats = a if a.dtype.kind == "f" else None
    if a.dtype.kind == "O" and not all(issubclass(t, (int, np.integer))
                                       for t in set(map(type, a.flat))):
        try:  # other objects are judged by their float value
            floats = a.astype(np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("exact path requires integer entries") from None
    if floats is not None:
        if not np.isfinite(floats).all():
            raise nonfinite_error(floats, what)
        if not np.all(floats == np.round(floats)):
            raise ValueError("exact path requires integer entries")
    elif a.dtype.kind not in "iubO":
        raise ValueError(f"exact path requires integer entries, got dtype {a.dtype}")
    return a


def _as_int_rows(m) -> list[list[int]]:
    a = _checked_ints(m, 2, "matrix")
    return a.tolist() if a.dtype.kind in "iu" else [[int(x) for x in row] for row in a]


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


def _krylov_ranks_mod_p(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of [b, Ab, ..., A^(n-1)b] for each column b of `v`, and its echelon form.

    `a` and `v` hold residues mod _P, and so does the echelon form.  All
    Krylov matrices are built at once and eliminated together, one Krylov
    column per step: every matrix swaps a row with a nonzero entry in the
    column to the top, clears the column below by cross-multiplication (no
    inverses needed) and drops the top row and the column.  The top row of
    matrix i at step k becomes row k of the upper triangular
    ``echelon[i]``.  Column k is A^k b, so the first step without a nonzero
    entry is the rank, and from there on the matrix is zero: the rank is
    the number of nonzero pivots on the diagonal.
    """
    n, m = v.shape
    krylov = np.empty((n, n, m), dtype=np.int64)  # [k] = A^k V mod p
    krylov[0] = v
    for k in range(1, n):
        krylov[k] = _reduce(a @ krylov[k - 1])
    s = np.ascontiguousarray(krylov.transpose(2, 1, 0))  # s[i][:, k] = A^k b_i
    echelon = np.zeros((m, n, n), dtype=np.int64)
    stacks = np.arange(m)
    for k in range(n):
        piv = (s[:, :, 0] != 0).argmax(axis=1)
        if piv.any():
            top = s[stacks, piv]
            s[stacks, piv] = s[:, 0]
            s[:, 0] = top
        echelon[:, k, k:] = s[:, 0]
        nxt = s[:, 1:, 1:] * s[:, :1, :1]
        nxt -= s[:, 1:, :1] * s[:, :1, 1:]
        s = _reduce(nxt)
    diag = np.arange(n)
    return (echelon[:, diag, diag] != 0).sum(axis=1), echelon


def _relation_mod_p(echelon: np.ndarray, r: int) -> list[int]:
    """Ascending coefficients of the monic q of degree r with q(A) b = 0 mod _P.

    `echelon` is the echelon form of b's Krylov matrix from
    :func:`_krylov_ranks_mod_p`, of rank r < n: its first r rows are an
    upper triangular system in the coefficients of b, Ab, ..., A^r b,
    solved by back-substitution with the coefficient of A^r b set to 1.
    """
    q = [0] * r + [1]
    for k in range(r - 1, -1, -1):
        pivot, *row = echelon[k, k:r + 1].tolist()
        q[k] = -sum(u * c for u, c in zip(row, q[k + 1:])) * pow(pivot, -1, _P) % _P
    return q


def _annihilated(mat: np.ndarray, cols: np.ndarray, polys: np.ndarray) -> np.ndarray:
    """Whether q_i(A) b_i = 0 over the integers for each column b_i of
    `cols` and row q_i of `polys` (ascending, zero above the degree).

    One Horner scheme runs over all columns at once.  It runs in int64 only
    when a bound on A and on every intermediate entry, computed in Python
    ints, stays below 2^63, and in Python ints otherwise.
    """
    a, v = _as_int_rows(mat), _as_int_rows(cols)
    norm_a = max(sum(map(abs, row)) for row in a)
    size = max(abs(x) for row in v for x in row) * int(np.abs(polys).max())
    bound = 0
    for _ in range(polys.shape[1]):
        bound = norm_a * bound + size
    dtype = np.int64 if max(bound, norm_a) < 2**63 else object
    a, v, polys = np.array(a, dtype=dtype), np.array(v, dtype=dtype), polys.astype(dtype)
    acc = np.zeros_like(v)
    for k in range(polys.shape[1] - 1, -1, -1):
        acc = a @ acc + v * polys[:, k]
    return (acc == 0).all(axis=0)  # a bool per column on object arrays too


def _certified_ranks(mat: np.ndarray, cols: np.ndarray) -> list[int | None]:
    """Kalman rank of each nonzero column b of `cols` where a certificate
    proves it, else None.

    The rank r mod _P never exceeds the rank over the rationals, so r = n
    is proved.  For r < n, the monic relation q(A) b = 0 mod _P of degree r
    is lifted to the integers in (-_P/2, _P/2] and checked exactly; if it
    holds, b, Ab, ..., A^r b are dependent over the rationals too, and the
    rank is exactly r.
    """
    n, m = cols.shape
    if n > _MOD_MAX_N:
        return [None] * m
    rank, echelon = _krylov_ranks_mod_p(_residues(mat), _residues(cols))
    out = [n if r == n else None for r in rank.tolist()]
    short = np.flatnonzero(rank < n)
    if short.size:
        lifted = np.zeros((short.size, int(rank[short].max()) + 1), dtype=np.int64)
        for row, i in zip(lifted, short.tolist()):
            q = _relation_mod_p(echelon[i], int(rank[i]))
            row[:len(q)] = [c - _P if c > _P // 2 else c for c in q]
        for i, ok in zip(short.tolist(), _annihilated(mat, cols[:, short], lifted).tolist()):
            if ok:
                out[i] = int(rank[i])
    return out


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

    The zero vector has rank 0.  Every other column is certified mod
    ``_P`` in two directions, all columns in one batched elimination over
    their Krylov columns b, Ab, ...:

    * rank n mod p is rank n over the rationals;
    * at rank r < n mod p the elimination yields the monic relation
      q(A) b = 0 mod p of degree r.  Its coefficients are lifted to
      (-p/2, p/2] and q(A) b = 0 is checked over the integers.  If it
      holds, rank_Q <= r = rank_p <= rank_Q.

    The lift almost always holds: the minimal polynomial of b under A is a
    monic divisor of the characteristic polynomial, which is monic with
    integer coefficients, so by Gauss's lemma it has integer coefficients
    too; when p keeps the rank and those coefficients lie below p/2, it is
    the lifted q.  Only columns that no certificate settles go through
    :func:`kalman_matrix` and Bareiss :func:`rank_exact`, so the ranks
    equal the Bareiss ranks for every input.  Dimensions beyond `cap`
    raise :class:`DimensionCapError`.
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
    for j, rank in zip(live.tolist(), _certified_ranks(mat, cols[:, live])):
        ranks[j] = rank if rank is not None else rank_exact(kalman_matrix(mat, cols[:, j]))
    return ranks


def is_controllable_exact(a, b, cap: int | None = DEFAULT_EXACT_CAP) -> bool:
    """Kalman rank test, decided exactly: rank [b, Ab, ..., A^(n-1)b] == n.

    The zero vector is never controllable.  Dimensions beyond `cap` raise
    :class:`DimensionCapError`.  See :func:`kalman_ranks_exact`.
    """
    vec = _checked_ints(b, 1, "vector")
    (rank,) = kalman_ranks_exact(a, vec[:, None], cap)
    return rank > 0 and rank == len(vec)
