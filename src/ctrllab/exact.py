"""Exact controllability decisions for integer symmetric systems.

Every verdict here is exact (no tolerances, no rounding), and each is the
rank of an integer matrix whose columns form a Krylov sequence: the Kalman
matrix [b, Ab, ..., A^(n-1) b] for controllability, and the Hankel matrix
H[j, k] = tr(A^(j+k)) of power sums for the distinct-eigenvalue test (by
Hermite, rank H is the number of distinct eigenvalues, and det H is the
discriminant of the characteristic polynomial).  Each rank is first
certified modulo the word-size prime ``_P``.  A rank computed mod p never
exceeds the rank over the rationals, so full rank mod p is full rank.  A
rank r < n mod p comes with a monic relation q of degree r among the first
r + 1 columns; lifted to integers, q(A) b = 0 (Kalman) or q(A) = 0
(Hankel) verified exactly bounds the rank over the rationals by r from
above, so the rank is exactly r.  Whatever the certificates cannot settle
falls back to fraction-free Bareiss elimination of the matrix built over
Python integers, which with the Faddeev-LeVerrier characteristic
polynomial also serves as the oracle in the tests.

Krylov entries grow like ``norm(A)**n``, so the exact path is capped at
``DEFAULT_EXACT_CAP`` dimensions by default; pass ``cap=None`` (or a larger
cap) to override for fixtures.
"""

from __future__ import annotations

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

    `a` and `v` hold residues mod _P.  All Krylov matrices are built at once
    and eliminated together by :func:`_echelon_mod_p`.
    """
    n, m = v.shape
    krylov = np.empty((n, n, m), dtype=np.int64)  # [k] = A^k V mod p
    krylov[0] = v
    for k in range(1, n):
        krylov[k] = _reduce(a @ krylov[k - 1])
    return _echelon_mod_p(np.ascontiguousarray(krylov.transpose(2, 1, 0)))


def _echelon_mod_p(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each n x n matrix in `stack` and its echelon form, mod _P.

    `stack` holds residues and is overwritten.  Every matrix is eliminated
    one column per step: it swaps a row with a nonzero entry in the column
    to the top, clears the column below by cross-multiplication (no
    inverses needed) and drops the top row and the column.  The top row of
    matrix i at step k becomes row k of the upper triangular
    ``echelon[i]``.  A step without a nonzero entry zeroes the rest of the
    matrix, so the rank returned is the number of columns before the first
    one that depends on the columns before it.  That is the rank when the
    columns form a Krylov sequence (once a column depends on the earlier
    ones, so does every later one); for any matrix, rank n means all n
    pivots are nonzero, so the matrix is nonsingular mod _P.
    """
    s = stack
    m, n, _ = s.shape
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
    """Ascending coefficients of the monic q of degree r with
    q_0 c_0 + ... + q_r c_r = 0 mod _P for the columns c_k of a matrix,
    lifted to the integers in (-_P/2, _P/2].

    `echelon` is the matrix's echelon form from :func:`_echelon_mod_p`, of
    rank r < n: its first r rows are an upper triangular system in the
    coefficients of c_0, ..., c_r, solved by back-substitution with q_r = 1.
    For a Krylov matrix, c_k = A^k b and q(A) b = 0 mod _P.
    """
    q = [0] * r + [1]
    for k in range(r - 1, -1, -1):
        pivot, *row = echelon[k, k:r + 1].tolist()
        q[k] = -sum(u * c for u, c in zip(row, q[k + 1:])) * pow(pivot, -1, _P) % _P
    return [c - _P if c > _P // 2 else c for c in q]


def _power_sum_hankel(a: np.ndarray, reduce) -> np.ndarray:
    """The Hankel matrix H[j, k] = tr(A^(j+k)) of power sums, j, k < n.

    `a` holds residues mod _P with ``reduce=_reduce``, or Python ints with
    an identity `reduce`.  The power sums satisfy the linear recurrence of
    A's minimal polynomial mu, tr(A^t mu(A)) = 0, so H's columns form a
    Krylov sequence.
    """
    n = a.shape[0]
    powers = [np.eye(n, dtype=a.dtype)]
    for _ in range(n - 1):
        powers.append(reduce(a @ powers[-1]))
    powers = np.stack(powers)
    t = np.arange(2 * n - 1)
    hi = np.minimum(t, n - 1)
    # tr(A^t) sums the entrywise product of A^hi and (A^(t-hi))^T, both powers below n
    sums = reduce(reduce(powers[hi] * powers[t - hi].transpose(0, 2, 1)).sum(axis=(1, 2)))
    idx = np.arange(n)
    return sums[idx[:, None] + idx]


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
    is lifted to the integers and checked exactly; if it holds, b, Ab, ...,
    A^r b are dependent over the rationals too, and the rank is exactly r.
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
            row[:rank[i] + 1] = _relation_mod_p(echelon[i], int(rank[i]))
        for i, ok in zip(short.tolist(), _annihilated(mat, cols[:, short], lifted).tolist()):
            if ok:
                out[i] = int(rank[i])
    return out


def _certified_simple_spectrum(mat: np.ndarray) -> bool | None:
    """Whether the spectrum of `mat` is simple, where a certificate proves
    it, else None.

    Rank n of the power-sum Hankel matrix H mod _P proves it simple.  At
    rank r < n, the relation among H's first r + 1 columns is A's minimal
    polynomial mod _P; lifted and checked as q(A) = 0 over the integers,
    it has every eigenvalue as a root, so fewer than n are distinct.
    """
    n = mat.shape[0]
    if n > _MOD_MAX_N:
        return None
    rank, echelon = _echelon_mod_p(_power_sum_hankel(_residues(mat), _reduce)[None])
    r = int(rank[0])
    if r == n:
        return True
    q = _relation_mod_p(echelon[0], r)
    if _annihilated(mat, np.eye(n, dtype=np.int64), np.tile(q, (n, 1))).all():
        return False
    return None


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def has_simple_spectrum_exact(a) -> bool:
    """True iff all eigenvalues of the integer symmetric matrix are distinct.

    Decided exactly as rank H = n for the Hankel matrix H[j, k] =
    tr(A^(j+k)) of power sums, whose rank is the number of distinct
    eigenvalues: certified mod ``_P`` in both directions as in
    :func:`kalman_ranks_exact`, else by Bareiss on H over Python integers.
    """
    mat = _checked_ints(a, 2, "matrix")
    _check_symmetric(mat)
    simple = _certified_simple_spectrum(mat)
    if simple is None:
        exact = np.array(_as_int_rows(mat), dtype=object)
        simple = rank_exact(_power_sum_hankel(exact, lambda x: x)) == mat.shape[0]
    return simple


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
