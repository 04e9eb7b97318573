"""Exact controllability decisions for integer symmetric systems.

Every verdict here is exact (no tolerances, no rounding), and each is one
number: the Krylov degree of a block B of k inputs under A, the rank of
the (k n) x n integer matrix whose column j is vec(A^j B), j < n.  For
B = b it is the Kalman rank, and (A, b) is controllable iff it is n.  For
B = I it is the degree of A's minimal polynomial, which for symmetric A is
the number of distinct eigenvalues, so the spectrum is simple iff it is n.
Each degree is first certified modulo the word-size prime ``_P``.  A rank
mod p never exceeds the rank over the rationals, so full rank mod p is
full rank.  A rank r < n mod p comes with a monic relation q of degree r
among the first r + 1 columns; lifted to integers, q(A) B = 0 verified
exactly bounds the rank over the rationals by r from above, so the rank
is exactly r.  What the certificate cannot settle falls back to
fraction-free Bareiss elimination of the same matrix over Python
integers, which with the Faddeev-LeVerrier characteristic polynomial also
serves as the oracle in the tests.

Degrees are decided for a whole stack of matrices at once, each with its
own inputs (:func:`_krylov_degrees`): inputs shared by the stack are
repeated once per matrix on entry.  The Krylov matrices of a stack are
built with one stacked matrix product per power and eliminated in one
batched call per sub-stack of at most ``_KRYLOV_ENTRIES`` entries, so
numpy's per-call overhead is paid once per sub-stack, not once per matrix,
and memory stays bounded for any batch.  A single matrix is a stack of one.
The degrees pass from tier to tier as one (T, blocks) array in which -1
marks a degree not yet settled, and each tier fills only -1 entries.  A
caller that already holds float eigensystems of the stack passes them to
:func:`kalman_ranks_exact`: a rigorous perturbation bound on the
eigensystem proves rank n for most controllable pairs (the PBH test:
simple spectrum, no eigenvector orthogonal to b); only matrices with a
column it leaves unproved go on to the mod-p certificate, and only columns
that one leaves unsettled go on to Bareiss.

Krylov entries grow like ``norm(A)**n``, so the Kalman path is capped at
``DEFAULT_EXACT_CAP`` dimensions by default; pass ``cap=None`` (or a larger
cap) to override for fixtures.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import EigenSystem, _checked, _eigenvectors, _matrix, _stack_of_one, _vector

__all__ = [
    "DEFAULT_EXACT_CAP",
    "DimensionCapError",
    "kalman_matrix",
    "rank_exact",
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

# Bound on the int64 entries of one Krylov stack, T * m * n^2 for T matrices
# with m inputs each: :func:`_krylov_degrees` certifies its matrices mod _P
# in sub-stacks within it (or of one matrix), whatever batch a caller hands
# in.  Measured when this bound sized the harness's chunks, on the
# exact-kalman and minctrl-search benchmark workloads against one trial
# per chunk: peak RSS grows 0.3-1.3% at 2**13, 0.7-1.8% at 2**14, 2.3-3.5%
# at 2**15 and up to 6.5% unbounded, while trials/s stops growing beyond
# 2**14.
_KRYLOV_ENTRIES = 2**14


class DimensionCapError(ValueError):
    """Exact-path dimension cap exceeded; use the float PBH path instead."""


def _ints(a: np.ndarray) -> np.ndarray:
    """The integer entries of `a`, held as int64 when `a` has a fixed-width
    or float dtype and every entry fits, else (always for object input) as
    Python ints in an object array."""
    if a.dtype.kind in "bi" or a.dtype.kind in "uf" and _peak(a) < 2**63:
        return a.astype(np.int64, copy=False)
    return np.array([int(x) for x in a.flat], dtype=object).reshape(a.shape)


def kalman_matrix(a, b) -> np.ndarray:
    """Exact Kalman matrix with columns b, Ab, ..., A^(n-1) b.

    Returns an object-dtype array of Python ints, so entries never overflow.
    A need not be symmetric.
    """
    mat = _matrix(a, _ints, system=False)
    return _krylov_exact(mat, _vector(b, len(mat), _ints)[:, None])


def rank_exact(m) -> int:
    """Exact rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination on Python ints, one pivot row at a time.

    Pivots are searched per column among the remaining rows; columns with no
    nonzero entry are skipped.  Each update divides by the previous pivot,
    which is exact by Sylvester's determinant identity.
    """
    if np.ndim(m) != 2:
        raise ValueError(f"expected a matrix, got shape {np.shape(m)}")
    rows = _checked(m, _ints, name="matrix").astype(object)
    nrows, ncols = rows.shape
    prev, row = 1, 0
    for col in range(ncols):
        if row == nrows:
            break
        nonzero = (rows[row:, col] != 0).nonzero()[0]
        if not nonzero.size:
            continue
        piv = row + nonzero[0]
        rows[[row, piv]] = rows[[piv, row]]
        pivot = rows[row, col]
        rest = rows[row + 1:, col + 1:]
        rest[...] = (rest * pivot - rows[row + 1:, col, None] * rows[row, col + 1:]) // prev
        prev = pivot
        row += 1
    return row


def charpoly_exact(a) -> list[int]:
    """Characteristic polynomial det(xI - A), ascending coefficients.

    Faddeev-LeVerrier recursion on Python-int matrices; every division by
    the step index is exact for integer input.  The leading coefficient is
    always 1.  A need not be symmetric.
    """
    mat = _matrix(a, _ints, system=False).astype(object)
    m = eye = np.eye(len(mat), dtype=object)  # M_0 = I
    coeffs = [1]  # descending: x^n, x^(n-1), ...
    for k in range(1, len(mat) + 1):
        am = mat @ m
        q, r = divmod(-am.trace(), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible; non-integer input?")
        coeffs.append(q)
        m = am + q * eye
    return coeffs[::-1]


# ---------------------------------------------------------------------------
# certificates modulo _P
# ---------------------------------------------------------------------------

def _residues(m: np.ndarray) -> np.ndarray:
    """Entries mod _P as int64, of an array of int64 or Python ints."""
    return (m % _P).astype(np.int64) if m.dtype == object else _reduce(m.astype(np.int64))


def _reduce(x: np.ndarray) -> np.ndarray:
    """x mod _P in place; numpy's int64 floor division by a scalar is far
    faster than its remainder."""
    x -= x // _P * _P
    return x


def _krylov(a: np.ndarray, v: np.ndarray, reduce) -> np.ndarray:
    """The Krylov matrices [b, Ab, ..., A^(n-1)b] of each matrix A of the
    stack `a` (T x n x n) and each column b of its inputs `v` (T x n x m),
    indexed [t, j, :, k], built with one stacked product per power: residues
    mod _P with ``reduce=_reduce``, Python ints with an identity `reduce`.
    The k consecutive matrices of a block of k columns B, read as one
    (k n) x n matrix, have the columns vec(B), vec(AB), ...."""
    t, n, m = v.shape
    krylov = np.empty((t, m, n, n), dtype=v.dtype)
    power = v
    for k in range(n):
        if k:
            power = reduce(a @ power)
        krylov[:, :, :, k] = power.transpose(0, 2, 1)
    return krylov


def _krylov_exact(mat: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The (k n) x n Krylov matrix of one matrix and its n x k block of
    inputs, over Python ints."""
    n, k = block.shape
    return _krylov(mat.astype(object)[None], block.astype(object)[None],
                   lambda x: x).reshape(k * n, n)


def _echelon_mod_p(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each N x n matrix (N >= n) in `stack` and its n x n echelon
    form, mod _P.

    `stack` holds residues and is overwritten.  Every matrix is eliminated
    one column per step: it swaps a row with a nonzero entry in the column
    to the top, clears the column below by cross-multiplication (no
    inverses needed) and drops the top row and the column.  The top row of
    matrix i at step k becomes row k of the upper triangular
    ``echelon[i]``.  A step without a nonzero entry zeroes the rest of the
    matrix, so the rank returned is the number of columns before the first
    one that depends on the columns before it.  That is the rank when the
    columns form a Krylov sequence (once a column depends on the earlier
    ones, so does every later one); for any square matrix, rank n means
    all n pivots are nonzero, so the matrix is nonsingular mod _P.
    """
    s = stack
    m, _, n = s.shape
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


def _relations_mod_p(echelon: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Row s: ascending coefficients of the monic q of degree r = ranks[s]
    with q_0 c_0 + ... + q_r c_r = 0 mod _P for the columns c_k of matrix s,
    lifted to the integers in (-_P/2, _P/2], zero above the degree.

    `echelon` holds the matrices' echelon forms from :func:`_echelon_mod_p`,
    matrix s of rank r < n: its first r rows are an upper triangular system
    in the coefficients of c_0, ..., c_r, and its other rows are zero.  All
    systems are solved at once by fraction-free back-substitution with
    q_r = 1: the coefficients are kept over a common denominator, the
    product of the pivots, so each matrix needs one modular inverse, at the
    end.  For a Krylov matrix, c_k = A^k b and q(A) b = 0 mod _P.
    """
    d = int(ranks.max()) + 1
    idx = np.arange(d)
    u = echelon[:, :d, :d]
    diag = u[:, idx, idx]
    pivots = np.where(diag == 0, 1, diag)  # 1 on the zero rows k >= r
    q = (idx == ranks[:, None]).astype(np.int64)  # numerators; q_r = 1 over denominator 1
    for k in range(d - 2, -1, -1):
        # q_k = -(sum_j u[k, j] q_j) / u[k, k], over the new denominator times u[k, k]
        q[:, k] -= (u[:, k, k + 1:] * q[:, k + 1:]).sum(axis=1)
        q[:, k + 1:] *= pivots[:, k:k + 1]
        _reduce(q[:, k:])
    inverse = [pow(x, -1, _P) for x in math.prod(pivots.T.astype(object))]  # each row's product
    q = _reduce(q * np.array(inverse, dtype=np.int64)[:, None])
    return np.where(q > _P // 2, q - _P, q)


def _annihilated(mats: np.ndarray, which: np.ndarray, blocks: np.ndarray,
                 polys: np.ndarray) -> np.ndarray:
    """Whether q_s(A) B_s = 0 over the integers for each block B_s of the
    (S, n, k) `blocks`, with A = mats[which[s]] and q_s row s of `polys`
    (ascending, zero above the degree).

    One Horner scheme runs over all blocks at once.  It runs in int64 only
    when a bound on A and on every intermediate entry, computed in Python
    ints, stays below 2^63, and in Python ints otherwise.
    """
    a, v = mats[which], blocks
    norm_a = a.shape[1] * _peak(a)
    size = _peak(v) * _peak(polys)
    bound = 0
    for _ in range(polys.shape[1]):
        bound = norm_a * bound + size
    if max(bound, norm_a) < 2**63:
        a, v, polys = a.astype(np.int64), v.astype(np.int64), polys.astype(np.int64)
    else:
        a, v, polys = a.astype(object), v.astype(object), polys.astype(object)
    acc = np.zeros_like(v)
    for k in range(polys.shape[1] - 1, -1, -1):
        acc = a @ acc + v * polys[:, k, None, None]
    return (acc == 0).all(axis=(1, 2))  # a bool per block on object arrays too


def _peak(x: np.ndarray) -> int:
    """max |x_i| as a Python int, so no entry size overflows."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _certified_ranks(mats: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Krylov degree of each block of k consecutive columns B of the inputs
    of each matrix A of the stack `mats`, where a certificate proves it,
    else -1; indexed [t, j] for block j.

    `cols` (T x n x m, m a multiple of k) holds the inputs of each matrix,
    and the Krylov matrices of all blocks (:func:`_krylov`) are eliminated
    together by :func:`_echelon_mod_p`.  The rank r mod _P never exceeds
    the rank over the rationals, so r = n is proved.  For r < n, the monic
    relation q(A) B = 0 mod _P of degree r is lifted to the integers and
    checked exactly, all short blocks of all matrices in one check; if it
    holds, B, AB, ..., A^r B are dependent over the rationals too, and the
    rank is exactly r.  A zero block has rank 0 and the relation q = 1.
    """
    t, n, m = cols.shape
    blocks = m // k
    if n > _MOD_MAX_N:
        return np.full((t, blocks), -1)
    krylov = _krylov(_residues(mats), _residues(cols), _reduce)
    rank, echelon = _echelon_mod_p(krylov.reshape(t * blocks, k * n, n))
    rank, echelon = rank.reshape(t, blocks), echelon.reshape(t, blocks, n, n)
    which, short = (rank < n).nonzero()
    if which.size:
        low = rank[which, short]
        polys = _relations_mod_p(echelon[which, short], low)
        ok = _annihilated(mats, which, cols.reshape(t, n, blocks, k)[which, :, short], polys)
        rank[which, short] = np.where(ok, low, -1)
    return rank


def _krylov_degrees(mats: np.ndarray, cols: np.ndarray, k: int, ranks: np.ndarray) -> np.ndarray:
    """`ranks` (T x m / k) with every -1 entry filled with the Krylov degree
    of its block of k columns of `cols` (T x n x m) under its matrix of
    `mats`.

    The matrices with a -1 left are certified mod ``_P``
    (:func:`_certified_ranks`) in sub-stacks of at most max(1, 2^14 //
    (m n^2)) matrices, so one Krylov stack holds at most
    ``_KRYLOV_ENTRIES`` int64 entries (or one matrix's) however many
    matrices or inputs a call has.  The blocks still -1 go through Bareiss
    :func:`rank_exact` on their Krylov matrix over Python ints, so the
    degrees equal the Bareiss ranks for every input.
    """
    _, n, m = cols.shape
    rest = (ranks < 0).any(axis=1).nonzero()[0]
    step = max(1, _KRYLOV_ENTRIES // max(1, m * n * n))
    for start in range(0, rest.size, step):
        sub = rest[start:start + step]
        left = ranks[sub]
        ranks[sub] = np.where(left < 0, _certified_ranks(mats[sub], cols[sub], k), left)
    for i, j in zip(*(ranks < 0).nonzero()):
        ranks[i, j] = rank_exact(_krylov_exact(mats[i], cols[i, :, j * k:(j + 1) * k]))
    return ranks


# ---------------------------------------------------------------------------
# certificate from a float eigensystem
# ---------------------------------------------------------------------------

_U = 2.0**-53  # unit roundoff of float64
_SLACK = 1.01  # an upper bound computed in float times _SLACK bounds its exact value
_FLOOR = 2.0**-1000  # above every absolute error that underflow adds to a bound
_MAX_DEFECT = 0.01  # largest accepted bound on ||X^T X - I||


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): |fl(x . y) - x . y| <= gamma_k |x| . |y| for
    vectors of length k, in any summation order, with or without FMA."""
    return k * _U / (1 - k * _U)


def _upper(x):
    """A float expression in nonnegative bounds, made an upper bound on its exact value."""
    return x * _SLACK + _FLOOR


def _peak_norm(m: np.ndarray) -> np.ndarray:
    """n * max |m_ij| >= ||m||_F >= ||m||_2 for each n x n matrix of a stack,
    computed without rounding."""
    return m.shape[-1] * np.abs(m).max(axis=(-2, -1))


def _exact_floats(x: np.ndarray) -> np.ndarray | None:
    """x as float64 when it holds fixed-width integers with |x| <= 2^53,
    so the float64 copy is exact; else None."""
    return None if x.dtype == object or _peak(x) > 2**53 else x.astype(np.float64)


def _eigvec_bounds(a: np.ndarray, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(simple, dist) for each matrix A of the float64 stack `a`, given the
    computed eigenvalues `w` (T x n) and eigenvectors `x` (T x n x n, as
    columns) of the stack: simple[t] proves that A_t has n distinct
    eigenvalues, and then A_t has a unit eigenvector u_i with
    ||u_i - x_i|| <= dist[t, i] for every column x_i.

    Write W = diag(w) and u = 2^-53.  The bounds, in exact arithmetic:

    * rho >= ||A X - X W||_2.  The residual R is computed in float; each
      entry is an inner product of length n + 1, so it is off by at most
      gamma_(n+2) (|A| |X| + |X| |W|) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, sec. 3.5), for any BLAS summation order.
    * eta >= ||X^T X - I||_2, the same way with gamma_(n+2) (|X|^T |X| + I).
      It must be at most 0.01.
    * delta >= ||Q^T A Q - W||_2, where X = Q H is the polar decomposition.
      The singular values of X lie in [sqrt(1 - eta), sqrt(1 + eta)], so
      ||H - I|| <= eta and ||H^-1|| <= 1 / sqrt(1 - eta).  From
      A Q H = Q H W + R, Q^T A Q - W = (H W - W H + Q^T R) H^-1, and
      H W - W H = (H - I) W - W (H - I); so
      delta = (rho + 2 eta max|w|) / sqrt(1 - eta).
    * Q^T A Q is symmetric with A's eigenvalues, so by Weyl each eigenvalue
      of A lies within delta of its w_i, in order: the spectrum is simple
      when every gap w_(i+1) - w_i exceeds 2 delta.
    * Let g_i be w_i's own gap (to its nearer neighbour) and y a unit
      eigenvector of Q^T A Q with eigenvalue l, |l - w_i| <= delta.  From
      (W - l) y = -(Q^T A Q - W) y, the components of y off i are at most
      delta / (g_i - delta) in norm (Davis-Kahan sin theta), so with the
      sign that makes y_i >= 0, ||y - e_i|| <= sqrt(2) delta / (g_i - delta).
      u_i = Q y is a unit eigenvector of A, and ||Q e_i - x_i|| =
      ||(I - H) e_i|| <= eta, so
      dist_i = eta + sqrt(2) delta / (g_i - delta).

    Every bound is computed in float from nonnegative terms, so a relative
    error of a few u and, on underflow, an absolute error far below 2^-1000
    make it off; :func:`_upper` covers both.  2-norms are bounded by
    n max|m_ij|, which takes no rounding.  Gaps are lower bounds after
    division by 1.01.  A non-finite value anywhere proves nothing: every
    test is a strict comparison, false on NaN.  The residual is computed
    from A itself, so an eigensystem of another matrix can only fail to
    prove anything.
    """
    t, n, _ = a.shape
    diag = np.arange(n)
    absx = np.abs(x)
    resid = a @ x - x * w[:, None, :]
    size = np.abs(a) @ absx + absx * np.abs(w)[:, None, :]
    rho = _upper(_peak_norm(resid) + _gamma(n + 2) * _peak_norm(size))
    defect = x.transpose(0, 2, 1) @ x
    defect[:, diag, diag] -= 1
    size = absx.transpose(0, 2, 1) @ absx
    size[:, diag, diag] += 1
    eta = _upper(_peak_norm(defect) + _gamma(n + 2) * _peak_norm(size))
    delta = _upper((rho + 2 * eta * np.abs(w).max(axis=1)) / np.sqrt(1 - eta))[:, None]
    gaps = np.diff(w, axis=1) / _SLACK
    simple = (eta <= _MAX_DEFECT) & (gaps > 2 * delta).all(axis=1)
    edge = np.full((t, 1), np.inf)
    own = np.minimum(np.hstack([edge, gaps]), np.hstack([gaps, edge]))
    return simple, _upper(eta[:, None] + math.sqrt(2) * delta / (own - delta))


def _inner_products(x: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_i . b for every column x_i of each matrix of the stack `x` and
    every column b of its inputs `cols`, indexed [t, i, j], computed in
    float, and a bound on each one's error: gamma_n |x_i| . |b|, which
    :func:`_upper` makes an upper bound when computed in float."""
    xt = x.transpose(0, 2, 1)
    return xt @ cols, _upper(_gamma(x.shape[1]) * (np.abs(xt) @ np.abs(cols)))


def _float_certified(mats: np.ndarray, cols: np.ndarray, eigsys: EigenSystem) -> np.ndarray:
    """bool [t, j]: whether eigsys[t], of the stack `eigsys`, proves (A, b)
    controllable, for each matrix A of the stack `mats` and each column b of its inputs.

    For unit eigenvectors u_i of A and the bound dist_i >= ||u_i - x_i||
    of :func:`_eigvec_bounds`, |u_i . b| >= |fl(x_i . b)| - gamma_n
    |x_i| . |b| - dist_i ||b||, so when that is positive for every i and
    the spectrum is simple, no eigenvector of A is orthogonal to b and
    (A, b) is controllable (PBH): its Kalman rank is n.  The test applies
    only where float64 holds A and b exactly (:func:`_exact_floats`).
    """
    t, n, _ = mats.shape
    w, x = eigsys.eigenvalues, _eigenvectors(eigsys)
    if w.shape != (t, n) or x.shape != (t, n, n):
        raise ValueError(f"an eigensystem of shape {x.shape} for a stack of {t} {n}x{n} matrices")
    a, b = _exact_floats(mats), _exact_floats(cols)
    if a is None or b is None or n == 0:
        return np.zeros((t, cols.shape[-1]), dtype=bool)
    with np.errstate(all="ignore"):
        simple, dist = _eigvec_bounds(a, w, x)
        inner, err = _inner_products(x, b)
        norm_b = np.sqrt((b * b).sum(axis=-2))[..., None, :]
        clear = np.abs(inner) > err + _upper(dist[:, :, None] * norm_b)
    return simple[:, None] & clear.all(axis=1)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def has_simple_spectrum_exact(a) -> bool:
    """True iff all eigenvalues of the integer symmetric matrix are distinct.

    Decided exactly as the Krylov degree of I under A, the degree of A's
    minimal polynomial, being n: certified mod ``_P`` in both directions
    as in :func:`kalman_ranks_exact`, else by Bareiss on the n^2 x n
    matrix of the powers vec(A^j) over Python integers.
    """
    mat = _matrix(a, _ints)
    n = len(mat)
    eye = np.eye(n, dtype=mat.dtype)[None]
    return n == 0 or _krylov_degrees(mat[None], eye, n, np.full((1, 1), -1)).item() == n


def kalman_ranks_exact(a, inputs, cap: int | None = DEFAULT_EXACT_CAP,
                       eigsys: EigenSystem | None = None) -> list:
    """Exact rank of [b, Ab, ..., A^(n-1)b] for every column b of `inputs`.

    `a` is one n x n matrix, with `inputs` n x m, and the result is a list
    of m ranks.  Or `a` is a stack of T matrices, T x n x n, with `inputs`
    n x m, shared by every matrix, or T x n x m, one set per matrix, and the
    result is a list of T such lists.  A single matrix is a stack of one.

    Shared inputs are repeated into a T x n x m stack on entry, and the
    ranks pass through up to three tiers as one T x m array, -1 where not
    yet settled; each tier sees only what the one before it left:

    1. With `eigsys`, the float eigensystem of `a`, shaped like `a` (a
       stack's as :func:`~ctrllab.spectral.eig_sym` returns it), a
       rigorous bound on it proves rank n for a column b where A has a
       simple spectrum and no eigenvector of A is orthogonal to b (see
       :func:`_eigvec_bounds`).  It applies where A and b are integers of
       magnitude at most 2^53 held in fixed-width dtypes, and only proves
       full rank; a wrong eigensystem can make it prove less, never wrong.
    2. The entries still -1 are certified mod ``_P`` in bounded sub-stacks,
       else decided by Bareiss (:func:`_krylov_degrees`).

    The zero vector has rank 0.  At rank r < n mod p the certificate lifts
    the monic relation q(A) b = 0 mod p of degree r to (-p/2, p/2] and
    checks it over the integers, and the lift almost always holds: the
    minimal polynomial of b under A is a monic divisor of the
    characteristic polynomial, which is monic with integer coefficients,
    so by Gauss's lemma it has integer coefficients too; when p keeps the
    rank and those coefficients lie below p/2, it is the lifted q.
    Dimensions beyond `cap` raise :class:`DimensionCapError`; an invalid
    matrix of a stack raises a ValueError naming its index, and inputs of
    the wrong shape are named by their shape before their entries are read.
    """
    mats = _checked(a, _ints, system=True)
    single = mats.ndim == 2
    mats = mats[None] if single else mats
    t, n, _ = mats.shape
    shape = np.shape(inputs)
    if len(shape) == 1 or len(shape) in (2, 3) and shape[-2] != n:
        raise ValueError(f"dimension mismatch: A is {n}x{n}, inputs have shape {shape}")
    cols = _checked(inputs, _ints)
    shared = cols.ndim == 2
    if not shared and len(cols) != t:
        raise ValueError(f"{len(cols)} input matrices for a stack of {t} matrices")
    if cap is not None and n > cap:
        raise DimensionCapError(f"n={n} exceeds exact cap {cap}; use the float PBH path")
    if single and eigsys is not None:
        eigsys = _stack_of_one(eigsys)
    if shared:  # a copy, cheaper than np.broadcast_to's view for small stacks
        cols = cols[None].repeat(t, axis=0)
    ranks = np.full((t, cols.shape[2]), -1)
    if eigsys is not None:
        ranks[_float_certified(mats, cols, eigsys)] = n
    ranks = _krylov_degrees(mats, cols, 1, ranks)
    return (ranks[0] if single else ranks).tolist()


def is_controllable_exact(a, b, cap: int | None = DEFAULT_EXACT_CAP) -> bool:
    """Kalman rank test, decided exactly: rank [b, Ab, ..., A^(n-1)b] == n.

    The zero vector is never controllable.  Dimensions beyond `cap` raise
    :class:`DimensionCapError`.  See :func:`kalman_ranks_exact`.
    """
    mat = _matrix(a, _ints)
    vec = _vector(b, len(mat), _ints)
    (rank,) = kalman_ranks_exact(mat, vec[:, None], cap)
    return rank > 0 and rank == len(vec)
