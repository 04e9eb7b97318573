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
is exactly r.  A block of k > 1 inputs (B = I) is certified through one
fixed combination B w of its columns: the n x n Krylov matrix of B w has
rank at most the degree of B, and its relation is checked on the whole
block, so the spectrum test eliminates n x n, not n^2 x n, matrices.
What the certificate cannot settle falls back to fraction-free Bareiss
elimination of the (k n) x n matrix over Python integers, which with the
Faddeev-LeVerrier characteristic polynomial also serves as the oracle in
the tests.

Degrees are decided for a whole stack of matrices at once, each with its
own inputs (:func:`_krylov_degrees`): inputs shared by the stack are
repeated once per matrix on entry.  The degrees pass from tier to tier as
one (T, blocks) array in which -1 marks a degree not yet settled, and each
tier sees only the -1 entries.  A caller that already holds float
eigensystems of the stack passes them to :func:`kalman_ranks_exact` (or
to :func:`has_simple_spectrum_exact`): a rigorous perturbation bound on
the eigensystem proves most spectra simple, and then rank n for most
controllable pairs (the PBH test: no eigenvector orthogonal to b), while
integer eigenvectors proved from the float ones, such as e_i - e_j for
twin vertices of a graph, settle most deficient ranks exactly.  Then a
relation tier settles more, deficient ranks and repeated spectra alike:
the float coefficients of a product of x - w, over the eigenvalues of
the components proved nonzero or over one value per eigenvalue cluster,
are rounded to a monic integer q, and q(A) B = 0 checked exactly bounds
the degree by deg q (Gauss's lemma: the minimal polynomial has integer
coefficients, so rounding finds it while they stay below 2^53).  The
eigenvector bounds are computed once per eigensystem and kept on it.
:func:`has_simple_spectrum_exact` and :func:`kalman_ranks_exact` check
their input and run one stage each, the spectrum stage and the rank stage
(:func:`_kalman_ranks`); a basis scan (``ctrllab.minctrl.basis_scan``)
is one pass of both over a checked stack: the spectrum test computes and
keeps the bounds, and the rank stage ranks the basis of the simple
spectra on them, leaving the other rows out by their ranks.
The matrices with a column left go on to the mod-p
certificate in sub-stacks of at most ``_KRYLOV_ENTRIES`` Krylov entries,
so numpy's per-call overhead is paid once per sub-stack, not once per
matrix, and memory stays bounded for any batch: the Krylov powers of each
sub-stack are built with one stacked matrix product per power, and the
Krylov matrices of its unsettled columns alone are eliminated, in one
batched call.  Only the columns that the certificate leaves unsettled go
on to Bareiss.  A single matrix is a stack of one.

Krylov entries grow like ``norm(A)**n``, so the Kalman path is capped at
``DEFAULT_EXACT_CAP`` dimensions by default; pass ``cap=None`` (or a larger
cap) to override for fixtures.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spectral import (EigenSystem, _checked, _eigenvectors, _integer, _matrix, _stack_of_one,
                       _vector)

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


@functools.lru_cache(maxsize=64)
def _weights(k: int) -> np.ndarray:
    """k fixed pseudo-random nonzero residues mod _P, from a fixed seed,
    computed once per k and read-only."""
    w = np.random.default_rng(_P).integers(1, _P, k)
    w.flags.writeable = False
    return w


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


def _certified_ranks(mats: np.ndarray, cols: np.ndarray, k: int, ranks: np.ndarray) -> np.ndarray:
    """`ranks` (T x m / k) with each -1 entry replaced by the Krylov degree
    of its block of k consecutive columns B of the inputs `cols` (T x n x m)
    of its matrix A of the stack `mats`, where a certificate proves it; the
    other entries are returned as they are.

    A block of k > 1 columns enters mod _P as one column B w, with w the
    fixed residues :func:`_weights`.  The Krylov powers of all (combined)
    inputs of each matrix are built together (:func:`_krylov`, one stacked
    product per power), and only the n x n Krylov matrices of the -1
    blocks are gathered and eliminated together by :func:`_echelon_mod_p`.
    Their rank r mod _P never exceeds the rank over the rationals of
    [B w, A B w, ...], which is at most the Krylov degree of B (each
    A^j B w is vec(A^j B) times a fixed matrix), so r = n is proved.  For
    r < n, the monic relation q(A) B w = 0 mod _P of degree r is lifted to
    the integers and checked exactly on the whole block, all short blocks
    in one check; if q(A) B = 0 holds, the degree is at most r, so it is
    exactly r.  An unlucky w can only leave the degree unsettled.  A zero
    block has rank 0 and the relation q = 1.
    """
    t, n, m = cols.shape
    blocks = m // k
    if n > _MOD_MAX_N:
        return ranks
    which, block = (ranks < 0).nonzero()
    inputs = _residues(cols)
    if k > 1:  # sums of k <= _MOD_MAX_N products below 2^52: no int64 overflow
        inputs = _reduce(inputs.reshape(t, n, blocks, k) @ _weights(k))
    krylov = _krylov(_residues(mats), inputs, _reduce)
    rank, echelon = _echelon_mod_p(krylov[which, block])
    short = (rank < n).nonzero()[0]
    if short.size:
        low = rank[short]
        polys = _relations_mod_p(echelon[short], low)
        inputs = cols.reshape(t, n, blocks, k)[which[short], :, block[short]]
        rank[short] = np.where(_annihilated(mats, which[short], inputs, polys), low, -1)
    ranks = ranks.copy()
    ranks[which, block] = rank
    return ranks


def _krylov_degrees(mats: np.ndarray, cols: np.ndarray, k: int, ranks: np.ndarray) -> np.ndarray:
    """`ranks` (T x m / k) with every -1 entry filled with the Krylov degree
    of its block of k columns of `cols` (T x n x m) under its matrix of
    `mats`.

    The matrices with a -1 left are certified mod ``_P``
    (:func:`_certified_ranks`) in sub-stacks of at most max(1, 2^14 //
    (m n^2)) matrices, so one Krylov stack, and so one elimination, holds
    at most ``_KRYLOV_ENTRIES`` int64 entries (or one matrix's) however
    many matrices or inputs a call has; only the -1 blocks of a sub-stack
    are eliminated.  The blocks still -1 go through Bareiss
    :func:`rank_exact` on the nonzero rows of their Krylov matrix over
    Python ints, so the degrees equal the Bareiss ranks for every input.
    """
    _, n, m = cols.shape
    rest = (ranks < 0).any(axis=1).nonzero()[0]
    step = max(1, _KRYLOV_ENTRIES // max(1, m * n * n))
    for start in range(0, rest.size, step):
        sub = rest[start:start + step]
        ranks[sub] = _certified_ranks(mats[sub], cols[sub], k, ranks[sub])
    for i, j in zip(*(ranks < 0).nonzero()):
        krylov = _krylov_exact(mats[i], cols[i, :, j * k:(j + 1) * k])
        ranks[i, j] = rank_exact(krylov[(krylov != 0).any(axis=1)])
    return ranks


# ---------------------------------------------------------------------------
# certificate from a float eigensystem
# ---------------------------------------------------------------------------

_U = 2.0**-53  # unit roundoff of float64
_SLACK = 1.01  # an upper bound computed in float times _SLACK bounds its exact value
_FLOOR = 2.0**-1000  # above every absolute error that underflow adds to a bound
_MAX_DEFECT = 0.01  # largest accepted bound on ||X^T X - I||
# Sums of int64 products whose size, computed in float, stays below this
# bound cannot overflow: the float value is off by far less than a factor 2.
_INT_BOUND = 2.0**62
# Entries of a unit eigenvector at most this size may be rounded zeros; the
# smallest entry above it scales the vector's integer candidate.
_SIGNIFICANT = 2.0**-10


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


def _eigvec_bounds(a: np.ndarray, w: np.ndarray,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(simple, dist, delta) for each matrix A of the float64 stack `a`,
    given the computed eigenvalues `w` (T x n) and eigenvectors `x`
    (T x n x n, as columns) of the stack: simple[t] proves that A_t has n
    distinct eigenvalues, and then its i-th eigenvalue lies within
    delta[t] of w[t, i], and A_t has a unit eigenvector u_i with
    ||u_i - x_i|| <= dist[t, i] for every column x_i.

    Write W = diag(w) and ||.|| for the 2-norm, which ||.||_F and
    n max|m_ij| bound.  The bounds, in exact arithmetic:

    * rho >= ||A X - X W||.  The residual R is computed in float; each entry
      is an inner product of length n + 1, so it is off by at most
      gamma_(n+2) (|A| |X| + |X| |W|) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, sec. 3.5), for any BLAS summation order, and
      R by at most gamma_(n+2) ||X||_F (||A||_F + max|w|) in norm.
    * eta >= ||X^T X - I||, the same way: the error is at most gamma_(n+2)
      (|X|^T |X| + I) entrywise, so gamma_(n+2) (||X||_F^2 + 1) in norm
      (split off a diagonal part within gamma_(n+2) I).  It must be <= 0.01.
    * delta >= ||Q^T A Q - W||, where X = Q H is the polar decomposition.
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
      u_i = Q y is a unit eigenvector of A, and ||Q e_i - x_i|| = ||(I - H)
      e_i|| <= eta, so dist_i = eta + sqrt(2) delta / (g_i - delta).

    Every bound is computed in float from nonnegative terms, off by a
    relative error far below 1% (at most about n^2 2^-53) and, on
    underflow, an absolute one far below 2^-1000; :func:`_upper` covers
    both.  ||X||_F^2 loses at most 2^-1075 per squared entry that
    underflows: an absolute error in eta, and a relative one below
    n 2^-1074 in rho, which counts only where eta <= 0.01, so
    ||X||_F^2 >= 0.99 n.  A is integer, so ||A||_F^2 does not underflow.
    Gaps are lower bounds after division by 1.01.  A non-finite value
    anywhere proves nothing: every test is a strict comparison, false on
    NaN.  The residual is computed from A itself, so an eigensystem of
    another matrix can only fail to prove anything.
    """
    t, n, _ = a.shape
    gamma, top = _gamma(n + 2), np.abs(w).max(axis=1)
    frob_x = (x * x).sum(axis=(1, 2))  # ||X||_F^2
    frob_a = np.sqrt((a * a).sum(axis=(1, 2)))
    rho = _upper(_peak_norm(a @ x - x * w[:, None, :]) + gamma * np.sqrt(frob_x) * (frob_a + top))
    defect = x.transpose(0, 2, 1) @ x - np.eye(n)
    eta = _upper(_peak_norm(defect) + gamma * (frob_x + 1))
    delta = _upper((rho + 2 * eta * top) / np.sqrt(1 - eta))
    radius = delta[:, None]
    gaps = np.diff(w, axis=1) / _SLACK
    simple = (eta <= _MAX_DEFECT) & (gaps > 2 * radius).all(axis=1)
    own = np.full((t, n), np.inf)  # the nearer of the gaps beside w_i, inf beyond the ends
    own[:, :-1] = gaps
    np.minimum(own[:, 1:], gaps, out=own[:, 1:])
    return simple, _upper(eta[:, None] + math.sqrt(2) * radius / (own - radius)), delta


def _inner_error(n: int) -> float:
    """gamma_n sqrt(1.01) >= gamma_n |x| . |b| / ||b|| for ||x||^2 <= 1.01 (Cauchy-Schwarz)."""
    return _gamma(n) * math.sqrt(1 + _MAX_DEFECT)


def _integer_eigenvectors(a: np.ndarray, w: np.ndarray, x: np.ndarray, delta: np.ndarray,
                          which: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, ok) for each pair c: an int64 vector z[c], and whether it is
    proved to span the i-th eigenspace of A, for i = index[c] and A the
    matrix which[c] of the float64 stack `a`, whose spectrum
    :func:`_eigvec_bounds` proved simple with the radius `delta`.

    The candidate z is x_i scaled by its smallest entry above
    _SIGNIFICANT in size, rounded to integers, and lambda is w_i rounded;
    as ||x_i||^2 <= 1.01 where the spectrum is proved simple, every entry
    of z is below 2^11 in size.  It is accepted when z != 0, A z = lambda z
    holds exactly in int64 (no entry of A z or lambda z can reach
    _INT_BOUND) and |lambda - w_i| < delta.  Then lambda is an eigenvalue of A with eigenvector z, and it is
    the i-th: every eigenvalue lies within delta of its own w_j, and these
    intervals are disjoint, as every gap exceeds 2 delta.  The spectrum is
    simple, so z spans the eigenspace.  Each test is exact or a strict
    comparison of an upper bound, false on NaN, so a candidate from a
    wrong eigensystem can only be rejected.
    """
    n = a.shape[1]
    mats, v, wi = a[which], x[which, :, index], w[which, index]
    size = np.abs(v)
    z = np.rint(v / np.where(size > _SIGNIFICANT, size, np.inf).min(axis=1)[:, None])
    lam = np.rint(wi)
    peak = np.abs(z).max(axis=1)
    ok = (peak > 0) & (n * np.abs(mats).max(axis=(1, 2)) * peak < _INT_BOUND) \
        & (np.abs(lam) * peak < _INT_BOUND) & (_upper(np.abs(lam - wi)) < delta[which])
    z = np.where(ok[:, None], z, 0).astype(np.int64)
    lam = np.where(ok, lam, 0).astype(np.int64)
    ok &= ((mats.astype(np.int64) @ z[:, :, None])[:, :, 0] == lam[:, None] * z).all(axis=1)
    return z, ok


def _float_system(mats: np.ndarray, eigsys: EigenSystem) -> tuple | None:
    """(A, w, x, simple, dist, delta): the stack `mats` as float64 with the
    eigenvalues and eigenvectors of its eigensystem `eigsys` and the bounds
    :func:`_eigvec_bounds` proves from them; None for n = 0 or where
    float64 does not hold A exactly (:func:`_exact_floats`).

    The bounds are computed once per eigensystem and stack: they are kept,
    read-only, on `eigsys` with the float64 stack they hold for, and reused
    whenever that stack comes with it again, also through a slice of the
    eigensystem or one of its single systems, which carry them along."""
    t, n, _ = mats.shape
    w, x = eigsys.eigenvalues, _eigenvectors(eigsys)
    if w.shape != (t, n) or x.shape != (t, n, n):
        raise ValueError(f"an eigensystem of shape {x.shape} for a stack of {t} {n}x{n} matrices")
    a = _exact_floats(mats)
    if a is None or n == 0:
        return None
    kept = eigsys._proofs[0]
    if kept is None or not np.array_equal(kept[0], a):
        with np.errstate(all="ignore"):
            kept = (a, *_eigvec_bounds(a, w, x))
        for array in kept:
            array.flags.writeable = False
        eigsys._proofs[0] = kept
    return (a, w, x, *kept[1:])


def _relation_holds(mats: np.ndarray, which: np.ndarray, roots: np.ndarray, active: np.ndarray,
                    blocks: np.ndarray) -> np.ndarray:
    """Whether q_s(A) B_s = 0 is proved for each s, with A = mats[which[s]],
    B_s the (n x k) block ``blocks[s]`` and q_s the product of x - r over
    the r = roots[s, i] with active[s, i], its float coefficients rounded
    to integers.

    The product is expanded in float64, its roots taken by increasing size,
    so a spectrum symmetric about 0 keeps its partial products as small as
    the whole.  A q whose computed coefficients all lie below 2^53 in size
    is rounded, and any other q is made zero; only a monic q, one with
    leading coefficient 1 at the degree d = active[s].sum(), is checked
    exactly by :func:`_annihilated`.  Then the minimal polynomial of B_s
    under A divides q_s, so the Krylov degree of B_s is at most d.  The
    float product only proposes q: a wrong root, or a coefficient rounded
    the wrong way, makes the exact check fail, and nothing is proved.
    """
    s, n = roots.shape
    rows = np.arange(s)[:, None]
    order = np.lexsort((np.abs(roots), ~active))  # active roots first
    roots, active = roots[rows, order], active[rows, order]
    degree = active.sum(axis=1)
    top = int(degree.max(initial=0))
    padded = np.zeros((s, top + 2))  # column 0 stays 0: padded[:, :-1] is coeffs times x
    coeffs = padded[:, 1:]
    coeffs[:, 0] = 1.0
    with np.errstate(all="ignore"):
        for k in range(top):
            np.copyto(coeffs, padded[:, :-1] - roots[:, k, None] * coeffs, where=active[:, k, None])
        fits = (np.abs(coeffs) < 2.0**53).all(axis=1)
    polys = np.where(fits[:, None], np.rint(coeffs), 0).astype(np.int64)
    holds = polys[np.arange(s), degree] == 1  # monic; a q that does not fit is zero
    if holds.any():
        holds[holds] = _annihilated(mats, which[holds], blocks[holds], polys[holds])
    return holds


def _float_certified(mats: np.ndarray, cols: np.ndarray, system: tuple) -> np.ndarray:
    """The Kalman ranks [t, j] that the float system `system` of the stack
    `mats` (:func:`_float_system`; None proves nothing) proves for each
    matrix A of the stack and each column b of its inputs; -1 where it
    proves none.

    Where the spectrum is proved simple, the rank of b is the number of
    unit eigenvectors u_i of A with u_i . b != 0: the eigenvalues of
    those u_i are the distinct roots of b's minimal polynomial.
    ||x_i||^2 <= 1 + eta <= 1.01, so for the bound dist_i >= ||u_i - x_i||
    of :func:`_eigvec_bounds`, |u_i . b| >= |fl(x_i . b)| - (e + dist_i)
    ||b|| with e = :func:`_inner_error`, and where that is positive, the
    component is nonzero; when it proves every component of every column
    nonzero, every rank is n and nothing more is computed.  A component
    that bound leaves is decided
    exactly where :func:`_integer_eigenvectors` proves an integer z that
    spans u_i's eigenspace: u_i . b = 0 iff z . b = 0, computed in int64
    when n max|z| max|b| is below _INT_BOUND.  A column whose every
    component is decided gets its rank, n when every one is nonzero (PBH).
    A column with components still undecided gets the number d of those
    proved nonzero, a lower bound on its rank, where the relation q(A) b = 0
    for q the product of x - w_i over them, rounded to integers, holds
    exactly (:func:`_relation_holds`): it bounds the rank by d from above.
    By Gauss's lemma b's minimal polynomial has integer coefficients, so
    when every undecided component is zero, q is found unless its
    coefficients are too large to round.  The tier applies only where
    float64 holds A and b exactly (:func:`_exact_floats`).  Identity
    inputs, the standard basis of a basis scan, are read as x^T with unit
    norms, the exact values of x^T I and ||e_j||.
    """
    ranks = np.full((len(mats), cols.shape[-1]), -1)
    b = _exact_floats(cols)
    if system is None or b is None:
        return ranks
    a, w, x, simple, dist, delta = system
    n = a.shape[1]
    basis = cols.shape[1:] == (n, n) and (b == np.eye(n)).all()  # x^T I = x^T, ||e_j|| = 1
    with np.errstate(all="ignore"):
        norm_b = 1.0 if basis else np.sqrt((b * b).sum(axis=-2))[..., None, :]
        err = _upper((dist[:, :, None] + _inner_error(n)) * norm_b)
        products = x.transpose(0, 2, 1) if basis else x.transpose(0, 2, 1) @ b
        nonzero = np.abs(products) > err  # [t, i, j]
        if simple.all() and nonzero.all():  # every column of full rank (PBH)
            return np.full_like(ranks, n)
        known = nonzero.copy()
        which, index = (simple[:, None] & ~nonzero.all(axis=2)).nonzero()
        if which.size:
            z, ok = _integer_eigenvectors(a, w, x, delta, which, index)
            inputs = b[which]
            exact = ok[:, None] & (n * np.abs(z).max(axis=1)[:, None] * np.abs(inputs).max(axis=1)
                                   < _INT_BOUND)
            known[which, index] |= exact
            nonzero[which, index] |= exact & ((z[:, None] @ inputs.astype(np.int64))[:, 0] != 0)
    settled = simple[:, None] & known.all(axis=1)
    which, col = (simple[:, None] & ~settled).nonzero()
    if which.size:
        proved = nonzero[which, :, col]
        settled[which, col] = _relation_holds(mats, which, w[which], proved,
                                              cols[which, :, col, None])
    ranks[settled] = nonzero.sum(axis=1)[settled]
    return ranks


def _float_spectra(mats: np.ndarray, eigsys: EigenSystem) -> tuple | None:
    """(simple, repeated) for each matrix A of the stack `mats`, from its
    eigensystem of the stack `eigsys`: the bound of :func:`_eigvec_bounds`
    proves a simple spectrum, and a relation q(A) = 0 of degree below n a
    repeated one; None where :func:`_float_system` gives no system.

    The eigenvalues w_i are split into clusters wherever w_(i+1) - w_i
    exceeds 2 delta, for the Weyl radius delta: eigenvalues computed for
    one eigenvalue of A lie within 2 delta of each other, so an honest
    bound never splits them.  q is the product of x - c over one value c
    per cluster, their mean, rounded; where a matrix has fewer than n
    clusters and q(A) = 0 holds exactly (:func:`_relation_holds` on the
    block I), A's minimal polynomial has degree below n.
    """
    system = _float_system(mats, eigsys)
    if system is None:
        return None
    _, w, _, simple, _, delta = system
    t, n = w.shape
    with np.errstate(all="ignore"):  # a comparison with NaN is false: no split
        split = np.diff(w, axis=1) > 2 * delta[:, None]
    cluster = np.hstack([np.zeros((t, 1), dtype=np.intp), np.cumsum(split, axis=1)])
    count = cluster[:, -1] + 1
    which = (~simple & (count < n)).nonzero()[0]
    repeated = np.zeros(t, dtype=bool)
    if which.size:
        flat = (cluster[which] + n * np.arange(which.size)[:, None]).ravel()
        size = np.bincount(flat, None, which.size * n)
        roots = np.bincount(flat, w[which].ravel(), size.size) / np.maximum(size, 1)
        active = np.arange(n) < count[which, None]
        eye = np.eye(n, dtype=np.int64)[None].repeat(which.size, axis=0)
        repeated[which] = _relation_holds(mats, which, roots.reshape(-1, n), active, eye)
    return simple, repeated


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def _kalman_ranks(mats: np.ndarray, cols: np.ndarray, system: tuple | None,
                  ranks: np.ndarray) -> np.ndarray:
    """The rank stage of :func:`kalman_ranks_exact`, on checked arrays:
    `ranks` (T x m) with each -1 entry replaced by the Kalman rank of its
    column of the inputs `cols` (T x n x m) under its matrix of the stack
    `mats`; the other entries are returned as they are, so a caller leaves
    out a row by giving it any rank.  The float tier settles what the float
    system `system` of the stack (:func:`_float_system`, or None) proves
    (:func:`_float_certified`), and :func:`_krylov_degrees` the entries
    left."""
    ranks = np.where(ranks < 0, _float_certified(mats, cols, system), ranks)
    if (ranks < 0).any():
        ranks = _krylov_degrees(mats, cols, 1, ranks)
    return ranks


def has_simple_spectrum_exact(a, eigsys: EigenSystem | None = None):
    """Whether all eigenvalues of the integer symmetric matrix are distinct;
    for a stack of T matrices (T x n x n), a list of T such bools.  A
    single matrix is a stack of one.

    With `eigsys`, the float eigensystem of `a`, shaped like `a` (as for
    :func:`kalman_ranks_exact`), the bound of :func:`_eigvec_bounds`
    proves most simple spectra, and a relation q(A) = 0 of degree below n,
    rounded from the eigenvalue clusters and checked exactly, most
    repeated ones (:func:`_float_spectra`), where float64 holds A exactly;
    a wrong eigensystem can make them prove less, never something false.
    The matrices they leave, if any, are decided together, in one
    :func:`_krylov_degrees` call, by whether the Krylov degree of I under
    A, the degree of A's minimal polynomial, is n: certified mod ``_P`` in
    both directions through one fixed combination of the columns of I,
    with the relation checked on I itself, else by Bareiss on the nonzero
    rows of the n^2 x n matrix of the powers vec(A^j) over Python integers.
    """
    mats = _checked(a, _ints, system=True)
    single = mats.ndim == 2
    mats = mats[None] if single else mats
    t, n, _ = mats.shape
    simple, left = np.zeros(t, dtype=bool), np.ones(t, dtype=bool)
    spectra = None if eigsys is None else \
        _float_spectra(mats, _stack_of_one(eigsys) if single else eigsys)
    if spectra is not None:
        simple, repeated = spectra[0].copy(), spectra[1]
        left = ~(simple | repeated)
    if left.any():
        eye = np.eye(n, dtype=mats.dtype)[None].repeat(left.sum(), axis=0)
        degrees = np.full((len(eye), 1), -1 if n else 0)  # the 0 x 0 spectrum is simple
        simple[left] = _krylov_degrees(mats[left], eye, n, degrees)[:, 0] == n
    return bool(simple[0]) if single else simple.tolist()


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
       rigorous bound on it proves where A has a simple spectrum, and there
       the rank of b is the number of eigenvectors of A not orthogonal to
       b.  The bound proves most components of b nonzero, and an integer
       eigenvector of A, proved from the float one, decides a component
       exactly; a column with every component decided is settled, full
       rank or not, and one with components left is settled where the
       rounded product of x - w_i over the components proved nonzero
       annihilates it exactly (see :func:`_float_certified`).  It applies
       where A and b are integers of magnitude at most 2^53 held in
       fixed-width dtypes; a wrong eigensystem can make it prove less,
       never wrong.
    2. The entries still -1, if any, are certified mod ``_P`` in bounded
       sub-stacks, which eliminate only those columns, else decided by
       Bareiss (:func:`_krylov_degrees`).

    The zero vector has rank 0.  At rank r < n mod p the certificate lifts
    the monic relation q(A) b = 0 mod p of degree r to (-p/2, p/2] and
    checks it over the integers, and the lift almost always holds: the
    minimal polynomial of b under A is a monic divisor of the
    characteristic polynomial, which is monic with integer coefficients,
    so by Gauss's lemma it has integer coefficients too; when p keeps the
    rank and those coefficients lie below p/2, it is the lifted q.
    Dimensions beyond `cap` raise :class:`DimensionCapError`, and a cap
    that is neither None nor an integer a ValueError; an invalid matrix of
    a stack raises a ValueError naming its index, and inputs of the wrong
    shape are named by their shape before their entries are read.
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
    if cap is not None and n > _integer(cap, "cap"):
        raise DimensionCapError(f"n={n} exceeds exact cap {cap}; use the float PBH path")
    system = None if eigsys is None else \
        _float_system(mats, _stack_of_one(eigsys) if single else eigsys)
    if shared:  # a copy, cheaper than np.broadcast_to's view for small stacks
        cols = cols[None].repeat(t, axis=0)
    ranks = _kalman_ranks(mats, cols, system, np.full((t, cols.shape[2]), -1))
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
