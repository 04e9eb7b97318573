import functools
import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from ctrllab import (
    DEFAULT_EXACT_CAP,
    DimensionCapError,
    EigenSystem,
    EnsembleSpec,
    SeedPath,
    basis_scan,
    charpoly_exact,
    eig_sym,
    has_simple_spectrum_exact,
    is_controllable_exact,
    kalman_matrix,
    kalman_ranks_exact,
    pbh_controllable,
    rank_exact,
    sample_ensemble,
    sparsest_input,
)
from ctrllab import exact as exact_module
from ctrllab.exact import _P

P3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
GNP = EnsembleSpec.gnp(0.5)


def rank_oracle(m) -> int:
    """Naive rational Gaussian elimination, independent of the Bareiss path."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(m)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[row])]
        rank += 1
        row += 1
        if row == len(rows):
            break
    return rank


def det_oracle(m) -> Fraction:
    """Rational Gaussian elimination determinant, independent of Bareiss."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(m)]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


# ---------------------------------------------------------------------------
# kalman matrix
# ---------------------------------------------------------------------------

def test_kalman_swap_matrix():
    k = kalman_matrix([[0, 1], [1, 0]], [1, 0])
    assert k.tolist() == [[1, 0], [0, 1]]


def test_kalman_identity_repeats_columns():
    k = kalman_matrix(np.eye(3, dtype=np.int64), [1, 1, 1])
    assert k.tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]


def test_kalman_path_graph_hand_iteration():
    k = kalman_matrix(P3, [1, 0, 0])
    # columns e1, e2, e1 + e3
    assert [k[:, 0].tolist(), k[:, 1].tolist(), k[:, 2].tolist()] == \
        [[1, 0, 0], [0, 1, 0], [1, 0, 1]]


def test_kalman_dimension_mismatch():
    with pytest.raises(ValueError):
        kalman_matrix(P3, [1, 0])


def test_kalman_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        kalman_matrix([[0.5, 0.0], [0.0, 0.5]], [1, 0])


def test_kalman_columns_are_krylov_iterates():
    rng = np.random.default_rng(11)
    a = rng.integers(-4, 5, (5, 5))
    a = a + a.T
    b = rng.integers(-4, 5, 5)
    k = kalman_matrix(a, b)
    for col in range(1, 5):
        expect = a.astype(object) @ np.array(k[:, col - 1], dtype=object)
        assert np.array_equal(np.array(k[:, col]), expect)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert rank_exact(np.eye(4, dtype=np.int64)) == 4


def test_rank_all_ones():
    assert rank_exact(np.ones((3, 3), dtype=np.int64)) == 1


def test_rank_path_graph_uncontrollable_kalman():
    assert rank_exact(kalman_matrix(P3, [0, 1, 0])) == 2


def test_rank_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(20260810)
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        m = rng.integers(-9, 10, (n, n))
        if trial % 3 == 0 and n > 1:  # force rank deficiency often
            m[n - 1] = m[0] * int(rng.integers(-3, 4))
        assert rank_exact(m) == rank_oracle(m), f"trial {trial}\n{m}"


def test_rank_huge_entries_no_overflow():
    big = 10**30
    m = [[big, big + 1], [big - 1, big]]
    # determinant is big^2 - (big^2 - 1) = 1, so full rank
    assert rank_exact(m) == 2
    assert det_oracle(m) == 1


def test_det_vandermonde_of_diagonal_system():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lam = rng.choice(np.arange(-12, 13), size=4, replace=False).astype(np.int64)
        k = kalman_matrix(np.diag(lam), np.ones(4, dtype=np.int64))
        vand = 1
        for i in range(4):
            for j in range(i + 1, 4):
                vand *= int(lam[j]) - int(lam[i])
        assert det_oracle(k) == vand
        assert is_controllable_exact(np.diag(lam), np.ones(4, dtype=np.int64))


# ---------------------------------------------------------------------------
# controllability decisions
# ---------------------------------------------------------------------------

def test_path_graph_endpoint_controls():
    assert is_controllable_exact(P3, [1, 0, 0]) is True
    assert is_controllable_exact(P3, [0, 1, 0]) is False


def test_complete_graph_all_ones_never_controls():
    for n in range(2, 9):
        a = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        assert is_controllable_exact(a, np.ones(n, dtype=np.int64)) is False


def test_zero_vector_never_controls():
    assert is_controllable_exact(P3, [0, 0, 0]) is False
    assert is_controllable_exact([[5]], [0]) is False


def test_scaling_invariance():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        a = rng.integers(0, 2, (n, n))
        a = np.triu(a, 1)
        a = a + a.T
        b = rng.integers(-3, 4, n)
        c = int(rng.choice([-7, -2, 3, 11]))
        assert is_controllable_exact(a, b) == is_controllable_exact(a, c * b)


def test_exact_cap_enforced_and_overridable():
    n = DEFAULT_EXACT_CAP + 1
    a = np.zeros((n, n), dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    b[0] = 1
    with pytest.raises(DimensionCapError):
        is_controllable_exact(a, b)
    assert is_controllable_exact(a, b, cap=None) is False  # zero matrix, rank 1


@pytest.mark.parametrize("refuse", [
    lambda a, cap: kalman_ranks_exact(a, np.eye(len(a), dtype=np.int64), cap),
    lambda a, cap: is_controllable_exact(a, np.ones(len(a), dtype=np.int64), cap),
    lambda a, cap: basis_scan(a, cap),
    lambda a, cap: sparsest_input(a, cap=cap),
], ids=["kalman_ranks_exact", "is_controllable_exact", "basis_scan", "sparsest_input"])
def test_every_exact_entry_point_refuses_a_dimension_above_the_cap_alike(refuse):
    n = DEFAULT_EXACT_CAP + 6
    with pytest.raises(DimensionCapError, match=rf"^n={n} exceeds exact cap {DEFAULT_EXACT_CAP}$"):
        refuse(np.zeros((n, n), dtype=np.int64), DEFAULT_EXACT_CAP)


def test_cap_must_be_an_integer():
    # nan once disabled the cap, True acted as 1 and "3" raised a bare TypeError
    eye = np.eye(3, dtype=np.int64)
    for cap in (math.nan, True, "3", 2.5):
        with pytest.raises(ValueError, match=rf"^cap must be an integer, got {re.escape(repr(cap))}$"):
            kalman_ranks_exact(P3, eye, cap=cap)
        with pytest.raises(ValueError, match=r"^cap must be an integer"):
            sparsest_input(P3, cap=cap)
    assert kalman_ranks_exact(P3, eye, cap=np.int64(3)) == kalman_ranks_exact(P3, eye)
    with pytest.raises(DimensionCapError):
        kalman_ranks_exact(P3, eye, cap=np.int64(2))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        is_controllable_exact(P3, [1, 0])


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        is_controllable_exact([[0, 1], [2, 0]], [1, 0])
    with pytest.raises(ValueError, match=r"not symmetric at \(1,2\)"):
        kalman_ranks_exact([[0, 1, 0], [1, 0, 1], [0, 2, 0]], np.eye(3, dtype=np.int64))


def mixed_faults(value) -> np.ndarray:
    """P3 three times: matrix 0 asymmetric, matrix 2 with `value` on its diagonal."""
    mats = np.stack([P3] * 3).astype(np.float64)
    mats[0, 0, 1] = 5.0
    mats[2, 1, 1] = value
    return mats


def halved(t: int) -> np.ndarray:
    """P3 three times, matrix t with a non-integer (but symmetric) entry."""
    mats = np.stack([P3] * 3).astype(np.float64)
    mats[t, 1, 1] = 0.5
    return mats


@pytest.mark.parametrize("a, message", [
    ([[0, 1], [2, 0]], r"^matrix is not symmetric at \(0,1\)$"),
    ([[0, 1, 0], [1, 0, 1]], r"^expected a square matrix, got shape \(2, 3\)$"),
    (np.stack([P3, P3 + np.triu(P3), P3]), r"^matrix 1 of the stack is not symmetric at \(0,1\)$"),
    (np.zeros((2, 2, 3), dtype=np.int64),
     r"^expected a stack of square matrices, got shape \(2, 2, 3\)$"),
    (np.array(5), r"^expected a square matrix, got shape \(\)$"),
    (np.array([1, 2]), r"^expected a square matrix, got shape \(2,\)$"),
    (np.zeros((1, 2, 2, 2), dtype=np.int64),
     r"^expected a square matrix, got shape \(1, 2, 2, 2\)$"),
    # the first matrix at fault is named, whatever its fault
    (mixed_faults(float("nan")), r"^matrix 0 of the stack is not symmetric at \(0,1\)$"),
    (mixed_faults(0.5), r"^matrix 0 of the stack is not symmetric at \(0,1\)$"),
    (halved(2), r"^exact path requires integer entries \(matrix 2 of the stack\)$"),
    (halved(2)[2], r"^exact path requires integer entries \(matrix\)$"),
])
def test_exact_and_float_deciders_reject_a_matrix_alike(a, message):
    # one check for both deciders: the same input gets the same message from
    # every entry point that takes its shape (a non-integer matrix is fine
    # for the float decider)
    exact = [lambda: kalman_ranks_exact(a, np.eye(3, dtype=np.int64)),
             lambda: has_simple_spectrum_exact(a)]
    floats = [lambda: eig_sym(np.asarray(a, float))]
    if np.ndim(a) != 3:
        b = np.array([1, 0, 0])
        exact += [lambda: is_controllable_exact(a, b), lambda: basis_scan(a),
                  lambda: sparsest_input(a)]
        floats += [lambda: pbh_controllable(a, b)]
    for decide in exact if "integer" in message else exact + floats:
        with pytest.raises(ValueError, match=message):
            decide()


@pytest.mark.parametrize("b, message", [
    ([1, 0], r"^dimension mismatch: A is 3x3, b has shape \(2,\)$"),
    ([[1], [0], [0]], r"^dimension mismatch: A is 3x3, b has shape \(3, 1\)$"),
    ([1.0, float("nan"), 0.0], r"^input vector has non-finite entries: \[1\] = nan$"),
    ([1.0, 0.0, -float("inf")], r"^input vector has non-finite entries: \[2\] = -inf$"),
    ([1, 0.5, 0], r"^exact path requires integer entries \(input vector\)$"),
])
def test_exact_and_float_deciders_reject_a_vector_alike(b, message):
    floats = () if "integer" in message else (pbh_controllable,)
    for decide in (is_controllable_exact, kalman_matrix) + floats:
        with pytest.raises(ValueError, match=message):
            decide(P3, b)
    # kalman_ranks_exact takes columns: a vector's shape is at fault before its entries
    if np.ndim(b) == 1:
        with pytest.raises(ValueError, match=rf"^dimension mismatch: A is 3x3, inputs have "
                                             rf"shape \({len(b)},\)$"):
            kalman_ranks_exact(P3, b)


def test_exact_path_names_nonfinite_entries():
    inf, nan = float("inf"), float("nan")
    with pytest.raises(ValueError, match=r"matrix has non-finite entries: \[1, 1\] = inf"):
        is_controllable_exact([[0.0, 1.0], [1.0, inf]], [1, 0])
    with pytest.raises(ValueError, match=r"vector has non-finite entries: \[1\] = -inf"):
        is_controllable_exact(P3, [1.0, -inf, 0.0])
    with pytest.raises(ValueError, match=r"matrix has non-finite entries: \[0, 1\] = nan, "
                                         r"\[1, 0\] = nan"):
        has_simple_spectrum_exact([[0.0, nan], [nan, 0.0]])
    with pytest.raises(ValueError, match=r"input matrix has non-finite entries: \[0, 1\] = nan"):
        kalman_ranks_exact(P3, [[1.0, nan], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        kalman_matrix(P3, [nan, 0.0, 0.0])


def test_object_entries_are_checked_like_floats():
    with pytest.raises(ValueError, match="exact path requires integer entries"):
        rank_exact(np.array([[0.5]], dtype=object))
    # the oracles name their matrix as the deciders do, square or not, symmetric or not
    with pytest.raises(ValueError, match=r"^exact path requires integer entries \(matrix\)$"):
        kalman_matrix([[0.5]], [1])
    with pytest.raises(ValueError, match=r"^exact path requires integer entries \(matrix\)$"):
        charpoly_exact([[0.5]])
    with pytest.raises(ValueError, match=r"^exact path requires integer entries \(matrix\)$"):
        rank_exact([[0.5]])
    with pytest.raises(ValueError, match=r"matrix has non-finite entries: \[0, 0\] = inf"):
        rank_exact(np.array([[float("inf")]], dtype=object))
    with pytest.raises(ValueError, match=r"vector has non-finite entries: \[1\] = nan"):
        is_controllable_exact(P3, np.array([1, float("nan"), 0], dtype=object))
    with pytest.raises(ValueError, match=r"^exact path requires integer entries \(matrix\)$"):
        rank_exact(np.array([["a", "b"], ["c", "d"]], dtype=object))
    with pytest.raises(ValueError, match=r"^expected a matrix, got shape \(3,\)$"):
        rank_exact([1, 2, 3])
    # integral objects of any type still work, beside Python ints beyond int64
    assert rank_exact(np.array([[2.0, 1], [1, np.int8(3)]], dtype=object)) == 2
    assert rank_exact(np.array([[2**70, 1], [1, 0]], dtype=object)) == 2


# ---------------------------------------------------------------------------
# characteristic polynomial and simple spectrum
# ---------------------------------------------------------------------------

def test_charpoly_swap():
    assert charpoly_exact([[0, 1], [1, 0]]) == [-1, 0, 1]  # x^2 - 1


def test_charpoly_identity():
    assert charpoly_exact(np.eye(2, dtype=np.int64)) == [1, -2, 1]  # (x-1)^2


def test_charpoly_path_graph():
    assert charpoly_exact(P3) == [0, -2, 0, 1]  # x^3 - 2x


def test_charpoly_matches_diagonal_roots():
    lam = [2, -1, 3, 5]
    coeffs = charpoly_exact(np.diag(lam))
    # evaluate at each root exactly
    for r in lam:
        assert sum(c * r**k for k, c in enumerate(coeffs)) == 0
    assert coeffs[-1] == 1


def test_simple_spectrum_examples():
    assert has_simple_spectrum_exact([[0, 1], [1, 0]]) is True
    assert has_simple_spectrum_exact(np.eye(2, dtype=np.int64)) is False
    assert has_simple_spectrum_exact(K3) is False  # (x-2)(x+1)^2


def test_krylov_degree_bound_all_4x4_binary_graphs():
    # For every 0/1 symmetric 4x4 zero-diagonal matrix with repeated exact
    # eigenvalues, no input vector whatsoever is controllable.
    pair_idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    checked_degenerate = 0
    for bits in itertools.product([0, 1], repeat=6):
        a = np.zeros((4, 4), dtype=np.int64)
        for bit, (i, j) in zip(bits, pair_idx):
            a[i, j] = a[j, i] = bit
        if has_simple_spectrum_exact(a):
            continue
        checked_degenerate += 1
        for bvec in itertools.product([0, 1], repeat=4):
            assert is_controllable_exact(a, np.array(bvec, dtype=np.int64)) is False
    assert checked_degenerate > 0  # the family does contain degenerate spectra


def test_simple_spectrum_random_cross_check_against_floats():
    # Well-separated float eigenvalues imply exact distinctness; use only
    # clearly separated or exactly repeated cases as the cross-check.
    root = SeedPath(424242, ("simple-x",))
    for t in range(200):
        a = sample_ensemble(GNP, root.child(t), 6)
        gaps = np.diff(np.linalg.eigvalsh(a.astype(float)))
        exact = has_simple_spectrum_exact(a)
        if np.min(gaps) > 1e-6:
            assert exact is True
        elif np.min(gaps) < 1e-12:
            assert exact is False


# ---------------------------------------------------------------------------
# certified ranks mod _P against the Bareiss oracle
# ---------------------------------------------------------------------------

def bareiss_ranks(a, inputs) -> list[int]:
    return [rank_exact(kalman_matrix(a, col)) for col in np.asarray(inputs).T]


def rank_deficient_fixtures(n: int) -> list[np.ndarray]:
    """K_n, a diagonal matrix and the path graph P_n."""
    complete = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    path = np.diag(np.ones(n - 1, dtype=np.int64), 1)
    return [complete, np.diag(np.arange(n, dtype=np.int64)), path + path.T]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 24])
def test_kalman_ranks_match_bareiss_oracle(n):
    root = SeedPath(20261017, ("certified-ranks", n))
    rng = np.random.default_rng(n)
    graphs = [sample_ensemble(GNP, root.child(t), n) for t in range(6 if n <= 12 else 1)]
    inputs = np.column_stack([
        np.eye(n, dtype=np.int64),
        np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        rng.integers(0, 2, (n, 2)),
        rng.integers(-5, 6, n),
    ])
    for a in graphs + rank_deficient_fixtures(n):
        ranks = kalman_ranks_exact(a, inputs)
        assert ranks == bareiss_ranks(a, inputs), a
        assert ranks[n + 1] == 0  # the zero column
        for col, rank in zip(inputs.T, ranks):
            assert is_controllable_exact(a, col) == (rank == n)
    if n > 1:
        complete, diagonal, _ = rank_deficient_fixtures(n)
        assert kalman_ranks_exact(complete, np.ones((n, 1), dtype=np.int64)) == [1]
        assert kalman_ranks_exact(diagonal, np.eye(n, dtype=np.int64)) == [1] * n


def count_oracle_calls(monkeypatch) -> list:
    """Record every Bareiss fallback inside ``kalman_ranks_exact``."""
    calls = []
    real_rank = exact_module.rank_exact

    def counted(m):
        calls.append(1)
        return real_rank(m)

    monkeypatch.setattr(exact_module, "rank_exact", counted)
    return calls


def test_full_rank_over_q_but_not_mod_p_falls_back(monkeypatch):
    oracle_calls = count_oracle_calls(monkeypatch)
    assert is_controllable_exact([[0]], [_P]) is True
    assert len(oracle_calls) == 1
    swap = np.array([[0, _P], [_P, 0]], dtype=np.int64)  # zero matrix mod _P
    assert kalman_ranks_exact(swap, np.eye(2, dtype=np.int64)) == [2, 2]
    assert len(oracle_calls) == 3
    # the all-ones input stays rank 1 over Q too: (1, 1) is an eigenvector
    assert kalman_ranks_exact(swap, [[1], [1]]) == [1]


def with_twins(a: np.ndarray) -> np.ndarray:
    """`a` with vertex 1 made a false twin of vertex 0 (same neighbours, not
    adjacent): e_0 - e_1 is then an eigenvector, orthogonal to every input
    with equal entries at 0 and 1."""
    a = a.copy()
    a[1], a[:, 1] = a[0], a[0]
    a[0, 1] = a[1, 0] = a[1, 1] = 0
    return a


def minimal_polynomial_oracle(a, b, r: int) -> list[Fraction]:
    """c_0, ..., c_(r-1) with A^r b = sum c_k A^k b, for b of Kalman rank r:
    fraction-free elimination on the exact Krylov vectors, then rational
    back-substitution."""
    rows = [[int(x) for x in row] for row in np.asarray(a)]
    krylov = [[int(x) for x in b]]
    for _ in range(r):
        krylov.append([sum(x * y for x, y in zip(row, krylov[-1])) for row in rows])
    m = [list(entries) for entries in zip(*krylov)]  # row i: (A^k b)_i, k = 0..r
    prev = 1
    for col in range(r):
        piv = next(i for i in range(col, len(m)) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for i in range(col + 1, len(m)):
            m[i] = [(x * m[col][col] - m[i][col] * y) // prev for x, y in zip(m[i], m[col])]
        prev = m[col][col]
    c = [Fraction(0)] * r
    for k in range(r - 1, -1, -1):
        c[k] = Fraction(m[k][r] - sum(m[k][j] * c[j] for j in range(k + 1, r))) / m[k][k]
    return c


@pytest.mark.parametrize("n", range(2, 25))
def test_rank_deficient_inputs_certified_without_bareiss(monkeypatch, n):
    root = SeedPath(20261018, ("negative-certificate", n))
    rng = np.random.default_rng(1000 + n)
    graph = sample_ensemble(GNP, root, n)
    inputs = np.column_stack([
        np.eye(n, dtype=np.int64),
        np.ones(n, dtype=np.int64),
        rng.integers(0, 2, (n, 2)),
        rng.integers(-3, 4, n),
    ])
    mats = [graph, with_twins(graph)] + rank_deficient_fixtures(n)
    oracle = [bareiss_ranks(a, inputs) for a in mats]
    # b's minimal polynomial has integer coefficients (Gauss's lemma); the
    # certificate must find it exactly when they all lie within _P / 2
    deficient = beyond_lift = 0
    for a, ranks in zip(mats, oracle):
        for b, r in zip(inputs.T, ranks):
            if 0 < r < n:
                coeffs = minimal_polynomial_oracle(a, b, r)
                assert all(c.denominator == 1 for c in coeffs)
                deficient += 1
                beyond_lift += max(abs(c) for c in coeffs) > _P // 2
    oracle_calls = count_oracle_calls(monkeypatch)
    for a, expected in zip(mats, oracle):
        assert kalman_ranks_exact(a, inputs) == expected, a
    assert len(oracle_calls) == beyond_lift
    assert deficient >= n + 1  # for n >= 3, K_n alone: its basis and all-ones inputs
    if n <= 12:  # the minctrl-gnp range: everything certified
        assert beyond_lift == 0
    for a, expected in zip(mats, oracle):  # one input at a time, as in minctrl
        for j in (0, n):
            assert kalman_ranks_exact(a, inputs[:, j:j + 1]) == [expected[j]]


def test_negative_certificate_falls_back_when_lift_fails(monkeypatch):
    oracle_calls = count_oracle_calls(monkeypatch)
    # b misses one eigenvector, so its relation is prod (x - lam_i) over the
    # other three eigenvalues: coefficients near 1e20, far beyond _P / 2
    lam = [10**6 + 3, 2 * 10**6 + 11, 3 * 10**6 + 5, 5 * 10**6 + 1]
    a = np.diag(lam)
    inputs = np.array([[1, 1], [1, 1], [0, 1], [1, 1]], dtype=np.int64)
    assert kalman_ranks_exact(a, inputs) == bareiss_ranks(a, inputs) == [3, 4]
    assert len(oracle_calls) == 1
    # entries >= 2**31: 2**31 K_3 sends the all-ones input to 2**32 times
    # itself, and 2**32 is no lifted residue
    a = 2**31 * (np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    assert kalman_ranks_exact(a, np.ones((3, 1), dtype=np.int64)) == [1]
    assert len(oracle_calls) == 2


def test_negative_certificate_checks_in_python_ints_beyond_int64(monkeypatch):
    oracle_calls = count_oracle_calls(monkeypatch)
    # A vanishes mod _P, so b = 2**32 e_0 has rank 1 there with relation
    # q(x) = x; A b = (0, _P * 2**64) is zero in int64 arithmetic only
    a = np.array([[0, _P * 2**32], [_P * 2**32, 0]], dtype=np.int64)
    b = np.array([[2**32], [0]], dtype=np.int64)
    assert kalman_ranks_exact(a, b) == bareiss_ranks(a, b) == [2]
    assert len(oracle_calls) == 1
    # a relation that holds is still certified when its check needs Python
    # ints: (1, -1) is in the kernel of 2**62 [[1, 1], [1, 1]]
    a = np.full((2, 2), 2**62, dtype=np.int64)
    assert kalman_ranks_exact(a, [[1], [-1]]) == [1]
    big = np.array([[2**70, 2**70], [2**70, 2**70]], dtype=object)
    assert kalman_ranks_exact(big, np.array([[3], [-3]], dtype=object)) == [1]
    assert len(oracle_calls) == 1
    # b = _P e_0 vanishes mod _P, so its relation is q = 1: Horner never
    # multiplies by A, yet A does not fit in int64
    a = np.array([[2**70, 0], [0, 1]], dtype=object)
    b = np.array([[_P], [0]], dtype=object)
    assert kalman_ranks_exact(a, b) == bareiss_ranks(a, b) == [1]
    assert is_controllable_exact(a, b[:, 0]) is False
    assert len(oracle_calls) == 3
    # the check returns one bool per column on object arrays, whatever
    # any/all return for object input in the installed numpy
    swap = np.array([[0, 2**64], [2**64, 0]], dtype=object)
    verdict = exact_module._annihilated(swap[None], np.zeros(1, dtype=np.intp),
                                        np.array([[[1], [0]]], dtype=object), np.array([[0, 1]]))
    assert verdict.dtype == bool and verdict.tolist() == [False]


# ---------------------------------------------------------------------------
# stacks of matrices
# ---------------------------------------------------------------------------

def stack_fixtures(n: int, count: int, seed: int) -> np.ndarray:
    """G(n, 1/2) graphs, one with a twin vertex, and K_n, diag(0..n-1), P_n."""
    root = SeedPath(seed, ("stack", n))
    graphs = [sample_ensemble(GNP, root.child(t), n) for t in range(count)]
    return np.stack(graphs[:1] + [with_twins(graphs[1])] + graphs[2:] + rank_deficient_fixtures(n))


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_kalman_ranks_on_a_stack_equal_per_matrix_calls(monkeypatch, n):
    rng = np.random.default_rng(300 + n)
    mats = stack_fixtures(n, 5, 20261019)
    shared = np.column_stack([
        np.eye(n, dtype=np.int64),
        np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        rng.integers(-3, 4, (n, 2)),
    ])
    own = rng.integers(-2, 3, (len(mats), n, 3))
    own[1, :, 0] = 0  # a zero column of one matrix only
    own[2, :, 1] = 1  # all-ones, deficient on K_n
    oracle_shared = [bareiss_ranks(a, shared) for a in mats]
    oracle_own = [bareiss_ranks(a, b) for a, b in zip(mats, own)]
    assert any(0 < r < n for ranks in oracle_shared + oracle_own for r in ranks)
    oracle_calls = count_oracle_calls(monkeypatch)
    assert [kalman_ranks_exact(a, shared) for a in mats] == oracle_shared
    assert [kalman_ranks_exact(a, b) for a, b in zip(mats, own)] == oracle_own
    alone = len(oracle_calls)
    oracle_calls.clear()
    assert kalman_ranks_exact(mats, shared) == oracle_shared
    assert kalman_ranks_exact(mats, own) == oracle_own
    # each relation is checked against its own matrix: the stack certifies
    # exactly what the matrices certify one at a time
    assert len(oracle_calls) == alone
    if n <= 8:
        assert alone == 0
    assert [row[n + 1] for row in oracle_shared] == [0] * len(mats)
    assert oracle_own[1][0] == 0
    # a stack of one is a stack; a single matrix is not
    assert kalman_ranks_exact(mats[:1], shared) == oracle_shared[:1]
    assert kalman_ranks_exact(mats[:1], own[:1]) == oracle_own[:1]
    assert kalman_ranks_exact(mats[:0], shared) == []


def test_stack_sends_only_the_failing_matrix_to_bareiss(monkeypatch):
    # [[0, _P], [_P, 0]] vanishes mod _P; its neighbours are certified
    swap = np.array([[0, _P], [_P, 0]], dtype=np.int64)
    small = np.stack([np.array([[1, 1], [1, 0]]), swap, np.array([[0, 1], [1, 0]]),
                      np.array([[2, 0], [0, 2]])])
    oracle_calls = count_oracle_calls(monkeypatch)
    assert kalman_ranks_exact(small, np.eye(2, dtype=np.int64)) == [[2, 2], [2, 2], [2, 2],
                                                                     [1, 1]]
    assert len(oracle_calls) == 2  # the two basis inputs of the middle matrix
    # the twin-vertex G(24, 1/2) of the negative-certificate test: its
    # deficient inputs have minimal polynomials beyond the lift
    graph = sample_ensemble(GNP, SeedPath(20261018, ("negative-certificate", 24)), 24)
    twin = with_twins(graph)
    inputs = np.column_stack([np.eye(24, dtype=np.int64), np.ones(24, dtype=np.int64)])
    oracle_calls.clear()
    alone = kalman_ranks_exact(twin, inputs)
    fallbacks = len(oracle_calls)
    assert fallbacks > 0
    root = SeedPath(20261019, ("stack-fallback",))
    others = [sample_ensemble(GNP, root.child(t), 24) for t in range(4)]
    mats = np.stack(others[:2] + [twin] + others[2:])
    one_by_one = [kalman_ranks_exact(a, inputs) for a in mats]
    assert len(oracle_calls) == 2 * fallbacks  # the other graphs are certified
    seen = []
    real_rank = exact_module.rank_exact
    monkeypatch.setattr(exact_module, "rank_exact", lambda m: seen.append(m) or real_rank(m))
    ranks = kalman_ranks_exact(mats, inputs)
    assert ranks == one_by_one
    assert ranks[2] == alone == bareiss_ranks(twin, inputs)
    assert len(seen) == fallbacks
    for kalman in seen:  # each a Kalman matrix of the twin graph
        b, ab = kalman[:, 0].astype(np.int64), kalman[:, 1].astype(np.int64)
        assert np.array_equal(twin @ b, ab)


def record_certificate_runs(monkeypatch) -> list:
    """Record each run of the pair stage certified mod _P as [Krylov
    columns built, Krylov matrices eliminated, entries per Krylov matrix]."""
    runs = []
    real_krylov, real_echelon = exact_module._krylov, exact_module._echelon_mod_p

    def krylov(a, v, reduce):
        if reduce is exact_module._reduce:  # not the Python-int powers of Bareiss
            runs.append([v.shape[0] * v.shape[2]])
        return real_krylov(a, v, reduce)

    def echelon(stack):
        runs[-1] += [stack.shape[0], stack.shape[1] * stack.shape[2]]
        return real_echelon(stack)

    monkeypatch.setattr(exact_module, "_krylov", krylov)
    monkeypatch.setattr(exact_module, "_echelon_mod_p", echelon)
    return runs


def record_pair_stage_calls(monkeypatch) -> list:
    """Record the number of (matrix, block) pairs of each pair-stage call."""
    calls = []
    real = exact_module._degrees
    monkeypatch.setattr(exact_module, "_degrees", lambda mats, which, blocks:
                        calls.append(len(which)) or real(mats, which, blocks))
    return calls


def bounded_runs(count: int, n: int) -> list:
    """The runs of :func:`record_certificate_runs` for `count` pairs of
    dimension n: at most 2^14 // n^2 pairs each (2^14 Krylov entries), or
    one pair."""
    step = max(1, 2**14 // (n * n))
    return [[size, size, n * n] for size in (min(step, count - start)
                                             for start in range(0, count, step))]


@pytest.mark.parametrize("n", [8, 10, 24])
def test_certificate_runs_on_bounded_runs_of_unsettled_pairs(monkeypatch, n):
    # matrices left unsettled by the float tier, between matrices it
    # settles, and a matrix with settled and unsettled columns both: the
    # Krylov powers of the unsettled (matrix, column) pairs alone are
    # built, in runs of at most 2^14 Krylov entries (or one pair), each
    # eliminated whole, and the ranks are those of one-matrix calls
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    m = inputs.shape[1]
    root = SeedPath(20261020, ("sub-stacks", n))
    graphs = [sample_ensemble(GNP, root.child(t), n) for t in range(8)]
    proved = [g for g in graphs if (float_tier(g[None], inputs) == n).all()]
    # K_n and diag(0, 0, 1, 1, ...) have repeated spectra, where the float
    # tier settles no deficient column; the deficient columns of a
    # twin-vertex graph with a simple spectrum are settled by the integer
    # eigenvector
    deficient = [rank_deficient_fixtures(n)[0], np.diag(np.arange(n) // 2)]
    assert proved and (float_tier(np.stack(deficient), inputs) < 0).any(axis=1).all()
    twins = float_tier(np.stack([with_twins(g) for g in graphs]), inputs)
    assert ((twins >= 0).all(axis=1) & (twins < n).any(axis=1)).any()
    mirrored = 2**20 * mirrored_graphs(n, 8, 20261020)
    left = float_tier(mirrored, inputs) < 0
    mixed = mirrored[(left.any(axis=1) & ~left.all(axis=1)).argmax()]
    runs = record_certificate_runs(monkeypatch)
    # the larger stack fills more than one run without an eigensystem
    for unsettled in sorted({1, 2**14 // (2 * m * n * n) + 1}):
        mats = [proved[0], mixed]
        for i in range(unsettled):
            mats += [deficient[i % len(deficient)], proved[i % len(proved)]]
        mats = np.stack(mats)
        one_by_one = [kalman_ranks_exact(a, inputs) for a in mats]
        eigsys = eig_sym(mats.astype(np.float64))
        left = float_tier(mats, inputs, eigsys) < 0
        assert (left.any(axis=1) & ~left.all(axis=1))[1]
        # every column the float tier settles stays out of the Krylov powers
        for tier, count in ((eigsys, int(left.sum())), (None, left.size)):
            runs.clear()
            assert kalman_ranks_exact(mats, inputs, eigsys=tier) == one_by_one
            assert runs == bounded_runs(count, n)
        runs.clear()
        assert kalman_ranks_exact(mats, inputs[None].repeat(len(mats), axis=0)) == one_by_one
        assert runs == bounded_runs(left.size, n)


def test_one_matrix_with_many_unsettled_columns_is_split_into_bounded_runs(monkeypatch):
    # without an eigensystem every column of one twin-vertex G(24, 1/2) is
    # unsettled: 2^14 // 24^2 = 28 pairs per run, so its 60 columns go in
    # runs of 28, 28 and 4, and so do the spectra of 60 matrices, one pair
    # (A, I) each, checked against the float tier's proofs
    n = 24
    root = SeedPath(1506, ("one-matrix-runs",))
    graphs = [sample_ensemble(GNP, root.child(t), n) for t in range(58)]
    mats = np.stack([with_twins(graphs[0]), *graphs[1:], rank_deficient_fixtures(n)[0],
                     repeated_diagonals(n)[1]])
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                              np.random.default_rng(1506).integers(-2, 3, (n, 35))])
    oracle = bareiss_ranks(mats[0], inputs)
    simple, repeated = exact_module._float_spectra(mats, eig_sym(mats.astype(np.float64)))
    assert min(oracle) < n and (simple ^ repeated).all() and repeated.any()
    runs = record_certificate_runs(monkeypatch)
    assert kalman_ranks_exact(mats[0], inputs) == oracle
    assert runs == bounded_runs(60, n) == [[28, 28, n * n]] * 2 + [[4, 4, n * n]]
    runs.clear()
    assert has_simple_spectrum_exact(mats) == simple.tolist()
    assert runs == bounded_runs(60, n)


def mirrored_graphs(n: int, count: int, seed: int) -> np.ndarray:
    """Graphs [[H, C], [C, H]] on n = 2 h vertices, H and C from G(h, 1/2),
    every other C with its diagonal set: swapping the halves is an
    automorphism, so every input equal on both halves, such as all-ones, is
    orthogonal to the antisymmetric eigenvectors, which are rarely integer.
    Scaled by 2^20, the relation over the other eigenvalues has
    coefficients too large to round, so the float tier leaves such inputs
    to mod _P."""
    root, h = SeedPath(seed, ("mirrored", n)), n // 2
    return np.stack([np.block([[a, c], [c, a]]) for a, c in (
        (sample_ensemble(GNP, root.child(t, "h"), h),
         sample_ensemble(GNP, root.child(t, "c"), h) + (t % 2) * np.eye(h, dtype=np.int64))
        for t in range(count))])


def test_proved_columns_never_reach_elimination(monkeypatch):
    # matrices with columns the float tier settles and columns it leaves
    # both: only the columns left are eliminated mod _P, and the ranks are
    # Bareiss's
    n = 10
    mats = 2**20 * mirrored_graphs(n, 12, 20261021)
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    eigsys = eig_sym(mats.astype(np.float64))
    proved = float_tier(mats, inputs, eigsys) >= 0
    assert (proved.any(axis=1) & ~proved.all(axis=1)).sum() >= 3  # mixed matrices
    seen = []
    real_echelon = exact_module._echelon_mod_p
    monkeypatch.setattr(exact_module, "_echelon_mod_p",
                        lambda stack: seen.append(stack.copy()) or real_echelon(stack))
    ranks = kalman_ranks_exact(mats, inputs, eigsys=eigsys)
    assert ranks == [bareiss_ranks(a, inputs) for a in mats]
    (stack,) = seen
    residues = exact_module._residues
    wanted = sorted(residues(exact_module._krylov_exact(mats[t], inputs[:, [j]])).tobytes()
                    for t, j in zip(*(~proved).nonzero()))
    assert sorted(k.tobytes() for k in stack) == wanted


def test_empty_dimensions_and_inputs_keep_their_ranks():
    # n = 0: every input is the empty vector, of rank 0; m = 0: no ranks
    empty = np.zeros((0, 0), dtype=np.int64)
    assert kalman_ranks_exact(empty, np.zeros((0, 3), dtype=np.int64)) == [0, 0, 0]
    assert kalman_ranks_exact(np.zeros((2, 0, 0), dtype=np.int64),
                              np.zeros((0, 3), dtype=np.int64)) == [[0, 0, 0]] * 2
    assert kalman_ranks_exact(np.zeros((2, 0, 0), dtype=np.int64),
                              np.zeros((2, 0, 1), dtype=np.int64)) == [[0]] * 2
    mats = np.stack([np.array(P3), np.array(K3)])
    assert kalman_ranks_exact(mats[0], np.zeros((3, 0), dtype=np.int64)) == []
    assert kalman_ranks_exact(mats, np.zeros((3, 0), dtype=np.int64)) == [[], []]
    assert kalman_ranks_exact(mats, np.zeros((2, 3, 0), dtype=np.int64)) == [[], []]
    assert kalman_ranks_exact(mats, np.zeros((2, 3, 0), dtype=np.int64),
                              eigsys=eig_sym(mats.astype(np.float64))) == [[], []]


def test_stack_errors_name_the_matrix():
    mats = np.stack([P3, P3, P3]).astype(np.int64)
    bent = mats.copy()
    bent[2, 0, 1] = 5
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError, match=r"matrix 2 of the stack is not symmetric at \(0,1\)"):
        kalman_ranks_exact(bent, eye)
    halves = mats.astype(np.float64)
    halves[1, 1, 1] = 0.5
    with pytest.raises(ValueError, match=r"exact path requires integer entries "
                                         r"\(matrix 1 of the stack\)"):
        kalman_ranks_exact(halves, eye)
    halves[1, 1, 1] = float("nan")
    with pytest.raises(ValueError, match=r"matrix 1 of the stack has non-finite entries: "
                                         r"\[1, 1\] = nan"):
        kalman_ranks_exact(halves, eye)
    own = np.stack([eye, eye, eye]).astype(np.float64)
    own[2, 0, 2] = 1.5
    with pytest.raises(ValueError, match=r"input matrix 2 of the stack"):
        kalman_ranks_exact(mats, own)
    with pytest.raises(ValueError, match=r"2 input matrices for a stack of 3"):
        kalman_ranks_exact(mats, own[:2])
    with pytest.raises(ValueError, match="dimension mismatch"):
        kalman_ranks_exact(mats, np.eye(2, dtype=np.int64))


def test_kalman_ranks_object_entries_beyond_int64():
    big = 2**64 + 13
    a = np.array([[big, 3, 0], [3, -big, 2**70], [0, 2**70, 5]], dtype=object)
    inputs = np.array([[2**65 + 1, 1, 0], [7, 0, 0], [0, 0, _P * 2**40]], dtype=object)
    assert kalman_ranks_exact(a, inputs) == bareiss_ranks(a, inputs) == [3, 3, 3]
    assert exact_module._residues(a)[1, 2] == 2**70 % _P
    # eigenvalues 0 and _P * 2**40 coincide mod _P, so only Bareiss sees rank 2
    a = np.array([[0, 0], [0, _P * 2**40]], dtype=object)
    assert is_controllable_exact(a, np.array([1, 1], dtype=object)) is True
    assert has_simple_spectrum_exact(a) is True


def simple_spectrum_oracle(a) -> bool:
    """gcd(p, p') over the rationals by a plain Euclidean remainder sequence."""
    def strip(poly):
        while poly and poly[-1] == 0:
            poly.pop()
        return poly

    p = strip([Fraction(c) for c in charpoly_exact(a)])
    q = strip([i * c for i, c in enumerate(p)][1:])
    while q:
        r = p[:]
        while len(r) >= len(q):
            factor = r[-1] / q[-1]
            shift = len(r) - len(q)
            r = strip([x - factor * q[i - shift] if i >= shift else x for i, x in enumerate(r)])
        p, q = q, r
    return len(p) == 1


def exact_powers(a) -> np.ndarray:
    """The n^2 x n Krylov matrix of I under A, column j vec(A^j), over Python ints."""
    a = np.array(np.asarray(a).tolist(), dtype=object)
    return exact_module._krylov_exact(a, np.eye(len(a), dtype=object))


def certified_degree(a) -> int:
    """The mod-_P certificate's Krylov degree of I under A, or -1: the pair
    stage on the one pair (A, I), with Bareiss made to settle nothing."""
    a = np.asarray(a)
    with mock.patch.object(exact_module, "rank_exact", lambda m: -1):
        return exact_module._degrees(a[None], np.zeros(1, dtype=np.intp),
                                     np.eye(len(a), dtype=a.dtype)[None]).item()


def test_hankel_rank_counts_distinct_eigenvalues():
    # the Krylov degree of I is the degree of the minimal polynomial, the
    # number of distinct eigenvalues; for symmetric A the Gram matrix K^T K
    # of the powers is the power-sum Hankel matrix H[j, k] = tr(A^(j+k)),
    # and Hermite: det H = disc(chi)
    for lam in ([4], [2, 2], [0, 1, 1, 5], [3, -1, 3, -1, 3], [7] * 6, [-2, 0, 5, 9, 11],
                [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]):
        k = exact_powers(np.diag(lam))
        h = k.T @ k
        assert h[-1, -1] == sum(x ** (2 * len(lam) - 2) for x in lam)
        assert rank_exact(k) == certified_degree(np.diag(lam)) == len(set(lam)), lam
        disc = 1
        for i, x in enumerate(lam):
            for y in lam[i + 1:]:
                disc *= (x - y) ** 2
        assert det_oracle(h) == disc, lam
    for n in range(1, 13):
        complete, _, path = rank_deficient_fixtures(n)
        assert rank_exact(exact_powers(complete)) == min(n, 2)  # n - 1 and -1
        assert rank_exact(exact_powers(path)) == n  # 2 cos(pi k / (n + 1)), all distinct


def repeated_diagonals(n: int) -> list[np.ndarray]:
    """Diagonal matrices with one double eigenvalue and with many repeats."""
    return [np.diag(np.r_[np.arange(n - 1) - (n - 1) // 2, 0]), np.diag(np.arange(n) // 3 - 2)]


def test_simple_spectrum_certificate_against_rational_oracle(monkeypatch):
    root = SeedPath(15060, ("simple-certificate",))
    mats = [sample_ensemble(GNP, root.child(n, t), n) for n in range(1, 25)
            for t in range(6 if n <= 8 else 1)]
    mats += [m for n in (2, 3, 6, 9, 16, 24) for m in rank_deficient_fixtures(n)]
    mats += [m for n in (2, 5, 12) for m in repeated_diagonals(n)]
    mats += [np.diag(np.arange(24) // 3 - 2), np.diag([3, 3]), np.zeros((1, 1), dtype=np.int64)]
    # simple over Q, but the eigenvalues collide mod _P
    fallbacks = [np.diag([0, _P]), np.diag([1, 1 + 2 * _P, 7]),
                 np.array([[0, 2**40 * _P], [2**40 * _P, 0]], dtype=object)]
    # a double eigenvalue whose minimal polynomial, x (x^2 - 1) ... (x^2 - 11^2),
    # has coefficients up to 11!^2, beyond _P / 2
    fallbacks += repeated_diagonals(24)[:1]
    oracle = [simple_spectrum_oracle(a) for a in mats + fallbacks]
    assert 0 < sum(oracle[:len(mats)]) < len(mats)  # both verdicts are tested
    assert oracle[len(mats):] == [True, True, True, False]
    oracle_calls = count_oracle_calls(monkeypatch)
    for a, simple in zip(mats, oracle):
        assert (certified_degree(a) == len(a)) is simple, a
        assert has_simple_spectrum_exact(a) is simple, a
    assert len(oracle_calls) == 0  # every spectrum certified, repeated ones too
    for a, simple in zip(fallbacks, oracle[len(mats):]):
        assert certified_degree(a) == -1, a
        assert has_simple_spectrum_exact(a) is simple, a
    assert len(oracle_calls) == len(fallbacks)


def test_spectrum_relation_spares_bareiss_beyond_the_lift(monkeypatch):
    # diag(-11, ..., 11, 0): its minimal polynomial x (x^2 - 1) ... (x^2 -
    # 121) has coefficients up to 11!^2, beyond _P / 2, so the mod-_P lift
    # fails and Bareiss decides; but below 2^53, so with the eigensystem
    # the rounded product over its clusters is that polynomial, verified
    diag = repeated_diagonals(24)[0]
    oracle_calls = count_oracle_calls(monkeypatch)
    assert has_simple_spectrum_exact(diag, eig_sym(diag)) is False
    assert len(oracle_calls) == 0
    assert has_simple_spectrum_exact(diag) is False
    assert len(oracle_calls) == 1


def test_bareiss_sees_no_zero_rows(monkeypatch):
    # the diagonal's Krylov matrix of I has n^2 - n rows that are zero for
    # every power, and a disconnected graph's Kalman matrix of e_0 is zero
    # off its component; only the nonzero rows reach Bareiss, with the
    # same ranks
    seen = []
    real_rank = exact_module.rank_exact
    monkeypatch.setattr(exact_module, "rank_exact", lambda m: seen.append(m) or real_rank(m))
    diag = repeated_diagonals(24)[0]  # beyond the lift, so Bareiss decides
    assert has_simple_spectrum_exact(diag) is False
    assert [m.shape for m in seen] == [(24, 24)]
    monkeypatch.setattr(exact_module, "_MOD_MAX_N", -1)  # no certificate: every pair to Bareiss
    two = np.kron(np.eye(2, dtype=np.int64), np.array(P3))  # two copies of P_3
    seen.clear()
    assert kalman_ranks_exact(two, np.eye(6, dtype=np.int64)) == [3, 2, 3] * 2
    assert [m.shape for m in seen] == [(3, 6)] * 6
    assert all((m != 0).any(axis=1).all() for m in seen)


def test_dimensions_beyond_the_modular_bound_go_to_bareiss(monkeypatch):
    # above _MOD_MAX_N an int64 product of residues is no longer exact, so
    # the certificate is skipped: with the bound made 4, n = 6 goes to
    # Bareiss whole and n = 4 is still certified, and the ranks and spectra
    # are Bareiss's either way
    monkeypatch.setattr(exact_module, "_MOD_MAX_N", 4)
    for n, fallbacks in ((4, 0), (6, 6 + 1 + 1)):  # n + 1 columns and the spectrum
        a = with_twins(sample_ensemble(GNP, SeedPath(1506, ("mod-max", n)), n))
        inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        oracle, simple = bareiss_ranks(a, inputs), simple_spectrum_oracle(a)
        oracle_calls = count_oracle_calls(monkeypatch)
        assert kalman_ranks_exact(a, inputs) == oracle
        assert has_simple_spectrum_exact(a) is simple
        assert len(oracle_calls) == fallbacks


def test_large_spectra_certified_without_bareiss(monkeypatch):
    # beyond the Kalman cap: K_n has two eigenvalues and P_n n distinct
    # ones; 23 copies of one 2 x 2 block have two, each of multiplicity 23,
    # and a minimal polynomial with coefficients near 2e6, within the lift
    oracle_calls = count_oracle_calls(monkeypatch)
    for n in (46, 64):
        complete, _, path = rank_deficient_fixtures(n)
        assert has_simple_spectrum_exact(complete) is False
        assert has_simple_spectrum_exact(path) is True
    blocks = np.kron(np.eye(23, dtype=np.int64), [[997, 1009], [1009, -983]])
    assert certified_degree(blocks) == 2
    assert has_simple_spectrum_exact(blocks) is False
    assert has_simple_spectrum_exact(np.zeros((0, 0), dtype=np.int64)) is True
    assert has_simple_spectrum_exact([[5]]) is True
    assert len(oracle_calls) == 0


def test_every_stack_eliminated_mod_p_is_n_by_n(monkeypatch):
    # a block of inputs (I, for the spectrum) enters mod p as one combination
    # B w, so its Krylov matrix is n x n like a single input's, not n^2 x n
    shapes = []
    real_echelon = exact_module._echelon_mod_p
    monkeypatch.setattr(exact_module, "_echelon_mod_p",
                        lambda stack: shapes.append(stack.shape[1:]) or real_echelon(stack))
    root = SeedPath(20261019, ("combined-block",))
    for n in (1, 2, 5, 12, 24, 40):
        mats = [sample_ensemble(GNP, root.child(n), n), *rank_deficient_fixtures(n),
                *repeated_diagonals(n)]
        for a in mats:
            shapes.clear()
            has_simple_spectrum_exact(a)
            kalman_ranks_exact(a, np.eye(n, dtype=np.int64), cap=None)
            assert shapes and set(shapes) == {(n, n)}, (n, shapes)


def test_unlucky_block_weights_leave_the_spectrum_to_bareiss(monkeypatch):
    # with w = e_0, B w is the input e_0, whose Krylov degree under a diagonal
    # matrix is 1: the relation q(A) = A fails on the whole block I, so the
    # degree goes to Bareiss and the verdict stays right either way
    monkeypatch.setattr(exact_module, "_weights", lambda k: np.eye(1, k, dtype=np.int64)[0])
    oracle_calls = count_oracle_calls(monkeypatch)
    assert has_simple_spectrum_exact(np.diag(np.arange(6))) is True
    assert len(oracle_calls) == 1
    assert has_simple_spectrum_exact(np.diag([0, 0, 1, 1, 2, 2])) is False
    assert len(oracle_calls) == 2
    # a single input (k = 1) is not combined: its Kalman rank needs no Bareiss
    assert kalman_ranks_exact(np.diag(np.arange(6)), np.ones((6, 1), dtype=np.int64)) == [6]
    assert len(oracle_calls) == 2


# ---------------------------------------------------------------------------
# certificate from a float eigensystem
# ---------------------------------------------------------------------------

def float_tier(mats, cols, eigsys=None) -> np.ndarray:
    """The float tier's ranks [t, j] on a stack, -1 where it settles none,
    from its own eigensystems unless others are given; shared columns are
    repeated for every matrix."""
    mats, cols = np.asarray(mats), np.asarray(cols)
    if eigsys is None:
        eigsys = eig_sym(mats.astype(np.float64))
    if cols.ndim == 2:
        cols = cols[None].repeat(len(mats), axis=0)
    return exact_module._float_certified(mats, cols, exact_module._float_system(mats, eigsys))


def wilkinson_plus(m: int) -> np.ndarray:
    """W_(2m+1)^+: diagonal m, ..., 1, 0, 1, ..., m and ones beside it.  Its
    eigenvalues come in pairs that agree to about m! digits, and the centre
    vertex is orthogonal to every antisymmetric eigenvector."""
    n = 2 * m + 1
    off = np.diag(np.ones(n - 1, dtype=np.int64), 1)
    return np.diag(np.abs(np.arange(n) - m)) + off + off.T


@functools.lru_cache(maxsize=1)
def adversarial_cases() -> tuple:
    """(stack, inputs, oracle ranks) of each of :func:`adversarial_stacks`;
    the oracle is the mod-_P and Bareiss tiers, which equal Bareiss ranks
    (tested above)."""
    return tuple((mats, inputs, np.array(kalman_ranks_exact(mats, inputs, cap=None)))
                 for mats, inputs in adversarial_stacks())


def adversarial_stacks():
    """(stack, inputs) pairs with many rank-deficient columns: G(n, p) with
    and without a twin vertex, K_n, C_n, P_n, entries up to 2^52, diagonals
    with repeated eigenvalues and clustered spectra."""
    rng = np.random.default_rng(20261018)
    root = SeedPath(20261018, ("float-tier",))
    for n in range(2, 33):
        graphs = [sample_ensemble(EnsembleSpec.gnp(p / 10), root.child(n, p, t), n)
                  for p in (2, 5, 8) for t in range(2)]
        twins = [with_twins(g) for g in graphs[::2 if n <= 24 else 6]]  # slow to decide beyond
        cycle = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
        mats = graphs + twins + rank_deficient_fixtures(n) + [cycle + cycle.T]
        if n >= 3:  # C_2 is a double edge
            mats.append(2**52 // (2 * n) * graphs[3])
        mats += [np.diag(np.arange(n) // 2), np.diag(np.arange(n) % 3)]
        inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                                  np.r_[1, 1, np.zeros(n - 2, dtype=np.int64)],
                                  rng.integers(-3, 4, (n, 2)),
                                  rng.integers(-2**52, 2**52, n)])
        yield np.stack(mats), inputs
    for m in range(1, 13):
        n = 2 * m + 1
        w = wilkinson_plus(m)
        shifted = w + (2**40 * np.eye(n, dtype=np.int64))  # the same spectrum, 2^40 away
        inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        yield np.stack([w, shifted, 2**12 * w]), inputs


def test_float_tier_never_certifies_a_deficient_column():
    # every rank the float tier settles is the oracle's: full ranks from
    # the eigenvector bound, deficient ones where integer eigenvectors
    # decide every component the bound leaves
    deficient = settled = certified = full = 0
    for mats, inputs, oracle in adversarial_cases():
        n = mats.shape[1]
        ranks = float_tier(mats, inputs)
        wrong = (ranks >= 0) & (ranks != oracle)
        assert not wrong.any(), mats[np.nonzero(wrong)[0]]
        deficient += int((oracle < n).sum())
        settled += int(((ranks >= 0) & (oracle < n)).sum())
        full += int((oracle == n).sum())
        certified += int((ranks == n).sum())
    assert deficient > 5000
    assert certified > 0.8 * full
    assert (certified, full) == (4423, 4753)
    assert (settled, deficient) == (2199, 6156)


def test_float_tier_certified_columns_have_full_bareiss_rank():
    # the certified columns on a few small fixtures, against Bareiss itself
    for n in (3, 5, 7):
        w = wilkinson_plus(n // 2)
        twin = with_twins(sample_ensemble(GNP, SeedPath(3, ("twin", n)), n))
        for a in (w, twin, np.diag(np.arange(n) // 2), np.diag(np.arange(n))):
            inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
            settled = float_tier(a[None], inputs)[0]
            assert all(rank == oracle for rank, oracle in zip(settled, bareiss_ranks(a, inputs))
                       if rank >= 0)


def test_float_tier_covers_full_rank_gnp_columns():
    root = SeedPath(1506, ("float-tier-coverage",))
    for n in (16, 24):
        mats = np.stack([sample_ensemble(GNP, root.child(n, t), n) for t in range(20)])
        eye = np.eye(n, dtype=np.int64)
        full = np.array(kalman_ranks_exact(mats, eye)) == n
        assert ((float_tier(mats, eye) == n) == full).all()


def test_float_tier_reads_only_the_identity_as_the_eigenvectors():
    # identity inputs are read as x^T with unit norms; every other square
    # block of inputs (reversed, permuted, a 0/1 block) goes through the
    # product x^T B, so each settled rank is still the Bareiss one
    root = SeedPath(1506, ("identity-read",))
    mats = np.stack([with_twins(sample_ensemble(GNP, root.child(t), 8)) for t in range(6)])
    eye = np.eye(8, dtype=np.int64)
    rng = np.random.default_rng(1506)
    for inputs in (eye, eye[::-1], eye[:, rng.permutation(8)], rng.integers(0, 2, (8, 8))):
        oracle = np.array([bareiss_ranks(a, inputs) for a in mats])
        ranks = float_tier(mats, inputs)
        assert (ranks >= 0).any() and ((ranks == -1) | (ranks == oracle)).all()


def test_float_tier_leaves_ranks_unchanged_and_skips_proved_matrices(monkeypatch):
    seen = record_pair_stage_calls(monkeypatch)
    for mats, inputs, oracle in adversarial_cases()[::3]:
        eigsys = eig_sym(mats.astype(np.float64))
        seen.clear()
        assert kalman_ranks_exact(mats, inputs, cap=None, eigsys=eigsys) == oracle.tolist()
        # the pairs the float tier leaves, in one call, or no call at all
        unproved = int((float_tier(mats, inputs, eigsys) < 0).sum())
        assert seen == ([unproved] if unproved else [])
    seen.clear()
    a = sample_ensemble(GNP, SeedPath(1506, ("one",)), 24)
    assert kalman_ranks_exact(a, np.eye(24, dtype=np.int64), eigsys=eig_sym(a)) == [24] * 24
    assert seen == []


def test_unsettled_certificates_leave_float_proofs_standing(monkeypatch):
    # with no mod-_P certificate at all, Bareiss runs on exactly the
    # columns the float tier left: a -1 never overwrites a float-settled rank
    cases = [case for case in adversarial_cases() if case[0].shape[1] <= 8]
    for n in (10, 12):  # with settled basis columns and unsettled all-ones ones
        mats = 2**20 * mirrored_graphs(n, 24, 20261022)
        inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        cases.append((mats, inputs, np.array(kalman_ranks_exact(mats, inputs))))
    monkeypatch.setattr(exact_module, "_MOD_MAX_N", -1)  # no certificate: every pair to Bareiss
    oracle_calls = count_oracle_calls(monkeypatch)
    mixed = 0
    for mats, inputs, oracle in cases:
        eigsys = eig_sym(mats.astype(np.float64))
        proved = float_tier(mats, inputs, eigsys) >= 0
        mixed += int((proved.any(axis=1) & ~proved.all(axis=1)).sum())
        oracle_calls.clear()
        assert kalman_ranks_exact(mats, inputs, cap=None, eigsys=eigsys) == oracle.tolist()
        assert len(oracle_calls) == int((~proved).sum())
    assert mixed > 20  # matrices with proved and unproved columns both


def test_float_tier_skips_entries_beyond_2_53_and_object_arrays(monkeypatch):
    a = sample_ensemble(GNP, SeedPath(11, ("big",)), 8)
    eye = np.eye(8, dtype=np.int64)
    assert (float_tier(a[None], eye) == 8).all()
    big = a * (2**53 + 1)  # float64 rounds every nonzero entry to 2^53
    skipped = [(big, eye), (a, eye * (2**53 + 1)), (a.astype(object), eye),
               (a, eye.astype(object)), (a.astype(np.uint64) * np.uint64(2**53 + 1), eye)]
    for m, cols in skipped:
        # even with the eigensystem of A's float64 copy, which is exact for big
        assert (float_tier(m[None], cols[None], eig_sym(a[None])) == -1).all()
    seen = record_pair_stage_calls(monkeypatch)
    for m, cols in skipped:
        ranks = kalman_ranks_exact(m, cols, eigsys=eig_sym(np.asarray(m, dtype=np.float64)))
        assert ranks == kalman_ranks_exact(m, cols)
    assert seen == [8, 8] * len(skipped)  # every column, with the eigensystem or without


def test_float_tier_with_a_wrong_eigensystem_certifies_nothing_wrong():
    root = SeedPath(7, ("stale",))
    n = 12
    good = [sample_ensemble(GNP, root.child(t), n) for t in range(4)]
    bad = [with_twins(good[0]), np.diag(np.arange(n) // 2), rank_deficient_fixtures(n)[0]]
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    oracle = np.array(kalman_ranks_exact(np.stack(bad), inputs))
    assert (oracle < n).any()
    assert (float_tier(bad, inputs) >= 0).any()  # their own eigensystems settle some
    for other in good:
        stale = eig_sym(np.stack([other] * len(bad)))
        assert (float_tier(bad, inputs, stale) == -1).all()
        assert kalman_ranks_exact(np.stack(bad), inputs, eigsys=stale) == oracle.tolist()
    # the matrix's own eigenvectors, scaled far from orthonormal, prove nothing
    es = eig_sym(good[1])
    scaled = EigenSystem(es.eigenvalues[None], 2 * es.eigenvectors[None])
    assert (float_tier(good[1][None], inputs)[0] == n).any()
    assert (float_tier(good[1][None], inputs, scaled) == -1).all()
    # nor do eigenvalues out of order
    swapped = EigenSystem(es.eigenvalues[None, ::-1].copy(), es.eigenvectors[None, :, ::-1].copy())
    assert (float_tier(good[1][None], inputs, swapped) == -1).all()


def hadamard_system(q):
    """A = U diag(16 q + 1) U^T for U = H_16 / 4, with H_16 the Sylvester
    Hadamard matrix: an integer matrix whose unit eigenvectors, the columns
    of U, are exact in float64."""
    h = np.array([[1]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    u = h / 4.0
    d = 16 * np.asarray(q) + 1
    a = (h * d) @ h.T // 16
    assert np.array_equal(a, a.T) and np.array_equal(u @ np.diag(d) @ u.T, a)
    return a, u, d.astype(np.float64)


def exact_distance_sq(x: np.ndarray, u: np.ndarray) -> Fraction:
    """min over the sign of ||x -+ u||^2, in exact rational arithmetic."""
    return min(sum((Fraction(p) - s * Fraction(r)) ** 2 for p, r in zip(x, u)) for s in (1, -1))


@pytest.mark.parametrize("kind", ["scaled", "rotated", "exact"])
def test_eigenvector_distance_bound_dominates_exact_distance(kind):
    # the true unit eigenvectors of A are +-u_i exactly, so each computed
    # dist_i is checked against the exact distance to the eigensystem given
    a, u, w = hadamard_system([0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19, 21, 22])
    x = u.copy()
    if kind == "scaled":  # not orthonormal; only eta covers ||Q e_i - x_i||
        x = u * (1 + np.linspace(-2e-4, 2e-4, 16))
    elif kind == "rotated":  # orthonormal; only the gap term covers the tilt
        c, s = np.cos(1e-4), np.sin(1e-4)
        x[:, 3], x[:, 4] = c * u[:, 3] + s * u[:, 4], c * u[:, 4] - s * u[:, 3]
    simple, dist, _ = exact_module._eigvec_bounds(a[None].astype(np.float64), w[None], x[None])
    assert simple[0]
    for i in range(16):
        assert Fraction(float(dist[0, i])) ** 2 >= exact_distance_sq(x[:, i], u[:, i]), i
    if kind == "exact":
        assert dist.max() < 1e-11


def test_inner_product_error_bound_dominates_rounding():
    # integer inputs up to 2^52 against unit vectors: heavy cancellation;
    # the float tier charges the rounding of x_i . b as _inner_error(n) ||b||
    rng = np.random.default_rng(5)
    n = 24
    x = eig_sym(sample_ensemble(GNP, SeedPath(5, ("inner",)), n)).eigenvectors
    cols = np.column_stack([rng.integers(-2**52, 2**52, (n, 6)), rng.integers(-3, 4, (n, 2))])
    cols[:, 0] = np.round(x[:, 0] * 2**52)  # nearly parallel to x_0, so x_1 . b cancels
    b = cols.astype(np.float64)
    inner = x[None].transpose(0, 2, 1) @ b[None]
    err = exact_module._upper(exact_module._inner_error(n) * np.sqrt((b * b).sum(axis=0)))
    rounded = 0
    for i in range(n):
        for j in range(cols.shape[1]):
            exact = sum(Fraction(p) * int(q) for p, q in zip(x[:, i], cols[:, j]))
            off = abs(Fraction(float(inner[0, i, j])) - exact)
            assert off <= Fraction(float(err[j])), (i, j)
            rounded += off > 0
    assert rounded > n  # the bound is tested where rounding happened


def test_float_tier_proves_nothing_false_from_scaled_eigensystems():
    # eigenvectors scaled by 2^-600 (their squares underflow) or 2^600
    # (their squares overflow) prove nothing at all; A scaled by 2^40, with
    # the same Kalman ranks, settles only the oracle's ranks
    n = 12
    root = SeedPath(2040, ("scaled",))
    good = [sample_ensemble(GNP, root.child(t), n) for t in range(3)]
    mats = np.stack(good + [with_twins(good[0]), np.diag(np.arange(n) // 2),
                            rank_deficient_fixtures(n)[0]])
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                              np.random.default_rng(2040).integers(-2**52, 2**52, n)])
    oracle = np.array(kalman_ranks_exact(mats, inputs))
    assert (oracle < n).any() and (oracle == n).any()
    for a in (mats, 2**40 * mats):
        es = eig_sym(a.astype(np.float64))
        ranks = float_tier(a, inputs, es)
        assert (ranks == n).any() and ((ranks == -1) | (ranks == oracle)).all()
        for scale in (2.0**-600, 2.0**600):
            scaled = EigenSystem(es.eigenvalues, es.eigenvectors * scale)
            assert (float_tier(a, inputs, scaled) == -1).all()
    # on P_2 the Weyl and Davis-Kahan bounds alone hold up to a defect near
    # 0.4, but no proof is accepted beyond a defect bound of 0.01
    p2, eye = np.array([[0, 1], [1, 0]]), np.eye(2, dtype=np.int64)
    es = eig_sym(p2[None].astype(np.float64))
    for scale, proved in ((1 + 2.0**-9, True), (1 + 2.0**-5, False)):  # defect 0.008, 0.13
        scaled = EigenSystem(es.eigenvalues, es.eigenvectors * scale)
        assert (float_tier(p2[None], eye, scaled) == (2 if proved else -1)).all()


def labelled_graphs(n: int, codes: np.ndarray | None = None) -> np.ndarray:
    """Every labelled graph on n vertices, one per subset of the n (n - 1) / 2
    edges, or the graphs whose edge subsets `codes` numbers (bit e, edge e)."""
    rows, cols = np.triu_indices(n, 1)
    codes = np.arange(2 ** len(rows)) if codes is None else codes
    edges = (codes[:, None] >> np.arange(len(rows))) & 1
    mats = np.zeros((len(edges), n, n), dtype=np.int64)
    mats[:, rows, cols] = edges
    return mats + mats.transpose(0, 2, 1)


def test_float_tier_on_every_labelled_graph_up_to_six_vertices():
    # every graph with n <= 6 vertices, with every basis input and the
    # all-ones input: each rank the float tier settles is the mod-_P and
    # Bareiss tiers' rank, each spectrum its bound proves simple is simple
    # by the block test, and each its relation proves repeated is repeated
    totals = np.zeros(6, dtype=np.int64)
    basis, ones = [], []
    for n in range(1, 7):
        mats = labelled_graphs(n)
        inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        eigsys = eig_sym(mats.astype(np.float64))
        oracle = np.array(kalman_ranks_exact(mats, inputs))
        ranks = float_tier(mats, inputs, eigsys)
        settled = ranks >= 0
        assert (ranks[settled] == oracle[settled]).all(), n
        with_eigsys = np.array(kalman_ranks_exact(mats, inputs, eigsys=eigsys))
        assert (with_eigsys == oracle).all()
        simple = np.array(has_simple_spectrum_exact(mats))
        proved, repeated = exact_module._float_spectra(mats, eigsys)
        assert not (proved & ~simple).any() and not (repeated & simple).any(), n
        assert has_simple_spectrum_exact(mats, eigsys) == simple.tolist()
        totals += [(oracle < n).sum(), (settled & (oracle < n)).sum(), (oracle == n).sum(),
                   (ranks == n).sum(), proved.sum(), repeated.sum()]
        for found in (oracle, with_eigsys):  # graphs controlled by every e_i / by all-ones
            basis.append(int((found[:, :n] == n).all(axis=1).sum()))
            ones.append(int((found[:, n] == n).sum()))
    # (deficient, settled of them, full, proved full, simple spectra
    # proved, repeated spectra proved): every spectrum is settled
    assert totals.tolist() == [165358, 76537, 70522, 70522, 21128, 33867 - 21128]
    # the fractions 1, 1/2, 0, 3/16, 0, 405/2048 and 1, 0, 0, 0, 0, 45/256
    # of the 2^(n (n - 1) / 2) graphs, each count twice, with eigensystems
    # and without; all-ones is controllable only on graphs without a
    # nontrivial automorphism, so its count at n = 6 is 6! per isomorphism class
    assert basis == [c for c in (1, 1, 0, 12, 0, 6480) for _ in range(2)]
    assert ones == [c for c in (1, 0, 0, 0, 0, 5760) for _ in range(2)]
    assert ones[-1] % math.factorial(6) == 0


@pytest.mark.enumeration
def test_every_labelled_graph_on_seven_vertices():
    # all 2^21 graphs with n = 7, ranked with their eigensystems in chunks
    # of 2^14: 277200 of them, the fraction 17325/131072, are controlled by
    # every basis input, and 463680 = 92 * 7! by the all-ones input (one
    # count per labelling of each asymmetric class, as at n = 6)
    n, chunk = 7, 2**14
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    basis = ones = 0
    for start in range(0, 2**21, chunk):
        mats = labelled_graphs(n, np.arange(start, start + chunk))
        eigsys = eig_sym(mats.astype(np.float64))
        ranks = np.array(kalman_ranks_exact(mats, inputs, eigsys=eigsys))
        basis += int((ranks[:, :n] == n).all(axis=1).sum())
        ones += int((ranks[:, n] == n).sum())
    assert (basis, ones) == (277200, 92 * math.factorial(7))
    assert Fraction(basis, 2**21) == Fraction(17325, 131072)


def without_relations(monkeypatch):
    """Switch the relation tier off: no relation is ever proved."""
    monkeypatch.setattr(exact_module, "_relation_holds", lambda mats, which, roots, active,
                        blocks: np.zeros(len(which), dtype=bool))


def test_integer_eigenvectors_leave_what_they_cannot_prove(monkeypatch):
    # A = [[4, 6], [6, 9]] has eigenvalues 0 and 13, with eigenvectors
    # (3, -2) and (2, 3): scaled by its smaller entry neither is integer, so
    # no rounded candidate satisfies A z = lambda z, and the eigenvector
    # input (3, -2), of rank 1, is left to the relation tier, which proves
    # q(A) b = 0 for q = x, over its one component proved nonzero, of
    # eigenvalue 0; e_0 is proved by the bound
    a = np.array([[4, 6], [6, 9]], dtype=np.int64)
    inputs = np.array([[3, 1], [-2, 0]], dtype=np.int64)
    assert float_tier(a[None], inputs).tolist() == [[1, 2]]
    assert kalman_ranks_exact(a, inputs, eigsys=eig_sym(a)) == bareiss_ranks(a, inputs) == [1, 2]
    # v v^T for v = (1, 2^9): (2^9, -1) spans its kernel and is proved, but
    # z . b for b = 2^43 v may reach 2 * 2^9 * 2^52 = 2^62 in int64, so
    # that column is left too, and its relation x - (2^18 + 1) holds; the
    # eigenvector input (2^9, -1) is settled by z
    v = np.array([1, 2**9], dtype=np.int64)
    b = np.outer(v, v)
    vv = np.column_stack([[1, 0], [2**9, -1], 2**43 * v])
    assert float_tier(b[None], vv).tolist() == [[2, 1, 1]]
    assert kalman_ranks_exact(b, vv, eigsys=eig_sym(b)) == bareiss_ranks(b, vv) == [2, 1, 1]
    without_relations(monkeypatch)
    assert float_tier(a[None], inputs).tolist() == [[-1, 2]]
    assert float_tier(b[None], vv).tolist() == [[2, 1, -1]]
    # the twin graph's own eigenvectors, e_0 - e_1 among them, settle
    # every column; with another graph's eigenvalues they prove nothing
    graph = sample_ensemble(GNP, SeedPath(1506, ("twin-candidates", 2)), 8)
    twin = with_twins(graph)
    own, other = eig_sym(twin), eig_sym(graph)
    inputs = np.column_stack([np.eye(8, dtype=np.int64), np.ones(8, dtype=np.int64)])
    mixed = EigenSystem(other.eigenvalues[None], own.eigenvectors[None])
    assert (float_tier(twin[None], inputs, mixed) == -1).all()
    oracle = bareiss_ranks(twin, inputs)
    assert min(oracle) < 8 and float_tier(twin[None], inputs)[0].tolist() == oracle


def record_relations(monkeypatch) -> list:
    """Record the polynomials of every relation checked exactly."""
    polys = []
    real = exact_module._annihilated

    def annihilated(mats, which, blocks, q):
        polys.extend(q.tolist())
        return real(mats, which, blocks, q)

    monkeypatch.setattr(exact_module, "_annihilated", annihilated)
    return polys


def test_relation_tier_settles_or_leaves_each_case(monkeypatch):
    # each repeated spectrum is proved by its minimal polynomial, rounded
    # from the product over its eigenvalue clusters and checked exactly,
    # without the block test, which is then not even called; their Kalman
    # columns are left at -1
    p4 = np.diag(np.ones(3, dtype=np.int64), 1)
    minimal = [  # (A, the relation checked)
        (rank_deficient_fixtures(12)[0], [-11, -10, 1]),  # K_12: -1 eleven times, and 11
        (np.zeros((12, 12), dtype=np.int64), [0, 1]),  # q = x
        (np.diag([3, 3]), [-3, 1]),
        (repeated_diagonals(7)[0], [0, 12, 4, -15, -5, 3, 1]),  # (x + 3) ... (x - 2)
        (repeated_diagonals(12)[1], [0, -2, -1, 2, 1]),  # diag(k // 3 - 2): -2, -1, 0, 1
        (np.kron(np.eye(2, dtype=np.int64), p4 + p4.T), [1, 0, -3, 0, 1]),  # +-phi, +-1/phi
    ]
    block_tests = record_pair_stage_calls(monkeypatch)
    polys = record_relations(monkeypatch)
    for a, q in minimal:
        n = len(a)
        polys.clear()
        assert has_simple_spectrum_exact(a, eig_sym(a)) is False
        assert polys == [q + [0] * (len(polys[0]) - len(q))], a
        inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        assert (float_tier(a[None], inputs) == -1).all()
    assert block_tests == []
    # [[4, 6], [6, 9]]: b = (3, -2) has one component proved nonzero, of
    # eigenvalue 0, and the other undecided; q = x proves rank 1
    a = np.array([[4, 6], [6, 9]], dtype=np.int64)
    polys.clear()
    assert float_tier(a[None], [[3], [-2]]).tolist() == [[1]]
    assert polys == [[0, 1]]
    assert float_tier(a[None], [[3], [-1]]).tolist() == [[2]]  # both proved nonzero


def test_rounded_relations_handed_to_the_exact_check(monkeypatch):
    # the float product of x - w, rounded, proposes each relation that
    # _annihilated checks; pinned here, so that neither a rewrite of the
    # product nor a numpy kernel fault can move a proposal unseen
    polys = record_relations(monkeypatch)
    k5 = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    assert has_simple_spectrum_exact(k5, eig_sym(k5)) is False
    assert polys == [[-4, -3, 1]]  # (x + 1)(x - 4), one value per cluster
    polys.clear()
    assert has_simple_spectrum_exact(np.diag([0, 0, 1, 2]), eig_sym(np.diag([0, 0, 1, 2]))) is False
    assert polys == [[0, 2, -3, 1]]  # x (x - 1)(x - 2)
    # vertices 0 and 1 are twins, so e_0 - e_1 spans the eigenspace of 0;
    # e_0 and e_1 have rank 4 and the all-ones input rank 3, each proved by
    # the product over its components proved nonzero, the zero eigenvalue
    # among them only for e_0 and e_1
    twin = np.array([[0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1], [1, 1, 0, 1, 0, 0],
                     [1, 1, 1, 0, 0, 1], [1, 1, 0, 0, 0, 1], [1, 1, 0, 1, 1, 0]])
    inputs = np.column_stack([np.eye(6, dtype=np.int64), np.ones(6, dtype=np.int64)])
    polys.clear()
    assert float_tier(twin[None], inputs).tolist() == [bareiss_ranks(twin, inputs)] == \
        [[4, 4, 5, 5, 5, 5, 3]]
    assert polys == [[0, -4, -9, -1, 1], [0, -4, -9, -1, 1], [-4, -9, -1, 1, 0]]


def test_relation_tier_from_a_wrong_eigensystem_proves_nothing_false():
    # rolled eigensystems, and eigenvalues that are not finite or whose
    # product overflows: every verdict settled is the oracle's
    n = 12
    graph = sample_ensemble(GNP, SeedPath(1506, ("relation", n)), n)
    mats = np.stack([*rank_deficient_fixtures(n), *repeated_diagonals(n), graph,
                     with_twins(graph), np.zeros((n, n), dtype=np.int64)])
    simple = np.array(has_simple_spectrum_exact(mats))
    inputs = np.column_stack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    oracle = np.array(kalman_ranks_exact(mats, inputs))
    es = eig_sym(mats.astype(np.float64))
    proved, repeated = exact_module._float_spectra(mats, es)
    assert proved.tolist() == simple.tolist() and repeated.tolist() == (~simple).tolist()
    wrong = [eig_sym(np.roll(mats, shift, axis=0).astype(np.float64)) for shift in (1, 3)]
    for shift in (np.nan, np.inf, 2.0**600):  # 2^600 absorbs every eigenvalue
        wrong.append(EigenSystem(es.eigenvalues + shift, es.eigenvectors))
    for eigsys in wrong:
        proved, repeated = exact_module._float_spectra(mats, eigsys)
        assert not (proved & ~simple).any() and not (repeated & simple).any()
        assert has_simple_spectrum_exact(mats, eigsys) == simple.tolist()
        ranks = float_tier(mats, inputs, eigsys)
        assert ((ranks == -1) | (ranks == oracle)).all()
        assert kalman_ranks_exact(mats, inputs, eigsys=eigsys) == oracle.tolist()


def test_a_tier_that_decides_everything_ends_the_decision(monkeypatch):
    # when the float tier decides every spectrum, or every Kalman rank, the
    # block test is not called, not even on an empty stack
    p4 = np.diag(np.ones(3, dtype=np.int64), 1)
    p4 += p4.T
    k4 = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    mats = np.stack([p4, k4, np.diag(np.arange(1, 5)), np.zeros((4, 4), dtype=np.int64)])
    eye = np.eye(4, dtype=np.int64)
    calls = record_pair_stage_calls(monkeypatch)
    assert has_simple_spectrum_exact(mats, eig_sym(mats.astype(np.float64))) == \
        [True, False, True, False]
    assert kalman_ranks_exact(p4, eye, eigsys=eig_sym(p4.astype(np.float64))) == [4] * 4
    assert calls == []
    # without an eigensystem, the block test decides each
    assert has_simple_spectrum_exact(mats) == [True, False, True, False]
    assert kalman_ranks_exact(p4, eye) == [4] * 4
    assert calls == [4, 4]


def test_simple_spectrum_of_a_stack_equals_one_matrix_at_a_time(monkeypatch):
    # a stack is decided as its matrices are one at a time; with its
    # eigensystems, only the matrices the float bound leaves reach the
    # block test, all in one call, and a wrong eigensystem proves nothing
    root = SeedPath(1506, ("stacked-spectra",))
    mats = np.stack([sample_ensemble(GNP, root.child(t), 10) for t in range(24)]
                    + rank_deficient_fixtures(10) + repeated_diagonals(10)
                    + [np.diag(np.r_[0, 2**20 * np.arange(9)])])
    alone = [has_simple_spectrum_exact(a) for a in mats]
    assert 0 < sum(alone) < len(alone)
    calls = record_pair_stage_calls(monkeypatch)
    assert has_simple_spectrum_exact(mats) == alone
    assert calls == [len(mats)]
    calls.clear()
    eigsys = eig_sym(mats.astype(np.float64))
    assert has_simple_spectrum_exact(mats, eigsys) == alone
    # the bound proves every simple spectrum here, and a relation every
    # repeated one but the last, whose coefficients exceed 2^53
    assert calls == [1]
    calls.clear()
    stale = eig_sym(np.roll(mats, 1, axis=0).astype(np.float64))
    assert has_simple_spectrum_exact(mats, stale) == alone
    # a wrong eigensystem proves nothing: its residual on A makes the Weyl
    # radius so large that every spectrum is one cluster, whose relation fails
    assert calls == [len(mats)]
    for a, simple in zip(mats[:3], alone):
        assert has_simple_spectrum_exact(a, eig_sym(a)) is simple
    assert has_simple_spectrum_exact(mats[:0]) == []
    assert has_simple_spectrum_exact(np.zeros((2, 0, 0), dtype=np.int64)) == [True, True]
    with pytest.raises(ValueError, match="an eigensystem of shape"):
        has_simple_spectrum_exact(mats, eigsys[:3])
