import itertools
from fractions import Fraction

import numpy as np
import pytest

from ctrllab import (
    DEFAULT_EXACT_CAP,
    DimensionCapError,
    SeedPath,
    charpoly_exact,
    det_exact,
    has_simple_spectrum_exact,
    is_controllable_exact,
    kalman_matrix,
    kalman_ranks_exact,
    rank_exact,
    sample_gnp,
)
from ctrllab import exact as exact_module
from ctrllab.exact import _P

P3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


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
# exact rank / determinant
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
    assert det_exact(m) == 1


def test_det_vandermonde_of_diagonal_system():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lam = rng.choice(np.arange(-12, 13), size=4, replace=False).astype(np.int64)
        k = kalman_matrix(np.diag(lam), np.ones(4, dtype=np.int64))
        vand = 1
        for i in range(4):
            for j in range(i + 1, 4):
                vand *= int(lam[j]) - int(lam[i])
        assert det_exact(k) == vand
        assert is_controllable_exact(np.diag(lam), np.ones(4, dtype=np.int64))


def test_det_singular_and_signs():
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[2]]) == 2


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


def test_det_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(314)
    for trial in range(300):
        n = int(rng.integers(1, 6))
        m = rng.integers(-9, 10, (n, n))
        if trial % 4 == 0 and n > 1:
            m[0] = m[n - 1]  # force singularity often
        assert det_exact(m) == det_oracle(m), f"trial {trial}\n{m}"


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


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        is_controllable_exact(P3, [1, 0])


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        is_controllable_exact([[0, 1], [2, 0]], [1, 0])
    with pytest.raises(ValueError, match=r"not symmetric at \(1,2\)"):
        kalman_ranks_exact([[0, 1, 0], [1, 0, 1], [0, 2, 0]], np.eye(3, dtype=np.int64))


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
    with pytest.raises(ValueError, match=r"matrix has non-finite entries: \[0, 0\] = inf"):
        rank_exact(np.array([[float("inf")]], dtype=object))
    with pytest.raises(ValueError, match=r"vector has non-finite entries: \[1\] = nan"):
        is_controllable_exact(P3, np.array([1, float("nan"), 0], dtype=object))
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
        a = sample_gnp(6, 0.5, root.child(t))
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
    graphs = [sample_gnp(n, 0.5, root.child(t)) for t in range(6 if n <= 12 else 1)]
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


def test_full_rank_over_q_but_not_mod_p_falls_back(monkeypatch):
    oracle_calls = []
    real_rank = exact_module.rank_exact

    def counted(m):
        oracle_calls.append(1)
        return real_rank(m)

    monkeypatch.setattr(exact_module, "rank_exact", counted)
    assert is_controllable_exact([[0]], [_P]) is True
    assert len(oracle_calls) == 1
    swap = np.array([[0, _P], [_P, 0]], dtype=np.int64)  # zero matrix mod _P
    assert kalman_ranks_exact(swap, np.eye(2, dtype=np.int64)) == [2, 2]
    assert len(oracle_calls) == 3
    # the all-ones input stays rank 1 over Q too: (1, 1) is an eigenvector
    assert kalman_ranks_exact(swap, [[1], [1]]) == [1]


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


def test_charpoly_mod_p_reduces_exact_charpoly():
    root = SeedPath(31250, ("charpoly-mod-p",))
    for t in range(20):
        a = sample_gnp(2 + t % 9, 0.5, root.child(t))
        residues = exact_module._residues(a)
        assert exact_module._charpoly_mod_p(residues) == [c % _P for c in charpoly_exact(a)]


def test_simple_spectrum_certificate_against_rational_oracle():
    root = SeedPath(15060, ("simple-certificate",))
    mats = [sample_gnp(2 + t % 11, 0.5, root.child(t)) for t in range(60)]
    mats += [m for n in (3, 6, 9) for m in rank_deficient_fixtures(n)]
    mats += [np.diag([0, _P]), np.diag([1, 1 + 2 * _P, 7]), np.diag([3, 3])]
    certified = 0
    for a in mats:
        oracle = simple_spectrum_oracle(a)
        if exact_module._simple_spectrum_mod_p(exact_module._residues(np.asarray(a))):
            certified += 1
            assert oracle, a
        assert has_simple_spectrum_exact(a) is oracle, a
    assert certified > 0
    # simple over Q, repeated mod _P: decided by the rational fallback
    assert not exact_module._simple_spectrum_mod_p(exact_module._residues(np.diag([0, _P])))
    assert has_simple_spectrum_exact(np.diag([0, _P])) is True
