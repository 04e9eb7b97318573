import itertools
import math

import numpy as np
import pytest

from ctrllab import (
    BasisScanResult,
    BudgetExceededError,
    DimensionCapError,
    EnsembleSpec,
    SeedPath,
    basis_scan,
    eig_sym,
    has_simple_spectrum_exact,
    is_controllable_exact,
    kalman_matrix,
    pbh_controllable,
    rank_exact,
    sample_ensemble,
    sparsest_input,
)
from ctrllab.exact import _P
from ctrllab.minctrl import DEFAULT_SUPPORT_BUDGET
from ctrllab.spectral import (CONTROLLABLE, DEFAULT_TOLERANCES, INDETERMINATE, basis_witnesses,
                              classify)
from test_exact import labelled_graphs

SEED = SeedPath(20260810, ("test-minctrl",))
GNP = EnsembleSpec.gnp(0.5)
P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
K3 = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int64)
K4 = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)


def float_basis_scan(a, tol=DEFAULT_TOLERANCES) -> tuple[set, set]:
    """The float PBH verdict of (A, e_i) for each i, as the harness's
    all-basis path judges it: (controllable indices, indeterminate ones)."""
    gap, scale, inner = basis_witnesses(eig_sym(a))
    verdicts = [classify(gap, x, scale, 1.0, tol) for x in inner.tolist()]
    return ({i for i, v in enumerate(verdicts) if v == CONTROLLABLE},
            {i for i, v in enumerate(verdicts) if v == INDETERMINATE})


# ---------------------------------------------------------------------------
# basis scans
# ---------------------------------------------------------------------------

def test_basis_scan_path_graph_endpoints():
    assert set(basis_scan(P3).controllable) == {0, 2}
    assert float_basis_scan(P3) == ({0, 2}, set())


def test_basis_scan_complete_graph_empty():
    assert basis_scan(K3) == BasisScanResult(frozenset(), simple_spectrum=False)
    assert float_basis_scan(K3)[0] == set()
    # n = 0: no basis input, on both paths, and the empty spectrum is simple
    assert basis_scan(np.zeros((0, 0), dtype=np.int64)) == BasisScanResult(frozenset(), True)
    assert float_basis_scan(np.zeros((0, 0))) == (set(), set())
    # a stack of matrices gives one scan per matrix
    assert basis_scan(np.stack([K3, P3, K3])) == [basis_scan(K3), basis_scan(P3), basis_scan(K3)]


def test_basis_scan_of_a_stack_decides_spectra_first(monkeypatch):
    # one spectrum test for the whole stack, with its eigensystem, then one
    # call of the rank stage, which ranks the basis of the matrices with a
    # simple spectrum only; each scan is the matrix's own, with or without
    # the eigensystem
    from ctrllab import minctrl
    root = SEED.child("stacked-scan")
    blown_up = np.kron(K4, np.ones((2, 2), dtype=np.int64))  # eigenvalue 0 five times
    mats = np.stack([sample_ensemble(GNP, root.child(t), 8) for t in range(40)] + [blown_up])
    eigsys = eig_sym(mats.astype(np.float64))
    alone = [basis_scan(a) for a in mats]
    assert {scan.simple_spectrum for scan in alone} == {True, False}
    assert {bool(scan.controllable) for scan in alone if scan.simple_spectrum} == {True, False}
    calls = []
    real_test, real_ranks = minctrl.has_simple_spectrum_exact, minctrl._kalman_ranks
    monkeypatch.setattr(minctrl, "has_simple_spectrum_exact", lambda a, eigsys:
                        calls.append(("spectrum", len(a), eigsys is not None))
                        or real_test(a, eigsys))
    monkeypatch.setattr(minctrl, "_kalman_ranks", lambda a, cols, system, ranks:
                        calls.append(("ranks", (ranks < 0).any(axis=1).tolist(),
                                      system is not None))
                        or real_ranks(a, cols, system, ranks))
    simple = [scan.simple_spectrum for scan in alone]
    for es in (None, eigsys):
        calls.clear()
        assert basis_scan(mats, eigsys=es) == alone
        assert calls == [("spectrum", len(mats), es is not None), ("ranks", simple, es is not None)]
    for t in (0, len(mats) - 1):
        assert basis_scan(mats[t], eigsys=eigsys[t]) == alone[t]
    assert basis_scan(mats[:0]) == []


def test_basis_scan_ranks_only_when_a_spectrum_is_simple(monkeypatch):
    # no spectrum simple: no rank stage at all, not one on an empty stack;
    # every spectrum simple: the stack given is ranked as it is, on the
    # bounds that the spectrum test kept on the eigensystem given
    from ctrllab import minctrl
    calls = []
    real_ranks = minctrl._kalman_ranks
    monkeypatch.setattr(minctrl, "_kalman_ranks", lambda a, cols, system, ranks:
                        calls.append((a, system, ranks.copy()))
                        or real_ranks(a, cols, system, ranks))
    empty = BasisScanResult(frozenset(), simple_spectrum=False)
    for a in (K4, np.stack([K4, K4])):
        for eigsys in (None, eig_sym(a.astype(np.float64))):
            assert basis_scan(a, eigsys=eigsys) == (empty if a.ndim == 2 else [empty, empty])
            assert calls == []
    paths = np.stack([P3, P3])
    eigsys = eig_sym(paths.astype(np.float64))
    assert basis_scan(paths, eigsys=eigsys) == [basis_scan(P3)] * 2
    (a, system, ranks), (_, none, _) = calls
    assert a is paths and (ranks == -1).all() and none is None
    assert system is eigsys and eigsys._proofs[0] is not None


def test_basis_scan_refuses_a_dimension_above_the_cap_before_any_test(monkeypatch):
    from ctrllab import minctrl
    monkeypatch.setattr(minctrl, "has_simple_spectrum_exact",
                        lambda a, eigsys: pytest.fail("the spectrum was tested"))
    for a in (np.zeros((5, 5), dtype=np.int64), np.zeros((2, 5, 5), dtype=np.int64)):
        with pytest.raises(DimensionCapError, match=r"^n=5 exceeds exact cap 4$"):
            basis_scan(a, cap=4)


def test_basis_scan_diagonal_matrix_empty():
    # Kalman columns for e_i stay multiples of e_i, rank 1; every e_i is
    # orthogonal to all eigenvectors but one
    assert basis_scan(np.diag([1, 2, 3])).controllable == frozenset()
    assert float_basis_scan(np.diag([1, 2, 3])) == (set(), set())


def test_basis_scan_float_reports_indeterminate_separately():
    # rotate a near-degenerate spectrum so eigenvector inner products stay
    # large while the gap sits inside the indeterminate band
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    a = q @ np.diag([1.0, 1.0 + 1e-10]) @ q.T
    a = (a + a.T) / 2.0
    assert float_basis_scan(a) == (set(), {0, 1})


@pytest.mark.parametrize("n", [6, 12, 24])
def test_basis_scan_matches_bareiss_oracle(n):
    path = np.diag(np.ones(n - 1, dtype=np.int64), 1)
    mats = [sample_ensemble(GNP, SEED.child("scan-oracle", n, t), n) for t in range(2)]
    mats += [path + path.T, np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)]
    for a in mats:
        oracle = {i for i in range(n)
                  if rank_exact(kalman_matrix(a, np.eye(n, dtype=np.int64)[i])) == n}
        assert basis_scan(a).controllable == oracle


def test_basis_scan_falls_back_when_certificate_fails():
    # zero mod _P, yet both basis inputs are controllable over Q
    a = np.array([[0, _P], [_P, 0]], dtype=np.int64)
    assert basis_scan(a).controllable == frozenset({0, 1})
    assert float_basis_scan(a)[0] == {0, 1}


def test_basis_scan_methods_agree_on_random_graphs():
    root = SEED.child("scan-agree")
    for t in range(25):
        a = sample_ensemble(GNP, root.child(t), 7)
        exact = basis_scan(a).controllable
        controllable, undecided = float_basis_scan(a)
        assert controllable <= exact | undecided
        assert exact - undecided == controllable - undecided


def test_sparsest_input_names_a_non_integer_kmax():
    with pytest.raises(ValueError, match=r"kmax must be an integer, got 2\.5"):
        sparsest_input(P3, kmax=2.5)


def test_sparsest_input_names_a_non_integer_budget():
    with pytest.raises(ValueError, match=r"budget must be an integer, got 20\.5"):
        sparsest_input(np.diag([1, 2, 3, 4, 5]), budget=20.5)


def test_bools_are_not_indices_or_counts_but_numpy_integers_are():
    with pytest.raises(ValueError, match=r"kmax must be an integer, got True"):
        sparsest_input(P3, kmax=True)
    with pytest.raises(ValueError, match=r"budget must be an integer, got True"):
        sparsest_input(P3, budget=True)
    five = np.diag([1, 2, 3, 4, 5])
    assert sparsest_input(five, kmax=np.int32(2), budget=np.int64(20)) == \
        sparsest_input(five, kmax=2, budget=20)


# ---------------------------------------------------------------------------
# sparsest input
# ---------------------------------------------------------------------------

def test_sparsest_path_graph_first_basis_witness():
    r = sparsest_input(P3)
    assert r.k_star == 1
    assert r.witness.tolist() == [1, 0, 0]
    assert set(r.basis_controllable) == {0, 2}


def test_sparsest_complete_graph_infeasible_any_kmax():
    for kmax in (1, 2, 4):
        r = sparsest_input(K4, kmax=kmax)
        assert r.infeasible
        assert r.basis_controllable == frozenset()


def test_sparsest_binary_diagonal_is_infeasible():
    # every eigenvector is a coordinate axis, so b must touch all three;
    # the all-ones vector against distinct diagonal entries is a Vandermonde
    # system, so k_star = n after the 3 + 3 smaller supports
    r = sparsest_input(np.diag([1, 2, 3]))
    assert r.k_star == 3
    assert r.witness.tolist() == [1, 1, 1]
    assert r.supports_tested == 7


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
def test_sparsest_diagonal_needs_every_coordinate(n):
    # diag(1, ..., n) has the coordinate axes as eigenvectors, so b controls
    # it iff every entry of b is nonzero: only the full 0/1 support works,
    # found after every smaller support, 2^n - 1 in all
    r = sparsest_input(np.diag(np.arange(1, n + 1)))
    assert r.k_star == n
    assert r.witness.tolist() == [1] * n
    assert r.supports_tested == 2**n - 1


def test_sparsest_kmax_below_kstar_is_infeasible():
    # the search answers for supports up to kmax only
    a = np.diag([1, 2, 3, 4])
    below = sparsest_input(a, kmax=3)
    assert below.infeasible and below.witness is None
    assert below.supports_tested == 4 + 6 + 4
    assert sparsest_input(a, kmax=4).k_star == 4


def path_graph(n: int) -> np.ndarray:
    return np.diag(np.ones(n - 1, dtype=np.int64), 1) + np.diag(np.ones(n - 1, dtype=np.int64), -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_basis_scan_of_a_path_is_the_vertices_prime_to_n_plus_one(n):
    # P_n has eigenvectors sin(j k pi / (n + 1)), j, k = 1..n; vertex j
    # (1-based) meets no zero of them iff gcd(j, n + 1) = 1
    expected = {j - 1 for j in range(1, n + 1) if math.gcd(j, n + 1) == 1}
    a = path_graph(n)
    assert set(basis_scan(a).controllable) == expected
    assert float_basis_scan(a) == (expected, set())
    r = sparsest_input(a)
    assert (r.k_star, r.witness.tolist()) == (1, [1] + [0] * (n - 1))


def star_graph(leaves: int) -> np.ndarray:
    a = np.zeros((leaves + 1, leaves + 1), dtype=np.int64)
    a[0, 1:] = a[1:, 0] = 1
    return a


def cycle_graph(n: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=np.int64), 1, axis=1) + np.roll(np.eye(n, dtype=np.int64), -1, axis=1)


@pytest.mark.parametrize("a", [star_graph(3), star_graph(4), cycle_graph(4), cycle_graph(5),
                               cycle_graph(6)],
                         ids=["star3", "star4", "cycle4", "cycle5", "cycle6"])
def test_sparsest_on_a_repeated_spectrum_is_infeasible_without_enumeration(a):
    # a star with m >= 3 leaves has eigenvalue 0 m - 1 times, and a cycle
    # repeats 2 cos(2 pi k / n) for k and n - k; no b of any support
    # controls such a matrix, and the spectrum test says so before any
    # support beyond the singletons is enumerated
    assert not has_simple_spectrum_exact(a)
    for kmax in range(1, len(a) + 1):
        r = sparsest_input(a, kmax=kmax)
        assert r.infeasible and r.witness is None
        assert (r.basis_controllable, r.supports_tested) == (frozenset(), 0)


def test_sparsest_witness_passes_the_float_decider():
    # the exact search's witness is controllable on the float PBH path too,
    # or at worst undecided there; never proved uncontrollable
    root = SEED.child("witness-float")
    found = 0
    for t in range(20):
        a = sample_ensemble(GNP, root.child(t), 7)
        r = sparsest_input(a)
        if r.infeasible:
            continue
        found += 1
        assert is_controllable_exact(a, r.witness)
        assert pbh_controllable(a.astype(np.float64), r.witness).decision != "uncontrollable"
    assert found >= 5


def test_sparsest_consistency_kstar_one_iff_basis_nonempty():
    # basis_controllable equals a fresh basis scan in every branch (simple
    # or repeated spectrum, k* = 1, k* > 1, infeasible), so callers may read
    # it instead of scanning again
    root = SEED.child("consistency")
    fixtures = [P3, K3, K4, np.diag([1, 2, 3])]
    for a in [sample_ensemble(GNP, root.child(t), 8) for t in range(30)] + fixtures:
        r = sparsest_input(a)
        assert (r.k_star == 1) == bool(r.basis_controllable)
        assert r.basis_controllable == basis_scan(a).controllable


def sparsest_spectrum_first(a):
    """The binary01 search with the simple-spectrum test before the basis
    scan: (basis_controllable, k_star, witness, supports_tested)."""
    n = a.shape[0]
    if not has_simple_spectrum_exact(a):
        return frozenset(), None, None, 0
    basis = basis_scan(a).controllable
    if basis:
        return basis, 1, np.eye(n, dtype=np.int64)[min(basis)], n
    tested = n
    for k in range(2, n + 1):
        for supp in itertools.combinations(range(n), k):
            tested += 1
            b = np.zeros(n, dtype=np.int64)
            b[list(supp)] = 1
            if is_controllable_exact(a, b):
                return frozenset(), k, b, tested
    return frozenset(), None, None, tested


def sequential_search(a, kmax=None, budget=DEFAULT_SUPPORT_BUDGET):
    """The binary01 search one support at a time, one is_controllable_exact
    call each: (basis_controllable, k_star, witness, supports_tested), or
    the BudgetExceededError it raises."""
    n = a.shape[0]
    kmax = n if kmax is None else kmax
    if budget < n:
        return BudgetExceededError(0, 1, budget)
    basis = basis_scan(a).controllable
    if basis:
        return basis, 1, np.eye(n, dtype=np.int64)[min(basis)], n
    if not has_simple_spectrum_exact(a):
        return frozenset(), None, None, 0
    tested = n
    for k in range(2, kmax + 1):
        for supp in itertools.combinations(range(n), k):
            if tested >= budget:
                return BudgetExceededError(tested, k, budget)
            tested += 1
            b = np.zeros(n, dtype=np.int64)
            b[list(supp)] = 1
            if is_controllable_exact(a, b):
                return frozenset(), k, b, tested
    return frozenset(), None, None, tested


def layer_search(a, kmax=None, budget=DEFAULT_SUPPORT_BUDGET):
    """:func:`sparsest_input` in binary01 mode, in the form of :func:`sequential_search`."""
    try:
        r = sparsest_input(a, kmax=kmax, budget=budget)
    except BudgetExceededError as error:
        return error
    return r.basis_controllable, r.k_star, r.witness, r.supports_tested


def same_outcome(got, want) -> bool:
    """Equal search outcomes: the same budget error, or the same result
    with a witness of equal entries and dtype."""
    if isinstance(got, BudgetExceededError) or isinstance(want, BudgetExceededError):
        return type(got) is type(want) and (got.supports_tested, got.k_reached, got.budget) == \
            (want.supports_tested, want.k_reached, want.budget)
    (basis, k_star, witness, tested), (basis_w, k_star_w, witness_w, tested_w) = got, want
    if witness is None or witness_w is None:
        same_witness = witness is witness_w
    else:
        same_witness = witness.dtype == witness_w.dtype and witness.tolist() == witness_w.tolist()
    return (basis, k_star, tested) == (basis_w, k_star_w, tested_w) and same_witness


def test_layer_search_equals_the_sequential_search(monkeypatch):
    # each layer k >= 2 is decided in lexicographic slices of at most
    # 2^14 // n^2 supports, one call of the rank stage per slice; k*, the
    # witness, the supports tested and every budget error are those of
    # deciding one support at a time
    from ctrllab import minctrl
    root = SEED.child("layers")
    graphs = [sample_ensemble(GNP, root.child(n, t), n) for n in (6, 7, 8) for t in range(12)]
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int64)
    diagonals = [np.diag(np.arange(1, n + 1)) for n in (3, 5)]  # k* = n
    fixtures = [a for a in graphs if not basis_scan(a).controllable] + diagonals + [K4, c4]
    widths = []
    real = minctrl._kalman_ranks
    monkeypatch.setattr(minctrl, "_kalman_ranks", lambda a, cols, system, ranks:
                        widths.append(cols.shape[2]) or real(a, cols, system, ranks))
    k_stars = set()
    for a in fixtures:
        n = a.shape[0]
        want = sequential_search(a)
        assert same_outcome(layer_search(a), want)
        k_star, hit = want[1], want[3]
        k_stars.add(k_star)
        layer_ends = list(itertools.accumulate(math.comb(n, k) for k in range(1, n + 1)))
        budgets = {hit - 1, hit, hit + 1} | set(layer_ends) | {end + 1 for end in layer_ends}
        for kmax in {1, 2, 3, n} & set(range(1, n + 1)):
            for budget in sorted(b for b in budgets if b >= 0):
                want = sequential_search(a, kmax, budget)
                widths.clear()
                assert same_outcome(layer_search(a, kmax, budget), want), (a, kmax, budget)
                assert all(width <= max(1, 2**14 // n**2) for width in widths)
    assert {2, 3, 5, None} <= k_stars
    # layers wider than a slice at n = 10 (C(10, 5) = 252 supports, slices
    # of 163), with k* = 10: the basis scan, then the slices of k = 2..10
    diagonal = np.diag(np.arange(1, 11))
    want = sequential_search(diagonal)
    widths.clear()
    assert same_outcome(layer_search(diagonal), want)
    assert widths == [10, 45, 120, 163, 47, 163, 89, 163, 47, 120, 45, 10, 1]
    for budget in (10 + 45 + 120 + 163 + 20, 10 + 45 + 120 + 210 + 163):  # inside layers 4 and 5
        assert same_outcome(layer_search(diagonal, budget=budget),
                            sequential_search(diagonal, budget=budget))


def test_sparsest_tests_the_spectrum_before_scanning_the_basis(monkeypatch):
    from ctrllab import minctrl
    root = SEED.child("order")
    graphs = [sample_ensemble(GNP, root.child(t), 6 + t % 5) for t in range(30)]
    fixtures = [K4, P3, np.diag([1, 2, 3])]
    calls = []
    real_test, real_ranks = minctrl.has_simple_spectrum_exact, minctrl._kalman_ranks
    monkeypatch.setattr(minctrl, "has_simple_spectrum_exact",
                        lambda a, eigsys: calls.append("spectrum") or real_test(a, eigsys))
    monkeypatch.setattr(minctrl, "_kalman_ranks", lambda a, cols, system, ranks:
                        calls.append(("basis" if (cols.sum(axis=1) == 1).all() else "layer",
                                      len(a))) or real_ranks(a, cols, system, ranks))
    outcomes = set()
    for a in fixtures + graphs:
        basis, k_star, witness, tested = sparsest_spectrum_first(a)
        calls.clear()
        r = sparsest_input(a)
        assert (r.basis_controllable, r.k_star, r.supports_tested) == (basis, k_star, tested)
        assert (r.witness is None) == (witness is None)
        if witness is not None:
            assert r.witness.tolist() == witness.tolist()
        # one spectrum test, first; then the basis ranks of a stack of one
        # matrix, or no rank call at all if its spectrum is repeated, which
        # ends the search; each layer slice ranks the matrix as a stack of one
        assert calls[:2] == (["spectrum"] if k_star is None else ["spectrum", ("basis", 1)])
        assert (("layer", 1) in calls) == (k_star is not None and k_star > 1)
        assert set(calls[2:]) <= {("layer", 1)}
        outcomes.add("k=1" if k_star == 1 else "none" if k_star is None else "k>1")
    assert sparsest_input(K4).supports_tested == 0
    assert sparsest_input(K4).basis_controllable == frozenset()
    assert outcomes == {"k=1", "k>1", "none"}
    assert sum(not sparsest_spectrum_first(a)[0] for a in graphs) >= 3


def test_sparsest_infeasibility_certificate_small_n():
    # Cross-check the non-simple-spectrum shortcut against full enumeration
    # of every nonzero 0/1 input, up to n = 5.
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
                  dtype=np.int64)  # 4-cycle: eigenvalues 2, 0, 0, -2
    c5 = np.zeros((5, 5), dtype=np.int64)  # 5-cycle: two doubled cosine pairs
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[(i + 1) % 5, i] = 1
    star = np.zeros((5, 5), dtype=np.int64)  # K_{1,4}: eigenvalues +-2, 0, 0, 0
    star[0, 1:] = star[1:, 0] = 1
    for a in [K3, K4, np.eye(4, dtype=np.int64), c4, c5, star]:
        assert not has_simple_spectrum_exact(a)
        n = a.shape[0]
        assert sparsest_input(a).infeasible
        for bits in itertools.product([0, 1], repeat=n):
            if any(bits):
                assert not is_controllable_exact(a, np.array(bits, dtype=np.int64))


def test_sparsest_budget_error_carries_progress():
    a = np.diag([1, 2, 3, 4, 5])  # simple spectrum, no singleton/binary-k2 shortcut
    with pytest.raises(BudgetExceededError) as info:
        sparsest_input(a, budget=6)
    assert info.value.supports_tested == 6
    assert info.value.k_reached == 2
    assert info.value.budget == 6


def test_sparsest_budget_below_n_raises_before_the_basis_scan():
    # the n singletons are decided by one scan, so a budget below n cannot
    # be honoured partway; no error or result reports more than the budget
    for a, budget in ((P3, 0), (np.diag([1, 2, 3, 4, 5]), 3)):
        with pytest.raises(BudgetExceededError) as info:
            sparsest_input(a, budget=budget)
        assert (info.value.supports_tested, info.value.k_reached, info.value.budget) == \
            (0, 1, budget)
    r = sparsest_input(P3, budget=3)
    assert (r.k_star, r.supports_tested) == (1, 3)


def test_sparsest_reads_the_eigensystem_only_to_rank_a_slice(monkeypatch):
    # each layer slice reads the bounds kept on the eigensystem, computed
    # when the first slice is ranked, once per search: a budget of n
    # raises its budget error and kmax = 1 ends the search with no read,
    # even of an eigensystem without eigenvectors, which no slice could use
    from ctrllab import exact
    a = np.diag([1, 2, 3])  # simple spectrum, no controllable e_i
    scan, full = basis_scan(a), eig_sym(a.astype(np.float64))
    bare = eig_sym(a.astype(np.float64), vectors=False)
    reads, bounds = [], []
    real, real_bounds = exact._float_system, exact._eigvec_bounds
    monkeypatch.setattr(exact, "_float_system",
                        lambda mats, eigsys: reads.append(len(mats)) or real(mats, eigsys))
    monkeypatch.setattr(exact, "_eigvec_bounds",
                        lambda a, w, x: bounds.append(len(a)) or real_bounds(a, w, x))
    with pytest.raises(BudgetExceededError) as info:
        sparsest_input(a, budget=3, scan=scan, eigsys=bare)
    assert (info.value.supports_tested, info.value.k_reached, info.value.budget) == (3, 2, 3)
    for eigsys in (bare, full):
        r = sparsest_input(a, kmax=1, scan=scan, eigsys=eigsys)
        assert (r.k_star, r.supports_tested) == (None, 3)
    assert reads == []
    with pytest.raises(ValueError, match="no eigenvectors"):
        sparsest_input(a, budget=4, scan=scan, eigsys=bare)
    assert (reads, bounds) == ([1], [])  # the first slice's read finds no eigenvectors
    reads.clear()
    r = sparsest_input(a, scan=scan, eigsys=full)  # two slices, k = 2 and k = 3
    assert (r.k_star, r.supports_tested, reads, bounds) == (3, 7, [1, 1], [1])


def test_sparsest_accepts_a_precomputed_exact_scan():
    root = SEED.child("precomputed")
    for a in [sample_ensemble(GNP, root.child(t), 8) for t in range(12)] + [P3, K4]:
        given, own = sparsest_input(a, scan=basis_scan(a)), sparsest_input(a)
        assert (given.basis_controllable, given.k_star, given.supports_tested) == \
            (own.basis_controllable, own.k_star, own.supports_tested)
        assert (given.witness is None and own.witness is None) or \
            given.witness.tolist() == own.witness.tolist()


def test_sparsest_uses_a_known_spectrum_and_the_eigensystem(monkeypatch):
    # a scan that knows the spectrum spares the spectrum test, and the
    # eigensystem lets the float tier settle the layers' Kalman ranks; the
    # result is the search's without either
    from ctrllab import exact, minctrl
    root = SEED.child("known-spectrum")
    graphs = [sample_ensemble(GNP, root.child(t), 8) for t in range(30)]
    fixtures = [a for a in graphs if not basis_scan(a).controllable]
    fixtures += [np.diag([1, 2, 3, 4]), K4]
    assert {has_simple_spectrum_exact(a) for a in fixtures} == {True, False}
    real_echelon = exact._echelon_mod_p
    eliminated = []
    monkeypatch.setattr(exact, "_echelon_mod_p",
                        lambda stack: eliminated.append(len(stack)) or real_echelon(stack))
    alone, given = [], []
    for a in fixtures:
        r = sparsest_input(a)
        alone.append((r.basis_controllable, r.k_star, r.supports_tested,
                      None if r.witness is None else r.witness.tolist()))
    without = sum(eliminated)  # Krylov matrices eliminated mod _P
    eliminated.clear()
    monkeypatch.setattr(minctrl, "has_simple_spectrum_exact",
                        lambda a, eigsys: pytest.fail("the spectrum was tested again"))
    for a in fixtures:
        controllable = frozenset(i for i, r in enumerate(kalman_ranks(a)) if r == len(a))
        known = BasisScanResult(controllable, has_simple_spectrum_exact(a))
        r = sparsest_input(a, scan=known, eigsys=eig_sym(a))
        given.append((r.basis_controllable, r.k_star, r.supports_tested,
                      None if r.witness is None else r.witness.tolist()))
    assert given == alone
    assert sum(eliminated) < without / 2  # the float tier settles most slice columns


def kalman_ranks(a) -> list[int]:
    return [rank_exact(kalman_matrix(a, col)) for col in np.eye(len(a), dtype=np.int64)]


def test_sparsest_validates_arguments():
    # -1 must not wrap around to "all supports"
    for kmax in (-1, 0, 4):
        with pytest.raises(ValueError, match=rf"^kmax must lie in \[1, 3\], got {kmax}$"):
            sparsest_input(P3, kmax=kmax)


def brute_force_sparsest(a) -> tuple:
    """(k*, witness, supports tested) of the first of the 2^n - 1 0/1
    supports, by size and then lexicographically, whose indicator vector
    has Kalman rank n by plain Bareiss.  The count is the search's: the n
    singletons are tested together, and where no support works, none is
    tested if the spectrum is repeated (the Bareiss rank of the powers
    vec(A^j), j < n, the degree of A's minimal polynomial, is below n)."""
    n = len(a)
    supports = (s for k in range(1, n + 1) for s in itertools.combinations(range(n), k))
    for index, support in enumerate(supports, 1):
        b = np.zeros(n, dtype=np.int64)
        b[list(support)] = 1
        if rank_exact(kalman_matrix(a, b)) == n:
            return len(support), b, max(n, index)
    powers = np.column_stack([np.linalg.matrix_power(a, j).ravel() for j in range(n)])
    return None, None, 0 if rank_exact(powers) < n else 2**n - 1


def test_sparsest_on_every_labelled_graph_up_to_five_vertices():
    # the search finds the k*, the witness and the supports tested of a
    # brute force over every 0/1 support: alone, with the graph's
    # eigensystem, and from one basis scan of the stack of all graphs on
    # n vertices with its eigensystem
    counts = {}
    for n in range(1, 6):
        mats = labelled_graphs(n)
        eigsys = eig_sym(mats.astype(np.float64))
        scans = basis_scan(mats, eigsys=eigsys)
        found = []
        for t, a in enumerate(mats):
            k_star, witness, tested = brute_force_sparsest(a)
            for result in (sparsest_input(a), sparsest_input(a, eigsys=eigsys[t]),
                           sparsest_input(a, scan=scans[t])):
                assert (result.k_star, result.supports_tested) == (k_star, tested), a
                assert (witness is None and result.witness is None
                        or np.array_equal(result.witness, witness)), a
            found.append(k_star)
        counts[n] = tuple(found.count(k) for k in (1, 2, None))
        assert sum(counts[n]) == len(mats)  # no graph up to n = 5 needs k* > 2
    # k* = 1 / 2 / None
    assert counts == {1: (1, 0, 0), 2: (1, 0, 1), 3: (3, 3, 2), 4: (24, 6, 34),
                      5: (540, 210, 274)}
