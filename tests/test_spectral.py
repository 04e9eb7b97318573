import math

import numpy as np
import pytest

from ctrllab import (
    Atom,
    EigenSystem,
    SeedPath,
    SharedEigenvalueError,
    Tolerances,
    VectorSpec,
    eig_sym,
    eigvec_coordinate_check,
    interlacing_check,
    is_controllable_exact,
    min_gap,
    pbh_controllable,
    sample_gnp,
    sample_goe,
    sample_vector,
    sample_wigner,
    shared_eigenvalue_witness,
    small_ball_estimate,
    spectral_norm,
)

SEED = SeedPath(20260810, ("test-spectral",))
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
P3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
K3 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eig_sym_orders_ascending():
    es = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(es.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors are +-e2, +-e3, +-e1
    assert abs(es.eigenvectors[1, 0]) == pytest.approx(1.0)
    assert abs(es.eigenvectors[2, 1]) == pytest.approx(1.0)
    assert abs(es.eigenvectors[0, 2]) == pytest.approx(1.0)


def test_eig_sym_swap_matrix():
    es = eig_sym(SWAP)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])
    for col in range(2):
        v = es.eigenvectors[:, col]
        assert np.allclose(np.abs(v), [1.0 / math.sqrt(2)] * 2)


def test_eig_sym_invariants_on_goe():
    a = sample_goe(50, SEED.child("goe50"))
    es = eig_sym(a)
    norm = max(1.0, float(np.max(np.abs(es.eigenvalues))))
    assert es.residual(a) <= 1e-10 * norm
    assert es.orthonormality_defect() <= 1e-10


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError, match="not exactly symmetric"):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("value, shown",
                         [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_nonfinite_matrix_entries_are_named(value, shown):
    off = np.array([[0.0, value], [value, 1.0]])
    with pytest.raises(ValueError, match=rf"matrix has non-finite entries: \[0, 1\] = {shown}, "
                                         rf"\[1, 0\] = {shown}"):
        eig_sym(off)
    diag = np.diag([1.0, 2.0, value])
    with pytest.raises(ValueError, match=rf"matrix has non-finite entries: \[2, 2\] = {shown}$"):
        pbh_controllable(diag, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(diag)
    many = np.full((3, 3), value)
    with pytest.raises(ValueError, match=r"and 6 more$"):
        eig_sym(many)


def test_eig_sym_on_a_stack_equals_per_matrix_calls():
    root = SEED.child("stack")
    for n in (1, 2, 8, 10, 16, 30, 32):
        mats = np.stack([sample_goe(n, root.child(n, t)) for t in range(5)])
        mats[1] = sample_gnp(n, 0.5, root.child(n, "gnp"))  # repeated eigenvalues
        stacked = eig_sym(mats)
        assert len(stacked) == 5
        for a, es in zip(mats, stacked):
            alone = eig_sym(a)
            assert np.array_equal(es.eigenvalues, alone.eigenvalues)
            assert np.array_equal(es.eigenvectors, alone.eigenvectors)
            plain = EigenSystem(alone.eigenvalues, alone.eigenvectors)
            assert (es.gap, es.norm) == (alone.gap, alone.norm) == (plain.gap, plain.norm)
            assert es.gap == min_gap(alone.eigenvalues)
            assert es.norm == float(np.max(np.abs(alone.eigenvalues)))
            assert es.gap_and_scale() == (es.gap, max(1.0, es.norm))


def test_eig_sym_stack_names_the_matrix_at_fault():
    mats = np.stack([P3, K3, P3, K3])
    bad = mats.copy()
    bad[2, 0, 1] = bad[2, 1, 0] = math.nan
    with pytest.raises(ValueError, match=r"^matrix 2 of the stack has non-finite entries: "
                                         r"\[0, 1\] = nan, \[1, 0\] = nan$"):
        eig_sym(bad)
    bad = mats.copy()
    bad[3, 2, 2] = math.inf
    with pytest.raises(ValueError, match=r"^matrix 3 of the stack has non-finite entries: "
                                         r"\[2, 2\] = inf$"):
        eig_sym(bad)
    bad[1, 0, 2] = 5.0  # the first matrix at fault is named
    with pytest.raises(ValueError, match=r"^matrix 1 of the stack is not exactly symmetric$"):
        eig_sym(bad)
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="3 labels for a stack of 4 matrices"):
        eig_sym(mats, label=["a", "b", "c"])


def test_pbh_names_nonfinite_input_entries():
    with pytest.raises(ValueError, match=r"input vector has non-finite entries: \[1\] = inf"):
        pbh_controllable(P3, [1.0, math.inf, 0.0])
    with pytest.raises(ValueError, match=r"input vector has non-finite entries: \[0\] = nan"):
        pbh_controllable(P3, [math.nan, 1.0, 0.0])


def test_min_gap():
    assert min_gap([1.0, 2.0, 4.0]) == 1.0
    assert min_gap([0.0, 0.0, 5.0]) == 0.0
    assert min_gap([3.0]) == math.inf


def test_goe_min_gap_always_positive():
    root = SEED.child("mingap")
    for t in range(200):
        w = np.linalg.eigvalsh(sample_goe(100, root.child(t)))
        assert min_gap(w) > 0.0


# ---------------------------------------------------------------------------
# PBH verdicts
# ---------------------------------------------------------------------------

def test_pbh_diag_basis_vector_uncontrollable():
    v = pbh_controllable(np.diag([1.0, 2.0]), [1.0, 0.0])
    assert v.decision == "uncontrollable"
    assert v.min_abs_inner <= 1e-13


def test_pbh_path_graph_matches_exact_verdicts():
    assert pbh_controllable(P3, [1.0, 0.0, 0.0]).decision == "controllable"
    assert pbh_controllable(P3, [0.0, 1.0, 0.0]).decision == "uncontrollable"


def test_pbh_complete_graph_repeated_eigenvalue():
    for b in ([1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.3, -0.7, 2.0]):
        verdict = pbh_controllable(K3, b)
        assert verdict.decision == "uncontrollable"
        assert verdict.min_gap <= 1e-12 * 2.0


def test_pbh_zero_vector():
    v = pbh_controllable(P3, [0.0, 0.0, 0.0])
    assert v.decision == "uncontrollable"
    assert v.min_abs_inner == 0.0


@pytest.mark.parametrize("c", [1e200, 1e300, 1e-200, 1e-300])
def test_pbh_decision_survives_norm_overflow_and_underflow(c):
    # ||c b|| overflows to inf or underflows to 0 at these scales
    b = np.array([1.0, 1.0, 0.0])
    reference = pbh_controllable(P3, b)
    assert reference.decision == "controllable"
    assert pbh_controllable(P3, c * b).decision == reference.decision
    assert pbh_controllable(P3, -c * b).decision == reference.decision
    assert pbh_controllable(P3, [c, 0.0, -c]).decision == "uncontrollable"


def test_pbh_indeterminate_band():
    # gap of 1e-10 sits between reject (1e-12) and accept (1e-8)
    a = np.diag([1.0, 1.0 + 1e-10])
    v = pbh_controllable(a, [1.0, 1.0])
    assert v.decision == "indeterminate"


def test_pbh_sign_invariance():
    a = sample_goe(12, SEED.child("sign"))
    b = sample_vector(VectorSpec.uniform_sphere(), 12, SEED.child("sign-b"))
    es = eig_sym(a)
    flipped = EigenSystem(es.eigenvalues, es.eigenvectors * -1.0)
    v1 = pbh_controllable(a, b, eigsys=es)
    v2 = pbh_controllable(a, b, eigsys=flipped)
    assert v1.decision == v2.decision
    assert v1.min_abs_inner == v2.min_abs_inner
    assert v1.min_gap == v2.min_gap


def test_pbh_respects_custom_tolerances():
    # huge accept threshold forces indeterminate on a healthy instance
    v = pbh_controllable(P3, [1.0, 0.0, 0.0], Tolerances(gap_tol=10.0))
    assert v.decision == "indeterminate"


def test_pbh_agrees_with_exact_on_small_graphs():
    root = SEED.child("agree")
    compared = agreed = 0
    for n in (4, 8):
        for t in range(100):
            a = sample_gnp(n, 0.5, root.child(n, t))
            e = np.zeros(n)
            e[0] = 1.0
            verdict = pbh_controllable(a.astype(float), e)
            if verdict.indeterminate:
                continue
            compared += 1
            agreed += verdict.controllable == is_controllable_exact(a, e.astype(np.int64))
    assert compared > 150
    assert agreed == compared


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------

def test_interlacing_diagonal():
    assert interlacing_check(np.diag([1.0, 2.0, 3.0]), 2) >= 0.0


def test_interlacing_swap_margin_one():
    assert interlacing_check(SWAP, 1) == pytest.approx(1.0)


def test_interlacing_holds_for_wigner_samples():
    root = SEED.child("interlace")
    for t in range(500):
        a = sample_wigner(30, Atom.rademacher(), Atom.degenerate(0.0), root.child(t))
        for i in range(30):
            assert interlacing_check(a, i) >= -1e-10


# ---------------------------------------------------------------------------
# coordinate identity
# ---------------------------------------------------------------------------

def test_coordinate_identity_swap_hand_value():
    # eigenvector (1,1)/sqrt(2) at lambda=1, minor eigenvalue 0, X=1:
    # |x|^2 = 1/2 and the identity gives 1/(1 + (0-1)^-2) = 1/2 exactly
    assert eigvec_coordinate_check(SWAP, 1) <= 1e-12


def test_coordinate_identity_diag_skips_shared_eigenvalue():
    # minor eigenvalue 1 equals lambda_1(A); only lambda=2 is eligible and
    # there X = 0 gives |x|^2 = 1 = 1/(1+0)
    assert eigvec_coordinate_check(np.diag([1.0, 2.0]), 1) == 0.0


def test_coordinate_identity_identity_matrix_raises():
    with pytest.raises(SharedEigenvalueError, match="collides"):
        eigvec_coordinate_check(np.eye(2), 1)


def test_coordinate_identity_goe_all_minors():
    root = SEED.child("coord")
    for t in range(10):
        a = sample_goe(20, root.child(t))
        for i in range(20):
            assert eigvec_coordinate_check(a, i) <= 1e-8


# ---------------------------------------------------------------------------
# shared eigenvalue witness
# ---------------------------------------------------------------------------

def test_witness_block_diagonal_construction():
    a = np.zeros((3, 3))
    a[0, 0] = 5.0
    a[1, 2] = a[2, 1] = 1.0
    w = shared_eigenvalue_witness(a, 2, collision_tol=1e-9)
    assert w is not None
    assert w.inner_abs <= 1e-12
    assert w.minor_eigenvalue == pytest.approx(5.0)


def test_witness_identity_matrix():
    w = shared_eigenvalue_witness(np.eye(2), 1, collision_tol=1e-9)
    assert w is not None and w.inner_abs == 0.0


def test_witness_absent_without_collision():
    assert shared_eigenvalue_witness(SWAP, 1, collision_tol=1e-9) is None


def test_witness_randomized_degenerate_embedding():
    # Build a minor with a known eigenpair, pick X orthogonal to that
    # eigenvector: the full matrix then shares the eigenvalue and the
    # witness must recover an (almost) annihilated inner product.
    root = SEED.child("embed")
    for t in range(25):
        rng = root.child(t).generator()
        n = 8
        minor = sample_goe(n - 1, root.child(t, "minor"))
        es = eig_sym(minor)
        w0 = es.eigenvectors[:, int(rng.integers(n - 1))]
        r = rng.normal(size=n - 1)
        x = r - (w0 @ r) * w0
        a = np.zeros((n, n))
        a[: n - 1, : n - 1] = minor
        a[: n - 1, n - 1] = x
        a[n - 1, : n - 1] = x
        a[n - 1, n - 1] = rng.normal()
        found = shared_eigenvalue_witness(a, n - 1, collision_tol=1e-7)
        assert found is not None
        assert found.inner_abs <= 1e-8


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([-3.0, 2.0])) == 3.0


def test_spectral_norm_complete_graph():
    for n in (3, 6, 10):
        a = np.ones((n, n)) - np.eye(n)
        assert spectral_norm(a) == pytest.approx(n - 1.0)


def test_spectral_norm_wigner_ratio_band():
    root = SEED.child("norm")
    hits = 0
    trials = 50
    for t in range(trials):
        a = sample_wigner(100, Atom.rademacher(), Atom.degenerate(0.0), root.child(t))
        ratio = spectral_norm(a) / 10.0
        hits += 1.8 <= ratio <= 2.3
    assert hits >= 0.95 * trials


# ---------------------------------------------------------------------------
# sphere inputs are never orthogonal
# ---------------------------------------------------------------------------

def test_sphere_vector_never_orthogonal_to_fixed_direction():
    v = np.zeros(10)
    v[3] = 1.0
    root = SEED.child("sphere-orth")
    inners = np.array([
        abs(v @ sample_vector(VectorSpec.uniform_sphere(), 10, root.child(t)))
        for t in range(10_000)
    ])
    assert np.min(inners) > 0.0
    assert int(np.sum(inners <= 1e-12)) == 0


# ---------------------------------------------------------------------------
# small-ball estimator
# ---------------------------------------------------------------------------

def test_small_ball_single_rademacher():
    est = small_ball_estimate([1.0], Atom.rademacher(), 0.1, 100_000, SEED.child("sb1"))
    assert abs(est.rho_hat - 0.5) <= 3.0 * est.std_err


def test_small_ball_two_coordinate_rademacher():
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    est = small_ball_estimate(x, Atom.rademacher(), 0.1, 100_000, SEED.child("sb2"))
    assert abs(est.rho_hat - 0.5) <= 3.0 * est.std_err


def test_small_ball_gaussian_closed_form():
    rho = math.erf(0.1 / math.sqrt(2.0))  # = 2 Phi(0.1) - 1
    est = small_ball_estimate([0.6, 0.8], Atom.gaussian(), 0.1, 100_000, SEED.child("sb3"))
    assert abs(est.rho_hat - rho) <= 3.0 * est.std_err


def test_small_ball_doubling_m_stays_consistent():
    cases = [
        ([1.0], Atom.rademacher(), 0.5),
        (np.array([1.0, 1.0]) / math.sqrt(2.0), Atom.rademacher(), 0.5),
        ([0.6, 0.8], Atom.gaussian(), math.erf(0.1 / math.sqrt(2.0))),
    ]
    for idx, (x, atom, rho) in enumerate(cases):
        for m in (100_000, 200_000):
            est = small_ball_estimate(x, atom, 0.1, m, SEED.child("sb-dbl", idx, m))
            assert abs(est.rho_hat - rho) <= 3.0 * est.std_err


def test_small_ball_window_is_closed_and_counts_atoms():
    # degenerate atom: every sample equals 3.0, any window catches them all
    est = small_ball_estimate([3.0], Atom.degenerate(1.0), 0.01, 1000, SEED.child("sb-deg"))
    assert est.rho_hat == 1.0
    assert est.std_err == 0.0


def test_small_ball_validates_inputs():
    with pytest.raises(ValueError):
        small_ball_estimate([1.0], Atom.rademacher(), 0.1, 999, SEED)
    with pytest.raises(ValueError):
        small_ball_estimate([1.0], Atom.rademacher(), 0.0, 2000, SEED)
