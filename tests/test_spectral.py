import math
import re
import warnings

import numpy as np
import pytest

from ctrllab import (
    Atom,
    ControllabilityVerdict,
    EigenSystem,
    EnsembleSpec,
    SeedPath,
    SharedEigenvalueError,
    Tolerances,
    VectorSpec,
    eig_sym,
    eigvec_coordinate_check,
    interlacing_check,
    is_controllable_exact,
    kalman_ranks_exact,
    pbh_controllable,
    sample_ensemble,
    sample_vector,
    shared_eigenvalue_witness,
    small_ball_estimate,
)
from ctrllab.ensembles import _row_norms
from ctrllab.spectral import basis_witnesses, classify

SEED = SeedPath(20260810, ("test-spectral",))
GNP = EnsembleSpec.gnp(0.5)
GOE = EnsembleSpec.goe()
WIGNER = EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0))
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
    a = sample_ensemble(GOE, SEED.child("goe50"), 50)
    es = eig_sym(a)
    norm = max(1.0, float(np.max(np.abs(es.eigenvalues))))
    assert es.residual(a) <= 1e-10 * norm
    assert es.orthonormality_defect() <= 1e-10
    pair = np.stack([a, sample_ensemble(GOE, SEED.child("goe50", 2), 50)])
    stacked = eig_sym(pair)
    assert stacked.residual(pair) == max(stacked[t].residual(pair[t]) for t in range(2))
    assert stacked.orthonormality_defect() == max(e.orthonormality_defect() for e in stacked)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError, match=r"^matrix is not symmetric at \(0,1\)$"):
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
        eig_sym(diag, vectors=False)
    many = np.full((3, 3), value)
    with pytest.raises(ValueError, match=r"and 6 more$"):
        eig_sym(many)


def test_eig_sym_on_a_stack_equals_per_matrix_calls():
    root = SEED.child("stack")
    for n in (1, 2, 8, 10, 16, 30, 32):
        mats = np.stack([sample_ensemble(GOE, root.child(n, t), n) for t in range(5)])
        mats[1] = sample_ensemble(GNP, root.child(n, "gnp"), n)  # repeated eigenvalues
        stacked = eig_sym(mats)
        values = eig_sym(mats, vectors=False)
        assert len(stacked) == len(values) == 5
        assert stacked.eigenvalues.shape == (5, n) and stacked.eigenvectors.shape == (5, n, n)
        assert stacked.gap.shape == stacked.norm.shape == stacked.scale.shape == (5,)
        for t, (a, es) in enumerate(zip(mats, stacked)):
            alone = eig_sym(a)
            assert np.array_equal(es.eigenvalues, alone.eigenvalues)
            assert np.array_equal(es.eigenvectors, alone.eigenvectors)
            plain = EigenSystem(alone.eigenvalues, alone.eigenvectors)
            assert (es.gap, es.norm) == (alone.gap, alone.norm) == (plain.gap, plain.norm)
            assert es.gap == min(np.diff(alone.eigenvalues).tolist(), default=math.inf)
            assert es.norm == float(np.max(np.abs(alone.eigenvalues)))
            assert es.scale == max(1.0, es.norm)
            assert (stacked.gap[t], stacked.norm[t]) == (es.gap, es.norm)
            assert stacked.scale[t] == es.scale
            assert type(es.gap) is type(es.norm) is type(es.scale) is float
            only = eig_sym(a, vectors=False)
            assert np.array_equal(values[t].eigenvalues, only.eigenvalues)
            assert (values[t].gap, values[t].eigenvectors) == (only.gap, None)
    with pytest.raises(TypeError, match="not a stack"):
        eig_sym(P3)[0]
    with pytest.raises(TypeError, match="not a stack"):
        len(eig_sym(P3))


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
    with pytest.raises(ValueError, match=r"^matrix 1 of the stack is not symmetric at \(0,2\)$"):
        eig_sym(bad)
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="3 labels for a stack of 4 matrices"):
        eig_sym(mats, label=["a", "b", "c"])
    # "abcd" once labelled the four matrices 'a' to 'd', and "ab" was
    # counted as 2 labels; one matrix takes any label, a string too
    for label in ("abcd", "ab", b"abcd"):
        with pytest.raises(ValueError, match=rf"^label must hold one label per matrix of the "
                                             rf"stack, got {re.escape(repr(label))}$"):
            eig_sym(mats, label=label)
    assert np.array_equal(eig_sym(P3, label="p3").eigenvalues, eig_sym(P3).eigenvalues)
    assert len(eig_sym(mats, label=("a", "b", "c", "d"))) == 4


def test_pbh_names_nonfinite_input_entries():
    with pytest.raises(ValueError, match=r"input vector has non-finite entries: \[1\] = inf"):
        pbh_controllable(P3, [1.0, math.inf, 0.0])
    with pytest.raises(ValueError, match=r"input vector has non-finite entries: \[0\] = nan"):
        pbh_controllable(P3, [math.nan, 1.0, 0.0])
    b = np.ones((3, 3))
    b[1, 2] = math.nan  # in a stack, the first input at fault is named, with its row
    with pytest.raises(ValueError, match=r"^input vector 1 of the stack has non-finite entries: "
                                         r"\[2\] = nan$"):
        pbh_controllable(None, b, eigsys=eig_sym(np.stack([P3, K3, P3])))


def test_eigensystem_gap():
    # the least spacing of the ascending eigenvalues, +inf for n = 1
    for values, gap in (([1.0, 2.0, 4.0], 1.0), ([0.0, 0.0, 5.0], 0.0), ([3.0], math.inf)):
        assert EigenSystem(np.array(values), None).gap == gap
    assert eig_sym(np.diag([3.0, 1.0, 2.0]), vectors=False).gap == 1.0


def test_goe_min_gap_always_positive():
    root = SEED.child("mingap")
    for t in range(200):
        assert eig_sym(sample_ensemble(GOE, root.child(t), 100), vectors=False).gap > 0.0


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


def test_pbh_on_a_finite_matrix_with_overflowing_eigenvalues_warns_of_nothing():
    # two blocks of 1.5e308 have eigenvalue 4.5e308 = inf twice, and their
    # gap inf - inf is NaN; it once raised "invalid value encountered in
    # subtract".  0 is a repeated eigenvalue, so the pair is uncontrollable
    a = np.zeros((6, 6))
    a[:3, :3] = a[3:, 3:] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = pbh_controllable(a, np.ones(6))
    assert verdict.decision != "controllable"


def test_pbh_indeterminate_band():
    # gap of 1e-10 sits between reject (1e-12) and accept (1e-8)
    a = np.diag([1.0, 1.0 + 1e-10])
    v = pbh_controllable(a, [1.0, 1.0])
    assert v.decision == "indeterminate"


def test_pbh_sign_invariance():
    a = sample_ensemble(GOE, SEED.child("sign"), 12)
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


@pytest.mark.parametrize("bad", [{"gap_tol": 1e-8}, None, (1e-8, 1e-12, 1e-9, 1e-13)],
                         ids=["dict", "none", "tuple"])
def test_deciders_refuse_tolerances_that_are_not_a_tolerances(bad):
    # each once ended in AttributeError: 'dict' object has no attribute 'ortho_reject'
    text = re.escape(repr(bad))
    with pytest.raises(ValueError, match=rf"^tolerances must be Tolerances, got {text}$"):
        pbh_controllable(P3, [1.0, 0.0, 0.0], tolerances=bad)
    with pytest.raises(ValueError, match=rf"^tolerances must be Tolerances, got {text}$"):
        pbh_controllable(None, None, bad, eig_sym(np.stack([P3, K3])))
    with pytest.raises(ValueError, match=rf"^tolerances must be Tolerances, got {text}$"):
        classify(1.0, 1.0, 1.0, 1.0, tolerances=bad)


@pytest.mark.parametrize("field", ["gap_tol", "gap_reject", "ortho_tol", "ortho_reject"])
def test_tolerances_must_be_finite(field):
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            Tolerances(**{field: bad})


@pytest.mark.parametrize("fields, message", [
    ({"gap_tol": 1e-15}, "gap_tol must be >= gap_reject (1e-12), got 1e-15"),
    ({"ortho_reject": 1e-8}, "ortho_tol must be >= ortho_reject (1e-08), got 1e-09"),
    ({"ortho_tol": -1.0}, "ortho_tol must be >= 0, got -1.0"),
    ({"gap_reject": -1e-12}, "gap_reject must be >= 0, got -1e-12"),
])
def test_tolerance_refusals_name_the_bound_and_the_values(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Tolerances(**fields)
    # the bounds themselves hold
    Tolerances(gap_tol=1e-12, gap_reject=1e-12, ortho_tol=0.0, ortho_reject=0.0)


def test_pbh_agrees_with_exact_on_small_graphs():
    root = SEED.child("agree")
    compared = agreed = 0
    for n in (4, 8):
        for t in range(100):
            a = sample_ensemble(GNP, root.child(n, t), n)
            e = np.zeros(n)
            e[0] = 1.0
            verdict = pbh_controllable(a.astype(float), e)
            if verdict.indeterminate:
                continue
            compared += 1
            agreed += verdict.controllable == is_controllable_exact(a, e.astype(np.int64))
    assert compared > 150
    assert agreed == compared


def _stacked_inputs(n: int, t: int, root: SeedPath) -> list:
    """(t, n) inputs for a stack of t systems: one per system or one
    repeated for all, with the edge cases pbh_controllable rescales or
    rejects mixed in."""
    sphere = np.stack([sample_vector(VectorSpec.uniform_sphere(), n, root.child(n, "b", k))
                       for k in range(t)])
    edges = sphere.copy()
    edges[0] = 0.0
    edges[1] *= 1e300  # ||b|| overflows
    edges[2 % t] = np.where(np.arange(n) == 0, 5e-324, 0.0)  # subnormal, ||b|| underflows
    edges[3 % t] = np.eye(n)[n - 1]
    edges[4 % t] *= 1e-160
    shared = [sphere[0], np.zeros(n), np.eye(n)[0], 1e300 * sphere[1], np.full(n, 1e-320)]
    return [sphere, edges] + [np.tile(b, (t, 1)) for b in shared]


def test_eigensystems_of_the_wrong_kind_are_refused_by_name():
    # where eigenvectors are needed, an eigenvalues-only system is one clear
    # error, and so is a stack where one matrix's system is needed
    message = r"^the eigensystem has no eigenvectors \(computed with vectors=False\)$"
    es = eig_sym(P3, vectors=False)
    with pytest.raises(ValueError, match=message):
        pbh_controllable(None, [1.0, 0.0, 0.0], eigsys=es)
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        kalman_ranks_exact(P3.astype(np.int64), eye, eigsys=es)
    stack = np.stack([P3, K3]).astype(np.int64)
    with pytest.raises(ValueError, match=message):
        kalman_ranks_exact(stack, eye, eigsys=eig_sym(stack, vectors=False))
    for b in (None, np.ones((2, 3))):
        with pytest.raises(ValueError, match=message):
            pbh_controllable(None, b, eigsys=eig_sym(stack, vectors=False))
    # a stack's system needs one input per matrix, and one matrix's system one input
    with pytest.raises(ValueError, match=r"^dimension mismatch: A is a stack of 2 3x3 matrices, "
                                         r"b has shape \(3,\)$"):
        pbh_controllable(None, [1.0, 0.0, 0.0], eigsys=eig_sym(stack))
    with pytest.raises(ValueError, match=r"^dimension mismatch: A is 3x3, b has shape \(2, 3\)$"):
        pbh_controllable(None, np.eye(3)[:2], eigsys=eig_sym(P3))
    one = r"^expected the eigensystem of one matrix, got a stack of 2$"
    with pytest.raises(ValueError, match=one):
        kalman_ranks_exact(P3.astype(np.int64), eye, eigsys=eig_sym(stack))
    # the empty matrix has norm 0, however it is asked for
    empty = np.zeros((0, 0))
    assert eig_sym(empty, vectors=False).norm == eig_sym(empty).norm == 0.0


def pbh_oracle(es: EigenSystem, b, tol: Tolerances) -> tuple[str, float]:
    """The PBH test of one pair written out: a nonzero b whose norm
    overflows or underflows rescaled by max|b|, np.linalg.norm, V.T @ b."""
    bv = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm_b = float(np.linalg.norm(bv))
    if (norm_b == 0.0 or math.isinf(norm_b)) and bv.any():
        bv = bv / np.max(np.abs(bv))
        norm_b = float(np.linalg.norm(bv))
    if norm_b == 0.0:
        return "uncontrollable", 0.0
    inner = float(np.min(np.abs(es.eigenvectors.T @ bv)))
    return classify(es.gap, inner, es.scale, norm_b, tol), inner


def test_stacked_pbh_witnesses_equal_per_pair_calls():
    # the chunk's PBH test over one stacked matmul: every decision and
    # witness equals the written-out test of that pair alone, bit for bit,
    # and so does pbh_controllable, the stack of one
    root = SEED.child("pbh-stack")
    tol = Tolerances()
    for n in (1, 2, 5, 8, 13, 32):
        t = 6
        mats = np.stack([sample_ensemble(GOE, root.child(n, k), n) for k in range(t)])
        mats[1] = sample_ensemble(GNP, root.child(n, "gnp"), n)  # repeated eigenvalues
        mats[2] = np.diag(np.arange(n, dtype=float))  # eigenvectors e_i
        stack = eig_sym(mats)
        for b in _stacked_inputs(n, t, root):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # not even an overflow warning
                verdict = pbh_controllable(None, b, tol, eigsys=stack)
            assert verdict.min_gap.tolist() == stack.gap.tolist()
            for es, row, decision, witness in zip(stack, b, verdict.decision.tolist(),
                                                  verdict.min_abs_inner.tolist()):
                oracle, worst = pbh_oracle(es, row, tol)
                assert (decision, witness.hex()) == (oracle, worst.hex())
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    alone = pbh_controllable(None, row, tol, eigsys=es)
                assert (alone.decision, alone.min_abs_inner.hex()) == (oracle, worst.hex())
                assert alone.min_gap == es.gap
        verdict = pbh_controllable(mats, None, tol)
        for es, decision, witness in zip(stack, verdict.decision.tolist(),
                                         verdict.min_abs_inner.tolist()):
            gap, scale, per_input = basis_witnesses(es)
            worst = float(np.min(per_input))
            assert (decision, witness) == (classify(gap, worst, scale, 1.0, tol), worst)
    empty = ControllabilityVerdict("uncontrollable", min_gap=math.inf, min_abs_inner=0.0)
    assert pbh_controllable(np.zeros((0, 0)), []) == empty


def test_stacked_norms_round_like_one_vector_norms():
    # the threshold ortho_tol * ||b|| of every pair of a stack is the one
    # pbh_controllable sets for that pair alone
    root = SEED.child("row-norms")
    for n in (1, 2, 3, 8, 13, 17, 32, 64):
        for t in (1, 5, 64):
            rng = root.child(n, t).generator()
            b = rng.normal(size=(t, n)) * 10.0 ** rng.integers(-150, 150, size=(t, 1))
            for row, norm in zip(b, _row_norms(b)):
                assert norm.hex() == np.linalg.norm(row).hex()


def test_classify_on_arrays_equals_scalar_calls():
    # values on, just below and just above every threshold, elementwise and broadcast
    tol = Tolerances()
    scale, norm_b = 3.0, 0.5

    def around(levels):
        out = [0.0, math.inf]
        for level in levels:
            out += [level, np.nextafter(level, 0.0), np.nextafter(level, math.inf)]
        return np.array(out)

    gaps = around([tol.gap_reject * scale, tol.gap_tol * scale])
    inners = around([tol.ortho_reject * norm_b, tol.ortho_tol * norm_b])
    g, i = np.meshgrid(gaps, inners)
    verdicts = classify(g, i, scale, norm_b, tol)
    assert verdicts.shape == g.shape
    assert {"controllable", "uncontrollable", "indeterminate"} == set(verdicts.flat)
    for gap, inner, verdict in zip(g.flat, i.flat, verdicts.flat):
        assert verdict == classify(float(gap), float(inner), scale, norm_b, tol)
    scales = np.full(len(gaps), scale)
    assert (classify(gaps, inners[3], scales, np.full(len(gaps), norm_b), tol)
            == classify(gaps, inners[3], scale, norm_b, tol)).all()


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
        a = sample_ensemble(WIGNER, root.child(t), 30)
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


def test_minor_index_must_be_an_integer():
    # 1.5 once raised a bare IndexError, and True ran on index 1
    for check in (interlacing_check, eigvec_coordinate_check):
        with pytest.raises(ValueError, match=r"minor index must be an integer, got 1\.5"):
            check(P3, 1.5)
        with pytest.raises(ValueError, match=r"minor index must be an integer, got True"):
            check(P3, True)
        assert check(P3, np.int64(1)) == check(P3, 1)
    with pytest.raises(ValueError, match=r"minor index must be an integer, got 1\.5"):
        shared_eigenvalue_witness(P3, 1.5, 1e-7)
    for i in (-1, 3):
        for check in (interlacing_check, eigvec_coordinate_check,
                      lambda a, i: shared_eigenvalue_witness(a, i, 1e-7)):
            with pytest.raises(ValueError, match=rf"^minor index {i} out of range for n=3$"):
                check(P3, i)


def test_lemma_verifiers_of_a_one_by_one_matrix():
    # the minor is empty: no margin to violate, a coordinate of 1 that the
    # identity gives exactly, and no minor eigenvalue to collide
    assert interlacing_check([[2.0]], 0) == math.inf
    assert eigvec_coordinate_check([[2.0]], 0) == 0.0
    assert shared_eigenvalue_witness([[2.0]], 0, 1e-6) is None


def test_tolerances_must_be_finite_and_nonnegative():
    # a NaN collision tolerance once gave a witness of every eigenvalue
    # (dist > nan is False), and a NaN separation tolerance a misleading
    # SharedEigenvalueError
    diag = np.diag([1.0, 2.0, 3.0])
    checks = ((shared_eigenvalue_witness, "collision_tol"),
              (eigvec_coordinate_check, "separation_tol"))
    for check, name in checks:
        for tol in (math.nan, -math.inf, math.inf, -1e-9, True, "1e-6", None):
            with pytest.raises(ValueError, match=rf"{name} must be a finite number >= 0, got"):
                check(diag, 1, tol)
    assert shared_eigenvalue_witness(diag, 1, 0).minor_eigenvalue == 1.0  # exact collisions
    assert shared_eigenvalue_witness(SWAP, 1, np.float32(1e-9)) is None
    assert eigvec_coordinate_check(P3, 1, np.int64(0)) == eigvec_coordinate_check(P3, 1, 0.0)


def test_coordinate_identity_goe_all_minors():
    root = SEED.child("coord")
    for t in range(10):
        a = sample_ensemble(GOE, root.child(t), 20)
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
        minor = sample_ensemble(GOE, root.child(t, "minor"), n - 1)
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
    assert eig_sym(np.diag([-3.0, 2.0]), vectors=False).norm == 3.0


def test_spectral_norm_complete_graph():
    for n in (3, 6, 10):
        a = np.ones((n, n)) - np.eye(n)
        assert eig_sym(a, vectors=False).norm == pytest.approx(n - 1.0)


def test_spectral_norm_wigner_ratio_band():
    root = SEED.child("norm")
    hits = 0
    trials = 50
    for t in range(trials):
        a = sample_ensemble(WIGNER, root.child(t), 100)
        ratio = eig_sym(a, vectors=False).norm / 10.0
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


@pytest.mark.parametrize("n", [3, 7])
def test_small_ball_blocks_draw_the_written_out_fair_bits(monkeypatch, n):
    # blocks of an even number of rows at odd n: their copies are one
    # integers(0, 2, (m, n)) draw, and the estimate is that of one block
    from ctrllab import spectral

    x = 2.0 ** -np.arange(n)  # exact sums, one for each sign pattern
    path, m = SEED.child("sb-blocks", n), 1001
    whole = small_ball_estimate(x, Atom.rademacher(), 0.01, m, path)
    blocks, sample = [], Atom.sample
    monkeypatch.setattr(spectral, "_BALL_ENTRIES", 40)
    monkeypatch.setattr(Atom, "sample",
                        lambda atom, rng, size: blocks.append(sample(atom, rng, size)) or blocks[-1])
    assert small_ball_estimate(x, Atom.rademacher(), 0.01, m, path) == whole
    assert len(blocks) > 2 and all(len(b) % 2 == 0 for b in blocks[:-1])
    want = path.generator().integers(0, 2, (m, n)) * 2 - 1
    assert np.concatenate(blocks).tobytes() == want.astype(np.float64).tobytes()


def test_small_ball_takes_a_generator_or_its_seed_path():
    x = np.array([0.6, 0.8])
    path = SEED.child("sb-gen")
    by_path = small_ball_estimate(x, Atom.rademacher(), 0.1, 2000, path)
    assert small_ball_estimate(x, Atom.rademacher(), 0.1, 2000, path.generator()) == by_path


def test_small_ball_rejects_a_bool_delta():
    # True was read as the half-width 1, and np.True_ gave an estimate with delta=np.True_
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="^window half-width must be a number, got True$"):
            small_ball_estimate([1.0], Atom.rademacher(), flag, 1000, SEED.child("sb-bool"))


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
    with pytest.raises(ValueError, match="window half-width must be positive, got nan"):
        small_ball_estimate([1.0], Atom.rademacher(), math.nan, 2000, SEED)


def test_small_ball_rejects_an_infinite_window():
    # an infinite window once held every sample: rho_hat = 1.0
    with pytest.raises(ValueError, match=r"^window half-width must be finite, got inf$"):
        small_ball_estimate([1.0], Atom.rademacher(), math.inf, 2000, SEED)


def test_small_ball_names_a_non_finite_entry_and_a_non_integer_m():
    # [1, nan] once gave rho_hat = 1.0
    with pytest.raises(ValueError, match=r"x has non-finite entries: \[1\] = nan"):
        small_ball_estimate([1.0, math.nan], Atom.rademacher(), 0.1, 2000, SEED)
    with pytest.raises(ValueError, match=r"m must be an integer, got 1000\.5"):
        small_ball_estimate([1.0], Atom.rademacher(), 0.1, 1000.5, SEED)
    assert small_ball_estimate([1.0], Atom.rademacher(), 0.1, np.int64(2000), SEED) == \
        small_ball_estimate([1.0], Atom.rademacher(), 0.1, 2000, SEED)
