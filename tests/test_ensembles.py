import inspect
import math
import typing
from fractions import Fraction

import numpy as np
import pytest

from ctrllab import (
    Atom,
    EnsembleSpec,
    SeedPath,
    ShiftSpec,
    VectorSpec,
    gnp_reduction,
    sample_ensemble,
    sample_gnp,
    sample_goe,
    sample_vector,
    sample_wigner,
    shift_matrix,
)
from ctrllab import codec, ensembles

SEED = SeedPath(20260810, ("test-ensembles",))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

def _fourth_moment(atom: Atom) -> float:
    if atom.kind == "gaussian":
        return 3.0 * atom.variance**2
    return sum(p * v**4 for v, p in atom.support())


@pytest.mark.parametrize("atom", [
    Atom.gaussian(0.0, 1.0),
    Atom.rademacher(),
    Atom.centered_bernoulli(0.3),
    Atom.centered_bernoulli(0.5),
])
def test_unit_variance_atoms_have_right_moments(atom):
    m = 100_000
    samples = atom.sample(SEED.child("moments", atom.kind, str(atom.p)).generator(), m)
    assert abs(samples.mean()) <= 3.0 / math.sqrt(m)
    var_se = math.sqrt(max(_fourth_moment(atom) - 1.0, 0.0) / m)
    # 9/m covers the mean-subtraction bias when Var(xi^2) = 0 (two-point atoms)
    assert abs(samples.var() - 1.0) <= 3.0 * var_se + 9.0 / m


def test_centered_bernoulli_support_matches_definition():
    p = 0.3
    sigma = math.sqrt(p * (1 - p))
    support = dict(Atom.centered_bernoulli(p).support())
    assert support[(1 - p) / sigma] == pytest.approx(p)
    assert support[-p / sigma] == pytest.approx(1 - p)
    # mean is exactly zero by construction: p*(1-p)/s - (1-p)*p/s
    mean = sum(v * q for v, q in support.items())
    assert abs(mean) < 1e-15


def test_degenerate_atom_is_constant():
    vals = Atom.degenerate(2.5).sample(SEED.child("deg").generator(), 50)
    assert np.all(vals == 2.5)


def test_atom_parameter_validation():
    with pytest.raises(ValueError):
        Atom.centered_bernoulli(0.0)
    with pytest.raises(ValueError):
        Atom.centered_bernoulli(1.0)
    with pytest.raises(ValueError):
        Atom.bernoulli01(1.5)
    with pytest.raises(ValueError):
        Atom.gaussian(0.0, -1.0)


def test_atom_dict_round_trip():
    for atom in [Atom.gaussian(1.0, 4.0), Atom.rademacher(),
                 Atom.centered_bernoulli(0.25), Atom.bernoulli01(0.7),
                 Atom.degenerate(-2.0)]:
        assert Atom.from_dict(atom.to_dict()) == atom


# ---------------------------------------------------------------------------
# wigner / goe
# ---------------------------------------------------------------------------

def test_wigner_degenerate_diagonal_n1_is_zero():
    m = sample_wigner(1, Atom.rademacher(), Atom.degenerate(0.0), SEED.child("w1"))
    assert m.shape == (1, 1) and m[0, 0] == 0.0


def test_wigner_deterministic_and_symmetric():
    path = SEED.child("w3")
    a = sample_wigner(3, Atom.gaussian(), Atom.gaussian(), path)
    b = sample_wigner(3, Atom.gaussian(), Atom.gaussian(), path)
    assert np.array_equal(a, b)
    assert a[1, 2] == a[2, 1]
    assert np.array_equal(a, a.T)


def test_wigner_offdiag_mean_concentrates():
    n = 2000
    a = sample_wigner(n, Atom.rademacher(), Atom.degenerate(0.0), SEED.child("wbig"))
    iu = np.triu_indices(n, k=1)
    pairs = iu[0].size  # n(n-1)/2
    assert abs(a[iu].mean()) <= 3.0 / math.sqrt(pairs)


def test_goe_scalar_variance_is_two():
    root = SEED.child("goe1")
    vals = np.array([sample_goe(1, root.child(i))[0, 0] for i in range(100_000)])
    assert abs(vals.var() - 2.0) <= 0.05 * 2.0


def test_cached_upper_indices_are_read_only():
    for n in (1, 2, 7):
        iu = ensembles._upper_indices(n)
        assert ensembles._upper_indices(n) is iu
        assert all(np.array_equal(x, y) for x, y in zip(iu, np.triu_indices(n, k=1)))
        for idx in iu:
            assert not idx.flags.writeable
            if idx.size:
                with pytest.raises(ValueError, match="read-only"):
                    idx[0] = 1
    a = sample_gnp(7, 0.5, SEED.child("cache"))
    assert np.array_equal(sample_gnp(7, 0.5, SEED.child("cache")), a)


def test_goe_reproducible():
    path = SEED.child("goe-rep")
    assert np.array_equal(sample_goe(6, path), sample_goe(6, path))


def test_goe_diag_to_offdiag_variance_ratio():
    n, reps = 100, 40
    root = SEED.child("goe-var")
    diag, off = [], []
    for r in range(reps):
        m = sample_goe(n, root.child(r))
        diag.append(np.diag(m))
        off.append(m[np.triu_indices(n, k=1)])
    diag = np.concatenate(diag)
    off = np.concatenate(off)
    ratio = diag.var() / off.var()
    # delta method: Var(s^2) = 2 sigma^4 / N for centered Gaussians
    se = math.sqrt(8.0 / diag.size) / 1.0 + 2.0 * math.sqrt(2.0 / off.size)
    assert abs(ratio - 2.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# gnp
# ---------------------------------------------------------------------------

def test_gnp_complete_graph_at_p1():
    a = sample_gnp(3, 1.0, SEED.child("k3"))
    assert a.dtype == np.int64
    assert np.array_equal(a, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))


def test_gnp_empty_graph_at_p0():
    assert not np.any(sample_gnp(3, 0.0, SEED.child("e3")))


def test_gnp_edge_count_concentrates():
    n, p = 50, 0.5
    a = sample_gnp(n, p, SEED.child("g50"))
    pairs = n * (n - 1) // 2
    edges = int(a.sum()) // 2
    assert abs(edges - pairs * p) <= 3.0 * math.sqrt(pairs * p * (1 - p))
    assert np.all(np.diag(a) == 0)
    assert np.array_equal(a, a.T)
    assert set(np.unique(a)) <= {0, 1}


def test_gnp_rejects_bad_density():
    with pytest.raises(ValueError):
        sample_gnp(5, -0.1, SEED)
    with pytest.raises(ValueError):
        sample_gnp(5, 1.1, SEED)


# ---------------------------------------------------------------------------
# gnp -> shifted wigner reduction
# ---------------------------------------------------------------------------

def test_reduction_at_half_is_rademacher_plus_ones():
    red = gnp_reduction(4, 0.5)
    assert red.sigma == pytest.approx(0.5)
    off = shift_matrix(ShiftSpec.constant_offdiag(1.0), 4)
    assert np.array_equal(red.shift, off)
    support = sorted(red.offdiag.support())
    assert support[0] == (pytest.approx(-1.0), pytest.approx(0.5))
    assert support[1] == (pytest.approx(1.0), pytest.approx(0.5))
    assert red.diag.support() == [(0.0, 1.0)]


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_reduction_two_point_distributions_match(p):
    # Exhaustive n=2 check: the law of (1/sigma) * (gnp entry) equals the law
    # of (wigner atom + shift entry).  Probabilities are compared exactly
    # (both sides are the literal floats p and 1-p); values to one ulp.
    red = gnp_reduction(2, p)
    f = red.shift[0, 1]
    atom_plus_shift = sorted((v + f, q) for v, q in red.offdiag.support())
    scaled_gnp = sorted([(0.0 / red.sigma, 1.0 - p), (1.0 / red.sigma, p)])
    assert len(atom_plus_shift) == len(scaled_gnp) == 2
    for (va, qa), (ve, qe) in zip(atom_plus_shift, scaled_gnp):
        assert Fraction(qa) == Fraction(qe)
        assert math.isclose(va, ve, rel_tol=0.0, abs_tol=1e-15)


def test_reduction_rejects_degenerate_density():
    with pytest.raises(ValueError):
        gnp_reduction(3, 0.0)
    with pytest.raises(ValueError):
        gnp_reduction(3, 1.0)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_standard_basis_is_exact():
    v = sample_vector(VectorSpec.standard_basis(1), 3, SEED)
    assert np.array_equal(v, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        sample_vector(VectorSpec.standard_basis(3), 3, SEED)


def test_all_ones_is_exact():
    assert np.array_equal(sample_vector(VectorSpec.all_ones(), 4, SEED), np.ones(4))


def test_uniform_sphere_unit_norm_and_symmetry():
    root = SEED.child("sphere")
    norms, firsts = [], []
    for i in range(10_000):
        u = sample_vector(VectorSpec.uniform_sphere(), 10, root.child(i))
        norms.append(np.linalg.norm(u))
        firsts.append(u[0])
    assert max(abs(x - 1.0) for x in norms) <= 1e-12
    # coordinates have mean 0, variance 1/n
    assert abs(np.mean(firsts)) <= 3.0 / math.sqrt(10 * 10_000)


def test_shifted_vector_reproduces_scaled_bernoulli_law():
    # The scaled Bernoulli input b/sigma has the same two-point law as the
    # centered atom plus the constant shift p/sigma; compare the supports and
    # probabilities of both specs exactly.
    p = 0.3
    sigma = math.sqrt(p * (1 - p))
    base = VectorSpec.iid_atom(Atom.centered_bernoulli(p))
    spec = VectorSpec.shifted(base, np.full(6, p / sigma))
    shifted_support = sorted(v + p / sigma for v, _ in Atom.centered_bernoulli(p).support())
    target_support = sorted([0.0, 1.0 / sigma])
    assert shifted_support == pytest.approx(target_support, abs=1e-12)
    # and sampling realizes only those two values
    draws = sample_vector(spec, 6, SEED.child("shifted"))
    for x in draws:
        assert min(abs(x - t) for t in target_support) <= 1e-12


def test_shifted_vector_adds_offset():
    mu = np.array([1.0, 2.0, 3.0])
    spec = VectorSpec.shifted(VectorSpec.all_ones(), mu)
    assert np.array_equal(sample_vector(spec, 3, SEED), 1.0 + mu)


def test_explicit_vector_copies():
    spec = VectorSpec.explicit([1.0, -2.0])
    v = sample_vector(spec, 2, SEED)
    v[0] = 99.0
    assert sample_vector(spec, 2, SEED)[0] == 1.0


def test_vector_spec_dict_round_trip():
    specs = [
        VectorSpec.standard_basis(2),
        VectorSpec.all_ones(),
        VectorSpec.bernoulli01(0.4),
        VectorSpec.iid_atom(Atom.rademacher()),
        VectorSpec.uniform_sphere(),
        VectorSpec.shifted(VectorSpec.bernoulli01(0.4), [0.5, 0.5, 0.5]),
        VectorSpec.explicit([1.0, 2.0, -3.0]),
    ]
    for spec in specs:
        rebuilt = VectorSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()
        assert np.array_equal(sample_vector(spec, 3, SEED), sample_vector(rebuilt, 3, SEED))


# ---------------------------------------------------------------------------
# ensemble specs
# ---------------------------------------------------------------------------

def test_sample_ensemble_matches_direct_samplers():
    path = SEED.child("spec-match")
    spec = EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0))
    assert np.array_equal(sample_ensemble(spec, path, 5),
                          sample_wigner(5, Atom.rademacher(), Atom.degenerate(0.0), path))
    assert np.array_equal(sample_ensemble(EnsembleSpec.goe(), path, 5), sample_goe(5, path))
    assert np.array_equal(sample_ensemble(EnsembleSpec.gnp(0.5), path, 5),
                          sample_gnp(5, 0.5, path))


def test_shifted_wigner_adds_shift():
    path = SEED.child("shifted-wig")
    shift = ShiftSpec.constant_offdiag(2.0)
    spec = EnsembleSpec.shifted_wigner(Atom.rademacher(), Atom.degenerate(0.0), shift)
    w = sample_wigner(4, Atom.rademacher(), Atom.degenerate(0.0), path)
    assert np.array_equal(sample_ensemble(spec, path, 4), w + shift_matrix(shift, 4))


def test_every_ensemble_is_exactly_symmetric():
    for i, spec in enumerate([
        EnsembleSpec.wigner(Atom.gaussian(), Atom.gaussian()),
        EnsembleSpec.goe(),
        EnsembleSpec.gnp(0.3),
        EnsembleSpec.shifted_wigner(Atom.gaussian(), Atom.degenerate(0.0),
                                    ShiftSpec.constant_offdiag(0.5)),
    ]):
        a = sample_ensemble(spec, SEED.child("sym", i), 7)
        assert np.array_equal(a, a.T)


def test_ensemble_spec_dict_round_trip():
    specs = [
        EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0), n=8),
        EnsembleSpec.goe(),
        EnsembleSpec.gnp(0.25, n=4),
        EnsembleSpec.shifted_wigner(Atom.centered_bernoulli(0.3), Atom.degenerate(0.0),
                                    ShiftSpec.constant_offdiag(1.5)),
    ]
    for spec in specs:
        assert EnsembleSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


@pytest.mark.parametrize("cls,d,message", [
    (Atom, {"kind": "gaussian", "mean": 0.0, "varience": 1.0}, "unknown key 'varience'"),
    (Atom, {"kind": "centered-bernoulli"}, "missing key 'p'"),
    (Atom, {"kind": "bernoulli01", "p": 1.5}, "0 <= p <= 1"),
    (Atom, {"mean": 0.0}, "'kind'"),
    (Atom, {"kind": ["gaussian"]}, "'kind'"),
    (EnsembleSpec, {"kind": "wigner", "offdiag": {"kind": "rademacher"}}, "missing key 'diag'"),
    (EnsembleSpec, {"kind": "gnp-adjacency", "p": 0.5, "n": 0}, "dimension must be >= 1"),
    (ShiftSpec, {"kind": "explicit", "matrix": [[0.0, 1.0], [2.0, 0.0]]}, "symmetric"),
    (VectorSpec, {"kind": "standard-basis", "index": -1}, "basis index"),
    (VectorSpec, {"kind": "iid-atom", "atom": {"kind": "laplace"}}, "'laplace'"),
    (VectorSpec, [1.0, 2.0], "needs a .kind. key"),
    (VectorSpec, {"kind": "shifted", "base": 5, "mu": 1.0}, "key 'base' .* must be VectorSpec"),
    (EnsembleSpec, {"kind": "goe", "n": True}, r"key 'n' .* must be int \| None, got True"),
])
def test_spec_dicts_are_validated(cls, d, message):
    with pytest.raises(ValueError, match=message):
        cls.from_dict(d)


def test_every_codec_annotation_has_a_json_test():
    # a field whose annotation the codec cannot test must fail here, not
    # pass JSON values through unchecked
    makes = [getattr(cls, method) for cls in codec.Spec.__subclasses__()
             for method in cls._kinds.values()] + codec.Record.__subclasses__()
    assert len(makes) >= 20
    for make in makes:
        annotated = {name for name, p in inspect.signature(make).parameters.items()
                     if p.annotation is not inspect.Parameter.empty}
        assert set(codec._field_tests(make)) == annotated, make


def test_json_tests_resolve_annotations():
    assert codec._json_test(typing.Optional[int])(None)
    assert not codec._json_test(typing.Optional[int])(1.0)
    assert codec._json_test(tuple[float, ...])([1, 2.5])
    assert not codec._json_test(tuple[float, ...])([1, "2"])
    assert codec._json_test(list[Atom])([{"kind": "rademacher"}])
    assert not codec._json_test(float)(False)
    for hint in (typing.Any, set, tuple[int, str], bytes):
        with pytest.raises(TypeError, match="no JSON value test"):
            codec._json_test(hint)


def test_explicit_shift_must_be_symmetric():
    with pytest.raises(ValueError):
        ShiftSpec.explicit([[0.0, 1.0], [2.0, 0.0]])
