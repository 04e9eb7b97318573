import dataclasses
import inspect
import math
import re
import typing
from fractions import Fraction

import numpy as np
import pytest

from ctrllab import (
    Atom,
    EnsembleSpec,
    SeedPath,
    VectorSpec,
    sample_ensemble,
    sample_gnp,
    sample_goe,
    sample_vector,
    sample_wigner,
)
from ctrllab import codec, ensembles

SEED = SeedPath(20260810, ("test-ensembles",))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

def two_point_law(atom: Atom) -> list[tuple[float, float]]:
    """(value, probability) pairs of a discrete atom, from its definition."""
    if atom.kind == "rademacher":
        return [(-1.0, 0.5), (1.0, 0.5)]
    if atom.kind == "centered-bernoulli":
        sigma = math.sqrt(atom.p * (1.0 - atom.p))
        return [(-atom.p / sigma, 1.0 - atom.p), ((1.0 - atom.p) / sigma, atom.p)]
    if atom.kind == "bernoulli01":
        return [(0.0, 1.0 - atom.p), (1.0, atom.p)]
    assert atom.kind == "degenerate"
    return [(atom.value, 1.0)]


def _fourth_moment(atom: Atom) -> float:
    if atom.kind == "gaussian":
        return 3.0 * atom.variance**2
    return sum(p * v**4 for v, p in two_point_law(atom))


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
    atom = Atom.centered_bernoulli(p)
    support = dict(two_point_law(atom))
    # the sampler draws exactly the two values of the law
    draws = atom.sample(SEED.child("centered-support").generator(), 1000)
    assert set(draws.tolist()) == set(support)
    assert support[(1 - p) / math.sqrt(p * (1 - p))] == p
    # mean is exactly zero by construction: p*(1-p)/s - (1-p)*p/s
    mean = sum(v * q for v, q in support.items())
    assert abs(mean) < 1e-15


def test_degenerate_atom_is_constant():
    vals = Atom.degenerate(2.5).sample(SEED.child("deg").generator(), 50)
    assert np.all(vals == 2.5)


def written_out_draw(atom: Atom, rng, size) -> np.ndarray:
    """Copies of `atom` drawn by the generator method of its law."""
    if atom.kind == "gaussian":
        return rng.normal(atom.mean, math.sqrt(atom.variance), size)
    if atom.kind == "rademacher":
        return rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
    if atom.kind == "centered-bernoulli":
        (lo, _), (hi, _) = two_point_law(atom)
        return np.where(rng.random(size) < atom.p, hi, lo)
    if atom.kind == "bernoulli01":
        return (rng.random(size) < atom.p).astype(np.float64)
    return np.full(size, atom.value)


@pytest.mark.parametrize("atom", [Atom.gaussian(-3.25, 0.7), Atom.gaussian(1e-300, 5.0),
                                  Atom.gaussian(2.0, 0.0), Atom.rademacher(),
                                  Atom.centered_bernoulli(0.3), Atom.bernoulli01(0.4),
                                  Atom.degenerate(-1.5)], ids=lambda atom: atom.kind)
def test_atom_copies_are_the_generator_methods_draws(atom):
    # a law is a raw draw (standard normals, fair bits or uniforms) and a
    # transform; the copies are bit for bit those of the generator method
    for size in (7, (3, 5), 0):
        got = atom.sample(SEED.child("written-out").generator(), size)
        want = written_out_draw(atom, SEED.child("written-out").generator(), size)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_atom_parameter_validation():
    with pytest.raises(ValueError):
        Atom.centered_bernoulli(0.0)
    with pytest.raises(ValueError):
        Atom.centered_bernoulli(1.0)
    with pytest.raises(ValueError):
        Atom.bernoulli01(1.5)
    with pytest.raises(ValueError):
        Atom.gaussian(0.0, -1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"gaussian mean must be finite, got {bad}"):
            Atom.gaussian(bad, 1.0)
        with pytest.raises(ValueError, match=f"degenerate value must be finite, got {bad}"):
            Atom.degenerate(bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"variance must be finite and >= 0, got {bad}"):
            Atom.gaussian(0.0, bad)


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


def test_samplers_name_a_dimension_that_is_not_an_integer():
    # 2.5 and 3.0 once failed inside numpy with a TypeError naming no
    # parameter, and True sampled a 1 x 1 matrix
    rng = np.random.default_rng(0)
    samplers = [lambda n: sample_gnp(n, 0.5, rng), lambda n: sample_goe(n, rng),
                lambda n: sample_wigner(n, Atom.rademacher(), Atom.gaussian(), rng),
                lambda n: sample_ensemble(EnsembleSpec.goe(), rng, n),
                lambda n: sample_vector(VectorSpec.all_ones(), n, rng)]
    for sample in samplers:
        for n in (2.5, 3.0, True, np.float64(3), "3"):
            with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
                sample(n)
        assert sample(np.int64(3)).shape[0] == sample(3).shape[0] == 3
    assert np.array_equal(sample_gnp(np.int32(6), 0.5, SEED), sample_gnp(6, 0.5, SEED))


# ---------------------------------------------------------------------------
# gnp -> shifted wigner reduction
# ---------------------------------------------------------------------------

def gnp_as_shifted_wigner(p: float) -> tuple[EnsembleSpec, float, float]:
    """G(n, p) / sigma with sigma = sqrt(p(1-p)), as a mean-zero unit-variance
    Wigner ensemble plus the constant c = p / sigma off the diagonal: the
    ensemble, c and sigma."""
    sigma = math.sqrt(p * (1 - p))
    return EnsembleSpec.wigner(Atom.centered_bernoulli(p), Atom.degenerate(0.0)), p / sigma, sigma


def test_reduction_at_half_is_rademacher_plus_ones():
    spec, c, sigma = gnp_as_shifted_wigner(0.5)
    assert sigma == pytest.approx(0.5)
    assert c == pytest.approx(1.0)
    support = sorted(two_point_law(spec.offdiag))
    assert support[0] == (pytest.approx(-1.0), pytest.approx(0.5))
    assert support[1] == (pytest.approx(1.0), pytest.approx(0.5))
    assert two_point_law(spec.diag) == [(0.0, 1.0)]
    # so the sampled matrix is a Rademacher Wigner matrix with a zero diagonal
    w = sample_ensemble(spec, SEED.child("half"), 6)
    assert set(np.abs(w[~np.eye(6, dtype=bool)]).tolist()) == {1.0}
    assert np.array_equal(np.diag(w), np.zeros(6))


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_reduction_two_point_distributions_match(p):
    # Exhaustive n=2 check: the law of (1/sigma) * (gnp entry) equals the law
    # of (wigner atom + shift entry).  Probabilities are compared exactly
    # (both sides are the literal floats p and 1-p); values to one ulp.
    spec, c, sigma = gnp_as_shifted_wigner(p)
    atom_plus_shift = sorted((v + c, q) for v, q in two_point_law(spec.offdiag))
    scaled_gnp = sorted([(0.0 / sigma, 1.0 - p), (1.0 / sigma, p)])
    assert len(atom_plus_shift) == len(scaled_gnp) == 2
    for (va, qa), (ve, qe) in zip(atom_plus_shift, scaled_gnp):
        assert Fraction(qa) == Fraction(qe)
        assert math.isclose(va, ve, rel_tol=0.0, abs_tol=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_reduction_matches_gnp_draw_for_draw(p):
    # both ensembles read one uniform per upper entry and compare it with p,
    # so on one seed the shifted Wigner matrix is the G(n, p) matrix / sigma
    spec, c, sigma = gnp_as_shifted_wigner(p)
    for n in (1, 2, 9):
        path = SEED.child("reduction", str(p), n)
        w = sample_ensemble(spec, path, n) + c * (np.ones((n, n)) - np.eye(n))
        assert np.array_equal(np.diag(w), np.zeros(n))
        assert np.allclose(w, sample_gnp(n, p, path) / sigma, rtol=0.0, atol=1e-12)


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
    shifted_support = sorted(v + p / sigma for v, _ in two_point_law(Atom.centered_bernoulli(p)))
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


ATOMS = [Atom.gaussian(0.5, 2.0), Atom.rademacher(), Atom.centered_bernoulli(0.3),
         Atom.bernoulli01(0.4), Atom.degenerate(1.5)]
STACKED_SPECS = [
    *(EnsembleSpec.gnp(p) for p in (0.0, 0.5, 1.0)),
    *(EnsembleSpec.wigner(atom, atom) for atom in ATOMS),
    EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0)),
    # a continuous and a discrete atom in one matrix, either way round
    EnsembleSpec.wigner(Atom.gaussian(), Atom.rademacher()),
    EnsembleSpec.wigner(Atom.rademacher(), Atom.gaussian()),
    EnsembleSpec.goe(),
]


def per_matrix_oracle(spec: EnsembleSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """One matrix of `spec` written out: its upper triangle in row-major
    order, then its diagonal, drawn from `rng`; mirrored."""
    iu = np.triu_indices(n, k=1)
    if spec.kind == "gnp-adjacency":
        m = np.zeros((n, n), dtype=np.int64)
        m[iu] = rng.random(iu[0].size) < spec.p
        return m + m.T
    if spec.kind == "goe":
        offdiag, diag = Atom.gaussian(0.0, 1.0), Atom.gaussian(0.0, 2.0)
    else:
        offdiag, diag = spec.offdiag, spec.diag
    m = np.zeros((n, n))
    m[iu] = offdiag.sample(rng, iu[0].size)
    m = m + m.T
    m[np.diag_indices(n)] = diag.sample(rng, n)
    return m


@pytest.mark.parametrize("spec", STACKED_SPECS, ids=lambda spec: str(spec.to_dict()))
def test_stacked_sampler_equals_per_matrix_sampler(spec):
    # the chunk's sampler: each matrix of the stack from its own generator,
    # bit for bit and in the dtype of the written-out per-matrix draw, which
    # sample_ensemble, the stack of one, also gives
    root = SEED.child("stacked", str(spec.to_dict()))
    for n in (1, 2, 8):
        for trials in ([2**32 + 3], [0, 3, 2**32 + 3, 5, 2**40 + 1]):
            stack = sample_ensemble(spec, root.generators([(n, t) for t in trials]), n)
            assert stack.shape == (len(trials), n, n)
            with pytest.raises(ValueError, match=r"^expected a seed or a non-empty sequence"):
                sample_ensemble(spec, [], n)
            for a, t in zip(stack, trials):
                want = per_matrix_oracle(spec, root.child(n, t).generator(), n)
                for got in (a, sample_ensemble(spec, root.child(n, t), n)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()


def per_vector_oracle(spec: VectorSpec, rng, n: int) -> np.ndarray:
    """One vector of `spec` written out, drawn from `rng` (None when the
    kind draws nothing)."""
    if spec.kind == "standard-basis":
        return np.eye(n)[spec.index]
    if spec.kind == "all-ones":
        return np.ones(n)
    if spec.kind == "bernoulli01":
        return (rng.random(n) < spec.p).astype(np.float64)
    if spec.kind == "iid-atom":
        return spec.atom.sample(rng, n)
    if spec.kind == "uniform-sphere":
        g = rng.normal(size=n)
        return g / np.linalg.norm(g)
    if spec.kind == "shifted":
        return per_vector_oracle(spec.base, rng, n) + spec.mu
    return spec.values


STACKED_VECTORS = [
    VectorSpec.standard_basis(1), VectorSpec.all_ones(), VectorSpec.bernoulli01(0.4),
    *(VectorSpec.iid_atom(atom) for atom in ATOMS), VectorSpec.uniform_sphere(),
    VectorSpec.shifted(VectorSpec.uniform_sphere(), [0.5, -1.0, 2.0]),
    VectorSpec.shifted(VectorSpec.all_ones(), [0.5, -1.0, 2.0]),
    VectorSpec.explicit([3.0, 0.0, -1.5]),
]


@pytest.mark.parametrize("spec", STACKED_VECTORS, ids=lambda spec: str(spec.to_dict()))
def test_stacked_vectors_equal_per_vector_draws(spec):
    # the chunk's input vectors: each from its own generator, bit for bit,
    # as a fresh writable (T, n) float64 array; a kind that draws nothing
    # takes None seeds
    root = SEED.child("stacked-vectors", str(spec.to_dict()))
    trials = [0, 3, 2**32 + 3, 5]
    seeds = list(root.generators([(3, t) for t in trials])) if spec.seeded else [None] * 4
    stack = sample_vector(spec, 3, seeds)
    assert stack.shape == (4, 3) and stack.dtype == np.float64 and stack.flags.writeable
    for row, t in zip(stack, trials):
        rng = root.child(3, t).generator() if spec.seeded else None
        want = per_vector_oracle(spec, rng, 3)
        alone = sample_vector(spec, 3, root.child(3, t) if spec.seeded else None)
        assert row.tobytes() == alone.tobytes() == want.tobytes()
    stack[:] = 7.0  # nothing the spec holds is shared
    assert per_vector_oracle(spec, root.child(3, 0).generator(), 3)[0] != 7.0
    with pytest.raises(ValueError, match=r"^expected a seed or a non-empty sequence of seeds$"):
        sample_vector(spec, 3, [])


def test_every_ensemble_is_exactly_symmetric():
    for i, spec in enumerate([
        EnsembleSpec.wigner(Atom.gaussian(), Atom.gaussian()),
        EnsembleSpec.goe(),
        EnsembleSpec.gnp(0.3),
    ]):
        a = sample_ensemble(spec, SEED.child("sym", i), 7)
        assert np.array_equal(a, a.T)


def test_ensemble_spec_dict_round_trip():
    specs = [
        EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0)),
        EnsembleSpec.goe(),
        EnsembleSpec.gnp(0.25),
    ]
    for spec in specs:
        assert EnsembleSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


@pytest.mark.parametrize("cls,d,message", [
    (Atom, {"kind": "gaussian", "mean": 0.0, "varience": 1.0}, "unknown key 'varience'"),
    (Atom, {"kind": "centered-bernoulli"}, "missing key 'p'"),
    (Atom, {"kind": "bernoulli01", "p": 1.5}, "0 <= p <= 1"),
    (Atom, {"kind": "gaussian", "mean": math.nan}, "gaussian mean must be finite, got nan"),
    (Atom, {"kind": "gaussian", "variance": math.inf}, "variance must be finite and >= 0, got inf"),
    (Atom, {"kind": "degenerate", "value": -math.inf}, "degenerate value must be finite, got -inf"),
    (Atom, {"mean": 0.0}, "'kind'"),
    (Atom, {"kind": ["gaussian"]}, "'kind'"),
    (EnsembleSpec, {"kind": "wigner", "offdiag": {"kind": "rademacher"}}, "missing key 'diag'"),
    (EnsembleSpec, {"kind": "gnp-adjacency", "p": 0.5, "n": 0}, "unknown key 'n'"),
    # the shifted Wigner kind is gone; its JSON form is refused with the kinds there are
    (EnsembleSpec, {"kind": "shifted-wigner", "offdiag": {"kind": "gaussian"},
                    "diag": {"kind": "degenerate", "value": 0.0},
                    "shift": {"kind": "constant-offdiag", "c": 1.0}},
     r"^EnsembleSpec needs a 'kind' key with a value in \['gnp-adjacency', 'goe', 'wigner'\], "
     r"got \{'kind': 'shifted-wigner'"),
    (VectorSpec, {"kind": "explicit", "values": [math.nan, 1.0]},
     r"^explicit vector values has non-finite entries: \[0\] = nan$"),
    (VectorSpec, {"kind": "explicit", "values": [[1.0, 2.0]]},
     r"^explicit vector values must be one-dimensional, got shape \(1, 2\)$"),
    (VectorSpec, {"kind": "shifted", "base": {"kind": "all-ones"}, "mu": [math.inf, 0.0]},
     r"^shifted vector mu has non-finite entries: \[0\] = inf$"),
    (VectorSpec, {"kind": "shifted", "base": {"kind": "all-ones"}, "mu": 0.5},
     r"^shifted vector mu must be one-dimensional, got shape \(\)$"),
    (VectorSpec, {"kind": "standard-basis", "index": -1}, "basis index"),
    (VectorSpec, {"kind": "iid-atom", "atom": {"kind": "laplace"}}, "'laplace'"),
    (VectorSpec, [1.0, 2.0], "needs a .kind. key"),
    (VectorSpec, {"kind": "shifted", "base": 5, "mu": 1.0}, "key 'base' .* must be VectorSpec"),
    (EnsembleSpec, {"kind": "goe", "n": 8}, "unknown key 'n'"),
    # no kind holds a deterministic shift any more
    (EnsembleSpec, {"kind": "goe", "shift": {"kind": "constant-offdiag", "c": 1.0}},
     "unknown key 'shift' in EnsembleSpec 'goe'"),
    (EnsembleSpec, {"kind": "gnp-adjacency", "p": 0.5,
                    "shift": {"kind": "constant-offdiag", "c": 1.0}},
     "unknown key 'shift' in EnsembleSpec 'gnp-adjacency'"),
])
def test_spec_dicts_are_validated(cls, d, message):
    with pytest.raises(ValueError, match=message):
        cls.from_dict(d)


def test_every_codec_annotation_has_a_json_test():
    # a field whose annotation the codec cannot test must fail here, not
    # pass JSON values through unchecked
    makes = [getattr(cls, method) for cls in codec.Spec.__subclasses__()
             for method in cls._kinds.values()] + codec.Record.__subclasses__()
    assert len(makes) >= 17
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


# one spec of every kind of every spec class
SPEC_KINDS = [
    Atom.gaussian(0.5, 2.0), Atom.rademacher(), Atom.centered_bernoulli(0.3),
    Atom.bernoulli01(0.25), Atom.degenerate(1.5),
    EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0)), EnsembleSpec.goe(),
    EnsembleSpec.gnp(0.25),
    VectorSpec.standard_basis(1), VectorSpec.all_ones(), VectorSpec.bernoulli01(0.5),
    VectorSpec.iid_atom(Atom.rademacher()), VectorSpec.uniform_sphere(),
    VectorSpec.shifted(VectorSpec.all_ones(), [0.5, 0.5]), VectorSpec.explicit([1.0, 2.0]),
]


def test_every_spec_kind_has_a_row():
    assert sorted((type(s).__name__, s.kind) for s in SPEC_KINDS) == sorted(
        (cls.__name__, kind) for cls in codec.Spec.__subclasses__() for kind in cls._kinds)


@pytest.mark.parametrize("spec", SPEC_KINDS, ids=lambda s: f"{type(s).__name__}-{s.kind}")
def test_a_spec_holds_its_kinds_fields_and_nothing_else(spec):
    # so its dict, and a report's config echo, shows every field it has
    cls = type(spec)
    assert cls.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    values = {name: getattr(other, name) for other in SPEC_KINDS if type(other) is cls
              for name in codec._kind_fields(cls, other.kind)}
    assert set(values) == {f.name for f in dataclasses.fields(cls)[1:]}  # no field of no kind
    for name, value in values.items():
        if name not in codec._kind_fields(cls, spec.kind):
            with pytest.raises(ValueError, match=rf"^{cls.__name__} '{spec.kind}' takes no field "
                                                 rf"'{name}', got "):
                dataclasses.replace(spec, **{name: value})


@pytest.mark.parametrize("make,value,message", [
    # each was accepted and misread: True as the index 1 (so every entry was
    # set), as the density or the number 1; 1.0 as an index failed in numpy
    (VectorSpec.standard_basis, True, "VectorSpec 'standard-basis' field 'index' must be int"),
    (VectorSpec.standard_basis, 1.0, "VectorSpec 'standard-basis' field 'index' must be int"),
    (EnsembleSpec.gnp, True, "EnsembleSpec 'gnp-adjacency' field 'p' must be float"),
    (lambda p: sample_gnp(4, p, SEED), True, "EnsembleSpec 'gnp-adjacency' field 'p' must be float"),
    (Atom.bernoulli01, True, "Atom 'bernoulli01' field 'p' must be float"),
    (lambda mean: Atom.gaussian(mean=mean), True, "Atom 'gaussian' field 'mean' must be float"),
], ids=["basis-true", "basis-float", "gnp-true", "sample-gnp-true", "bernoulli01-true",
        "gaussian-mean-true"])
def test_spec_values_built_in_python_are_read_as_json_reads_them(make, value, message):
    with pytest.raises(ValueError, match=rf"^{message}, got {value}$"):
        make(value)


def test_spec_fields_take_numpy_scalars_and_hold_floats_as_floats():
    assert VectorSpec.standard_basis(np.int64(2)).to_dict() == {"kind": "standard-basis", "index": 2}
    for value in (np.float64(0.25), np.float32(0.25), 0):
        for spec in (EnsembleSpec.gnp(value), Atom.bernoulli01(value), VectorSpec.bernoulli01(value)):
            assert type(spec.p) is float and spec.p == value
    assert type(Atom.gaussian(np.float32(1.5), 2).variance) is float


def test_shift_and_vector_specs_reject_nonfinite_and_misshapen_values():
    # at construction, naming the parameter, not later at sampling time
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^explicit vector values has non-finite "
                                             rf"entries: \[1\] = {bad}$"):
            VectorSpec.explicit([1.0, bad])
        with pytest.raises(ValueError, match=rf"^shifted vector mu has non-finite entries: "
                                             rf"\[0\] = {bad}$"):
            VectorSpec.shifted(VectorSpec.uniform_sphere(), [bad, 0.0])
    with pytest.raises(ValueError, match=r"^explicit vector values must be one-dimensional, "
                                         r"got shape \(1, 2\)$"):
        VectorSpec.explicit([[1, 2]])
    with pytest.raises(ValueError, match=r"^shifted vector mu must be one-dimensional, "
                                         r"got shape \(2, 1\)$"):
        VectorSpec.shifted(VectorSpec.all_ones(), [[0.5], [0.5]])


def test_shift_and_vector_constructors_validate_like_the_classmethods():
    # the dataclass constructor checks what the classmethods and JSON check,
    # with the same messages, like Atom's
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^explicit vector values has non-finite "
                                             rf"entries: \[0\] = {bad}$"):
            VectorSpec("explicit", values=np.array([bad, 1.0]))
        with pytest.raises(ValueError, match=rf"^shifted vector mu has non-finite entries: "
                                             rf"\[1\] = {bad}$"):
            VectorSpec("shifted", base=VectorSpec.all_ones(), mu=[0.0, bad])
    with pytest.raises(ValueError, match="^unknown vector kind 'bogus'$"):
        VectorSpec("bogus")
    with pytest.raises(ValueError, match="^basis index must be >= 0, got -1$"):
        VectorSpec("standard-basis", index=-1)
    with pytest.raises(ValueError, match=r"^bernoulli01 requires p in \[0, 1\], got 1.5$"):
        VectorSpec("bernoulli01", p=1.5)
    with pytest.raises(ValueError, match="^iid-atom vector needs an Atom, got None$"):
        VectorSpec("iid-atom")
    with pytest.raises(ValueError, match="^shifted vector needs a base VectorSpec, got None$"):
        VectorSpec("shifted", mu=[1.0])
    # valid values are stored as the classmethods store them
    assert VectorSpec("explicit", values=[1, 2]).values.dtype == np.float64
    assert VectorSpec("bernoulli01", p=1).to_dict() == VectorSpec.bernoulli01(1.0).to_dict()


SPEC_FIELD_MISFITS = [
    (lambda: EnsembleSpec.wigner({"kind": "rademacher"}, Atom.degenerate(0.0)),
     "EnsembleSpec 'wigner' field 'offdiag' must be Atom, got {'kind': 'rademacher'}"),
    (lambda: VectorSpec.iid_atom({"kind": "rademacher"}),
     "VectorSpec 'iid-atom' field 'atom' must be Atom, got {'kind': 'rademacher'}"),
    (lambda: VectorSpec.shifted({"kind": "all-ones"}, [0.0]),
     "VectorSpec 'shifted' field 'base' must be VectorSpec, got {'kind': 'all-ones'}"),
    (lambda: EnsembleSpec.wigner(Atom.rademacher(), {"kind": "degenerate", "value": 0.0}),
     "EnsembleSpec 'wigner' field 'diag' must be Atom, got {'kind': 'degenerate', 'value': 0.0}"),
    (lambda: EnsembleSpec.wigner(VectorSpec.all_ones(), Atom.degenerate(0.0)),
     "EnsembleSpec 'wigner' field 'offdiag' must be Atom, got VectorSpec("),
]


@pytest.mark.parametrize("make,message", SPEC_FIELD_MISFITS,
                         ids=["wigner-dict-atom", "iid-dict-atom", "shifted-dict-base",
                              "wigner-dict-diag", "wigner-vector-atom"])
def test_a_spec_field_holds_an_instance_of_its_spec_class(make, message):
    # a dict passed the JSON test of a spec field: the spec was accepted and
    # sampling it failed with "'dict' object has no attribute 'sample'"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        make()


def test_seeded_kinds_are_exactly_those_that_read_the_seed():
    unseeded = [VectorSpec.standard_basis(1), VectorSpec.all_ones(),
                VectorSpec.explicit([1.0, 2.0, 3.0]),
                VectorSpec.shifted(VectorSpec.all_ones(), [0.5, 0.5, 0.5])]
    seeded = [VectorSpec.bernoulli01(0.5), VectorSpec.iid_atom(Atom.rademacher()),
              VectorSpec.uniform_sphere(),
              VectorSpec.shifted(VectorSpec.uniform_sphere(), [0.5, 0.5, 0.5])]
    for spec in unseeded:
        assert not spec.seeded
        assert np.array_equal(sample_vector(spec, 3, None), sample_vector(spec, 3, SEED))
    for spec in seeded:
        assert spec.seeded
        with pytest.raises(AttributeError):
            sample_vector(spec, 3, None)
        # a generator derived from the path draws what the path draws
        assert np.array_equal(sample_vector(spec, 3, SEED.generator()),
                              sample_vector(spec, 3, SEED))


def test_samplers_take_the_generator_of_their_path():
    path = SEED.child("m")
    for spec in (EnsembleSpec.goe(), EnsembleSpec.gnp(0.3),
                 EnsembleSpec.wigner(Atom.rademacher(), Atom.gaussian())):
        assert np.array_equal(sample_ensemble(spec, path.generator(), 7),
                              sample_ensemble(spec, path, 7))
