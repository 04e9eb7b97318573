"""Samplers for random symmetric matrices and input vectors.

The matrix ensembles implemented here:

==============  ============================================================
kind            description
==============  ============================================================
wigner          real symmetric, iid upper-triangular entries from an
                off-diagonal atom, iid diagonal entries from a diagonal atom
goe             Gaussian orthogonal ensemble: independent Gaussians with
                mean zero, off-diagonal variance 1, diagonal variance 2
gnp-adjacency   0/1 adjacency matrix of an Erdos-Renyi graph G(n, p),
                zero diagonal, sampled as exact integers
shifted-wigner  wigner plus a deterministic symmetric shift matrix
==============  ============================================================

All samplers are pure functions of ``(spec, seed)``: equal
:class:`~ctrllab.seeding.SeedPath` inputs give byte-identical outputs under
any execution order, and every sampled matrix is exactly symmetric (the upper
triangle is mirrored, never re-sampled).

:func:`gnp_reduction` returns the exact distributional identity that rewrites
a scaled G(n, p) adjacency matrix as a mean-zero unit-variance Wigner matrix
plus a constant off-diagonal shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import Spec
from .seeding import SeedPath

__all__ = [
    "Atom",
    "ShiftSpec",
    "EnsembleSpec",
    "VectorSpec",
    "GnpReduction",
    "shift_matrix",
    "sample_wigner",
    "sample_goe",
    "sample_gnp",
    "sample_vector",
    "sample_ensemble",
    "gnp_reduction",
]


# ---------------------------------------------------------------------------
# atom distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom(Spec):
    """Scalar distribution for matrix / vector entries.

    Construct via the classmethods; `kind` is one of ``gaussian``,
    ``rademacher``, ``centered-bernoulli``, ``bernoulli01``, ``degenerate``.
    The centered Bernoulli atom takes value ``(1-p)/s`` with probability `p`
    and ``-p/s`` with probability ``1-p`` where ``s = sqrt(p(1-p))``, so it
    has mean zero and unit variance.
    """

    kind: str
    mean: float = 0.0
    variance: float = 1.0
    p: float = 0.5
    value: float = 0.0

    _kinds = {"gaussian": "gaussian", "rademacher": "rademacher",
              "centered-bernoulli": "centered_bernoulli", "bernoulli01": "bernoulli01",
              "degenerate": "degenerate"}

    def __post_init__(self) -> None:
        if self.kind == "gaussian":
            if self.variance < 0:
                raise ValueError(f"gaussian variance must be >= 0, got {self.variance}")
        elif self.kind == "centered-bernoulli":
            if not 0.0 < self.p < 1.0:
                raise ValueError(f"centered-bernoulli requires 0 < p < 1, got {self.p}")
        elif self.kind == "bernoulli01":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bernoulli01 requires 0 <= p <= 1, got {self.p}")
        elif self.kind not in ("rademacher", "degenerate"):
            raise ValueError(f"unknown atom kind {self.kind!r}")

    @classmethod
    def gaussian(cls, mean: float = 0.0, variance: float = 1.0) -> "Atom":
        return cls("gaussian", mean=float(mean), variance=float(variance))

    @classmethod
    def rademacher(cls) -> "Atom":
        return cls("rademacher")

    @classmethod
    def centered_bernoulli(cls, p: float) -> "Atom":
        return cls("centered-bernoulli", p=float(p))

    @classmethod
    def bernoulli01(cls, p: float) -> "Atom":
        return cls("bernoulli01", p=float(p))

    @classmethod
    def degenerate(cls, value: float = 0.0) -> "Atom":
        return cls("degenerate", value=float(value))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw iid copies; always float64."""
        if self.kind == "gaussian":
            return rng.normal(self.mean, math.sqrt(self.variance), size)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
        if self.kind == "centered-bernoulli":
            sigma = math.sqrt(self.p * (1.0 - self.p))
            hi, lo = (1.0 - self.p) / sigma, -self.p / sigma
            return np.where(rng.random(size) < self.p, hi, lo)
        if self.kind == "bernoulli01":
            return (rng.random(size) < self.p).astype(np.float64)
        return np.full(size, self.value, dtype=np.float64)

    def support(self) -> list[tuple[float, float]]:
        """(value, probability) pairs for discrete atoms; gaussian has none."""
        if self.kind == "rademacher":
            return [(-1.0, 0.5), (1.0, 0.5)]
        if self.kind == "centered-bernoulli":
            sigma = math.sqrt(self.p * (1.0 - self.p))
            return [(-self.p / sigma, 1.0 - self.p), ((1.0 - self.p) / sigma, self.p)]
        if self.kind == "bernoulli01":
            return [(0.0, 1.0 - self.p), (1.0, self.p)]
        if self.kind == "degenerate":
            return [(self.value, 1.0)]
        raise ValueError(f"atom kind {self.kind!r} has no finite support")


# ---------------------------------------------------------------------------
# deterministic shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShiftSpec(Spec):
    """Deterministic symmetric shift added to a Wigner matrix."""

    kind: str  # none | constant-offdiag | explicit
    c: float = 0.0
    matrix: np.ndarray | None = None

    _kinds = {"none": "none", "constant-offdiag": "constant_offdiag", "explicit": "explicit"}

    @classmethod
    def none(cls) -> "ShiftSpec":
        return cls("none")

    @classmethod
    def constant_offdiag(cls, c: float) -> "ShiftSpec":
        return cls("constant-offdiag", c=float(c))

    @classmethod
    def explicit(cls, matrix) -> "ShiftSpec":
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"explicit shift must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("explicit shift matrix must be symmetric")
        return cls("explicit", matrix=m)


def shift_matrix(spec: ShiftSpec, n: int) -> np.ndarray:
    """Realize a shift spec as an explicit symmetric n x n float matrix."""
    if spec.kind == "none":
        return np.zeros((n, n))
    if spec.kind == "constant-offdiag":
        m = np.full((n, n), spec.c)
        np.fill_diagonal(m, 0.0)
        return m
    if spec.matrix.shape[0] != n:
        raise ValueError(f"explicit shift is {spec.matrix.shape[0]}x{spec.matrix.shape[0]}, need {n}x{n}")
    return spec.matrix.copy()


# ---------------------------------------------------------------------------
# matrix ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnsembleSpec(Spec):
    """Declarative description of a random symmetric matrix ensemble.

    `n` may be left as None in templates; harness configs supply the
    dimension per grid point at sampling time.  A shifted Wigner ensemble
    without a shift samples like the plain one.
    """

    kind: str  # wigner | goe | gnp-adjacency | shifted-wigner
    n: int | None = None
    offdiag: Atom | None = None
    diag: Atom | None = None
    p: float | None = None
    shift: ShiftSpec | None = None

    _kinds = {"wigner": "wigner", "goe": "goe", "gnp-adjacency": "gnp",
              "shifted-wigner": "shifted_wigner"}
    _decoders = {"offdiag": Atom.from_dict, "diag": Atom.from_dict,
                 "shift": ShiftSpec.from_dict}

    def __post_init__(self) -> None:
        if self.kind in ("wigner", "shifted-wigner"):
            if self.offdiag is None or self.diag is None:
                raise ValueError(f"{self.kind} ensemble needs offdiag and diag atoms")
        elif self.kind == "gnp-adjacency":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"gnp-adjacency requires p in [0, 1], got {self.p}")
        elif self.kind != "goe":
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n is not None and self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    @classmethod
    def wigner(cls, offdiag: Atom, diag: Atom, n: int | None = None) -> "EnsembleSpec":
        return cls("wigner", n=n, offdiag=offdiag, diag=diag)

    @classmethod
    def goe(cls, n: int | None = None) -> "EnsembleSpec":
        return cls("goe", n=n)

    @classmethod
    def gnp(cls, p: float, n: int | None = None) -> "EnsembleSpec":
        return cls("gnp-adjacency", n=n, p=float(p))

    @classmethod
    def shifted_wigner(cls, offdiag: Atom, diag: Atom, shift: ShiftSpec | None = None,
                       n: int | None = None) -> "EnsembleSpec":
        return cls("shifted-wigner", n=n, offdiag=offdiag, diag=diag, shift=shift)

    @property
    def integer_valued(self) -> bool:
        """True when samples are exact integer matrices (the gnp adjacency)."""
        return self.kind == "gnp-adjacency"


@functools.lru_cache(maxsize=64)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, computed once per n and read-only."""
    iu = np.triu_indices(n, k=1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def sample_wigner(n: int, offdiag: Atom, diag: Atom, seed: SeedPath) -> np.ndarray:
    """Sample an n x n Wigner matrix.

    Upper-triangular entries are iid copies of `offdiag`, diagonal entries
    iid copies of `diag`; the lower triangle mirrors the upper exactly.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = seed.generator()
    m = np.zeros((n, n))
    iu = _upper_indices(n)
    m[iu] = offdiag.sample(rng, iu[0].size)
    m += m.T
    m[np.diag_indices(n)] = diag.sample(rng, n)
    return m


def sample_goe(n: int, seed: SeedPath) -> np.ndarray:
    """Sample from the Gaussian orthogonal ensemble.

    Entries are independent mean-zero Gaussians, variance 1 off the diagonal
    and 2 on it.
    """
    return sample_wigner(n, Atom.gaussian(0.0, 1.0), Atom.gaussian(0.0, 2.0), seed)


def sample_gnp(n: int, p: float, seed: SeedPath) -> np.ndarray:
    """Sample the 0/1 adjacency matrix of G(n, p) as an exact int64 matrix.

    Each upper off-diagonal entry is Bernoulli(p) independently; the diagonal
    is zero.  p = 0 and p = 1 are accepted as deterministic degenerate cases
    (the empty and the complete graph) for test fixtures.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge density must lie in [0, 1], got {p}")
    rng = seed.generator()
    m = np.zeros((n, n), dtype=np.int64)
    iu = _upper_indices(n)
    m[iu] = rng.random(iu[0].size) < p
    m += m.T
    return m


@dataclass(frozen=True, eq=False)
class GnpReduction:
    """Exact rewrite of a scaled G(n, p) adjacency matrix.

    With ``sigma = sqrt(p(1-p))``, ``A/sigma`` for A ~ G(n, p) has the same
    distribution as ``W + F`` where W is a Wigner matrix with the
    `offdiag` / `diag` atoms below and F is the constant off-diagonal shift.
    """

    offdiag: Atom
    diag: Atom
    shift: np.ndarray
    sigma: float


def gnp_reduction(n: int, p: float) -> GnpReduction:
    """Return the Wigner-plus-shift decomposition of G(n, p) / sigma."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"reduction requires 0 < p < 1, got {p}")
    sigma = math.sqrt(p * (1.0 - p))
    return GnpReduction(
        offdiag=Atom.centered_bernoulli(p),
        diag=Atom.degenerate(0.0),
        shift=shift_matrix(ShiftSpec.constant_offdiag(p / sigma), n),
        sigma=sigma,
    )


def sample_ensemble(spec: EnsembleSpec, seed: SeedPath, n: int | None = None) -> np.ndarray:
    """Sample a matrix from `spec`; gnp yields int64, everything else float64."""
    dim = n if n is not None else spec.n
    if dim is None:
        raise ValueError("ensemble spec has no dimension; pass n explicitly")
    if spec.kind == "goe":
        return sample_goe(dim, seed)
    if spec.kind == "gnp-adjacency":
        return sample_gnp(dim, spec.p, seed)
    w = sample_wigner(dim, spec.offdiag, spec.diag, seed)
    if spec.shift is not None:
        w += shift_matrix(spec.shift, dim)
    return w


# ---------------------------------------------------------------------------
# input vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VectorSpec(Spec):
    """Declarative description of the input vector b.

    Kinds: ``standard-basis`` (index is 0-based), ``all-ones``,
    ``bernoulli01``, ``iid-atom``, ``uniform-sphere``, ``shifted`` (a base
    spec plus a deterministic offset), ``explicit``.
    """

    kind: str
    index: int | None = None
    p: float | None = None
    atom: Atom | None = None
    base: "VectorSpec | None" = None
    mu: np.ndarray | None = None
    values: np.ndarray | None = None

    _kinds = {"standard-basis": "standard_basis", "all-ones": "all_ones",
              "bernoulli01": "bernoulli01", "iid-atom": "iid_atom",
              "uniform-sphere": "uniform_sphere", "shifted": "shifted", "explicit": "explicit"}
    _decoders = {"atom": Atom.from_dict, "base": lambda d: VectorSpec.from_dict(d)}

    @classmethod
    def standard_basis(cls, index: int) -> "VectorSpec":
        if index < 0:
            raise ValueError(f"basis index must be >= 0, got {index}")
        return cls("standard-basis", index=index)

    @classmethod
    def all_ones(cls) -> "VectorSpec":
        return cls("all-ones")

    @classmethod
    def bernoulli01(cls, p: float) -> "VectorSpec":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli01 requires p in [0, 1], got {p}")
        return cls("bernoulli01", p=float(p))

    @classmethod
    def iid_atom(cls, atom: Atom) -> "VectorSpec":
        return cls("iid-atom", atom=atom)

    @classmethod
    def uniform_sphere(cls) -> "VectorSpec":
        return cls("uniform-sphere")

    @classmethod
    def shifted(cls, base: "VectorSpec", mu) -> "VectorSpec":
        return cls("shifted", base=base, mu=np.asarray(mu, dtype=np.float64))

    @classmethod
    def explicit(cls, values) -> "VectorSpec":
        return cls("explicit", values=np.asarray(values, dtype=np.float64))

    @property
    def integer_valued(self) -> bool:
        """True when samples are exact integer vectors (usable on the exact path)."""
        if self.kind in ("standard-basis", "all-ones", "bernoulli01"):
            return True
        if self.kind == "explicit":
            return bool(np.all(self.values == np.round(self.values)))
        return False


def sample_vector(spec: VectorSpec, n: int, seed: SeedPath) -> np.ndarray:
    """Sample an input vector of length n from `spec`.

    ``standard-basis`` and ``all-ones`` are exact; ``uniform-sphere``
    normalizes an iid Gaussian vector (resampling the probability-zero
    all-zeros draw), so the result has unit Euclidean norm to rounding.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if spec.kind == "standard-basis":
        if spec.index >= n:
            raise ValueError(f"basis index {spec.index} out of range for n={n}")
        v = np.zeros(n)
        v[spec.index] = 1.0
        return v
    if spec.kind == "all-ones":
        return np.ones(n)
    if spec.kind == "bernoulli01":
        rng = seed.generator()
        return (rng.random(n) < spec.p).astype(np.float64)
    if spec.kind == "iid-atom":
        return spec.atom.sample(seed.generator(), n)
    if spec.kind == "uniform-sphere":
        rng = seed.generator()
        g = rng.normal(size=n)
        while not np.any(g):
            g = rng.normal(size=n)
        return g / np.linalg.norm(g)
    if spec.kind == "shifted":
        if spec.mu.shape != (n,):
            raise ValueError(f"shift vector has length {spec.mu.size}, need {n}")
        return sample_vector(spec.base, n, seed) + spec.mu
    if spec.values.shape != (n,):
        raise ValueError(f"explicit vector has length {spec.values.size}, need {n}")
    return spec.values.copy()
