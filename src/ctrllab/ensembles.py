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
==============  ============================================================

All samplers are pure functions of ``(spec, seed)``: equal
:class:`~ctrllab.seeding.SeedPath` inputs give byte-identical outputs under
any execution order, and every sampled matrix is exactly symmetric (the upper
triangle is mirrored, never re-sampled).  A sampler also takes, in place of
the path, the generator already derived from it (as
:meth:`~ctrllab.seeding.SeedPath.generators` derives a batch of them), and
then draws exactly what the path would.  Given a sequence of T seeds, a
sampler gives the stack of T draws, each bit for bit its own seed's draw.
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
    "EnsembleSpec",
    "VectorSpec",
    "sample_wigner",
    "sample_goe",
    "sample_gnp",
    "sample_vector",
    "sample_ensemble",
]


def nonfinite_error(a: np.ndarray, what: str) -> ValueError:
    """ValueError naming the non-finite entries of `a` (the first three)."""
    bad = np.argwhere(~np.isfinite(a))
    shown = ", ".join(f"[{', '.join(str(int(k)) for k in idx)}] = {a[tuple(idx)]}"
                      for idx in bad[:3])
    more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
    return ValueError(f"{what} has non-finite entries: {shown}{more}")


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
    mean: float | None = None
    variance: float | None = None
    p: float | None = None
    value: float | None = None

    _kinds = {"gaussian": "gaussian", "rademacher": "rademacher",
              "centered-bernoulli": "centered_bernoulli", "bernoulli01": "bernoulli01",
              "degenerate": "degenerate"}

    def __post_init__(self) -> None:
        self._check_fields()
        if self.kind == "gaussian":
            if self.mean is None or not math.isfinite(self.mean):
                raise ValueError(f"gaussian mean must be finite, got {self.mean}")
            if self.variance is None or not 0 <= self.variance < math.inf:
                raise ValueError(f"gaussian variance must be finite and >= 0, got {self.variance}")
        elif self.kind == "centered-bernoulli":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError(f"centered-bernoulli requires 0 < p < 1, got {self.p}")
        elif self.kind == "bernoulli01":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bernoulli01 requires 0 <= p <= 1, got {self.p}")
        elif self.kind == "degenerate":
            if self.value is None or not math.isfinite(self.value):
                raise ValueError(f"degenerate value must be finite, got {self.value}")

    @classmethod
    def gaussian(cls, mean: float = 0.0, variance: float = 1.0) -> "Atom":
        return cls("gaussian", mean=mean, variance=variance)

    @classmethod
    def rademacher(cls) -> "Atom":
        return cls("rademacher")

    @classmethod
    def centered_bernoulli(cls, p: float) -> "Atom":
        return cls("centered-bernoulli", p=p)

    @classmethod
    def bernoulli01(cls, p: float) -> "Atom":
        return cls("bernoulli01", p=p)

    @classmethod
    def degenerate(cls, value: float = 0.0) -> "Atom":
        return cls("degenerate", value=value)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw iid copies; always float64: the raw numbers :meth:`_draw`
        takes from `rng`, put through the law :meth:`_law`."""
        return self._law(self._draw(rng, self._raw(size)))

    def _rows(self, rngs: list, k: int) -> np.ndarray:
        """The (T, k) array whose row t is ``sample(rngs[t], k)``, bit for
        bit: each generator draws into its own row, and the law runs once."""
        raw = self._raw((len(rngs), k))
        for rng, row in zip(rngs, raw):
            self._draw(rng, row)
        return self._law(raw)

    def _raw(self, shape) -> np.ndarray:
        """An empty array for the raw numbers of `shape` copies."""
        return np.empty(shape, np.int64 if self.kind == "rademacher" else np.float64)

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """`out`, a contiguous array from :meth:`_raw`, filled with raw
        numbers from `rng`: standard normals, fair bits or uniforms on
        [0, 1), as many as the copies need and nothing for a degenerate atom."""
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
        elif self.kind == "rademacher":
            out[...] = rng.integers(0, 2, out.shape)
        elif self.kind != "degenerate":
            rng.random(out=out)
        return out

    def _law(self, raw: np.ndarray) -> np.ndarray:
        """The float64 copies made from the raw numbers of :meth:`_draw`,
        elementwise; a Gaussian copy is mean + sd z, rounded as
        ``Generator.normal`` rounds it."""
        if self.kind == "gaussian":
            return raw * math.sqrt(self.variance) + self.mean
        if self.kind == "rademacher":
            return raw.astype(np.float64) * 2.0 - 1.0
        if self.kind == "centered-bernoulli":
            sigma = math.sqrt(self.p * (1.0 - self.p))
            hi, lo = (1.0 - self.p) / sigma, -self.p / sigma
            return np.where(raw < self.p, hi, lo)
        if self.kind == "bernoulli01":
            return (raw < self.p).astype(np.float64)
        return np.full(raw.shape, self.value, dtype=np.float64)


# ---------------------------------------------------------------------------
# matrix ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnsembleSpec(Spec):
    """Declarative description of a random symmetric matrix ensemble, of
    no fixed dimension: the sampler takes n.
    """

    kind: str  # wigner | goe | gnp-adjacency
    offdiag: Atom | None = None
    diag: Atom | None = None
    p: float | None = None

    _kinds = {"wigner": "wigner", "goe": "goe", "gnp-adjacency": "gnp"}
    _decoders = {"offdiag": Atom.from_dict, "diag": Atom.from_dict}

    def __post_init__(self) -> None:
        self._check_fields()
        if self.kind == "wigner":
            if self.offdiag is None or self.diag is None:
                raise ValueError(f"{self.kind} ensemble needs offdiag and diag atoms")
        elif self.kind == "gnp-adjacency":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"gnp-adjacency requires p in [0, 1], got {self.p}")

    @classmethod
    def wigner(cls, offdiag: Atom, diag: Atom) -> "EnsembleSpec":
        return cls("wigner", offdiag=offdiag, diag=diag)

    @classmethod
    def goe(cls) -> "EnsembleSpec":
        return cls("goe")

    @classmethod
    def gnp(cls, p: float) -> "EnsembleSpec":
        return cls("gnp-adjacency", p=p)

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


def _integer(value, name: str) -> int:
    """`value`, a Python or numpy integer but not a bool, as an int; else a
    ValueError naming it `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _rng(seed: SeedPath | np.random.Generator) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else seed.generator()


def _uniforms(rngs: list, k: int) -> np.ndarray:
    """The (T, k) array whose row t is ``rngs[t].random(k)``, each generator
    drawing into its own row."""
    raw = np.empty((len(rngs), k))
    for rng, row in zip(rngs, raw):
        rng.random(out=row)
    return raw


def _seeds(seed) -> tuple[list, bool]:
    """The seeds of a stack, and whether `seed` was one seed, not a sequence."""
    single = seed is None or isinstance(seed, (SeedPath, np.random.Generator))
    seeds = [seed] if single else list(seed)
    if not seeds:
        raise ValueError("expected a seed or a non-empty sequence of seeds")
    return seeds, single


def sample_wigner(n: int, offdiag: Atom, diag: Atom,
                  seed: SeedPath | np.random.Generator) -> np.ndarray:
    """Sample an n x n Wigner matrix.

    Upper-triangular entries are iid copies of `offdiag`, diagonal entries
    iid copies of `diag`; the lower triangle mirrors the upper exactly.
    """
    return sample_ensemble(EnsembleSpec.wigner(offdiag, diag), seed, n)


# The GOE as a Wigner ensemble: Gaussian entries of variance 1 off the
# diagonal and 2 on it.
_STANDARD = Atom.gaussian(0.0, 1.0)
_GOE_ATOMS = (_STANDARD, Atom.gaussian(0.0, 2.0))


def sample_goe(n: int, seed: SeedPath | np.random.Generator) -> np.ndarray:
    """Sample from the Gaussian orthogonal ensemble.

    Entries are independent mean-zero Gaussians, variance 1 off the diagonal
    and 2 on it.
    """
    return sample_ensemble(EnsembleSpec.goe(), seed, n)


def sample_gnp(n: int, p: float, seed: SeedPath | np.random.Generator) -> np.ndarray:
    """Sample the 0/1 adjacency matrix of G(n, p) as an exact int64 matrix.

    Each upper off-diagonal entry is Bernoulli(p) independently; the diagonal
    is zero.  p = 0 and p = 1 are accepted as deterministic degenerate cases
    (the empty and the complete graph) for test fixtures.
    """
    return sample_ensemble(EnsembleSpec.gnp(p), seed, n)


def sample_ensemble(spec: EnsembleSpec, seed, n: int) -> np.ndarray:
    """Sample an n x n matrix from `spec`; gnp yields int64, everything else float64.

    Given a sequence of T seeds, the (T, n, n) stack of one each: each
    generator draws its matrix's raw numbers into its own rows, the upper
    triangle's and then the diagonal's, each atom's law runs once on the
    stack's, and one transpose-add mirrors every matrix.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    seeds, single = _seeds(seed)
    rngs = [_rng(s) for s in seeds]
    iu = _upper_indices(n)
    if spec.kind == "gnp-adjacency":
        m = np.zeros((len(rngs), n, n), dtype=np.int64)
        m[:, iu[0], iu[1]] = _uniforms(rngs, iu[0].size) < spec.p
        m += m.transpose(0, 2, 1)
        return m[0] if single else m
    offdiag, diag = _GOE_ATOMS if spec.kind == "goe" else (spec.offdiag, spec.diag)
    upper, diagonal = offdiag._raw((len(rngs), iu[0].size)), diag._raw((len(rngs), n))
    for rng, u, d in zip(rngs, upper, diagonal):
        offdiag._draw(rng, u)
        diag._draw(rng, d)
    m = np.zeros((len(rngs), n, n))
    m[:, iu[0], iu[1]] = offdiag._law(upper)
    m += m.transpose(0, 2, 1)
    m[:, np.arange(n), np.arange(n)] = diag._law(diagonal)
    return m[0] if single else m


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

    def __post_init__(self) -> None:
        self._check_fields()
        if self.kind == "standard-basis":
            if self.index is None or self.index < 0:
                raise ValueError(f"basis index must be >= 0, got {self.index}")
        elif self.kind == "bernoulli01":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bernoulli01 requires p in [0, 1], got {self.p}")
        elif self.kind == "iid-atom":
            if not isinstance(self.atom, Atom):
                raise ValueError(f"iid-atom vector needs an Atom, got {self.atom!r}")
        elif self.kind == "shifted":
            if not isinstance(self.base, VectorSpec):
                raise ValueError(f"shifted vector needs a base VectorSpec, got {self.base!r}")
            object.__setattr__(self, "mu", _finite_vector(self.mu, "shifted vector mu"))
        elif self.kind == "explicit":
            object.__setattr__(self, "values", _finite_vector(self.values, "explicit vector values"))

    @classmethod
    def standard_basis(cls, index: int) -> "VectorSpec":
        return cls("standard-basis", index=index)

    @classmethod
    def all_ones(cls) -> "VectorSpec":
        return cls("all-ones")

    @classmethod
    def bernoulli01(cls, p: float) -> "VectorSpec":
        return cls("bernoulli01", p=p)

    @classmethod
    def iid_atom(cls, atom: Atom) -> "VectorSpec":
        return cls("iid-atom", atom=atom)

    @classmethod
    def uniform_sphere(cls) -> "VectorSpec":
        return cls("uniform-sphere")

    @classmethod
    def shifted(cls, base: "VectorSpec", mu) -> "VectorSpec":
        return cls("shifted", base=base, mu=mu)

    @classmethod
    def explicit(cls, values) -> "VectorSpec":
        return cls("explicit", values=values)

    @property
    def integer_valued(self) -> bool:
        """True when samples are exact integer vectors (usable on the exact path)."""
        if self.kind in ("standard-basis", "all-ones", "bernoulli01"):
            return True
        if self.kind == "explicit":
            return bool(np.all(self.values == np.round(self.values)))
        return False

    @property
    def seeded(self) -> bool:
        """True when sampling draws from the seed's stream; the other kinds never read it."""
        if self.kind == "shifted":
            return self.base.seeded
        return self.kind in ("bernoulli01", "iid-atom", "uniform-sphere")


def _finite_vector(v, what: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise nonfinite_error(a, what)
    return a


def sample_vector(spec: VectorSpec, n: int, seed) -> np.ndarray:
    """Sample an input vector of length n from `spec`, as a fresh array.

    ``standard-basis`` and ``all-ones`` are exact; ``uniform-sphere``
    normalizes an iid Gaussian vector (resampling the probability-zero
    all-zeros draw), so the result has unit Euclidean norm to rounding.
    Kinds that are not :attr:`VectorSpec.seeded` never read `seed` (None
    will do).  Given a sequence of T seeds, the (T, n) stack of one each.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    misfit = _vector_misfit(spec, n)
    if misfit is not None:
        raise ValueError(f"{misfit} at n={n}")
    seeds, single = _seeds(seed)
    if spec.kind == "standard-basis":
        v = np.zeros((len(seeds), n))
        v[:, spec.index] = 1.0
    elif spec.kind == "all-ones":
        v = np.ones((len(seeds), n))
    elif spec.kind == "bernoulli01":
        v = (_uniforms([_rng(s) for s in seeds], n) < spec.p).astype(np.float64)
    elif spec.kind == "iid-atom":
        v = spec.atom._rows([_rng(s) for s in seeds], n)
    elif spec.kind == "uniform-sphere":
        rngs = [_rng(s) for s in seeds]
        v = _STANDARD._rows(rngs, n)  # rng.normal(size=n) each, bit for bit
        for t in np.flatnonzero(~v.any(axis=1)):
            while not v[t].any():
                v[t] = _STANDARD.sample(rngs[t], n)
        v /= _row_norms(v)[:, None]
    elif spec.kind == "shifted":
        v = sample_vector(spec.base, n, seeds) + spec.mu
    else:
        v = np.tile(spec.values, (len(seeds), 1))
    return v[0] if single else v


def _row_norms(b: np.ndarray) -> np.ndarray:
    """||b_t|| for each row b_t of `b`, as np.linalg.norm(b_t) rounds it: each
    row's dot product runs the BLAS dot that the norm of one vector runs."""
    return np.sqrt(np.matmul(b[:, None, :], b[:, :, None])[:, 0, 0])


def _vector_misfit(spec: VectorSpec, n: int) -> str | None:
    """Why `spec` gives no vector of length n (its basis index, or the
    length of its values or offset), or None when it does."""
    if spec.kind == "standard-basis" and spec.index >= n:
        return f"standard-basis index must be < n, got {spec.index}"
    if spec.kind == "explicit" and spec.values.shape != (n,):
        return f"explicit values must have length n, got length {spec.values.size}"
    if spec.kind == "shifted":
        if spec.mu.shape != (n,):
            return f"shifted mu must have length n, got length {spec.mu.size}"
        return _vector_misfit(spec.base, n)
    return None
