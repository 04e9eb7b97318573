"""Samplers for random symmetric matrices and input vectors.

The matrix ensembles implemented here:

==============  ============================================================
kind            (off-diagonal, diagonal) atoms
==============  ============================================================
wigner          its own: iid upper-triangular entries from the first,
                iid diagonal entries from the second
goe             Gaussian orthogonal ensemble: gaussian(0, 1), gaussian(0, 2)
gnp-adjacency   0/1 adjacency matrix of an Erdos-Renyi graph G(n, p):
                bernoulli01(p), degenerate(0); sampled as exact integers
==============  ============================================================

All samplers are pure functions of ``(spec, seed)``: equal
:class:`~ctrllab.seeding.SeedPath` inputs give byte-identical outputs under
any execution order, and every sampled matrix is exactly symmetric (the upper
triangle is mirrored, never re-sampled).  A sampler also takes, in place of
the path, the generator already derived from it (as
:meth:`~ctrllab.seeding.SeedPath.generators` derives a batch of them), and
then draws exactly what the path would.  Given a sequence of T seeds, a
sampler gives the stack of T draws, each bit for bit its own seed's draw;
a stack whose entries share a generator is refused, naming both entries.

An atom's copies are a law applied to raw numbers its generator draws:
standard normals for a Gaussian, uniforms on [0, 1) for the Bernoulli
atoms, nothing for a degenerate atom, and fair bits for a Rademacher atom.
Fair bits are read from whole PCG64 outputs (``random_raw``) as their
little-endian 32-bit halves, low half first, and a bit is the top bit of
its half; this is the stream of ``Generator.integers(0, 2)`` on a generator
with no pending 32-bit half, except that an odd count drops its last high
half instead of leaving it pending.  Another bit generator draws its fair
bits with ``integers(0, 2)`` itself.

Every draw goes through one helper, ``Atom._draws``: each generator of a
stack fills its own block of one buffer in one call, and the law runs once
on the whole buffer; :meth:`Atom.sample` is that draw on a stack of one
generator.  A matrix ensemble draws in one of two ways.  When the
off-diagonal and diagonal atoms draw the same kind of raw number, each
generator draws its matrix's upper triangle and diagonal in one call, the
upper triangle first, so a diagonal of fair bits follows an odd upper
triangle as ``integers`` would give it.  Otherwise the stack draws every
upper triangle and then every diagonal, so each generator still draws its
upper triangle first, and a diagonal that draws nothing calls no generator.
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

def _fair_halves(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the uint32 array `out` with the 32-bit halves of whole outputs
    of `rng`, as the module docstring reads them; a bit generator other
    than PCG64 gives the bits of ``integers(0, 2)`` at the top of each half."""
    if type(rng.bit_generator) is np.random.PCG64:
        words = rng.bit_generator.random_raw(-(-out.size // 2))
        out[...] = np.asarray(words, "<u8").view("<u4")[:out.size].reshape(out.shape)
    else:
        out[...] = rng.integers(0, 2, out.shape) << 31  # halves of another width


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

    @property
    def integer_valued(self) -> bool:
        """True when every copy is an integer: a Rademacher or 0/1 Bernoulli
        atom, or one degenerate at an integer."""
        return self.kind in ("rademacher", "bernoulli01") or \
            self.kind == "degenerate" and float(self.value).is_integer()

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw iid copies; always float64: the raw numbers :meth:`_draws`
        takes from `rng`, put through the law :meth:`_law`.

        Rademacher copies from a PCG64 generator are those of
        ``integers(0, 2, size) * 2 - 1`` when the generator holds no pending
        32-bit half, as a fresh one does; an odd count drops its last half
        instead of leaving it pending for the next draw.
        """
        return self._law(self._draws([rng], size)[0])

    # what fills each kind's raw numbers: standard normals, fair bits,
    # uniforms on [0, 1) or nothing; atoms of one source draw alike
    _sources = {"gaussian": np.random.Generator.standard_normal, "rademacher": _fair_halves,
                "centered-bernoulli": np.random.Generator.random,
                "bernoulli01": np.random.Generator.random, "degenerate": None}

    def _draws(self, rngs: list, size) -> np.ndarray:
        """The raw numbers of `size` copies from each generator of `rngs`,
        generator t's in block t of one (T, *size) array: uint32 halves for
        fair bits, float64 otherwise.  Each generator fills its block in one
        call (see `_sources`); an atom that draws nothing calls none."""
        raw = np.empty((len(rngs), *np.atleast_1d(size)),
                       np.uint32 if self.kind == "rademacher" else np.float64)
        fill = self._sources[self.kind]
        if fill is not None:
            for t, rng in enumerate(rngs):
                fill(rng, out=raw[t, ...])  # a view even for a scalar size ()
        return raw

    def _law(self, raw: np.ndarray) -> np.ndarray:
        """The float64 copies made from the raw numbers of :meth:`_draws`,
        elementwise; a Rademacher copy is 2 x - 1 for the top bit x of its
        half, as ``integers(0, 2)`` reads the bit (Lemire's method); a
        Gaussian copy is mean + sd z, rounded as ``Generator.normal`` rounds it."""
        if self.kind == "gaussian":
            return raw * math.sqrt(self.variance) + self.mean
        if self.kind == "rademacher":
            return (raw >> 31) * 2.0 - 1.0
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

    @functools.cached_property
    def atoms(self) -> tuple[Atom, Atom]:
        """The (off-diagonal, diagonal) atoms every matrix of the kind draws."""
        if self.kind == "goe":
            return Atom.gaussian(0.0, 1.0), Atom.gaussian(0.0, 2.0)
        if self.kind == "gnp-adjacency":
            return Atom.bernoulli01(self.p), Atom.degenerate(0.0)
        return self.offdiag, self.diag

    @property
    def integer_valued(self) -> bool:
        """True when samples are exact integer matrices: both atoms are."""
        return all(atom.integer_valued for atom in self.atoms)


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


def _rngs(seeds: list) -> list:
    """The generator of each seed of a stack: a generator as it is, a
    :class:`SeedPath`'s derived.  Two entries that are one generator, or
    share one bit generator, raise a ValueError naming both: each would
    draw from the other's stream, so neither draw would be its own seed's."""
    rngs = [s if isinstance(s, np.random.Generator) else s.generator() for s in seeds]
    ids = [id(rng.bit_generator) for rng in rngs]
    if len(set(ids)) < len(ids):
        t = next(t for t, i in enumerate(ids) if i in ids[:t])
        raise ValueError(f"seeds {ids.index(ids[t])} and {t} of the stack share one generator")
    return rngs


def _seeds(seed) -> tuple[list, bool]:
    """The seeds of a stack, and whether `seed` was one seed, not a sequence."""
    single = seed is None or isinstance(seed, (SeedPath, np.random.Generator))
    seeds = [seed] if single else list(seed)
    if not seeds:
        raise ValueError("expected a seed or a non-empty sequence of seeds")
    return seeds, single


def sample_ensemble(spec: EnsembleSpec, seed, n: int) -> np.ndarray:
    """Sample an n x n matrix from `spec`: upper-triangular entries are iid
    copies of its off-diagonal atom, diagonal entries of its diagonal atom
    (:attr:`EnsembleSpec.atoms`), and the lower triangle mirrors the upper
    exactly.  gnp yields int64, everything else float64.

    Given a sequence of T seeds, the (T, n, n) stack of one each: each
    generator draws its matrix's raw numbers into its own blocks, the upper
    triangle's and then the diagonal's (in one call when both atoms draw
    the same kind of raw number), each atom's law runs once on the
    stack's, and one transpose-add mirrors every matrix.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    seeds, single = _seeds(seed)
    rngs = _rngs(seeds)
    offdiag, diag = spec.atoms
    iu = _upper_indices(n)
    k = iu[0].size
    if Atom._sources[offdiag.kind] == Atom._sources[diag.kind]:  # one draw per matrix
        raw = offdiag._draws(rngs, k + n)
        upper, diagonal = raw[:, :k], raw[:, k:]
    else:  # each generator draws its upper triangle, then its diagonal
        upper, diagonal = offdiag._draws(rngs, k), diag._draws(rngs, n)
    m = np.zeros((len(rngs), n, n), np.int64 if spec.kind == "gnp-adjacency" else np.float64)
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

    @functools.cached_property
    def entry_atom(self) -> Atom | None:
        """The atom whose iid copies a drawn vector holds (before a sphere
        vector's normalisation), or None for a kind that draws nothing."""
        if self.kind == "bernoulli01":
            return Atom.bernoulli01(self.p)
        if self.kind == "uniform-sphere":
            return Atom.gaussian(0.0, 1.0)
        return self.atom

    @property
    def integer_valued(self) -> bool:
        """True when samples are exact integer vectors (usable on the exact path)."""
        if self.kind in ("standard-basis", "all-ones"):
            return True
        if self.kind == "explicit":
            return bool(np.all(self.values == np.round(self.values)))
        if self.kind == "shifted":  # an integer shift of an integer base
            return self.base.integer_valued and bool(np.all(self.mu == np.round(self.mu)))
        return self.entry_atom is not None and self.entry_atom.integer_valued

    @property
    def seeded(self) -> bool:
        """True when sampling draws from the seed's stream; the other kinds never read it."""
        if self.kind == "shifted":
            return self.base.seeded
        return self.entry_atom is not None


def _finite_vector(v, what: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise nonfinite_error(a, what)
    return a


def sample_vector(spec: VectorSpec, n: int, seed) -> np.ndarray:
    """Sample an input vector of length n from `spec`, as a fresh array.

    ``standard-basis`` and ``all-ones`` are exact; a seeded kind draws iid
    copies of its :attr:`VectorSpec.entry_atom`, and ``uniform-sphere``
    normalizes that iid Gaussian vector (resampling the probability-zero
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
    elif spec.kind == "shifted":
        v = sample_vector(spec.base, n, seeds) + spec.mu
    elif spec.kind == "explicit":
        v = np.tile(spec.values, (len(seeds), 1))
    else:
        rngs = _rngs(seeds)
        v = spec.entry_atom._law(spec.entry_atom._draws(rngs, n))
        if spec.kind == "uniform-sphere":
            for t in np.flatnonzero(~v.any(axis=1)):
                while not v[t].any():
                    v[t] = spec.entry_atom.sample(rngs[t], n)
            v /= _row_norms(v)[:, None]
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
