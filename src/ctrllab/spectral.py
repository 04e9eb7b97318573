"""Floating-point controllability verdicts and spectral lemma verifiers.

The PBH-style decider works from a symmetric eigendecomposition: a pair
(A, b) is called controllable when the spectrum is numerically simple (the
minimal eigenvalue gap clears a relative threshold) and no eigenvector is
numerically orthogonal to b.  Verdicts are three-valued; quantities falling
between the accept and reject thresholds yield ``indeterminate`` rather than
a silent guess, because controllability flips on a measure-zero boundary.

The remaining functions check numerically, instance by instance, the
linear-algebra facts the theory leans on: Cauchy interlacing of minor
eigenvalues, the resolvent formula for a squared eigenvector coordinate in
terms of the minor's spectrum, the eigenvector witness that appears whenever
a minor shares an eigenvalue with the full matrix, and a Monte Carlo
estimator for the small-ball (anti-concentration) probability of a weighted
sum of iid atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .codec import Record, _check
from .ensembles import Atom, _finite_vector, _integer, _rngs, _row_norms, nonfinite_error
from .seeding import SeedPath

__all__ = [
    "EigenSystem",
    "EigenDecompositionError",
    "SharedEigenvalueError",
    "SharedEigenvalueWitness",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "ControllabilityVerdict",
    "SmallBallEstimate",
    "eig_sym",
    "classify",
    "pbh_controllable",
    "basis_witnesses",
    "interlacing_check",
    "eigvec_coordinate_check",
    "shared_eigenvalue_witness",
    "small_ball_estimate",
]


class EigenDecompositionError(RuntimeError):
    """Symmetric eigensolver failed to converge."""


class SharedEigenvalueError(ValueError):
    """A minor eigenvalue coincides with a full-matrix eigenvalue."""


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns, None
    when only the eigenvalues were computed) of one symmetric matrix: (n,),
    (n, n), with float `gap` (minimal eigenvalue gap), `norm` (max |lambda|)
    and `scale`; or of a stack of T: (T, n), (T, n, n) and (T,) arrays, with
    `len(es)` = T and `es[t]` the system of matrix t.  Ties are ordered as
    LAPACK returns them, deterministically for a fixed matrix.  `gap` and
    `norm` are computed from the eigenvalues on construction.  The arrays
    are read, never written, by the deciders.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    gap: float | np.ndarray = field(init=False)
    norm: float | np.ndarray = field(init=False)
    # What a decider proves from this system for given matrices, kept once
    # computed: a one-item list holding None or a tuple of read-only arrays
    # of the stack's form (one matrix is a stack of one), each indexed by
    # matrix first.  Indexing slices it along, and _stack_of_one shares the
    # list.
    _proofs: list = field(init=False, repr=False, default_factory=lambda: [None])

    def __post_init__(self) -> None:
        w = self.eigenvalues
        n, rows = w.shape[-1], w.shape[:-1]
        # two infinite eigenvalues (an overflowed system) give a NaN gap,
        # which no threshold accepts
        with np.errstate(invalid="ignore"):
            gap = np.min(np.diff(w), axis=-1) if n > 1 else np.full(rows, math.inf)
        norm = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])) if n else np.zeros(rows)
        object.__setattr__(self, "gap", gap if rows else float(gap))
        object.__setattr__(self, "norm", norm if rows else float(norm))

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def scale(self) -> float | np.ndarray:
        """max(1, ||A||), the scale of the gap thresholds."""
        scale = np.maximum(1.0, self.norm)
        return scale if scale.ndim else float(scale)

    def __len__(self) -> int:
        return len(self._stacked().eigenvalues)

    def __getitem__(self, t) -> EigenSystem:
        """The system of matrix t of a stack (a stack again for a slice)."""
        vectors = self._stacked().eigenvectors
        sub = EigenSystem(self.eigenvalues[t], None if vectors is None else vectors[t])
        if self._proofs[0] is not None:
            rows = np.atleast_1d(np.arange(len(self))[t])
            sub._proofs[0] = tuple(x[rows] for x in self._proofs[0])
            for x in sub._proofs[0]:
                x.flags.writeable = False
        return sub

    def _stacked(self) -> EigenSystem:
        if self.eigenvalues.ndim != 2:
            raise TypeError("a single eigensystem is not a stack")
        return self

    def residual(self, a: np.ndarray) -> float:
        """max_i ||A v_i - lambda_i v_i||, for invariant checks (the worst of a stack)."""
        r = a @ self.eigenvectors - self.eigenvectors * self.eigenvalues[..., None, :]
        return float(np.max(np.linalg.norm(r, axis=-2)))

    def orthonormality_defect(self) -> float:
        """max_ij |v_i . v_j - delta_ij| (the worst of a stack)."""
        g = np.swapaxes(self.eigenvectors, -1, -2) @ self.eigenvectors
        return float(np.max(np.abs(g - np.eye(self.n))))


def _eigenvectors(eigsys: EigenSystem) -> np.ndarray:
    """The eigenvectors of `eigsys`; a ValueError if only its eigenvalues were computed."""
    if eigsys.eigenvectors is None:
        raise ValueError("the eigensystem has no eigenvectors (computed with vectors=False)")
    return eigsys.eigenvectors


def _stack_of_one(eigsys: EigenSystem) -> EigenSystem:
    """The system of one matrix as a stack of one (values-only stays values-only)."""
    if eigsys.eigenvalues.ndim != 1:
        raise ValueError(f"expected the eigensystem of one matrix, got a stack of {len(eigsys)}")
    vectors = eigsys.eigenvectors
    stack = EigenSystem(eigsys.eigenvalues[None], None if vectors is None else vectors[None])
    object.__setattr__(stack, "_proofs", eigsys._proofs)
    return stack


def _checked(x, ints=None, system: bool = False, name: str | None = None) -> np.ndarray:
    """`x`, one matrix, a (T, n, k) stack of them or one vector, with its
    entries read as float64, or, given the exact path's `ints`
    (:func:`ctrllab.exact._ints`), required to be integers and held as
    `ints` holds them.  A system matrix is square and exactly symmetric.

    A bad shape is named by its shape.  Otherwise the error names the first
    matrix at fault (`name`, by default "matrix" for a system matrix, else
    "input matrix" or "input vector", with its index in a stack), then its
    non-finite entries, its non-integer entries or its first entry (i, j),
    i < j, that differs from (j, i)."""
    a = np.asarray(x) if ints else np.asarray(x, dtype=np.float64)
    if a.ndim not in ((2, 3) if system else (1, 2, 3)) or system and a.shape[-1] != a.shape[-2]:
        what = "a stack of square matrices" if a.ndim == 3 else "a square matrix" if system else "a matrix"
        raise ValueError(f"expected {what}, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    floats = stack if stack.dtype.kind == "f" else None
    faults = []  # (the entries at fault, the fault), in the order faults are named
    if ints and stack.dtype.kind not in "biuf" and not all(
            issubclass(t, (int, np.integer)) for t in set(map(type, stack.flat))):
        try:  # other objects are judged by their float value
            floats = stack.astype(np.float64) if stack.dtype == object else None
        except (TypeError, ValueError, OverflowError):
            pass
        if floats is None:
            faults.append((np.ones(stack.shape, dtype=bool), "integer"))
    if floats is not None:
        faults.append((~np.isfinite(floats), "finite"))
        if ints:
            faults.append((floats != np.round(floats), "integer"))
    if system and stack.tobytes() != stack.transpose(0, 2, 1).tobytes():  # else equal entries
        faults.append((stack != stack.transpose(0, 2, 1), "symmetric"))
    faults = [(entries, fault) for entries, fault in faults if entries.any()]
    if faults:
        t = min(int(entries.reshape(len(stack), -1).any(axis=1).argmax()) for entries, _ in faults)
        entries, fault = next((entries, fault) for entries, fault in faults if entries[t].any())
        name = name or ("matrix" if system else "input matrix" if a.ndim > 1 else "input vector")
        name += f" {t} of the stack" if a.ndim == 3 else ""
        if fault == "finite":
            raise nonfinite_error(floats[t], name)
        if fault == "integer":
            raise ValueError(f"exact path requires integer entries ({name})")
        i, j = np.argwhere(np.triu(entries[t], 1))[0]
        raise ValueError(f"{name} is not symmetric at ({i},{j})")
    return ints(a) if ints else a


def _stack(a, ints=None, eigsys: EigenSystem | None = None,
           one: bool = False) -> tuple[np.ndarray, EigenSystem | None, bool]:
    """The entry of every decider of system matrices: `a` (a matrix or a
    (T, n, n) stack; with `one`, a matrix) checked with `ints` as a stack,
    a matrix as a stack of one, its eigensystem `eigsys` (or None) as that
    stack's, and whether `a` was a single matrix."""
    mats = _matrix(a, ints) if one else _checked(a, ints, system=True)
    if mats.ndim == 3:
        return mats, eigsys, False
    return mats[None], None if eigsys is None else _stack_of_one(eigsys), True


def _matrix(a, ints=None, system: bool = True) -> np.ndarray:
    """One square matrix, checked by :func:`_checked` and named "matrix": a
    system matrix unless `system` is false."""
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    return _checked(a, ints, system, "matrix")


def _tolerance(value, name: str) -> float:
    """`value`, a finite real number >= 0 but not a bool, as a float; else a
    ValueError naming it `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def _vector(b, n: int, ints=None) -> np.ndarray:
    """An input vector of an n x n matrix, checked by :func:`_checked`."""
    if np.shape(b) != (n,):
        raise ValueError(f"dimension mismatch: A is {n}x{n}, b has shape {np.shape(b)}")
    return _checked(b, ints)


def eig_sym(a, label=None, vectors: bool = True) -> EigenSystem:
    """Full symmetric eigendecomposition (eigenvalues ascending).

    `label` is carried into the error message on non-convergence so the
    failing matrix can be re-derived from its seed path.  With `vectors`
    false, only the eigenvalues are computed (``eigvalsh``), and the
    system's `eigenvectors` is None.  The two round the same matrix's
    eigenvalues differently in the last bits, so its `gap` or `norm`
    differs between them (on 199 of 200 sampled GOE matrices at n = 8): the
    witnesses of a values-only family (diag-mingap, diag-norm) are not
    bit-comparable with the PBH witnesses of the same matrix.

    A (T, n, n) stack gives one :class:`EigenSystem` of the stack, from one
    stacked LAPACK call; each `es[t]` is bit-identical to the decomposition
    of matrix t alone, and ``eig_sym(a)`` is ``eig_sym(a[None])[0]``.  The
    first non-finite or asymmetric matrix of a stack is named by its index.
    `label` then holds one label per matrix, in a sequence that is not a
    string; if the stack fails to converge, each matrix is retried alone,
    so the error carries the label of the first one that fails.
    """
    m, _, single = _stack(a)
    if not single and isinstance(label, (str, bytes)):
        raise ValueError(f"label must hold one label per matrix of the stack, got {label!r}")
    labels = [label] if single else [None] * len(m) if label is None else list(label)
    if len(labels) != len(m):
        raise ValueError(f"{len(labels)} labels for a stack of {len(m)} matrices")
    try:
        es = EigenSystem(*_eigh_or_values(m, vectors))
    except np.linalg.LinAlgError as stacked:
        for x, name in zip(m, labels):
            try:
                _eigh_or_values(x, vectors)
            except np.linalg.LinAlgError as exc:
                where = f" ({name})" if name is not None else ""
                raise EigenDecompositionError(f"eigh failed to converge{where}: {exc}") from exc
        raise EigenDecompositionError(f"eigh failed to converge: {stacked}") from stacked
    return es[0] if single else es


def _eigh_or_values(m: np.ndarray, vectors: bool):
    return np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)


# ---------------------------------------------------------------------------
# PBH verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances(Record):
    """Accept / reject thresholds for the float PBH decider.

    Gap thresholds are relative to max(1, ||A||); inner-product thresholds
    are relative to ||b||.  Values between the reject and accept levels give
    an indeterminate verdict.
    """

    gap_tol: float = 1e-8
    gap_reject: float = 1e-12
    ortho_tol: float = 1e-9
    ortho_reject: float = 1e-13

    def __post_init__(self) -> None:
        for f in fields(self):
            value = _check(Tolerances, f.name, getattr(self, f.name), f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")
        for tol, reject in (("gap_tol", "gap_reject"), ("ortho_tol", "ortho_reject")):
            if getattr(self, tol) < getattr(self, reject):
                raise ValueError(f"{tol} must be >= {reject} ({getattr(self, reject)}), "
                                 f"got {getattr(self, tol)}")


DEFAULT_TOLERANCES = Tolerances()


def _check_tolerances(value, name: str) -> None:
    """A ValueError naming `name` unless `value` is a :class:`Tolerances`,
    worded as a config's `tolerances` key is refused."""
    if not isinstance(value, Tolerances):
        raise ValueError(f"{name} must be Tolerances, got {value!r}")


CONTROLLABLE = "controllable"
UNCONTROLLABLE = "uncontrollable"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ControllabilityVerdict:
    """Decision plus the float witnesses it was based on.

    Flipping the sign of any eigenvector leaves every field unchanged (only
    |v . b| enters).
    """

    decision: str  # controllable | uncontrollable | indeterminate
    min_gap: float | None = None
    min_abs_inner: float | None = None

    @property
    def controllable(self) -> bool:
        return self.decision == CONTROLLABLE

    @property
    def indeterminate(self) -> bool:
        return self.decision == INDETERMINATE


_VERDICTS = np.array([CONTROLLABLE, INDETERMINATE, UNCONTROLLABLE])


def classify(gap, inner, scale, norm_b, tolerances: Tolerances):
    """The PBH threshold test on a pair's two witnesses.

    `gap` is the minimal eigenvalue gap, judged relative to `scale`
    = max(1, ||A||); `inner` is min_j |v_j . b|, judged relative to `norm_b`.
    Either witness below its reject level means uncontrollable, both above
    their accept levels controllable, anything else indeterminate.  Given
    arrays, the test runs elementwise (the arguments broadcast together)
    and gives an array of verdicts.  `tolerances` must be a :class:`Tolerances`.
    """
    _check_tolerances(tolerances, "tolerances")
    reject = (inner < tolerances.ortho_reject * norm_b) | (gap < tolerances.gap_reject * scale)
    accept = (gap > tolerances.gap_tol * scale) & (inner > tolerances.ortho_tol * norm_b)
    if not isinstance(reject, np.ndarray):
        return UNCONTROLLABLE if reject else CONTROLLABLE if accept else INDETERMINATE
    return _VERDICTS[np.where(reject, 2, np.where(accept, 0, 1))]


def pbh_controllable(a, b, tolerances: Tolerances = DEFAULT_TOLERANCES,
                     eigsys: EigenSystem | None = None) -> ControllabilityVerdict:
    """Three-valued PBH controllability verdict for a symmetric pair (A, b).

    Controllable requires the spectrum to be numerically simple *and* every
    eigenvector to have a non-negligible component along b; uncontrollable
    requires a witness below the reject threshold; anything in between is
    indeterminate (see :func:`classify`).  Pass a precomputed `eigsys` to
    amortize one factorization over many input vectors.  A nonzero b whose
    norm overflows or underflows is judged as b / max|b|, and the witnesses
    then refer to that vector; the zero vector is uncontrollable with
    witness 0.  `b` None judges every basis input e_i at once, on the least
    witness (see :func:`basis_witnesses`).  Given a (T, n, n) stack or its
    `eigsys` and a (T, n) `b`, the verdict's fields are arrays of T, each
    equal to that pair's alone: the stack's inner products and norms come
    from one matmul each, whose every item runs a single pair's BLAS kernel.
    `tolerances` must be a :class:`Tolerances`.
    """
    _check_tolerances(tolerances, "tolerances")
    if eigsys is None:
        eigsys = eig_sym(a)
    single = eigsys.eigenvalues.ndim == 1
    stack = _stack_of_one(eigsys) if single else eigsys
    if b is None:
        inner, norm_b = np.min(basis_witnesses(stack)[2], axis=-1), 1.0
    else:
        if np.shape(b) != eigsys.eigenvalues.shape:
            n = eigsys.n
            dims = f"{n}x{n}" if single else f"a stack of {len(eigsys)} {n}x{n} matrices"
            raise ValueError(f"dimension mismatch: A is {dims}, b has shape {np.shape(b)}")
        b = np.asarray(b, dtype=np.float64).reshape(len(stack), -1)
        with np.errstate(over="ignore"):  # a huge finite b is rescaled below
            norm_b = _row_norms(b)
        off = (norm_b == 0.0) | ~np.isfinite(norm_b)
        if off.any():
            t = int(np.argmin(np.isfinite(b).all(axis=1)))
            if not np.isfinite(b[t]).all():
                raise nonfinite_error(b[t], f"input vector{'' if single else f' {t} of the stack'}")
            peak = np.abs(b).max(axis=1, initial=0.0)
            b = b / np.where(off & (peak > 0.0), peak, 1.0)[:, None]
            norm_b = _row_norms(b)
        products = np.matmul(_eigenvectors(stack).transpose(0, 2, 1), b[:, :, None])
        inner = np.min(np.abs(products), axis=(1, 2), initial=math.inf)
        inner[norm_b == 0.0] = 0.0  # the zero vector, also for n = 0
    decisions = classify(stack.gap, inner, stack.scale, norm_b, tolerances)
    decisions = np.where(norm_b == 0.0, UNCONTROLLABLE, decisions)
    if single:
        return ControllabilityVerdict(decisions[0].item(), eigsys.gap, inner[0].item())
    return ControllabilityVerdict(decisions, eigsys.gap, inner)


def basis_witnesses(eigsys: EigenSystem) -> tuple:
    """PBH witnesses of (A, e_i) for every standard basis input at once.

    Returns (gap, scale, inner) for :func:`classify` with norm_b = 1, where
    inner[i] = min_j |v_j . e_i| = min_j |V[i, j]| needs no product with b;
    for a stack, each is indexed by the matrix first.
    """
    return eigsys.gap, eigsys.scale, np.min(np.abs(_eigenvectors(eigsys)), axis=-1,
                                            initial=math.inf)


# ---------------------------------------------------------------------------
# minor-based verifiers
# ---------------------------------------------------------------------------

def _minor_split(a: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate index i to the last slot; return (minor, off-column X)."""
    n, i = a.shape[0], _integer(i, "minor index")
    if not 0 <= i < n:
        raise ValueError(f"minor index {i} out of range for n={n}")
    keep = [k for k in range(n) if k != i]
    return a[np.ix_(keep, keep)], a[keep, i]


def interlacing_check(a, i: int) -> float:
    """Worst interlacing margin of the i-th minor's eigenvalues.

    Returns min_j of min(mu_j - lambda_j, lambda_{j+1} - mu_j); the Cauchy
    interlacing theorem makes this nonnegative up to rounding, so a margin
    >= -tol certifies the instance.
    """
    m = _matrix(a)
    minor, _ = _minor_split(m, i)
    if minor.shape[0] == 0:
        return math.inf
    lam = np.linalg.eigvalsh(m)
    mu = np.linalg.eigvalsh(minor)
    return float(np.min(np.minimum(mu - lam[:-1], lam[1:] - mu)))


def eigvec_coordinate_check(a, i: int, separation_tol: float = 1e-6) -> float:
    """Residual of the squared-coordinate identity at minor index i.

    For each eigenvalue of A separated from the whole spectrum of the i-th
    minor by more than ``separation_tol * max(1, ||A||)``, compares the
    squared i-th coordinate of its unit eigenvector against
    ``1 / (1 + sum_j (mu_j - lambda)^-2 (u_j . X)^2)``
    built from the minor's eigensystem and the off-column X; returns the
    maximum absolute difference over those eligible eigenvalue indices.

    Eigenvalues colliding with the minor's spectrum are skipped (the
    identity degenerates there); if none is eligible, raises
    :class:`SharedEigenvalueError` naming the closest pair.  A tolerance
    that is not a finite number >= 0 raises a ValueError.
    """
    m = _matrix(a)
    separation_tol = _tolerance(separation_tol, "separation_tol")
    minor, x = _minor_split(m, i)
    full = eig_sym(m)
    if minor.shape[0] == 0:
        return 0.0  # 1x1 matrix: coordinate is 1, formula gives 1
    sub = eig_sym(minor)
    sep = np.min(np.abs(sub.eigenvalues[:, None] - full.eigenvalues[None, :]), axis=0)
    eligible = sep >= separation_tol * full.scale
    if not np.any(eligible):
        k = int(np.argmin(sep))
        j = int(np.argmin(np.abs(sub.eigenvalues - full.eigenvalues[k])))
        raise SharedEigenvalueError(
            f"minor eigenvalue mu_{j}={sub.eigenvalues[j]!r} collides with "
            f"lambda_{k}={full.eigenvalues[k]!r} (separation {sep[k]:.3e})")
    proj = (sub.eigenvectors.T @ x) ** 2
    worst = 0.0
    for idx in np.flatnonzero(eligible):
        coord_sq = full.eigenvectors[i, idx] ** 2
        denom = 1.0 + float(np.sum(proj / (sub.eigenvalues - full.eigenvalues[idx]) ** 2))
        worst = max(worst, abs(coord_sq - 1.0 / denom))
    return worst


@dataclass(frozen=True, eq=False)
class SharedEigenvalueWitness:
    """Minor eigenvector nearly annihilating the off-column X."""

    vector: np.ndarray
    inner_abs: float
    minor_eigenvalue: float
    matched_eigenvalue: float


def shared_eigenvalue_witness(a, i: int, collision_tol: float) -> SharedEigenvalueWitness | None:
    """Witness eigenvector for a minor/full shared eigenvalue.

    Among minor eigenvalues within `collision_tol` of some eigenvalue of A,
    returns the minor eigenvector w minimizing |X . w| together with that
    magnitude; on exactly degenerate constructions the magnitude vanishes to
    rounding.  Returns None when no eigenvalue collides.  A tolerance that
    is not a finite number >= 0 raises a ValueError.
    """
    m = _matrix(a)
    collision_tol = _tolerance(collision_tol, "collision_tol")
    minor, x = _minor_split(m, i)
    if minor.shape[0] == 0:
        return None
    lam = np.linalg.eigvalsh(m)
    sub = eig_sym(minor)
    best: SharedEigenvalueWitness | None = None
    for j in range(sub.n):
        dist = float(np.min(np.abs(lam - sub.eigenvalues[j])))
        if dist > collision_tol:
            continue
        inner = abs(float(sub.eigenvectors[:, j] @ x))
        if best is None or inner < best.inner_abs:
            matched = float(lam[np.argmin(np.abs(lam - sub.eigenvalues[j]))])
            best = SharedEigenvalueWitness(
                vector=sub.eigenvectors[:, j].copy(),
                inner_abs=inner,
                minor_eigenvalue=float(sub.eigenvalues[j]),
                matched_eigenvalue=matched,
            )
    return best


# ---------------------------------------------------------------------------
# small-ball probability
# ---------------------------------------------------------------------------

# Bound on the copies one block of small-ball samples draws (16 MB of float64).
_BALL_ENTRIES = 2_000_000


@dataclass(frozen=True)
class SmallBallEstimate:
    """Monte Carlo estimate of the small-ball probability of sum xi_k x_k.

    `rho_hat` is the largest fraction of samples landing in any closed
    window of half-width `delta`; `std_err` is the binomial standard error
    at `rho_hat`.
    """

    rho_hat: float
    delta: float
    m: int
    std_err: float


def small_ball_estimate(x, atom: Atom, delta: float, m: int,
                        seed: SeedPath | np.random.Generator) -> SmallBallEstimate:
    """Estimate sup_a P(|sum_k xi_k x_k - a| <= delta) from m Monte Carlo sums.

    The supremum over window centers is taken exactly on the empirical
    measure by sliding a closed window of width 2*delta over the sorted
    samples, so the estimate is a plug-in upper realization of the sup.
    The samples are drawn from `seed`, a generator or the seed path of one,
    in blocks of an even number of rows: a block of fair bits then uses
    whole generator outputs, so each row's copies do not depend on how
    the rows are split into blocks.
    """
    xv = _finite_vector(x, "x")
    if _integer(m, "m") < 1000:
        raise ValueError(f"need m >= 1000 samples, got {m}")
    flag = isinstance(delta, (bool, np.bool_))  # numpy's bool is no number either
    if flag or not 0 < delta < math.inf:
        why = "a number" if flag else "finite" if delta > 0 else "positive"
        raise ValueError(f"window half-width must be {why}, got {delta}")
    (rng,) = _rngs([seed])
    n = xv.size
    sums = np.empty(m)
    block = max(2, _BALL_ENTRIES // max(1, n) // 2 * 2)
    start = 0
    while start < m:
        stop = min(m, start + block)
        sums[start:stop] = atom.sample(rng, (stop - start, n)) @ xv
        start = stop
    sums.sort()
    counts = np.searchsorted(sums, sums + 2.0 * delta, side="right") - np.arange(m)
    rho = float(np.max(counts)) / m
    return SmallBallEstimate(rho_hat=rho, delta=delta, m=m,
                             std_err=math.sqrt(rho * (1.0 - rho) / m))
