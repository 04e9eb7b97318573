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
from dataclasses import dataclass

import numpy as np

from .codec import Record
from .ensembles import Atom
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
    "min_gap",
    "spectral_norm",
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
    """Ascending eigenvalues and orthonormal eigenvectors (as columns).

    Ordering is the ascending order returned by LAPACK; for degenerate
    fixtures the tie order is whatever the solver produced, which is
    deterministic for a fixed input matrix.  `gap` (the minimal eigenvalue
    gap) and `norm` (max |lambda|) are computed on construction unless
    given; :func:`eig_sym` computes them for a whole stack at once.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float | None = None
    norm: float | None = None

    def __post_init__(self) -> None:
        w = self.eigenvalues
        if self.gap is None:
            object.__setattr__(self, "gap", min_gap(w))
        if self.norm is None:
            object.__setattr__(self, "norm", float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def scale(self) -> float:
        """max(1, ||A||), the scale of the gap thresholds."""
        return max(1.0, self.norm)

    def residual(self, a: np.ndarray) -> float:
        """max_i ||A v_i - lambda_i v_i||, for invariant checks."""
        r = a @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.linalg.norm(r, axis=0)))

    def orthonormality_defect(self) -> float:
        """max_ij |v_i . v_j - delta_ij|."""
        g = self.eigenvectors.T @ self.eigenvectors
        return float(np.max(np.abs(g - np.eye(self.n))))

    def gap_and_scale(self) -> tuple[float, float]:
        """Minimal eigenvalue gap and max(1, ||A||), the scale of its thresholds."""
        return self.gap, self.scale


def nonfinite_error(a: np.ndarray, what: str) -> ValueError:
    """ValueError naming the non-finite entries of `a` (the first three)."""
    bad = np.argwhere(~np.isfinite(a))
    shown = ", ".join(f"[{', '.join(str(int(k)) for k in idx)}] = {a[tuple(idx)]}"
                      for idx in bad[:3])
    more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
    return ValueError(f"{what} has non-finite entries: {shown}{more}")


def _as_sym_float(a, what: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise nonfinite_error(m, what)
    if (m != m.T).any():
        raise ValueError(f"{what} is not exactly symmetric")
    return m


def _as_sym_float_stack(a) -> np.ndarray:
    """`a`, a (T, n, n) stack, as float64; an error names the first matrix at fault."""
    m = np.asarray(a, dtype=np.float64)
    if m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.isfinite(m).all() or (m != m.transpose(0, 2, 1)).any():
        for t, x in enumerate(m):
            _as_sym_float(x, f"matrix {t} of the stack")
    return m


def eig_sym(a, label=None) -> EigenSystem | list[EigenSystem]:
    """Full symmetric eigendecomposition (eigenvalues ascending).

    `label` is carried into the error message on non-convergence so the
    failing matrix can be re-derived from its seed path.

    A (T, n, n) stack gives a list of T :class:`EigenSystem`, each
    bit-identical to its matrix's own decomposition: one stacked LAPACK
    call decomposes them all, and their gaps and norms are computed for the
    whole stack at once.  A non-finite or asymmetric matrix of the stack is
    named by its index.  `label` then holds one label per matrix; if the
    stack fails to converge, each matrix is retried alone, so the error
    carries the label of the first one that fails.
    """
    if np.ndim(a) != 3:
        return _eig_stack(_as_sym_float(a)[None], [label])[0]
    m = _as_sym_float_stack(a)
    labels = [None] * len(m) if label is None else list(label)
    if len(labels) != len(m):
        raise ValueError(f"{len(labels)} labels for a stack of {len(m)} matrices")
    return _eig_stack(m, labels)


def _eig_stack(m: np.ndarray, labels: list) -> list[EigenSystem]:
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as stacked:
        for x, label in zip(m, labels):
            try:
                np.linalg.eigh(x)
            except np.linalg.LinAlgError as exc:
                where = f" ({label})" if label is not None else ""
                raise EigenDecompositionError(f"eigh failed to converge{where}: {exc}") from exc
        raise EigenDecompositionError(f"eigh failed to converge: {stacked}") from stacked
    t, n = w.shape
    gaps = np.min(np.diff(w, axis=1), axis=1).tolist() if n > 1 else [math.inf] * t
    norms = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])).tolist() if n else [0.0] * t
    return [EigenSystem(w[i], v[i], gaps[i], norms[i]) for i in range(t)]


def min_gap(eigenvalues) -> float:
    """Minimal spacing of an ascending eigenvalue list; +inf for n = 1."""
    w = np.asarray(eigenvalues, dtype=np.float64)
    if w.size <= 1:
        return math.inf
    return float(np.min(np.diff(w)))


def spectral_norm(a) -> float:
    """max_i |lambda_i| of a symmetric matrix."""
    w = np.linalg.eigvalsh(_as_sym_float(a))
    return float(max(abs(w[0]), abs(w[-1])))


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
        if not 0 <= self.gap_reject <= self.gap_tol:
            raise ValueError("need 0 <= gap_reject <= gap_tol")
        if not 0 <= self.ortho_reject <= self.ortho_tol:
            raise ValueError("need 0 <= ortho_reject <= ortho_tol")


DEFAULT_TOLERANCES = Tolerances()

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


def classify(gap: float, inner: float, scale: float, norm_b: float, tol: Tolerances) -> str:
    """The PBH threshold test on a pair's two witnesses.

    `gap` is the minimal eigenvalue gap, judged relative to `scale`
    = max(1, ||A||); `inner` is min_j |v_j . b|, judged relative to `norm_b`.
    Either witness below its reject level means uncontrollable, both above
    their accept levels controllable, anything else indeterminate.
    """
    if inner < tol.ortho_reject * norm_b or gap < tol.gap_reject * scale:
        return UNCONTROLLABLE
    if gap > tol.gap_tol * scale and inner > tol.ortho_tol * norm_b:
        return CONTROLLABLE
    return INDETERMINATE


def pbh_controllable(a, b, tolerances: Tolerances | None = None,
                     eigsys: EigenSystem | None = None) -> ControllabilityVerdict:
    """Three-valued PBH controllability verdict for a symmetric pair (A, b).

    Controllable requires the spectrum to be numerically simple *and* every
    eigenvector to have a non-negligible component along b; uncontrollable
    requires a witness below the reject threshold; anything in between is
    indeterminate (see :func:`classify`).  Pass a precomputed `eigsys` to
    amortize one factorization over many input vectors.  A nonzero b whose
    norm overflows or underflows is judged as b / max|b|, and the witnesses
    then refer to that vector.
    """
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    if eigsys is None:
        eigsys = eig_sym(a)
    gap, scale = eigsys.gap_and_scale()
    bv = np.asarray(b, dtype=np.float64)
    if bv.shape != (eigsys.n,):
        raise ValueError(f"dimension mismatch: A is {eigsys.n}x{eigsys.n}, b has shape {bv.shape}")
    with np.errstate(over="ignore"):  # a huge finite b is rescaled below
        norm_b = float(np.linalg.norm(bv))
    if not math.isfinite(norm_b) and not np.isfinite(bv).all():
        raise nonfinite_error(bv, "input vector")
    if (norm_b == 0.0 or math.isinf(norm_b)) and bv.any():
        bv = bv / np.max(np.abs(bv))
        norm_b = float(np.linalg.norm(bv))
    if norm_b == 0.0:
        return ControllabilityVerdict(UNCONTROLLABLE, min_gap=gap, min_abs_inner=0.0)
    inner = float(np.min(np.abs(eigsys.eigenvectors.T @ bv)))
    return ControllabilityVerdict(classify(gap, inner, scale, norm_b, tol),
                                  min_gap=gap, min_abs_inner=inner)


def basis_witnesses(eigsys: EigenSystem) -> tuple[float, float, np.ndarray]:
    """PBH witnesses of (A, e_i) for every standard basis input at once.

    Returns (gap, scale, inner) for :func:`classify` with norm_b = 1, where
    inner[i] = min_j |v_j . e_i| = min_j |V[i, j]| needs no product with b.
    """
    gap, scale = eigsys.gap_and_scale()
    return gap, scale, np.min(np.abs(eigsys.eigenvectors), axis=1)


# ---------------------------------------------------------------------------
# minor-based verifiers
# ---------------------------------------------------------------------------

def _minor_split(a: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate index i to the last slot; return (minor, off-column X)."""
    n = a.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"minor index {i} out of range for n={n}")
    keep = [k for k in range(n) if k != i]
    minor = a[np.ix_(keep, keep)]
    x = a[keep, i]
    return minor, x


def interlacing_check(a, i: int) -> float:
    """Worst interlacing margin of the i-th minor's eigenvalues.

    Returns min_j of min(mu_j - lambda_j, lambda_{j+1} - mu_j); the Cauchy
    interlacing theorem makes this nonnegative up to rounding, so a margin
    >= -tol certifies the instance.
    """
    m = _as_sym_float(a)
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
    :class:`SharedEigenvalueError` naming the closest pair.
    """
    m = _as_sym_float(a)
    minor, x = _minor_split(m, i)
    full = eig_sym(m)
    scale = max(1.0, float(np.max(np.abs(full.eigenvalues))))
    if minor.shape[0] == 0:
        return 0.0  # 1x1 matrix: coordinate is 1, formula gives 1
    sub = eig_sym(minor)
    sep = np.min(np.abs(sub.eigenvalues[:, None] - full.eigenvalues[None, :]), axis=0)
    eligible = sep >= separation_tol * scale
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
    rounding.  Returns None when no eigenvalue collides.
    """
    m = _as_sym_float(a)
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


def small_ball_estimate(x, atom: Atom, delta: float, m: int, seed: SeedPath) -> SmallBallEstimate:
    """Estimate sup_a P(|sum_k xi_k x_k - a| <= delta) from m Monte Carlo sums.

    The supremum over window centers is taken exactly on the empirical
    measure by sliding a closed window of width 2*delta over the sorted
    samples, so the estimate is a plug-in upper realization of the sup.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 1:
        raise ValueError("x must be a vector")
    if m < 1000:
        raise ValueError(f"need m >= 1000 samples, got {m}")
    if delta <= 0:
        raise ValueError(f"window half-width must be positive, got {delta}")
    rng = seed.generator()
    n = xv.size
    sums = np.empty(m)
    block = max(1, 2_000_000 // max(1, n))
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
