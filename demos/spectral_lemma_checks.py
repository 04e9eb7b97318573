"""Numerical verification of the spectral facts behind the PBH test.

Three checks on sampled matrices:
  * Cauchy interlacing of minor eigenvalues (margins never go negative),
  * the resolvent identity for a squared eigenvector coordinate in terms of
    the minor's spectrum and off-column,
  * the eigenvector witness that appears when a minor shares an eigenvalue
    with the full matrix (built here by construction).
"""

import sys

import numpy as np

from ctrllab import (
    SeedPath,
    eig_sym,
    eigvec_coordinate_check,
    interlacing_check,
    sample_goe,
    shared_eigenvalue_witness,
    spectral_norm,
)

checks = {}  # label -> whether it held; any False makes the exit status nonzero

root = SeedPath(11, ("demo-lemmas",))

print("Interlacing margins over 50 GOE draws at n=25 (all minor indices):")
worst = np.inf
for t in range(50):
    a = sample_goe(25, root.child("interlace", t))
    worst = min(worst, min(interlacing_check(a, i) for i in range(25)))
print(f"  worst margin {worst:.3e}  (theory: >= 0 up to rounding)")
checks["interlacing"] = worst >= -1e-10

print("\nSquared-coordinate identity residuals on the same ensemble:")
worst = 0.0
for t in range(50):
    a = sample_goe(25, root.child("coord", t))
    worst = max(worst, max(eigvec_coordinate_check(a, i) for i in range(25)))
print(f"  worst residual {worst:.3e}  (target: <= 1e-8)")
checks["squared-coordinate identity"] = worst <= 1e-8

print("\nShared-eigenvalue witness on a constructed degenerate instance:")
# give the minor an eigenpair whose eigenvector is orthogonal to the
# off-column, so the full matrix shares that eigenvalue exactly
n = 12
rng = root.child("embed").generator()
minor = sample_goe(n - 1, root.child("embed", "minor"))
es = eig_sym(minor)
w0 = es.eigenvectors[:, 4]
x = rng.normal(size=n - 1)
x -= (w0 @ x) * w0
a = np.zeros((n, n))
a[: n - 1, : n - 1] = minor
a[: n - 1, n - 1] = x
a[n - 1, : n - 1] = x
a[n - 1, n - 1] = rng.normal()
witness = shared_eigenvalue_witness(a, n - 1, collision_tol=1e-7)
print(f"  planted eigenvalue {es.eigenvalues[4]:+.6f}, "
      f"witness found at {witness.minor_eigenvalue:+.6f}, "
      f"|X . w| = {witness.inner_abs:.2e}")
checks["shared-eigenvalue witness"] = (
    abs(witness.minor_eigenvalue - es.eigenvalues[4]) <= 1e-7 and witness.inner_abs <= 1e-7)

print("\nSpectral norm growth of Rademacher Wigner matrices (one draw per n):")
from ctrllab import Atom, sample_wigner

for n in (50, 200, 800):
    a = sample_wigner(n, Atom.rademacher(), Atom.degenerate(0.0), root.child("norm", n))
    ratio = spectral_norm(a) / np.sqrt(n)
    print(f"  n={n:4d}  ||W||/sqrt(n) = {ratio:.4f}  (converges to 2)")
    checks[f"norm band at n={n}"] = 1.8 <= ratio <= 2.3  # the diag-norm scenario's band

failed = [label for label, ok in checks.items() if not ok]
if failed:
    sys.exit(f"failed checks: {', '.join(failed)}")
