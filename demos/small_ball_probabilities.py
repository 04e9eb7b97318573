"""Anti-concentration of weighted sums, estimated by sliding windows.

First reproduces the closed-form small-ball probabilities of a few simple
weight vectors, then estimates the small-ball probability of actual Wigner
eigenvectors: as the dimension grows the mass any fixed-width window can
capture shrinks, which is exactly the mechanism keeping eigenvectors
non-orthogonal to discrete random inputs.
"""

import math
import sys

import numpy as np

from ctrllab import Atom, SeedPath, eig_sym, sample_wigner, small_ball_estimate

checks = {}  # label -> whether it held; any False makes the exit status nonzero

root = SeedPath(23, ("demo-smallball",))
m = 100_000

print("Closed-form cases, window half-width 0.1:")
cases = [
    ("single Rademacher coordinate", [1.0], Atom.rademacher(), 0.5),
    ("two equal coordinates", list(np.array([1.0, 1.0]) / math.sqrt(2)),
     Atom.rademacher(), 0.5),
    ("Gaussian sum (any unit x)", [0.6, 0.8], Atom.gaussian(),
     math.erf(0.1 / math.sqrt(2))),
]
for idx, (label, x, atom, truth) in enumerate(cases):
    est = small_ball_estimate(x, atom, 0.1, m, root.child(idx))
    print(f"  {label:<30} rho_hat={est.rho_hat:.4f}  exact={truth:.4f}  "
          f"(se {est.std_err:.4f})")
    checks[label] = abs(est.rho_hat - truth) <= 4 * est.std_err

print("\nEigenvectors of Rademacher Wigner matrices, window n^(-1/4):")
rho = []
for n in (16, 64, 256):
    a = sample_wigner(n, Atom.rademacher(), Atom.degenerate(0.0), root.child("w", n))
    v = eig_sym(a).eigenvectors[:, n // 2]  # a bulk eigenvector
    est = small_ball_estimate(v, Atom.rademacher(), n ** -0.25, 20_000,
                              root.child("est", n))
    print(f"  n={n:4d}  delta={est.delta:.3f}  rho_hat={est.rho_hat:.4f}")
    rho.append(est.rho_hat)
checks["eigenvector rho_hat shrinks with n"] = rho == sorted(rho, reverse=True)
print("\nSmall rho_hat means no window captures much mass: the inner product "
      "of an\neigenvector with a fresh random input is rarely near any fixed "
      "value,\nincluding zero.")

failed = [label for label, ok in checks.items() if not ok]
if failed:
    sys.exit(f"failed checks: {', '.join(failed)}")
