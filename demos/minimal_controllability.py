"""Sparsest-input searches: NP-hard in general, usually trivial in practice.

Exhaustive search over supports of growing size, on structured fixtures where
the answer is known and on random graphs where a single well-chosen vertex
almost always suffices.
"""

import sys

import numpy as np

from ctrllab import SeedPath, basis_scan, sample_gnp, sparsest_input

checks = {}  # label -> whether it held; any False makes the exit status nonzero

print("Path graph P3: endpoints control, the middle vertex does not.")
p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
r = sparsest_input(p3)
print(f"  basis vertices that control: {sorted(r.basis_controllable)}; "
      f"k* = {r.k_star}, witness {r.witness.tolist()}")
checks["P3"] = r.basis_controllable == {0, 2} and r.k_star == 1

print("\nComplete graph K4: repeated eigenvalue, no input of any size works.")
k4 = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
r = sparsest_input(k4)
print(f"  infeasible: {r.infeasible} (supports tested: {r.supports_tested})")
checks["K4"] = r.infeasible and r.supports_tested == 0

print("\ndiag(1, 2, 3): every eigenvector is a coordinate axis, so an input")
print("needs all three coordinates; the all-ones vector on the full support works.")
r = sparsest_input(np.diag([1, 2, 3]))
print(f"  k* = {r.k_star}, witness {r.witness.tolist()} "
      f"(supports tested: {r.supports_tested})")
checks["diag(1, 2, 3)"] = r.k_star == 3 and r.witness.tolist() == [1, 1, 1] and \
    r.supports_tested == 7

print("\n100 random graphs G(10, 1/2), exact decisions:")
root = SeedPath(31, ("demo-gnp",))
k_hist = {}
for t in range(100):
    a = sample_gnp(10, 0.5, root.child(t))
    r = sparsest_input(a)
    checks[f"graph {t}: k* = 1 iff a basis input controls"] = \
        (r.k_star == 1) == bool(r.basis_controllable)
    key = "infeasible" if r.infeasible else f"k*={r.k_star}"
    k_hist[key] = k_hist.get(key, 0) + 1
for key in sorted(k_hist):
    print(f"  {key:<12} {k_hist[key]:3d} graphs")
scan = basis_scan(sample_gnp(10, 0.5, root.child(0)))
print(f"\nFor the first of those graphs, {len(scan.controllable)} of 10 single "
      f"vertices already control the whole system.")

failed = [label for label, ok in checks.items() if not ok]
if failed:
    sys.exit(f"failed checks: {', '.join(failed)}")
