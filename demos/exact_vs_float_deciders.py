"""Exact Kalman-rank decisions vs the floating-point PBH test.

Walks through the hand-checkable fixtures (path graph, complete graph,
diagonal matrices) with both deciders, then cross-validates them on a few
hundred random graphs where the exact path is the ground truth.
"""

import sys

import numpy as np

from ctrllab import (
    EnsembleSpec,
    SeedPath,
    is_controllable_exact,
    kalman_matrix,
    pbh_controllable,
    rank_exact,
    sample_ensemble,
)

checks = {}  # label -> whether it held; any False makes the exit status nonzero

# --- fixtures ---------------------------------------------------------------

P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)  # path graph
K3 = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)  # triangle

print("Path graph P3, input at an endpoint:")
k = kalman_matrix(P3, [1, 0, 0])
print(k)
endpoint = is_controllable_exact(P3, [1, 0, 0])
print("  Kalman rank:", rank_exact(k), "-> controllable:", endpoint)
checks["P3 endpoint"] = endpoint and rank_exact(k) == 3

print("\nPath graph P3, input at the middle vertex:")
middle = is_controllable_exact(P3, [0, 1, 0])
print("  exact:", middle)
checks["P3 middle, exact"] = not middle
v = pbh_controllable(P3.astype(float), [0.0, 1.0, 0.0])
checks["P3 middle, float"] = v.decision == "uncontrollable"
print(f"  float: {v.decision} (the eigenvector (1,0,-1)/sqrt(2) is orthogonal "
      f"to e_2; measured inner product {v.min_abs_inner:.2e})")

print("\nTriangle K3 has a repeated eigenvalue, so nothing controls it:")
v = pbh_controllable(K3.astype(float), [1.0, -2.0, 0.5])
checks["K3, float"] = v.decision == "uncontrollable"
print(f"  float: {v.decision} (min eigenvalue gap {v.min_gap:.2e})")
all_ones = is_controllable_exact(K3, [1, 1, 1])
print("  exact with the all-ones vector:", all_ones)
checks["K3 all-ones, exact"] = not all_ones

# --- cross-validation on random graphs --------------------------------------

print("\nCross-validation on G(n, 1/2), input e_1:")
root = SeedPath(7, ("demo-xval",))
for n in (6, 10, 14):
    agree = total = 0
    for t in range(200):
        a = sample_ensemble(EnsembleSpec.gnp(0.5), root.child(n, t), n)
        e = np.zeros(n)
        e[0] = 1.0
        verdict = pbh_controllable(a.astype(float), e)
        if verdict.indeterminate:
            continue
        total += 1
        agree += verdict.controllable == is_controllable_exact(a, e.astype(np.int64))
    print(f"  n={n:2d}: float agrees with exact on {agree}/{total} decided trials")
    checks[f"agreement at n={n}"] = total > 0 and agree == total

failed = [label for label, ok in checks.items() if not ok]
if failed:
    sys.exit(f"failed checks: {', '.join(failed)}")
