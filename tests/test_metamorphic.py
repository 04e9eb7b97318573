"""Metamorphic checks of both deciders on random graphs.

Controllability of (A, b) is unchanged when A and b are permuted together,
when b is scaled by a nonzero c, when A is shifted to A + cI and when A is
negated.  The exact verdict must therefore never move under these maps,
the float verdict may only move to or from indeterminate, and a decided
float verdict must equal the exact one.  Seeded loops, so every run checks
the same 90 pairs.
"""

import numpy as np

from ctrllab import (
    EnsembleSpec,
    SeedPath,
    VectorSpec,
    is_controllable_exact,
    pbh_controllable,
    sample_ensemble,
    sample_vector,
)

SEED = SeedPath(1506, ("test-metamorphic",))
GRAPHS = 30
GNP = EnsembleSpec.gnp(0.5)


def _pairs():
    """(label, A, b, permutation) for 30 G(n, 1/2) graphs at n = 6..12 and three inputs."""
    for k in range(GRAPHS):
        n = 6 + k % 7
        path = SEED.child(k)
        a = sample_ensemble(GNP, path.child("matrix"), n)
        perm = path.child("perm").generator().permutation(n)
        bern = sample_vector(VectorSpec.bernoulli01(0.5), n, path.child("vector"))
        e0 = np.zeros(n, dtype=np.int64)
        e0[0] = 1
        for name, b in (("e0", e0), ("ones", np.ones(n, dtype=np.int64)),
                        ("bernoulli", bern.astype(np.int64))):
            yield f"graph {k} (n={n}), b={name}", a, b, perm


def _maps(a, b, perm, scales):
    n = a.shape[0]
    yield "P A P^T, P b", a[np.ix_(perm, perm)], b[perm]
    for c in scales:
        yield f"c b, c={c}", a, c * b
    for c in (-2, 5):
        yield f"A + cI, c={c}", a + c * np.eye(n, dtype=np.int64), b
    yield "-A", -a, b


def test_exact_verdict_is_invariant():
    seen = set()
    for label, a, b, perm in _pairs():
        base = is_controllable_exact(a, b)
        seen.add(base)
        for name, a2, b2 in _maps(a, b, perm, (-3, 2)):
            assert is_controllable_exact(a2, b2) == base, (label, name)
    assert seen == {True, False}  # both outcomes occur, so the checks bite


def test_float_verdict_never_flips_and_matches_exact():
    decided = 0
    for label, a, b, perm in _pairs():
        exact = "controllable" if is_controllable_exact(a, b) else "uncontrollable"
        base = pbh_controllable(a, b).decision
        for name, a2, b2 in [("identity", a, b), *_maps(a, b, perm, (-3, 2, 1e200, 1e-200))]:
            got = pbh_controllable(a2, b2).decision
            assert {base, got} != {"controllable", "uncontrollable"}, (label, name)
            if got != "indeterminate":
                decided += 1
                assert got == exact, (label, name)
    assert decided >= 0.9 * GRAPHS * 3 * 8
