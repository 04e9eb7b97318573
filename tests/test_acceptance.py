"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
Criteria 6 and 7 use bounds frozen from a pilot run (master seed 20260810):
the conj1 n=64 frequency measured 1.000 over 200 trials, and the spectral
norm ratio band [1.8, 2.3] held in 100% of trials.
"""

import math

import numpy as np

from ctrllab import (
    DEFAULT_TOLERANCES,
    Atom,
    EnsembleSpec,
    SeedPath,
    VectorSpec,
    basis_scan,
    eigvec_coordinate_check,
    has_simple_spectrum_exact,
    interlacing_check,
    is_controllable_exact,
    make_scenario_config,
    pbh_controllable,
    report_csv,
    run_experiment,
    run_trial,
    sample_ensemble,
    small_ball_estimate,
    sparsest_input,
)
from ctrllab.spectral import SharedEigenvalueError

MASTER = 20260810
GNP = EnsembleSpec.gnp(0.5)
GOE = EnsembleSpec.goe()


def _ok(num: int, name: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): PASS")


def test_c1_deterministic_fixtures():
    p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    assert is_controllable_exact(p3, [1, 0, 0]) is True
    assert is_controllable_exact(p3, [0, 1, 0]) is False
    for n in range(2, 51):
        kn = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        assert is_controllable_exact(kn, np.ones(n, dtype=np.int64), cap=None) is False
    d = np.diag([1, 2, 3]).astype(np.int64)
    for i in range(3):
        e = np.zeros(3, dtype=np.int64)
        e[i] = 1
        assert is_controllable_exact(d, e) is False
    rng = np.random.default_rng(1)
    for n in (2, 3, 7, 12):
        eye = np.eye(n, dtype=np.int64)
        for b in (np.ones(n, dtype=np.int64), rng.integers(-5, 6, n)):
            assert is_controllable_exact(eye, b) is False
    _ok(1, "deterministic exact fixtures")


def test_c2_exact_float_cross_validation():
    tol = DEFAULT_TOLERANCES
    root = SeedPath(MASTER, ("accept-xval",))
    compared = agreed = indeterminate = 0
    for n in (4, 8, 12, 16):
        e = np.zeros(n, dtype=np.int64)
        e[0] = 1
        for t in range(500):
            a = sample_ensemble(GNP, root.child(n, t), n)
            verdict = pbh_controllable(a.astype(float), e.astype(float))
            exact = is_controllable_exact(a, e)
            if verdict.indeterminate:
                indeterminate += 1
                continue
            compared += 1
            if verdict.controllable == exact:
                agreed += 1
            else:
                scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(a.astype(float))))))
                gap_near = (tol.gap_reject * scale / 10.0 <= verdict.min_gap
                            <= 10.0 * tol.gap_tol * scale)
                inner_near = (tol.ortho_reject / 10.0 <= verdict.min_abs_inner
                              <= 10.0 * tol.ortho_tol)
                assert gap_near or inner_near, (n, t, verdict)
    assert compared > 0
    assert agreed / compared >= 0.995, f"agreement {agreed}/{compared}"
    _ok(2, f"exact/float agreement {agreed}/{compared}, {indeterminate} indeterminate")


def test_c3_lemma_verifiers_on_goe():
    root = SeedPath(MASTER, ("accept-lemmas",))
    interlace_checks = coord_checks = 0
    for t in range(200):
        a = sample_ensemble(GOE, root.child(t), 20)
        for i in range(20):
            assert interlacing_check(a, i) >= -1e-10
            interlace_checks += 1
            try:
                residual = eigvec_coordinate_check(a, i, separation_tol=1e-6)
            except SharedEigenvalueError:
                continue  # no eligible eigenvalue index at this minor
            assert residual <= 1e-8
            coord_checks += 1
    assert interlace_checks == 200 * 20
    assert coord_checks > 0.99 * interlace_checks
    _ok(3, f"interlacing x{interlace_checks}, coordinate identity x{coord_checks}")


def test_c4_goe_controllable_with_probability_one():
    for vec, tag in ((VectorSpec.standard_basis(0), "basis"),
                     (VectorSpec.uniform_sphere(), "sphere")):
        config = make_scenario_config("thm-goe", n_grid=(30,), trials=1000,
                                      master_seed=MASTER, vector=vec)
        (row,) = run_experiment(config).rows
        assert row.successes == 1000, f"{tag}: {row}"
        assert row.indeterminates == 0
    _ok(4, "GOE almost-sure controllability, 2x1000 trials")


def test_c5_small_ball_closed_forms():
    m = 100_000
    delta = 0.1
    gaussian_rho = 2.0 * (0.5 * (1.0 + math.erf(delta / math.sqrt(2.0)))) - 1.0
    cases = [
        ([1.0], Atom.rademacher(), 0.5),
        (np.array([1.0, 1.0]) / math.sqrt(2.0), Atom.rademacher(), 0.5),
        ([0.6, 0.8], Atom.gaussian(), gaussian_rho),
    ]
    for idx, (x, atom, rho) in enumerate(cases):
        est = small_ball_estimate(x, atom, delta, m, SeedPath(MASTER, ("accept-sb", idx)))
        assert abs(est.rho_hat - rho) <= 3.0 * est.std_err, (idx, est)
    _ok(5, "small-ball estimator vs closed forms at m=1e5")


def test_c6_conj1_trend_and_pinned_level():
    config = make_scenario_config("conj1", n_grid=(8, 16, 32, 64), trials=200,
                                  method="float-pbh", master_seed=MASTER)
    rows = run_experiment(config).rows
    for a, b in zip(rows, rows[1:]):
        ci_overlap = max(a.ci_lo, b.ci_lo) <= min(a.ci_hi, b.ci_hi)
        assert b.frequency >= a.frequency or ci_overlap, (a, b)
    # pilot-pinned regression bound: n=64 frequency measured 1.000
    assert rows[-1].frequency >= 0.975, rows[-1]
    _ok(6, "conj1 trend over n=8..64, n=64 frequency "
           f"{rows[-1].frequency:.3f} >= 0.975")


def test_c7_spectral_norm_concentration():
    config = make_scenario_config("diag-norm", n_grid=(100, 400), trials=200,
                                  master_seed=MASTER)
    rows = run_experiment(config).rows
    for row in rows:
        assert row.frequency >= 0.95, row  # band [1.8, 2.3] pinned in preset
    _ok(7, "norm ratio in [1.8, 2.3] for >=95% of trials at n=100, 400")


def test_c8_minimal_controllability_on_gnp():
    root = SeedPath(MASTER, ("accept-minctrl",))
    simple_count = basis_hits = 0
    for t in range(100):
        a = sample_ensemble(GNP, root.child(t), 10)
        result = sparsest_input(a)
        if not has_simple_spectrum_exact(a):
            assert result.infeasible
            continue
        simple_count += 1
        scan = basis_scan(a)
        if scan.controllable:
            basis_hits += 1
            assert result.k_star == 1
            assert np.array_equal(sorted(result.basis_controllable),
                                  sorted(scan.controllable))
    assert simple_count > 0 and basis_hits > 0
    _ok(8, f"minctrl on 100 graphs: {basis_hits} basis-controllable, "
           f"{100 - simple_count} degenerate")


def test_c9_reproducibility(tmp_path):
    config = make_scenario_config("cor-gnp-rand", n_grid=(6, 10), trials=25,
                                  master_seed=MASTER)
    first = run_experiment(config)
    second = run_experiment(config)
    assert report_csv(first) == report_csv(second)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    path_a.write_bytes(report_csv(first).encode())
    path_b.write_bytes(report_csv(second).encode())
    assert path_a.read_bytes() == path_b.read_bytes()
    # single-trial isolation: the record reproduces its verdict bit-exactly
    record = run_trial(config, 10, 13)
    again = run_trial(config, 10, 13)
    assert record == again
    assert record.witnesses == again.witnesses
    _ok(9, "byte-identical CSV and single-trial reproduction")
