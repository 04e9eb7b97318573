import json

import numpy as np
import pytest

from ctrllab import (
    ExperimentConfig,
    SCENARIOS,
    make_scenario_config,
    report_csv,
    report_emit,
    report_json,
    run_experiment,
    run_trial,
    scenario_presets,
    wilson_interval,
)
from ctrllab import exact, harness
from ctrllab.exact import _P
from ctrllab.spectral import EigenDecompositionError
from ctrllab.harness import CSV_COLUMNS, ExperimentReport, report_load_json


def overlap(row_a, row_b) -> bool:
    return max(row_a.ci_lo, row_b.ci_lo) <= min(row_a.ci_hi, row_b.ci_hi)


# ---------------------------------------------------------------------------
# wilson interval
# ---------------------------------------------------------------------------

def test_wilson_interval_bounds_and_coverage():
    for successes, trials in [(0, 10), (5, 10), (10, 10), (199, 200), (1, 1000)]:
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_narrows_with_trials():
    lo1, hi1 = wilson_interval(90, 100)
    lo2, hi2 = wilson_interval(900, 1000)
    assert hi2 - lo2 < hi1 - lo1


# ---------------------------------------------------------------------------
# configs and presets
# ---------------------------------------------------------------------------

def test_all_presets_are_complete_and_valid():
    presets = scenario_presets()
    assert set(presets) == set(SCENARIOS)
    for config in presets.values():
        config.validate()
        assert config.trials >= 1
        assert all(isinstance(n, int) for n in config.n_grid)


def test_conj1_preset_documented_defaults():
    config = make_scenario_config("conj1")
    assert config.p == 0.5
    assert config.n_grid == (8, 16, 24)
    assert config.method == "both"


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        make_scenario_config("no-such-scenario")
    with pytest.raises(ValueError):
        make_scenario_config("conj1", trials=0)
    with pytest.raises(ValueError):
        make_scenario_config("conj1", n_grid=(8, 8))
    with pytest.raises(ValueError):
        make_scenario_config("conj1", n_grid=(16, 8))
    with pytest.raises(ValueError):
        make_scenario_config("conj1", method="quantum")
    with pytest.raises(ValueError):
        make_scenario_config("minctrl-gnp", n_grid=(40,))  # exact beyond cap
    with pytest.raises(ValueError):
        make_scenario_config("conj1", p=1.0)  # fixtures only, not experiments
    with pytest.raises(ValueError):
        make_scenario_config("thm-goe", p=0.4)  # no density parameter


def test_config_overrides():
    config = make_scenario_config("conj1", n_grid=(4, 6), trials=7, p=0.25,
                                  master_seed=9, method="float-pbh",
                                  gap_tol=1e-7, ortho_tol=1e-8)
    assert config.n_grid == (4, 6)
    assert config.trials == 7
    assert config.p == 0.25 and config.ensemble.p == 0.25
    assert config.master_seed == 9
    assert config.tolerances.gap_tol == 1e-7
    assert config.tolerances.ortho_tol == 1e-8


def test_config_dict_round_trip():
    config = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=3)
    rebuilt = ExperimentConfig.from_dict(config.to_dict())
    assert rebuilt.to_dict() == config.to_dict()


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_run_experiment_bookkeeping():
    config = make_scenario_config("thm-goe", n_grid=(10,), trials=100)
    report = run_experiment(config)
    (row,) = report.rows
    assert row.trials == 100
    assert row.successes + row.indeterminates <= 100
    assert row.frequency == row.successes / 100
    assert row.ci_lo <= row.frequency <= row.ci_hi
    assert row.seed == config.master_seed
    assert report.version


def test_kn_allones_fixture_never_succeeds():
    config = make_scenario_config("kn-allones", n_grid=(5, 10), trials=10)
    report = run_experiment(config)
    for row in report.rows:
        assert row.successes == 0
        assert row.frequency == 0.0
    assert report.agreement is not None
    assert report.agreement["agreed"] == report.agreement["compared"]


def test_identical_configs_make_identical_csv():
    config = make_scenario_config("cor-gnp-rand", n_grid=(6, 8), trials=15)
    csv_a = report_csv(run_experiment(config))
    csv_b = report_csv(run_experiment(config))
    assert csv_a == csv_b


def test_trial_order_does_not_change_report():
    config = make_scenario_config("thm-wigner-rand", n_grid=(6, 10), trials=12)
    cells = [(n, t) for n in config.n_grid for t in range(config.trials)]
    forward = [run_trial(config, n, t) for n, t in cells]
    backward = [run_trial(config, n, t) for n, t in reversed(cells)]
    assert backward[::-1] == forward
    rows = run_experiment(config).rows
    assert [(r.n, r.successes, r.indeterminates) for r in rows] == [
        (n, sum(rec.success for rec in forward if rec.n == n),
         sum(rec.indeterminate for rec in forward if rec.n == n)) for n in config.n_grid]


def test_single_trial_rerun_reproduces_record():
    config = make_scenario_config("conj1", n_grid=(8,), trials=5)
    report_records = [run_trial(config, 8, t) for t in range(5)]
    again = run_trial(config, 8, 3)
    assert again == report_records[3]
    assert again.verdicts == report_records[3].verdicts
    assert again.witnesses == report_records[3].witnesses
    assert again.seed_path().labels == ("conj1", 8, 3)


def test_extending_grid_preserves_earlier_trials():
    small = make_scenario_config("thm-goe", n_grid=(10,), trials=5)
    large = make_scenario_config("thm-goe", n_grid=(10, 20), trials=5)
    for t in range(5):
        assert run_trial(small, 10, t) == run_trial(large, 10, t)


def test_indeterminates_never_count_as_successes():
    config = make_scenario_config("thm-goe", n_grid=(6,), trials=20, gap_tol=10.0)
    report = run_experiment(config)
    (row,) = report.rows
    assert row.indeterminates == 20
    assert row.successes == 0


def test_both_method_records_agreement():
    config = make_scenario_config("conj2", n_grid=(6, 8), trials=20)
    report = run_experiment(config)
    assert report.agreement is not None
    assert report.agreement["compared"] > 0
    assert report.agreement["agreed"] == report.agreement["compared"]


def chunk_size(config, n: int) -> int:
    """Trials per chunk at grid point n."""
    return len(harness._chunks(make_scenario_config(config.scenario, trials=10**4), n)[0])


@pytest.mark.parametrize("name, n_grid", [
    ("conj1", (8, 16)), ("conj2", (8,)), ("cor-gnp-rand", (8,)), ("kn-allones", (5,)),
    ("minctrl-gnp", (8,)), ("thm-goe", (10,)), ("thm-wigner-basis", (32,)),
    ("thm-wigner-rand", (16,)), ("thm-wigner-sphere", (32,)), ("diag-smallball", (32,)),
])
def test_chunked_records_equal_standalone_trials(monkeypatch, name, n_grid):
    # run_experiment decides each chunk of trials in one batch, then builds
    # every record with exactly one run_trial call (the benchmark tracer
    # times trials at run_trial); the records are those of standalone trials
    boundary = chunk_size(make_scenario_config(name), n_grid[0])
    assert boundary > 1
    real_run_trial = harness.run_trial
    for trials in (boundary - 1, boundary, boundary + 1):
        config = make_scenario_config(name, n_grid=n_grid, trials=trials)
        calls, built = [], []

        def counted(config, n, trial, **kwargs):
            calls.append((n, trial))
            built.append(real_run_trial(config, n, trial, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "run_trial", counted)
        report = run_experiment(config)
        monkeypatch.setattr(harness, "run_trial", real_run_trial)
        cells = [(n, t) for n in n_grid for t in range(trials)]
        assert calls == cells
        standalone = [run_trial(config, n, t) for n, t in cells]
        assert built == standalone
        assert [(rec.verdicts, rec.witnesses) for rec in built] == \
            [(rec.verdicts, rec.witnesses) for rec in standalone]
        assert [row.trials for row in report.rows] == [trials] * len(n_grid)
        assert [row.successes for row in report.rows] == \
            [sum(rec.success for rec in standalone if rec.n == n) for n in n_grid]


def test_float_only_chunks_are_bounded_by_matrix_entries():
    # a chunk holds T * m * n^2 <= 2**14 Krylov entries when its Kalman ranks
    # of m basis inputs are decided, T * n^2 float entries otherwise
    assert chunk_size(make_scenario_config("conj1"), 16) == 4
    assert chunk_size(make_scenario_config("thm-wigner-basis"), 32) == 16
    assert len(harness._chunks(make_scenario_config("conj1", method="float-pbh", trials=10**4),
                               16)[0]) == 64
    assert chunk_size(make_scenario_config("diag-norm"), 400) == 1


def test_eigh_failure_names_the_failing_trial(monkeypatch):
    # the stacked eigh fails when one matrix of the chunk does; each matrix
    # is then retried alone, and the error carries that trial's seed path
    config = make_scenario_config("thm-goe", n_grid=(10,), trials=20)
    (bad_path, (bad, _), _, _), = harness._draw_chunk(config, 10, [7])
    real_eigh = np.linalg.eigh
    shapes = []

    def failing(a):
        shapes.append(np.shape(a))
        if (np.asarray(a) == bad).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    label = str(bad_path.labels).replace("(", r"\(").replace(")", r"\)")
    assert bad_path.labels == ("thm-goe", 10, 7)
    with pytest.raises(EigenDecompositionError, match=rf"eigh failed to converge \({label}\)"):
        run_experiment(config)
    assert shapes[0] == (20, 10, 10)  # the whole chunk, then matrices 0..7 alone
    assert shapes[1:] == [(10, 10)] * 8
    with pytest.raises(EigenDecompositionError, match=label):
        run_trial(config, 10, 7)
    assert run_trial(config, 10, 6).verdicts == {"float": "controllable"}


def test_certificate_leaves_exact_records_unchanged(monkeypatch):
    # the same cells with the mod-_P certificates switched off, so every
    # Kalman rank, full or not, and every spectrum's Hankel rank goes
    # through Bareiss
    configs = [
        make_scenario_config("conj1", n_grid=(8, 16, 24), trials=2),
        make_scenario_config("conj2", n_grid=(8, 24), trials=3),
        make_scenario_config("cor-gnp-rand", n_grid=(8, 16), trials=3),
        make_scenario_config("kn-allones", n_grid=(5,), trials=2),
        make_scenario_config("minctrl-gnp", n_grid=(8, 10), trials=4),
    ]

    def run_all():
        return ([run_trial(c, n, t) for c in configs for n in c.n_grid for t in range(c.trials)],
                [report_csv(run_experiment(c)) for c in configs])

    certified = run_all()
    bareiss = []
    real_rank = exact.rank_exact
    monkeypatch.setattr(exact, "rank_exact", lambda m: bareiss.append(1) or real_rank(m))
    monkeypatch.setattr(exact, "_certified_ranks",
                        lambda mats, cols: [[None] * cols.shape[-1] for _ in mats])
    monkeypatch.setattr(exact, "_certified_simple_spectrum", lambda a: None)
    assert run_all() == certified
    # the switch reaches the batched chunks: conj1 sends every basis input
    # of every trial to Bareiss
    bareiss.clear()
    run_experiment(configs[0])
    assert len(bareiss) == configs[0].trials * sum(configs[0].n_grid)


def test_conj1_trial_falls_back_when_certificate_fails(monkeypatch):
    # A vanishes mod _P, but both basis inputs are controllable over Q
    a = np.array([[0, _P], [_P, 0]], dtype=np.int64)
    monkeypatch.setattr(harness, "sample_ensemble", lambda spec, path, n: a)
    config = make_scenario_config("conj1", n_grid=(2,), trials=1)
    rec = run_trial(config, 2, 0)
    assert rec.success
    assert rec.verdicts == {"float": "controllable", "exact": "controllable"}
    assert rec.witnesses["rank"] == 2.0


def test_trend_across_wigner_scenarios():
    # success frequency is non-decreasing in n up to Wilson-CI overlap
    for name in ("thm-wigner-basis", "thm-wigner-rand", "thm-wigner-sphere"):
        config = make_scenario_config(name, n_grid=(8, 16, 32), trials=100)
        rows = run_experiment(config).rows
        for a, b in zip(rows, rows[1:]):
            assert b.frequency >= a.frequency or overlap(a, b), (name, a, b)


def test_smallball_scenario_runs():
    config = make_scenario_config("diag-smallball", n_grid=(16,), trials=5)
    report = run_experiment(config)
    (row,) = report.rows
    assert row.trials == 5
    rec = run_trial(config, 16, 0)
    assert 0.0 <= rec.witnesses["rho_hat"] <= 1.0
    assert rec.witnesses["delta"] == pytest.approx(16 ** -0.25)


def test_minctrl_scenario_runs():
    config = make_scenario_config("minctrl-gnp", n_grid=(8,), trials=10)
    report = run_experiment(config)
    (row,) = report.rows
    assert row.trials == 10
    rec = run_trial(config, 8, 0)
    assert rec.witnesses["k_star"] >= -1.0


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_csv_columns_pinned():
    assert ",".join(CSV_COLUMNS) == (
        "scenario,n,p,trials,successes,indeterminates,frequency,"
        "ci_lo,ci_hi,method,seed,gap_tol,ortho_tol")


def test_empty_grid_gives_header_only_csv():
    config = make_scenario_config("thm-goe", n_grid=())
    report = run_experiment(config)
    assert report_csv(report) == ",".join(CSV_COLUMNS) + "\n"


def test_csv_floats_have_17_significant_digits():
    config = make_scenario_config("thm-goe", n_grid=(6,), trials=3)
    report = run_experiment(config)
    line = report_csv(report).splitlines()[1]
    cells = dict(zip(CSV_COLUMNS, line.split(",")))
    assert float(cells["ci_lo"]) == report.rows[0].ci_lo  # lossless round trip
    assert cells["gap_tol"] == format(1e-8, ".17g")
    assert cells["p"] == ""  # scenario has no density parameter


def test_report_emit_csv_and_json_files(tmp_path):
    config = make_scenario_config("kn-allones", n_grid=(5,), trials=4)
    report = run_experiment(config)
    csv_path = report_emit(report, str(tmp_path / "out.csv"), "csv")
    assert (tmp_path / "out.csv").read_text() == report_csv(report)
    json_path = report_emit(report, str(tmp_path / "out.json"), "json")
    loaded = report_load_json(json_path)
    assert loaded == report
    assert csv_path.endswith("out.csv")


def test_json_round_trip_equality():
    config = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=5)
    report = run_experiment(config)
    rebuilt = ExperimentReport.from_dict(json.loads(report_json(report)))
    assert rebuilt == report


def test_report_emit_rejects_unknown_format(tmp_path):
    config = make_scenario_config("thm-goe", n_grid=())
    report = run_experiment(config)
    with pytest.raises(ValueError):
        report_emit(report, str(tmp_path / "x"), "yaml")


def test_report_emit_unwritable_path():
    config = make_scenario_config("thm-goe", n_grid=())
    report = run_experiment(config)
    with pytest.raises(OSError):
        report_emit(report, "/nonexistent-dir/report.csv", "csv")
