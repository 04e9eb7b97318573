import json
import re

import numpy as np
import pytest

from ctrllab import (
    ExperimentConfig,
    SCENARIOS,
    SeedPath,
    make_scenario_config,
    report_csv,
    report_emit,
    report_json,
    run_experiment,
    run_trial,
    wilson_interval,
)
from ctrllab import exact, harness, minctrl
from ctrllab.ensembles import Atom, EnsembleSpec, VectorSpec
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


def test_wilson_interval_rejects_impossible_counts():
    for successes, trials in [(5, 3), (-1, 3), (0, -1), (1, 0)]:
        with pytest.raises(ValueError, match=rf"need 0 <= successes <= trials: "
                                             rf"successes={successes}, trials={trials}$"):
            wilson_interval(successes, trials)


def test_wilson_interval_rejects_counts_it_would_misread():
    # each once returned an interval
    for successes, trials, name in [(1.5, 3, "successes"), (2, 3.5, "trials"),
                                    (True, 3, "successes"), (1, np.float64(3.0), "trials")]:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            wilson_interval(successes, trials)
    assert wilson_interval(np.int64(2), np.int64(3)) == wilson_interval(2, 3)


@pytest.mark.parametrize("scenario,overrides,message", [
    # each was accepted: gap_tol 1 made every trial indeterminate, and True
    # or the file descriptor 5 reached the CSV or open()
    ("thm-goe", {"gap_tol": True}, "gap_tol must be float, got True"),
    ("kn-allones", {"p": True}, r"p must be float \| None, got True"),
    ("conj1", {"out": 5}, r"out must be str \| None, got 5"),
], ids=["gap-tol-true", "p-true", "out-int"])
def test_configs_built_in_python_are_read_as_json_reads_them(scenario, overrides, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_scenario_config(scenario, **overrides)


def test_a_hidden_shift_never_reaches_a_run():
    # the wigner kind takes no shift: such an ensemble once ran shifted (18
    # of 50 successes at n = 8 and seed 12345, not 4) and echoed plain Wigner
    with pytest.raises(ValueError, match="^unknown key 'shift' in EnsembleSpec 'wigner'$"):
        EnsembleSpec.from_dict({"kind": "wigner", "offdiag": {"kind": "rademacher"},
                                "diag": {"kind": "degenerate", "value": 0.0},
                                "shift": {"kind": "constant-offdiag", "c": 5.0}})


def test_wilson_interval_narrows_with_trials():
    lo1, hi1 = wilson_interval(90, 100)
    lo2, hi2 = wilson_interval(900, 1000)
    assert hi2 - lo2 < hi1 - lo1


# ---------------------------------------------------------------------------
# configs and presets
# ---------------------------------------------------------------------------

def test_counts_seeds_grid_entries_and_caps_must_be_integers():
    # int() once truncated each: trials=2.7 ran 2 trials at n = 5 with seed 3
    for overrides, message in [({"trials": 2.7}, "trials must be an integer, got 2.7"),
                               ({"trials": True}, "trials must be an integer, got True"),
                               ({"n_grid": (5.9,)}, "n-grid entry must be an integer, got 5.9"),
                               ({"master_seed": 3.5}, "master_seed must be an integer, got 3.5")]:
        with pytest.raises(ValueError, match=rf"^{message}$"):
            make_scenario_config("kn-allones", **overrides)
    config = make_scenario_config("kn-allones", trials=np.int64(2), n_grid=[np.int64(5)],
                                  master_seed=np.int64(3))
    assert (config.trials, config.n_grid, config.master_seed) == (2, (5,), 3)
    assert all(type(v) is int for v in (config.trials, *config.n_grid, config.master_seed))
    for key, value in [("exact_cap", 2.5), ("trials", 2.5), ("n_grid", (5.5,)),
                       ("master_seed", 1.5)]:
        config = make_scenario_config("kn-allones")
        setattr(config, key, value)
        with pytest.raises(ValueError, match=r" must be an integer, got "):
            config.validate()
    # each grid entry is judged before entries are compared, and a grid
    # that is no sequence is named: these once ended in bare TypeErrors
    # or in "not strictly increasing"
    for grid, message in [((1, "a"), "n-grid entry must be an integer, got 'a'"),
                          ((2, 1.5), "n-grid entry must be an integer, got 1.5"),
                          (5, "n-grid must be a sequence of integers, got 5")]:
        config = make_scenario_config("kn-allones")
        config.n_grid = grid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config.validate()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_scenario_config("minctrl-gnp", n_grid=grid)


def test_all_presets_are_complete_and_valid():
    presets = {name: make_scenario_config(name) for name in SCENARIOS}
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
    with pytest.raises(ValueError, match="n-grid must hold at least one dimension"):
        make_scenario_config("conj1", n_grid=())
    with pytest.raises(ValueError):
        make_scenario_config("conj1", method="quantum")
    with pytest.raises(ValueError):
        make_scenario_config("minctrl-gnp", n_grid=(40,))  # exact beyond cap
    conj1 = make_scenario_config("conj1")
    conj1.exact_cap = 0  # under `both`, no grid point would reach the exact decider
    with pytest.raises(ValueError, match=r"^exact_cap must be >= 1, got 0$"):
        conj1.validate()
    with pytest.raises(ValueError):
        make_scenario_config("conj1", p=1.0)  # fixtures only, not experiments
    with pytest.raises(ValueError):
        make_scenario_config("thm-goe", p=0.4)  # no density parameter
    # a G(n, p) config's p is the density its matrices are drawn at
    conj2 = make_scenario_config("conj2")
    conj2.p = 0.1
    conj2.validate()
    assert conj2.ensemble.to_dict() == EnsembleSpec.gnp(0.1).to_dict()
    goe = make_scenario_config("thm-goe")
    goe.p = 0.3
    with pytest.raises(ValueError, match=r"'thm-goe' samples p=None, got p=0.3"):
        goe.validate()
    minctrl = make_scenario_config("minctrl-gnp")
    minctrl.vector = VectorSpec.all_ones()
    with pytest.raises(ValueError, match="^scenario 'minctrl-gnp' does not take a vector "
                                         "override$"):
        minctrl.validate()
    # nor may a config sample another experiment's matrices: the row names them
    wigner = make_scenario_config("thm-wigner-basis")
    with pytest.raises(AttributeError):
        wigner.ensemble = EnsembleSpec.wigner(Atom.gaussian(), Atom.degenerate(0.0))
    assert wigner.ensemble.to_dict() == \
        EnsembleSpec.wigner(Atom.rademacher(), Atom.degenerate(0.0)).to_dict()
    goe = make_scenario_config("thm-goe")
    goe.vector = None  # no override: the scenario's own input, e_0
    goe.validate()
    assert run_experiment(goe).config["vector"] == VectorSpec.standard_basis(0).to_dict()
    goe.vector = VectorSpec.all_ones()
    goe.validate()
    goe.vector = {"kind": "all-ones"}  # a spec's JSON form is no spec
    with pytest.raises(ValueError, match=r"^vector must be VectorSpec \| None, got \{"):
        goe.validate()


def test_config_validation_names_tolerances_and_params_of_the_wrong_type():
    # a record's JSON form is no record, and params are a dict: each is
    # named by validate, before a trial reads it
    goe = make_scenario_config("thm-goe", n_grid=(6,), trials=2)
    goe.tolerances = {"gap_tol": 1e-8}
    with pytest.raises(ValueError, match=r"^tolerances must be Tolerances, got \{'gap_tol'"):
        goe.validate()
    norm = make_scenario_config("diag-norm", n_grid=(6,), trials=2)
    norm.params = [("band", (1, 2))]
    with pytest.raises(ValueError, match=r"^params must be dict, got \[\('band'"):
        norm.validate()
    norm.params = {"band": (1, 2)}
    norm.validate()


def test_a_run_builds_its_scenario_specs_once(monkeypatch):
    # a scenario row's specs at p are built once, not again for every
    # check, chunk and echo that reads them, nor by a later run at that p
    built = []
    for cls in (EnsembleSpec, VectorSpec):
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=cls.__post_init__:
                            built.append(type(self).__name__) or real(self))
    for want in (["EnsembleSpec", "VectorSpec"], []):
        built.clear()
        config = make_scenario_config("cor-gnp-rand", p=0.37, n_grid=(5, 6), trials=3)
        report = run_experiment(config)
        assert sorted(built) == want
        assert report.config["ensemble"] == {"kind": "gnp-adjacency", "p": 0.37}
        assert report.config["vector"] == {"kind": "bernoulli01", "p": 0.37}


BAD_VECTORS = [
    (VectorSpec.explicit([1, 2, 3]), "vector explicit values must have length n, "
                                     "got length 3 at n=5"),
    (VectorSpec.standard_basis(4), "vector standard-basis index must be < n, got 4 at n=3"),
    (VectorSpec.shifted(VectorSpec.all_ones(), [0.5] * 5), "vector shifted mu must have "
                                                           "length n, got length 5 at n=3"),
    (VectorSpec.shifted(VectorSpec.standard_basis(3), [0.5] * 3), "vector standard-basis index "
                                                                  "must be < n, got 3 at n=3"),
]


@pytest.mark.parametrize("vector,message", BAD_VECTORS,
                         ids=["explicit", "standard-basis", "shifted-mu", "shifted-base"])
def test_config_validation_rejects_vectors_that_miss_a_grid_point(monkeypatch, vector, message):
    # the first grid point the input vector cannot be sampled at is named
    # before any trial runs, not when the run reaches it
    monkeypatch.setattr(harness, "_draw_chunk", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_scenario_config("thm-goe", n_grid=(3, 5), trials=50, vector=vector)
    config = make_scenario_config("thm-goe", n_grid=(3, 5), trials=50)
    config.vector = vector
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_experiment(config)


BAD_PARAMS = [
    ("minctrl-gnp", {"budjet": 5}, None, "unknown params key 'budjet'"),
    ("thm-goe", {"m": 2000}, None, "unknown params key 'm'"),
    ("diag-smallball", {"m": "2000"}, None, "'m' must be an int >= 1000, got '2000'"),
    ("diag-smallball", {"m": 999}, None, "'m' must be an int >= 1000"),
    ("diag-smallball", {"beta": True}, None, "'beta' must be a finite real"),
    ("diag-smallball", {"rho_bound": float("nan")}, None, "'rho_bound' must be a finite real"),
    ("diag-norm", {"band": 3}, None, "'band' must be a pair"),
    ("diag-norm", {"band": [2.3, 1.8]}, None, "'band' must be a pair"),
    ("diag-norm", {"band": ["1.8", 2.3]}, None, "'band' must be a pair"),
    ("minctrl-gnp", {"kmax": 11}, (8, 12), "'kmax' must be null or an int in [1, n], got 11 at n=8"),
    ("minctrl-gnp", {"kmax": 0}, None, "'kmax' must be null or an int in [1, n], got 0"),
    ("minctrl-gnp", {"budget": 5}, None, "'budget' must be an int >= n, got 5 at n=10"),
    ("diag-smallball", {"eig_index": 40}, (16,), "'eig_index' must be null or an int in [0, n), "
                                                 "got 40 at n=16"),
    ("diag-smallball", {"eig_index": -1}, (16,), "'eig_index' must be null or an int in [0, n), "
                                                 "got -1"),
    ("diag-smallball", {"eig_index": 2.0}, (16,), "'eig_index' must be null or an int"),
    # params that are no dict once ended in "'list' object is not a mapping"
    ("minctrl-gnp", [("kmax", 2)], None, "params must be dict, got [('kmax', 2)]"),
    ("minctrl-gnp", "abc", None, "params must be dict, got 'abc'"),
]


@pytest.mark.parametrize("name,params,n_grid,message", BAD_PARAMS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(BAD_PARAMS)])
def test_config_validation_rejects_bad_params(name, params, n_grid, message):
    with pytest.raises(ValueError) as info:
        make_scenario_config(name, params=params, n_grid=n_grid)
    assert message in str(info.value)


def test_config_validation_accepts_declared_params():
    make_scenario_config("diag-smallball", n_grid=(16,),
                         params={"eig_index": 15, "m": 1000, "beta": 1, "rho_bound": 0.25})
    make_scenario_config("diag-smallball", params={"eig_index": None})
    make_scenario_config("diag-norm", params={"band": [1.0, 1.0]})
    make_scenario_config("minctrl-gnp", n_grid=(8, 12), params={"kmax": 8, "budget": 12})
    for name, scenario in SCENARIOS.items():  # every default is a declared, valid value
        assert set(scenario.params) <= set(scenario.accepts), name


def test_a_missing_param_is_the_scenario_default(monkeypatch):
    # a config without params (a --config with "params": {}) runs on the
    # table's defaults, the one copy of them
    config = make_scenario_config("diag-norm", n_grid=(30,), trials=4)
    records = [run_trial(config, 30, t) for t in range(4)]
    assert not all(record.success for record in records)
    config.params = {}
    assert [run_trial(config, 30, t) for t in range(4)] == records
    monkeypatch.setitem(SCENARIOS["diag-norm"].params, "band", (0.0, 100.0))
    assert all(run_trial(config, 30, t).success for t in range(4))


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


def test_a_config_holds_knobs_not_the_ensemble():
    # the scenario row names the ensemble; a config file states no "ensemble"
    for name in SCENARIOS:
        assert "ensemble" not in make_scenario_config(name).to_dict(), name


def test_setting_p_draws_the_scenario_at_that_density():
    # p once had to be kept equal to the ensemble's and the input's density
    # by hand: setting it alone failed validation and the trials drew at 0.5
    config = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=4)
    config.p = 0.3
    expected = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=4, p=0.3)
    assert [run_trial(config, 6, t) for t in range(4)] == \
        [run_trial(expected, 6, t) for t in range(4)]
    assert report_json(run_experiment(config)) == report_json(run_experiment(expected))


def test_run_trial_names_a_bad_n_or_trial():
    # 10.0 and True once failed inside the seed labels, and trial -1 ran the
    # streams of trial 2**64 - 1
    config = make_scenario_config("thm-goe", n_grid=(10,), trials=2)
    for n, trial, message in [(10.0, 0, "n must be an integer, got 10.0"),
                              (10, True, "trial must be an integer, got True"),
                              (10, 1.0, "trial must be an integer, got 1.0"),
                              (10, -1, "trial must be >= 0, got -1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_trial(config, n, trial)
    assert run_trial(config, np.int64(10), np.int64(1)) == run_trial(config, 10, 1)


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
    # three streams per trial (matrix, vector, sphere), and a seeded vector stream
    ("cor-gnp-rand", (24,)), ("thm-wigner-rand", (32,)),
    # eigenvalues only, from one stacked eigvalsh per chunk
    ("diag-mingap", (50,)), ("diag-norm", (32,)),
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


@pytest.mark.parametrize("name, streams", [
    ("conj1", ("matrix",)), ("conj2", ("matrix",)), ("thm-goe", ("matrix",)),
    ("thm-wigner-rand", ("matrix", "vector")), ("thm-wigner-sphere", ("matrix", "vector")),
    ("cor-gnp-rand", ("matrix", "vector", "sphere")), ("minctrl-gnp", ("matrix",)),
    ("diag-smallball", ("matrix", "smallball")),
])
def test_chunk_draws_equal_per_path_samples(name, streams):
    # the chunk derives every stream of its trials in one batch; each draw
    # equals sampling from the trial's own SeedPath children one at a time
    from ctrllab.ensembles import sample_ensemble, sample_vector

    config = make_scenario_config(name, n_grid=(8,), trials=6)
    assert harness._streams(config, harness.SCENARIOS[name].trial) == streams
    trials = [0, 3, 2**32 + 3, 5]  # one- and two-word trial indices in one batch
    chunk = harness._draw_chunk(config, 8, trials)
    vector = harness._sampled(config)[1]  # the scenario's input: the config has no override
    assert (vector is None) == (name in ("conj1", "minctrl-gnp", "diag-smallball"))
    for i, t in enumerate(trials):
        path = SeedPath(config.master_seed).child(name, 8, t)
        alone = sample_ensemble(config.ensemble, path.child("matrix"), 8)
        assert np.array_equal(chunk.mats[i], alone) and chunk.mats.dtype == alone.dtype
        if vector is not None:
            assert np.array_equal(chunk.b[i], sample_vector(vector, 8, path.child("vector")))
        if streams[-1] in ("sphere", "smallball"):  # the generator decide reads
            extra = path.child(streams[-1]).generator()
            assert chunk.extra[streams[-1]][i].bit_generator.state == extra.bit_generator.state


@pytest.mark.parametrize("name, method, cap, verdicts, ranks, eig", [
    ("conj1", "exact", None, ["exact"], True, "vectors"),  # the eigenvectors certify ranks
    ("conj1", "float-pbh", None, ["float"], False, "vectors"),
    ("conj1", "both", None, ["exact", "float"], True, "vectors"),
    ("conj1", "both", 6, ["float"], False, "vectors"),  # n = 8 above the exact cap
    ("cor-gnp-rand", "exact", None, ["exact:b", "float:b", "float:u"], True, "vectors"),
    ("cor-gnp-rand", "float-pbh", None, ["float:b", "float:u"], False, "vectors"),
    # minctrl decides its basis ranks in its trial family, from the eigenvectors
    ("minctrl-gnp", "float-pbh", None, [], False, "vectors"),
    ("diag-mingap", "float-pbh", None, [], False, "values"),
    ("minctrl-gnp", "exact", None, [], False, "vectors"),
])
def test_family_work_under_each_method(name, method, cap, verdicts, ranks, eig):
    # what the chunk stage computes for a family, and the verdicts it yields
    config = make_scenario_config(name, n_grid=(8,), trials=3, method=method)
    if cap is not None:
        config.exact_cap = cap
        config.validate()
    chunk = harness._draw_chunk(config, 8, range(3))
    assert (chunk.ranks is not None) == ranks
    computed = chunk.eig and ("values" if chunk.eig.eigenvectors is None else "vectors")
    assert computed == eig
    outcomes = harness._decide_chunk(config, 8, range(3))
    for t in range(3):
        record = run_trial(config, 8, t, outcomes=outcomes)
        assert sorted(record.verdicts) == verdicts
        if name == "minctrl-gnp":  # the search decides exactly under any method
            exact_config = make_scenario_config(name, n_grid=(8,), trials=3, method="exact")
            assert record == run_trial(exact_config, 8, t)


def test_wide_trial_index_is_reproducible_alone():
    for name in ("thm-goe", "cor-gnp-rand", "conj1"):
        config = make_scenario_config(name, n_grid=(8,), trials=4)
        alone = run_trial(config, 8, 2**32 + 3)
        assert alone == run_trial(config, 8, 2**32 + 3)
        assert alone.seed_path().labels == (name, 8, 2**32 + 3)
        outcomes = harness._decide_chunk(config, 8, [1, 2**32 + 3])
        assert run_trial(config, 8, 1, outcomes=outcomes) == run_trial(config, 8, 1)
        assert run_trial(config, 8, 2**32 + 3, outcomes=outcomes) == alone


def test_float_only_chunks_are_bounded_by_matrix_entries():
    # a chunk holds T * n^2 <= 2**14 float entries whatever its exact work:
    # kalman_ranks_exact bounds the Krylov stacks of its Kalman ranks itself
    assert chunk_size(make_scenario_config("conj1"), 16) == 64
    assert chunk_size(make_scenario_config("thm-wigner-basis"), 32) == 16
    assert len(harness._chunks(make_scenario_config("conj1", method="float-pbh", trials=10**4),
                               16)[0]) == 64
    assert chunk_size(make_scenario_config("diag-norm"), 400) == 1


def test_eigh_failure_names_the_failing_trial(monkeypatch):
    # the stacked eigh fails when one matrix of the chunk does; each matrix
    # is then retried alone, and the error carries that trial's seed path
    config = make_scenario_config("thm-goe", n_grid=(10,), trials=20)
    (bad,) = harness._draw_chunk(config, 10, [7]).mats
    bad_path = SeedPath(config.master_seed).child("thm-goe", 10, 7)
    real_eigh = np.linalg.eigh
    shapes = []

    def failing(a):
        shapes.append(np.shape(a))
        if (np.asarray(a) == bad).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    label = str(bad_path.labels).replace("(", r"\(").replace(")", r"\)")
    with pytest.raises(EigenDecompositionError, match=rf"eigh failed to converge \({label}\)"):
        run_experiment(config)
    assert shapes[0] == (20, 10, 10)  # the whole chunk, then matrices 0..7 alone
    assert shapes[1:] == [(10, 10)] * 8
    with pytest.raises(EigenDecompositionError, match=label):
        run_trial(config, 10, 7)
    assert run_trial(config, 10, 6).verdicts == {"float": "controllable"}


def test_certificate_leaves_exact_records_unchanged(monkeypatch):
    # the same cells with the float tier (its ranks and its spectrum
    # proofs) and the mod-_P certificates switched off, so every Kalman
    # rank, full or not, and every spectrum's Krylov degree goes through
    # Bareiss
    configs = [
        make_scenario_config("conj1", n_grid=(8, 16, 24), trials=2),
        make_scenario_config("conj1", n_grid=(8, 16), trials=3, method="exact"),
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
    monkeypatch.setattr(exact, "_certified_ranks", lambda mats, cols, k, ranks: ranks)
    monkeypatch.setattr(exact, "_float_system", lambda mats, eigsys: None)
    assert run_all() == certified
    # the switch reaches the batched chunks: conj1 sends every basis input
    # of every trial to Bareiss
    bareiss.clear()
    run_experiment(configs[0])
    assert len(bareiss) == configs[0].trials * sum(configs[0].n_grid)


def test_failed_eigh_leaves_exact_only_records_to_the_certificate(monkeypatch):
    # an exact-only chunk decomposes its stack only for the float tier of
    # its Kalman ranks: when eigh fails there, the mod-_P tier decides them
    # and every record stays as it is; where the float method reads the
    # eigensystem, the failure still names the trial
    configs = [make_scenario_config("minctrl-gnp", n_grid=(8, 10), trials=4),
               make_scenario_config("conj1", n_grid=(8, 16), trials=3, method="exact")]

    def run_all():
        return ([run_trial(c, n, t) for c in configs for n in c.n_grid for t in range(c.trials)],
                [report_csv(run_experiment(c)) for c in configs])

    certified = run_all()
    calls = []

    def failing(a):
        calls.append(np.shape(a))
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    assert run_all() == certified
    assert calls  # the eigendecomposition was tried, and failed
    goe = make_scenario_config("thm-goe", n_grid=(10,), trials=2)
    label = str(SeedPath(goe.master_seed).child("thm-goe", 10, 0).labels)
    with pytest.raises(EigenDecompositionError, match=re.escape(label)):
        run_experiment(goe)
    with pytest.raises(EigenDecompositionError, match=re.escape(label)):
        run_trial(goe, 10, 0)


def test_tier_split_of_the_benchmark_exact_experiments(monkeypatch):
    # Ranks are exact whichever tier settles them, so no record shows when
    # a change sends more columns to a slower tier.  These are the exact
    # experiments of the benchmark at its seed, 1506: eliminations mod _P
    # and the Krylov matrices they hold, and Bareiss calls.  The float tier
    # settles every column of conj1 and conj2.  minctrl-gnp decides the
    # spectra of each chunk first, in one call: the float bound proves the
    # simple ones, and a verified relation q(A) = 0 of degree below n the
    # two repeated ones, at n = 10.  The basis ranks of the simple ones are
    # all settled by the float tier, their deficient columns by integer
    # eigenvectors or relations, and so are the layers of the searches that
    # go past the basis.  Without the float tier, the split is (11, 505, 0).
    configs = {
        "conj1": make_scenario_config("conj1", method="both", n_grid=(16, 24), trials=4,
                                      p=0.5, master_seed=1506),
        "conj2": make_scenario_config("conj2", method="both", n_grid=(24,), trials=16,
                                      p=0.5, master_seed=1506),
        "minctrl-gnp": make_scenario_config("minctrl-gnp", n_grid=(10, 12), trials=20,
                                            p=0.5, master_seed=1506),
    }
    certified, bareiss = [], []
    real_echelon, real_rank = exact._echelon_mod_p, exact.rank_exact
    monkeypatch.setattr(exact, "_echelon_mod_p",
                        lambda stack: certified.append(len(stack)) or real_echelon(stack))
    monkeypatch.setattr(exact, "rank_exact", lambda m: bareiss.append(1) or real_rank(m))
    counts = {}
    for name, config in configs.items():
        certified.clear()
        bareiss.clear()
        run_experiment(config)
        counts[name] = (len(certified), sum(certified), len(bareiss))
    assert counts == {"conj1": (0, 0, 0), "conj2": (0, 0, 0), "minctrl-gnp": (0, 0, 0)}


def test_minctrl_chunk_bounds_its_eigensystem_once(monkeypatch):
    # the chunk's spectrum test, its basis ranks and the layer slices of
    # its searches all read one certificate, kept on the chunk's
    # eigensystem: the eigenvector bounds run once per chunk, on all of it,
    # and each basis scan reads the stack's float system twice, computing
    # the bounds in the spectrum test and finding them kept in the rank stage
    bounds, ranked, read = [], [], []
    real_bounds, real_ranks = exact._eigvec_bounds, minctrl._kalman_ranks
    real_read = exact._float_system
    monkeypatch.setattr(exact, "_eigvec_bounds",
                        lambda a, w, x: bounds.append(len(a)) or real_bounds(a, w, x))
    monkeypatch.setattr(minctrl, "_kalman_ranks", lambda a, cols, system, ranks:
                        ranked.append((int((ranks < 0).any(axis=1).sum()), cols.shape[1:],
                                       system is not None))
                        or real_ranks(a, cols, system, ranks))
    for module in (exact, minctrl):
        monkeypatch.setattr(module, "_float_system",
                            lambda mats, eigsys: read.append(len(mats)) or real_read(mats, eigsys))
    config = make_scenario_config("minctrl-gnp", n_grid=(10, 12), trials=20, p=0.5,
                                  master_seed=1506)
    run_experiment(config)
    assert bounds == [20, 20]  # one chunk per grid point
    # each chunk's basis scan ranks the basis of its simple spectra in one
    # call (18 of 20 at n = 10), and one search goes past the basis, with
    # its matrix's eigensystem, to the 45 supports of size 2
    assert ranked == [(18, (10, 10), True), (1, (10, 45), True), (20, (12, 12), True)]
    # two reads per basis scan, of the whole stack, and one for the search
    assert read == [20, 20, 1, 20, 20]


def test_conj1_trial_falls_back_when_certificate_fails(monkeypatch):
    # A vanishes mod _P, but both basis inputs are controllable over Q
    a = np.array([[0, _P], [_P, 0]], dtype=np.int64)
    monkeypatch.setattr(harness, "sample_ensemble", lambda spec, rngs, n: np.stack([a] * len(rngs)))
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
    config = make_scenario_config("thm-goe", n_grid=(2,), trials=1)
    report = run_experiment(config)
    with pytest.raises(ValueError):
        report_emit(report, str(tmp_path / "x"), "yaml")


def test_report_emit_unwritable_path():
    config = make_scenario_config("thm-goe", n_grid=(2,), trials=1)
    report = run_experiment(config)
    with pytest.raises(OSError):
        report_emit(report, "/nonexistent-dir/report.csv", "csv")


def test_package_exports_exactly_the_module_lists():
    import ctrllab
    from ctrllab import ensembles, minctrl, seeding, spectral

    modules = (ensembles, exact, harness, minctrl, seeding, spectral)
    listed = ["__version__", *(name for module in modules for name in module.__all__)]
    assert sorted(ctrllab.__all__) == sorted(listed)
    assert len(set(listed)) == len(listed)
    for module in modules:
        for name in module.__all__:
            assert getattr(ctrllab, name) is getattr(module, name), f"{module.__name__}.{name}"
