import argparse
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctrllab import (
    BudgetExceededError,
    __version__,
    cli,
    harness,
    make_scenario_config,
    report_csv,
    run_experiment,
    run_trial,
)
from ctrllab.cli import build_parser, main
from ctrllab.ensembles import VectorSpec


def test_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("conj1", "conj2", "thm-goe", "diag-norm", "minctrl-gnp"):
        assert name in out


def test_run_scenario_to_csv_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["--scenario", "kn-allones", "--n", "5", "--trials", "4",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    config = make_scenario_config("kn-allones", n_grid=(5,), trials=4, master_seed=7)
    assert out.read_text() == report_csv(run_experiment(config))
    err = capsys.readouterr().err
    assert "seed=7" in err and "ctrllab" in err  # version+seed echo


def test_run_writes_csv_to_stdout(capsys):
    code = main(["--scenario", "kn-allones", "--n", "5", "--trials", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,n,p,")
    assert "kn-allones" in out


def test_json_format(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--scenario", "thm-goe", "--n", "6", "--trials", "3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["scenario"] == "thm-goe"
    assert doc["rows"][0]["trials"] == 3
    assert doc["version"]
    assert doc["config"]["master_seed"] == doc["rows"][0]["seed"]


def test_config_file_with_flag_overrides(tmp_path):
    config = make_scenario_config("thm-goe", n_grid=(6,), trials=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg_path), "--trials", "5", "--out", str(out)])
    assert code == 0
    expected = make_scenario_config("thm-goe", n_grid=(6,), trials=5)
    assert out.read_text() == report_csv(run_experiment(expected))


def test_tolerance_flags_are_applied(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["--scenario", "thm-goe", "--n", "6", "--trials", "2",
                 "--gap-tol", "1e-5", "--ortho-tol", "1e-6", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["gap_tol"]) == 1e-5
    assert float(cells["ortho_tol"]) == 1e-6


def test_requires_scenario_or_config(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_scenario_fails_nonzero(capsys):
    assert main(["--scenario", "not-a-scenario"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_override_fails_nonzero(capsys):
    assert main(["--scenario", "thm-goe", "--p", "0.4"]) == 1


def test_conflicting_scenario_and_config(tmp_path, capsys):
    config = make_scenario_config("thm-goe", n_grid=(6,), trials=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert main(["--config", str(cfg_path), "--scenario", "conj1"]) == 1


def test_unwritable_output_fails_nonzero(capsys):
    code = main(["--scenario", "kn-allones", "--n", "5", "--trials", "2",
                 "--out", "/nonexistent-dir/report.csv"])
    assert code == 1


@pytest.mark.parametrize("edit,key", [
    (lambda d: d.update(master_sed=d.pop("master_seed")), "master_sed"),
    (lambda d: d["tolerances"].update(gap_tl=d["tolerances"].pop("gap_tol")), "gap_tl"),
    (lambda d: d.pop("trials"), "trials"),
    (lambda d: d.update(workers=1), "workers"),  # retired key
    (lambda d: d["vector"].update(idx=0), "idx"),
])
def test_config_file_rejects_unknown_and_missing_keys(tmp_path, capsys, edit, key):
    doc = make_scenario_config("thm-goe", n_grid=(6,), trials=2,
                               vector=VectorSpec.standard_basis(0)).to_dict()
    edit(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("ctrllab: error: ") and repr(key) in line


@pytest.mark.parametrize("key,value", [
    ("trials", "5"), ("trials", 2.5), ("trials", True), ("n_grid", 8), ("n_grid", [6, "8"]),
    ("master_seed", "1"), ("master_seed", None), ("exact_cap", "24"), ("params", []),
    ("format", None), ("gap_tol", "1e-8"), ("index", 0.5),
])
def test_config_file_rejects_values_of_the_wrong_type(tmp_path, capsys, key, value):
    doc = make_scenario_config("thm-goe", n_grid=(6,), trials=2,
                               vector=VectorSpec.standard_basis(0)).to_dict()
    target = next(d for d in (doc, doc["tolerances"], doc["vector"]) if key in d)
    target[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("ctrllab: error: key ") and repr(key) in line


@pytest.mark.parametrize("scenario,ensemble", [
    ("thm-goe", {"kind": "gnp-adjacency", "p": 0.5}),
    ("thm-wigner-basis", {"kind": "wigner", "offdiag": {"kind": "gaussian"},
                          "diag": {"kind": "degenerate", "value": 0.0}}),
])
def test_config_file_must_sample_its_scenario(tmp_path, capsys, scenario, ensemble):
    # a config names its scenario's experiment; it cannot swap the matrices,
    # and has no key to name them with
    doc = make_scenario_config(scenario, n_grid=(6,), trials=2).to_dict()
    doc["ensemble"] = ensemble
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "ctrllab: error: unknown key 'ensemble' in ExperimentConfig"


def test_config_file_p_flag_rebuilds_the_scenario(tmp_path):
    config = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg_path), "--p", "0.3", "--out", str(out)]) == 0
    expected = run_experiment(make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=3, p=0.3))
    assert expected.config["vector"] == {"kind": "bernoulli01", "p": 0.3}
    assert out.read_text() == report_csv(expected)


@pytest.mark.parametrize("scenario,params,key", [
    ("minctrl-gnp", {"budjet": 5}, "budjet"),
    ("diag-smallball", {"m": "2000"}, "m"),
    ("diag-norm", {"band": 3}, "band"),
    ("minctrl-gnp", {"kmax": 11}, "kmax"),
    ("diag-smallball", {"eig_index": 40}, "eig_index"),
    ("diag-smallball", {"eig_index": -1}, "eig_index"),
])
def test_config_file_rejects_bad_params(tmp_path, capsys, scenario, params, key):
    doc = make_scenario_config(scenario, n_grid=(10,), trials=2).to_dict()
    doc["params"].update(params)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("ctrllab: error: ") and f"params key {key!r}" in line


def test_config_file_params_round_trip(tmp_path):
    # a JSON band is a list, a preset's a tuple; both validate and run alike
    config = make_scenario_config("diag-norm", n_grid=(100,), trials=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text() == report_csv(run_experiment(config))


@pytest.mark.parametrize("flags, message", [
    (["--n", ","], "n-grid must hold at least one dimension"),
    (["--gap-tol", "inf"], "gap_tol must be finite, got inf"),
    (["--ortho-tol", "inf"], "ortho_tol must be finite, got inf"),
    (["--gap-tol", "nan"], "gap_tol must be finite, got nan"),
])
def test_flags_reject_empty_grid_and_nonfinite_tolerances(capsys, flags, message):
    assert main(["--scenario", "thm-goe", "--trials", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"ctrllab: error: {message}"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(n_grid=[]), "n-grid must hold at least one dimension"),
    (lambda d: d["tolerances"].update(gap_tol=float("inf")), "gap_tol must be finite, got inf"),
    (lambda d: d["tolerances"].update(ortho_reject=float("nan")),
     "ortho_reject must be finite, got nan"),
    # a cap below 1 would send every `both` grid point past the exact decider
    (lambda d: d.update(exact_cap=-1), "exact_cap must be >= 1, got -1"),
    (lambda d: d.update(exact_cap=0), "exact_cap must be >= 1, got 0"),
])
def test_config_file_rejects_empty_grid_and_nonfinite_tolerances(tmp_path, capsys, edit, message):
    doc = make_scenario_config("thm-goe", n_grid=(6,), trials=2).to_dict()
    edit(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))  # non-finite floats as Infinity / NaN
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"ctrllab: error: {message}"


# main builds its parser on the first call of the process and reuses it


def test_consecutive_calls_do_not_carry_flags_over(capsys):
    first = ["--scenario", "conj1", "--n", "6", "--trials", "3",
             "--p", "0.3", "--method", "exact", "--gap-tol", "1e-7"]
    second = ["--scenario", "conj1", "--n", "6", "--trials", "3"]
    assert main(first) == 0
    assert capsys.readouterr().out == report_csv(run_experiment(make_scenario_config(
        "conj1", n_grid=(6,), trials=3, p=0.3, method="exact", gap_tol=1e-7)))
    assert main(second) == 0
    assert capsys.readouterr().out == report_csv(run_experiment(make_scenario_config(
        "conj1", n_grid=(6,), trials=3)))


def test_rejected_argv_between_good_calls(capsys):
    good = ["--scenario", "kn-allones", "--n", "5", "--trials", "2"]
    assert main(good) == 0
    report = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main([*good, "--method", "bogus"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ctrllab ")
    assert "argument --method: invalid choice: 'bogus'" in captured.err
    assert main(good) == 0
    assert capsys.readouterr().out == report


def test_version_list_and_help_match_a_fresh_parser(capsys):
    listings = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"ctrllab {__version__}\n"
        assert main(["--list-scenarios"]) == 0
        listings.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()
    assert listings[0] == listings[1] and listings[0].startswith("conj1  ")


@pytest.fixture
def fresh_main_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(monkeypatch, capsys, fresh_main_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["--list-scenarios"],
                 ["--scenario", "kn-allones", "--n", "5", "--trials", "2"],
                 ["--scenario", "thm-goe", "--n", "6", "--trials", "2", "--format", "json"]):
        assert main(argv) == 0
    assert len(built) == 1
    # build_parser still gives every caller a parser of its own
    assert build_parser() is not build_parser()
    build_parser().add_argument("--extra")
    with pytest.raises(SystemExit):
        main(["--scenario", "kn-allones", "--extra", "1"])


def test_search_budget_failure_is_one_error_line(tmp_path, capsys):
    config = make_scenario_config("minctrl-gnp", n_grid=(10,), trials=20, params={"budget": 10})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    # the line names the seed lineage of the first trial that overran
    assert line == ("ctrllab: error: enumeration budget 10 exhausted (('minctrl-gnp', 10, 14)) "
                    "after 10 supports (reached support size 2)")
    for trial in range(14):
        run_trial(config, 10, trial)
    with pytest.raises(BudgetExceededError) as info:
        run_trial(config, 10, 14)
    error = info.value
    assert (error.supports_tested, error.k_reached, error.budget) == (10, 2, 10)
    assert str(error) == line.removeprefix("ctrllab: error: ")


@pytest.mark.parametrize("vector,message", [
    ({"kind": "explicit", "values": [1, 2, 3]},
     "vector explicit values must have length n, got length 3 at n=5"),
    ({"kind": "standard-basis", "index": 4},
     "vector standard-basis index must be < n, got 4 at n=3"),
])
def test_config_file_vector_that_misses_a_grid_point_is_one_error_line(
        tmp_path, capsys, monkeypatch, vector, message):
    monkeypatch.setattr(harness, "_draw_chunk", lambda *args: pytest.fail("a trial ran"))
    doc = make_scenario_config("thm-goe", n_grid=(3, 5), trials=50).to_dict()
    doc["vector"] = vector
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ctrllab: error: {message}"]


def test_eigensolver_failure_is_one_error_line(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["--scenario", "thm-goe", "--n", "6", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    # the label is the seed lineage of the first matrix that fails
    assert line == ("ctrllab: error: eigh failed to converge (('thm-goe', 6, 0)): "
                    "Eigenvalues did not converge")


def test_pyproject_reads_the_package_version():
    # one version string: pyproject takes it from ctrllab._version
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta" in some releases
        project = pyproject.read_configuration(path)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == __version__
