import json

import pytest

from ctrllab import make_scenario_config, report_csv, run_experiment
from ctrllab.cli import main


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
    doc = make_scenario_config("thm-goe", n_grid=(6,), trials=2).to_dict()
    edit(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("ctrllab: error: ") and repr(key) in line


def test_config_file_p_flag_rebuilds_the_scenario(tmp_path):
    config = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg_path), "--p", "0.3", "--out", str(out)]) == 0
    expected = make_scenario_config("cor-gnp-rand", n_grid=(6,), trials=3, p=0.3)
    assert expected.vector.p == 0.3
    assert out.read_text() == report_csv(run_experiment(expected))
