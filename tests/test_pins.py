"""Byte-level pins on the reports and dict forms that refactors must keep.

Every preset runs at its default grid with three trials; the sha256 of the
CSV report and of the JSON report are pinned, so any change to a verdict, a
witness-driven count, a float format or the config echo shows here.
"""

import hashlib
import json

import pytest

from ctrllab import (
    SCENARIOS,
    Atom,
    EnsembleSpec,
    VectorSpec,
    make_scenario_config,
    report_csv,
    report_json,
    run_experiment,
)

# scenario -> (sha256 of report_csv, sha256 of report_json)
PRESET_PINS = {
    "conj1": ("bfc9bfc80d84c028ea71990074e1fbfa9cc5df885bcac51c2264dbc71cc5ff76",
              "dae81e8576474a8a4b6092fb4848b884b1b49a04ebf4f906405ecddcb9ba6c33"),
    "conj2": ("5b6c37f2fa5d3481784cb22699472f43e92ce24070f92e8f91cb34742826af1b",
              "0a84dc15700d7840a6a06ed3396d76fb27ac2efb6dfa18b2f406a615de60a51a"),
    "thm-wigner-basis": ("00e12abc34b778c4bb4a6734baf67665563e909a7a6c12e29a9f4d7ae1b2705b",
                         "513a97775f2123e296b67cdc5f01eeb3c09ea04e7e767aff3542230ed4432a11"),
    "thm-wigner-rand": ("dfefed980aec27c1ed3d867102ad0e37036c94e785cbeff69a4fd8f979be151e",
                        "1da6fbd44999dcd6be601b3380615d50acd0354a33bbf46aa76121c22714220e"),
    "thm-wigner-sphere": ("b5026d539ff4c888f6f01185f92719dd7bdec6f39eb5f4105e76aec227e2b70e",
                          "ad5fe72cdfe8e1050ac13a9da0e2c176004ee82100a15c90eb941ee94db88d87"),
    "cor-gnp-rand": ("cddffc95dd76fad7ed7eb0181908f9ee3e731441c8f4eb8f6809e7199c2c70e2",
                     "4442f27d9ba3906c9ca088a2817c046bef27290063ae1b2cbf9a12a44bb832b8"),
    "thm-goe": ("c076a3c4a19b32fbd6a48a4f5d370642d94484f6c3340dff083770984c98213c",
                "d67fc00b91e17a64bea66ff75929b2240d74dad1ca9a1825f13cc75cc4fb9c26"),
    "kn-allones": ("add8193231fd56c6fa86c41bfa6984495e5cd091c72a0ac9aeb0d41c6e59d154",
                   "754c3a0eadda414e67e80d03553d78b4c78288ef824048b345b0c5025b6686de"),
    "diag-mingap": ("171db3cf84ec627db8a346a8db127bf018b3652751052acff6a025ec554a1009",
                    "3d410bff2c453e7bdd801f492fdd2a301cd5d05c899365437e69dfed6074305f"),
    "diag-smallball": ("5f836a8624e85425cce336e0aae896d828635f9b7f47c981240c238e48e9a7fb",
                       "2a9b7f8507a040a84da138c7daa47ef6de75575a5023d38a9bfde7320be1e1fb"),
    "diag-norm": ("b8e6c40f86208276f719a2e838392a4ffce99fbcd60631f6fcc40496d97b51d3",
                  "edbc5601d115b084a71172aab73cdd27881c182a8003b8007d3b65dce81c222b"),
    "minctrl-gnp": ("ff64be7f7baa26a18264918a15a88e01f26b613c2af0e9da46ff440534755ee1",
                    "f780afa39a5aa44975b2a1bb80af7bb7cf21f52291a9b47f5e0e92969441e452"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_preset_reports_are_pinned():
    assert set(PRESET_PINS) == set(SCENARIOS)
    for name, (csv_pin, json_pin) in PRESET_PINS.items():
        report = run_experiment(make_scenario_config(name, trials=3))
        assert _sha(report_csv(report)) == csv_pin, name
        # equal to the reports before the "workers" config key was retired,
        # with that key removed from the config echo
        assert _sha(report_json(report)) == json_pin, name


SPEC_FORMS = [
    (Atom, Atom.gaussian(1.5, 4.0), {"kind": "gaussian", "mean": 1.5, "variance": 4.0}),
    (Atom, Atom.degenerate(0.0), {"kind": "degenerate", "value": 0.0}),
    (VectorSpec, VectorSpec.shifted(VectorSpec.bernoulli01(0.25), [0.5, -1.0]),
     {"kind": "shifted", "base": {"kind": "bernoulli01", "p": 0.25}, "mu": [0.5, -1.0]}),
    (VectorSpec, VectorSpec.explicit([1.0, -2.5, 3.0]),
     {"kind": "explicit", "values": [1.0, -2.5, 3.0]}),
    (EnsembleSpec, EnsembleSpec.wigner(Atom.gaussian(), Atom.degenerate(0.0)),
     {"kind": "wigner", "offdiag": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
      "diag": {"kind": "degenerate", "value": 0.0}}),
    (EnsembleSpec, EnsembleSpec.wigner(Atom.centered_bernoulli(0.3), Atom.bernoulli01(0.25)),
     {"kind": "wigner", "offdiag": {"kind": "centered-bernoulli", "p": 0.3},
      "diag": {"kind": "bernoulli01", "p": 0.25}}),
]


@pytest.mark.parametrize("cls,spec,expected", SPEC_FORMS)
def test_spec_dict_forms_are_pinned(cls, spec, expected):
    # forms no preset covers; json.dumps pins key order as well as content
    assert json.dumps(spec.to_dict()) == json.dumps(expected)
    assert json.dumps(cls.from_dict(expected).to_dict()) == json.dumps(expected)
