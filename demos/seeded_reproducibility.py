"""Seed lineage: every random object is addressable and re-derivable.

Streams derive from (master seed, scenario, n, trial, object tag), so any
single trial can be re-run in isolation and grids can be extended without
perturbing earlier cells.
"""

from ctrllab import make_scenario_config, report_csv, run_experiment, run_trial

config = make_scenario_config("cor-gnp-rand", n_grid=(8, 12), trials=30,
                              master_seed=90210)

print("Run the experiment twice; the CSV must match byte for byte:")
a = report_csv(run_experiment(config))
b = report_csv(run_experiment(config))
print(f"  identical: {a == b}")
print(a)

print("Re-run a single trial in isolation and compare the record:")
rec = run_trial(config, 12, 17)
again = run_trial(config, 12, 17)
print(f"  seed path: master={rec.master_seed}, labels={rec.seed_path().labels}")
print(f"  verdicts:  {rec.verdicts}")
print(f"  bit-equal witnesses on re-run: {rec.witnesses == again.witnesses}")

print("\nExtending the grid leaves every earlier cell unchanged:")
wider = make_scenario_config("cor-gnp-rand", n_grid=(8, 12, 16), trials=30,
                             master_seed=90210)
wide = report_csv(run_experiment(wider))
print(f"  rows for n=8 and n=12 identical: {wide.splitlines()[:3] == a.splitlines()[:3]}")
print(f"  trial (12, 17) identical:        {run_trial(wider, 12, 17) == rec}")
