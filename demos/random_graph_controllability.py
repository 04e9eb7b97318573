"""How often is a random graph controllable from every single vertex?

Runs the conj1 scenario (G(n, p) with every standard basis input tested
against one shared eigendecomposition) over a dimension grid and prints the
success frequency with Wilson intervals: the probability climbs toward one
as n grows.  Also shows the all-ones-input scenario, whose limit is open.
"""

import sys

from ctrllab import make_scenario_config, report_csv, run_experiment

checks = {}  # label -> whether it held; any False makes the exit status nonzero

print("All basis inputs controllable at once, G(n, 1/2), 200 trials per n:")
config = make_scenario_config("conj1", n_grid=(8, 16, 32, 64), trials=200,
                              method="float-pbh", master_seed=42)
report = run_experiment(config)
for row in report.rows:
    bar = "#" * round(40 * row.frequency)
    print(f"  n={row.n:3d}  freq={row.frequency:5.3f}  "
          f"CI=({row.ci_lo:.3f}, {row.ci_hi:.3f})  {bar}")
freqs = [row.frequency for row in report.rows]
checks["conj1 frequency rises with n"] = freqs == sorted(freqs)

print("\nAll-ones input, same graphs (open conjecture; frequencies only):")
config = make_scenario_config("conj2", n_grid=(8, 16, 24), trials=200,
                              method="float-pbh", master_seed=42)
for row in run_experiment(config).rows:
    print(f"  n={row.n:3d}  freq={row.frequency:5.3f}  "
          f"CI=({row.ci_lo:.3f}, {row.ci_hi:.3f})")

print("\nGOE with a fixed basis input is controllable with probability one:")
config = make_scenario_config("thm-goe", n_grid=(10, 30), trials=500, master_seed=42)
report = run_experiment(config)
for row in report.rows:
    print(f"  n={row.n:3d}  freq={row.frequency:5.3f}  "
          f"indeterminate={row.indeterminates}")
    checks[f"thm-goe at n={row.n}"] = row.frequency == 1.0
checks["thm-goe rerun"] = report_csv(run_experiment(config)) == report_csv(report)

print("\nRe-running any of these configs reproduces the same report byte for "
      "byte;\nuse the `ctrllab` CLI to write CSV/JSON reports.")

failed = [label for label, ok in checks.items() if not ok]
if failed:
    sys.exit(f"failed checks: {', '.join(failed)}")
