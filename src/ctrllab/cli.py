"""Command-line entry point for running scenario experiments.

A run starts from either a scenario (``--scenario``) or a JSON config file
(``--config``, whose unknown or missing keys are errors); individual flags
override config keys.  Reports are written in the fixed CSV schema or as
JSON; the tool version and master seed are echoed on stderr for every run.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from ._version import __version__
from .harness import (_FORMATS, _METHODS, SCENARIOS, ExperimentConfig, apply_overrides,
                      make_scenario_config, report_csv, report_emit, report_json, run_experiment)
from .minctrl import BudgetExceededError
from .spectral import EigenDecompositionError


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension grid {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrllab",
        description="Monte Carlo controllability experiments for random linear systems.",
    )
    parser.add_argument("--scenario", help="scenario id (see --list-scenarios)")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--n", type=_parse_grid, metavar="N1,N2,...",
                        help="comma-separated dimension grid")
    parser.add_argument("--trials", type=int, help="trials per dimension")
    parser.add_argument("--p", type=float, help="edge density for G(n,p) scenarios")
    parser.add_argument("--method", choices=_METHODS)
    parser.add_argument("--out", help="output file path (defaults to stdout)")
    parser.add_argument("--format", choices=_FORMATS, dest="fmt")
    parser.add_argument("--gap-tol", type=float, dest="gap_tol",
                        help="relative eigenvalue-gap acceptance threshold")
    parser.add_argument("--ortho-tol", type=float, dest="ortho_tol",
                        help="relative eigenvector-input acceptance threshold")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list scenarios and exit")
    parser.add_argument("--version", action="version", version=f"ctrllab {__version__}")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built on its first call and reused: parse_args returns a
    # fresh namespace and never changes the parser, and error, --help and
    # --version look up sys.stdout and sys.stderr when they print
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = dict(
        n_grid=args.n, trials=args.trials, p=args.p, master_seed=args.seed,
        method=args.method, gap_tol=args.gap_tol, ortho_tol=args.ortho_tol,
        out=args.out, fmt=args.fmt,
    )
    if not args.config:
        return make_scenario_config(args.scenario, **overrides)
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    if args.scenario and args.scenario != config.scenario:
        raise ValueError(f"--scenario {args.scenario!r} conflicts with config file "
                         f"scenario {config.scenario!r}")
    return apply_overrides(config, **overrides)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(f"{name:<{width}}  {scenario.describe}")
        return 0
    if not args.scenario and not args.config:
        parser.error("one of --scenario or --config is required")
    try:
        config = _config_from_args(args)
        report = run_experiment(config)
        if config.out:
            report_emit(report, config.out, config.fmt)
            destination = config.out
        else:
            sys.stdout.write(report_csv(report) if config.fmt == "csv" else report_json(report))
            destination = "stdout"
        print(f"ctrllab {__version__} scenario={config.scenario} seed={config.master_seed} "
              f"rows={len(report.rows)} -> {destination}", file=sys.stderr)
        return 0
    except (ValueError, OSError, ArithmeticError,
            BudgetExceededError, EigenDecompositionError) as exc:
        print(f"ctrllab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
