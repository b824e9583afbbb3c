"""Command-line driver: run named experiments, list them, run the check suite.

Exit codes: 0 success, 2 usage/config parse error or an --out directory
that cannot be created, 3 numerical failure, 4 acceptance-threshold
failure of `check`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .acceptance import run_criteria
from .errors import ConfigError, FracLabError
from .experiments import RECIPES, run_experiment
from .runconfig import parse_config

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="fractional-Laplacian grid laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", default="out", help="output directory")

    p_list = sub.add_parser("list", help="list experiment recipes")
    p_list.add_argument("--json", action="store_true", help="emit a JSON array")

    p_check = sub.add_parser("check", help="run the embedded acceptance suite")
    p_check.add_argument("--out", default="out/acceptance", help="output directory")
    p_check.add_argument("--criteria", default=None,
                         help="comma-separated criterion numbers (default: all)")
    return parser


def make_out_dir(path):
    """Create the output directory; False, after an error line naming it, if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def cmd_run(args):
    try:
        cfg = parse_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    name = cfg.get_str("experiment", "name", default=None)
    if name is None:
        print("error: config needs [experiment] name = <recipe>", file=sys.stderr)
        return EXIT_USAGE
    if not make_out_dir(args.out):
        return EXIT_USAGE
    try:
        summary = run_experiment(name, cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FracLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"experiment {name}: artifacts in {args.out}")
    for key, val in summary.items():
        print(f"  {key}: {val}")
    return EXIT_OK


def cmd_list(args):
    names = list(RECIPES)
    if args.json:
        print(json.dumps(names))
    else:
        for name in names:
            print(name)
    return EXIT_OK


def cmd_check(args):
    numbers = None
    if args.criteria is not None:
        try:
            numbers = {int(tok) for tok in args.criteria.replace(",", " ").split()}
        except ValueError:
            numbers = set()
        if not numbers or not numbers <= set(range(1, 11)):
            print(f"error: --criteria needs numbers in 1..10, got {args.criteria!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    if not make_out_dir(args.out):
        return EXIT_USAGE
    try:
        results = run_criteria(args.out, numbers=None if numbers is None else sorted(numbers))
    except FracLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for r in results:
        print(r.line())
    if any(not r.passed for r in results):
        return EXIT_THRESHOLD
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "check":
        return cmd_check(args)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
