"""Command-line interface.

Exit codes: 0 on success, 1 on verification failure, 2 on configuration
errors (bad arguments, unknown scenarios, malformed configs, unwritable
output paths).  ``symbolic-check``, ``list`` and a ``suite`` whose filter
selects no scenario run without numpy: only the commands that load
scenarios import it and the numeric modules.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import ConfigError, GenericityError, chern
from .report import emit_report

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a ConfigError, one line and exit code 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser():
    parser = _ArgumentParser(
        prog="lawcheck",
        description="Verify the Law of Vector Fields and the secondary "
                    "Chern-Euler form identities, symbolically and "
                    "numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True,
                       help="catalog name or path to a scenario JSON file")
    p_run.add_argument("--order", type=_positive_int, default=None,
                       help="override the boundary quadrature order")
    p_run.add_argument("--format", choices=("json", "text", "csv"),
                       default="text")
    p_run.add_argument("--out", default=None, help="write the report here")

    p_suite = sub.add_parser("suite", help="run matching scenarios and "
                                           "identity checks")
    p_suite.add_argument("--filter", default="",
                         help="regex matched against 'name nD kind' tags")
    p_suite.add_argument("--order", type=_positive_int, default=None)
    p_suite.add_argument("--format", choices=("json", "text"), default="text")
    p_suite.add_argument("--out", default=None)

    p_sym = sub.add_parser("symbolic-check",
                           help="verify one symbolic identity exactly")
    p_sym.add_argument("--n", type=int, required=True,
                       help=f"ambient dimension, 2..{chern.MAX_BUILD_N}")
    p_sym.add_argument("--identity",
                       choices=("dphi", "upsilon", "gamma", "all"),
                       default="all")
    p_sym.add_argument("--print", dest="print_form",
                       choices=("phi", "gamma"), default=None,
                       help="render the named form as text")

    sub.add_parser("list", help="list the catalog scenarios")
    return parser


def _write_or_print(payload, path):
    if path is None:
        print(payload, end="" if payload.endswith("\n") else "\n")
        return
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}") from exc


def _cmd_run(args):
    from .runner import run_scenario
    from .scenarios import catalog_names, load_catalog_scenario, load_scenario_file
    if os.path.exists(args.scenario):
        scenario = load_scenario_file(args.scenario)
    elif args.scenario in catalog_names():
        scenario = load_catalog_scenario(args.scenario)
    else:
        raise ConfigError(f"unknown scenario {args.scenario!r}; use a catalog "
                          f"name ({', '.join(catalog_names())}) or a path")
    report = run_scenario(scenario, order=args.order)
    payload = emit_report(report, fmt=args.format,
                          include_timing=args.format == "text")
    _write_or_print(payload, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_suite(args):
    from .suite import run_suite
    suite = run_suite(args.filter, order=args.order)
    payload = (suite.to_json() if args.format == "json"
               else suite.to_text(include_timing=True))
    _write_or_print(payload, args.out)
    return EXIT_OK if suite.all_passed else EXIT_VERIFICATION


def _cmd_symbolic(args):
    n = args.n
    identities = [ident for ident, dim in chern.SYMBOLIC_CHECKS if dim == n]
    if not identities:
        raise ConfigError(f"symbolic checks support dimensions 2..{chern.MAX_BUILD_N}")
    if args.identity != "all":
        if args.identity not in identities:
            raise ConfigError("the boundary identities start at dimension 3; "
                              f"use --n 3..{chern.MAX_BUILD_N}")
        identities = [args.identity]
    if args.print_form == "phi":
        print(chern.build_phi(n).phi.render())
    elif args.print_form == "gamma":
        print(chern.boundary_family(n).gamma.render())
    failed = False
    for ident in identities:
        rep = chern.run_symbolic(ident, n)
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: residual terms = {rep.residual_terms} [{status}] "
              f"({rep.wall_time_s:.2f}s)")
        failed |= not rep.passed
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_list(_args):
    from .suite import catalog_names, load_catalog_raw
    for name in catalog_names():
        raw = load_catalog_raw(name)
        exp = raw["expected"]
        print(f"{name:22s} n={raw['dimension']} chi={raw['chi']:+d} "
              f"ind V={exp['ind_v']:+d} ind d-V={exp['ind_dminus']:+d}  "
              f"{raw.get('description', '')}")
    return EXIT_OK


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        command = {"run": _cmd_run, "suite": _cmd_suite,
                   "symbolic-check": _cmd_symbolic, "list": _cmd_list}[args.command]
        with warnings.catch_warnings():
            # overflow and NaN end in the checks' finiteness gates, with one line
            # on stderr, so numpy's floating-point warnings (RuntimeWarning)
            # would only repeat them; a filter needs no numpy import
            warnings.simplefilter("ignore", RuntimeWarning)
            return command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenericityError as exc:
        print(f"genericity violation: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
