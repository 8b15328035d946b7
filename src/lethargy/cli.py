"""Command-line front end.

    lethargy check     SCENARIO    condition checks only
    lethargy construct SCENARIO    finite or prefix construction (per scenario)
    lethargy sequence  SCENARIO    stabilization ladder
    lethargy demo [NAME]           run a bundled scenario (no NAME: list them)

Exit codes: 0 pass, 1 fail, 2 input error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from importlib import resources

from .construct import ConstructionError
from .distance import SolverError
from .scenario import Scenario, ScenarioError, emit, load_scenario, run

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _bundled_dir():
    return resources.files("lethargy").joinpath("data/scenarios")


def list_bundled() -> list[str]:
    return sorted(
        p.name.removesuffix(".json")
        for p in _bundled_dir().iterdir()
        if p.name.endswith(".json")
    )


def bundled_scenario_path(name: str) -> str:
    entry = _bundled_dir().joinpath(f"{name}.json")
    if not entry.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(list_bundled())}"
        )
    return str(entry)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _add_common(sub):
    sub.add_argument("--tolerance", type=_positive_float, default=None,
                     help="override scenario tolerance")
    sub.add_argument("--seed", type=_seed, default=None, help="override scenario seed")
    sub.add_argument(
        "--format", choices=("text", "machine"), default="text", dest="fmt",
        help="report format on stdout",
    )
    sub.add_argument("--output", default=None, help="also write the machine report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lethargy",
        description="Best-approximation distance constructions over nested subspace chains.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, help_text in (
        ("check", "run condition checks only"),
        ("construct", "run a finite or prefix construction"),
        ("sequence", "run the stabilization ladder"),
    ):
        sp = subs.add_parser(cmd, help=help_text)
        sp.add_argument("scenario", help="path to a scenario JSON file")
        _add_common(sp)
    demo = subs.add_parser("demo", help="run a bundled scenario by name (no name: list)")
    demo.add_argument("name", nargs="?", default=None)
    _add_common(demo)
    return parser


_COMMAND_MODES = {
    "check": ("check_only",),
    "construct": ("finite", "prefix"),
    "sequence": ("sequence",),
}


def _resolve_scenario(args) -> Scenario:
    if args.command == "demo":
        path = bundled_scenario_path(args.name)
    else:
        path = args.scenario
    scenario = load_scenario(path)
    if args.command != "demo" and scenario.mode not in _COMMAND_MODES[args.command]:
        raise ScenarioError(
            f"scenario mode {scenario.mode!r} does not fit subcommand {args.command!r} "
            f"(expected one of {_COMMAND_MODES[args.command]})"
        )
    overrides = {}
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo" and args.name is None:
        print("bundled scenarios:")
        for name in list_bundled():
            print(f"  {name}")
        return EXIT_PASS
    try:
        scenario = _resolve_scenario(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = run(scenario)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, ConstructionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(emit(report, "text" if args.fmt == "text" else "machine"), end="")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(emit(report, "machine"))
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
