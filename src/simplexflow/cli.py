"""Command-line scenario runner: run, validate, batch; paths and seeds are checked by `scenario`."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .errors import ConfigError
from .scenario import ScenarioResult, run_scenario, validate_config


def _echo(message: str, err: bool = False) -> None:
    # Flushed line by line, so stdout and stderr keep their order on one terminal.
    print(message, file=sys.stderr if err else sys.stdout, flush=True)


def _echo_result(result: ScenarioResult) -> None:
    for row in result.report.get("checks", []):
        status = "ok " if row["ok"] else "FAIL"
        expected = "" if row["expect_pass"] else " (expected to fail)"
        _echo(f"{status} {row['name']}: residual {row['residual']:.3e} tolerance {row['tolerance']:.1e}{expected}")
    if error := result.report.get("error"):
        _echo(f"error [{error['type']}]: {error['message']}", err=True)
    _echo(f"report: {result.report_path}")
    if result.trajectory_path is not None:
        _echo(f"trajectory: {result.trajectory_path}")


def _run_one(path: Path, out_dir: Path | None, seed: int | None) -> tuple[int, list[str], ScenarioResult | None]:
    """Validate, reseed when asked, and run one scenario file: (exit code, stderr messages, result or None)."""
    try:
        cfg = validate_config(path)
        if seed is not None:
            cfg = cfg.with_seed(seed)
    except ConfigError as exc:
        return 2, [f"config error: {m}" for m in exc.errors], None
    try:
        result = run_scenario(cfg, out_dir=out_dir)
    except OSError as exc:
        return 2, [f"error: cannot write outputs: {exc}"], None
    return result.exit_code, [], result


def run(args: argparse.Namespace) -> int:
    """Execute one scenario: integrate, run its checks, write CSV and report."""
    code, messages, result = _run_one(args.config, args.out, args.seed)
    for message in messages:
        _echo(message, err=True)
    if result is not None and not args.quiet:
        _echo_result(result)
    return code


def validate(args: argparse.Namespace) -> int:
    """Validate a scenario file, reporting every problem found."""
    try:
        cfg = validate_config(args.config)
    except ConfigError as exc:
        for message in exc.errors:
            _echo(f"invalid: {message}", err=True)
        return 2
    _echo(f"ok: {cfg.scenario_id} (n={cfg.n}, steps={cfg.steps}, checks={len(cfg.checks)})")
    return 0


def batch(args: argparse.Namespace) -> int:
    """Run every *.json scenario in DIRECTORY with isolated outputs."""
    configs = sorted(args.directory.glob("*.json"))
    if not configs:
        _echo(f"no *.json configs found in {args.directory}", err=True)
        return 2
    calls = (configs, [(args.out or Path.cwd()) / path.stem for path in configs], [args.seed] * len(configs))
    if args.jobs > 1:
        # Imported here, so that commands without a pool do not load it at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_run_one, *calls))
    else:
        outcomes = list(map(_run_one, *calls))
    for path, (code, messages, _) in zip(configs, outcomes):
        for message in messages:
            _echo(f"{path.stem}: {message}", err=True)
        if code != 0:
            _echo(f"{path.stem}: exit {code}", err=True)
        elif not args.quiet:
            _echo(f"{path.stem}: ok")
    return max(code for code, _, _ in outcomes)


def main(argv: list[str] | None = None, prog_name: str = "simplexflow", standalone_mode: bool = True):
    """Run and validate flow scenarios on the simplex phase space."""
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = {}
    for command, argument in ((run, "CONFIG"), (validate, "CONFIG"), (batch, "DIRECTORY")):
        doc = command.__doc__
        sub[command] = commands.add_parser(command.__name__, help=doc, description=doc, allow_abbrev=False)
        sub[command].set_defaults(command=command)
        sub[command].add_argument(argument.lower(), metavar=argument, type=Path)
    sub[run].add_argument("--out", type=Path, help="Output directory (default: current directory).")
    sub[run].add_argument("--seed", type=int, help="Override the config seed.")
    sub[run].add_argument("--quiet", action="store_true", help="Suppress per-check output.")
    sub[batch].add_argument("--out", type=Path, help="Output root; each scenario gets its own subdirectory.")
    sub[batch].add_argument("--seed", type=int, help="Override every config seed.")
    sub[batch].add_argument("--jobs", type=int, default=1, help="Run scenarios in parallel processes.")
    sub[batch].add_argument("--quiet", action="store_true", help="Only report failures.")
    args = parser.parse_args(argv)
    if not 1 <= getattr(args, "jobs", 1) <= 64:
        sub[batch].error(f"argument --jobs: {args.jobs} is not in the range 1<=x<=64")
    code = args.command(args)
    if not standalone_mode:  # the caller handles the exit code
        return code
    sys.exit(code)
