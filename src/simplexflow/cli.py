"""Command-line scenario runner: run, validate, batch."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from ._version import __version__
from .errors import ConfigError
from .scenario import ScenarioResult, run_scenario, validate_config


@click.group()
@click.version_option(version=__version__, prog_name="simplexflow")
def main():
    """Run and validate flow scenarios on the simplex phase space."""


def _echo_result(result: ScenarioResult) -> None:
    for row in result.report.get("checks", []):
        status = "ok " if row["ok"] else "FAIL"
        expected = "" if row["expect_pass"] else " (expected to fail)"
        click.echo(
            f"{status} {row['name']}: residual {row['residual']:.3e}"
            f" tolerance {row['tolerance']:.1e}{expected}"
        )
    error = result.report.get("error")
    if error:
        click.echo(f"error [{error['type']}]: {error['message']}", err=True)
    click.echo(f"report: {result.report_path}")
    if result.trajectory_path is not None:
        click.echo(f"trajectory: {result.trajectory_path}")


def _run_one(path: Path, out_dir: Path | None, seed: int | None) -> tuple[int, list[str], ScenarioResult | None]:
    """Validate, reseed when asked, and run one scenario file: the exit code,
    the messages for stderr, and the result when the scenario ran."""
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


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Output directory (default: current directory).")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override the config seed.")
@click.option("--quiet", is_flag=True, help="Suppress per-check output.")
def run(config: Path, out: Path | None, seed: int | None, quiet: bool):
    """Execute one scenario: integrate, run its checks, write CSV and report."""
    code, messages, result = _run_one(config, out, seed)
    for message in messages:
        click.echo(message, err=True)
    if result is not None and not quiet:
        _echo_result(result)
    sys.exit(code)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def validate(config: Path):
    """Validate a scenario file, reporting every problem found."""
    try:
        cfg = validate_config(config)
    except ConfigError as exc:
        for message in exc.errors:
            click.echo(f"invalid: {message}", err=True)
        sys.exit(2)
    click.echo(f"ok: {cfg.scenario_id} (n={cfg.n}, steps={cfg.steps}, checks={len(cfg.checks)})")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Output root; each scenario gets its own subdirectory.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override every config seed.")
@click.option("--jobs", type=click.IntRange(1, 64), default=1,
              help="Run scenarios in parallel processes.")
@click.option("--quiet", is_flag=True, help="Only report failures.")
def batch(directory: Path, out: Path | None, seed: int | None, jobs: int, quiet: bool):
    """Run every *.json scenario in DIRECTORY with isolated outputs."""
    configs = sorted(directory.glob("*.json"))
    if not configs:
        click.echo(f"no *.json configs found in {directory}", err=True)
        sys.exit(2)
    out_root = out if out is not None else Path.cwd()
    args = (configs, [out_root / path.stem for path in configs], [seed] * len(configs))
    if jobs > 1:
        # Imported here, so that commands without a process pool do not pay
        # for loading concurrent.futures and multiprocessing at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, *args))
    else:
        outcomes = list(map(_run_one, *args))
    worst = 0
    for path, (code, messages, _) in zip(configs, outcomes):
        worst = max(worst, code)
        for message in messages:
            click.echo(f"{path.stem}: {message}", err=True)
        if code != 0:
            click.echo(f"{path.stem}: exit {code}", err=True)
        elif not quiet:
            click.echo(f"{path.stem}: ok")
    sys.exit(worst)
