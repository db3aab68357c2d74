"""Benchmark of the simplexflow scenario runner, driven from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` into ``perfbench/_work/``, which also
receives the outputs and ``result.json``.  One load-generating process runs
one workload at a time, as a closed loop: the next scenario starts when the
previous one has finished.

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics.  ``--trace 1`` is a separate run of the same workload with spans
around the program's public functions, plus per-check costs and a layer
sweep at n = 2, 8, 32, 128; it reports the per-layer metrics.  Every output
is checked: the verdict each scenario file expects, byte-identical outputs
across repeats, and the endpoint against the exact unitary propagator.
The last stdout line is one JSON object; the lines above it spell out every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from common import CLI, ENDPOINT_TOL, Child, batch_verdicts, digest_tree
from inputs import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")

SETUP_REPEATS = 7
#: A run must end within this many seconds, whatever the program does.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"scenario_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _self_s(row):
    return row["self_s"]


def _calls(row):
    return row["calls"]


def _per_call(scale):
    return lambda row: scale * row["total_s"] / row["calls"]


#: Per-layer metrics from the span table: (span, suffix, unit, formula).
SPAN_METRICS = (
    ("flows.integrate_midpoint", "us_per_step", "us", lambda row: 1e6 * row["total_s"] / row["steps"]),
    ("flows.integrate_midpoint", "self_s", "s", _self_s),
    ("flows.integrate_midpoint", "calls", "count", _calls),
    ("diagnostics.lie_derivative_metric", "ms_per_point", "ms", _per_call(1e3)),
    ("diagnostics.lie_derivative_metric", "self_s", "s", _self_s),
    ("diagnostics.lie_derivative_symplectic", "ms_per_point", "ms", _per_call(1e3)),
    ("diagnostics.lie_derivative_symplectic", "self_s", "s", _self_s),
    ("geometry.phase_space_metric", "calls", "count", _calls),
    ("geometry.phase_space_metric", "self_s", "s", _self_s),
    ("hilbert.propagate_unitary", "us", "us", _per_call(1e6)),
    ("hilbert.commutator_identity_check", "self_s", "s", _self_s),
    ("scenario.write_trajectory_csv", "us_per_row", "us", lambda row: 1e6 * row["total_s"] / row["rows"]),
    ("scenario.write_trajectory_csv", "MB_per_s", "MB/s", lambda row: row["bytes"] / row["total_s"] / 1e6),
    ("scenario.validate_config", "ms", "ms", _per_call(1e3)),
    ("scenario.emit_report", "ms", "ms", _per_call(1e3)),
)
SWEEP_UNITS = {
    "flows.hamiltonian_vector_field.us": "us",
    "flows.integrate_midpoint.us_per_step": "us",
    "diagnostics.lie_derivative_metric.ms": "ms",
    "diagnostics.lie_derivative_symplectic.ms": "ms",
    "scenario.write_trajectory_csv.us_per_row": "us",
}


def known_failures(workload: str) -> set[str]:
    """Names of the check rows that seed_ledger.json lists as failing at seed."""
    ledger = json.loads((HERE / "seed_ledger.json").read_text(encoding="utf-8"))
    return {row for entry in ledger["failures"] if entry["workload"] == workload for row in entry["rows"]}


class Run:
    """One benchmark run: its work directory, child environment and deadline."""

    def __init__(self, args):
        self.args = args
        self.size = "tiny" if args.tiny else "full"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.configs = write_inputs(args.workload, args.seed, self.size, self.work / "inputs")
        pythonpath = [str(SRC), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        self.batch = args.workload == "batch_serial"
        self.known = known_failures(args.workload)
        self._logs = 0

    def python(self, *args) -> Child:
        self._logs += 1
        return Child([sys.executable, *args], env=self.env, cwd=ROOT,
                     log=self.work / "logs" / f"{self._logs:03d}", timeout=self.deadline - time.monotonic())


def median_stats(values, unit: str) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    stats = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            stats[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return stats


def account(runs, endpoint_err: dict, known: set[str]) -> dict:
    """Count failed scenario runs and check rows; decide whether outputs are correct.

    A run fails when its outputs are wrong: it raised or exited with a code
    its report does not explain, its outputs differ from the first run of the
    same scenario, its scenario misses the endpoint oracle, or a check row is
    not ok that ``known``, the seed's ledger for this workload, does not
    list.  A run whose only rows that are not ok are in the ledger is a known
    seed defect: it is counted in ``known_defect_runs``, not in ``failed``,
    so ``failed`` stays 0 on the seed program whatever the seed.
    """
    first: dict[str, str] = {}
    failed = known_defects = rows = bad_rows = 0
    not_ok: dict[str, list] = {}
    unexplained: dict[str, list] = {}
    for stem, run in runs:
        why = sorted({r["name"] for r in run["bad_rows"]} - known)
        if run["exit_code"] not in (0, 1) or (run["exit_code"] == 1) != bool(run["bad_rows"]):
            why.append(f"exit code {run['exit_code']}")
        if first.setdefault(stem, run["digest"]) != run["digest"]:
            why.append("outputs differ from the first run")
        err = endpoint_err.get(stem)
        if err is not None and err > ENDPOINT_TOL:
            why.append(f"endpoint error {err:.3g}")
        if why:
            failed += 1
            unexplained.setdefault(stem, why)
        elif run["bad_rows"]:
            known_defects += 1
        rows += run["rows"]
        bad_rows += len(run["bad_rows"])
        if run["bad_rows"]:
            not_ok.setdefault(stem, run["bad_rows"])
    pure = [e for e in endpoint_err.values() if e is not None]
    return {
        "attempted": len(runs),
        "failed": failed,
        "correct": failed == 0,
        "known_defect_runs": known_defects,
        "check_rows": rows,
        "check_rows_not_ok": bad_rows,
        "rows_not_ok": not_ok,
        "failures": unexplained,
        "endpoint_err": max(pure) if pure else None,
        "endpoint_scenarios": len(pure),
    }


def measure_setup(run: Run) -> list[float]:
    walls = []
    for _ in range(2 if run.args.tiny else SETUP_REPEATS):
        child = run.python(CHILD, "setup", *map(str, run.configs))
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.describe()}")
        walls.append(child.wall_s)
    return walls


def timed_in_process(run: Run) -> dict:
    child = run.python(CHILD, "loop", str(run.args.seconds), str(run.work / "out"), str(run.configs[0]))
    result = child.last_json()
    if child.returncode != 0 or result is None:
        raise RuntimeError(f"scenario loop failed: {child.describe()}")
    stem = run.configs[0].stem
    record = account([(stem, call) for call in result["calls"]], result["endpoint_err"], run.known)
    record["samples"] = {
        "scenario_s": [call["scenario_s"] for call in result["calls"]],
        "peak_rss_mb": [child.peak_rss_mb],
    }
    return record


def timed_batch(run: Run) -> dict:
    inputs_dir = str(run.work / "inputs")
    runs, walls, rss = [], [], []
    endpoint_err = None
    end = time.monotonic() + run.args.seconds
    # At least two commands, to compare their outputs; none that would end past the deadline.
    while len(walls) < 2 or time.monotonic() + walls[-1] <= end:
        out = run.work / "out"
        child = run.python(*CLI, "batch", inputs_dir, "--out", str(out), "--jobs", "1", "--quiet")
        if child.returncode not in (0, 1, 2):
            raise RuntimeError(f"batch command failed: {child.describe()}")
        try:
            verdicts = batch_verdicts(out)
            digests = digest_tree(out)
        except (OSError, StopIteration, ValueError, KeyError) as exc:
            raise RuntimeError(f"batch outputs unreadable: {exc!r}; {child.describe()}") from exc
        if endpoint_err is None:
            oracle = run.python(CHILD, "oracle", str(out), *map(str, run.configs))
            endpoint_err = (oracle.last_json() or {}).get("endpoint_err")
            if oracle.returncode != 0 or endpoint_err is None:
                raise RuntimeError(f"endpoint oracle failed: {oracle.describe()}")
        # Delete before the next command, so that no write-back of these files
        # lands inside the next timed command.
        shutil.rmtree(out)
        runs += [(stem, {**v, "digest": digests[stem]}) for stem, v in verdicts.items()]
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
    record = account(runs, endpoint_err, run.known)
    count = len(run.configs)
    record["samples"] = {"scenario_s": [w / count for w in walls], "peak_rss_mb": rss}
    record["extra"] = {"scenarios_per_s": median_stats([count / w for w in walls], "1/s")}
    return record


def traced(run: Run) -> dict:
    child = run.python(CHILD, "trace", run.size, str(run.work), str(run.args.seed), str(int(run.batch)),
                       *map(str, run.configs))
    rec = child.last_json()
    if child.returncode != 0 or rec is None:
        raise RuntimeError(f"traced run failed: {child.describe()}")
    record = account(rec["runs"], rec["endpoint_err"], run.known)

    metrics, missing = {}, list(rec["missing_hooks"])
    layers = rec["layers"]
    for span, suffix, unit, formula in SPAN_METRICS:
        try:
            metrics[f"{span}.{suffix}"] = {"value": float(formula(layers[span])), "unit": unit}
        except (KeyError, ZeroDivisionError):
            missing.append(f"{span}.{suffix}")
    metrics["trace.overhead_s"] = {"value": rec["trace.overhead_s"], "unit": "s"}
    for name, value in rec["check_costs"].items():
        metrics[name] = {"value": value, "unit": "s"}
    for name, value in rec["sweep"].items():
        metrics[name] = {"value": value, "unit": SWEEP_UNITS[name.rsplit(".", 1)[0]]}
    record.update(metrics=metrics, missing=missing, errors=rec["errors"],
                  layers=layers, check_costs_config=rec["check_costs_config"])
    return record


def blas_threads():
    """OpenBLAS's default thread count in this environment, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def _fmt(stats: dict) -> str:
    tail = "".join(f", {k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
    count = f" (median of {stats['n']}{tail})" if "n" in stats else ""
    return f"{stats['value']:.6g} {stats['unit']}{count}"


def report(record: dict) -> None:
    """Human-readable lines; the JSON line printed after them is the machine record."""
    args = record["args"]
    print(f"workload {args['workload']}  seed {args['seed']}  tracing {'on' if args['trace'] else 'off'}")
    for name, stats in record["metrics"].items():
        print(f"  {name:50s} {_fmt(stats)}")
    for name, stats in record.get("extra", {}).items():
        print(f"  {name:50s} {_fmt(stats)}  (this workload only)")
    attempted, failed, known = record["attempted"], record["failed"], record["known_defect_runs"]
    print(f"  {'failed_ratio':50s} {failed / attempted:.4g} ({failed} failed of {attempted} scenario runs)")
    print(f"  {'known_defect_ratio':50s} {known / attempted:.4g} ({known} of {attempted} scenario runs"
          f" fail only rows listed in seed_ledger.json)")
    rows, bad = record["check_rows"], record["check_rows_not_ok"]
    print(f"  {'check_fail_ratio':50s} {bad / max(rows, 1):.4g} ({bad} of {rows} report rows not ok)")
    if record["endpoint_err"] is not None:
        print(f"  {'endpoint_err':50s} {record['endpoint_err']:.3g} (max over {record['endpoint_scenarios']}"
              f" pure-kernel scenarios; tolerance {ENDPOINT_TOL:g})")
    for stem, rows in record["rows_not_ok"].items():
        print(f"  not ok in {stem}: "
              + ", ".join(f"{r['name']} {r['residual']:.2g} vs {r['tolerance']:g}" for r in rows))
    for stem, reasons in record["failures"].items():
        print(f"  failed, outputs incorrect: {stem}: {', '.join(reasons)}")
    for name in record.get("missing", []):
        print(f"  missing: {name}")
    for name, message in record.get("errors", {}).items():
        print(f"  layer error {name}: {message}")
    print("  env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (a few seconds per run)")
    args = parser.parse_args(argv)
    if not (SRC / "simplexflow" / "__init__.py").is_file():
        print(f"error: {SRC / 'simplexflow'} not found; run from the root of a simplexflow checkout",
              file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so that the running child's session is killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args)
    record = {"args": vars(args)}
    try:
        if args.trace:
            record.update(traced(run))
        else:
            setup = measure_setup(run)
            record.update(timed_batch(run) if run.batch else timed_in_process(run))
            samples = record["samples"] = dict(record["samples"], setup_s=setup)
            record["metrics"] = {name: median_stats(samples[name], unit)
                                 for name, unit in END_TO_END_UNITS.items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["env"] = environment()
    (run.work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for bulky in ("inputs", "out", "warmup", "untraced", "traced", "checks"):
        shutil.rmtree(run.work / bulky, ignore_errors=True)
    (run.work / "sweep.csv").unlink(missing_ok=True)
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": s["value"], "unit": s["unit"]} for name, s in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
