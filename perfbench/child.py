"""Work the benchmark runs in fresh interpreters, one mode per call.

    child.py setup CONFIG...                    import the package, validate every config
    child.py loop SECONDS OUT CONFIG            run_scenario repeatedly for SECONDS
    child.py oracle OUT_ROOT CONFIG...          endpoint error of pure-kernel batch outputs
    child.py trace SIZE WORK SEED BATCH CONFIG... traced passes, check costs and layer sweep

Each mode but ``setup`` prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from common import batch_verdicts, digest, digest_tree, verdict
from inputs import SWEEP_N, is_pure_kernel, sweep_problem

#: Every named check, fixed here rather than read from the program, so that
#: per-check costs survive a rewrite of the program's check registry.
CHECKS = (
    "realness", "normalization", "symplectic", "metric", "complex_structure",
    "conservation", "convergence", "bracket_commutator", "ab_independence",
    "fs_consistency", "gauge_born",
)


def cmd_setup(paths):
    import simplexflow
    import simplexflow.cli  # noqa: F401  (part of what a user's start-up imports)

    for path in paths:
        simplexflow.validate_config(path)


def endpoint_error(config_path: Path, out_dir: Path) -> float | None:
    """||psi_end - exp(-i K tau) psi_0|| from the last CSV row.

    None for a kernel with linear or nonlinear terms, which has no unitary
    reference, and for a run that aborted before writing its CSV (already
    counted as failed by its exit code).
    """
    import numpy as np
    from simplexflow import HermitianOperator, propagate_unitary, to_complex, validate_config

    if not is_pure_kernel(json.loads(config_path.read_text(encoding="utf-8"))):
        return None
    cfg = validate_config(config_path)
    csv = out_dir / cfg.trajectory_path
    if not csv.is_file():
        return None
    last = csv.read_bytes().rstrip().rsplit(b"\n", 1)[-1]
    cells = [float(c) for c in last.decode().split(",")]
    n = cfg.n
    psi_end = np.asarray(cells[2 + 2 * n:2 + 3 * n]) + 1j * np.asarray(cells[2 + 3 * n:2 + 4 * n])
    exact = propagate_unitary(HermitianOperator(cfg.hamiltonian.kernel), to_complex(cfg.initial), cells[1])
    return float(np.linalg.norm(psi_end - exact.psi))


def cmd_loop(seconds: float, out_dir: Path, config_path: Path) -> dict:
    from simplexflow import run_scenario, validate_config

    cfg = validate_config(config_path)
    calls = []
    deadline = time.perf_counter() + seconds
    # At least two calls, to compare their outputs; no call that would end past the deadline.
    while len(calls) < 2 or time.perf_counter() + calls[-1]["scenario_s"] <= deadline:
        start = time.perf_counter()
        result = run_scenario(cfg, out_dir=out_dir)
        elapsed = time.perf_counter() - start
        files = [p for p in (result.trajectory_path, result.report_path) if p is not None]
        calls.append({"scenario_s": elapsed, "digest": digest(files), **verdict(result.report_path)})
    return {"calls": calls, "endpoint_err": {cfg.scenario_id: endpoint_error(config_path, out_dir)}}


def cmd_oracle(out_root: Path, paths) -> dict:
    return {"endpoint_err": {p.stem: endpoint_error(p, out_root / p.stem) for p in paths}}


def _median_call(fn, min_time: float, min_calls: int) -> float:
    """Median seconds per call over at least ``min_calls`` calls and ``min_time``
    seconds, after one untimed call that lets lazy set-up finish.  The median
    keeps the rare slow call out, such as a BLAS thread that takes a timer
    tick to wake."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_time:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_sweep(seed: int, work: Path, tiny: bool) -> tuple[dict, dict]:
    """Per-layer costs at each sweep dimension, measured with tracing off."""
    import simplexflow as sf

    min_time, min_calls, warm_up = (0.005, 1, 0.0) if tiny else (0.3, 5, 2.0)
    steps, rows = 20, 100
    metrics, errors = {}, {}
    problems = {}
    for n in SWEEP_N:
        kernel, psi = sweep_problem(n, seed)
        problems[n] = sf.HamiltonianSpec(kernel=kernel), sf.from_complex(sf.ComplexState(psi))[0]

    # The first threaded BLAS calls in a process can each wait a timer tick
    # (16 ms on a 2-vCPU VM) for a worker thread to wake; keep that one-time cost out.
    spec, x0 = problems[max(SWEEP_N)]
    end = time.perf_counter() + warm_up
    while time.perf_counter() < end:
        sf.hamiltonian_vector_field(spec, x0)

    def probe(name, scale, fn):
        try:
            metrics[name] = scale * _median_call(fn, min_time, min_calls)
        except Exception as exc:  # a layer that fails is reported, never fatal
            errors[name] = repr(exc)

    for n, (spec, x0) in problems.items():
        probe(f"flows.hamiltonian_vector_field.us.n{n}", 1e6, lambda: sf.hamiltonian_vector_field(spec, x0))
        probe(f"flows.integrate_midpoint.us_per_step.n{n}", 1e6 / steps,
              lambda: sf.integrate_midpoint(spec, x0, 1e-3, steps))
        probe(f"diagnostics.lie_derivative_metric.ms.n{n}", 1e3, lambda: sf.lie_derivative_metric(spec, x0))
        probe(f"diagnostics.lie_derivative_symplectic.ms.n{n}", 1e3,
              lambda: sf.lie_derivative_symplectic(spec, x0))
        csv_row = f"scenario.write_trajectory_csv.us_per_row.n{n}"
        try:
            trajectory = sf.integrate_midpoint(spec, x0, 1e-3, rows)
        except Exception as exc:
            errors[csv_row] = repr(exc)
        else:
            probe(csv_row, 1e6 / (rows + 1), lambda: sf.write_trajectory_csv(trajectory, work / "sweep.csv"))
    return metrics, errors


def check_costs(config_path: Path, work: Path, repeats: int) -> tuple[dict, dict]:
    """check.<name>.s: a one-check run_scenario at steps=1 minus a no-check one."""
    from simplexflow import config_from_dict, run_scenario

    base = json.loads(config_path.read_text(encoding="utf-8"))
    base["integrator"]["steps"] = 1
    variants = {None: []}
    variants.update({name: [name] for name in CHECKS})
    samples = {name: [] for name in variants}
    errors = {}
    for _ in range(repeats):
        for name, checks in variants.items():
            if name in errors:
                continue
            cfg = config_from_dict(dict(base, checks=checks, id=f"check_{name}"))
            start = time.perf_counter()
            try:
                run_scenario(cfg, out_dir=work / "checks")
            except Exception as exc:  # a check that fails is reported, never fatal
                errors[name] = repr(exc)
                continue
            samples[name].append(time.perf_counter() - start)
    errors = {f"check.{name or 'no_check'}": message for name, message in errors.items()}
    no_check = samples.pop(None)
    if not no_check:
        return {}, errors
    offset = statistics.median(no_check)
    return {f"check.{name}.s": statistics.median(s) - offset for name, s in samples.items() if s}, errors


def _in_process_pass(paths, out_root: Path, scenario_mod) -> dict:
    """Run each config through the scenario module's public functions."""
    results = {}
    for path in paths:
        cfg = scenario_mod.validate_config(path)
        out = out_root / path.stem
        start = time.perf_counter()
        result = scenario_mod.run_scenario(cfg, out_dir=out)
        elapsed = time.perf_counter() - start
        results[path.stem] = {"scenario_s": elapsed, "digest": digest(out.iterdir()),
                              **verdict(result.report_path)}
    return results


def _cli_batch(main, paths, out: Path) -> dict:
    """Run the batch command in process, with --jobs 1, through ``main``."""
    argv = ["batch", str(paths[0].parent), "--out", str(out), "--jobs", "1", "--quiet"]
    try:
        main(argv, prog_name="simplexflow", standalone_mode=False)
    except SystemExit:
        pass
    digests = digest_tree(out)
    return {k: {**v, "digest": digests[k]} for k, v in batch_verdicts(out).items()}


#: Untraced (False) and traced (True) passes, in an order that cancels a
#: linear drift of the host's speed out of trace.overhead_s.
PASS_ORDER = (False, True, True, False)


def cmd_trace(work: Path, seed: int, batch: bool, paths, tiny: bool) -> dict:
    import simplexflow.cli as cli
    import simplexflow.scenario as scenario
    from tracing import Tracer

    # One untimed scenario first, so that first-call costs such as BLAS thread
    # start-up and first page faults fall in neither pass.
    warm_up = json.loads(paths[0].read_text(encoding="utf-8"))
    warm_up["integrator"]["steps"] = 1
    scenario.run_scenario(scenario.config_from_dict(warm_up), out_dir=work / "warmup")

    # The first pass is untraced: every later output must match it byte for byte.
    record: dict = {"runs": []}
    pass_s = {False: [], True: []}
    first_tracer = None
    for traced in PASS_ORDER:
        out = work / ("traced" if traced else "untraced")
        shutil.rmtree(out, ignore_errors=True)
        if not traced:
            results = _in_process_pass(paths, out, scenario)
            pass_s[False].append(sum(r["scenario_s"] for r in results.values()))
        else:
            tracer = Tracer()
            tracer.install()
            try:
                if batch:
                    results = _cli_batch(tracer.span("cli.batch", cli.main), paths, out)
                else:
                    results = _in_process_pass(paths, out, scenario)
            finally:
                tracer.remove()
            first_tracer = first_tracer or tracer
            pass_s[True].append(tracer.layers().get("scenario.run_scenario", {}).get("total_s", 0.0))
        record["runs"] += list(results.items())
    record["trace.overhead_s"] = (statistics.median(pass_s[True]) - statistics.median(pass_s[False])) / len(paths)
    record["endpoint_err"] = {p.stem: endpoint_error(p, work / "traced" / p.stem) for p in paths}
    record["layers"] = first_tracer.layers()
    record["missing_hooks"] = first_tracer.missing
    (work / "spans.json").write_text(json.dumps(first_tracer.spans) + "\n", encoding="utf-8")

    if batch:
        representative = max((p for p in paths if p.stem.endswith("_pure") and int(p.stem[1:4]) <= 32),
                             key=lambda p: p.stem)
    else:
        representative = paths[0]
    record["check_costs_config"] = representative.stem
    record["check_costs"], check_errors = check_costs(representative, work, 1 if tiny else 3)
    try:
        record["sweep"], sweep_errors = layer_sweep(seed, work, tiny)
    except Exception as exc:  # a layer that fails is reported, never fatal
        record["sweep"], sweep_errors = {}, {"sweep": repr(exc)}
    record["errors"] = {**check_errors, **sweep_errors}
    return record


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        cmd_setup([Path(p) for p in rest])
        return
    if mode == "loop":
        result = cmd_loop(float(rest[0]), Path(rest[1]), Path(rest[2]))
    elif mode == "oracle":
        result = cmd_oracle(Path(rest[0]), [Path(p) for p in rest[1:]])
    elif mode == "trace":
        tiny = rest[0] == "tiny"
        result = cmd_trace(Path(rest[1]), int(rest[2]), rest[3] == "1", [Path(p) for p in rest[4:]], tiny)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
