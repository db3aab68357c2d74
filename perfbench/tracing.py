"""In-memory spans around the program's public functions.

Each hook replaces a function at the module attribute where its caller
resolves it, so the program itself is not edited.  A span records its name,
start, end, parent span and scenario id; spans stay in a list and are written
once, after the run.  A hooked name that no longer exists is reported as
missing and never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from pathlib import Path


def _steps(args, kwargs, result):
    return {"steps": kwargs.get("steps", args[3] if len(args) > 3 else 0)}


def _csv_rows(args, kwargs, result):
    return {"rows": len(args[0]), "bytes": os.path.getsize(result)}


def _scenario_of_config(args, kwargs):
    return args[0].scenario_id


def _scenario_of_path(args, kwargs):
    return Path(args[0]).stem


#: (call-site module, attribute, span name, work counter, scenario id of the call)
HOOKS = (
    ("simplexflow.scenario", "run_scenario", "scenario.run_scenario", None, _scenario_of_config),
    ("simplexflow.scenario", "validate_config", "scenario.validate_config", None, _scenario_of_path),
    ("simplexflow.cli", "run_scenario", "scenario.run_scenario", None, _scenario_of_config),
    ("simplexflow.cli", "validate_config", "scenario.validate_config", None, _scenario_of_path),
    ("simplexflow.scenario", "integrate_midpoint", "flows.integrate_midpoint", _steps, None),
    ("simplexflow.scenario", "write_trajectory_csv", "scenario.write_trajectory_csv", _csv_rows, None),
    ("simplexflow.scenario", "emit_report", "scenario.emit_report", None, None),
    ("simplexflow.scenario", "check_normalization_generator", "flows.check_normalization_generator",
     None, None),
    ("simplexflow.scenario", "lie_derivative_metric", "diagnostics.lie_derivative_metric", None, None),
    ("simplexflow.scenario", "lie_derivative_symplectic", "diagnostics.lie_derivative_symplectic",
     None, None),
    ("simplexflow.scenario", "convergence_study", "diagnostics.convergence_study", None, None),
    ("simplexflow.scenario", "fs_consistency", "diagnostics.fs_consistency", None, None),
    ("simplexflow.scenario", "ab_independence_sweep", "diagnostics.ab_independence_sweep", None, None),
    ("simplexflow.scenario", "sample_interior_points", "diagnostics.sample_interior_points", None, None),
    ("simplexflow.scenario", "complex_structure", "geometry.complex_structure", None, None),
    ("simplexflow.scenario", "propagate_unitary", "hilbert.propagate_unitary", None, None),
    ("simplexflow.scenario", "commutator_identity_check", "hilbert.commutator_identity_check", None, None),
    ("simplexflow.diagnostics", "integrate_midpoint", "flows.integrate_midpoint", _steps, None),
    ("simplexflow.diagnostics", "phase_space_metric", "geometry.phase_space_metric", None, None),
    ("simplexflow.diagnostics", "propagate_unitary", "hilbert.propagate_unitary", None, None),
    ("simplexflow.hilbert", "poisson_bracket", "flows.poisson_bracket", None, None),
)


class Tracer:
    """Span recorder; ``install`` hooks the program, ``remove`` restores it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._scenario: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name, fn, work=None, scenario_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_scenario = self._scenario
            if scenario_of is not None:
                self._scenario = scenario_of(args, kwargs)
            record = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "scenario": self._scenario,
            }
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
                self._scenario = outer_scenario
            if work is not None:
                record.update(work(args, kwargs, result))
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, name, work, scenario_of in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, work, scenario_of))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed work counters.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        table: dict[str, dict] = {}
        for i, record in enumerate(self.spans):
            duration = record["end"] - record["start"]
            row = table.setdefault(record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
            for key in ("steps", "rows", "bytes"):
                if key in record:
                    row[key] = row.get(key, 0) + record[key]
        return table
