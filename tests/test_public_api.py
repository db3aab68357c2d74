"""The package surface: every exported name resolves, the README tour runs,
and every span the benchmark's tracer hooks still has its function."""

import importlib
import importlib.util
from pathlib import Path

import simplexflow

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: Hooks the benchmark's tracer keeps on names the program no longer has, to
#: be dropped there (ROADMAP item 2); either may be gone already.
DEAD_HOOKS = {"simplexflow.scenario.complex_structure", "simplexflow.hilbert.poisson_bracket"}


def test_every_exported_name_resolves():
    missing = [name for name in simplexflow.__all__ if not hasattr(simplexflow, name)]
    assert missing == []
    assert len(set(simplexflow.__all__)) == len(simplexflow.__all__)


def test_readme_quick_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "README Quick tour", "exec"), {})


def test_every_traced_hook_resolves_in_its_call_site_module():
    # A hook whose name is gone is skipped by the tracer without failing a
    # run, so a refactor would drop its span unseen.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = {f"{module}.{attr}" for module, attr, *_ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))}
    assert missing <= DEAD_HOOKS
