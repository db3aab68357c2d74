"""The package surface: every exported name resolves and the README tour runs."""

from pathlib import Path

import simplexflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in simplexflow.__all__ if not hasattr(simplexflow, name)]
    assert missing == []
    assert len(set(simplexflow.__all__)) == len(simplexflow.__all__)


def test_readme_quick_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "README Quick tour", "exec"), {})
