"""perfbench's tracer binds facetrec functions by module and name.

A name it binds that is gone fails perfbench's traced runs only; this
reads its table with ``ast`` so that the plain test suite fails too.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} has no TRACED table")


def test_every_traced_function_resolves_in_facetrec():
    traced = _traced()
    assert traced and all(module.startswith("facetrec") for module, _ in traced.values())
    missing = [
        f"{span}: {module}.{name}"
        for span, (module, name) in traced.items()
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
