"""Module boundaries inside the package."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nearfield"


def _private_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("nearfield"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_private_name_crosses_a_module_boundary():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 6
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, found


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark tracer wraps these module globals by name and fails to
    # install when one is gone, so removing an import breaks the traced runs
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer, _site in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, missing
