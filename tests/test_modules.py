"""Module boundaries inside the package."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import nearfield

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nearfield"
ROOT = PACKAGE.parents[1]


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


def _tracing(monkeypatch):
    """perfbench/tracing.py, loaded from its file."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def _unused_imports(path: Path, wrapped: set[str]):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, lineno in imported.items():
        if name not in used | exported | wrapped:
            yield f"{path.name}:{lineno} imports {name} and never uses it"


def test_no_private_name_crosses_a_module_boundary():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 6
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, found


def test_every_import_is_used_exported_or_traced(monkeypatch):
    # a name no code reads is dead weight, unless the package exports it or
    # the benchmark tracer wraps it in that module
    wrapped = {}
    for module, attr, _layer, _site in _tracing(monkeypatch).WRAPPED:
        wrapped.setdefault(module, set()).add(attr)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "nearfield" if path.stem == "__init__" else f"nearfield.{path.stem}"
        found.extend(_unused_imports(path, wrapped.get(module, set())))
    assert not found, found


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark tracer wraps these module globals by name and fails to
    # install when one is gone, so removing an import breaks the traced runs
    tracing = _tracing(monkeypatch)
    assert tracing.WRAPPED
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer, _site in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, missing


def _readers(path: Path) -> dict[str, set[str | None]]:
    """Each name the module reads -> the top-level functions and classes that
    read it, None standing for module-level code; a definition reading its
    own name does not count."""
    readers: dict[str, set[str | None]] = {}
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                name = sub.attr
            else:
                continue
            if name != owner:
                readers.setdefault(name, set()).add(owner)
    return readers


def test_every_public_name_has_a_user():
    # a public name earns its place when the package's own code reads it, the
    # benchmark uses it or README names it; a read inside a public function
    # that has no user itself does not count
    readers: dict[str, set[str | None]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            for name, owners in _readers(path).items():
                readers.setdefault(name, set()).update(owners)
    outside = "\n".join(
        [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
        + [(ROOT / "README.md").read_text(encoding="utf-8")]
    )
    candidates = [name for name in nearfield.__all__ if not re.search(rf"\b{name}\b", outside)]
    unused: set[str | None] = set()
    while True:
        grown = {name for name in candidates if readers.get(name, set()) <= unused}
        if grown == unused:
            break
        unused = grown
    assert not unused, ", ".join(sorted(unused))
