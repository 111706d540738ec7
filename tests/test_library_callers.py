"""The library holds only code that the library itself runs.

Every top-level function and class in `src/namgrow`, and every method of
those classes, must be referenced somewhere in `src/namgrow` other than its
own definition, or be wrapped by the benchmark's tracer, which reaches into
the modules from outside.  Code that only tests call belongs in
`tests/oracles.py`.

References are matched by name (a `Name` or the attribute of an
`Attribute` node), so a method shares the references of any attribute with
its name; dunder methods are called by Python itself and are exempt.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "namgrow"


def _wrapped_names() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {fn_name for _, fn_name, _, _ in tracing.WRAPPED}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level function and class and
    of each method defined in such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_library_definition_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    exempt = _wrapped_names()
    orphans = [f"{module}:{qualified}"
               for module, tree in trees.items()
               for qualified, name in _definitions(tree)
               if not _is_dunder(name) and name not in referenced
               and name not in exempt]
    assert orphans == []
