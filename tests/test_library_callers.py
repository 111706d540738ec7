"""The library holds only code that the library itself runs.

Every top-level function and class in `src/namgrow`, and every method of
those classes, must be referenced somewhere in `src/namgrow` other than its
own definition, or be wrapped by the benchmark's tracer, which reaches into
the modules from outside.  Code that only tests call belongs in
`tests/oracles.py`.

References are matched by name (a `Name` or the attribute of an
`Attribute` node), so a method shares the references of any attribute with
its name; dunder methods are called by Python itself and are exempt.

The tracer wraps its functions by name with `getattr`, so each name it
lists must also resolve to a callable of its module: a rename would
otherwise break only the traced benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "namgrow"


def _wrapped() -> list[tuple[str, str]]:
    """(module, function) of each function the tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, fn_name) for module, fn_name, _, _ in tracing.WRAPPED]


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
    exempt = {name for _, name in _wrapped()}
    orphans = [f"{module}:{qualified}"
               for module, tree in trees.items()
               for qualified, name in _definitions(tree)
               if not _is_dunder(name) and name not in referenced
               and name not in exempt]
    assert orphans == []


def test_every_traced_name_is_a_library_callable():
    missing = [f"{module}.{name}" for module, name in _wrapped()
               if not callable(getattr(importlib.import_module(
                   f"namgrow.{module}"), name, None))]
    assert missing == []


def _names(tree: ast.Module):
    """Every name a module binds, imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_branch_mlps_are_forwarded_only_by_the_engine_and_clustering():
    """One forward engine: `mlp_forward_batch` is named only where it is
    defined (nn_core), in the engine that forwards branches on a dataset
    split (nam_model) and in clustering's forward of its sampled pairs."""
    users = sorted(path.stem for path in SRC.glob("*.py")
                   if "mlp_forward_batch" in _names(ast.parse(
                       path.read_text())))
    assert users == ["clustering", "nam_model", "nn_core"]


def test_config_imports_only_the_standard_library():
    """The command line resolves its config, and caps the BLAS threads
    from it, before NumPy is first imported: the config module imports
    nothing but the standard library."""
    tree = ast.parse((SRC / "config.py").read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and [m for m in modules if m.split(".")[0]
                        not in sys.stdlib_module_names] == []
