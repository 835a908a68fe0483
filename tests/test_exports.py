"""Every name a module exports resolves, so deleting code cannot leave a
stale entry in an ``__all__`` list, and is used by the program itself, so no
production code exists only for the tests."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import entpost

MODULES = ["entpost"] + [f"entpost.{info.name}" for info in pkgutil.iter_modules(entpost.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


ROOT = Path(__file__).resolve().parent.parent
PROGRAM_TREES = {
    path: ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("src", "demos", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
    if not path.name.startswith("test_")
}


def _references(tree: ast.Module, skip: str | ast.AST | None = None) -> Counter:
    """Names that ``tree`` reads, as bare names or attributes; imports,
    ``__all__`` strings and the definition ``skip`` (a node, or the name of
    a top-level definition) do not count."""
    counts: Counter = Counter()
    stack = [
        node for node in tree.body
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)
    ]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return counts


@pytest.mark.parametrize("module_name", [name for name in MODULES if name != "entpost"])
def test_every_exported_name_is_used_outside_the_tests(module_name):
    # each exported name must be read somewhere in the program, its demos or
    # its benchmark, so no production code exists only for the tests
    module = importlib.import_module(module_name)
    own_file = Path(module.__file__).resolve()
    elsewhere = Counter()
    for path, tree in PROGRAM_TREES.items():
        if path != own_file:
            elsewhere.update(_references(tree))
    unused = [
        name for name in getattr(module, "__all__", [])
        if not elsewhere[name] and not _references(PROGRAM_TREES[own_file], skip=name)[name]
    ]
    assert unused == []


def test_every_public_method_is_used_outside_the_tests():
    # each public method and property a class in the package defines must be
    # read somewhere in the program, its demos or its benchmark, outside its
    # own definition
    everywhere = {path: _references(tree) for path, tree in PROGRAM_TREES.items()}
    unused = []
    for path, tree in PROGRAM_TREES.items():
        if (ROOT / "src" / "entpost") not in path.parents:
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                elsewhere = sum(refs[method.name] for other, refs in everywhere.items() if other != path)
                if not elsewhere and not _references(tree, skip=method)[method.name]:
                    unused.append(f"{cls.name}.{method.name}")
    assert unused == []


def _perfbench(name: str):
    """A module of the benchmark, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_span_names_a_traced_member():
    # a traced benchmark run fails when a span it requires never fires, but
    # only the benchmark's own tests notice a deleted or renamed one; each
    # name must be a function of its module, or a member of a class the
    # module defines that the tracer wraps
    traced_members = _perfbench("tracer")._traced_members
    missing = []
    for workload in _perfbench("workloads").WORKLOADS.values():
        for span in workload.required_spans:
            module_name, *path = span.split(".")
            module = importlib.import_module(f"entpost.{module_name}")
            owner = getattr(module, path[0], None)
            if len(path) == 1:
                found = inspect.isfunction(owner)
            else:
                found = len(path) == 2 and inspect.isclass(owner) and path[1] in traced_members(owner)
            if not (found and owner.__module__ == module.__name__):
                missing.append(f"{workload.name}: {span}")
    assert missing == []


def test_protocol_imports_nothing_from_the_simulator():
    # modules depend one way: rng, epr, codebook, protocol, netsim,
    # montecarlo, cli; protocol must not reach up into netsim, neither at
    # the top of the file nor lazily inside a function
    tree = ast.parse((ROOT / "src" / "entpost" / "protocol.py").read_text(encoding="utf-8"))
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert [name for name in imports if "netsim" in name.split(".")] == []
