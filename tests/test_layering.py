"""Module boundaries, read from the source with `ast`: the names the
benchmark worker pins resolve in the package, and the arithmetic layers do
not reach the presentation layers."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieforms"
WORKER = ROOT / "perfbench" / "worker.py"

# the calls `perfbench/worker.py` makes into the package outside `LAYERS`
DIRECT = {
    ("cli", "_load"), ("cli", "main"),
    ("models", "structure_operators.cache_clear"), ("models", "BUILTIN_NAMES"),
    ("models", "builtin"), ("models", "parse_model"),
    ("splitting", "table_operator_pool"), ("splitting", "foliation_split"),
    ("splitting", "reeb_foliation"), ("splitting", "hodge_split_d1"),
}


def _dotted(node) -> list[str] | None:
    """The names of an attribute chain `a.b.c`, or None for any other node."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def worker_names() -> tuple[list[tuple[str, str]], set[tuple[str, str]]]:
    """(the (module, attribute path) pairs of the worker's `LAYERS`, every
    (module, attribute path) it reaches through `from lieforms...` imports)."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    layers, modules, direct = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["LAYERS"]:
            layers = [(m, path) for m, path, _ in ast.literal_eval(node.value)]
        elif isinstance(node, ast.ImportFrom) and node.module == "lieforms":
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lieforms."):
            direct.update((node.module.split(".", 1)[1], a.name) for a in node.names)
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            direct.add((chain[0], ".".join(chain[1:])))
    return layers, direct


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"lieforms.{module}")
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_benchmark_pinned_names_resolve():
    layers, direct = worker_names()
    assert len(layers) >= 20
    # the parse found every direct call; an attribute chain also yields its
    # prefixes (`models.structure_operators`), which must resolve as well
    assert DIRECT <= direct, DIRECT - direct
    missing = [pair for pair in [*layers, *direct] if not _resolves(*pair)]
    assert not missing, missing


# modules that compute and must not reach the presentation layers
ARITHMETIC = ("scalars", "matrices", "forms", "clifford", "models")
PRESENTATION = {"verdicts", "cli"}
RECORDS = {"RelationEntry", "DegreeVerdict", "check_relation"}


def package_imports(module: str) -> set[str]:
    """The package modules a module's source imports, at any depth of its
    body (a function-local or TYPE_CHECKING import counts)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif (node.module or "").startswith("lieforms."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("lieforms."))
    return out


@pytest.mark.parametrize("module", ARITHMETIC)
def test_arithmetic_modules_do_not_reach_presentation(module):
    seen, todo = set(), [module]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo += package_imports(current)
    assert not seen & PRESENTATION, (module, seen & PRESENTATION)
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree)
               if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not (defined | imported) & RECORDS, module


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    # a name a module imports and never reads is a leftover of a deleted
    # caller; `from __future__` imports bind no name
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= read, (module, sorted(imported - read))


# top-level names that no package module reads and the benchmark worker
# does not call, kept on purpose: the tests read printed scalars back with
# `parse_scalar`
PINNED = {("scalars", "parse_scalar")}


def test_every_top_level_definition_has_a_caller():
    # a top-level function or class that no package module reads, that the
    # benchmark worker does not call and that is not pinned is left over
    # from a deleted caller
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8")) for m in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    layers, direct = worker_names()
    called = {id(getattr(importlib.import_module(f"lieforms.{m}"), path.split(".")[0], None))
              for m, path in [*layers, *direct]}
    unread = [(m, node.name) for m, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
              and id(getattr(importlib.import_module(f"lieforms.{m}"), node.name)) not in called
              and (m, node.name) not in PINNED]
    assert not unread, unread
