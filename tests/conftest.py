import functools
import importlib
import os
from pathlib import Path

from lieforms.models import BUILTIN_NAMES, builtin, load_model_file, structure_operators
from lieforms.splitting import OperatorPool, operator_pool

DATA = Path(__file__).resolve().parent / "data"

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, description: str, passed: bool):
    line = f"criterion {number:>2}: {'PASS' if passed else 'FAIL'}  {description}"
    _CRITERION_LINES.append(line)
    return passed


@functools.lru_cache(maxsize=None)
def model_pack(name: str):
    return builtin(name)


def load(name: str):
    """A builtin by name, or a model of tests/data by its file stem."""
    return model_pack(name) if name in BUILTIN_NAMES else load_model_file(str(DATA / f"{name}.alg"))


@functools.lru_cache(maxsize=None)
def ops_for(name: str):
    model, pack = model_pack(name)
    return structure_operators(model, pack)


def pool_for(name: str):
    return operator_pool(*model_pack(name))


def fresh_pool(monkeypatch, model, pack) -> OperatorPool:
    """A newly built pool that `lieforms.splitting`'s checks read in place
    of the cached one, so a test may plant into its memo or count what it
    builds without another test's brackets already in it."""
    pool = OperatorPool(model, pack)
    monkeypatch.setattr(importlib.import_module("lieforms.splitting"), "operator_pool",
                        lambda *_: pool)
    return pool


def record(records: list, key):
    """The record of a check's list with this relation name (a str) or this
    degree (an int)."""
    field = "degree" if isinstance(key, int) else "name"
    for r in records:
        if getattr(r, field, None) == key:
            return r
    raise KeyError(key)


def plant(monkeypatch, model, pack, name, poly, layer="cohomology"):
    """Make one layer's pool (`lieforms.<layer>.operator_pool`) hand out
    the given polynomial for one name and the true pool's for every other."""
    pool = operator_pool(model, pack)

    class PlantedPool:
        def poly(self, ref):
            return poly if ref == name else pool.poly(ref)

        def __getattr__(self, attr):
            return getattr(pool, attr)

    monkeypatch.setattr(importlib.import_module(f"lieforms.{layer}"), "operator_pool",
                        lambda *_: PlantedPool())


def child_env() -> dict[str, str]:
    """The environment of a child Python process: this checkout's `src`
    first on PYTHONPATH, so the child imports the lieforms under test
    whether or not the package is installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
