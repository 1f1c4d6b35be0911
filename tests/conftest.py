import functools

from lieforms.models import builtin, structure_operators
from lieforms.splitting import operator_pool

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, description: str, passed: bool):
    line = f"criterion {number:>2}: {'PASS' if passed else 'FAIL'}  {description}"
    _CRITERION_LINES.append(line)
    return passed


@functools.lru_cache(maxsize=None)
def model_pack(name: str):
    return builtin(name)


@functools.lru_cache(maxsize=None)
def ops_for(name: str):
    model, pack = model_pack(name)
    return structure_operators(model, pack)


def pool_for(name: str):
    return operator_pool(*model_pack(name))


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
