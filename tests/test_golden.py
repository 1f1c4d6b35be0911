"""Byte-equality gate: `lieforms all` on every builtin, in every format,
against the snapshots in tests/golden (rewritten by tests/golden/update.py)."""

from pathlib import Path

import pytest

from lieforms.cli import FORMATS, RunConfig, run
from lieforms.models import BUILTIN_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("model", BUILTIN_NAMES)
def test_all_matches_snapshot(tmp_path, model, fmt):
    out = tmp_path / "report"
    assert run(RunConfig(command="all", model=model, format=fmt, output=str(out))) == 0
    snapshot = GOLDEN / f"{model}.{'txt' if fmt == 'text' else fmt}"
    assert out.read_bytes() == snapshot.read_bytes()
