"""Byte-equality gate against the snapshots in tests/golden (rewritten by
tests/golden/update.py): `lieforms all` on every builtin, `lieforms check`
and `lieforms all` on the su(2)xaff(R) fixture, and `lieforms all` on the
dim-6 h5xR, dim-7 h7, R x e(2) and e5 fixtures, in every format, and on
the dim-9 h9 and e9 fixtures in json."""

from pathlib import Path

import pytest

from lieforms.cli import FORMATS, RunConfig, run
from lieforms.models import BUILTIN_NAMES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXT = {"text": "txt", "json": "json", "csv": "csv"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("model", BUILTIN_NAMES)
def test_all_matches_snapshot(tmp_path, model, fmt):
    out = tmp_path / "report"
    assert run(RunConfig(command="all", model=model, format=fmt, output=str(out))) == 0
    assert out.read_bytes() == (GOLDEN / f"{model}.{EXT[fmt]}").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_check_matches_snapshot_on_su2_aff(tmp_path, monkeypatch, fmt):
    # nonzero sides: 13 entries hold only as a variant and 18 fail, so the
    # variant and mismatch paths of the evaluator are pinned here
    monkeypatch.chdir(ROOT)  # the report prints the model path as given
    out = tmp_path / "report"
    code = run(RunConfig(command="check", model="tests/data/su2_aff.alg", format=fmt,
                         output=str(out)))
    assert code == 1
    assert out.read_bytes() == (GOLDEN / f"su2_aff.check.{EXT[fmt]}").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("model, code", [("su2_aff", 1), ("h5xr", 0), ("h7", 0),
                                         ("rxe2", 0), ("e5", 0)])
def test_all_matches_snapshot_on_file_models(tmp_path, monkeypatch, model, code, fmt):
    # su2_aff has nonzero cohomology, harmonic and cone sections besides its
    # failing table; h5xr is the Vaisman model with transversal dimension 2;
    # h7 is the largest contact model the suite runs; rxe2 and e5 are the
    # Kahler and contact models whose integrability certificate runs on a
    # nonzero d1 with components of both bidegrees (1,0) and (0,1)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report"
    assert run(RunConfig(command="all", model=f"tests/data/{model}.alg", format=fmt,
                         output=str(out))) == code
    assert out.read_bytes() == (GOLDEN / f"{model}.all.{EXT[fmt]}").read_bytes()


def test_all_matches_json_snapshot_on_h9(tmp_path, monkeypatch):
    # transversal dimension 4, the only snapshot where a (h,v) group of W has
    # up to 5 eigenvalues; json only, to keep the suite's time down
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report"
    assert run(RunConfig(command="all", model="tests/data/h9.alg", format="json",
                         output=str(out))) == 0
    assert out.read_bytes() == (GOLDEN / "h9.all.json").read_bytes()


def test_all_matches_json_snapshot_on_e9(tmp_path, monkeypatch):
    # d1 != 0 on a unimodular contact model: the restricted Delta_s has the
    # nonzero spectrum {1, 2}, where every Heisenberg model has none
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report"
    assert run(RunConfig(command="all", model="tests/data/e9.alg", format="json",
                         output=str(out))) == 0
    assert out.read_bytes() == (GOLDEN / "e9.all.json").read_bytes()
