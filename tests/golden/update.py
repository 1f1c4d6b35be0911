"""Rewrite the golden snapshots.

    PYTHONPATH=src python tests/golden/update.py

The snapshots are `lieforms all` on every builtin model; `lieforms check`
and `lieforms all` on `tests/data/su2_aff.alg`, a model on which many
table entries have nonzero sides and 18 of them fail; and `lieforms all`
on `tests/data/h5xr.alg`, the dim-6 Vaisman model whose transversal
Lefschetz sequences reach past degree 1, and on `tests/data/h7.alg`, the
dim-7 contact model at the dimension frontier; and `lieforms all --format
json` on `tests/data/h9.alg`, the dim-9 contact model with transversal
dimension 4, and on `tests/data/e9.alg`, the dim-9 contact model whose
split Laplacian has a nonzero spectrum; and `lieforms all` on
`tests/data/rxe2.alg`, the Kahler model R x e(2) with d != 0, and on
`tests/data/e5.alg`, its central extension to a dim-5 contact model.
`tests/test_golden.py` compares each format's report with its snapshot
byte for byte.  Rewrite them only for
an intended output change, and name that change in CHANGES.md.
"""

import os
from pathlib import Path

from lieforms.cli import FORMATS, RunConfig, run
from lieforms.models import BUILTIN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# the report prints a file model's name as given, so it is run by its path
# from the repository root
SU2_AFF = "tests/data/su2_aff.alg"
H5XR = "tests/data/h5xr.alg"
H7 = "tests/data/h7.alg"
H9 = "tests/data/h9.alg"
E9 = "tests/data/e9.alg"
RXE2 = "tests/data/rxe2.alg"
E5 = "tests/data/e5.alg"


def snapshot_path(stem: str, fmt: str) -> Path:
    return HERE / f"{stem}.{'txt' if fmt == 'text' else fmt}"


def main():
    os.chdir(ROOT)
    runs = [("all", model, model) for model in BUILTIN_NAMES]
    runs.append(("check", SU2_AFF, "su2_aff.check"))
    runs.append(("all", SU2_AFF, "su2_aff.all"))
    runs.append(("all", H5XR, "h5xr.all"))
    runs.append(("all", H7, "h7.all"))
    runs.append(("all", RXE2, "rxe2.all"))
    runs.append(("all", E5, "e5.all"))
    for command, model, stem in runs:
        for fmt in FORMATS:
            path = snapshot_path(stem, fmt)
            code = run(RunConfig(command=command, model=model, format=fmt, output=str(path)))
            print(f"{path.name}: exit {code}")
    for model, stem in ((H9, "h9.all"), (E9, "e9.all")):
        path = snapshot_path(stem, "json")
        code = run(RunConfig(command="all", model=model, format="json", output=str(path)))
        print(f"{path.name}: exit {code}")


if __name__ == "__main__":
    main()
