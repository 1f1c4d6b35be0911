"""Rewrite the golden snapshots of `lieforms all` on every builtin model.

    PYTHONPATH=src python tests/golden/update.py

`tests/test_golden.py` compares each format's report with its snapshot byte
for byte.  Rewrite them only for an intended output change, and name that
change in CHANGES.md.
"""

from pathlib import Path

from lieforms.cli import FORMATS, RunConfig, run
from lieforms.models import BUILTIN_NAMES

HERE = Path(__file__).resolve().parent


def snapshot_path(model: str, fmt: str) -> Path:
    return HERE / f"{model}.{'txt' if fmt == 'text' else fmt}"


def main():
    for model in BUILTIN_NAMES:
        for fmt in FORMATS:
            path = snapshot_path(model, fmt)
            code = run(RunConfig(command="all", model=model, format=fmt, output=str(path)))
            print(f"{path.name}: exit {code}")


if __name__ == "__main__":
    main()
