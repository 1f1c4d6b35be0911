"""Correctness gate and exact counts for one operation's JSON report.

References come from `tests/oracle.py`, the brute-force Betti oracle that
shares no code with the engine.  It is read from its path and executed in
a fresh module namespace, so nothing is imported from the package under
test and no bytecode is written next to it.
"""

from __future__ import annotations

import json
import re
import types
from pathlib import Path

from workloads import Model, Op

ORACLE_PATH = Path("tests") / "oracle.py"
TABLE_SECTIONS = ("relation table", "structure table")


def load_oracle(root: Path) -> types.ModuleType:
    path = root / ORACLE_PATH
    module = types.ModuleType("perfbench_oracle")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def reference(oracle, model: Model) -> dict:
    """Full and basic Betti tables of the model, from the oracle."""
    return {
        "full": oracle.betti_table(model.dim, model.brackets),
        "basic": {label: oracle.basic_betti_table(model.dim, model.brackets, span)
                  for label, span in model.basic_spans().items()},
    }


def _rows(doc: dict, title: str) -> list[dict] | None:
    for section in doc["sections"]:
        if section["title"] == title:
            return section["rows"]
    return None


def _betti_problems(doc: dict, model: Model, ref: dict) -> list[str]:
    rows = _rows(doc, "betti numbers")
    if rows is None:
        return ["no betti numbers section"]
    got: dict[str, list] = {}
    for r in rows:
        if r["kind"] == "table":
            got.setdefault(r["complex"], []).append(r["betti"])
    problems = []
    if got.get("full") != ref["full"]:
        problems.append(f"full betti {got.get('full')} != oracle {ref['full']}")
    for label, want in ref["basic"].items():
        have = got.get(label)
        # the engine pads basic tables to the full degree range with zeros
        if have is None or have[:len(want)] != want or any(have[len(want):]):
            problems.append(f"{label} betti {have} != oracle {want}")
    return problems


def _harmonic_problems(doc: dict, op: Op, ref: dict) -> list[str]:
    rows = _rows(doc, "harmonic bases")
    if rows is None:
        return ["no harmonic bases section"]
    degrees = range(op.model.dim + 1) if op.degree is None else [op.degree]
    problems = []
    for k in degrees:
        n = sum(1 for r in rows if r["degree"] == k)
        if n != ref["full"][k]:
            problems.append(f"{n} harmonic forms in degree {k}, oracle betti {ref['full'][k]}")
    return problems


def check(op: Op, status: int, text: str, ref: dict) -> list[str]:
    """Every problem found with the operation's output; empty means correct."""
    if status != 0:
        return [f"exit status {status}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if doc.get("passed") is not True:
        problems.append("report has passed != true")
    if doc.get("command") != op.command:
        problems.append(f"report is for command {doc.get('command')!r}")
    if op.command in ("cohomology", "all"):
        problems += _betti_problems(doc, op.model, ref)
    if op.command in ("harmonic", "all"):
        problems += _harmonic_problems(doc, op, ref)
    if op.command in ("check", "all") and op.model.kind == "sasakian":
        row = next((r for r in _rows(doc, "relation table") or []
                    if r.get("name") == "sl2.[H,Lam]"), None)
        if row is None or row["verdict"] != "variant" or row["variant"] != "-2Lam":
            problems.append(f"sl2.[H,Lam] not adjudicated as -2Lam: {row}")
    if op.command == "cone" and _rows(doc, "cone equivalence and long exact sequence") is None:
        problems.append("no cone section")
    return problems


COUNT_NAMES = ("splitting.relation_entries", "splitting.variant_entries",
               "splitting.vacuous_entries", "operators.pool_size",
               "splitting.jacobi_triples")


def counts(text: str) -> dict[str, int]:
    """Exact work counts read from a report: relation-table entries, entries
    adjudicated as a variant or holding as 0 = 0, the guard pool size and
    the number of Jacobi triples checked."""
    doc = json.loads(text)
    out = dict.fromkeys(COUNT_NAMES, 0)
    for title in TABLE_SECTIONS:
        for r in _rows(doc, title) or []:
            if r["kind"] == "relation":
                out["splitting.relation_entries"] += 1
                out["splitting.variant_entries"] += r["verdict"] == "variant"
                out["splitting.vacuous_entries"] += bool(r["vacuous"])
    for r in _rows(doc, "superalgebra guards") or []:
        if r["name"] == "superalgebra.antisymmetry":
            out["operators.pool_size"] = int(re.search(r"over (\d+)\^2", r["lhs"]).group(1))
        elif r["name"] == "superalgebra.jacobi":
            m = re.search(r"over (\d+)\^3", r["lhs"])
            out["splitting.jacobi_triples"] = (int(m.group(1)) ** 3 if m else
                                               int(re.search(r"sample of (\d+)", r["lhs"]).group(1)))
    return out
