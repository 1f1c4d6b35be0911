"""The outcome of a check, as a record and as the report rows it prints.

A check returns a plain list of records: `RelationEntry` for an operator
identity or a named property, `DegreeVerdict` for one degree of a
decomposition or a long exact sequence.  Each record says whether it
passed (`ok`) and gives its own row in each report format: its text line
(`line()`), its JSON object (`row()`) and its CSV fields after the
section title (`csv()`).  `check_relation` decides one identity on
Clifford polynomials, with sign/argument variant adjudication.
"""

from __future__ import annotations

from collections.abc import Iterable

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .clifford import Clifford


class RelationEntry:
    """Outcome of one operator identity, with typo-variant adjudication.

    Verdicts: pass (as printed), variant (printed form fails, a recorded
    sign/argument variant holds), fail (nothing matched), noted (measured
    observation that is reported but not enforced).
    """

    __slots__ = ("name", "lhs", "rhs", "verdict", "variant", "vacuous", "failure")

    def __init__(self, name: str, lhs: str, rhs: str, verdict: str,
                 variant: str | None = None, vacuous: bool = False,
                 failure: str | None = None):
        self.name, self.lhs, self.rhs, self.verdict = name, lhs, rhs, verdict
        self.variant, self.vacuous, self.failure = variant, vacuous, failure

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    def line(self) -> str:
        status = {"pass": "PASS", "variant": "PASS", "fail": "FAIL", "noted": "NOTE"}[self.verdict]
        note = ""
        if self.verdict == "variant":
            note = f"  [printed form fails; holds as {self.variant}]"
        elif self.failure:
            note = f"  [{self.failure}]"
        if self.vacuous and self.verdict not in ("fail", "noted"):
            note += "  (both sides zero)"
        return f"{status}  {self.name}: {self.lhs} = {self.rhs}{note}"

    def row(self) -> dict:
        return {
            "kind": "relation", "name": self.name, "lhs": self.lhs, "rhs": self.rhs,
            "verdict": self.verdict, "variant": self.variant,
            "vacuous": self.vacuous, "detail": self.failure,
        }

    def csv(self) -> list:
        return ["relation", self.name, self.rhs, self.verdict, self.variant or self.failure or ""]


class DegreeVerdict:
    """Outcome at one degree: the actual dimension against the
    proof-sequence and headline readings, with the witnesses behind it."""

    __slots__ = ("degree", "claimed", "proof", "actual", "ok", "headline_ok", "branch",
                 "notes", "witnesses")

    def __init__(self, degree: int, claimed: int | None, proof: int | None, actual: int,
                 ok: bool, headline_ok: bool | None = None, branch: str | None = None,
                 notes: str = "", witnesses: tuple[str, ...] = ()):
        self.degree, self.claimed, self.proof, self.actual, self.ok = (
            degree, claimed, proof, actual, ok)
        self.headline_ok, self.branch, self.notes, self.witnesses = (
            headline_ok, branch, notes, witnesses)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        bits = [f"degree {self.degree}: actual {self.actual}"]
        if self.proof is not None:
            bits.append(f"proof-sequence {self.proof}")
        if self.claimed is not None:
            bits.append(f"headline {self.claimed}" +
                        (" (inconsistent)" if self.headline_ok is False else ""))
        if self.branch:
            bits.append(f"branch {self.branch}")
        if self.notes:
            bits.append(self.notes)
        return f"{status}  " + "; ".join(bits)

    def row(self) -> dict:
        return {
            "kind": "degree", "degree": self.degree, "actual": self.actual,
            "proof": self.proof, "headline": self.claimed,
            "headline_consistent": self.headline_ok, "branch": self.branch,
            "ok": self.ok, "notes": self.notes, "witnesses": list(self.witnesses),
        }

    def csv(self) -> list:
        return ["degree", self.degree, self.actual, "ok" if self.ok else "fail", self.notes]


def _describe_difference(lhs: Clifford, rhs: Clifford) -> str:
    diff = lhs.first_difference(rhs)
    if diff is None:
        return ""
    k, i, j, a, b = diff
    if k is None:
        return f"degree shifts differ: lhs shifts by {a}, rhs by {b}"
    return f"first mismatch at degree {k}, entry ({i},{j}): lhs={a}, rhs={b}"


def check_relation(
    name: str,
    lhs: tuple[str, Clifford],
    printed: tuple[str, Clifford],
    variants: Iterable[tuple[str, Clifford]] = (),
) -> RelationEntry:
    """Compare lhs against the printed right-hand side, then against the
    recorded sign/argument variants in order; never hard-fails on a
    mismatch.  Each side is a (text, operator) pair and the texts are the
    entry's printed form and the operators are polynomials.  A pass with
    both sides zero is marked vacuous, and one whose printed side is the
    lhs polynomial itself is noted as holding by definition: nothing was
    computed twice to compare."""
    (ltext, left), (rtext, right) = lhs, printed
    if left == right:
        return RelationEntry(name, ltext, rtext, "pass", vacuous=left.is_zero(),
                             failure="one operator: holds by definition" if left is right else None)
    for vtext, vop in variants:
        if left == vop:
            return RelationEntry(
                name, ltext, rtext, "variant",
                variant=vtext, vacuous=left.is_zero(),
                failure=_describe_difference(left, right),
            )
    return RelationEntry(name, ltext, rtext, "fail", failure=_describe_difference(left, right))
