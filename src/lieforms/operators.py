"""The operator algebra helpers and relation reports.

Every operator is a normal-ordered Clifford polynomial (`clifford.py`),
and every operator identity is decided on polynomials.  A matrix consumer
(a complex, a restriction, a kernel) asks a polynomial for its block from
degree k, a dim(k+s) x dim(k) matrix in the lexicographic monomial bases
for an operator of shift s; a target degree outside 0..N gives a 0-row
matrix.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from math import comb
from operator import add

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .clifford import Clifford


def basis_dim(ngen: int, k: int) -> int:
    return comb(ngen, k) if 0 <= k <= ngen else 0


def op_sum(terms: Iterable[Clifford]) -> Clifford:
    """The sum of one or more polynomials of equal shift."""
    return functools.reduce(add, terms)


def supercommutator(a: Clifford, b: Clifford) -> Clifford:
    """{a,b} = ab - (-1)^{parity(a) parity(b)} ba."""
    ab = a @ b
    ba = b @ a
    return ab + ba if a.parity * b.parity % 2 else ab - ba


def reeb_power(a: Clifford, lie_r: Clifford) -> Clifford:
    """a composed with the Reeb Lie derivative, the a(1) of the tables.

    Requires [a, lie_r] = 0 (all tabulated operators commute with it).
    """
    a_lie = a @ lie_r
    if a_lie != lie_r @ a:
        raise ValueError("operator does not commute with the Reeb Lie derivative")
    return a_lie


# -- relation reports -------------------------------------------------


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

    def ok(self) -> bool:
        return self.verdict in ("pass", "variant", "noted")

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


class RelationReport:
    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[RelationEntry] = []

    def passed(self) -> bool:
        return all(e.ok() for e in self.entries)

    def entry(self, name: str) -> RelationEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def add(self, entry: RelationEntry):
        self.entries.append(entry)


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
    both sides zero is marked vacuous."""
    (ltext, left), (rtext, right) = lhs, printed
    if left == right:
        return RelationEntry(name, ltext, rtext, "pass", vacuous=left.is_zero())
    for vtext, vop in variants:
        if left == vop:
            return RelationEntry(
                name, ltext, rtext, "variant",
                variant=vtext, vacuous=left.is_zero(),
                failure=_describe_difference(left, right),
            )
    return RelationEntry(name, ltext, rtext, "fail", failure=_describe_difference(left, right))
