"""Graded operators on the exterior algebra as per-degree exact matrices.

An operator of shift s maps degree k to degree k+s; its block for source
degree k is a dim(k+s) x dim(k) matrix in the lexicographic monomial
bases.  Blocks whose source or target degree falls outside 0..N are the
appropriate 0-row/0-column matrices, so composition needs no special
cases.
"""

from __future__ import annotations

import functools
from math import comb
from operator import add, attrgetter
from typing import Iterable

from .forms import FormElement, monomial_basis
from .matrices import Matrix
from .scalars import Scalar

EVEN, ODD = 0, 1

_SHAPE = attrgetter("shape")


def basis_dim(ngen: int, k: int) -> int:
    return comb(ngen, k) if 0 <= k <= ngen else 0


@functools.lru_cache(maxsize=None)
def _block_shapes(ngen: int, shift: int) -> tuple[tuple[int, int], ...]:
    """The shape of each block of an operator of the given shift."""
    return tuple((basis_dim(ngen, k + shift), basis_dim(ngen, k)) for k in range(ngen + 1))


@functools.lru_cache(maxsize=None)
def _zero_blocks(ngen: int, shift: int) -> tuple[Matrix, ...]:
    """The blocks of the zero operator of the given shift, built once and
    shared, since matrices are immutable."""
    return tuple(Matrix.zero(*shape) for shape in _block_shapes(ngen, shift))


@functools.lru_cache(maxsize=None)
def _positions(ngen: int, k: int) -> dict[tuple[int, ...], int]:
    """The position of each degree-k monomial in its basis; empty outside 0..N."""
    return {m: i for i, m in enumerate(monomial_basis(ngen, k))} if 0 <= k <= ngen else {}


def form_to_column(a: FormElement, k: int) -> Matrix:
    """The coordinates of a degree-k form, as a one-column matrix."""
    if any(len(m) != k for m in a.terms):
        raise ValueError(f"form has terms outside degree {k}")
    position = _positions(a.ngen, k)
    return Matrix.from_entries(len(position), 1,
                               ((position[m], 0, c) for m, c in a.terms.items()))


def column_forms(ngen: int, k: int, m: Matrix) -> list[FormElement]:
    """The degree-k forms whose coordinates are the columns of m."""
    basis = monomial_basis(ngen, k)
    if m.nrows != len(basis):
        raise ValueError("coordinate matrix has wrong row count")
    return [FormElement(ngen, {basis[i]: c for i, c in col.items()}) for col in m.columns()]


class GradedOperator:
    """Immutable degree-shifting parity-tagged linear operator, one block
    per degree."""

    __slots__ = ("ngen", "shift", "parity", "blocks")

    def __init__(self, ngen: int, shift: int, parity: int, blocks: tuple[Matrix, ...]):
        if len(blocks) != ngen + 1:
            raise ValueError("need one block per source degree 0..N")
        shapes = _block_shapes(ngen, shift)
        if tuple(map(_SHAPE, blocks)) != shapes:
            k = next(k for k, b in enumerate(blocks) if b.shape != shapes[k])
            raise ValueError(f"block {k} has shape {blocks[k].shape}, expected {shapes[k]}")
        object.__setattr__(self, "ngen", ngen)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, *_):
        raise AttributeError("GradedOperator is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedOperator)
            and self.ngen == other.ngen
            and self.shift == other.shift
            and self.parity == other.parity
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.ngen, self.shift, self.parity, self.blocks))

    # -- construction helpers ----------------------------------------

    @staticmethod
    def zero(ngen: int, shift: int, parity: int) -> "GradedOperator":
        return GradedOperator(ngen, shift, parity, _zero_blocks(ngen, shift))

    @staticmethod
    def identity(ngen: int) -> "GradedOperator":
        blocks = tuple(Matrix.identity(basis_dim(ngen, k)) for k in range(ngen + 1))
        return GradedOperator(ngen, 0, EVEN, blocks)

    # -- application ---------------------------------------------------

    def apply(self, a: FormElement) -> FormElement:
        out = FormElement.zero(self.ngen)
        for k in sorted(a.degrees()):
            tgt = k + self.shift
            if 0 <= tgt <= self.ngen:
                image = self.blocks[k] @ form_to_column(a.homogeneous_part(k), k)
                out = out + column_forms(self.ngen, tgt, image)[0]
        return out

    # -- operator algebra ----------------------------------------------

    # A zero operand costs no block arithmetic: the result reuses the other
    # operand's blocks (matrices are immutable), but is always a new operator.

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        self._check_like(other)
        if other.is_zero():
            blocks = self.blocks
        elif self.is_zero():
            blocks = other.blocks
        else:
            blocks = tuple(a + b for a, b in zip(self.blocks, other.blocks))
        return GradedOperator(self.ngen, self.shift, self.parity, blocks)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        self._check_like(other)
        if other.is_zero():
            blocks = self.blocks
        elif self.is_zero():
            blocks = tuple(-b for b in other.blocks)
        else:
            blocks = tuple(a - b for a, b in zip(self.blocks, other.blocks))
        return GradedOperator(self.ngen, self.shift, self.parity, blocks)

    def __neg__(self) -> "GradedOperator":
        return GradedOperator(self.ngen, self.shift, self.parity, tuple(-b for b in self.blocks))

    def scale(self, c: Scalar) -> "GradedOperator":
        return GradedOperator(self.ngen, self.shift, self.parity,
                              tuple(b.scale(c) for b in self.blocks))

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self after other; shifts add, parities add mod 2."""
        self._compat(other)
        n, shift = self.ngen, self.shift + other.shift
        parity = (self.parity + other.parity) % 2
        if self.is_zero() or other.is_zero():
            return GradedOperator.zero(n, shift, parity)
        zeros = _zero_blocks(n, shift)
        blocks = tuple(self.blocks[k + other.shift] @ other.blocks[k]
                       if 0 <= k + other.shift <= n else zeros[k]
                       for k in range(n + 1))
        return GradedOperator(n, shift, parity, blocks)

    __matmul__ = compose

    def power(self, k: int) -> "GradedOperator":
        out = GradedOperator.identity(self.ngen)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self) -> bool:
        return (self.blocks is _zero_blocks(self.ngen, self.shift)
                or all(b.is_zero() for b in self.blocks))

    def first_difference(self, other: "GradedOperator"):
        """(degree, row, col, lhs, rhs) of the first differing entry, or None.

        A shift mismatch is reported as degree None: the two sides are not
        even maps of the same degree, so no entry comparison applies.
        """
        if self.shift != other.shift:
            return (None, None, None, self.shift, other.shift)
        for k in range(self.ngen + 1):
            a, b = self.blocks[k], other.blocks[k]
            diff = (a - b).first_nonzero()
            if diff is not None:
                i, j, _ = diff
                return (k, i, j, a.entry(i, j), b.entry(i, j))
        return None

    def adjoint(self) -> "GradedOperator":
        """Metric adjoint: block-wise conjugate transpose in the orthonormal
        monomial basis."""
        n = self.ngen
        zeros = _zero_blocks(n, -self.shift)
        blocks = tuple(self.blocks[k - self.shift].conj_transpose()
                       if 0 <= k - self.shift <= n else zeros[k]
                       for k in range(n + 1))
        return GradedOperator(n, -self.shift, self.parity, blocks)

    def _compat(self, other: "GradedOperator"):
        if self.ngen != other.ngen:
            raise ValueError("operators live on different models")

    def _check_like(self, other: "GradedOperator"):
        self._compat(other)
        if self.shift != other.shift or self.parity != other.parity:
            raise ValueError("can only add operators of equal shift and parity")


def op_sum(terms: Iterable[GradedOperator]) -> GradedOperator:
    """The sum of one or more operators of equal shift and parity."""
    return functools.reduce(add, terms)


def supercommutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """{a,b} = ab - (-1)^{parity(a) parity(b)} ba, for two operators of the
    same form: blocks, or Clifford polynomials (`clifford.py`)."""
    ab = a @ b
    ba = b @ a
    return ab + ba if a.parity * b.parity % 2 else ab - ba


def reeb_power(a: GradedOperator, lie_r: GradedOperator, k: int) -> GradedOperator:
    """a composed with the k-th power of the Reeb Lie derivative.

    Requires [a, lie_r] = 0 (all tabulated operators commute with it).
    """
    a_lie = a @ lie_r
    if a_lie != lie_r @ a:
        raise ValueError("operator does not commute with the Reeb Lie derivative")
    out = a_lie if k else a
    for _ in range(k - 1):
        out = out @ lie_r
    return out


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
    __slots__ = ("model", "title", "entries")

    def __init__(self, model: str, title: str):
        self.model, self.title = model, title
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


def _describe_difference(lhs: GradedOperator, rhs: GradedOperator) -> str:
    diff = lhs.first_difference(rhs)
    if diff is None:
        return ""
    k, i, j, a, b = diff
    if k is None:
        return f"degree shifts differ: lhs shifts by {a}, rhs by {b}"
    return f"first mismatch at degree {k}, entry ({i},{j}): lhs={a}, rhs={b}"


def check_relation(
    name: str,
    lhs: tuple[str, GradedOperator],
    printed: tuple[str, GradedOperator],
    variants: Iterable[tuple[str, GradedOperator]] = (),
) -> RelationEntry:
    """Compare lhs against the printed right-hand side, then against the
    recorded sign/argument variants in order; never hard-fails on a
    mismatch.  Each side is a (text, operator) pair and the texts are the
    entry's printed form; the operators are all blocks or all Clifford
    polynomials.  A pass with both sides zero is marked vacuous."""
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
