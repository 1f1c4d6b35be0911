"""Operators on the exterior algebra as normal-ordered Clifford polynomials.

The exterior algebra on N coframe generators is a fermionic Fock space:
e_k (wedge with theta^k) creates, i_k (contraction) annihilates, and
{i_a, e_b} = delta_ab.  The normal-ordered monomials

    e_W i_C = e_{w_1} ... e_{w_p} i_{c_q} ... i_{c_1}

(w_1 < ... < w_p, c_1 < ... < c_q, wedges left of contractions) form a
basis of End(Lambda), which has dimension 4^N.  So every operator is one
dict of terms, and two operators are equal exactly when their term dicts
are.  The contractions run in decreasing order so that the metric adjoint
of e_W i_C is e_C i_W, and i_C e_C = 1 on the unit.  W and C are stored as
bitmasks, generator k at bit k - 1.

This is the engine's one operator algebra (sum, scale, product,
adjoint, and on top of them `op_sum`, `supercommutator` and `reeb_power`),
and it works on the terms.  A polynomial is also the operator
that the complexes consume: `block(k)` writes its matrix from degree k
straight from the terms, once.  It is also the engine's one form
algebra: a form a is its multiplication e_a, whose terms have C empty,
so {d, e_a} = e_{da} and e_a's block from degree 0 is a's coordinate
column.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from itertools import combinations
from math import comb
from operator import add

from .forms import monomial_basis
from .matrices import Matrix, add_into
from .scalars import MINUS_ONE, ONE, Scalar

Term = tuple[int, int]  # (W, C) as bitmasks


def basis_dim(ngen: int, k: int) -> int:
    """The size of the monomial basis of degree k; 0 outside 0..ngen."""
    return comb(ngen, k) if 0 <= k <= ngen else 0


def generator_mask(monomial) -> int:
    """The bitmask of a set of generator indices."""
    return sum(1 << (k - 1) for k in monomial)


@functools.lru_cache(maxsize=None)
def _positions(ngen: int) -> dict[int, int]:
    """The position of each basis monomial's mask in its degree, in the
    lexicographic order of `forms.monomial_basis`."""
    return {generator_mask(m): i for k in range(ngen + 1)
            for i, m in enumerate(monomial_basis(ngen, k))}


def _inversions(a: int, b: int) -> int:
    """The parity of the pairs (x in a, y in b) with x > y."""
    n = 0
    while b:
        low = b & -b
        n += (a & -(low << 1)).bit_count()
        b ^= low
    return n & 1


@functools.lru_cache(maxsize=None)
def _product(w1: int, c1: int, w2: int, c2: int) -> tuple[tuple[Term, bool], ...]:
    """e_W1 i_C1 e_W2 i_C2 in normal order, as (term, negated) pairs.

    Wick reordering of the middle: each contraction of C1, smallest first,
    either contracts its own letter of W2 (i_c e_W = the form i_c(e_W), a
    sign (-1)^(letters of W below c)) or passes all of W2 (a sign
    (-1)^|W|).  A passed letter is larger than those passed before, so it
    lands in decreasing order with no further sign.
    """
    states = [(w2, 0, 0)]
    c = c1
    while c:
        low = c & -c
        c ^= low
        nxt = []
        for w, passed, neg in states:
            if w & low:
                nxt.append((w ^ low, passed, neg ^ (w & (low - 1)).bit_count() & 1))
            nxt.append((w, passed | low, neg ^ w.bit_count() & 1))
        states = nxt
    return tuple(((w1 | w, passed | c2), bool(neg ^ _inversions(w1, w) ^ _inversions(c2, passed)))
                 for w, passed, neg in states if not (w & w1 or passed & c2))


class Clifford:
    """Immutable shift-homogeneous operator as a dict of normal-ordered
    terms {(W, C): nonzero Scalar}, every term with |W| - |C| = shift."""

    __slots__ = ("ngen", "shift", "terms", "_blocks")

    def __init__(self, ngen: int, shift: int, terms: Mapping[Term, Scalar]):
        clean = {}
        for (w, c), v in terms.items():
            if v:
                if w.bit_count() - c.bit_count() != shift or (w | c) >> ngen:
                    raise ValueError(f"term {(w, c)} does not fit shift {shift} on {ngen} generators")
                clean[w, c] = v
        _init(self, ngen, shift, clean)

    def __setattr__(self, *_):
        raise AttributeError("Clifford is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Clifford) and self.ngen == other.ngen
                and self.shift == other.shift and self.terms == other.terms)

    @property
    def parity(self) -> int:
        return self.shift & 1

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ngen: int, shift: int) -> "Clifford":
        return _new(ngen, shift, {})

    @staticmethod
    def identity(ngen: int) -> "Clifford":
        return _new(ngen, 0, {(0, 0): ONE})

    @staticmethod
    def wedge(ngen: int, k: int) -> "Clifford":
        """e_k."""
        return Clifford(ngen, 1, {(1 << (k - 1), 0): ONE})

    @staticmethod
    def contraction(ngen: int, k: int) -> "Clifford":
        """i_k."""
        return Clifford(ngen, -1, {(0, 1 << (k - 1)): ONE})

    # -- operator algebra ----------------------------------------------

    def __add__(self, other: "Clifford") -> "Clifford":
        return self._plus(other, ONE)

    def __sub__(self, other: "Clifford") -> "Clifford":
        return self._plus(other, MINUS_ONE)

    def _plus(self, other: "Clifford", c: Scalar) -> "Clifford":
        """self + c*other."""
        self._check_like(other)
        return _new(self.ngen, self.shift, add_into(dict(self.terms), other.terms, c))

    def __neg__(self) -> "Clifford":
        return _new(self.ngen, self.shift, {key: -v for key, v in self.terms.items()})

    def scale(self, c: Scalar) -> "Clifford":
        if not c:
            return Clifford.zero(self.ngen, self.shift)
        return _new(self.ngen, self.shift, {key: v * c for key, v in self.terms.items()})

    def __matmul__(self, other: "Clifford") -> "Clifford":
        """self after other, by Wick reordering of each pair of terms."""
        if self.ngen != other.ngen:
            raise ValueError("operators live on different models")
        acc: dict[Term, Scalar] = {}
        for (w1, c1), x in self.terms.items():
            for (w2, c2), y in other.terms.items():
                xy = x * y
                for key, neg in _product(w1, c1, w2, c2):
                    v = -xy if neg else xy
                    if key in acc:
                        v = acc[key] + v
                    acc[key] = v
        return _new(self.ngen, self.shift + other.shift, {k: v for k, v in acc.items() if v})

    def adjoint(self) -> "Clifford":
        """Metric adjoint: (c e_W i_C)* = conj(c) e_C i_W."""
        return _new(self.ngen, -self.shift, {(c, w): v.conj() for (w, c), v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def first_order(self) -> bool:
        """Whether every term has at most one contraction: the operators
        that are a derivation plus a multiplication."""
        return all(not c & (c - 1) for _, c in self.terms)

    # -- matrices --------------------------------------------------------

    def _entries(self, k: int):
        """The nonzero (row, col, value) entries of the block from degree k.

        A term e_W i_C is nonzero exactly on e_S with S = C + T for the
        T outside W and C, so at degree k its entries are enumerated over
        the T of size k - |C|, largest mask first."""
        position = _positions(self.ngen)
        full = (1 << self.ngen) - 1
        acc: dict[tuple[int, int], Scalar] = {}
        for (w, c), v in self.terms.items():
            size = k - c.bit_count()
            if size < 0:
                continue
            free = full & ~(w | c)
            for letters in combinations([1 << b for b in reversed(range(free.bit_length()))
                                         if free >> b & 1], size):
                t = sum(letters)
                key = (position[w | t], position[c | t])
                x = -v if _inversions(c, t) ^ _inversions(w, t) else v
                acc[key] = acc[key] + x if key in acc else x
        return ((i, j, x) for (i, j), x in acc.items() if x)

    def block(self, k: int) -> Matrix:
        """The matrix from degree k to degree k + shift, written once and
        kept on the polynomial, so names that share a polynomial share its
        blocks."""
        m = self._blocks.get(k)
        if m is None:
            m = self._blocks[k] = Matrix.from_entries(
                basis_dim(self.ngen, k + self.shift), basis_dim(self.ngen, k), self._entries(k))
        return m

    def first_difference(self, other: "Clifford"):
        """(degree, row, col, lhs, rhs) of the first differing matrix entry,
        in degree order and row-major within a block, or None; a shift
        mismatch is reported as degree None.

        Only that degree's blocks are built: it is the smallest |C| among
        the terms of the difference, since a term acts from degree |C| on,
        and at degree |C| the terms with that C meet distinct entries."""
        if self.shift != other.shift:
            return (None, None, None, self.shift, other.shift)
        diff = self - other
        if diff.is_zero():
            return None
        k = min(c.bit_count() for _, c in diff.terms)
        a, b = self.block(k), other.block(k)
        i, j, _ = (a - b).first_nonzero()
        return (k, i, j, a.entry(i, j), b.entry(i, j))

    def _check_like(self, other: "Clifford"):
        if self.ngen != other.ngen:
            raise ValueError("operators live on different models")
        if self.shift != other.shift:
            raise ValueError("can only add operators of equal shift and parity")


_set_ngen, _set_shift, _set_terms, _set_blocks = (getattr(Clifford, f).__set__
                                                   for f in Clifford.__slots__)


def _init(p: Clifford, ngen: int, shift: int, terms: dict) -> Clifford:
    _set_ngen(p, ngen)
    _set_shift(p, shift)
    _set_terms(p, terms)
    _set_blocks(p, {})
    return p


def _new(ngen: int, shift: int, terms: dict) -> Clifford:
    """A polynomial over a term dict that holds no zero and fits the shift."""
    return _init(object.__new__(Clifford), ngen, shift, terms)


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
