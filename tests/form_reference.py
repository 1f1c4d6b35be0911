"""The exterior algebra on N orthonormal coframe generators, as a
reference independent of the Clifford polynomials.

A monomial is a strictly increasing tuple of generator indices from
1..N; a FormElement is a finite Q(i)-linear combination of monomials.
The coframe order theta^1 ^ ... ^ theta^N is the declared orientation,
which pins every Hodge-star sign.  The engine holds a form as its
multiplication polynomial or as a coordinate column; the tests build
reference operators (`block_reference.py`) and check the engine's star
and printer against this module.  `column_forms` reads the columns of a
coordinate matrix as FormElements, and `multiplication` and `derivation`
turn FormElement data into the engine's polynomials.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from lieforms.clifford import Clifford, generator_mask
from lieforms.forms import monomial_basis, perm_sign
from lieforms.scalars import ONE, Scalar, ZERO

Monomial = tuple[int, ...]


def merge_monomials(m1: Monomial, m2: Monomial):
    """Concatenate-and-sort two increasing monomials with the Koszul sign.

    Returns (monomial, sign) or None when an index repeats.
    """
    out = []
    sign = 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining len(m1) - i factors of m1
            if (len(m1) - i) % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


class FormElement:
    """Immutable exact linear combination of wedge monomials."""

    __slots__ = ("ngen", "terms")

    def __init__(self, ngen: int, terms: Mapping[Monomial, Scalar] = ()):
        object.__setattr__(self, "ngen", ngen)
        clean = {m: c for m, c in dict(terms).items() if not c.is_zero()}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("FormElement is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(ngen: int) -> "FormElement":
        return FormElement(ngen)

    @staticmethod
    def unit(ngen: int) -> "FormElement":
        return FormElement(ngen, {(): ONE})

    @staticmethod
    def generator(ngen: int, k: int) -> "FormElement":
        if not 1 <= k <= ngen:
            raise IndexError(f"generator index {k} out of range 1..{ngen}")
        return FormElement(ngen, {(k,): ONE})

    @staticmethod
    def monomial(ngen: int, indices: Iterable[int], coeff: Scalar = ONE) -> "FormElement":
        idx = tuple(indices)
        if any(not 1 <= k <= ngen for k in idx):
            raise IndexError(f"monomial {idx} out of range 1..{ngen}")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"monomial indices must be strictly increasing: {idx}")
        return FormElement(ngen, {idx: coeff})

    # -- linear structure --------------------------------------------

    def __add__(self, other: "FormElement") -> "FormElement":
        self._same_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return FormElement(self.ngen, terms)

    def __sub__(self, other: "FormElement") -> "FormElement":
        return self + other.scale(Scalar.of(-1))

    def scale(self, c: Scalar) -> "FormElement":
        return FormElement(self.ngen, {m: x * c for m, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormElement)
            and self.ngen == other.ngen
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ngen, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Monomial) -> Scalar:
        return self.terms.get(tuple(mono), ZERO)

    def degrees(self) -> set[int]:
        return {len(m) for m in self.terms}

    def homogeneous_part(self, k: int) -> "FormElement":
        return FormElement(self.ngen, {m: c for m, c in self.terms.items() if len(m) == k})

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def conj(self) -> "FormElement":
        return FormElement(self.ngen, {m: c.conj() for m, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            name = "1" if not m else "^".join(f"t{k}" for k in m)
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    __repr__ = __str__

    def _same_algebra(self, other: "FormElement"):
        if self.ngen != other.ngen:
            raise ValueError(
                f"mismatched generator-set dimension: {self.ngen} vs {other.ngen}"
            )


def wedge(a: FormElement, b: FormElement) -> FormElement:
    """Graded-commutative product; repeated generators annihilate."""
    a._same_algebra(b)
    terms: dict[Monomial, Scalar] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            merged = merge_monomials(m1, m2)
            if merged is None:
                continue
            mono, sign = merged
            c = c1 * c2
            if sign < 0:
                c = -c
            terms[mono] = terms.get(mono, ZERO) + c
    return FormElement(a.ngen, terms)


def contract(v: int, a: FormElement) -> FormElement:
    """Interior product with the v-th (unit) coframe vector: odd, squares to zero."""
    if not 1 <= v <= a.ngen:
        raise IndexError(f"contraction index {v} out of range 1..{a.ngen}")
    terms: dict[Monomial, Scalar] = {}
    for m, c in a.terms.items():
        if v not in m:
            continue
        t = m.index(v)
        rest = m[:t] + m[t + 1 :]
        if t % 2:
            c = -c
        terms[rest] = terms.get(rest, ZERO) + c
    return FormElement(a.ngen, terms)


def star_monomial(ngen: int, m: Monomial):
    """Hodge star of a monomial: signed complementary monomial."""
    comp = tuple(k for k in range(1, ngen + 1) if k not in m)
    return comp, perm_sign(m + comp)


def hodge_star(a: FormElement, ngen: int | None = None) -> FormElement:
    """Hodge star for the orthonormal coframe, orientation theta^1..theta^N."""
    n = a.ngen if ngen is None else ngen
    if n != a.ngen:
        raise ValueError(f"mismatched generator-set dimension: {a.ngen} vs {n}")
    terms: dict[Monomial, Scalar] = {}
    for m, c in a.terms.items():
        comp, sign = star_monomial(n, m)
        terms[comp] = terms.get(comp, ZERO) + (c if sign > 0 else -c)
    return FormElement(n, terms)


def star_on_subset(a: FormElement, subset: tuple[int, ...]) -> FormElement:
    """Hodge star of the exterior algebra on a coframe subset.

    Orientation is increasing order of subset; monomials outside it are
    rejected.  Used for the transversal (horizontal) star.
    """
    sub = tuple(sorted(subset))
    terms: dict[Monomial, Scalar] = {}
    for m, c in a.terms.items():
        if any(k not in sub for k in m):
            raise ValueError(f"monomial {m} not contained in coframe subset {sub}")
        comp = tuple(k for k in sub if k not in m)
        sign = perm_sign([sub.index(k) for k in m + comp])
        terms[comp] = terms.get(comp, ZERO) + (c if sign > 0 else -c)
    return FormElement(a.ngen, terms)


def inner_product(a: FormElement, b: FormElement) -> Scalar:
    """Hermitian inner product making the monomial basis orthonormal.

    Conjugate-linear in the first argument.
    """
    a._same_algebra(b)
    acc = ZERO
    for m, c in a.terms.items():
        other = b.terms.get(m)
        if other is not None:
            acc = acc + c.conj() * other
    return acc


def column_forms(ngen: int, k: int, m) -> list[FormElement]:
    """The degree-k forms whose coordinates are the columns of m."""
    basis = monomial_basis(ngen, k)
    if m.nrows != len(basis):
        raise ValueError("coordinate matrix has wrong row count")
    return [FormElement(ngen, {basis[i]: c for i, c in col.items()}) for col in m.columns()]


def multiplication(a: FormElement, degree: int) -> Clifford:
    """e_a, left exterior multiplication by a form of the given degree."""
    return Clifford(a.ngen, degree, {(generator_mask(m), 0): c for m, c in a.terms.items()})


def derivation(ngen: int, shift: int, values: Mapping[int, FormElement]) -> Clifford:
    """The graded derivation D with D(theta^k) = values[k], which is
    sum_k e_{values[k]} i_k; each value has degree shift + 1."""
    return Clifford(ngen, shift, {(generator_mask(m), 1 << (k - 1)): c
                                  for k, a in values.items() for m, c in a.terms.items()})
