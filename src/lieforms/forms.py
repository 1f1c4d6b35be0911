"""Monomials of the exterior algebra on N orthonormal coframe generators.

A monomial is a strictly increasing tuple of generator indices from
1..N, and every coordinate column and matrix in the package uses the
lexicographic degree-k basis of `monomial_basis`.  A form is the Clifford
polynomial e_a of its multiplication (`clifford.py`) or a coordinate
column; this module only names the basis, stars monomials and prints a
column.  The coframe order theta^1 ^ ... ^ theta^N is the declared
orientation, which pins every Hodge-star sign.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations

from .scalars import Scalar

Monomial = tuple[int, ...]


def monomial_basis(ngen: int, k: int) -> list[Monomial]:
    """Lexicographic degree-k basis; every matrix in the package uses this order."""
    return list(combinations(range(1, ngen + 1), k))


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq (assumed repetition-free)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def star(frame: tuple[int, ...], m: Monomial) -> tuple[Monomial, int]:
    """Hodge star of a monomial of the exterior algebra on an oriented
    coframe tuple: the complement of m in frame order, and the sign that
    makes m ^ *m the frame's volume form."""
    comp = tuple(k for k in frame if k not in m)
    position = {k: i for i, k in enumerate(frame)}
    return comp, perm_sign([position[k] for k in m + comp])


def form_text(ngen: int, k: int, column: Mapping[int, Scalar]) -> str:
    """The degree-k form with the given coordinates, as `(c)*t1^t2 + ...`
    in basis order, or 0."""
    if not column:
        return "0"
    basis = monomial_basis(ngen, k)
    return " + ".join(f"({column[i]})*{'^'.join(f't{j}' for j in basis[i]) or '1'}"
                      for i in sorted(column))
