"""Dense exact matrices over the Gaussian rationals.

Everything downstream (ranks, kernels, cohomology, relation checks) runs
through this module, so it stays small and boring: row reduction with
full pivoting-by-first-nonzero, no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import ONE, Scalar, ZERO

Vector = tuple[Scalar, ...]


class Matrix:
    """Immutable dense matrix of Scalars.

    The row storage is private to this module: callers work on whole
    blocks, and read single entries through `entry`.
    """

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            object.__setattr__(self, "ncols", widths.pop())
        else:
            object.__setattr__(self, "ncols", 0 if ncols is None else ncols)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[ZERO] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_cols(cols: Sequence[Vector], nrows: int | None = None) -> "Matrix":
        if not cols:
            return Matrix([], 0) if nrows is None else Matrix.zero(nrows, 0)
        m = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(m)], len(cols))

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self._rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i][j]

    def top(self, n: int) -> "Matrix":
        """The first n rows."""
        return Matrix(self._rows[:n], self.ncols)

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(
            [[b if a.is_zero() else a if b.is_zero() else a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self._rows, other._rows)],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(
            [[a if b.is_zero() else -b if a.is_zero() else a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self._rows, other._rows)],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[a if a.is_zero() else -a for a in r] for r in self._rows], self.ncols)

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix([[a if a.is_zero() else a * c for a in r] for r in self._rows], self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ocols = other.ncols
        out = []
        for r in self._rows:
            row = [ZERO] * ocols
            for k, a in enumerate(r):
                if a.is_zero():
                    continue
                orow = other._rows[k]
                for j in range(ocols):
                    b = orow[j]
                    if not b.is_zero():
                        row[j] = row[j] + a * b
            out.append(row)
        return Matrix(out, ocols)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((a * x for a, x in zip(r, v) if not a.is_zero()), ZERO) for r in self._rows
        )

    def conj_transpose(self) -> "Matrix":
        return Matrix(
            [[self._rows[i][j].conj() for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.shape, self._rows))

    def is_zero(self) -> bool:
        return all(c.is_zero() for r in self._rows for c in r)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def trace(self) -> Scalar:
        return sum((self._rows[i][i] for i in range(min(self.shape))), ZERO)

    def first_nonzero(self):
        """(i, j, value) of the first nonzero entry in row-major order, or None."""
        for i, r in enumerate(self._rows):
            for j, c in enumerate(r):
                if not c.is_zero():
                    return i, j, c
        return None

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(
            [r1 + r2 for r1, r2 in zip(self._rows, other._rows)], self.ncols + other.ncols
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return Matrix(self._rows + other._rows, self.ncols)

    def _shape_check(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __str__(self):
        return "\n".join("[" + " ".join(str(c) for c in r) + "]" for r in self._rows)


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in mat._rows]
    pivots: list[int] = []
    r = 0
    for col in range(mat.ncols):
        piv = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [a if a.is_zero() else a / pv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a if b.is_zero() else a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return Matrix(rows, mat.ncols), pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix) -> list[Vector]:
    """Canonical nullspace basis (one vector per free column of the RREF)."""
    red, pivots = rref(mat)
    free = [c for c in range(mat.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * mat.ncols
        v[fc] = ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -red._rows[ri][fc]
        basis.append(tuple(v))
    return basis


def solve(mat: Matrix, rhs: Matrix) -> Matrix | None:
    """The solution X of mat @ X = rhs with every free variable zero, or
    None when some column of rhs is inconsistent.

    One elimination of [mat | rhs]: a pivot in an rhs column marks an
    inconsistent column.  The solution is the unique one with zero free
    rows, so it equals the column-by-column solutions.
    """
    n = mat.ncols
    red, pivots = rref(mat.hstack(rhs))
    if pivots and pivots[-1] >= n:
        return None
    out = [[ZERO] * rhs.ncols for _ in range(n)]
    for ri, pc in enumerate(pivots):
        out[pc] = red._rows[ri][n:]
    return Matrix(out, rhs.ncols)


def subspace_equal(basis_a: Sequence[Vector], basis_b: Sequence[Vector]) -> bool:
    if not basis_a and not basis_b:
        return True
    dim = len(basis_a[0]) if basis_a else len(basis_b[0])
    ma = Matrix.from_cols(list(basis_a), dim)
    mb = Matrix.from_cols(list(basis_b), dim)
    ra, rb = rank(ma), rank(mb)
    if ra != rb:
        return False
    return rank(ma.hstack(mb)) == ra


def charpoly(mat: Matrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [c_0, ..., c_n], monic, via
    the Faddeev-LeVerrier recursion.  Requires real entries (all uses here
    are self-adjoint real operators)."""
    n = mat.nrows
    if mat.ncols != n:
        raise ValueError("charpoly needs a square matrix")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = Matrix.identity(n)
    a = mat
    for k in range(1, n + 1):
        am = a @ m
        t = am.trace()
        if t.im != 0:
            raise ValueError("charpoly restricted to real matrices")
        c = Fraction(-t.re, k)
        coeffs[n - k] = c
        m = am + Matrix.identity(n).scale(Scalar(c))
    return coeffs


def poly_eval_matrix(coeffs: Sequence[Fraction], mat: Matrix) -> Matrix:
    """Evaluate sum coeffs[k] * mat^k (Horner)."""
    n = mat.nrows
    acc = Matrix.zero(n, n)
    for c in reversed(list(coeffs)):
        acc = acc @ mat + Matrix.identity(n).scale(Scalar(c))
    return acc


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Rational roots of the polynomial with the given coefficients."""
    # clear denominators -> integer polynomial
    from math import gcd

    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    lo = 0
    while ints[lo] == 0:
        lo += 1
    a0, an = abs(ints[lo]), abs(ints[-1])

    def divisors(m):
        out = set()
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.add(d)
                out.add(m // d)
            d += 1
        return out

    roots = []
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = Fraction(0)
                for c in reversed(ints):
                    val = val * cand + c
                if val == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)
