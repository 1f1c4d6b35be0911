"""Sparse exact matrices over the Gaussian rationals.

Everything downstream (ranks, kernels, cohomology, relation checks) runs
through this module, so it stays small and boring: row reduction with
first-nonzero pivoting, no floating point anywhere.

A block is stored as one dict {column: nonzero Scalar} per row, and no
zero is ever stored, so every operation walks only the nonzero entries.
Stored row dicts are never mutated, which lets matrices share rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .scalars import MINUS_ONE, ONE, Scalar, ZERO

Row = dict[int, Scalar]


class Matrix:
    """Immutable sparse matrix of Scalars.

    The row storage is private to this module: callers work on whole
    blocks, and read single entries through `entry`.
    """

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: int | None = None):
        rows = [tuple(r) for r in rows]
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            ncols = widths.pop()
        _make(tuple({j: a for j, a in enumerate(r) if a} for r in rows),
              0 if ncols is None else ncols, self)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return _make(tuple({} for _ in range(nrows)), ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _make(tuple({i: ONE} for i in range(n)), n)

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries) -> "Matrix":
        """The matrix whose nonzero entries are the given (i, j, value), each
        (i, j) at most once."""
        rows: list[Row] = [{} for _ in range(nrows)]
        for i, j, a in entries:
            rows[i][j] = a
        return _make(tuple(rows), ncols)

    @staticmethod
    def unit_rows(positions: Sequence[int], ncols: int) -> "Matrix":
        """The rows e_p of the ncols x ncols identity, for p in positions."""
        return _make(tuple({p: ONE} for p in positions), ncols)

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i].get(j, ZERO)

    def top(self, n: int) -> "Matrix":
        """The first n rows."""
        return _make(self._rows[:n], self.ncols)

    def columns(self) -> list[Row]:
        """Each column as a {row: nonzero entry} dict, rows in increasing order."""
        cols: list[Row] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, a in r.items():
                cols[j][i] = a
        return cols

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, ONE)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, MINUS_ONE)

    def _plus(self, other: "Matrix", c: Scalar) -> "Matrix":
        """self + c*other."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        if not any(other._rows):
            return self
        return _make(tuple(add_into(dict(r1), r2, c) for r1, r2 in zip(self._rows, other._rows)),
                     self.ncols)

    def __neg__(self) -> "Matrix":
        return _make(tuple({j: -a for j, a in r.items()} for r in self._rows), self.ncols)

    def scale(self, c: Scalar) -> "Matrix":
        if not c:
            return Matrix.zero(*self.shape)
        return _make(tuple({j: a * c for j, a in r.items()} for r in self._rows), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        orows = other._rows
        out = []
        for r in self._rows:
            acc: Row = {}
            for k, a in r.items():
                add_into(acc, orows[k], a)
            out.append(acc)
        return _make(tuple(out), other.ncols)

    def conj_transpose(self) -> "Matrix":
        cols: list[Row] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, a in r.items():
                cols[j][i] = a.conj()
        return _make(tuple(cols), self.nrows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.shape, tuple(frozenset(r.items()) for r in self._rows)))

    def is_zero(self) -> bool:
        return not any(self._rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def first_nonzero(self):
        """(i, j, value) of the first nonzero entry in row-major order, or None."""
        for i, r in enumerate(self._rows):
            if r:
                j = min(r)
                return i, j, r[j]
        return None

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        n = self.ncols
        return _make(
            tuple({**r1, **{j + n: a for j, a in r2.items()}} if r2 else r1
                  for r1, r2 in zip(self._rows, other._rows)),
            n + other.ncols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return _make(self._rows + other._rows, self.ncols)


def _make(rows: tuple[Row, ...], ncols: int, m: Matrix | None = None) -> Matrix:
    """A matrix (m itself, when given) over row dicts that hold no zero and
    are never mutated."""
    m = object.__new__(Matrix) if m is None else m
    object.__setattr__(m, "_rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", ncols)
    return m


def add_into(acc: dict, y: dict, c: Scalar) -> dict:
    """acc += c*y in place for a nonzero c, dropping the entries that
    cancel: a sparse sum of {key: nonzero Scalar} dicts, the rows here and
    the term dicts of `clifford`."""
    for j, b in y.items():
        if c is not ONE:
            b = -b if c is MINUS_ONE else b * c
        a = acc.get(j)
        if a is None:
            acc[j] = b
        elif (s := a + b):
            acc[j] = s
        else:
            del acc[j]
    return acc


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns."""
    rows = list(mat._rows)
    pivots: list[int] = []
    r = 0
    for col in range(mat.ncols):
        piv = next((i for i in range(r, len(rows)) if col in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        if pv != ONE:
            rows[r] = {j: a / pv for j, a in rows[r].items()}
        prow = rows[r]
        for i, row in enumerate(rows):
            f = row.get(col)
            if f is not None and i != r:
                rows[i] = add_into(dict(row), prow, -f)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return _make(tuple(rows), mat.ncols), pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix) -> Matrix:
    """Canonical nullspace basis as the columns of a matrix: one column per
    free column of the RREF, in order, with a 1 at its free coordinate and
    0 at the other free coordinates."""
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    free = {c: t for t, c in enumerate(c for c in range(mat.ncols) if c not in pivot_set)}
    rows: list[Row] = [{} for _ in range(mat.ncols)]
    for c, t in free.items():
        rows[c] = {t: ONE}
    # an RREF row is 1 at its pivot and 0 at the other pivots, so its other
    # entries sit at free columns
    for ri, pc in enumerate(pivots):
        rows[pc] = {free[j]: -a for j, a in red._rows[ri].items() if j != pc}
    return _make(tuple(rows), len(free))


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
    out: list[Row] = [{} for _ in range(n)]
    for ri, pc in enumerate(pivots):
        out[pc] = {j - n: a for j, a in red._rows[ri].items() if j >= n}
    return _make(tuple(out), rhs.ncols)


def subspace_equal(a: Matrix, b: Matrix) -> bool:
    """Whether the columns of a and of b span the same subspace."""
    ra = rank(a)
    return ra == rank(b) and rank(a.hstack(b)) == ra


def rational_eigenvalues(block: Matrix) -> list[Fraction]:
    """The rational eigenvalues of a square block, in increasing order.

    With D the common denominator of the block's entries, M = D * block has
    entries in Z[i], so each rational eigenvalue of M is an integer.  It
    lies in a Gershgorin interval [Re m_ii - R_i, Re m_ii + R_i], R_i the
    sum of |Re| + |Im| over the off-diagonal entries of row i, and both
    ends are integers.  An integer m in one of them gives the eigenvalue
    m / D exactly when block - (m / D) I is singular: the work grows with
    the intervals' lengths, not with the bit length of any polynomial
    coefficient.
    """
    n = block.nrows
    den = lcm(1, *(p.denominator for r in block._rows for a in r.values() for p in (a.re, a.im)))
    candidates = set()
    for i, r in enumerate(block._rows):
        centre = int(den * r[i].re) if i in r else 0
        radius = int(den * sum(abs(a.re) + abs(a.im) for j, a in r.items() if j != i))
        candidates.update(range(centre - radius, centre + radius + 1))
    eye = Matrix.identity(n)
    return [Fraction(m, den) for m in sorted(candidates)
            if rank(block - eye.scale(Scalar(Fraction(m, den)))) < n]
