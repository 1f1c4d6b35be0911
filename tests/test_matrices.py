from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieforms
from lieforms.matrices import (
    Matrix,
    nullspace,
    rank,
    rational_eigenvalues,
    rref,
    solve,
    subspace_equal,
)
from lieforms.scalars import ONE, Scalar, ZERO

entries = st.integers(min_value=-2, max_value=2).map(Scalar.of)


def matrices(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: Matrix(rows, ncols))


@st.composite
def systems(draw):
    """(A, X0) with A of shape m x n and X0 of shape n x r, small integers."""
    m, n, r = (draw(st.integers(min_value=lo, max_value=4)) for lo in (1, 1, 0))
    return draw(matrices(m, n)), draw(matrices(n, r))


def select(mat: Matrix, js) -> Matrix:
    """The columns js of mat, in that order."""
    return mat @ Matrix.unit_rows(list(js), mat.ncols).conj_transpose()


def column(mat: Matrix, j: int) -> Matrix:
    return select(mat, [j])


@settings(deadline=None, max_examples=80)
@given(systems())
def test_solve_consistent_right_hand_side(system):
    a, x0 = system
    b = a @ x0
    x = solve(a, b)
    assert x is not None and x.shape == x0.shape
    assert a @ x == b
    # every free variable is zero
    pivots = rref(a)[1]
    for i in range(a.ncols):
        if i not in pivots:
            assert all(x.entry(i, j).is_zero() for j in range(x.ncols))


@settings(deadline=None, max_examples=80)
@given(systems())
def test_solve_matches_column_by_column(system):
    a, x0 = system
    b = a @ x0
    x = solve(a, b)
    for j in range(b.ncols):
        assert solve(a, column(b, j)) == column(x, j)


@settings(deadline=None, max_examples=80)
@given(systems(), st.data())
def test_solve_rejects_any_inconsistent_column(system, data):
    a, x0 = system
    # a zero last row makes e_last inconsistent
    a = a.vstack(Matrix.zero(1, a.ncols))
    b = a @ x0
    bad = column(Matrix.identity(a.nrows), a.nrows - 1)
    at = data.draw(st.integers(min_value=0, max_value=b.ncols))
    rhs = select(b, range(at)).hstack(bad).hstack(select(b, range(at, b.ncols)))
    assert solve(a, rhs) is None


def test_solve_inconsistent_column_before_a_consistent_one():
    a = Matrix([[ONE, ZERO], [ZERO, ZERO]])
    rhs = Matrix([[ZERO, ONE], [ONE, ZERO]])
    assert solve(a, column(rhs, 1)) == column(rhs, 1)
    assert solve(a, column(rhs, 0)) is None
    assert solve(a, rhs) is None


# -- the sparse store against a dense reference ------------------------------
#
# The reference is a list of rows of (re, im) Fraction pairs with its own
# textbook arithmetic; it takes nothing from the engine but what an engine
# matrix reads back through `entry`.

def c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def c_neg(x):
    return (-x[0], -x[1])


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


C_ZERO = (Fraction(0), Fraction(0))


def ref_mul(a, b, ncols):
    return [[sum_pairs(c_mul(r[k], b[k][j]) for k in range(len(b))) for j in range(ncols)]
            for r in a]


def sum_pairs(terms):
    out = C_ZERO
    for t in terms:
        out = c_add(out, t)
    return out


def ref_rank(a, ncols):
    rows = [list(r) for r in a]
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col] != C_ZERO), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            f = c_div(rows[i][col], rows[rk][col])
            rows[i] = [c_add(x, c_neg(c_mul(f, y))) for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def to_scalar(x):
    return Scalar(x[0], x[1])


def engine(a, ncols):
    return Matrix([[to_scalar(x) for x in r] for r in a], ncols)


def dense(m: Matrix):
    return [[(m.entry(i, j).re, m.entry(i, j).im) for j in range(m.ncols)]
            for i in range(m.nrows)]


# small Gaussian integers, zero about half the time so that blocks are sparse
gaussian = st.one_of(st.just(C_ZERO), st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda t: (Fraction(t[0]), Fraction(t[1]))))


def ref_matrices(nrows, ncols):
    return st.lists(st.lists(gaussian, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def operands(draw):
    """(a, b, c, d, e) with a, b m x n, c n x p, d m x p and e p x n."""
    m, n, p = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return (draw(ref_matrices(m, n)), draw(ref_matrices(m, n)), draw(ref_matrices(n, p)),
            draw(ref_matrices(m, p)), draw(ref_matrices(p, n)), (m, n, p))


@settings(deadline=None, max_examples=150)
@given(operands(), gaussian)
def test_block_operations_match_dense_reference(ops, s):
    a, b, c, d, e, (m, n, p) = ops
    A, B, C, D, E = engine(a, n), engine(b, n), engine(c, p), engine(d, p), engine(e, n)
    assert dense(A @ C) == ref_mul(a, c, p)
    assert dense(A + B) == [[c_add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
    assert dense(A - B) == [[c_add(x, c_neg(y)) for x, y in zip(r1, r2)]
                            for r1, r2 in zip(a, b)]
    assert dense(A.scale(to_scalar(s))) == [[c_mul(x, s) for x in r] for r in a]
    assert dense(A.conj_transpose()) == [[(a[i][j][0], -a[i][j][1]) for i in range(m)]
                                         for j in range(n)]
    assert dense(A.hstack(D)) == [r1 + r2 for r1, r2 in zip(a, d)]
    assert dense(A.vstack(E)) == a + e
    assert rank(A) == ref_rank(a, n)
    assert A.is_zero() == all(x == C_ZERO for r in a for x in r)
    nonzero = [(i, j, to_scalar(a[i][j])) for i in range(m) for j in range(n)
               if a[i][j] != C_ZERO]
    # B + (A - B) is A with its entries stored in another order
    for same in (A, B + (A - B)):
        assert same.first_nonzero() == (nonzero[0] if nonzero else None)


@settings(deadline=None, max_examples=80)
@given(operands())
def test_difference_with_itself_is_the_zero_matrix(ops):
    a, *_, (m, n, _) = ops
    A = engine(a, n)
    for z in (A - A, A.scale(ZERO), A + (-A)):
        assert z == Matrix.zero(m, n)
        assert hash(z) == hash(Matrix.zero(m, n))
        assert z.first_nonzero() is None


@settings(deadline=None, max_examples=80)
@given(operands())
def test_one_matrix_built_several_ways_compares_and_hashes_equal(ops):
    a, b, *_, (m, n, _) = ops
    rows = engine(a, n)
    # column by column
    cols = Matrix.from_entries(m, n, ((i, j, to_scalar(a[i][j])) for j in range(n)
                                      for i in range(m) if a[i][j] != C_ZERO))
    product = Matrix.identity(m) @ rows
    # the same entries, inserted in another order
    detour = engine(b, n) + (rows - engine(b, n))
    for other in (cols, product, detour):
        assert other == rows and other.shape == (m, n)
        assert hash(other) == hash(rows)


@settings(deadline=None, max_examples=150)
@given(operands(), st.data())
def test_nullspace_matches_dense_reference(ops, data):
    a, *_, (m, n, _) = ops
    A = engine(a, n)
    N = nullspace(A)
    assert (A @ N).is_zero()
    assert N.shape == (n, n - ref_rank(a, n))
    # column j is free when it does not raise the rank of the columns before it
    free = [j for j in range(n)
            if ref_rank([r[:j + 1] for r in a], j + 1) == ref_rank([r[:j] for r in a], j)]
    assert dense(Matrix.unit_rows(free, n) @ N) == dense(Matrix.identity(len(free)))
    assert A.columns() == [{i: to_scalar(a[i][j]) for i in range(m) if a[i][j] != C_ZERO}
                           for j in range(n)]
    assert all(list(col) == sorted(col) for col in A.columns())
    # N times an invertible upper-triangular matrix spans the same subspace
    f = N.ncols
    nonzero = gaussian.filter(lambda x: x != C_ZERO)
    upper = [[data.draw(nonzero) if i == j else data.draw(gaussian) if i < j else C_ZERO
              for j in range(f)] for i in range(f)]
    mixed = N @ engine(upper, f)
    assert subspace_equal(N, mixed) and subspace_equal(mixed, N)
    # the basis columns are independent, so dropping one shrinks the span
    if f:
        drop = data.draw(st.integers(0, f - 1))
        assert not subspace_equal(select(N, [j for j in range(f) if j != drop]), N)


@settings(deadline=None, max_examples=80)
@given(systems())
def test_nullspace_basis_holds_the_identity_at_the_last_nonzero_row_of_each_column(system):
    # the rule `FormComplex` reads coordinates by: those rows are the free
    # coordinates, 1 in their own column and 0 in the others
    basis = nullspace(system[0])
    last = [max(col) for col in basis.columns()]
    assert Matrix.unit_rows(last, basis.nrows) @ basis == Matrix.identity(basis.ncols)


@st.composite
def spectral_blocks(draw):
    """A real block: upper triangular with small rational diagonal entries,
    next to the companion matrix of x^2 + bx + c, whose roots may be
    irrational."""
    diag = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                         min_size=0, max_size=4))
    b, c = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    n = len(diag)
    entries = [(i, i, Scalar.of(x)) for i, x in enumerate(diag)]
    entries += [(i, j, Scalar.of(draw(st.integers(-2, 2))))
                for i in range(n) for j in range(i + 1, n)]
    entries += [(n, n + 1, ONE), (n + 1, n, Scalar.of(-c)), (n + 1, n + 1, Scalar.of(-b))]
    return Matrix.from_entries(n + 2, n + 2, [e for e in entries if e[2]])


def quadratic_integer_roots(b: int, c: int) -> set[int]:
    """The integer roots of x^2 + bx + c, each at most 1 + |b| + |c| in size."""
    bound = 1 + abs(b) + abs(c)
    return {m for m in range(-bound, bound + 1) if m * m + b * m + c == 0}


@settings(deadline=None, max_examples=150)
@given(spectral_blocks())
def test_rational_eigenvalues_are_the_diagonal_and_the_quadratic_roots(block):
    # the eigenvalues of a block-triangular block are those of its diagonal
    # blocks: the diagonal entries, and the roots of x^2 + bx + c, which are
    # rational exactly when they are integers
    n = block.nrows - 2
    b, c = -block.entry(n + 1, n + 1), -block.entry(n + 1, n)
    want = {block.entry(i, i).re for i in range(n)} | quadratic_integer_roots(b.re, c.re)
    assert rational_eigenvalues(block) == sorted(want)


def test_rational_eigenvalues_of_a_block_with_a_wide_constant_term():
    # the characteristic polynomial's c_0 = 2^20 3^20 has 441 divisors up to
    # 3.7e15: the Gershgorin bound of the block leaves the seven integers in
    # [-3, 3]
    block = Matrix.from_entries(40, 40, [(i, i, Scalar.of(2 if i < 20 else 3))
                                         for i in range(40)])
    assert rational_eigenvalues(block) == [2, 3]


def full_range_eigenvalues(block: Matrix) -> list[Fraction]:
    """Every integer m up to D times the largest absolute row sum, tested
    by singularity of block - (m/D) I: the scan the Gershgorin intervals
    replace."""
    n = block.nrows
    den = lcm(1, *(Fraction(p).denominator for i in range(n) for j in range(n)
                   for p in (block.entry(i, j).re, block.entry(i, j).im)))
    bound = max((sum(abs(block.entry(i, j).re) + abs(block.entry(i, j).im) for j in range(n))
                 for i in range(n)), default=0)
    top = int(den * bound)
    return sorted({Fraction(m, den) for m in range(-top, top + 1)
                   if rank(block - Matrix.identity(n).scale(Scalar(Fraction(m, den)))) < n})


@st.composite
def gaussian_blocks(draw):
    """A small square block of Gaussian rationals, some entries zero, made
    Hermitian (so every eigenvalue is real) half the time, and shifted by a
    diagonal so that some of its eigenvalues sit away from 0."""
    n = draw(st.integers(0, 4))
    part = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    entries = [(i, j, Scalar(draw(part), draw(st.one_of(st.just(Fraction(0)), part))))
               for i in range(n) for j in range(n) if draw(st.booleans())]
    block = Matrix.from_entries(n, n, [e for e in entries if e[2]])
    if draw(st.booleans()):
        block = block + block.conj_transpose()
    return block + Matrix.identity(n).scale(Scalar.of(draw(st.integers(-3, 3))))


@settings(deadline=None, max_examples=150)
@given(st.one_of(spectral_blocks(), gaussian_blocks()))
def test_rational_eigenvalues_match_the_full_range_scan(block):
    # every real eigenvalue lies in one row's Gershgorin interval, so
    # testing only the integers in their union loses no root
    assert rational_eigenvalues(block) == full_range_eigenvalues(block)


def test_rational_eigenvalues_of_a_block_with_imaginary_off_diagonal_entries():
    # [[0, i], [-i, 0]] has the eigenvalues -1 and 1: its Gershgorin radius
    # counts the imaginary parts
    i = Scalar(0, 1)
    block = Matrix.from_entries(2, 2, [(0, 1, i), (1, 0, -i)])
    assert rational_eigenvalues(block) == [-1, 1]


def test_only_the_matrix_module_reads_row_storage():
    # how a block is stored is a decision of matrices.py alone
    package = Path(lieforms.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if "._rows" in path.read_text())
    assert readers == ["matrices.py"]


# real and complex Gaussian rationals: the imaginary part is zero half the time
parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussian_rationals = st.tuples(parts, st.one_of(st.just(Fraction(0)), parts))


@settings(deadline=None, max_examples=300)
@given(gaussian_rationals, gaussian_rationals)
def test_scalar_arithmetic_matches_textbook_formulas(x, y):
    sx, sy = to_scalar(x), to_scalar(y)
    expected = {"+": c_add(x, y), "-": c_add(x, c_neg(y)), "*": c_mul(x, y)}
    got = {"+": sx + sy, "-": sx - sy, "*": sx * sy}
    if y != C_ZERO:
        expected["/"] = c_div(x, y)
        got["/"] = sx / sy
    else:
        with pytest.raises(ZeroDivisionError):
            sx / sy
    for op, want in expected.items():
        assert (got[op].re, got[op].im) == want, op
        assert got[op] == to_scalar(want) and hash(got[op]) == hash(to_scalar(want))
        assert got[op].is_zero() == (want == C_ZERO) == (not got[op])
    assert ((-sx).re, (-sx).im) == c_neg(x)
    assert (sx.conj().re, sx.conj().im) == (x[0], -x[1])
