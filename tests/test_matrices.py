from hypothesis import given, settings, strategies as st

from lieforms.matrices import Matrix, rref, solve
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


def column(mat: Matrix, j: int) -> Matrix:
    return Matrix.from_cols([mat.col(j)], mat.nrows)


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
    bad = tuple(ONE if i == a.nrows - 1 else ZERO for i in range(a.nrows))
    at = data.draw(st.integers(min_value=0, max_value=b.ncols))
    cols = [b.col(j) for j in range(b.ncols)]
    rhs = Matrix.from_cols(cols[:at] + [bad] + cols[at:], a.nrows)
    assert solve(a, rhs) is None


def test_solve_inconsistent_column_before_a_consistent_one():
    a = Matrix([[ONE, ZERO], [ZERO, ZERO]])
    rhs = Matrix([[ZERO, ONE], [ONE, ZERO]])
    assert solve(a, column(rhs, 1)) == column(rhs, 1)
    assert solve(a, column(rhs, 0)) is None
    assert solve(a, rhs) is None
