from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieforms.forms import form_text, monomial_basis
from lieforms.clifford import Clifford, basis_dim, op_sum, reeb_power, supercommutator
from lieforms.matrices import Matrix
from lieforms.scalars import ONE, Scalar
from lieforms.verdicts import check_relation

from block_reference import (
    EVEN,
    ODD,
    adjoint,
    apply,
    blocks,
    compose,
    extend_derivation,
    from_action,
    identity,
    is_zero,
)
from conftest import ops_for, pool_for
from form_reference import (
    FormElement,
    column_forms,
    contract,
    derivation,
    hodge_star,
    multiplication,
    wedge,
)


def t(n, *ix):
    return FormElement.monomial(n, ix)


def wedge_operator(a):
    """Left exterior multiplication by a homogeneous form, as blocks."""
    return blocks(multiplication(a, a.degree() if a.terms else 0))


def contraction_operator(n, v):
    return blocks(Clifford.contraction(n, v))


def h3_d():
    n = 3
    return extend_derivation(
        n, ODD,
        {1: FormElement.zero(n), 2: FormElement.zero(n), 3: t(n, 1, 2)},
    )


def test_extend_derivation_heisenberg_differential():
    d = h3_d()
    assert apply(d, t(3, 3)) == t(3, 1, 2)
    assert apply(d, t(3, 1)).is_zero()
    assert is_zero(compose(d, d))
    # leibniz on a product: d(t1^t3) = -t1^d(t3) = -t1^t1^t2 = 0
    assert apply(d, t(3, 1, 3)).is_zero()
    assert apply(d, t(3, 2, 3)).is_zero()


def test_extend_derivation_contraction():
    n = 3
    unit = FormElement.unit(n)
    act = {k: unit if k == 2 else FormElement.zero(n) for k in (1, 2, 3)}
    op = extend_derivation(n, ODD, act)
    assert op == contraction_operator(n, 2)


def test_extend_derivation_zero_and_parity_error():
    n = 3
    zero = extend_derivation(n, ODD, {k: FormElement.zero(n) for k in (1, 2, 3)})
    assert is_zero(zero)
    with pytest.raises(ValueError):
        extend_derivation(n, EVEN, {1: t(n, 1, 2), 2: FormElement.zero(n),
                                    3: FormElement.zero(n)})


def test_extend_derivation_first_order_part():
    # D(1) = t1 forces D = e_{t1} + derivation with the derivation part
    # read off from the generator values
    n = 2
    op = extend_derivation(
        n, ODD,
        {1: t(n, 1, 2), 2: t(n, 1, 2)},
        unit_value=t(n, 1),
    )
    assert apply(op, FormElement.unit(n)) == t(n, 1)
    # D(t1) = t1^t1 + delta(t1) = t1^t2
    assert apply(op, t(n, 1)) == t(n, 1, 2)
    # D(t1^t2) = D(1)^t1^t2 + delta-part; top degree kills the unit term.
    # First order: every normal-ordered term has at most one contraction;
    # here D = e_1 + e_1 e_2 i_1, whose unit term e_{t1} has none
    poly = Clifford(n, 1, {(1, 0): ONE, (3, 1): ONE})
    assert poly.first_order() and blocks(poly) == op
    # it is not a derivation: a derivation kills 1
    assert not apply(op, FormElement.unit(n)).is_zero()


def test_compose_identity_and_d_squared():
    d = h3_d()
    assert compose(identity(3), d) == d
    assert is_zero(compose(d, d))


def test_heisenberg_pair_identity():
    n = 3
    assert supercommutator(Clifford.wedge(n, 3), Clifford.contraction(n, 3)) == Clifford.identity(n)


def test_supercommutator_graded_antisymmetry_mixed_parities():
    d = derivation(3, 1, {3: t(3, 1, 2)})
    e3 = Clifford.wedge(3, 3)
    L = multiplication(t(3, 1, 2), 2)
    # odd-odd: {a,b} = {b,a}
    assert supercommutator(d, e3) == supercommutator(e3, d)
    # even-odd: {a,b} = -{b,a}
    assert supercommutator(L, d) == -supercommutator(d, L)


def test_adjoint_properties():
    d = ops_for("su2").d
    assert d.adjoint().adjoint() == d
    assert adjoint(wedge_operator(t(3, 3))) == contraction_operator(3, 3)
    # <A a, b> = <a, A* b> spot check through matrices
    ds = d.adjoint()
    for k in range(3):
        assert d.block(k).conj_transpose() == ds.block(k + 1)


def test_adjoint_reverses_composition():
    poly = pool_for("su2").poly
    a, b = poly("d"), poly("e_r")
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert (poly("L") @ poly("d")).adjoint() == poly("d").adjoint() @ poly("Lam")


def test_adjoint_vs_star_signs_on_su2():
    d = ops_for("su2").d
    ds = d.adjoint()
    n = 3
    def star_d_star(x):
        return hodge_star(apply(blocks(d), hodge_star(x)))

    sds = from_action(n, -1, ODD, star_d_star)
    for k in range(1, n + 1):
        sds_k = dense_block(n, k, k - 1, star_d_star)
        assert sds.blocks[k] == sds_k
        target = ds.block(k)
        assert target == sds_k or target == sds_k.scale(Scalar.of(-1))


def test_reeb_power():
    poly = pool_for("su2").poly
    e_r, lie_r = poly("e_r"), poly("Lie_r")
    assert reeb_power(e_r, lie_r) == e_r @ lie_r
    # on h3 the reeb direction is central, so every first power vanishes
    h3 = pool_for("h3").poly
    assert reeb_power(h3("L"), h3("Lie_r")).is_zero()


def test_reeb_power_commutation_guard():
    with pytest.raises(ValueError):
        reeb_power(Clifford.wedge(3, 1), pool_for("su2").poly("Lie_r"))


def test_super_jacobi_examples():
    poly = pool_for("su2").poly
    d, i_r = poly("d"), poly("i_r")

    def jacobi_holds(a, b, c):
        # {a,{b,c}} = {{a,b},c} + (-1)^{~a~b} {b,{a,c}}
        lhs = supercommutator(a, supercommutator(b, c))
        rhs1 = supercommutator(supercommutator(a, b), c)
        rhs2 = supercommutator(b, supercommutator(a, c))
        return lhs == (rhs1 - rhs2 if a.parity * b.parity % 2 else rhs1 + rhs2)

    assert jacobi_holds(d, d, i_r)
    assert jacobi_holds(Clifford.zero(3, 0), poly("L"), d)
    # odd self-bracket consequence: 2{d,{d,u}} = {{d,d},u}
    lhs = supercommutator(d, supercommutator(d, i_r)).scale(Scalar(Fraction(2)))
    rhs = supercommutator(supercommutator(d, d), i_r)
    assert lhs == rhs


def test_random_derivations_are_determined_by_generator_values():
    from fractions import Fraction

    from hypothesis import given, settings, strategies as st

    n = 3
    rationals = st.builds(Fraction, st.integers(min_value=-5, max_value=5),
                          st.integers(min_value=1, max_value=4))

    @settings(deadline=None, max_examples=40)
    @given(st.lists(rationals, min_size=9, max_size=9), st.sampled_from([0, 1]))
    def check(coeffs, parity):
        # random degree-(1+parity) values on the generators
        shift = 1 if parity else 0
        tgt = 1 + shift
        from lieforms.forms import monomial_basis

        basis = monomial_basis(n, tgt)
        action = {}
        it = iter(coeffs)
        for k in (1, 2, 3):
            val = FormElement.zero(n)
            for m in basis[:3]:
                val = val + FormElement.monomial(n, m, Scalar(next(it)))
            action[k] = val
        op = extend_derivation(n, parity, action, shift=shift)
        poly = derivation(n, shift, action)
        assert poly.first_order() and blocks(poly) == op
        # signed Leibniz rule on a product of generators
        a, b = t(n, 1), t(n, 2)
        lhs = apply(op, wedge(a, b))
        sign = Scalar.of(-1) if parity else Scalar.of(1)
        rhs = wedge(apply(op, a), b) + wedge(a, apply(op, b)).scale(sign)
        assert lhs == rhs

    check()


def test_first_order_criterion_detects_higher_order():
    # d* is a second-order operator on su2: some normal-ordered term of it
    # has two contractions
    d = ops_for("su2").d
    assert d.first_order()
    ds = d.adjoint()
    assert not ds.first_order()
    assert ds == pool_for("su2").poly("d*")
    assert blocks(ds) == adjoint(blocks(d))


def test_check_relation_fail_path_reports_first_mismatch():
    poly = pool_for("su2").poly
    wrong = poly("L").scale(Scalar.of(3))
    entry = check_relation("planted", ("{H,L}", supercommutator(poly("H"), poly("L"))),
                           ("3L", wrong), [("5L", poly("L").scale(Scalar.of(5)))])
    assert entry.verdict == "fail"
    assert "first mismatch at degree" in entry.failure
    assert not entry.ok


def test_check_relation_shift_mismatch_reported():
    poly = pool_for("su2").poly
    entry = check_relation("planted", ("e_r", poly("e_r")), ("i_r", poly("i_r")))
    assert entry.verdict == "fail"
    assert "shifts" in entry.failure


def test_check_relation_notes_a_side_that_is_the_lhs_itself():
    # a printed side that is the lhs polynomial decides nothing and says
    # so in every format; an equal polynomial built apart is a real pass
    poly = pool_for("su2").poly
    same = check_relation("same", ("{L,Lam}", poly(("L", "Lam"))), ("H", poly("H")))
    built = check_relation("built", ("{L,Lam}", poly(("L", "Lam"))),
                           ("H", supercommutator(poly("L"), poly("Lam"))))
    assert same.verdict == built.verdict == "pass"
    assert same.line().endswith("[one operator: holds by definition]")
    assert same.row()["detail"] == same.csv()[-1] == "one operator: holds by definition"
    assert built.failure is None and built.line() == "PASS  built: {L,Lam} = H"
    assert built.row()["detail"] is None and built.csv()[-1] == ""


def test_op_sum_names_the_sum_once():
    ident = Clifford.identity(3)
    forty = op_sum([ident] * 40)
    assert forty == ident.scale(Scalar.of(40))


# -- sparse from_action against a dense column-by-column reference ----------


def dense_block(ngen, k, tgt_degree, action):
    """The block of a linear map from degree k to tgt_degree, one dense
    coefficient column per basis monomial; every image must lie in
    tgt_degree."""
    tgt = monomial_basis(ngen, tgt_degree) if 0 <= tgt_degree <= ngen else []
    cols = []
    for m in monomial_basis(ngen, k):
        image = action(FormElement.monomial(ngen, m))
        assert all(len(mono) == tgt_degree for mono in image.terms)
        cols.append([image.coeff(mono) for mono in tgt])
    return Matrix([[col[i] for col in cols] for i in range(len(tgt))], len(cols))


def dense_blocks(ngen, shift, action):
    """The blocks of a linear map of the given shift, each a `dense_block`."""
    return tuple(dense_block(ngen, k, k + shift, action) for k in range(ngen + 1))


def leibniz(ngen, parity, unit_value, values, x):
    """D(x) = u ^ x + the signed Leibniz sum of D(theta^k) - u ^ theta^k,
    for x a single monomial: the factor at position pos passes pos 1-forms."""
    (mono, c), = x.terms.items()
    out = wedge(unit_value, x)
    for pos, k in enumerate(mono):
        value = values[k] - wedge(unit_value, FormElement.generator(ngen, k))
        term = wedge(wedge(FormElement.monomial(ngen, mono[:pos]), value),
                     FormElement.monomial(ngen, mono[pos + 1:]))
        out = out + term.scale(Scalar.of(-1 if parity and pos % 2 else 1))
    return out.scale(c)


gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def homogeneous_forms(draw, ngen, degree):
    basis = monomial_basis(ngen, degree) if 0 <= degree <= ngen else []
    coeffs = draw(st.lists(gaussian, min_size=len(basis), max_size=len(basis)))
    return FormElement(ngen, dict(zip(basis, coeffs)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_wedge_and_contraction_operators_match_dense_reference(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(homogeneous_forms(n, data.draw(st.integers(0, n))))
    op = wedge_operator(a)
    assert op.blocks == dense_blocks(n, op.shift, lambda x: wedge(a, x))
    v = data.draw(st.integers(1, n))
    assert contraction_operator(n, v).blocks == dense_blocks(n, -1, lambda x: contract(v, x))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_extend_derivation_matches_dense_reference(data):
    n = data.draw(st.integers(1, 5))
    shift = data.draw(st.integers(-1, 2))
    parity = shift % 2
    values = {k: data.draw(homogeneous_forms(n, shift + 1)) for k in range(1, n + 1)}
    unit_value = data.draw(homogeneous_forms(n, shift))
    op = extend_derivation(n, parity, values, unit_value, shift=shift)
    assert op.blocks == dense_blocks(
        n, shift, lambda x: leibniz(n, parity, unit_value, values, x))


def coordinates(a, k):
    """The coordinates of a degree-k form, as a one-column matrix."""
    return Matrix([[a.coeff(m)] for m in monomial_basis(a.ngen, k)], 1)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_form_to_column_and_column_forms_round_trip(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, n))
    a = data.draw(homogeneous_forms(n, k))
    assert column_forms(n, k, coordinates(a, k)) == [a]
    forms = data.draw(st.lists(homogeneous_forms(n, k), max_size=3))
    m = Matrix.zero(basis_dim(n, k), 0)
    for f in forms:
        m = m.hstack(coordinates(f, k))
    assert column_forms(n, k, m) == forms
    # the engine prints each column as its reference form prints
    assert [form_text(n, k, col) for col in m.columns()] == [str(f) for f in forms]


def test_form_to_column_and_column_forms_reject_wrong_degrees_and_shapes():
    with pytest.raises(ValueError, match="wrong row count"):
        column_forms(3, 1, Matrix.zero(2, 1))
    with pytest.raises(ValueError, match="wrong row count"):
        column_forms(4, 2, coordinates(t(4, 1), 1))


def test_from_action_rejects_non_homogeneous_actions():
    n = 3
    e1 = FormElement.generator(n, 1)
    with pytest.raises(ValueError, match="not homogeneous of shift 1"):
        from_action(n, 1, ODD, lambda x: wedge(e1, x) + x)
    with pytest.raises(ValueError, match="not homogeneous of shift 2"):
        from_action(n, 2, EVEN, lambda x: wedge(e1, x))
    # a nonzero image past the top degree
    with pytest.raises(ValueError, match=r"not homogeneous of shift 1 on \(1, 2, 3\)"):
        from_action(n, 1, ODD, lambda x: x if len(next(iter(x.terms))) == n
                    else FormElement.zero(n))
