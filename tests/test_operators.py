import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieforms.forms import FormElement, contract, hodge_star, monomial_basis, wedge
from lieforms.clifford import Clifford
from lieforms.operators import (
    EVEN,
    GradedOperator,
    ODD,
    basis_dim,
    column_forms,
    form_to_column,
    reeb_power,
    supercommutator,
)
from lieforms.matrices import Matrix
from lieforms.scalars import ONE, ZERO, Scalar
from lieforms.splitting import guard_names

from block_reference import extend_derivation, from_action
from conftest import model_pack, ops_for, pool_for


def t(n, *ix):
    return FormElement.monomial(n, ix)


def wedge_operator(a):
    """Left exterior multiplication by a homogeneous form, as blocks."""
    return Clifford.multiplication(a, a.degree() if a.terms else 0).to_blocks()


def contraction_operator(n, v):
    return Clifford.contraction(n, v).to_blocks()


def h3_d():
    n = 3
    return extend_derivation(
        n, ODD,
        {1: FormElement.zero(n), 2: FormElement.zero(n), 3: t(n, 1, 2)},
    )


def test_extend_derivation_heisenberg_differential():
    d = h3_d()
    assert d.apply(t(3, 3)) == t(3, 1, 2)
    assert d.apply(t(3, 1)).is_zero()
    assert (d @ d).is_zero()
    # leibniz on a product: d(t1^t3) = -t1^d(t3) = -t1^t1^t2 = 0
    assert d.apply(t(3, 1, 3)).is_zero()
    assert d.apply(t(3, 2, 3)).is_zero()


def test_extend_derivation_contraction():
    n = 3
    unit = FormElement.unit(n)
    act = {k: unit if k == 2 else FormElement.zero(n) for k in (1, 2, 3)}
    op = extend_derivation(n, ODD, act)
    assert op == contraction_operator(n, 2)


def test_extend_derivation_zero_and_parity_error():
    n = 3
    zero = extend_derivation(n, ODD, {k: FormElement.zero(n) for k in (1, 2, 3)})
    assert zero.is_zero()
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
    assert op.apply(FormElement.unit(n)) == t(n, 1)
    # D(t1) = t1^t1 + delta(t1) = t1^t2
    assert op.apply(t(n, 1)) == t(n, 1, 2)
    # D(t1^t2) = D(1)^t1^t2 + delta-part; top degree kills the unit term.
    # First order: every normal-ordered term has at most one contraction,
    # and here the unit term e_{t1} has none
    poly = Clifford.from_operator(op)
    assert poly.first_order()
    assert poly.terms[1, 0] == ONE
    # it is not a derivation: a derivation kills 1
    assert not op.apply(FormElement.unit(n)).is_zero()


def test_compose_identity_and_d_squared():
    d = h3_d()
    ident = GradedOperator.identity(3)
    assert ident @ d == d
    assert (d @ d).is_zero()


def test_heisenberg_pair_identity():
    n = 3
    e3 = wedge_operator(t(n, 3))
    i3 = contraction_operator(n, 3)
    assert supercommutator(e3, i3) == GradedOperator.identity(n)


def test_supercommutator_graded_antisymmetry_mixed_parities():
    d = h3_d()
    e3 = wedge_operator(t(3, 3))
    L = wedge_operator(t(3, 1, 2))
    # odd-odd: {a,b} = {b,a}
    assert supercommutator(d, e3) == supercommutator(e3, d)
    # even-odd: {a,b} = -{b,a}
    assert supercommutator(L, d) == -supercommutator(d, L)


def test_adjoint_properties():
    d = ops_for("su2").d
    assert d.adjoint().adjoint() == d
    assert wedge_operator(t(3, 3)).adjoint() == contraction_operator(3, 3)
    # <A a, b> = <a, A* b> spot check through matrices
    ds = d.adjoint()
    for k in range(3):
        assert d.blocks[k].conj_transpose() == ds.blocks[k + 1]


def test_adjoint_reverses_composition():
    pool = pool_for("su2")
    a, b = pool["d"], pool["e_r"]
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert (pool["L"] @ pool["d"]).adjoint() == pool["d"].adjoint() @ pool["Lam"]


def test_adjoint_vs_star_signs_on_su2():
    d = ops_for("su2").d
    ds = d.adjoint()
    n = 3
    def star_d_star(x):
        return hodge_star(d.apply(hodge_star(x)))

    sds = from_action(n, -1, ODD, star_d_star)
    for k in range(1, n + 1):
        sds_k = dense_block(n, k, k - 1, star_d_star)
        assert sds.blocks[k] == sds_k
        target = ds.blocks[k]
        assert target == sds_k or target == sds_k.scale(Scalar.of(-1))


def test_reeb_power():
    pool = pool_for("su2")
    e_r, lie_r = pool["e_r"], pool["Lie_r"]
    assert reeb_power(e_r, lie_r, 0) == e_r
    d0 = e_r @ lie_r
    assert reeb_power(e_r, lie_r, 1) == d0
    # on h3 the reeb direction is central, so every first power vanishes
    h3 = pool_for("h3")
    assert reeb_power(h3["L"], h3["Lie_r"], 1).is_zero()


def test_reeb_power_commutation_guard():
    e1 = wedge_operator(t(3, 1))
    with pytest.raises(ValueError):
        reeb_power(e1, pool_for("su2")["Lie_r"], 1)


def test_super_jacobi_examples():
    pool = pool_for("su2")
    d, i_r = pool["d"], pool["i_r"]

    def jacobi_holds(a, b, c):
        # {a,{b,c}} = {{a,b},c} + (-1)^{~a~b} {b,{a,c}}
        lhs = supercommutator(a, supercommutator(b, c))
        rhs1 = supercommutator(supercommutator(a, b), c)
        rhs2 = supercommutator(b, supercommutator(a, c))
        return lhs == (rhs1 - rhs2 if a.parity * b.parity % 2 else rhs1 + rhs2)

    assert jacobi_holds(d, d, i_r)
    zero = GradedOperator.zero(3, 0, EVEN)
    assert jacobi_holds(zero, pool["L"], d)
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
        assert Clifford.from_operator(op).first_order()
        assert Clifford.derivation(n, shift, action).to_blocks() == op
        # signed Leibniz rule on a product of generators
        a, b = t(n, 1), t(n, 2)
        from lieforms.forms import wedge

        lhs = op.apply(wedge(a, b))
        sign = Scalar.of(-1) if parity else Scalar.of(1)
        rhs = wedge(op.apply(a), b) + wedge(a, op.apply(b)).scale(sign)
        assert lhs == rhs

    check()


def test_first_order_criterion_detects_higher_order():
    # d* is a second-order operator on su2: some normal-ordered term of it
    # has two contractions
    d = ops_for("su2").d
    assert Clifford.from_operator(d).first_order()
    ds = Clifford.from_operator(d.adjoint())
    assert not ds.first_order()
    assert ds == pool_for("su2").poly("d*")


def test_blocks_shape_validation():
    with pytest.raises(ValueError):
        GradedOperator(2, 0, EVEN, (GradedOperator.identity(2).blocks[0],))


def test_operators_differing_in_one_entry_compare_unequal():
    d = ops_for("h3").d
    same = GradedOperator(d.ngen, d.shift, d.parity, tuple(d.blocks))
    assert same == d and hash(same) == hash(d)
    k = 1
    bump = Matrix.from_entries(*d.blocks[k].shape, [(0, 0, ONE)])
    blocks = d.blocks[:k] + (d.blocks[k] + bump,) + d.blocks[k + 1:]
    other = GradedOperator(d.ngen, d.shift, d.parity, blocks)
    assert other != d and d != other


def test_check_relation_fail_path_reports_first_mismatch():
    from lieforms.operators import check_relation

    pool = pool_for("su2")
    wrong = pool["L"].scale(Scalar.of(3))
    entry = check_relation("planted", ("{H,L}", supercommutator(pool["H"], pool["L"])),
                           ("3L", wrong), [("5L", pool["L"].scale(Scalar.of(5)))])
    assert entry.verdict == "fail"
    assert "first mismatch at degree" in entry.failure
    assert not entry.ok()


def test_check_relation_shift_mismatch_reported():
    from lieforms.operators import check_relation

    pool = pool_for("su2")
    entry = check_relation("planted", ("e_r", pool["e_r"]), ("i_r", pool["i_r"]))
    assert entry.verdict == "fail"
    assert "shifts" in entry.failure


def test_op_sum_names_the_sum_once():
    from lieforms.operators import op_sum

    ident = GradedOperator.identity(3)
    forty = op_sum([ident] * 40)
    assert forty == ident.scale(Scalar.of(40))


# -- zero operands against block-by-block arithmetic -------------------------
# The references below work entry by entry through `Matrix.entry`, so they
# share no shortcut with the operator algebra they check.


def _entrywise_sum(x, y, c):
    return Matrix([[x.entry(i, j) + c * y.entry(i, j) for j in range(x.ncols)]
                   for i in range(x.nrows)], x.ncols)


def _entrywise_product(x, y):
    return Matrix([[sum((x.entry(i, m) * y.entry(m, j) for m in range(x.ncols)), ZERO)
                    for j in range(y.ncols)] for i in range(x.nrows)], y.ncols)


def _blockwise_sum(a, b, c):
    blocks = tuple(_entrywise_sum(x, y, c) for x, y in zip(a.blocks, b.blocks))
    return GradedOperator(a.ngen, a.shift, a.parity, blocks)


def _blockwise_compose(a, b):
    n = a.ngen
    blocks = tuple(_entrywise_product(a.blocks[k + b.shift], b.blocks[k])
                   if 0 <= k + b.shift <= n
                   else Matrix.zero(basis_dim(n, k + b.shift + a.shift), basis_dim(n, k))
                   for k in range(n + 1))
    return GradedOperator(n, a.shift + b.shift, (a.parity + b.parity) % 2, blocks)


@pytest.mark.parametrize("name", ["su2", "torus4"])
def test_zero_operands_match_blockwise_arithmetic(name):
    # the guard generators of a builtin, against the zero generators among
    # them (d1 on su2, d on torus4) and zero operators of every small shift
    _, pack = model_pack(name)
    pool = pool_for(name)
    ops = [pool[x] for x in guard_names(pack)]
    n = ops[0].ngen
    zeros = [op for op in ops if op.is_zero()]
    assert zeros
    zeros += [GradedOperator.zero(n, s, p) for s in range(-2, 3) for p in (EVEN, ODD)]
    minus = Scalar.of(-1)
    for a in ops:
        for z in zeros:
            results = [(a @ z, _blockwise_compose(a, z)), (z @ a, _blockwise_compose(z, a))]
            if (a.shift, a.parity) == (z.shift, z.parity):
                results += [(a + z, _blockwise_sum(a, z, ONE)), (a - z, _blockwise_sum(a, z, minus)),
                            (z + a, _blockwise_sum(z, a, ONE)), (z - a, _blockwise_sum(z, a, minus))]
            else:
                for op in (operator.add, operator.sub):
                    with pytest.raises(ValueError):
                        op(a, z)
                    with pytest.raises(ValueError):
                        op(z, a)
            for out, ref in results:
                assert out == ref
                assert out is not a and out is not z


def test_zero_operands_still_check_their_partner():
    # a zero operand skips the block arithmetic, not the compatibility checks
    zeros = [GradedOperator.zero(3, s, p) for s in (0, 1) for p in (EVEN, ODD)]
    for y in zeros:
        for z in zeros:
            if y is not z:
                for op in (operator.add, operator.sub):
                    with pytest.raises(ValueError, match="equal shift and parity"):
                        op(y, z)
        other_model = GradedOperator.zero(4, y.shift, y.parity)
        for op in (operator.add, operator.sub, operator.matmul):
            with pytest.raises(ValueError, match="different models"):
                op(y, other_model)
            with pytest.raises(ValueError, match="different models"):
                op(other_model, y)


def test_zero_operators_share_blocks_not_identity():
    # matrices are immutable, so zero operators may share blocks; each
    # operator is still its own object
    y, z = GradedOperator.zero(3, 1, ODD), GradedOperator.zero(3, 1, ODD)
    assert y is not z and y == z
    assert all(a is b for a, b in zip(y.blocks, z.blocks))


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


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_form_to_column_and_column_forms_round_trip(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, n))
    a = data.draw(homogeneous_forms(n, k))
    col = form_to_column(a, k)
    assert col.shape == (basis_dim(n, k), 1)
    assert column_forms(n, k, col) == [a]
    forms = data.draw(st.lists(homogeneous_forms(n, k), max_size=3))
    m = Matrix.zero(basis_dim(n, k), 0)
    for f in forms:
        m = m.hstack(form_to_column(f, k))
    assert column_forms(n, k, m) == forms


def test_form_to_column_and_column_forms_reject_wrong_degrees_and_shapes():
    with pytest.raises(ValueError, match="outside degree 1"):
        form_to_column(t(3, 1, 2), 1)
    with pytest.raises(ValueError, match="outside degree 1"):
        form_to_column(t(3, 1) + t(3, 2, 3), 1)
    with pytest.raises(ValueError, match="wrong row count"):
        column_forms(3, 1, Matrix.zero(2, 1))
    with pytest.raises(ValueError, match="wrong row count"):
        column_forms(4, 2, form_to_column(t(4, 1), 1))


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
