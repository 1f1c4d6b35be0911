from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations

from lieforms.forms import form_text, monomial_basis, star
from lieforms.scalars import ONE, Scalar, parse_scalar

from form_reference import (
    FormElement,
    contract,
    hodge_star,
    inner_product,
    star_on_subset,
    wedge,
)


def t(n, *ix):
    return FormElement.monomial(n, ix)


def test_wedge_ordered_product():
    assert wedge(t(3, 1), t(3, 2)) == t(3, 1, 2)


def test_wedge_koszul_sign():
    assert wedge(t(3, 2), t(3, 1)) == t(3, 1, 2).scale(Scalar.of(-1))


def test_wedge_repeated_generator_annihilates():
    assert wedge(t(3, 1), t(3, 1, 2)).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(t(3, 1), t(4, 2))


def test_contract_examples():
    assert contract(1, t(3, 1, 2)) == t(3, 2)
    assert contract(3, t(3, 1, 2)).is_zero()
    assert contract(2, t(3, 1, 2)) == t(3, 1).scale(Scalar.of(-1))


def test_contract_out_of_range():
    with pytest.raises(IndexError):
        contract(4, t(3, 1))


def test_star_examples():
    assert hodge_star(FormElement.unit(3)) == t(3, 1, 2, 3)
    assert hodge_star(t(3, 1)) == t(3, 2, 3)
    assert hodge_star(hodge_star(t(3, 1))) == t(3, 1)


def test_inner_product_examples():
    assert inner_product(t(3, 1), t(3, 1)) == ONE
    assert inner_product(t(3, 1), t(3, 2)).is_zero()
    assert inner_product(t(3, 1, 2), t(3, 1, 2)) == ONE


def test_scalar_parsing_round_trip():
    for s in (Scalar(Fraction(3, 4)), Scalar(Fraction(-2), Fraction(1, 3)),
              Scalar(Fraction(0), Fraction(-5, 7))):
        assert parse_scalar(str(s)) == s


rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=7),
)
gaussians = st.builds(Scalar, rationals, rationals)


def forms(n, max_terms=4, coeffs=gaussians):
    monos = st.sampled_from([m for k in range(n + 1) for m in monomial_basis(n, k)])
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda d: FormElement(n, d))


@settings(deadline=None, max_examples=60)
@given(forms(4), forms(4))
def test_wedge_graded_commutativity(a, b):
    for p in a.degrees() or {0}:
        for q in b.degrees() or {0}:
            ah, bh = a.homogeneous_part(p), b.homogeneous_part(q)
            lhs = wedge(ah, bh)
            rhs = wedge(bh, ah)
            if (p * q) % 2:
                rhs = rhs.scale(Scalar.of(-1))
            assert lhs == rhs


@settings(deadline=None, max_examples=60)
@given(forms(4), st.integers(min_value=1, max_value=4))
def test_contraction_squares_to_zero(a, v):
    assert contract(v, contract(v, a)).is_zero()


@settings(deadline=None, max_examples=60)
@given(forms(4), st.integers(min_value=0, max_value=4))
def test_double_star_sign(a, k):
    ah = a.homogeneous_part(k)
    twice = hodge_star(hodge_star(ah))
    expect = ah if (k * (4 - k)) % 2 == 0 else ah.scale(Scalar.of(-1))
    assert twice == expect


@settings(deadline=None, max_examples=60)
@given(forms(3), forms(3), st.integers(min_value=0, max_value=3))
def test_star_isometry(a, b, k):
    ah, bh = a.homogeneous_part(k), b.homogeneous_part(k)
    assert inner_product(ah, bh) == inner_product(hodge_star(ah), hodge_star(bh))


@settings(deadline=None, max_examples=60)
@given(forms(4), forms(4), st.integers(min_value=1, max_value=4))
def test_wedge_contraction_adjoint(a, b, v):
    # unit-covector multiplication and contraction are mutually adjoint:
    # <theta^v ^ a, b> = <a, i_v b>
    lhs = inner_product(wedge(FormElement.generator(4, v), a), b)
    rhs = inner_product(a, contract(v, b))
    assert lhs == rhs


def test_star_on_subset_matches_full_star_in_top_slot():
    # with the vertical generator last, *(gamma) = *_sub(gamma) ^ theta^3
    for m in monomial_basis(2, 1):
        gamma = FormElement.monomial(3, m)
        lhs = hodge_star(gamma)
        rhs = wedge(star_on_subset(gamma, (1, 2)), t(3, 3))
        assert lhs == rhs


def test_homogeneous_parts_and_degrees():
    a = t(3, 1) + t(3, 1, 2)
    assert a.degrees() == {1, 2}
    assert a.homogeneous_part(1) == t(3, 1)
    with pytest.raises(ValueError):
        a.degree()


def test_star_matches_the_reference():
    # the engine's monomial star over the coframe and over a coframe subset
    # against the reference Hodge stars of FormElements
    for n in range(1, 6):
        frame = tuple(range(1, n + 1))
        for k in range(n + 1):
            for m in monomial_basis(n, k):
                comp, sign = star(frame, m)
                assert hodge_star(t(n, *m)) == t(n, *comp).scale(Scalar.of(sign))
        for size in range(n + 1):
            for sub in combinations(frame, size):
                for k in range(size + 1):
                    for m in combinations(sub, k):
                        comp, sign = star(sub, m)
                        assert star_on_subset(t(n, *m), sub) == t(n, *comp).scale(Scalar.of(sign))


@st.composite
def columns(draw):
    """A sparse coordinate column of degree k on n <= 5 generators: empty,
    one unit entry, or Gaussian entries."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    size = len(monomial_basis(n, k))
    kind = draw(st.sampled_from(["zero", "unit", "gaussian"]))
    if kind == "zero":
        return n, k, {}
    if kind == "unit":
        return n, k, {draw(st.integers(0, size - 1)): ONE}
    nonzero = gaussians.filter(bool)
    return n, k, draw(st.dictionaries(st.integers(0, size - 1), nonzero, max_size=size))


@settings(deadline=None, max_examples=100)
@given(columns())
def test_form_text_matches_the_reference(case):
    n, k, column = case
    basis = monomial_basis(n, k)
    reference = FormElement(n, {basis[i]: c for i, c in column.items()})
    assert form_text(n, k, column) == str(reference)


def test_form_text_examples():
    assert form_text(3, 2, {}) == "0"
    assert form_text(3, 0, {0: ONE}) == "(1)*1"
    assert form_text(3, 2, {2: Scalar(1, -2), 0: Scalar(Fraction(-1, 2))}) == \
        "(-1/2)*t1^t2 + (1-2i)*t2^t3"
