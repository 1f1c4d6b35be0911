"""Scalar arithmetic against a reference on plain (Fraction, Fraction) pairs.

A Scalar keeps each part canonical: an int when integral, otherwise a
reduced Fraction with denominator > 1, and a zero imaginary part is the
one shared sentinel.  The reference below knows nothing of that storage.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieforms.scalars import HALF, I, ONE, ZERO, Scalar, parse_scalar

small = st.integers(min_value=-6, max_value=6)
large = st.integers(min_value=-2**90, max_value=2**90)
parts = st.one_of(
    st.just(Fraction(0)),
    small.map(Fraction),
    large.map(Fraction),
    st.fractions(max_denominator=12),
    st.builds(Fraction, large, st.integers(min_value=1, max_value=2**70)),
)
pairs = st.tuples(parts, st.one_of(st.just(Fraction(0)), parts))


def scalar(x) -> Scalar:
    return Scalar(x[0], x[1])


def assert_canonical(s: Scalar):
    for part in (s.re, s.im):
        assert type(part) is int or (type(part) is Fraction and part.denominator > 1)
    if s.im == 0:
        assert s.im is ZERO.im


def assert_is(s: Scalar, ref):
    assert_canonical(s)
    assert (s.re, s.im) == ref


def ref_str(x) -> str:
    def part(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if x[1] == 0:
        return part(x[0])
    return f"{part(x[0])}{'+' if x[1] > 0 else '-'}{part(abs(x[1]))}i"


@given(pairs, pairs)
def test_ring_operations_match_the_reference(x, y):
    a, b = scalar(x), scalar(y)
    assert_is(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_is(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_is(a * b, (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]))
    assert_is(-a, (-x[0], -x[1]))
    assert_is(a.conj(), (x[0], -x[1]))


@given(pairs, pairs)
def test_division_matches_the_reference(x, y):
    a, b = scalar(x), scalar(y)
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    assert_is(a / b, ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n))


@given(pairs, pairs)
def test_equality_hash_and_truth_match_the_reference(x, y):
    a, b = scalar(x), scalar(y)
    assert (a == b) == (x == y)
    assert a == scalar(x) and hash(a) == hash(scalar(x))
    # the hash of the Fraction pair: integral parts hash as their Fractions
    assert hash(a) == hash(x)
    assert bool(a) == (x != (0, 0)) == (not a.is_zero())


@given(pairs)
def test_text_and_json_match_the_reference_and_parse_back(x):
    a = scalar(x)
    assert str(a) == ref_str(x)
    back = parse_scalar(str(a))
    assert back == a
    assert_canonical(back)


@given(small, small)
def test_integral_arithmetic_stays_int(m, n):
    a, b = Scalar(m), Scalar(n)
    for s in (a + b, a - b, a * b, -a, a * I * I):
        assert type(s.re) is int and s.im is ZERO.im
    if n and m % n == 0:
        assert type((a / b).re) is int


def test_constants_and_construction_are_canonical():
    for s in (ZERO, ONE, I, HALF, Scalar(Fraction(4, 2)), Scalar(Fraction(0), Fraction(-3, 1)),
              Scalar.of(7), Scalar(3, Fraction(0)), HALF + HALF, HALF * Scalar(2)):
        assert_canonical(s)
    assert (HALF + HALF).re == 1 and type((HALF + HALF).re) is int
    assert Scalar.of(ONE) is ONE


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Scalar(0.5), id="float-re"),
    pytest.param(lambda: Scalar(1, 0.5), id="float-im"),
    pytest.param(lambda: Scalar(2.0), id="integral-float"),
    pytest.param(lambda: Scalar.of(0.1), id="of-float"),
    pytest.param(lambda: Scalar(True), id="bool-re"),
    pytest.param(lambda: Scalar(1, False), id="bool-im"),
    pytest.param(lambda: Scalar.of(True), id="of-bool"),
    pytest.param(lambda: Scalar("1/2"), id="str"),
])
def test_floats_and_bools_are_rejected(make):
    with pytest.raises(TypeError):
        make()
