"""The normal-ordered Clifford polynomials against the block operators.

The references build each operator as blocks with the block arithmetic of
`block_reference.py` alone: a monomial e_W i_C is the product of the
letter matrices of `form_reference.wedge` and `form_reference.contract`
in its written order, and the pool's guard generators are rebuilt the
way the matrix engine built them (d, L, W, I through FormElement wedges, adjoints and
supercommutators of blocks, d1 cut out by the bidegree projectors).
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from lieforms.clifford import Clifford
from lieforms.forms import monomial_basis
from lieforms.models import BUILTIN_NAMES
from lieforms.clifford import supercommutator
from lieforms.scalars import Scalar
from lieforms.splitting import guard_names, operator_pool

import block_reference as ref
from block_reference import ODD, Blocks, from_action, reference_operators
from conftest import load
from form_reference import FormElement, contract, derivation, multiplication, wedge

@functools.lru_cache(maxsize=None)
def letter(ngen: int, k: int, create: bool) -> Blocks:
    gen = FormElement.generator(ngen, k)
    if create:
        return from_action(ngen, 1, ODD, lambda x: wedge(gen, x))
    return from_action(ngen, -1, ODD, lambda x: contract(k, x))


def bits(mask):
    return [k + 1 for k in range(mask.bit_length()) if mask >> k & 1]


def reference_blocks(p: Clifford) -> Blocks:
    """sum c e_{w1} ... e_{wp} i_{cq} ... i_{c1}, as block products."""
    n = p.ngen
    out = Blocks.zero(n, p.shift, p.parity)
    for (w, c), v in p.terms.items():
        mono = ref.compose(ref.identity(n), *(letter(n, k, True) for k in bits(w)),
                           *(letter(n, k, False) for k in reversed(bits(c))))
        out = ref.add(out, ref.scale(Blocks(n, p.shift, p.parity, mono.blocks), v))
    return out


gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def polynomials(draw, ngen, shift):
    """A polynomial of up to four terms of the given shift."""
    full = range(1 << ngen)
    keys = [(w, c) for w in full for c in full if w.bit_count() - c.bit_count() == shift]
    if not keys:
        return Clifford.zero(ngen, shift)
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return Clifford(ngen, shift, {key: draw(gaussian) for key in chosen})


@st.composite
def pairs(draw):
    """Two polynomials on ngen <= 5 generators, of shifts in -2..2."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(-2, 2))
    t = draw(st.sampled_from([s, draw(st.integers(-2, 2))]))
    return draw(polynomials(n, s)), draw(polynomials(n, t))


@settings(deadline=None, max_examples=60)
@given(pairs())
def test_polynomial_algebra_matches_blocks(pq):
    p, q = pq
    a, b = reference_blocks(p), reference_blocks(q)
    assert ref.blocks(p) == a
    # each block is written once and kept on the polynomial
    assert all(p.block(k) is x for k, x in enumerate(ref.blocks(p).blocks))
    assert ref.blocks(p @ q) == ref.compose(a, b)
    assert ref.blocks(p.adjoint()) == ref.adjoint(a)
    assert ref.blocks(supercommutator(p, q)) == ref.supercommutator(a, b)
    assert ref.blocks(-p) == ref.scale(a, Scalar(-1))
    assert ref.blocks(p.scale(Scalar(2, 1))) == ref.scale(a, Scalar(2, 1))
    # the normal-ordered terms are a basis, so equal dicts are equal operators
    assert (p == q) == (a == b)
    assert p.first_difference(q) == ref.first_difference(a, b)
    if p.shift == q.shift:
        assert ref.blocks(p + q) == ref.add(a, b)
        assert ref.blocks(p - q) == ref.add(a, ref.scale(b, Scalar(-1)))
    else:
        with pytest.raises(ValueError):
            p + q


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_apply_matches_blocks(data):
    n = data.draw(st.integers(1, 5))
    p = data.draw(polynomials(n, data.draw(st.integers(-2, 2))))
    k = data.draw(st.integers(0, n))
    basis = monomial_basis(n, k)
    a = FormElement(n, dict(zip(basis, data.draw(st.lists(gaussian, min_size=len(basis),
                                                           max_size=len(basis))))))
    # a form a is its multiplication e_a, so p(a) = (p e_a)(1) is the column
    # of p @ e_a's block from degree 0; the reference applies p's letter
    # products to the FormElement a
    j = k + p.shift
    target = monomial_basis(n, j) if 0 <= j <= n else []
    column, = (p @ multiplication(a, k)).block(0).columns()
    assert (FormElement(n, {target[i]: c for i, c in column.items()})
            == ref.apply(reference_blocks(p), a))


def test_first_order_criterion():
    n = 3
    d = derivation(n, 1, {3: FormElement.monomial(n, (1, 2))})
    assert d.first_order() and d.adjoint().first_order() is False
    # e_1 + e_1 e_2 i_2: a multiplication plus a derivation
    assert Clifford(n, 1, {(1, 0): Scalar(1), (3, 2): Scalar(1)}).first_order()
    assert not Clifford(n, 0, {(3, 3): Scalar(1)}).first_order()


def test_terms_must_fit_the_shift():
    with pytest.raises(ValueError, match="does not fit shift 1"):
        Clifford(3, 1, {(3, 0): Scalar(1)})
    with pytest.raises(ValueError, match="on 2 generators"):
        Clifford(2, 1, {(4, 0): Scalar(1)})
    assert Clifford(3, 1, {(1, 0): Scalar(0)}).is_zero()


# -- the pool against the matrix engine ---------------------------------------

REFERENCE_MODELS = [*BUILTIN_NAMES, "su2_aff", "h5xr", "h7"]


@functools.lru_cache(maxsize=None)
def reference_ops(name: str) -> dict[str, Blocks]:
    return reference_operators(*load(name))


def matrix_generators(model, pack, ops) -> dict[str, Blocks]:
    """The guard generators as the matrix engine built them, from d, L, W
    and I built through FormElement wedges (`block_reference.py`)."""
    n = model.dim
    d, L, W = ops["d"], ops["L"], ops["W"]
    lam = ref.adjoint(L)
    out = {"L": L, "Lam": lam, "H": ref.supercommutator(L, lam), "W": W,
           "Id": ref.identity(n)}
    if pack.kind == "kahler":
        dc = ref.supercommutator(W, d)
        return {**out, "d": d, "d*": ref.adjoint(d), "dc": dc, "dc*": ref.adjoint(dc)}
    r = pack.reeb_index
    d1 = ref.d1_reference(d, (r,))
    d1c = ref.compose(ops["I_aut"], d1, ops["I_inv"])
    return {**out, "d1": d1, "d1*": ref.adjoint(d1), "d1c": d1c, "d1c*": ref.adjoint(d1c),
            "e_r": letter(n, r, True), "i_r": letter(n, r, False)}



@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_pool_generators_and_brackets_equal_the_matrix_engine(name):
    model, pack = load(name)
    pool = operator_pool(model, pack)
    reference = matrix_generators(model, pack, reference_ops(name))
    names = guard_names(pack)
    assert set(reference) == set(names)
    for x in names:
        assert ref.blocks(pool.poly(x)) == reference[x], x
    for a in names:
        for b in names:
            assert (ref.blocks(pool.poly((a, b)))
                    == ref.supercommutator(reference[a], reference[b])), (a, b)
