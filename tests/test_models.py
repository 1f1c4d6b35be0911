from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lieforms.cohomology import basic_subcomplex, transversal_package
from lieforms.clifford import Clifford, supercommutator
from lieforms.models import (
    AntisymmetryError,
    BUILTIN_NAMES,
    JacobiError,
    LieModel,
    ModelError,
    ModelSyntaxError,
    StructureError,
    builtin,
    builtin_file_text,
    ce_differential,
    load_model_file,
    parse_model,
    structure_operators,
)
from lieforms.scalars import I, ONE, Scalar, ZERO
from lieforms.splitting import (
    OperatorPool,
    foliation_split,
    hodge_split_d1,
    operator_pool,
    reeb_foliation,
)

import block_reference as ref
from block_reference import bidegree_projectors, reference_operators
from conftest import DATA, child_env, load, model_pack, ops_for, pool_for, record
from form_reference import FormElement, multiplication, wedge
from pq_reference import reference_hodge, reference_i, reference_pq_stable, reference_projectors

def t(n, *ix):
    return FormElement.monomial(n, ix)


def test_builtin_list_is_complete():
    assert BUILTIN_NAMES == ("torus2", "torus4", "su2", "h3", "h5", "su2xr", "h3xr")


def test_packs_validate_on_construction():
    # OperatorPool, not the cached operator_pool, so the rules run here
    for name in BUILTIN_NAMES:
        OperatorPool(*parse_model(builtin_file_text(name), name))  # must not raise


def test_ce_differential_examples():
    # a form a is its multiplication e_a, and {d, e_a} = e_{da}
    model, _ = model_pack("h3")
    d = ce_differential(model)
    assert supercommutator(d, Clifford.wedge(3, 3)) == multiplication(t(3, 1, 2), 2)
    assert supercommutator(d, Clifford.wedge(3, 1)).is_zero()
    torus, _ = model_pack("torus4")
    assert ce_differential(torus).is_zero()
    su2, _ = model_pack("su2")
    dsu2 = ce_differential(su2)
    assert (dsu2 @ dsu2).is_zero()


def test_polynomial_d_squared_is_checked_apart_from_jacobi(monkeypatch):
    # with the Jacobi check silenced, the cyclic constants of
    # test_jacobi_defect_detection are still refused, by d @ d != 0 on the
    # Clifford polynomial
    monkeypatch.setattr(LieModel, "jacobi_defect", lambda self: None)
    bad = LieModel("d-squared", 3, ((1, 2, 1, ONE), (2, 3, 2, ONE), (1, 3, 3, -ONE)))
    with pytest.raises(JacobiError, match="d\\^2 != 0 despite Jacobi holding") as err:
        ce_differential(bad)
    assert err.value.triple is None
    good = LieModel("d-squared", 3, ((1, 2, 3, -ONE),))
    assert (ce_differential(good) @ ce_differential(good)).is_zero()


def test_su2_bracket_normalization():
    model, pack = model_pack("su2")
    assert model.bracket(1, 2) == {3: -ONE}
    assert model.bracket(2, 3) == {1: -ONE}
    assert model.bracket(3, 1) == {2: -ONE}
    # eta = theta^3 and omega0 = d eta = theta^1 ^ theta^2, as multiplications
    poly = pool_for("su2").poly
    assert poly("e_r") == Clifford.wedge(3, 3)
    assert poly(("d", "e_r")) == poly("L") == multiplication(t(3, 1, 2), 2)


def test_h3xr_vaisman_equation():
    # d(I theta) = omega - theta ^ (I theta), with I theta = eta, on the
    # pool's multiplications and against the reference d applied to eta
    model, pack = model_pack("h3xr")
    poly = pool_for("h3xr").poly
    assert poly("d(I theta)") == poly("omega - theta^(I theta)")
    d_eta = ref.apply(reference_operators(model, pack)["d"], t(4, pack.reeb_index))
    assert multiplication(d_eta, 2) == poly("d(I theta)")


def test_jacobi_defect_detection():
    # [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3: the cyclic sum is e1+e2+e3
    bad = LieModel("bad", 3, (
        (1, 2, 1, ONE), (2, 3, 2, ONE), (1, 3, 3, -ONE),
    ))
    defect = bad.jacobi_defect()
    assert defect is not None
    with pytest.raises(JacobiError) as err:
        ce_differential(bad)
    assert err.value.triple is not None


def reference_jacobi_defect(dim, brackets):
    """The first (i,j,k,l) with a nonzero Jacobi sum, or None, by brute
    force over every m and l on a plain dict of Fraction constants."""
    c = {}
    for i, j, k, v in brackets:
        c[i, j, k], c[j, i, k] = Fraction(v), -Fraction(v)
    rng = range(1, dim + 1)
    for i, j, k in combinations(rng, 3):
        for l in rng:
            acc = sum(c.get((j, k, m), 0) * c.get((i, m, l), 0)
                      + c.get((k, i, m), 0) * c.get((j, m, l), 0)
                      + c.get((i, j, m), 0) * c.get((k, m, l), 0) for m in rng)
            if acc:
                return (i, j, k, l)
    return None


@st.composite
def planted_brackets(draw):
    """Small-integer constants: a Lie algebra (the Heisenberg, su(2) or
    zero bracket) with up to three planted entries that mostly break it."""
    base = draw(st.sampled_from([
        (5, [(1, 2, 5, -1), (3, 4, 5, -1)]),
        (3, [(1, 2, 3, -1), (2, 3, 1, -1), (1, 3, 2, 1)]),
        (4, []),
    ]))
    dim, entries = base
    table = {(i, j, k): v for i, j, k, v in entries}
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted(draw(st.lists(st.integers(1, dim), min_size=2, max_size=2, unique=True)))
        k = draw(st.integers(1, dim))
        value = draw(st.integers(-2, 2))
        if value:
            table[i, j, k] = value
        else:
            table.pop((i, j, k), None)
    return dim, [(i, j, k, v) for (i, j, k), v in table.items()]


@settings(deadline=None, max_examples=150)
@given(planted_brackets())
def test_jacobi_defect_matches_brute_force(case):
    dim, brackets = case
    model = LieModel("planted", dim, tuple((i, j, k, Scalar.of(v)) for i, j, k, v in brackets))
    assert model.jacobi_defect() == reference_jacobi_defect(dim, brackets)
    stored = {(i, j, k): Fraction(v) for i, j, k, v in brackets}
    for i, j, k in product(range(1, dim + 1), repeat=3):
        expected = stored.get((i, j, k), 0) - stored.get((j, i, k), 0)
        assert model.bracket(i, j).get(k, ZERO) == Scalar(expected)


def test_jacobi_defect_finds_a_planted_failure():
    # h5 passes; planting [e3,e5] = e3 breaks Jacobi first on the triple
    # (1,2,3), where [e3,[e1,e2]] = -e3, as the brute-force reference says
    h5 = [(1, 2, 5, -1), (3, 4, 5, -1)]
    assert reference_jacobi_defect(5, h5) is None
    assert LieModel("h5", 5, tuple((i, j, k, Scalar.of(v)) for i, j, k, v in h5)).jacobi_defect() is None
    planted = h5 + [(3, 5, 3, 1)]
    model = LieModel("planted", 5, tuple((i, j, k, Scalar.of(v)) for i, j, k, v in planted))
    assert model.jacobi_defect() == reference_jacobi_defect(5, planted) == (1, 2, 3, 3)


def test_structure_operator_examples():
    for name in ("su2", "h3", "h5"):
        # i_r eta = 1: {i_r, e_r} = e_{i_r eta} is the identity
        pool = pool_for(name)
        assert supercommutator(pool.poly("i_r"), pool.poly("e_r")) == pool.poly("Id")
    ops = ops_for("h3")
    w10 = t(3, 1) - t(3, 2).scale(I)
    # W and Lie_r are even derivations, so [D, e_a] = e_{Da}
    e_w10 = multiplication(w10, 1)
    assert supercommutator(ops.W, e_w10) == e_w10.scale(I)
    # I e_w I^-1 = e_{I w}, and I w = i w on the (1,0)-form w, with I the
    # Lagrange reference's; on the letters it is {W, .}
    model, pack = model_pack("h3")
    i_aut, i_inv = reference_i(reference_projectors(model, pack))
    assert ref.compose(i_aut, ref.blocks(e_w10), i_inv) == ref.blocks(e_w10.scale(I))
    assert_w_conjugates_by(ops.W, pack.vertical_indices, i_aut, i_inv)
    su2 = pool_for("su2")
    assert supercommutator(su2.poly("Lie_r"), Clifford.wedge(3, 1)) == -Clifford.wedge(3, 2)
    assert pool_for("h3").poly("Lie_r").is_zero()


def test_lie_r_skew_adjoint_and_central():
    for name in ("su2", "h3", "h5", "su2xr", "h3xr"):
        model, pack = model_pack(name)
        pool = pool_for(name)
        lie_r = pool.poly("Lie_r")
        assert lie_r.adjoint() == -lie_r
        polys = [pool.poly(x) for x in ("L", "Lam", "H", "W", "e_r", "i_r")]
        if pack.kind == "vaisman":
            polys += [pool.poly(x) for x in ("e_th", "i_th", "Lie_th")]
        for op in polys:
            assert supercommutator(lie_r, op).is_zero()
        blocks = list(reference_projectors(model, pack).values())
        blocks += list(bidegree_projectors(model.dim, pack.vertical_indices).values())
        for op in blocks:
            assert ref.is_zero(ref.supercommutator(ref.blocks(lie_r), op))


def test_vaisman_lie_theta_vanishes():
    for name in ("su2xr", "h3xr"):
        assert pool_for(name).poly("Lie_th").is_zero()


def test_bigrading_projectors_resolve_identity():
    # on the Lagrange reference (tests/pq_reference.py)
    for name in BUILTIN_NAMES:
        model, pack = model_pack(name)
        pi = reference_projectors(model, pack)
        n = model.dim
        for p in pi.values():
            assert ref.compose(p, p) == p  # idempotent
        assert ref.add(*pi.values()) == ref.identity(n)
        for k1, p1 in pi.items():
            for k2, p2 in pi.items():
                if k1 != k2:
                    assert ref.is_zero(ref.compose(p1, p2))


REFERENCE_MODELS = [*BUILTIN_NAMES, "su2_aff", "h5xr", "h7"]


def assert_w_conjugates_by(W, vertical, I_aut, I_inv):
    """{W, p} is I p I^-1 on every transversal letter p = e_k, i_k, and W and
    I fix the vertical ones.  I is an algebra automorphism and W a
    derivation, so each is determined by its values on the letters."""
    n = W.ngen
    for k in range(1, n + 1):
        for p in (Clifford.wedge(n, k), Clifford.contraction(n, k)):
            conjugate = ref.compose(I_aut, ref.blocks(p), I_inv)
            if k in vertical:
                assert supercommutator(W, p).is_zero() and conjugate == ref.blocks(p), k
            else:
                assert ref.blocks(supercommutator(W, p)) == conjugate, k


@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_closed_forms_match_the_lagrange_reference(name):
    # {W, .} as conjugation by I on the transversal letters, the Hodge
    # components (d1 -+ i d1c)/2 with d1c = {W, d1} certified by
    # {W, {W, d1}} = -d1, and (p,q)-stability decided through W and the
    # bidegree projectors agree with the spectral projectors of W
    model, pack = load(name)
    ops = structure_operators(model, pack)
    pi = reference_projectors(model, pack)
    assert_w_conjugates_by(ops.W, pack.vertical_indices, *reference_i(pi))
    if pack.kind == "kahler":
        return
    pool = operator_pool(model, pack)
    d1 = ref.blocks(pool.poly("d1"))
    d1_10, d1_01 = reference_hodge(pi, d1)
    assert ref.add(d1_10, d1_01) == d1  # the reference's own bidegree check
    split = foliation_split(ops.d, model, reeb_foliation(pack))
    assert tuple(ref.blocks(p) for p in hodge_split_d1(ops, split)[:2]) == (d1_10, d1_01)
    # the pool's polynomials, certified by {W, {W, d1}} = -d1
    assert (ref.blocks(pool.poly("d1^{1,0}")), ref.blocks(pool.poly("d1^{0,1}"))) == (d1_10, d1_01)
    stable = reference_pq_stable(pi, basic_subcomplex(model, pack, pack.vertical_indices))
    entry = record(transversal_package(model, pack), "transversal.pq_stability")
    assert entry.verdict == ("pass" if stable else "fail")


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *(p.stem for p in sorted(DATA.glob("*.alg")))])
def test_structure_operators_match_the_block_reference(name):
    # d, L and W are Clifford polynomials, and {W, .} is conjugation by I on
    # the transversal letters; the reference builds d, L, W and I through
    # FormElement wedges (tests/block_reference.py)
    model, pack = load(name)
    ops = structure_operators(model, pack)
    reference = reference_operators(model, pack)
    for key in ("d", "L", "W"):
        assert ref.blocks(getattr(ops, key)) == reference[key], key
    assert_w_conjugates_by(ops.W, pack.vertical_indices, reference["I_aut"], reference["I_inv"])
    assert operator_pool(model, pack).poly("d") is ops.d is ce_differential(model)


@pytest.mark.parametrize("name", ["h5xr", "h9", "h21"])
def test_loading_builds_no_block(monkeypatch, tmp_path, name):
    # loading and structure_operators build no matrix at all: d, L and W stay
    # polynomials until a matrix consumer asks for their blocks; the split and
    # the Hodge components of the probes are those of the pool
    import lieforms.matrices

    def no_matrix(*_):
        raise AssertionError("a matrix was built")

    if name == "h21":
        path = tmp_path / "h21.alg"
        path.write_text(heisenberg_text(10))
    else:
        path = DATA / f"{name}.alg"
    monkeypatch.setattr(lieforms.matrices, "_make", no_matrix)
    model, pack = load_model_file(str(path))
    structure_operators.cache_clear()
    ops = structure_operators(model, pack)
    split = foliation_split(ops.d, model, reeb_foliation(pack))
    pool = operator_pool(model, pack)
    # the probes split along the Reeb field and the pool along every
    # vertical field; h5xr's Lee field is in no letter of d, so they agree
    parts = [pool.poly(f"d{i}") for i in range(len(pack.vertical_indices) + 2)]
    assert list(split) == parts[:3] and all(p.is_zero() for p in parts[3:])
    hodge = tuple(pool.poly(x) for x in ("d1^{1,0}", "d1^{0,1}", "d1c"))
    assert hodge_split_d1(ops, split) == hodge


# -- model file parsing -------------------------------------------------


def test_builtin_names_match_shipped_files():
    # each builtin is parsed from its shipped .alg file, and every file is a builtin
    from importlib import resources

    shipped = {f.name[:-len(".alg")] for f in resources.files("lieforms.data").iterdir()
               if f.name.endswith(".alg")}
    assert shipped == set(BUILTIN_NAMES)


def test_parse_syntax_error_cites_line():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("[algebra]\ndim = 3\n[brackets]\nnot a bracket\n")
    assert err.value.line_no == 4


@pytest.mark.parametrize("builtin_name, extra, key", [
    ("h3", "[algebra]\ndim = 2", "dim"),  # a second [algebra] after the brackets
    ("h3", "kind = kahler", "kind"),
    ("h3", "reeb = 1", "reeb"),
    ("h3xr", "lee = 2", "lee"),
], ids=["dim", "kind", "reeb", "lee"])
def test_parse_repeated_key_with_another_value_names_both_lines(tmp_path, capsys, builtin_name,
                                                                extra, key):
    from lieforms.cli import RunConfig, run

    lines = builtin_file_text(builtin_name).splitlines()
    first = next(i for i, x in enumerate(lines, 1) if x.startswith(f"{key} = "))
    text = "\n".join(lines + [extra]) + "\n"
    line = len(text.splitlines())
    message = f"line {line}: {extra.splitlines()[-1]} contradicts line {first} ({lines[first - 1]})"
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert (err.value.line_no, str(err.value)) == (line, message)
    path = tmp_path / "repeated.alg"
    path.write_text(text)
    assert run(RunConfig(command="check", model=str(path))) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # the same value again is no contradiction
    same = extra.replace(extra.splitlines()[-1], lines[first - 1])
    assert parse_model("\n".join(lines + [same]) + "\n", builtin_name) == builtin(builtin_name)


def test_parse_antisymmetry_error():
    text = ("[algebra]\ndim = 3\n[brackets]\n"
            "1 2 -> 3 : -1\n2 1 -> 3 : -1\n[structure]\nkind = sasakian\nreeb = 3\n")
    with pytest.raises(AntisymmetryError):
        parse_model(text)


def test_parse_jacobi_error():
    text = ("[algebra]\ndim = 3\n[brackets]\n"
            "1 2 -> 1 : 1\n2 3 -> 2 : 1\n1 3 -> 3 : -1\n"
            "[structure]\nkind = sasakian\nreeb = 3\n")
    with pytest.raises(JacobiError):
        parse_model(text)


def test_parse_deta_mismatch_error():
    # dividing the bracket by 2 breaks d(eta) = omega0 for the unit coframe,
    # decided as {d, e_r} = L; a Kahler form with {d, L} != 0 is not closed
    cases = [
        ("[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : -1/2\n"
         "[structure]\nkind = sasakian\nreeb = 3\nJ: 1 -> 2\n",
         "deta: d(eta) = (1/2)*t1^t2 incompatible with J pairs ((1, 2),)"),
        ("[algebra]\ndim = 4\n[brackets]\n1 2 -> 4 : -1\n1 3 -> 4 : 1\n"
         "[structure]\nkind = kahler\n",
         "deta: fundamental form is not closed"),
    ]
    for text, message in cases:
        with pytest.raises(StructureError) as err:
            operator_pool(*parse_model(text))
        assert err.value.check == "deta" and str(err.value) == message


def test_parse_j_pair_error():
    # overlapping pairs, and pairs that leave horizontal generators 3 and 4
    # uncovered although d(eta) = theta^1 ^ theta^2 matches them
    cases = [
        ("[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : -1\n"
         "[structure]\nkind = sasakian\nreeb = 3\nJ: 1 -> 2\nJ: 2 -> 1\n",
         "J: J pairs overlap: ((1, 2), (2, 1))"),
        ("[algebra]\ndim = 5\n[brackets]\n1 2 -> 5 : -1\n"
         "[structure]\nkind = sasakian\nreeb = 5\nJ: 1 -> 2\n",
         "J: J pairs must cover the horizontal coframe"),
    ]
    for text, message in cases:
        with pytest.raises(StructureError) as err:
            operator_pool(*parse_model(text))
        assert err.value.check == "J" and str(err.value) == message


def test_parse_vaisman_equation_failure():
    # lee direction with a nonclosed dual form cannot satisfy the equations
    text = ("[algebra]\ndim = 4\n[brackets]\n2 3 -> 4 : -1\n"
            "[structure]\nkind = vaisman\nreeb = 4\nlee = 2\nJ: 3 -> 1\n")
    with pytest.raises(StructureError):
        operator_pool(*parse_model(text))
    # d(eta) = omega0 holds, but {d, e_th} != 0: d theta = theta^2 ^ theta^3
    text = ("[algebra]\ndim = 4\n[brackets]\n2 3 -> 4 : -1\n2 3 -> 1 : -1\n"
            "[structure]\nkind = vaisman\nreeb = 4\nlee = 1\n")
    with pytest.raises(StructureError) as err:
        operator_pool(*parse_model(text))
    assert err.value.check == "vaisman" and str(err.value) == "vaisman: lee form is not closed"


def test_parse_vaisman_synthesizes_omega():
    # omega is never declared in the format; the pool builds it from the J
    # pairs with J theta = eta, and it is omega0 + theta ^ eta with omega0 = d eta
    model, pack = parse_model(builtin_file_text("su2xr"), name="su2xr")
    poly = operator_pool(model, pack).poly
    omega = t(4, 2, 3) + wedge(t(4, pack.lee_index), t(4, pack.reeb_index))
    assert poly("omega") == multiplication(omega, 2) == poly("omega0 + theta^eta")


def test_unknown_builtin_message():
    with pytest.raises(ModelError):
        builtin("nosuch")


def test_parse_missing_sections():
    with pytest.raises(ModelSyntaxError):
        parse_model("[brackets]\n1 2 -> 3 : -1\n")
    with pytest.raises(ModelSyntaxError):
        parse_model("[algebra]\ndim = 3\n")  # no [structure] kind
    with pytest.raises(ModelSyntaxError):
        parse_model("[algebra]\ndim = 3\n[structure]\nkind = sasakian\n")  # no reeb


def test_default_j_pairs_synthesized():
    text = ("[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : -1\n"
            "[structure]\nkind = sasakian\nreeb = 3\n")
    _, pack = parse_model(text)
    assert pack.j_pairs == ((1, 2),)


# -- value semantics ------------------------------------------------------


def test_two_loads_give_equal_models_and_packs():
    # models and packs key the operator caches, so a second load of one file
    # reaches the operators the first load built
    path = str(DATA / "h5xr.alg")
    (m1, p1), (m2, p2) = load_model_file(path), load_model_file(path)
    assert m1 is not m2 and p1 is not p2
    assert m1 == m2 and hash(m1) == hash(m2)
    assert p1 == p2 and hash(p1) == hash(p2)
    assert structure_operators(m1, p1) is structure_operators(m2, p2)
    assert LieModel("renamed", m1.dim, m1.brackets) != m1


def test_frozen_records_refuse_assignment():
    model, pack = model_pack("h5")
    for record, attr in ((ops_for("h5").d, "terms"), (model, "dim"), (pack, "kind"),
                         (ops_for("h5"), "d")):
        before = getattr(record, attr)
        with pytest.raises(AttributeError):
            setattr(record, attr, before)
        assert getattr(record, attr) is before


# -- dimension 7 ---------------------------------------------------------

_H7_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from lieforms.models import load_model_file
from lieforms.splitting import operator_pool, sasakian_relations
model, pack = load_model_file(sys.argv[1])
pool = operator_pool(model, pack)
named = [pool.poly(x) for x in ("d", "L", "W", "e_r", "i_r", "Lie_r", "Lam", "H", "(p-n)Id",
                                "d0", "d1", "d2", "d1^{1,0}", "d1^{0,1}", "d1c", ("W", "d1c"))]
sasakian_relations(model, pack)  # builds the table's whole pool
named += pool._polys.values()
blocks = [p.block(k) for p in named for k in range(model.dim + 1)]
print(len(named))
"""


def test_h7_builds_under_one_gib():
    """The dim-7 contact model builds its operators, foliation split, Hodge
    split and the Sasakian table's pool in a child capped at 1 GiB of
    address space."""
    import subprocess
    import sys

    child = subprocess.run([sys.executable, "-c", _H7_CHILD, str(DATA / "h7.alg")],
                           capture_output=True, text=True, env=child_env(), timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    assert int(child.stdout) > 60


_H21_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from lieforms.models import parse_model
from lieforms.splitting import operator_pool
model, pack = parse_model(sys.stdin.read(), name="h21")
operator_pool(model, pack)
print(model.dim, pack.kind)
"""


def heisenberg_text(n: int) -> str:
    """The contact Heisenberg model h_{2n+1}: [e_a, e_{a+1}] = -e_{2n+1} and
    J pairs a -> a+1 for odd a, with the Reeb direction 2n+1."""
    r = 2 * n + 1
    return "\n".join(["[algebra]", f"dim = {r}", "[brackets]",
                      *(f"{a} {a + 1} -> {r} : -1" for a in range(1, r - 1, 2)),
                      "[structure]", "kind = sasakian", f"reeb = {r}",
                      *(f"J: {a} -> {a + 1}" for a in range(1, r - 1, 2))]) + "\n"


def test_h21_loads_under_one_gib():
    """Loading checks Jacobi and d^2 = 0, and building the operator pool
    certifies every pack rule and splits d, all on polynomials and with no
    block, so the dim-21 contact model loads and builds its pool in a child
    capped at 1 GiB of address space; its blocks would hold 2^21 columns."""
    import subprocess
    import sys

    child = subprocess.run([sys.executable, "-c", _H21_CHILD], input=heisenberg_text(10),
                           capture_output=True, text=True, env=child_env(), timeout=60)
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.split() == ["21", "sasakian"]
