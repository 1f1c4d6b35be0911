import functools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lieforms.models import StructureError, parse_model, structure_operators
from lieforms.clifford import Clifford, generator_mask, supercommutator
from lieforms.scalars import ONE, Scalar
from lieforms.splitting import (
    antisymmetry_report,
    check_integrable,
    foliation_split,
    guard_names,
    hodge_split_d1,
    jacobi_report,
    kahler_relations,
    operator_pool,
    reeb_foliation,
    sasakian_relations,
    vaisman_structure_relations,
    _hodge_split,
)

import block_reference as ref
from conftest import model_pack, ops_for, plant, pool_for, record
from pq_reference import reference_hodge, reference_i, reference_projectors


def split_for(name):
    model, pack = model_pack(name)
    ops = ops_for(name)
    return ops, foliation_split(ops.d, model, reeb_foliation(pack))


def test_foliation_integrability_guard():
    model, _ = model_pack("su2")
    with pytest.raises(StructureError):
        check_integrable(model, (1, 2))  # [e1,e2] = -e3 leaves the span
    check_integrable(model, (3,))
    check_integrable(model, (1,))  # rank-1 spans are always integrable


def test_split_reconstructs_d():
    for name in ("su2", "h3", "h5"):
        ops, (d0, d1, d2) = split_for(name)
        assert d0 + d1 + d2 == ops.d


def test_split_formulas():
    for name in ("su2", "h3", "h5"):
        _, (d0, d1, d2) = split_for(name)
        poly = pool_for(name).poly
        assert d0 == poly("e_r") @ poly("Lie_r")
        assert d2 == poly("L") @ poly("i_r")
        assert (d0 @ d0).is_zero()
        assert (d2 @ d2).is_zero()
        # the horizontal-degree-2 part of d^2 = 0
        assert supercommutator(d0, d2) == -(d1 @ d1)


def test_h3_central_reeb_kills_d0():
    _, (d0, _, d2) = split_for("h3")
    assert d0.is_zero()
    assert not d2.is_zero()


def test_rank2_split_has_four_components():
    model, pack = model_pack("su2xr")
    ops = ops_for("su2xr")
    split = foliation_split(ops.d, model, pack.vertical_indices)
    assert len(split) == 4
    total = split[0]
    for c in split[1:]:
        total = total + c
    assert total == ops.d


def test_hodge_split_bidegrees():
    for name in ("su2", "h3", "h5"):
        ops, split = split_for(name)
        d1 = split[1]
        d1_10, d1_01, d1c = hodge_split_d1(ops, split)
        assert d1_10 + d1_01 == d1
        # twisted differential consistency: d1c = [W, d1] = I d1 I^{-1}, with I
        # the Lagrange reference's
        i_aut, i_inv = reference_i(reference_projectors(*model_pack(name)))
        assert d1c == supercommutator(ops.W, d1)
        assert ref.blocks(d1c) == ref.compose(i_aut, ref.blocks(d1), i_inv)


def test_hodge_split_fails_on_a_planted_bidegree_2_minus_1_component():
    # e_1 e_3 i_2 moves (p,q) by (2,-1) among others; its (2,-1) part, cut
    # out with the reference projectors, is added to d1 of h5
    model, pack = model_pack("h5")
    ops, split = split_for("h5")
    poly = pool_for("h5").poly
    y = poly("e_1") @ poly("e_3") @ poly("i_2")
    # [W, .] acts as i(a-b) on the part moving (p,q) by (a,b), so the
    # (2,-1) part is y times prod over t of ([W, .] - it) / i(3-t)
    planted = y
    for t in (1, -1, -3):
        planted = (supercommutator(poly("W"), planted)
                   - planted.scale(Scalar(0, t))).scale(ONE / Scalar(0, 3 - t))
    assert not planted.is_zero()
    pi = reference_projectors(model, pack)
    assert ref.blocks(planted) == ref.add(*(
        ref.compose(pi[tgt], ref.blocks(y), proj) for (p, q, v), proj in pi.items()
        if (tgt := (p + 2, q - 1, v)) in pi))
    hodge_split_d1(ops, split)
    bad = (split[0], split[1] + planted, split[2])
    with pytest.raises(StructureError) as err:
        hodge_split_d1(ops, bad)
    assert err.value.check == "J"


@functools.lru_cache(maxsize=None)
def certificate_reference(name):
    """The horizontal term keys of shift +1, the Lagrange projectors and the
    reference (I, I^-1) of a builtin."""
    model, pack = model_pack(name)
    hor = generator_mask(pack.horizontal_indices(model.dim))
    subsets = [m for m in range(hor + 1) if m & ~hor == 0]
    keys = [(w, c) for w in subsets for c in subsets if w.bit_count() - c.bit_count() == 1]
    pi = reference_projectors(model, pack)
    return keys, pi, reference_i(pi)


gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_hodge_certificate_matches_the_lagrange_reference(data):
    # a random shift +1 polynomial y in the horizontal letters moves (p,q)
    # by some (a,b) with a + b = 1; the certificate {W, {W, y}} = -y refuses
    # it exactly when the reference projectors find a component with
    # |a - b| != 1, and otherwise its d1c is the reference I y I^-1
    name = data.draw(st.sampled_from(("h5", "su2xr", "torus4")))
    keys, pi, (i_aut, i_inv) = certificate_reference(name)
    chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    y = Clifford(model_pack(name)[0].dim, 1, {key: data.draw(gaussian) for key in chosen})
    blocks = ref.blocks(y)
    hodge = reference_hodge(pi, blocks)
    if ref.add(*hodge) == blocks:
        d1_10, d1_01, d1c, _ = _hodge_split(ops_for(name), y)
        assert (ref.blocks(d1_10), ref.blocks(d1_01)) == hodge
        assert ref.blocks(d1c) == ref.compose(i_aut, blocks, i_inv)
    else:
        with pytest.raises(StructureError, match=r"\{W, d1\} != I d1 I\^-1") as err:
            _hodge_split(ops_for(name), y)
        assert err.value.check == "J"


def test_hodge_split_without_transversal_directions():
    model, pack = parse_model("[algebra]\ndim = 1\n[structure]\nkind = sasakian\nreeb = 1\n")
    ops = structure_operators(model, pack)
    split = foliation_split(ops.d, model, reeb_foliation(pack))
    d1_10, d1_01, _ = hodge_split_d1(ops, split)
    assert d1_10.is_zero() and d1_01.is_zero()


def test_kahler_report_passes_with_recorded_variants():
    for name in ("torus2", "torus4"):
        model, pack = model_pack(name)
        rep = kahler_relations(model, pack)
        assert all(r.ok for r in rep)
        assert record(rep, "sl2.[H,Lam]").verdict == "variant"
        assert record(rep, "sl2.[H,Lam]").variant == "-2Lam"
        assert record(rep, "sl2.[H,L]").verdict == "pass"
        assert record(rep, "sl2.H_scalar").verdict == "pass"
        assert record(rep, "delta.{dc,dc*}").ok
        for e in rep:
            if e.name.startswith("delta.central"):
                assert e.verdict == "pass"


def test_wedge_pair_sums_are_named_once():
    model, pack = model_pack("torus4")
    rep = kahler_relations(model, pack)
    assert record(rep, "aux.L_as_wedge_pairs").rhs == "sum e_a e_b"
    assert record(rep, "aux.Lam_as_contraction_pairs").rhs == "sum i_a i_b"


def test_sasakian_report_passes_on_all_contact_builtins():
    for name in ("su2", "h3", "h5"):
        model, pack = model_pack(name)
        rep = sasakian_relations(model, pack)
        assert all(r.ok for r in rep), [e.line() for e in rep if not e.ok]


def test_sasakian_report_variant_details_su2():
    model, pack = model_pack("su2")
    rep = sasakian_relations(model, pack)
    # printed sign typos adjudicated on a model where both sides are nonzero
    assert record(rep, "aux.d0*_vs_i_r(1)").verdict == "variant"
    assert record(rep, "aux.d0*_vs_i_r(1)").variant == "-i_r(1)"
    assert record(rep, "aux.Delta0_vs_Lie^2").verdict == "variant"
    assert record(rep, "aux.Delta0_vs_Lie^2").variant == "-Lie_r^2"
    # degree-shift type errors in the printed table, resolved by variant
    assert record(rep, "weil.[W,d1c*]").verdict == "variant"
    assert record(rep, "laplacian.Delta1_def").verdict == "variant"
    assert "shift" in record(rep, "laplacian.Delta1_def").failure
    # the structural formulas hold with nonzero operators
    assert record(rep, "structure.d0_formula").verdict == "pass"
    assert not record(rep, "structure.d0_formula").vacuous
    assert record(rep, "structure.d2_formula").verdict == "pass"


def test_sasakian_first_order_determinacy_entry():
    model, pack = model_pack("su2")
    rep = sasakian_relations(model, pack)
    entry = record(rep, "aux.first_order.{L,d*}")
    assert entry.verdict == "pass"
    assert not entry.vacuous


def test_first_order_entry_fails_on_a_term_with_two_contractions(monkeypatch):
    # e1 e2 e3 i1 i2 added to {L,d*}: a term with two contractions, so the
    # operator is not determined by its values on 1 and the coframe
    from lieforms.clifford import Clifford

    model, pack = model_pack("h3")
    before = sasakian_relations(model, pack)
    planted = pool_for("h3").poly(("L", "d*")) + Clifford(3, 1, {(0b111, 0b011): ONE})
    plant(monkeypatch, model, pack, ("L", "d*"), planted, layer="splitting")
    rep = sasakian_relations(model, pack)
    assert [e.name for e in rep if not e.ok] == ["aux.first_order.{L,d*}"]
    assert [e.line() for e in rep if e.ok] == [e.line() for e in before if e.name != (
        "aux.first_order.{L,d*}")]
    assert record(rep, "aux.first_order.{L,d*}").failure == (
        "operator is not determined by its generator values")


def test_antisymmetry_guard_fails_on_a_pair_that_is_not_graded_antisymmetric(monkeypatch):
    # {L,Lam} planted as H + Id, while {Lam,L} stays -H: the guard names the
    # pair.  Id is central, so every Jacobi triple still holds
    model, pack = model_pack("h3")
    pool = pool_for("h3")
    plant(monkeypatch, model, pack, ("L", "Lam"), pool.poly("H") + pool.poly("Id"),
          layer="splitting")
    entry = antisymmetry_report(model, pack)
    assert (entry.verdict, entry.failure) == ("fail", "pair (L,Lam)")
    assert jacobi_report(model, pack, exhaustive=True).verdict == "pass"


def test_vaisman_structure_report():
    for name in ("su2xr", "h3xr"):
        model, pack = model_pack(name)
        rep = vaisman_structure_relations(model, pack)
        assert all(r.ok for r in rep), [e.line() for e in rep if not e.ok]
        assert record(rep, "vaisman.structure_equation").verdict == "pass"
        assert record(rep, "vaisman.d_theta").verdict == "pass"


def test_vaisman_structure_equation_is_vacuous_in_dimension_2(tmp_path):
    # with no transversal directions d(eta) = 0 = omega - theta ^ eta, and the
    # structure equation, a table row on the pool's multiplications, says so;
    # d(theta) = 0 asserts vanishing, and omega = theta ^ eta is nonzero
    from lieforms.cli import RunConfig, run

    path = tmp_path / "vaisman2.alg"
    path.write_text("[algebra]\ndim = 2\n[structure]\nkind = vaisman\nreeb = 2\nlee = 1\n")
    out = tmp_path / "check.txt"
    assert run(RunConfig(command="check", model=str(path), output=str(out))) == 0
    lines = out.read_text().splitlines()
    assert lines[2:5] == [
        "  PASS  vaisman.d_theta: d(theta) = 0",
        "  PASS  vaisman.structure_equation: d(I theta) = omega - theta^(I theta)"
        "  (both sides zero)",
        "  PASS  vaisman.omega_decomposition: omega = omega0 + theta^eta",
    ]


def test_relation_table_on_deformed_round_model():
    # one-parameter bracket deformation of the round model (parameter 2):
    # optional family check, the table should hold at every parameter
    from lieforms.models import parse_model

    text = (
        "[algebra]\ndim = 3\n[brackets]\n"
        "1 2 -> 3 : -1\n2 3 -> 1 : -2\n1 3 -> 2 : 2\n"
        "[structure]\nkind = sasakian\nreeb = 3\nJ: 1 -> 2\n"
    )
    model, pack = parse_model(text, "deformed")
    rep = sasakian_relations(model, pack)
    assert all(r.ok for r in rep)
    # same adjudications as on the round model itself
    assert record(rep, "aux.d0*_vs_i_r(1)").variant == "-i_r(1)"
    assert record(rep, "aux.Delta0_vs_Lie^2").variant == "-Lie_r^2"


SU2_AFF = Path(__file__).parent / "data" / "su2_aff.alg"
NON_UNIMODULAR_PROBE = (
    "[algebra]\ndim = 5\n[brackets]\n"
    "1 2 -> 2 : -1\n1 2 -> 5 : -1\n3 4 -> 5 : -1\n"
    "[structure]\nkind = sasakian\nreeb = 5\nJ: 1 -> 2\nJ: 3 -> 4\n"
)


def test_kahler_identity_sector_fails_on_a_non_unimodular_contact_model():
    # a valid pack whose J passes the integrability certificate, on an
    # algebra that is not unimodular ([e1,e2] = -e2 - e5, so tr ad e1 = -1),
    # as su(2) x aff(R) is not: d1 != 0 here (unlike on every builtin), so
    # the sign adjudications acquire nonzero witnesses, while the identities
    # of the Kahler-identity sector fail
    from lieforms.models import parse_model, structure_operators

    model, pack = parse_model(NON_UNIMODULAR_PROBE, "probe")
    trace = sum((model.bracket(1, k).get(k, Scalar.of(0)) for k in range(1, model.dim + 1)),
                Scalar.of(0))
    assert trace == Scalar.of(-1)
    ops = structure_operators(model, pack)
    assert not foliation_split(ops.d, model, reeb_foliation(pack))[1].is_zero()

    rep = sasakian_relations(model, pack)
    assert not all(r.ok for r in rep)
    failing = {e.name for e in rep if not e.ok}
    # the failures localize in the Kahler-identity sector
    assert {"kodaira.[Lam,d1]", "kodaira.[L,d1*]", "kodaira.[Lam,d1c]",
            "kodaira.[L,d1c*]", "mixed.{d1*,d1c}", "mixed.{d1,d1c*}",
            "laplacian.Delta1_conjugate"} <= failing
    # while the pointwise-algebraic sector still holds, now non-vacuously,
    # pinning the sign typos that the builtins could only witness as 0 = 0
    e = record(rep, "weil.[W,d1*]")
    assert (e.verdict, e.variant, e.vacuous) == ("variant", "+d1c*", False)
    e = record(rep, "weil.[W,d1c*]")
    assert (e.verdict, e.variant, e.vacuous) == ("variant", "-d1*", False)
    e = record(rep, "weil.[W,d1c]")
    assert (e.verdict, e.vacuous) == ("pass", False)
    e = record(rep, "aux.d1c_vs_hodge_components")
    assert (e.variant, e.vacuous) == ("-i(d1^{0,1}-d1^{1,0})", False)
    e = record(rep, "aux.d1^{1,0}_formula")
    assert (e.variant, e.vacuous) == ("(d1-i d1c)/2", False)
    assert record(rep, "aux.d1c_consistency").verdict == "pass"


def test_factor_two_adjudications_on_su2_aff_witness():
    # su(2) x aff(R) is normal, so d1 carries only Hodge bidegrees (1,0) and
    # (0,1), with d1 != 0 and Lie_r != 0.  d^2 = 0 gives d1 d1 = -L(1), so
    # the printed twisted squares hold up to a factor of 2.  The rest of
    # the table is deliberately not asserted (see the fixture's comment).
    from lieforms.models import load_model_file

    model, pack = load_model_file(str(SU2_AFF))
    poly = operator_pool(model, pack).poly
    d0, d1, d2 = foliation_split(poly("d"), model, reeb_foliation(pack))
    assert d0 == poly("e_r") @ poly("Lie_r")
    assert d2 == poly("L") @ poly("i_r")
    assert supercommutator(d0, d2) == -(d1 @ d1)
    assert not (d1 @ d1).is_zero()

    rep = sasakian_relations(model, pack)
    for key, variant in (("squares.{d1,d1}", "-2L(1)"),
                         ("squares.{d1c,d1c}", "-2L(1)"),
                         ("squares.{d1*,d1*}", "2Lam(1)"),
                         ("squares.{d1c*,d1c*}", "2Lam(1)"),
                         ("structure.{d0,d2}=-{d1,d1}", "-1/2{d1,d1}")):
        e = record(rep, key)
        assert (e.verdict, e.variant, e.vacuous) == ("variant", variant, False), e.line()


def test_cli_exits_one_on_failed_verification(tmp_path):
    # the probe is valid input, so the failure is a verification failure
    from lieforms.cli import RunConfig, run

    path = tmp_path / "probe.alg"
    path.write_text(NON_UNIMODULAR_PROBE)
    assert run(RunConfig(command="check", model=str(path),
                         output=str(tmp_path / "out.txt"))) == 1


def test_antisymmetry_and_jacobi_guards():
    for name, exhaustive in (("torus2", True), ("su2", True), ("h3", True),
                             ("torus4", False), ("h5", False),
                             ("su2xr", False), ("h3xr", False)):
        model, pack = model_pack(name)
        assert antisymmetry_report(model, pack).ok
        assert jacobi_report(model, pack, exhaustive=exhaustive).ok


def _count_block_products(monkeypatch) -> list:
    """A list that gains one entry per `Matrix.__matmul__` call."""
    from lieforms.matrices import Matrix

    products, matmul = [], Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda x, y: products.append(None) or matmul(x, y))
    return products


def test_sasakian_table_builds_each_product_once(monkeypatch):
    # the table and the guards decide on the pool's Clifford polynomials, so
    # they make no block product; and the table builds no supercommutator of
    # the same two operands and no Reeb power twice; operands are told apart
    # by identity, since each pool name is built once
    import lieforms.splitting as splitting
    from lieforms.models import builtin

    model, pack = builtin("h5")
    structure_operators(model, pack)  # cached, and not part of the table
    pairs, powers = [], []
    comm, power = splitting.supercommutator, splitting.reeb_power

    def counted_comm(a, b):
        pairs.append((id(a), id(b)))
        return comm(a, b)

    def counted_power(a, lie_r):
        powers.append(id(a))
        return power(a, lie_r)

    monkeypatch.setattr(splitting, "supercommutator", counted_comm)
    monkeypatch.setattr(splitting, "reeb_power", counted_power)
    products = _count_block_products(monkeypatch)
    splitting.operator_pool.cache_clear()
    try:
        rep = splitting.sasakian_relations(model, pack)
        table_pairs = list(pairs)
        guards = (splitting.antisymmetry_report(model, pack),
                  splitting.jacobi_report(model, pack, exhaustive=False))
        pool = splitting.operator_pool(model, pack)
    finally:
        splitting.operator_pool.cache_clear()
    assert all(r.ok for r in rep) and all(g.ok for g in guards)
    assert products == []
    assert table_pairs and len(table_pairs) == len(set(table_pairs))
    assert sorted(powers) == sorted(set(powers))
    assert set(powers) == {id(pool.poly(x)) for x in
                           ("L", "Lam", "H", "e_r", "i_r", "d1", "d1*", "d1c", "d1c*")}


def test_pool_holds_polynomials_and_splits_d_once_along_the_vertical_fields():
    # the split lives apart from the named polynomials: the pool splits d
    # along the pack's vertical fields when it is built, and the tables'
    # d0, d1 and d2 are its components
    from lieforms.clifford import Clifford

    model, pack = model_pack("h5")
    sasakian_relations(model, pack)
    pool = operator_pool(model, pack)
    assert pool._polys and all(isinstance(p, Clifford) for p in pool._polys.values())
    assert pool.split == foliation_split(pool.poly("d"), model, pack.vertical_indices)
    assert all(pool.split[i] is pool.poly(f"d{i}") for i in range(3))


@pytest.mark.parametrize("name, bound", [("su2", 400), ("torus2", 200)], ids=["su2", "torus2"])
def test_exhaustive_jacobi_skips_zero_products(monkeypatch, name, bound):
    # d1 = 0 and most guard brackets vanish, so most of the 6 compositions of
    # each of the 11^3 triples have a zero operand and need no polynomial
    # product; none of them needs a block product
    from lieforms.clifford import Clifford

    model, pack = model_pack(name)
    pool = operator_pool(model, pack)
    names = guard_names(pack)
    for a in names:
        for b in names:
            pool.poly((a, b))
    products = _count_block_products(monkeypatch)
    polynomial_products = []
    product = Clifford.__matmul__

    def counted(x, y):
        if x.terms and y.terms:
            polynomial_products.append(None)
        return product(x, y)

    monkeypatch.setattr(Clifford, "__matmul__", counted)
    entry = jacobi_report(model, pack, exhaustive=True)
    assert entry.ok
    assert products == []
    assert 0 < len(polynomial_products) < bound


def test_exhaustive_jacobi_fails_on_a_planted_nonzero_bracket(monkeypatch):
    # {d1,L} vanishes on su2; planting the nonzero polynomial L e_r in its
    # place (same shift and parity) breaks the identity first at (Lam,d1,L)
    model, pack = model_pack("su2")
    pool = operator_pool(model, pack)
    assert pool.poly(("d1", "L")).is_zero()
    planted = pool.poly("L") @ pool.poly("e_r")
    assert not planted.is_zero()
    monkeypatch.setitem(pool._polys, ("d1", "L"), planted)
    entry = jacobi_report(model, pack, exhaustive=True)
    assert entry.verdict == "fail"
    assert entry.lhs == "triple (Lam,d1,L)"


def test_exhaustive_jacobi_builds_only_live_terms(monkeypatch):
    # on su2 only 8 of the 121 pool pairs are nonzero: a triple whose three
    # inner pairs vanish passes unbuilt, and {b,{a,c}} reuses the lhs of
    # triple (b,a,c), where every term of every triple cost 3 * 11^3 = 3993;
    # every bracket is a polynomial one, with no block product
    from lieforms import splitting

    model, pack = model_pack("su2")
    pool = operator_pool(model, pack)
    names = guard_names(pack)
    assert sum(not pool.poly((a, b)).is_zero() for a in names for b in names) == 8
    calls = []
    monkeypatch.setattr(splitting, "supercommutator",
                        lambda a, b: calls.append(1) or supercommutator(a, b))
    products = _count_block_products(monkeypatch)
    assert jacobi_report(model, pack, exhaustive=True).ok
    assert len(calls) <= 456
    assert products == []
