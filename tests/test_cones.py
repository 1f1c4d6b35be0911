from pathlib import Path

import pytest

from lieforms.cohomology import full_complex
from lieforms.cones import (
    lefschetz_cone,
    lefschetz_cone_package,
    lefschetz_long_exact,
    sasakian_decomposition,
    sasakian_harmonic_check,
    vaisman_decomposition,
    vaisman_harmonic_check,
)
from lieforms.scalars import Scalar
from lieforms.verdicts import DegreeVerdict, RelationEntry

from conftest import load, model_pack, ops_for, plant, pool_for, record


def degree_rows(verdict):
    return [r for r in verdict if isinstance(r, DegreeVerdict)]


def test_cone_of_zero_map_splits():
    model, pack = model_pack("h3")
    cx = full_complex(model, pack)
    cone = lefschetz_cone(cx, {})
    for k in cone.degrees:
        assert cone.betti(k) == cx.betti(k + 1) + cx.betti(k)


def test_long_exact_for_zero_map():
    model, pack = model_pack("h3")
    cx = full_complex(model, pack)
    # no blocks and no induced map: L is zero on the complex and on H
    rows = lefschetz_long_exact(cx, {}, lefschetz_cone(cx, {}))
    assert rows and all(r.ok for r in rows)


def test_long_exact_for_lefschetz_on_basic_complexes():
    for name in ("h3", "su2", "h5"):
        model, pack = model_pack(name)
        verdict = lefschetz_cone_package(model, pack)
        assert all(r.ok for r in degree_rows(verdict)), name


def test_long_exact_for_lefschetz_on_tori():
    # the trivial foliation makes the basic complex the full one; the
    # Lefschetz cone sequence must still be exact at every node
    for name in ("torus2", "torus4"):
        model, pack = model_pack(name)
        cx = full_complex(model, pack)
        L = ops_for(name).L
        rows = lefschetz_long_exact(cx, cx.induced(L), lefschetz_cone(cx, cx.restrict(L)))
        assert rows and all(r.ok for r in rows), name


def test_cone_identification_is_exact_isomorphism():
    for name in ("su2", "h3", "h5", "su2xr", "h3xr"):
        model, pack = model_pack(name)
        verdict = lefschetz_cone_package(model, pack)
        assert all(r.ok for r in verdict), (name, [r.line() for r in verdict])
        for key in ("cone.isomorphism", "cone.bijective", "cone.invariant_proxy",
                    "cone.cohomology_match"):
            assert record(verdict, key).verdict == "pass", key


def test_sasakian_decomposition_dimensions():
    for name in ("su2", "h3", "h5"):
        model, pack = model_pack(name)
        verdict = sasakian_decomposition(model, pack)
        assert all(r.ok for r in verdict), name
        full = full_complex(model, pack)
        for row in degree_rows(verdict):
            assert row.proof == full.betti(row.degree)


def test_sasakian_decomposition_flags_headline_at_degree_zero():
    model, pack = model_pack("su2")
    verdict = sasakian_decomposition(model, pack)
    row0 = record(verdict, 0)
    # actual H^0 = 1 while the headline reading (ker of the Lefschetz map
    # on degree-0 basic cohomology) gives 0
    assert row0.actual == 1 and row0.proof == 1
    assert row0.claimed == 0 and row0.headline_ok is False
    note = record(verdict, "decomposition.headline_vs_proof")
    assert note.verdict == "noted"
    assert "disagrees" in note.failure


def test_sasakian_harmonic_subspace_equality():
    for name in ("su2", "h3", "h5"):
        model, pack = model_pack(name)
        verdict = sasakian_harmonic_check(model, pack)
        assert all(r.ok for r in verdict), name
        for row in degree_rows(verdict):
            assert row.ok  # subspace equality with ker Delta, not just dims


def test_sasakian_harmonic_check_takes_the_flipped_branch(monkeypatch):
    # with the two candidate spaces of degree 1 swapped on h5, the stated
    # space (now eta ^ the co-primitive 0-forms, which is empty since
    # L 1 = omega) misses the four harmonic 1-forms and the other one holds
    # them: the row passes on the flipped branch, with its witnesses
    import lieforms.cones as cones

    model, pack = model_pack("h5")
    before = sasakian_harmonic_check(model, pack)
    spaces = cones._harmonic_branch_spaces

    def swapped(*args):
        out = spaces(*args)
        out[1] = out[1][::-1]
        return out

    monkeypatch.setattr(cones, "_harmonic_branch_spaces", swapped)
    after = sasakian_harmonic_check(model, pack)
    row = record(after, 1)
    assert (row.branch, row.ok, row.headline_ok) == ("flipped", True, False)
    assert (row.claimed, row.proof, row.actual) == (0, 4, 4)
    assert row.witnesses == record(before, 1).witnesses
    assert row.witnesses == ("(1)*t1", "(1)*t2", "(1)*t3", "(1)*t4")
    assert row.line() == ("PASS  degree 1: actual 4; proof-sequence 4; "
                          "headline 0 (inconsistent); branch flipped")
    assert [r.line() for r in degree_rows(after) if r.degree != 1] == \
        [r.line() for r in degree_rows(before) if r.degree != 1]


@pytest.mark.parametrize("name, decomposition, sub, mid", [
    ("h5", sasakian_decomposition, "bas", "n"),
    ("h5xr", vaisman_decomposition, "kah", "n-1"),
])
def test_lefschetz_entries_fail_when_l_is_not_injective_or_surjective(
        monkeypatch, name, decomposition, sub, mid):
    # with the zero polynomial planted as L, L kills H^0 of the basic
    # complex and reaches no top class, so both entries fail, each worded
    # with its kind's basic complex and middle degree
    from lieforms.clifford import Clifford

    model, pack = load(name)
    plant(monkeypatch, model, pack, "L", Clifford.zero(model.dim, 2), layer="cones")
    verdict = decomposition(model, pack)
    assert record(verdict, "decomposition.lefschetz_injective").line() == (
        f"FAIL  decomposition.lefschetz_injective: L: H^{{i-2}}_{sub} -> H^i_{sub}, "
        f"i <= {mid} = injective")
    assert record(verdict, "decomposition.lefschetz_surjective").line() == (
        f"FAIL  decomposition.lefschetz_surjective: L: H^{{i-1}}_{sub} -> H^{{i+1}}_{sub}, "
        f"i > {mid} = surjective")


def test_sasakian_harmonic_star_duality_entry():
    model, pack = model_pack("su2")
    verdict = sasakian_harmonic_check(model, pack)
    assert record(verdict, "harmonic.star_duality").verdict == "pass"


def test_vaisman_decomposition():
    for name, sas_expected in (("su2xr", [1, 0, 0, 1, 0]), ("h3xr", [1, 2, 2, 1, 0])):
        model, pack = model_pack(name)
        verdict = vaisman_decomposition(model, pack)
        assert all(r.ok for r in verdict), (name, [r.line() for r in verdict if not r.ok])
        full = full_complex(model, pack)
        for row in degree_rows(verdict):
            assert row.proof == full.betti(row.degree)


def test_vaisman_harmonic_assembly():
    for name in ("su2xr", "h3xr"):
        model, pack = model_pack(name)
        verdict = vaisman_harmonic_check(model, pack)
        assert all(r.ok for r in verdict), (name, [r.line() for r in verdict])
        assert record(verdict, "harmonic.assembly").verdict == "pass"
        assert record(verdict, "harmonic.theta_wedge").verdict == "pass"


def test_vaisman_harmonic_boundary_branch_is_resolved_empirically():
    # at the middle degree the first-branch reading gives the wrong
    # dimension on the Kodaira-surface model; the verdict flips and says so
    model, pack = model_pack("h3xr")
    verdict = vaisman_harmonic_check(model, pack)
    row2 = record(verdict, 2)
    assert row2.branch == "flipped" and row2.ok
    model, pack = model_pack("su2xr")
    verdict = vaisman_harmonic_check(model, pack)
    assert all(r.branch == "stated" for r in degree_rows(verdict))


def test_file_defined_six_dimensional_model_end_to_end():
    # largest supported scale: 2^6 = 64 basis elements, defined from text
    from lieforms.models import parse_model

    text = (Path(__file__).parent / "data" / "h5xr.alg").read_text(encoding="ascii")
    model, pack = parse_model(text, "h5xr")
    assert full_complex(model, pack).betti_list() == [1, 5, 9, 10, 9, 5, 1]
    assert all(r.ok for r in vaisman_decomposition(model, pack))
    verdict = vaisman_harmonic_check(model, pack)
    assert all(r.ok for r in verdict)
    # the middle-degree branch resolution recurs at the complex dimension
    assert record(verdict, 3).branch == "flipped"


def test_chain_map_commutation_guard():
    # d^2 on the cone is (0, d L c - L d c): with L's degree-1 block doubled
    # on the full complex of h5, d L eta = 2 L omega0 but L d eta = L omega0
    from lieforms.models import StructureError

    model, pack = model_pack("h5")
    cx = full_complex(model, pack)
    lblocks = dict(cx.restrict(ops_for("h5").L))
    lefschetz_cone(cx, lblocks)
    lblocks[1] = lblocks[1].scale(Scalar.of(2))
    with pytest.raises(StructureError, match=r"d\^2 != 0 at degree 1"):
        lefschetz_cone(cx, lblocks)


# h5 with e_5 swapped for e_r: the Reeb index sits an odd distance from the
# top index, so the basic star's orientation differs from index order
H5_SWAPPED = {
    2: ("1 5 -> 2 : -1\n3 4 -> 2 : -1\n", "J: 1 -> 5\nJ: 3 -> 4\n"),
    4: ("1 2 -> 4 : -1\n3 5 -> 4 : -1\n", "J: 1 -> 2\nJ: 3 -> 5\n"),
}


@pytest.mark.parametrize("reeb", sorted(H5_SWAPPED))
def test_relabelled_h5_passes_all(tmp_path, reeb):
    import oracle
    from lieforms.cli import RunConfig, run
    from lieforms.cohomology import basic_subcomplex
    from lieforms.models import parse_model
    from lieforms.splitting import reeb_foliation

    brackets, j_pairs = H5_SWAPPED[reeb]
    text = (f"[algebra]\ndim = 5\n[brackets]\n{brackets}"
            f"[structure]\nkind = sasakian\nreeb = {reeb}\n{j_pairs}")
    path = tmp_path / "h5.alg"
    path.write_text(text)
    out = tmp_path / "all.txt"
    assert run(RunConfig(command="all", model=str(path), output=str(out))) == 0
    assert "PASS  harmonic.star_duality" in out.read_text()

    model, pack = parse_model(text, "h5")
    table = {(i, j, k): c.re for i, j, k, c in model.brackets}
    assert full_complex(model, pack).betti_list() == oracle.betti_table(5, table)
    want = oracle.basic_betti_table(5, table, (reeb,))
    got = basic_subcomplex(model, pack, reeb_foliation(pack)).betti_list()
    assert got[:len(want)] == want and not any(got[len(want):])


def changed_rows(before, after):
    """The rows of a check whose printed line differs after a planted fault,
    by name or degree."""
    assert len(before) == len(after)
    return [getattr(a, "name", None) or a.degree
            for a, b in zip(after, before) if a.line() != b.line()]


def test_long_exact_rows_fail_when_the_cone_is_not_the_cone_of_the_map():
    # on h3's basic complex L: H^0 -> H^2 is an isomorphism.  Against the
    # split cone of the zero map it composes to nonzero with the inclusion
    # and the projection; the zero map against the true cone leaves both
    # nodes with too small a rank
    from lieforms.cohomology import basic_subcomplex
    from lieforms.splitting import reeb_foliation

    model, pack = model_pack("h3")
    basic = basic_subcomplex(model, pack, reeb_foliation(pack))
    L = ops_for("h3").L
    for lef, cone, note in (
            (basic.induced(L), lefschetz_cone(basic, {}),
             "composition of consecutive maps nonzero"),
            ({}, lefschetz_cone(basic, basic.restrict(L)), "rank 0+0 != dim 1")):
        rows = lefschetz_long_exact(basic, lef, cone)
        assert [(r.degree, r.notes) for r in rows if not r.ok] == [(0, note), (1, note)]


def test_cone_isomorphism_fails_when_the_cone_takes_another_l(monkeypatch):
    # the cone of 2L: alpha + eta^beta -> (beta, alpha) no longer
    # intertwines d (d(eta^beta) carries L beta once), but 2L is a chain map
    # with the ranks of L, so the sequence and the cohomology rows hold
    for name in ("h3", "su2", "h3xr"):
        model, pack = model_pack(name)
        before = lefschetz_cone_package(model, pack)
        plant(monkeypatch, model, pack, "L", ops_for(name).L.scale(Scalar.of(2)), layer="cones")
        after = lefschetz_cone_package(model, pack)
        monkeypatch.undo()
        assert changed_rows(before, after) == ["cone.isomorphism"], name
        assert record(after, "cone.isomorphism").verdict == "fail"


def test_cone_bijective_fails_when_the_invariant_complex_misses_forms(monkeypatch):
    # h3's invariant complex is its full complex; without the acyclic pair
    # eta = t3, d eta = t1^t2 it keeps its cohomology and is still carried
    # into the cone, but not onto it
    import lieforms.cones as cones
    from lieforms.cohomology import FormComplex
    from lieforms.forms import monomial_basis
    from lieforms.matrices import Matrix

    model, pack = model_pack("h3")
    before = lefschetz_cone_package(model, pack)
    missing = {1: (3,), 2: (1, 2)}
    select = {k: Matrix.unit_rows([i for i, m in enumerate(monomial_basis(3, k))
                                   if m != missing.get(k)], len(monomial_basis(3, k)))
              for k in range(4)}
    embed = {k: m.conj_transpose() for k, m in select.items()}
    monkeypatch.setattr(cones, "invariant_subcomplex",
                        lambda *_: FormComplex(embed, select, ops_for("h3").d, {}))
    after = lefschetz_cone_package(model, pack)
    assert changed_rows(before, after) == ["cone.bijective"]
    assert record(after, "cone.bijective").verdict == "fail"


def test_star_duality_fails_with_the_basic_star_oppositely_oriented(monkeypatch):
    import lieforms.cones as cones
    from lieforms.forms import star

    model, pack = model_pack("h5")
    before = sasakian_harmonic_check(model, pack)
    frame = tuple(range(1, model.dim + 1))

    def flipped(coframe, m):
        comp, sign = star(coframe, m)
        return (comp, sign) if coframe == frame else (comp, -sign)

    monkeypatch.setattr(cones, "star", flipped)
    after = sasakian_harmonic_check(model, pack)
    assert changed_rows(before, after) == ["harmonic.star_duality"]
    assert record(after, "harmonic.star_duality").verdict == "fail"


@pytest.mark.parametrize("name", ["su2xr", "h3xr"])
def test_assembly_rows_fail_when_eta_stands_in_for_theta(monkeypatch, name):
    # eta wedged onto the harmonic forms is not harmonic, so both rows that
    # wedge with theta fail, and the branch rows, which never do, hold
    model, pack = model_pack(name)
    before = vaisman_harmonic_check(model, pack)
    plant(monkeypatch, model, pack, "e_th", pool_for(name).poly("e_r"), layer="cones")
    after = vaisman_harmonic_check(model, pack)
    assert changed_rows(before, after) == ["harmonic.assembly", "harmonic.theta_wedge"]
    assert all(not r.ok for r in after if isinstance(r, RelationEntry))
