import pytest
from hypothesis import given, settings, strategies as st

import block_reference as ref
import oracle
from lieforms.cohomology import (
    FormComplex,
    basic_adjoint_check,
    basic_subcomplex,
    contact_foliation,
    full_complex,
    harmonic_space,
    invariant_subcomplex,
    transversal_package,
)
from lieforms.matrices import nullspace, subspace_equal
from lieforms.models import BUILTIN_NAMES, StructureError
from lieforms.scalars import Scalar
from lieforms.splitting import operator_pool, reeb_foliation

from block_reference import ODD
from conftest import DATA, load, model_pack, ops_for, plant, record
from form_reference import FormElement, column_forms, contract

ORACLE_MODELS = {
    "torus2": oracle.TORUS2, "torus4": oracle.TORUS4, "su2": oracle.SU2,
    "h3": oracle.H3, "h5": oracle.H5, "su2xr": oracle.SU2XR, "h3xr": oracle.H3XR,
}


def t(n, *ix):
    return FormElement.monomial(n, ix)


def test_betti_tables_match_oracle():
    for name, (dim, brackets) in ORACLE_MODELS.items():
        model, pack = model_pack(name)
        got = full_complex(model, pack).betti_list()
        assert got == oracle.betti_table(dim, brackets), name


def own_span(pack, span):
    """A span the pack's own complexes are basic for: its vertical fields
    (B), or the Lee field of a Vaisman pack (C)."""
    assert span in (pack.vertical_indices, contact_foliation(pack)), span
    return span


def test_basic_betti_match_oracle():
    # B of every contact builtin, and C of the Vaisman ones
    cases = [("su2", (3,)), ("h3", (3,)), ("h5", (5,)), ("su2xr", (1, 4)),
             ("h3xr", (1, 4)), ("su2xr", (1,)), ("h3xr", (1,))]
    for name, span in cases:
        model, pack = model_pack(name)
        dim, brackets = ORACLE_MODELS[name]
        want = oracle.basic_betti_table(dim, brackets, span)
        got = basic_subcomplex(model, pack, own_span(pack, span)).betti_list()
        top = len(want)
        assert got[:top] == want and all(b == 0 for b in got[top:]), (name, span)


def test_harmonic_spaces():
    model, pack = model_pack("su2")
    assert column_forms(3, 3, harmonic_space(model, pack, 3)) == [t(3, 1, 2, 3)]
    assert column_forms(3, 0, harmonic_space(model, pack, 0)) == [FormElement.unit(3)]
    model, pack = model_pack("h3")
    assert column_forms(3, 1, harmonic_space(model, pack, 1)) == [t(3, 1), t(3, 2)]
    # dimension equals the Betti number everywhere; elements closed and coclosed
    for name in ORACLE_MODELS:
        model, pack = model_pack(name)
        cx = full_complex(model, pack)
        d = ref.blocks(ops_for(name).d)
        ds = ref.adjoint(d)
        for k in range(model.dim + 1):
            basis = column_forms(model.dim, k, harmonic_space(model, pack, k))
            assert len(basis) == cx.betti(k)
            for f in basis:
                assert ref.apply(d, f).is_zero() and ref.apply(ds, f).is_zero()


def test_basic_subcomplex_h3_contents():
    model, pack = model_pack("h3")
    sub = basic_subcomplex(model, pack, pack.vertical_indices)
    assert [sub.dim(k) for k in range(4)] == [1, 2, 1, 0]
    assert column_forms(3, 1, sub.embed[1]) == [t(3, 1), t(3, 2)]
    assert all(m.is_zero() for m in sub.diff.values())


def test_subcomplex_closure_guard():
    # d does not preserve the span of non-basic constraints; build a fake
    # constraint set by asking for i_r-kernel only on su2 (Lie_r missing)
    from lieforms.clifford import Clifford

    model, pack = model_pack("su2")
    ops = ops_for("su2")
    iv = Clifford.contraction(3, 3)
    # i_r-kernel alone is not d-stable on su2: d(t1) = t2^t3 has a reeb leg
    with pytest.raises(StructureError, match="d fails to preserve the subspace") as info:
        FormComplex.from_constraints(model, ops.d, [iv])
    assert info.value.check == "subcomplex"


def test_restriction_guard_on_an_operator_leaving_the_subcomplex():
    # e_r wedges the basic 1-form t1 of h3 into t1^t3, which has a reeb leg
    model, pack = model_pack("h3")
    sub = basic_subcomplex(model, pack, pack.vertical_indices)
    pool = operator_pool(model, pack)
    assert sub.restrict(pool.poly("L"))  # L = e_{omega0} keeps basic forms basic
    with pytest.raises(StructureError, match="operator fails to preserve the subspace") as info:
        sub.restrict(pool.poly("e_r"))
    assert info.value.check == "subcomplex"


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_coordinates_match_solve_on_random_constraint_complexes(data):
    # random constraints on an abelian model, whose d = 0 keeps every
    # subspace: sums of e_a i_b (shift 0) and sums of i_b (shift -1)
    from lieforms.clifford import Clifford
    from lieforms.matrices import Matrix, solve
    from lieforms.models import LieModel, ce_differential

    n = data.draw(st.integers(1, 4))
    letter, coeff = st.integers(1, n), st.integers(-2, 2).map(Scalar.of)
    constraints = []
    for _ in range(data.draw(st.integers(0, 3))):
        shift = data.draw(st.sampled_from([0, -1]))
        op = Clifford.zero(n, shift)
        for _ in range(data.draw(st.integers(1, 3))):
            term = Clifford.contraction(n, data.draw(letter))
            if shift == 0:
                term = Clifford.wedge(n, data.draw(letter)) @ term
            op = op + term.scale(data.draw(coeff))
        constraints.append(op)
    model = LieModel("abelian", n, ())
    sub = FormComplex.from_constraints(model, ce_differential(model), constraints)

    def matrix(nrows, ncols):
        return Matrix([[data.draw(coeff) for _ in range(ncols)] for _ in range(nrows)], ncols)

    for k, basis in sub.embed.items():
        x0 = matrix(basis.ncols, 2)
        assert sub.coordinates(k, basis @ x0) == x0
        # a random right-hand side is in the span or not, as solve decides
        v = matrix(basis.nrows, 2)
        assert sub.coordinates(k, v) == solve(basis, v)


def test_from_constraints_refuses_a_basis_without_identity_rows(monkeypatch):
    # 2 I in place of a nullspace basis: its last nonzero rows hold 2, not 1
    import lieforms.cohomology as co
    from lieforms.matrices import Matrix

    model, _ = model_pack("h3")
    monkeypatch.setattr(co, "nullspace", lambda m: Matrix.identity(m.ncols).scale(Scalar.of(2)))
    with pytest.raises(ValueError, match="no identity at the last nonzero row"):
        FormComplex.from_constraints(model, ops_for("h3").d, [])


def test_equal_reeb_specs_share_one_basic_complex():
    model, pack = model_pack("h5")
    # a foliation is its index tuple, so equal tuples name one complex
    first, second = reeb_foliation(pack), pack.vertical_indices
    assert first is not second and first == second
    basic_subcomplex.cache_clear()
    assert basic_subcomplex(model, pack, first) is basic_subcomplex(model, pack, second)
    assert basic_subcomplex.cache_info().misses == 1


def test_invariant_subcomplex_su2():
    model, pack = model_pack("su2")
    inv = invariant_subcomplex(model, pack)
    assert [inv.dim(k) for k in range(4)] == [1, 1, 1, 1]
    assert inv.betti_list() == [1, 0, 0, 1]


def test_split_laplacian_properties():
    for name in ("su2", "h3", "su2xr"):
        ds = operator_pool(*model_pack(name)).poly("Delta_s")
        assert ds.adjoint() == ds
        for block in ref.blocks(ds).blocks:
            for i in range(block.nrows):
                diag = block.entry(i, i)
                assert diag.im == 0 and diag.re >= 0


def test_split_laplacian_h3_kernel():
    # d1 = 0 and Lie_r = 0 on the Heisenberg model, so Delta_s vanishes and
    # its degree-1 kernel is everything, including the vertical covector
    ds = operator_pool(*model_pack("h3")).poly("Delta_s")
    assert ds.is_zero()
    ker = nullspace(ds.block(1))
    assert ker.ncols == 3


def test_split_laplacian_su2_kernel_contains_eta():
    model, pack = model_pack("su2")
    ds = operator_pool(model, pack).poly("Delta_s")
    assert ref.apply(ref.blocks(ds), t(3, pack.reeb_index)).is_zero()


def test_basic_adjoint_identity():
    # on C by itself, and on B inside the transversal package
    for name in BUILTIN_NAMES[2:]:
        model, pack = model_pack(name)
        rep = basic_adjoint_check(model, pack)
        assert all(r.ok for r in rep), (name, [e.line() for e in rep])
        entry = record(transversal_package(model, pack), "basic_adjoint.pairing")
        assert entry.ok, (name, entry.line())


def test_transversal_package_passes():
    for name in BUILTIN_NAMES[2:]:
        rep = transversal_package(*model_pack(name))
        assert all(r.ok for r in rep), (name, [e.line() for e in rep if not e.ok])
        assert record(rep, "transversal.hard_lefschetz").verdict == "pass"
        assert record(rep, "transversal.pq_stability").verdict == "pass"
        assert record(rep, "split_laplacian.commutes_with_Pi_hor").verdict == "pass"
        # the i_v claim on the kernel is measured, not presumed
        assert record(rep, "split_laplacian.kernel_iv_vanishing").verdict == "noted"


def test_pq_stability_fails_when_w_moves_a_harmonic_class(monkeypatch):
    # a planted W sending theta^1, a basic harmonic 1-form of h5, to
    # theta^2 + eta moves it out of the basic harmonic space
    model, pack = model_pack("h5")
    poly = operator_pool(model, pack).poly
    plant(monkeypatch, model, pack, "W",
          poly("W") + poly(f"e_{pack.reeb_index}") @ poly("i_1"))
    rep = transversal_package(model, pack)
    assert [e.name for e in rep if not e.ok] == ["transversal.pq_stability"]


def test_harmonic_vs_representatives_fails_on_representatives_off_the_harmonic_forms(
        monkeypatch):
    # su2_aff is the one fixture whose basic complex has exact forms, at
    # degree 2.  Its degree-2 representative moved by an exact form keeps
    # its class, so the Lefschetz ranks and Betti numbers stay, but it is no
    # longer orthogonal to the exact forms: only that row turns to FAIL
    import lieforms.cohomology as co
    from lieforms.matrices import Matrix

    model, pack = load("su2_aff")
    before = transversal_package(model, pack)
    sub = co.basic_subcomplex.__wrapped__(model, pack, pack.vertical_indices)
    reps = sub.cohomology()
    assert reps[2].ncols == 1
    exact = next(e for e in (sub.d(1) @ Matrix.unit_rows([j], sub.dim(1)).conj_transpose()
                             for j in range(sub.dim(1))) if not e.is_zero())
    reps[2] = reps[2] + exact
    monkeypatch.setattr(co, "basic_subcomplex", lambda *_: sub)
    after = transversal_package(model, pack)
    assert [a.name for a, b in zip(after, before) if a.line() != b.line()] == [
        "transversal.harmonic_vs_representatives"]
    assert record(after, "transversal.harmonic_vs_representatives").line() == (
        "FAIL  transversal.harmonic_vs_representatives: ker Delta_bas deg 2 = "
        "closed & orthogonal to exact")


def test_kernel_iv_claim_fails_where_predicted():
    model, pack = model_pack("su2")
    rep = transversal_package(model, pack)
    assert "fails" in record(rep, "split_laplacian.kernel_iv_vanishing").failure


def test_harmonic_representatives_equal_kernel_of_laplacian():
    for name in ("su2", "h3", "su2xr"):
        model, pack = model_pack(name)
        cx = full_complex(model, pack)
        for k in range(model.dim + 1):
            assert subspace_equal(cx.cohomology()[k], cx.harmonic_coords(k))


def test_poincare_duality_and_euler_characteristic():
    for name in ORACLE_MODELS:
        model, pack = model_pack(name)
        betti = full_complex(model, pack).betti_list()
        assert betti == betti[::-1]
        if model.dim % 2:
            assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


# the smallest models the parser accepts have omega0 = 0; L must still
# have shift 2 there, or Lam, H and every cone and induced map go wrong
TRANSVERSAL_FREE = {
    "contact1": ("[algebra]\ndim = 1\n[structure]\nkind = sasakian\nreeb = 1\n",
                 [("basic", (1,))]),
    "vaisman2": ("[algebra]\ndim = 2\n[structure]\nkind = vaisman\nreeb = 2\nlee = 1\n"
                 "J: 1 -> 2\n",
                 [("sas", (1,)), ("kah", (1, 2))]),
}


@pytest.mark.parametrize("name", TRANSVERSAL_FREE)
def test_models_without_transversal_directions(tmp_path, name):
    from lieforms.cli import COMMANDS, RunConfig, run
    from lieforms.models import parse_model

    text, spans = TRANSVERSAL_FREE[name]
    path = tmp_path / f"{name}.alg"
    path.write_text(text)
    for command in COMMANDS:
        out = tmp_path / f"{command}.txt"
        assert run(RunConfig(command=command, model=str(path), output=str(out))) == 0, command
        assert "FAIL" not in out.read_text(), command

    model, pack = parse_model(text, name)
    assert model.brackets == ()
    assert full_complex(model, pack).betti_list() == \
        oracle.betti_table(model.dim, {})
    for label, span in spans:
        want = oracle.basic_betti_table(model.dim, {}, span)
        got = basic_subcomplex(model, pack, own_span(pack, span)).betti_list()
        assert got[:len(want)] == want and not any(got[len(want):]), label


def test_cohomology_module_is_not_shadowed():
    # the package exports no function named after the submodule
    import lieforms.cohomology as co

    assert co.FormComplex.__name__ == "FormComplex"


@pytest.mark.parametrize("name, built, eliminated", [("h5", 2, 4), ("h3xr", 3, 5)])
def test_all_builds_each_complex_once(monkeypatch, capsys, name, built, eliminated):
    # h5: basic[5] and the invariant complex; h3xr: basic[1], basic[1, 4] and
    # invariant+basic[1].  Eliminations: those, the full complex and the
    # cone of L on the basic complex.
    import lieforms.cohomology as co
    from lieforms import cli

    for cached in (co.full_complex, co.basic_subcomplex):
        cached.cache_clear()
    counts = {"built": 0, "eliminated": 0}
    from_constraints, cohomology = co.FormComplex.from_constraints, co.CochainComplex.cohomology

    def build(*args):
        counts["built"] += 1
        return from_constraints(*args)

    def eliminate(cx):
        # an elimination is a read of the cohomology that finds no memo
        counts["eliminated"] += "cohomology" not in cx._memo
        return cohomology(cx)

    monkeypatch.setattr(co.FormComplex, "from_constraints", staticmethod(build))
    monkeypatch.setattr(co.CochainComplex, "cohomology", eliminate)
    assert cli.main(["all", name]) == 0
    capsys.readouterr()
    assert counts == {"built": built, "eliminated": eliminated}


@pytest.mark.parametrize("name", ["h5", "h3xr"])
def test_all_induces_each_map_once(monkeypatch, capsys, name):
    # L on the basic cohomology, read by hard Lefschetz, the cone's long
    # exact sequence and the Lefschetz sequences, and the cone's inclusion
    # and projection
    import lieforms.cohomology as co
    import lieforms.cones as cones
    from lieforms import cli

    for cached in (co.full_complex, co.basic_subcomplex):
        cached.cache_clear()
    calls, induced_map = [], co.induced_map

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return induced_map(*args, **kwargs)

    monkeypatch.setattr(co, "induced_map", counted)
    monkeypatch.setattr(cones, "induced_map", counted)
    assert cli.main(["all", name]) == 0
    capsys.readouterr()
    # the cone is the only complex that is not a form complex
    cones_in = [tgt for _, tgt in calls if type(tgt) is co.CochainComplex]
    assert len(calls) == 3 and len(cones_in) == 1, calls


@pytest.mark.parametrize("name", ["h5", "su2", "su2xr", "h3xr"])
def test_all_builds_each_operator_once(monkeypatch, capsys, name):
    # the split of d along the vertical fields and each block of each polynomial
    # (the pool's, the coframe operators e_k, i_k and the Reeb and Lee
    # operators among them, and Delta_s and L^e of the transversal package)
    # are built once, however many layers read them, and each polynomial is
    # restricted to each complex once (L to the basic complex is read by hard
    # Lefschetz, the cone and the Lefschetz sequences); a memoised result
    # handed out again is the same object, not a second build
    import collections
    import importlib

    from lieforms import cli
    from lieforms.clifford import Clifford

    modules = [importlib.import_module(f"lieforms.{m}")
               for m in ("models", "verdicts", "splitting", "cohomology", "cones", "cli")]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    splits = collections.defaultdict(list)
    foliation_split = vars(modules[2])["foliation_split"]

    def counted_split(d, model, fol):
        out = foliation_split(d, model, fol)
        splits[fol].append(out)
        return out

    monkeypatch.setattr(modules[2], "foliation_split", counted_split)
    # each written block as (polynomial, degree); the list holds the
    # polynomials, so no two of them share an id
    written, entries = [], Clifford._entries

    def counted_entries(poly, k):
        written.append((poly, k))
        return entries(poly, k)

    monkeypatch.setattr(Clifford, "_entries", counted_entries)
    # each restriction as (complex, polynomial), both held by the list
    restricted, restrict = [], FormComplex._restrict

    def counted_restrict(sub, op, *msg):
        restricted.append((sub, op))
        return restrict(sub, op, *msg)

    monkeypatch.setattr(FormComplex, "_restrict", counted_restrict)
    assert cli.main(["all", name]) == 0
    capsys.readouterr()
    assert splits and all(len({id(out) for out in outs}) == 1 for outs in splits.values())
    assert written and len({(id(p), k) for p, k in written}) == len(written)
    assert restricted and len({(id(c), id(p)) for c, p in restricted}) == len(restricted)
    pool = operator_pool(*model_pack(name))
    assert pool.poly("i_r") is pool.poly(f"i_{model_pack(name)[1].reeb_index}")


# the contact models: a Kahler pack has no foliation
CONTACT_MODELS = [name for name in (*BUILTIN_NAMES, *(p.stem for p in sorted(DATA.glob("*.alg"))))
                  if load(name)[1].kind != "kahler"]


def test_horizontal_projector_is_the_vertical_degree_zero_projector():
    # Pi_hor = prod_v i_v e_v of the transversal package against the sum of
    # the reference bidegree projectors with vertical degree 0
    for name in CONTACT_MODELS:
        model, pack = load(name)
        pi = ref.bidegree_projectors(model.dim, pack.vertical_indices)
        expected = ref.add(*(p for (h, v), p in pi.items() if v == 0))
        pi_hor = operator_pool(model, pack).poly("Pi_hor")
        assert ref.blocks(pi_hor) == expected, name


@pytest.mark.parametrize("name", CONTACT_MODELS)
def test_transversal_polynomials_match_the_block_reference(monkeypatch, name):
    # Delta_s = {d1, d1*} - sum_v Lie_v^2, with d1 cut out of the reference d
    # by the bidegree projectors and Lie_v = {d, i_v}, against block
    # arithmetic; the package restricts only L (hard Lefschetz composes the
    # map L induces on basic cohomology) and Delta_s to the basic complex
    model, pack = load(name)
    reference = ref.reference_operators(model, pack)
    d, n = reference["d"], model.dim
    restricted, restrict = [], FormComplex.restrict
    monkeypatch.setattr(FormComplex, "restrict",
                        lambda sub, op: restricted.append(op) or restrict(sub, op))
    fol = pack.vertical_indices
    d1 = ref.d1_reference(d, fol)
    lies = [ref.supercommutator(d, ref.from_action(n, -1, ODD, lambda x, v=v: contract(v, x)))
            for v in fol]
    ds = ref.add(ref.supercommutator(d1, ref.adjoint(d1)),
                 *(ref.scale(ref.compose(lie, lie), Scalar.of(-1)) for lie in lies))
    assert ref.blocks(operator_pool(model, pack).poly("Delta_s")) == ds
    # a fresh basic complex, so that L's induced map is not already memoised
    basic_subcomplex.cache_clear()
    transversal_package(model, pack)
    assert [ref.blocks(op) for op in restricted] == [reference["L"], ds]


def planted_complex():
    """dims (1, 2, 1) with d_0 = 0 and d_1 = [1 1]: no degree-1 form is
    exact, and the closed ones are the multiples of (-1, 1)."""
    from lieforms.cohomology import CochainComplex
    from lieforms.matrices import Matrix

    return CochainComplex((0, 1, 2), {0: 1, 1: 2, 2: 1},
                          {0: Matrix.zero(2, 1), 1: Matrix([[Scalar.of(1), Scalar.of(1)]])}, {})


def test_eigen_exactness_tests_closed_combinations_of_eigenvectors():
    # with Delta = Id in degree 1 every vector is an eigenvector for 1, and
    # no basis vector is closed, but their closed combination (-1, 1) is not
    # exact; the restricted blocks are the complex's own, the identity
    from lieforms.cohomology import _eigen_exactness
    from lieforms.matrices import Matrix

    entry = _eigen_exactness(planted_complex(), {1: Matrix.identity(2)})
    assert entry.verdict == "fail"
    assert "(rational spectrum seen: ['1'])" in entry.lhs


def test_eigen_exactness_takes_generalised_eigenvectors():
    # Delta = [[1, 1], [0, 1]] is one Jordan block for 1, so every vector is
    # a generalised eigenvector and (-1, 1) must be tested.  Delta =
    # [[-1, -1], [1, 1]] is nilpotent with image the span of (-1, 1), so no
    # vector is, and the check passes: im Delta^2 = 0, not im Delta
    from lieforms.cohomology import _eigen_exactness
    from lieforms.matrices import Matrix

    one, zero = Scalar.of(1), Scalar.of(0)
    jordan = _eigen_exactness(planted_complex(), {1: Matrix([[one, one], [zero, one]])})
    nilpotent = _eigen_exactness(planted_complex(), {1: Matrix([[-one, -one], [one, one]])})
    assert (jordan.verdict, nilpotent.verdict) == ("fail", "pass")
    assert "['none']" in nilpotent.lhs


@pytest.mark.parametrize("name", ["su2xr", "h3xr"])
def test_basic_adjoint_reports_the_first_failing_pair(monkeypatch, name):
    # with d* doubled in the pool the left side doubles, so the first basis
    # pair with a nonzero pairing is reported, in row-major (j, b) order
    model, pack = model_pack(name)
    plant(monkeypatch, model, pack, "d*",
          operator_pool(model, pack).poly("d*").scale(Scalar.of(2)))
    [entry] = basic_adjoint_check(model, pack)
    assert entry.verdict == "fail"
    assert entry.line().startswith("FAIL  basic_adjoint.pairing: ")
    assert entry.line().endswith("[degree 2, basis pair (0,2): 2 vs 1]")


def test_contact_checks_refuse_a_kahler_pack():
    # a Kahler pack has no Reeb field, so it has no contact-level complex C
    # and no transversal package
    model, pack = model_pack("torus4")
    for check in (lambda: contact_foliation(pack), lambda: transversal_package(model, pack),
                  lambda: basic_adjoint_check(model, pack)):
        with pytest.raises(StructureError, match="^contact: a Kahler pack has no Reeb field$"):
            check()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_orthonormal_degrees_take_the_adjoint_without_elimination(name):
    # a degree with no Gram matrix is orthonormal, so adjoint_d is the
    # conjugate transpose; with the Gram matrices written out it is the
    # solution of G_k x = d_k^+ G_{k+1}.  The builtins' basic bases are
    # orthonormal too, so a copy of the full complex with G_2 = 2 Id puts a
    # non-orthonormal degree next to orthonormal ones
    from lieforms.cohomology import CochainComplex
    from lieforms.matrices import Matrix, solve

    model, pack = model_pack(name)
    full = full_complex(model, pack)
    assert not full.gram
    complexes = [full, CochainComplex(full.degrees, full.dims, full.diff,
                                      {2: Matrix.identity(full.dim(2)).scale(Scalar.of(2))})]
    if pack.kind != "kahler":
        complexes.append(basic_subcomplex(model, pack, pack.vertical_indices))
    for cx in complexes:
        for k in cx.degrees[:-1]:
            gram = [cx.gram.get(j, Matrix.identity(cx.dim(j))) for j in (k, k + 1)]
            assert cx.adjoint_d(k) == solve(gram[0], cx.d(k).conj_transpose() @ gram[1])


def test_gram_matrix_is_kept_only_off_coordinate_subspaces():
    # the builtins' basic and invariant bases span coordinate subspaces and
    # store no Gram matrix.  i_1 - i_4 commutes with d on h3xr (e1 and e4 are
    # central), and its kernel holds e1 + e4, which no coordinate subspace
    # does: there the Gram matrix is kept, and adjoint_d, computed once, is
    # the solution of G_k x = d_k^+ G_{k+1}
    from lieforms.matrices import Matrix, solve

    for name in BUILTIN_NAMES[2:]:
        model, pack = model_pack(name)
        basic = basic_subcomplex(model, pack, pack.vertical_indices)
        assert not basic.gram and not invariant_subcomplex(model, pack).gram, name
    model, pack = model_pack("h3xr")
    pool = operator_pool(model, pack)
    cx = FormComplex.from_constraints(model, pool.poly("d"),
                                      [pool.poly("i_1") - pool.poly("i_4")])
    assert sorted(cx.gram) == [1, 2, 3]
    assert not cx.d(1).is_zero()
    for k in cx.degrees[:-1]:
        gram = [cx.gram.get(j, Matrix.identity(cx.dim(j))) for j in (k, k + 1)]
        assert cx.adjoint_d(k) == solve(gram[0], cx.d(k).conj_transpose() @ gram[1])
        assert cx.adjoint_d(k) is cx.adjoint_d(k)


def test_eigen_exactness_prints_the_spectrum_in_numeric_order():
    # e9 with its rotations scaled by 3 has the nonzero spectrum {9, 18};
    # the model is built here, not in tests/data, where every file joins
    # the contact-model tests
    from lieforms.models import parse_model

    text = (DATA / "e9.alg").read_text()
    for a, b in (("1 3 -> 4 : 1", "1 3 -> 4 : 3"), ("1 4 -> 3 : -1", "1 4 -> 3 : -3"),
                 ("5 7 -> 8 : 1", "5 7 -> 8 : 3"), ("5 8 -> 7 : -1", "5 8 -> 7 : -3")):
        assert a in text
        text = text.replace(a, b)
    model, pack = parse_model(text, "e9_rotation_3")
    entry = record(transversal_package(model, pack),
                   "split_laplacian.eigen_exactness")
    assert entry.verdict == "pass"
    assert entry.lhs.endswith("(rational spectrum seen: ['9', '18'])")
