import pytest

import oracle
from lieforms.cohomology import (
    basic_adjoint_check,
    basic_subcomplex,
    full_complex,
    harmonic_space,
    invariant_subcomplex,
    split_laplacian,
    transversal_package,
)
from lieforms.forms import FormElement
from lieforms.matrices import nullspace, subspace_equal
from lieforms.models import StructureError
from lieforms.operators import form_to_column
from lieforms.splitting import lee_foliation, operator_pool, reeb_foliation, sigma_foliation

from conftest import model_pack, ops_for

ORACLE_MODELS = {
    "torus2": oracle.TORUS2, "torus4": oracle.TORUS4, "su2": oracle.SU2,
    "h3": oracle.H3, "h5": oracle.H5, "su2xr": oracle.SU2XR, "h3xr": oracle.H3XR,
}


def t(n, *ix):
    return FormElement.monomial(n, ix)


def test_betti_tables_match_oracle():
    for name, (dim, brackets) in ORACLE_MODELS.items():
        model, pack = model_pack(name)
        got = full_complex(model, pack).cohomology().betti_list()
        assert got == oracle.betti_table(dim, brackets), name


def test_basic_betti_match_oracle():
    cases = [
        ("su2", reeb_foliation, (3,)),
        ("h3", reeb_foliation, (3,)),
        ("h5", reeb_foliation, (5,)),
        ("su2xr", sigma_foliation, (1, 4)),
        ("h3xr", sigma_foliation, (1, 4)),
        ("su2xr", lee_foliation, (1,)),
        ("h3xr", lee_foliation, (1,)),
    ]
    for name, folf, span in cases:
        model, pack = model_pack(name)
        dim, brackets = ORACLE_MODELS[name]
        want = oracle.basic_betti_table(dim, brackets, span)
        got = basic_subcomplex(model, pack, folf(pack)).cohomology().betti_list()
        top = len(want)
        assert got[:top] == want and all(b == 0 for b in got[top:]), (name, span)


def test_harmonic_spaces():
    model, pack = model_pack("su2")
    assert harmonic_space(model, pack, 3) == [t(3, 1, 2, 3)]
    assert harmonic_space(model, pack, 0) == [FormElement.unit(3)]
    model, pack = model_pack("h3")
    assert harmonic_space(model, pack, 1) == [t(3, 1), t(3, 2)]
    # dimension equals the Betti number everywhere; elements closed and coclosed
    for name in ORACLE_MODELS:
        model, pack = model_pack(name)
        coh = full_complex(model, pack).cohomology()
        d = ops_for(name).d
        ds = d.adjoint()
        for k in range(model.dim + 1):
            basis = harmonic_space(model, pack, k)
            assert len(basis) == coh.betti[k]
            for f in basis:
                assert d.apply(f).is_zero() and ds.apply(f).is_zero()


def test_basic_subcomplex_h3_contents():
    model, pack = model_pack("h3")
    sub = basic_subcomplex(model, pack, reeb_foliation(pack))
    assert [sub.dim(k) for k in range(4)] == [1, 2, 1, 0]
    assert sub.basis_forms(1) == [t(3, 1), t(3, 2)]
    assert all(m.is_zero() for m in sub.diff.values())


def test_subcomplex_closure_guard():
    # d does not preserve the span of non-basic constraints; build a fake
    # constraint set by asking for i_r-kernel only on su2 (Lie_r missing)
    from lieforms.cohomology import FormComplex
    from lieforms.clifford import Clifford

    model, pack = model_pack("su2")
    ops = ops_for("su2")
    iv = Clifford.contraction(3, 3).to_blocks()
    # i_r-kernel alone is not d-stable on su2: d(t1) = t2^t3 has a reeb leg
    with pytest.raises(StructureError, match="d fails to preserve the subspace") as info:
        FormComplex.from_constraints(model, ops.d, [iv], "broken")
    assert info.value.check == "subcomplex"


def test_restriction_guard_on_an_operator_leaving_the_subcomplex():
    # e_r wedges the basic 1-form t1 of h3 into t1^t3, which has a reeb leg
    model, pack = model_pack("h3")
    sub = basic_subcomplex(model, pack, reeb_foliation(pack))
    pool = operator_pool(model, pack)
    assert sub.restrict(pool["L"])  # L = e_{omega0} keeps basic forms basic
    with pytest.raises(StructureError, match="operator fails to preserve the subspace") as info:
        sub.restrict(pool["e_r"])
    assert info.value.check == "subcomplex"


def test_equal_reeb_specs_share_one_basic_complex():
    model, pack = model_pack("h5")
    first, second = reeb_foliation(pack), reeb_foliation(pack)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    basic_subcomplex.cache_clear()
    assert basic_subcomplex(model, pack, first) is basic_subcomplex(model, pack, second)
    assert basic_subcomplex.cache_info().misses == 1


def test_invariant_subcomplex_su2():
    model, pack = model_pack("su2")
    inv = invariant_subcomplex(model, pack)
    assert [inv.dim(k) for k in range(4)] == [1, 1, 1, 1]
    assert inv.cohomology().betti_list() == [1, 0, 0, 1]


def test_split_laplacian_properties():
    for name, folf in (("su2", reeb_foliation), ("h3", reeb_foliation),
                       ("su2xr", sigma_foliation)):
        model, pack = model_pack(name)
        ds = split_laplacian(model, pack, folf(pack))
        assert ds.adjoint() == ds
        for k in range(model.dim + 1):
            for i in range(ds.blocks[k].nrows):
                diag = ds.blocks[k].entry(i, i)
                assert diag.im == 0 and diag.re >= 0


def test_split_laplacian_h3_kernel():
    # d1 = 0 and Lie_r = 0 on the Heisenberg model, so Delta_s vanishes and
    # its degree-1 kernel is everything, including the vertical covector
    model, pack = model_pack("h3")
    ds = split_laplacian(model, pack, reeb_foliation(pack))
    assert ds.is_zero()
    ker = nullspace(ds.blocks[1])
    assert ker.ncols == 3


def test_split_laplacian_su2_kernel_contains_eta():
    model, pack = model_pack("su2")
    ds = split_laplacian(model, pack, reeb_foliation(pack))
    assert (ds.blocks[1] @ form_to_column(pack.eta, 1)).is_zero()


def test_basic_adjoint_identity():
    for name, folf in (("h3", reeb_foliation), ("su2", reeb_foliation),
                       ("h5", reeb_foliation), ("su2xr", sigma_foliation),
                       ("su2xr", lee_foliation), ("h3xr", lee_foliation)):
        model, pack = model_pack(name)
        rep = basic_adjoint_check(model, pack, folf(pack))
        assert rep.passed(), (name, [e.line() for e in rep.entries])


def test_transversal_package_passes():
    for name, folf in (("su2", reeb_foliation), ("h3", reeb_foliation),
                       ("h5", reeb_foliation), ("su2xr", sigma_foliation),
                       ("h3xr", sigma_foliation)):
        model, pack = model_pack(name)
        rep = transversal_package(model, pack, folf(pack))
        assert rep.passed(), (name, [e.line() for e in rep.entries if not e.ok()])
        assert rep.entry("transversal.hard_lefschetz").verdict == "pass"
        assert rep.entry("transversal.pq_stability").verdict == "pass"
        assert rep.entry("split_laplacian.commutes_with_Pi_hor").verdict == "pass"
        # the i_v claim on the kernel is measured, not presumed
        assert rep.entry("split_laplacian.kernel_iv_vanishing").verdict == "noted"


def test_pq_stability_fails_when_w_moves_a_harmonic_class(monkeypatch):
    # a planted W sending theta^1, a basic harmonic 1-form of h5, to
    # theta^2 + eta moves it out of the basic harmonic space
    import lieforms.cohomology as co

    model, pack = model_pack("h5")
    pool = operator_pool(model, pack)
    planted = pool["W"] + pool[f"e_{pack.reeb_index}"] @ pool["i_1"]

    class PlantedPool:
        def __getitem__(self, ref):
            return planted if ref == "W" else pool[ref]

        def __getattr__(self, name):
            return getattr(pool, name)

    monkeypatch.setattr(co, "operator_pool", lambda *_: PlantedPool())
    rep = transversal_package(model, pack, reeb_foliation(pack))
    assert [e.name for e in rep.entries if not e.ok()] == ["transversal.pq_stability"]


def test_kernel_iv_claim_fails_where_predicted():
    model, pack = model_pack("su2")
    rep = transversal_package(model, pack, reeb_foliation(pack))
    assert "fails" in rep.entry("split_laplacian.kernel_iv_vanishing").failure


def test_harmonic_representatives_equal_kernel_of_laplacian():
    for name in ("su2", "h3", "su2xr"):
        model, pack = model_pack(name)
        cx = full_complex(model, pack)
        coh = cx.cohomology()
        for k in range(model.dim + 1):
            assert subspace_equal(coh.representatives[k], cx.harmonic_coords(k))


def test_poincare_duality_and_euler_characteristic():
    for name in ORACLE_MODELS:
        model, pack = model_pack(name)
        betti = full_complex(model, pack).cohomology().betti_list()
        assert betti == betti[::-1]
        if model.dim % 2:
            assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


# the smallest models the parser accepts have omega0 = 0; L must still
# have shift 2 there, or Lam, H and every cone and induced map go wrong
TRANSVERSAL_FREE = {
    "contact1": ("[algebra]\ndim = 1\n[structure]\nkind = sasakian\nreeb = 1\n",
                 [("basic", reeb_foliation, (1,))]),
    "vaisman2": ("[algebra]\ndim = 2\n[structure]\nkind = vaisman\nreeb = 2\nlee = 1\n"
                 "J: 1 -> 2\n",
                 [("sas", lee_foliation, (1,)), ("kah", sigma_foliation, (1, 2))]),
}


@pytest.mark.parametrize("name", TRANSVERSAL_FREE)
def test_models_without_transversal_directions(tmp_path, name):
    from lieforms.cli import COMMANDS, RunConfig, run
    from lieforms.models import parse_model

    text, foliations = TRANSVERSAL_FREE[name]
    path = tmp_path / f"{name}.alg"
    path.write_text(text)
    for command in COMMANDS:
        out = tmp_path / f"{command}.txt"
        assert run(RunConfig(command=command, model=str(path), output=str(out))) == 0, command
        assert "FAIL" not in out.read_text(), command

    model, pack = parse_model(text, name)
    assert model.brackets == ()
    assert full_complex(model, pack).cohomology().betti_list() == \
        oracle.betti_table(model.dim, {})
    for label, folf, span in foliations:
        want = oracle.basic_betti_table(model.dim, {}, span)
        got = basic_subcomplex(model, pack, folf(pack)).cohomology().betti_list()
        assert got[:len(want)] == want and not any(got[len(want):]), label


def test_cohomology_module_is_not_shadowed():
    # the package exports no function named after the submodule
    import lieforms.cohomology as co

    assert co.FormComplex.__name__ == "FormComplex"


@pytest.mark.parametrize("name, built, eliminated", [("h5", 2, 4), ("h3xr", 3, 5)])
def test_all_builds_each_complex_once(monkeypatch, capsys, name, built, eliminated):
    # h5: basic[5] and the invariant complex; h3xr: basic[1], basic[1, 4] and
    # invariant+basic[1].  Eliminations: those, the full complex and the
    # cone.  The cone's two shifted basic complexes take the basic report.
    import lieforms.cohomology as co
    from lieforms import cli

    for cached in (co.full_complex, co.basic_subcomplex, co.invariant_subcomplex):
        cached.cache_clear()
    counts = {"built": 0, "eliminated": 0}
    from_constraints, report = co.FormComplex.from_constraints, co.CohomologyReport

    def build(*args):
        counts["built"] += 1
        return from_constraints(*args)

    def eliminate(*args):
        counts["eliminated"] += 1
        return report(*args)

    monkeypatch.setattr(co.FormComplex, "from_constraints", staticmethod(build))
    monkeypatch.setattr(co, "CohomologyReport", eliminate)
    assert cli.main(["all", name]) == 0
    capsys.readouterr()
    assert counts == {"built": built, "eliminated": eliminated}


@pytest.mark.parametrize("name", ["h5", "su2", "su2xr", "h3xr"])
def test_all_builds_each_operator_once(monkeypatch, capsys, name):
    # the split of d along each foliation, the horizontal projector of each
    # spanning set and the blocks of each pool polynomial (the coframe
    # operators e_k, i_k and the Reeb and Lee operators among them) are
    # built once, however many layers read them; a memoised result handed
    # out again is the same object, not a second build
    import collections
    import importlib

    from lieforms import cli
    from lieforms.clifford import Clifford
    from lieforms.operators import GradedOperator

    modules = [importlib.import_module(f"lieforms.{m}")
               for m in ("models", "operators", "splitting", "cohomology", "cones", "cli")]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    built = collections.defaultdict(list)
    keys = {"foliation_split": lambda d, model, fol: fol.spanning,
            "horizontal_projector": lambda ngen, spanning: (ngen, spanning)}

    def counted(fname, fn):
        def wrapper(*args):
            out = fn(*args)
            built[fname, keys[fname](*args)].append(out)
            return out
        return wrapper

    for module in modules:
        for fname in keys:
            if fname in vars(module):
                monkeypatch.setattr(module, fname, counted(fname, vars(module)[fname]))
    # each list holds its operands, so no two of them share an id
    adjoints, blocks = [], []
    adjoint, to_blocks = GradedOperator.adjoint, Clifford.to_blocks

    def counted_adjoint(op):
        out = adjoint(op)
        adjoints.append((op, out))
        return out

    def counted_to_blocks(poly):
        blocks.append(poly)
        return to_blocks(poly)

    monkeypatch.setattr(GradedOperator, "adjoint", counted_adjoint)
    monkeypatch.setattr(Clifford, "to_blocks", counted_to_blocks)
    assert cli.main(["all", name]) == 0
    capsys.readouterr()
    assert {f for f, _ in built} == set(keys)
    builds = {key: len({id(out) for out in outs}) for key, outs in built.items()}
    assert {key: n for key, n in builds.items() if n > 1} == {}
    pool = operator_pool(*model_pack(name))
    assert blocks and len({id(p) for p in blocks}) == len(blocks)
    assert pool["i_r"] is pool[f"i_{model_pack(name)[1].reeb_index}"]
    # d1* and Lie_r* are adjoints of the polynomials, so the transversal
    # package, which takes {d1,d1*} and Lie_r* of the Reeb direction from the
    # pool, never takes the adjoint of the blocks of d1 or Lie_r
    assert [op for op, _ in adjoints if op is pool["d1"] or op is pool["Lie_r"]] == []
    assert pool["d1*"] == pool["d1"].adjoint()
    assert pool["Lie_r*"] == pool["Lie_r"].adjoint()


def test_horizontal_projector_is_the_vertical_degree_zero_projector():
    # the diagonal written directly against the sum of the reference
    # bidegree projectors with vertical degree 0; the basic adjoint check
    # pairs with basic (hence horizontal) forms, so no verdict depends on it
    from lieforms.cohomology import horizontal_projector
    from lieforms.operators import op_sum

    from block_reference import bidegree_projectors

    for ngen, spanning in ((3, (3,)), (5, (5,)), (4, (1, 3)), (6, (5, 6)), (4, ())):
        pi = bidegree_projectors(ngen, spanning)
        expected = op_sum(p for (h, v), p in pi.items() if v == 0)
        assert horizontal_projector(ngen, spanning) == expected, (ngen, spanning)


@pytest.mark.parametrize("name", ["su2xr", "h3xr"])
def test_basic_adjoint_reports_the_first_failing_pair(name):
    # with 2 Id in place of Pi_hor the left side doubles, so the first basis
    # pair with a nonzero pairing is reported, in row-major (j, b) order
    from lieforms.cohomology import _basic_adjoint
    from lieforms.operators import GradedOperator
    from lieforms.scalars import Scalar

    model, pack = model_pack(name)
    fol = lee_foliation(pack)
    two = GradedOperator.identity(model.dim).scale(Scalar.of(2))
    report = _basic_adjoint(model, pack, fol, basic_subcomplex(model, pack, fol), two)
    [entry] = report.entries
    assert entry.verdict == "fail"
    assert entry.line().startswith("FAIL  basic_adjoint.pairing: ")
    assert entry.line().endswith("[degree 2, basis pair (0,2): 2 vs 1]")
