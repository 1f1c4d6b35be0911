"""Acceptance suite: one test per exit criterion, exact equality throughout.

Every check is zero-tolerance: matrix identities are compared entry by
entry over the Gaussian rationals, dimension identities as integers, and
subspace statements as exact rank computations.  One sub-clause of
criterion 2 asks for the twisted-square identity with nonzero sides,
which no built-in model can give (d1 = 0 on all of them); it is checked
on the su(2) x aff(R) fixture in tests/data, where the printed form
holds up to a factor of 2.
"""

from pathlib import Path

import oracle
from lieforms.cli import RunConfig, run
from lieforms.clifford import supercommutator
from lieforms.cohomology import basic_subcomplex, full_complex, transversal_package
from lieforms.cones import (
    lefschetz_cone_package,
    sasakian_decomposition,
    sasakian_harmonic_check,
    vaisman_decomposition,
    vaisman_harmonic_check,
)
from lieforms.models import load_model_file
from lieforms.splitting import (
    antisymmetry_report,
    foliation_split,
    jacobi_report,
    kahler_relations,
    operator_pool,
    reeb_foliation,
    sasakian_relations,
)

from conftest import model_pack, pool_for, record, record_criterion

TWISTED_SQUARE_WITNESS = Path(__file__).parent / "data" / "su2_aff.alg"
SASAKIAN = ("su2", "h3", "h5")
VAISMAN = ("su2xr", "h3xr")


def test_criterion_1_kahler_susy_table():
    failures = []
    for name in ("torus2", "torus4"):
        model, pack = model_pack(name)
        rep = kahler_relations(model, pack)
        for e in rep:
            if not e.ok:
                failures.append((name, e.line()))
        # the sl(2) weight of the lowering operator is -2; the printed +2
        # is the one typo in the table and must be adjudicated, not ignored
        if record(rep, "sl2.[H,Lam]").variant != "-2Lam":
            failures.append((name, "missing [H,Lam] adjudication"))
        if record(rep, "sl2.H_scalar").verdict != "pass":
            failures.append((name, "H is not (p-n)Id"))
        for key in ("delta.{d,d*}", "delta.{dc,dc*}"):
            if not record(rep, key).ok:
                failures.append((name, key))
        for e in rep:
            if e.name.startswith("delta.central") and e.verdict != "pass":
                failures.append((name, e.name))
    ok = record_criterion(1, "Kahler supersymmetry table exact on torus2/torus4",
                          not failures)
    assert ok, failures


def test_criterion_2_sasakian_susy_table():
    as_printed_groups = ("structure.", "squares.", "kodaira.", "mixed.", "reeb_pair.")
    failures = []
    for name in SASAKIAN:
        model, pack = model_pack(name)
        rep = sasakian_relations(model, pack)
        for e in rep:
            if any(e.name.startswith(g) for g in as_printed_groups):
                if e.verdict != "pass":
                    failures.append((name, e.line()))
            elif e.name.startswith(("sl2.", "weil.", "laplacian.")):
                if not e.ok:
                    failures.append((name, e.line()))
        # the sl(2) relations hold in their usual form, with the one
        # printed sign typo named by the report
        hl = record(rep, "sl2.[H,Lam]")
        if not (hl.verdict == "pass" or hl.variant == "-2Lam"):
            failures.append((name, "sl2.[H,Lam] unresolved"))
        # the report must name the variant wherever a printed form fails
        for key in ("weil.[W,d1c*]", "laplacian.Delta1_def"):
            e = record(rep, key)
            if e.verdict != "variant" or not e.variant:
                failures.append((name, f"{key} missing variant adjudication"))
        if record(rep, "squares.{d1,d1}").verdict != "pass":
            failures.append((name, "twisted square identity"))
    ok = record_criterion(
        2, "sasakian supersymmetry table on su2/h3/h5 (variants named)", not failures)
    assert ok, failures


def test_criterion_2_nonzeroness_clause_as_stated():
    """The criterion demands the twisted square {d1,d1} = -L(1) seen with
    both sides nonzero.

    On su2 that is impossible: d1 vanishes identically (every horizontal
    bracket lands in the Reeb direction) and L(1) = L Lie_r = 0 because
    Lie_r's image consists of horizontal 1-forms that wedge to zero with
    the transversal area form in dimension 3, so the entry holds only as
    0 = 0 and the report must flag it vacuous.

    The witness is su(2) x aff(R), where d1 != 0 and L(1) != 0.  With
    d0 = e_r Lie_r, d2 = L i_r and Lie_r commuting with L, e_r and i_r,
    {d0,d2} = L(1), and the horizontal-degree-2 part of d^2 = 0 gives
    d1 d1 = -{d0,d2} = -L(1).  For an odd operator {d1,d1} = 2 d1 d1, so
    the printed form is off by a factor of 2 and the report must name the
    variant -2L(1).
    """
    model, pack = model_pack("su2")
    e = record(sasakian_relations(model, pack), "squares.{d1,d1}")
    vacuous_on_su2 = (e.verdict, e.vacuous) == ("pass", True)

    model, pack = load_model_file(str(TWISTED_SQUARE_WITNESS))
    poly = operator_pool(model, pack).poly
    d1 = foliation_split(poly("d"), model, reeb_foliation(pack))[1]
    L1 = poly("L") @ poly("Lie_r")
    both_nonzero = not d1.is_zero() and not L1.is_zero()
    identity_holds = d1 @ d1 == -L1
    e = record(sasakian_relations(model, pack), "squares.{d1,d1}")
    adjudicated = (e.verdict, e.variant, e.vacuous) == ("variant", "-2L(1)", False)
    record_criterion(
        2, "twisted square {d1,d1} = -2L(1) with nonzero sides on su(2)xaff(R); "
           "0 = 0 on su2", vacuous_on_su2 and both_nonzero and identity_holds and adjudicated)
    assert vacuous_on_su2, "su2 should give {d1,d1} = -L(1) only as 0 = 0"
    assert both_nonzero, "the su(2)xaff(R) witness must have d1 != 0 and L(1) != 0"
    assert identity_holds, "d1 d1 = -L(1) fails on the su(2)xaff(R) witness"
    assert adjudicated, e.line()


def test_criterion_3_splitting_identities():
    failures = []
    for name in SASAKIAN:
        model, pack = model_pack(name)
        poly = pool_for(name).poly
        d0, d1, d2 = foliation_split(poly("d"), model, reeb_foliation(pack))
        if (d0 + d1 + d2) != poly("d"):
            failures.append((name, "reconstruction"))
        if d0 != poly("e_r") @ poly("Lie_r"):
            failures.append((name, "d0 formula"))
        if d2 != poly("L") @ poly("i_r"):
            failures.append((name, "d2 formula"))
        if not (d0 @ d0).is_zero() or not (d2 @ d2).is_zero():
            failures.append((name, "squares"))
        # the horizontal-degree-2 part of d^2 = 0
        if supercommutator(d0, d2) != -(d1 @ d1):
            failures.append((name, "{d0,d2} = -d1 d1"))
    ok = record_criterion(3, "splitting identities d = d0+d1+d2 with the "
                             "product formulas, on every contact builtin",
                          not failures)
    assert ok, failures


def test_criterion_4_cone_equivalence():
    failures = []
    for name in SASAKIAN:
        model, pack = model_pack(name)
        verdict = lefschetz_cone_package(model, pack)
        if not all(r.ok for r in verdict):
            failures.append((name, [r.line() for r in verdict if not r.ok]))
    ok = record_criterion(4, "cone identification exact and long exact sequence "
                             "exact at every node, on every contact builtin",
                          not failures)
    assert ok, failures


EXPECTED_BETTI = {
    "torus2": [1, 2, 1],
    "torus4": [1, 4, 6, 4, 1],
    "su2": [1, 0, 0, 1],
    "h3": [1, 2, 2, 1],
    "h5": [1, 4, 5, 5, 4, 1],
    "su2xr": [1, 1, 0, 1, 1],
    "h3xr": [1, 3, 4, 3, 1],
}
EXPECTED_BASIC = {
    ("h3", (3,)): [1, 2, 1],
    ("su2", (3,)): [1, 0, 1],
    ("su2xr", (1, 4)): [1, 0, 1],
}
ORACLE_MODELS = {
    "torus2": oracle.TORUS2, "torus4": oracle.TORUS4, "su2": oracle.SU2,
    "h3": oracle.H3, "h5": oracle.H5, "su2xr": oracle.SU2XR, "h3xr": oracle.H3XR,
}


def test_criterion_5_betti_tables_against_oracle():
    failures = []
    for name, want in EXPECTED_BETTI.items():
        model, pack = model_pack(name)
        got = full_complex(model, pack).betti_list()
        oracle_says = oracle.betti_table(*ORACLE_MODELS[name])
        if not (got == want == oracle_says):
            failures.append((name, got, want, oracle_says))
    for (name, span), want in EXPECTED_BASIC.items():
        model, pack = model_pack(name)
        got = basic_subcomplex(model, pack, pack.vertical_indices).betti_list()
        oracle_says = oracle.basic_betti_table(*ORACLE_MODELS[name], span)
        top = len(want)
        if not (span == pack.vertical_indices and got[:top] == want == oracle_says
                and all(b == 0 for b in got[top:])):
            failures.append((name, span, got, want, oracle_says))
    ok = record_criterion(5, "Betti tables equal the frozen values and the "
                             "independent row-reduction oracle", not failures)
    assert ok, failures


def test_criterion_6_sasakian_decomposition():
    failures = []
    for name in SASAKIAN:
        model, pack = model_pack(name)
        verdict = sasakian_decomposition(model, pack)
        if not all(r.ok for r in verdict):
            failures.append((name, "sequences"))
    model, pack = model_pack("su2")
    verdict = sasakian_decomposition(model, pack)
    row0 = record(verdict, 0)
    if not (row0.actual == 1 and row0.claimed == 0 and row0.headline_ok is False):
        failures.append(("su2", "headline discrepancy at degree 0 not detected"))
    note = record(verdict, "decomposition.headline_vs_proof")
    import ast

    reported = (ast.literal_eval(note.failure.split("degrees ")[1].split(";")[0])
                if "disagrees" in note.failure else [])
    if 0 not in reported:
        failures.append(("su2", "discrepancy not reported"))
    ok = record_criterion(6, "proof sequences reproduce the full Betti numbers; "
                             "headline/proof discrepancy detected at degree 0",
                          not failures)
    assert ok, failures


def test_criterion_7_sasakian_harmonic_forms():
    failures = []
    for name in ("su2", "h3"):
        model, pack = model_pack(name)
        verdict = sasakian_harmonic_check(model, pack)
        for row in verdict:
            if not row.ok:
                failures.append((name, row.line()))
    ok = record_criterion(7, "constructed harmonic spaces equal ker Delta "
                             "degreewise as subspaces on su2 and h3", not failures)
    assert ok, failures


def test_criterion_8_vaisman_theorems():
    failures = []
    for name in VAISMAN:
        model, pack = model_pack(name)
        dec = vaisman_decomposition(model, pack)
        if not all(r.ok for r in dec):
            failures.append((name, "theta splitting"))
        harm = vaisman_harmonic_check(model, pack)
        if not all(r.ok for r in harm):
            failures.append((name, "harmonic assembly"))
        if record(harm, "harmonic.assembly").verdict != "pass":
            failures.append((name, "assembly entry"))
    ok = record_criterion(8, "Lee-form splitting of cohomology and harmonic "
                             "spaces on both Vaisman builtins", not failures)
    assert ok, failures


def test_criterion_9_transversal_hodge_package():
    failures = []
    for name in SASAKIAN + VAISMAN:
        rep = transversal_package(*model_pack(name))
        for key in ("transversal.hard_lefschetz", "transversal.pq_stability",
                    "basic_adjoint.pairing", "split_laplacian.self_adjoint",
                    "split_laplacian.psd_decomposition",
                    "split_laplacian.diagonal_nonnegative",
                    "split_laplacian.commutes_with_Pi_hor",
                    "split_laplacian.eigen_exactness"):
            if record(rep, key).verdict != "pass":
                failures.append((name, key))
    ok = record_criterion(9, "transversal package: hard Lefschetz, bigraded "
                             "stability, basic adjoint, split-Laplacian "
                             "positivity and commutation", not failures)
    assert ok, failures


def test_criterion_10_structural_guards(tmp_path):
    failures = []
    for name in ("su2", "h3"):
        model, pack = model_pack(name)
        if not jacobi_report(model, pack, exhaustive=True).ok:
            failures.append((name, "jacobi"))
        if not antisymmetry_report(model, pack).ok:
            failures.append((name, "antisymmetry"))
    for name in ("h5", "su2xr", "h3xr"):
        model, pack = model_pack(name)
        if not jacobi_report(model, pack, exhaustive=False).ok:
            failures.append((name, "jacobi sample"))
    for name in ("su2", "h3", "h5"):
        model, pack = model_pack(name)
        betti = full_complex(model, pack).betti_list()
        if betti != betti[::-1]:
            failures.append((name, "poincare duality"))
        if sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
            failures.append((name, "euler characteristic"))
    for fmt in ("text", "json", "csv"):
        paths = []
        for tag in ("a", "b"):
            p = tmp_path / f"det-{tag}.{fmt}"
            assert run(RunConfig(command="check", model="h3", format=fmt,
                                 output=str(p))) == 0
            paths.append(p.read_bytes())
        if paths[0] != paths[1]:
            failures.append((fmt, "nondeterministic output"))
    ok = record_criterion(10, "exhaustive Jacobi pool, duality/Euler guards, "
                              "byte-deterministic output", not failures)
    assert ok, failures
