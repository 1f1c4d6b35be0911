"""Foliation splitting of the differential and the operator relation tables.

The differential of a model with a rank-r foliation splits as
d = d_0 + ... + d_{r+1} by horizontal/vertical bidegree; for the rank-1
Reeb foliation d = d_0 + d_1 + d_2 with d_0 = e_r Lie_r and
d_2 = L i_r, and d_1 carries a transversal Hodge splitting.

The relation tables are the instrument of this package: each printed
identity is evaluated as exact matrices, and when the printed form fails
the nearest sign/argument/factor variant that passes is recorded instead
of hard-failing, because the tables being verified contain typos that
the verifier is meant to adjudicate.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .forms import FormElement, wedge
from .models import (
    LieModel,
    StructureError,
    StructureOperators,
    StructurePack,
    bidegree_projectors,
    structure_operators,
)
from .operators import (
    GradedOperator,
    ODD,
    RelationEntry,
    RelationReport,
    check_relation,
    first_order_reconstruction,
    op_sum,
    reeb_power,
    star_matrix,
    supercommutator,
)
from .scalars import HALF, I as IUNIT, Scalar


@dataclass(frozen=True)
class FoliationSpec:
    """Generator indices spanning an integrable distribution."""

    spanning: tuple[int, ...]

    def validate(self, model: LieModel):
        span = set(self.spanning)
        for i in span:
            for j in span:
                if i < j:
                    for k, c in model.bracket(i, j).items():
                        if k not in span and not c.is_zero():
                            raise StructureError(
                                "foliation",
                                f"[e_{i},e_{j}] has component e_{k} outside the span",
                            )

    @property
    def rank(self) -> int:
        return len(self.spanning)


def reeb_foliation(pack: StructurePack) -> FoliationSpec:
    return FoliationSpec((pack.reeb_index,))


def lee_foliation(pack: StructurePack) -> FoliationSpec:
    return FoliationSpec((pack.lee_index,))


def sigma_foliation(pack: StructurePack) -> FoliationSpec:
    return FoliationSpec(tuple(sorted((pack.lee_index, pack.reeb_index))))


@dataclass(frozen=True)
class FoliationSplit:
    """d = sum of components d_i: (h,v) -> (h+i, v+1-i)."""

    fol: FoliationSpec
    components: tuple[GradedOperator, ...]
    projectors: dict[tuple[int, int], GradedOperator]

    @property
    def d0(self) -> GradedOperator:
        return self.components[0]

    @property
    def d1(self) -> GradedOperator:
        return self.components[1]

    @property
    def d2(self) -> GradedOperator:
        return self.components[2]


def foliation_split(d: GradedOperator, model: LieModel, fol: FoliationSpec) -> FoliationSplit:
    """Split d by bidegree; exact reconstruction is asserted."""
    fol.validate(model)
    n = model.dim
    pi = bidegree_projectors(n, fol.spanning)
    comps = []
    for i in range(fol.rank + 2):
        # a component can have no bidegree to land in, so the sum starts at 0
        terms = [GradedOperator.zero(n, 1, ODD)]
        for (h, v), p in pi.items():
            tgt = (h + i, v + 1 - i)
            if tgt in pi:
                terms.append(pi[tgt] @ d @ p)
        comps.append(op_sum(terms, f"d{i}"))
    if op_sum(comps, "sum d_i") != d:
        raise StructureError("foliation", "bidegree components do not reconstruct d")
    return FoliationSplit(fol, tuple(comps), pi)


def hodge_split_d1(
    ops: StructureOperators, split: FoliationSplit
) -> tuple[GradedOperator, GradedOperator, GradedOperator]:
    """Transversal Hodge components of d_1 and the twisted differential.

    d1 must have components only in bidegrees (1,0) and (0,1); anything
    else signals a broken transversal complex structure.  The twisted
    differential is defined as d1c := I d1 I^{-1}; its printed
    alternatives are adjudicated in the relation tables.
    """
    d1 = split.d1
    pi = ops.pi_pq
    # with no transversal directions neither sum has a term, so both start at 0
    terms_10 = [GradedOperator.zero(d1.ngen, 1, ODD)]
    terms_01 = [GradedOperator.zero(d1.ngen, 1, ODD)]
    for (p, q, v), proj in pi.items():
        if (p + 1, q, v) in pi:
            terms_10.append(pi[(p + 1, q, v)] @ d1 @ proj)
        if (p, q + 1, v) in pi:
            terms_01.append(pi[(p, q + 1, v)] @ d1 @ proj)
    d1_10 = op_sum(terms_10, "d1^{1,0}")
    d1_01 = op_sum(terms_01, "d1^{0,1}")
    if d1_10 + d1_01 != d1:
        raise StructureError(
            "hodge", "d1 has components outside bidegrees (1,0) and (0,1): "
            "broken transversal complex structure"
        )
    d1c = (ops.I_aut @ d1 @ ops.I_inv).relabel("d1c")
    return d1_10, d1_01, d1c


def scalar_by_horizontal_degree(pi_bi, ngen: int, n_trans: int, label: str) -> GradedOperator:
    """The diagonal operator (h - n) on horizontal degree h."""
    return op_sum((p.scale(Scalar(Fraction(h - n_trans))) for (h, v), p in pi_bi.items()), label)


def zero_like(op: GradedOperator, label: str = "0") -> GradedOperator:
    return GradedOperator.zero(op.ngen, op.shift, op.parity, label)


def _comm(a, b):
    return supercommutator(a, b)


def _sl2_entries(report, L, Lam, H, scalar_op):
    two = Scalar(Fraction(2))
    report.add(check_relation("sl2.[H,L]", _comm(H, L), L.scale(two).relabel("2L"),
                              [("-2L", L.scale(-two))]))
    report.add(check_relation("sl2.[H,Lam]", _comm(H, Lam), Lam.scale(two).relabel("2Lam"),
                              [("-2Lam", Lam.scale(-two))]))
    report.add(check_relation("sl2.[L,Lam]", _comm(L, Lam), H))
    report.add(check_relation("sl2.H_scalar", H, scalar_op))


def _centrality_entries(report, group, center, others):
    for other in others:
        comm = _comm(center, other)
        report.add(check_relation(f"{group}.[{center.label},{other.label}]", comm, zero_like(comm)))


def _star_adjoint_entry(d: GradedOperator) -> RelationEntry:
    """Cross-check the metric adjoint against +-*d* degree by degree."""
    n = d.ngen
    ds = d.adjoint()
    signs = []
    for k in range(n + 1):
        # *d* : degree k -> N-k -> N-k+1 -> k-1
        sk = star_matrix(n, k)
        dk = d.blocks[n - k]
        sk2 = star_matrix(n, n - k + 1) if 0 <= n - k + 1 <= n else None
        if sk2 is None or dk.ncols != sk.nrows:
            signs.append(None)
            continue
        sds = sk2 @ dk @ sk
        target = ds.blocks[k]
        if target.is_zero() and sds.is_zero():
            signs.append(0)
        elif target == sds:
            signs.append(1)
        elif target == sds.scale(Scalar.of(-1)):
            signs.append(-1)
        else:
            return RelationEntry("aux.adjoint_vs_star", "d*", "+-*d*", "fail",
                                 failure=f"degree {k}: d* is not +-*d*")
    pattern = ",".join("." if s in (None, 0) else ("+" if s > 0 else "-") for s in signs)
    return RelationEntry("aux.adjoint_vs_star", "d*", "+-*d*", "pass",
                         variant=None, vacuous=all(s in (None, 0) for s in signs),
                         failure=f"sign pattern per degree: {pattern}")


def _first_order_entry(name, op) -> RelationEntry:
    rec = first_order_reconstruction(op)
    if rec == op or (rec.is_zero() and op.is_zero()):
        return RelationEntry(name, op.label, "first-order reconstruction", "pass",
                             vacuous=op.is_zero())
    return RelationEntry(name, op.label, "first-order reconstruction", "fail",
                         failure="operator is not determined by its generator values")


@functools.lru_cache(maxsize=None)
def kahler_relations(model: LieModel, pack: StructurePack) -> RelationReport:
    """The Kahler-type supersymmetry table on the full invariant complex."""
    ops = structure_operators(model, pack)
    n = model.dim
    report = RelationReport(model.name, "kahler supersymmetry table")

    d, L, Lam, H, W = ops.d, ops.L, ops.Lam, ops.H, ops.W
    dc = _comm(W, d).relabel("dc")
    ds = d.adjoint().relabel("d*")
    dcs = dc.adjoint().relabel("dc*")
    delta = _comm(d, ds).relabel("Delta")

    scalar_op = scalar_by_horizontal_degree(ops.pi_bidegree, n, ops.n_trans, "(p-n)Id")
    _sl2_entries(report, L, Lam, H, scalar_op)

    report.add(check_relation("weil.[W,d]", _comm(W, d), dc))
    report.add(check_relation("weil.[W,dc]", _comm(W, dc), (-d).relabel("-d"), [("+d", d)]))
    report.add(check_relation("weil.[W,d*]", _comm(W, ds), (-dcs).relabel("-dc*"),
                              [("+dc*", dcs)]))
    report.add(check_relation("weil.[W,dc*]", _comm(W, dcs), ds,
                              [("-d*", -ds), ("+d", d), ("-d", -d)]))

    report.add(check_relation("kodaira.[Lam,d]", _comm(Lam, d), dcs, [("-dc*", -dcs)]))
    report.add(check_relation("kodaira.[L,d*]", _comm(L, ds), (-dc).relabel("-dc"), [("+dc", dc)]))
    report.add(check_relation("kodaira.[Lam,dc]", _comm(Lam, dc), (-ds).relabel("-d*"), [("+d*", ds)]))
    report.add(check_relation("kodaira.[L,dc*]", _comm(L, dcs), d, [("-d", -d)]))

    report.add(check_relation("odd.{d,dc}", _comm(d, dc), zero_like(_comm(d, dc))))
    report.add(check_relation("odd.{d*,dc*}", _comm(ds, dcs), zero_like(_comm(ds, dcs))))
    report.add(check_relation("odd.{d,dc*}", _comm(d, dcs), zero_like(_comm(d, dcs))))
    report.add(check_relation("odd.{d*,dc}", _comm(ds, dc), zero_like(_comm(ds, dc))))
    report.add(check_relation("delta.{d,d*}", _comm(d, ds), delta))
    report.add(check_relation("delta.{dc,dc*}", _comm(dc, dcs), delta, [("-Delta", -delta)]))

    generators = [d, dc, ds, dcs, L, Lam, H, W, delta]
    _centrality_entries(report, "delta.central", delta, generators)

    # odd Heisenberg relations of the coframe multiplication/contraction pairs
    from .operators import contraction_operator, wedge_operator

    e_ops = [wedge_operator(FormElement.generator(n, k), f"e_{k}") for k in range(1, n + 1)]
    i_ops = [contraction_operator(n, k) for k in range(1, n + 1)]
    ident = GradedOperator.identity(n)
    for k in range(n):
        report.add(check_relation(f"heisenberg.{{e_{k+1},i_{k+1}}}",
                                  _comm(e_ops[k], i_ops[k]), ident))
    offdiag_bad = None
    for a in range(n):
        for b in range(n):
            if a != b and not _comm(e_ops[a], i_ops[b]).is_zero():
                offdiag_bad = (a + 1, b + 1)
    report.add(RelationEntry(
        "heisenberg.offdiagonal", "{e_a,i_b}, a!=b", "0",
        "pass" if offdiag_bad is None else "fail",
        failure=None if offdiag_bad is None else f"pair {offdiag_bad} nonzero"))

    pairs = pack.transversal_pairs()
    lsum = op_sum((e_ops[a - 1] @ e_ops[b - 1] for a, b in pairs), "sum e_a e_b")
    lami = op_sum((i_ops[a - 1] @ i_ops[b - 1] for a, b in pairs), "sum i_a i_b")
    report.add(check_relation("aux.L_as_wedge_pairs", L, lsum))
    report.add(check_relation("aux.Lam_as_contraction_pairs", Lam, lami,
                              [("-sum i_a i_b", -lami), ("sum i_b i_a", -lami)]))
    report.add(check_relation("aux.Lam_is_L_adjoint", Lam, L.adjoint().relabel("L*")))
    report.add(check_relation("aux.adjoint_involution", d.adjoint().adjoint().relabel("d**"), d))
    report.add(_star_adjoint_entry(d))
    report.add(check_relation("aux.d_squared", d @ d, zero_like(d @ d)))
    return report


@functools.lru_cache(maxsize=None)
def sasakian_relations(model: LieModel, pack: StructurePack) -> RelationReport:
    """The contact-model supersymmetry table for the Reeb foliation."""
    ops = structure_operators(model, pack)
    n = model.dim
    report = RelationReport(model.name, "sasakian supersymmetry table")

    d, L, Lam, H, W = ops.d, ops.L, ops.Lam, ops.H, ops.W
    e_r, i_r, lie_r = ops.e_r, ops.i_r, ops.lie_r
    ident = GradedOperator.identity(n)

    split = foliation_split(d, model, reeb_foliation(pack))
    d0, d1, d2 = split.d0, split.d1, split.d2
    d1_10, d1_01, d1c = hodge_split_d1(ops, split)
    d0s = d0.adjoint().relabel("d0*")
    d1s = d1.adjoint().relabel("d1*")
    d1cs = d1c.adjoint().relabel("d1c*")
    ds = d.adjoint().relabel("d*")
    delta1 = _comm(d1, d1s).relabel("Delta1")
    delta0 = _comm(d0, d0s).relabel("Delta0")

    def power1(a):
        return reeb_power(a, lie_r, 1)

    L1, Lam1, H1 = power1(L), power1(Lam), power1(H)
    ir1 = power1(i_r)

    # structural identities of the splitting
    report.add(check_relation("structure.d_reconstruction",
                              op_sum((d0, d1, d2), "d0+d1+d2"), d))
    report.add(check_relation("structure.d0_formula", d0, (e_r @ lie_r).relabel("e_r*Lie_r")))
    report.add(check_relation("structure.d2_formula", d2, (L @ i_r).relabel("L*i_r")))
    report.add(check_relation("structure.d0_squared", d0 @ d0, zero_like(d0 @ d0)))
    report.add(check_relation("structure.d2_squared", d2 @ d2, zero_like(d2 @ d2)))
    # d^2 = 0 in horizontal degree 2 gives {d0,d2} = -d1 d1 = -1/2{d1,d1}
    d1d1 = _comm(d1, d1)
    report.add(check_relation("structure.{d0,d2}=-{d1,d1}",
                              _comm(d0, d2), (-d1d1).relabel("-{d1,d1}"),
                              [("-1/2{d1,d1}", d1d1.scale(-HALF))]))

    scalar_op = scalar_by_horizontal_degree(ops.pi_bidegree, n, ops.n_trans, "(p-n)Id")
    _sl2_entries(report, L, Lam, H, scalar_op)
    for center in (L, Lam, H):
        _centrality_entries(report, "sl2.central", center, [W, delta1, delta0, d0, d0s])

    report.add(check_relation("weil.[W,d]", _comm(W, d), d1c))
    report.add(check_relation("weil.[W,d1]", _comm(W, d1), d1c))
    report.add(check_relation("weil.[W,d1c]", _comm(W, d1c), (-d1).relabel("-d1"), [("+d1", d1)]))
    report.add(check_relation("weil.[W,d1*]", _comm(W, d1s), (-d1cs).relabel("-d1c*"),
                              [("+d1c*", d1cs)]))
    report.add(check_relation("weil.[W,d1c*]", _comm(W, d1cs), d1,
                              [("-d1", -d1), ("+d1*", d1s), ("-d1*", -d1s)]))
    _centrality_entries(report, "weil.central", W, [e_r, i_r, d0, d0s, delta0, delta1])

    # {a,a} = 2a^2 for odd a, so d1^2 = -L(1) reads {d1,d1} = -2L(1)
    two = Scalar(Fraction(2))
    report.add(check_relation("squares.{d1,d1}", d1d1, (-L1).relabel("-L(1)"),
                              [("+L(1)", L1), ("-2L(1)", L1.scale(-two))]))
    report.add(check_relation("squares.{d1c,d1c}", _comm(d1c, d1c), (-L1).relabel("-L(1)"),
                              [("+L(1)", L1), ("-2L(1)", L1.scale(-two))]))
    report.add(check_relation("squares.{d1*,d1*}", _comm(d1s, d1s), Lam1,
                              [("-Lam(1)", -Lam1), ("2Lam(1)", Lam1.scale(two))]))
    report.add(check_relation("squares.{d1c*,d1c*}", _comm(d1cs, d1cs), Lam1,
                              [("-Lam(1)", -Lam1), ("2Lam(1)", Lam1.scale(two))]))
    report.add(check_relation("squares.{d1,d1c}", _comm(d1, d1c), zero_like(_comm(d1, d1c))))
    report.add(check_relation("squares.{d1*,d1c*}", _comm(d1s, d1cs), zero_like(_comm(d1s, d1cs))))

    report.add(check_relation("kodaira.[Lam,d1]", _comm(Lam, d1), d1cs, [("-d1c*", -d1cs)]))
    report.add(check_relation("kodaira.[L,d1*]", _comm(L, d1s), (-d1c).relabel("-d1c"),
                              [("+d1c", d1c)]))
    report.add(check_relation("kodaira.[Lam,d1c]", _comm(Lam, d1c), (-d1s).relabel("-d1*"),
                              [("+d1*", d1s)]))
    report.add(check_relation("kodaira.[L,d1c*]", _comm(L, d1cs), d1, [("-d1", -d1)]))

    mh1 = H1.scale(-HALF).relabel("-1/2 H(1)")
    report.add(check_relation("mixed.{d1*,d1c}", _comm(d1s, d1c), mh1,
                              [("+1/2 H(1)", H1.scale(HALF))]))
    report.add(check_relation("mixed.{d1,d1c*}", _comm(d1, d1cs), mh1,
                              [("+1/2 H(1)", H1.scale(HALF))]))

    report.add(check_relation("reeb_pair.{e_r,i_r}", _comm(e_r, i_r), ident))
    report.add(check_relation("reeb_pair.{e_r,e_r}", _comm(e_r, e_r), zero_like(_comm(e_r, e_r))))
    report.add(check_relation("reeb_pair.{i_r,i_r}", _comm(i_r, i_r), zero_like(_comm(i_r, i_r))))
    for x in (d1, d1s, d1c, d1cs, L, Lam, H, W, delta1):
        _centrality_entries(report, "reeb_pair.central", e_r, [x])
        _centrality_entries(report, "reeb_pair.central", i_r, [x])

    report.add(check_relation("laplacian.Delta1_def", delta1,
                              _comm(d1s, d1cs).relabel("{d1*,d1c*}"),
                              [("{d1c,d1c*}", _comm(d1c, d1cs)),
                               ("{d1,d1*}", _comm(d1, d1s))]))
    report.add(check_relation("laplacian.Delta1_conjugate", delta1,
                              _comm(d1c, d1cs).relabel("{d1c,d1c*}")))
    _centrality_entries(report, "laplacian.central", delta1,
                        [L, Lam, H, W, e_r, i_r, delta0])
    half = HALF
    report.add(check_relation("laplacian.{d1,Delta1}", _comm(d1, delta1),
                              power1(d1c).scale(-half).relabel("-1/2 d1c(1)"),
                              [("+1/2 d1c(1)", power1(d1c).scale(half)),
                               ("-1/2 d1c*(1)", power1(d1cs).scale(-half)),
                               ("+1/2 d1c*(1)", power1(d1cs).scale(half))]))
    report.add(check_relation("laplacian.{d1c,Delta1}", _comm(d1c, delta1),
                              power1(d1).scale(half).relabel("+1/2 d1(1)"),
                              [("-1/2 d1(1)", power1(d1).scale(-half))]))
    report.add(check_relation("laplacian.{d1*,Delta1}", _comm(d1s, delta1),
                              power1(d1cs).scale(-half).relabel("-1/2 d1c*(1)"),
                              [("+1/2 d1c*(1)", power1(d1cs).scale(half))]))
    report.add(check_relation("laplacian.{d1c*,Delta1}", _comm(d1cs, delta1),
                              power1(d1s).scale(half).relabel("+1/2 d1*(1)"),
                              [("-1/2 d1*(1)", power1(d1s).scale(-half))]))

    # auxiliary adjudications and cross-checks
    report.add(check_relation("aux.d0_is_e_r(1)", d0, power1(e_r).relabel("e_r(1)")))
    report.add(check_relation("aux.d0*_vs_i_r(1)", d0s, ir1.relabel("i_r(1)"),
                              [("-i_r(1)", -ir1)]))
    report.add(check_relation("aux.Delta0_vs_Lie^2", delta0,
                              (lie_r @ lie_r).relabel("Lie_r^2"),
                              [("-Lie_r^2", -(lie_r @ lie_r))]))
    report.add(check_relation("aux.d1c_consistency", _comm(W, d1),
                              (ops.I_aut @ d1 @ ops.I_inv).relabel("I d1 I^-1")))
    diff_hodge = (d1_01 - d1_10).relabel("d1^{0,1}-d1^{1,0}")
    report.add(check_relation("aux.d1c_vs_hodge_components", d1c, diff_hodge,
                              [("-(d1^{0,1}-d1^{1,0})", -diff_hodge),
                               ("i(d1^{0,1}-d1^{1,0})", diff_hodge.scale(IUNIT)),
                               ("-i(d1^{0,1}-d1^{1,0})", diff_hodge.scale(-IUNIT))]))
    halfsum = (d1 + d1c.scale(IUNIT)).scale(HALF).relabel("(d1+i d1c)/2")
    halfdiff = (d1 - d1c.scale(IUNIT)).scale(HALF)
    report.add(check_relation("aux.d1^{1,0}_formula", d1_10, halfsum,
                              [("(d1-i d1c)/2", halfdiff)]))
    report.add(check_relation("aux.adjoint(e_r)=i_r", e_r.adjoint().relabel("e_r*"), i_r))
    report.add(check_relation("aux.Lam_is_L_adjoint", Lam, L.adjoint().relabel("L*")))
    report.add(check_relation("aux.lie_r_skew", lie_r.adjoint().relabel("Lie_r*"),
                              (-lie_r).relabel("-Lie_r")))
    report.add(_star_adjoint_entry(d))
    report.add(_first_order_entry("aux.first_order.{L,d*}", _comm(L, ds)))
    report.add(check_relation("aux.d_squared", d @ d, zero_like(d @ d)))
    return report


@functools.lru_cache(maxsize=None)
def vaisman_structure_relations(model: LieModel, pack: StructurePack) -> RelationReport:
    """Pack-level identities of a Vaisman model on the invariant complex."""
    ops = structure_operators(model, pack)
    n = model.dim
    report = RelationReport(model.name, "vaisman structure table")
    d = ops.d

    dtheta = d.apply(pack.theta)
    report.add(RelationEntry("vaisman.d_theta", "d(theta)", "0",
                             "pass" if dtheta.is_zero() else "fail",
                             failure=None if dtheta.is_zero() else str(dtheta)))
    lhs = d.apply(pack.eta)
    rhs = pack.omega - wedge(pack.theta, pack.eta)
    eq = lhs == rhs
    report.add(RelationEntry("vaisman.structure_equation", "d(I theta)",
                             "omega - theta^(I theta)", "pass" if eq else "fail",
                             failure=None if eq else f"lhs={lhs}, rhs={rhs}"))
    report.add(RelationEntry("vaisman.omega_decomposition", "omega", "omega0 + theta^eta",
                             "pass" if pack.omega == pack.omega0 + wedge(pack.theta, pack.eta) else "fail"))
    report.add(check_relation("vaisman.lie_theta_zero", ops.lie_theta,
                              zero_like(ops.lie_theta)))
    report.add(check_relation("vaisman.{e_th,i_th}", _comm(ops.e_theta, ops.i_theta),
                              GradedOperator.identity(n)))
    report.add(check_relation("aux.lie_r_skew", ops.lie_r.adjoint().relabel("Lie_r*"),
                              (-ops.lie_r).relabel("-Lie_r")))
    report.add(check_relation("aux.d_squared", d @ d, zero_like(d @ d)))
    # Lie_r centrality against the named operators
    for x in (ops.L, ops.Lam, ops.H, ops.W, ops.e_r, ops.i_r, ops.e_theta, ops.i_theta):
        report.add(check_relation(f"central.[Lie_r,{x.label}]", _comm(ops.lie_r, x),
                                  zero_like(_comm(ops.lie_r, x))))
    return report


@functools.lru_cache(maxsize=None)
def table_operator_pool(model: LieModel, pack: StructurePack) -> list[GradedOperator]:
    """The generator pool used for antisymmetry and Jacobi guards."""
    ops = structure_operators(model, pack)
    n = model.dim
    pool = [ops.L, ops.Lam, ops.H, ops.W, GradedOperator.identity(n)]
    if pack.kind == "kahler":
        d = ops.d
        dc = _comm(ops.W, d).relabel("dc")
        pool += [d, d.adjoint().relabel("d*"), dc, dc.adjoint().relabel("dc*")]
    else:
        split = foliation_split(ops.d, model, reeb_foliation(pack))
        _, _, d1c = hodge_split_d1(ops, split)
        d1 = split.d1
        pool += [d1, d1.adjoint().relabel("d1*"), d1c, d1c.adjoint().relabel("d1c*"),
                 ops.e_r, ops.i_r]
    return pool


@functools.lru_cache(maxsize=None)
def pool_commutators(model: LieModel, pack: StructurePack) -> dict[tuple[int, int], GradedOperator]:
    """{pool[a], pool[b]} for every ordered pair of pool indices, each built
    from its own two compositions."""
    pool = table_operator_pool(model, pack)
    idx = range(len(pool))
    return {(a, b): supercommutator(pool[a], pool[b]) for a in idx for b in idx}


@functools.lru_cache(maxsize=None)
def antisymmetry_report(model: LieModel, pack: StructurePack) -> RelationEntry:
    """{a,b} = -(-1)^{~a~b}{b,a} over every pool pair, aggregated."""
    pool = table_operator_pool(model, pack)
    pairs = pool_commutators(model, pack)
    for (a, b), lhs in pairs.items():
        rhs = pairs[b, a] if pool[a].parity * pool[b].parity % 2 else -pairs[b, a]
        if lhs != rhs:
            return RelationEntry("superalgebra.antisymmetry",
                                 "{a,b}", "-(-1)^{ab}{b,a}", "fail",
                                 failure=f"pair ({pool[a].label},{pool[b].label})")
    return RelationEntry("superalgebra.antisymmetry",
                         f"{{a,b}} over {len(pool)}^2 pool pairs", "-(-1)^{ab}{b,a}", "pass")


@functools.lru_cache(maxsize=None)
def jacobi_report(model: LieModel, pack: StructurePack, exhaustive: bool,
                  sample_size: int = 60) -> RelationEntry:
    """Super Jacobi identity over pool triples, exhaustive or seeded sample.

    Pairwise supercommutators come from `pool_commutators` and are shared
    with the antisymmetry guard; per (relation, degree) pair the comparison
    is independent of the rest.
    """
    pool = table_operator_pool(model, pack)
    idx = range(len(pool))
    triples = [(a, b, c) for a in idx for b in idx for c in idx]
    label = f"exhaustive over {len(pool)}^3 pool triples"
    if not exhaustive:
        rng = random.Random(0)
        triples = rng.sample(triples, min(sample_size, len(triples)))
        label = f"seeded sample of {len(triples)} pool triples"
    pairs = pool_commutators(model, pack)
    for (a, b, c) in triples:
        lhs = supercommutator(pool[a], pairs[b, c])
        rhs1 = supercommutator(pairs[a, b], pool[c])
        rhs2 = supercommutator(pool[b], pairs[a, c])
        rhs = rhs1 - rhs2 if pool[a].parity * pool[b].parity % 2 else rhs1 + rhs2
        if lhs != rhs:
            return RelationEntry(
                "superalgebra.jacobi",
                f"triple ({pool[a].label},{pool[b].label},{pool[c].label})",
                "graded Jacobi identity", "fail")
    return RelationEntry("superalgebra.jacobi", label, "graded Jacobi identity", "pass")
