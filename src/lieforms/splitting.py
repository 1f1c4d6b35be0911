"""Foliation splitting of the differential and the operator relation tables.

The differential of a model with a rank-r foliation splits as
d = d_0 + ... + d_{r+1} by horizontal/vertical bidegree; for the rank-1
Reeb foliation d = d_0 + d_1 + d_2 with d_0 = e_r Lie_r and
d_2 = L i_r, and d_1 carries a transversal Hodge splitting.

The relation tables are the instrument of this package: each printed
identity is decided exactly on normal-ordered Clifford polynomials
(`clifford.py`), and when the printed form fails
the nearest sign/argument/factor variant that passes is recorded instead
of hard-failing, because the tables being verified contain typos that
the verifier is meant to adjudicate.

The tables are data.  A row `(name, lhs, rhs, variants)` reads
"lhs = rhs, or failing that one of the variants".  The lhs is a name in
the model's `OperatorPool` or a pair `(a, b)` standing for the
supercommutator {a,b}.  The rhs and each variant is a pool name, a pair,
a `(text, coefficient, name)` multiple, or the literal 0, which marks an
identity designed to be zero.  Every string is printed as written.  A
row that is a check rather than an identity is a callable of the pool
returning its own `RelationEntry`.  Adding an identity is one line, e.g.

    ("kodaira.[L,d1*]", ("L", "d1*"), ("-d1c", NEG, "d1c"), [("+d1c", ONE, "d1c")]),
"""

from __future__ import annotations

import functools
import random

from .clifford import Clifford, generator_mask, op_sum, reeb_power, supercommutator
from .forms import form_text, monomial_basis, star
from .matrices import Matrix
from .models import (
    LieModel,
    StructureError,
    StructureOperators,
    StructurePack,
    structure_operators,
)
from .scalars import HALF, I as IUNIT, ONE, Scalar
from .verdicts import RelationEntry, check_relation

NEG, TWO = Scalar.of(-1), Scalar.of(2)

# a foliation is the sorted tuple of the generator indices spanning it
Foliation = tuple[int, ...]


def reeb_foliation(pack: StructurePack) -> Foliation:
    return (pack.reeb_index,)


def foliation_split(d: Clifford, model: LieModel, fol: Foliation) -> tuple[Clifford, ...]:
    """Split the polynomial d by bidegree into d_0, ..., d_{r+1} for a rank-r
    foliation, d_i : (h, v) -> (h+i, v+1-i).

    A term e_W i_C moves the horizontal degree by |W_hor| - |C_hor|, so
    d_i is the sum of the terms of d that move it by i; a term that fits no
    component means the components cannot reconstruct d.

    The model is not read.  The pool splits along the pack's vertical
    fields, whose span the pack rules it checks first close under the
    bracket.  A rank-1 span is closed.  For the Reeb and Lee fields r and
    l of a Vaisman pack, [e_r, e_l] = 0: its e_r component is 0, since
    d(eta) = omega0 has no vertical letter; its e_l component is 0, since
    d(theta) = 0; and a horizontal component c^h_rl is -c^l_rh, since a
    Killing Lie_r is skew on 1-forms, and c^l_rh = 0 since d(theta) = 0.
    """
    hor = ~generator_mask(fol)
    parts = [{} for _ in range(len(fol) + 2)]
    for (w, c), v in d.terms.items():
        i = (w & hor).bit_count() - (c & hor).bit_count()
        if not 0 <= i < len(parts):
            raise StructureError("foliation", "bidegree components do not reconstruct d")
        parts[i][w, c] = v
    return tuple(Clifford(d.ngen, d.shift, terms) for terms in parts)


def hodge_split_d1(ops: StructureOperators,
                   split: tuple[Clifford, ...]) -> tuple[Clifford, Clifford, Clifford]:
    """Transversal Hodge components of d_1 and the twisted differential
    d1c := {W, d1}, whose printed alternatives are adjudicated in the
    relation tables."""
    return _hodge_split(ops, split[1])[:3]


def _hodge_split(ops: StructureOperators, d1: Clifford) -> tuple[Clifford, ...]:
    """d1^{1,0}, d1^{0,1}, d1c := {W, d1} and the bracket {W, d1c} that
    certifies them: the one test that J is integrable, for every pack kind.

    d1 must have components only in bidegrees (1,0) and (0,1); anything
    else means that J is not integrable.  The pool splits d along the
    pack's vertical fields, so d1 moves the transversal degree p + q by 1:
    it is d itself for a Kahler pack, and a Lee field that rotates the
    transversal coframe moves only d0.
    A component moving (p,q) by (a,b), a + b = 1, is scaled by i(a-b) under
    [W, .], so {W, {W, d1}} = -d1 exactly when every component has
    a - b = +-1, that is (a,b) in {(1,0), (0,1)}.  Conjugation by
    I = i^{p-q} scales the component by i^{a-b}, which is i(a-b) only for
    a - b = +-1, so the same test reads {W, d1} = I d1 I^-1 and d1c is the
    twisted differential of the tables.  The components are (d1 -+ i d1c)/2.
    """
    d1c = supercommutator(ops.W, d1)
    w_d1c = supercommutator(ops.W, d1c)
    if w_d1c != -d1:
        raise StructureError("J", "J is not integrable: {W, d1} != I d1 I^-1")
    i_d1c = d1c.scale(IUNIT)
    return (d1 - i_d1c).scale(HALF), (d1 + i_d1c).scale(HALF), d1c, w_d1c


# -- the named operator pool --------------------------------------------


def _p_minus_n(p: "OperatorPool") -> Clifford:
    """(p-n)Id = N_hor - n, with N_hor = sum of e_k i_k over the horizontal
    coframe counting the horizontal degree p."""
    n = p.model.dim
    terms = {(bit, bit): ONE for bit in (1 << (k - 1) for k in p.pack.horizontal_indices(n))}
    terms[0, 0] = Scalar(-p.pack.transversal_dim(n))
    return Clifford(n, 0, terms)


_RECIPES = {
    # the Reeb and Lee operators are the coframe ones at the pack's indices
    "e_r": lambda p: p.poly(f"e_{p.pack.reeb_index}"),
    "i_r": lambda p: p.poly(f"i_{p.pack.reeb_index}"),
    "Lie_r": lambda p: p.poly(("d", f"i_{p.pack.reeb_index}")),
    "e_th": lambda p: p.poly(f"e_{p.pack.lee_index}"),
    "i_th": lambda p: p.poly(f"i_{p.pack.lee_index}"),
    "Lie_th": lambda p: p.poly(("d", f"i_{p.pack.lee_index}")),
    "Lam": lambda p: p.poly("L*"),
    "H": lambda p: p.poly(("L", "Lam")),
    "Id": lambda p: Clifford.identity(p.model.dim),
    "(p-n)Id": _p_minus_n,
    **{f"{x}*": (lambda p, x=x: p.poly(x).adjoint())
       for x in ("d", "d*", "dc", "d0", "d1", "d1c", "e_r", "Lie_r", "Lie_th", "L")},
    # Kahler
    "dc": lambda p: p.poly(("W", "d")),
    "Delta": lambda p: p.poly(("d", "d*")),
    "d*d": lambda p: p.poly("d") @ p.poly("d"),
    "sum e_a e_b": lambda p: op_sum(p.poly(f"e_{a}") @ p.poly(f"e_{b}")
                                    for a, b in p.pack.transversal_pairs()),
    "sum i_a i_b": lambda p: op_sum(p.poly(f"i_{a}") @ p.poly(f"i_{b}")
                                    for a, b in p.pack.transversal_pairs()),
    # contact: Laplacians and Reeb powers of the split along the vertical
    # fields (the Reeb split of a Sasakian pack)
    "Delta0": lambda p: p.poly(("d0", "d0*")),
    "Delta1": lambda p: p.poly(("d1", "d1*")),
    # the transversal package: the split Laplacian {d1, d1*} - sum_v Lie_v^2
    # and the horizontal projector prod_v i_v e_v, over the vertical fields
    "Delta_s": lambda p: op_sum([p.poly("Delta1")] + [
        -(p.poly(("d", f"i_{v}")) @ p.poly(("d", f"i_{v}"))) for v in p.pack.vertical_indices]),
    "Pi_hor": lambda p: functools.reduce(
        Clifford.__matmul__, (p.poly(f"i_{v}") @ p.poly(f"e_{v}") for v in p.pack.vertical_indices),
        p.poly("Id")),
    **{f"{x}(1)": (lambda p, x=x: reeb_power(p.poly(x), p.poly("Lie_r")))
       for x in ("L", "Lam", "H", "e_r", "i_r", "d1", "d1*", "d1c", "d1c*")},
    "d0+d1+d2": lambda p: op_sum((p.poly("d0"), p.poly("d1"), p.poly("d2"))),
    "e_r*Lie_r": lambda p: p.poly("e_r") @ p.poly("Lie_r"),
    "L*i_r": lambda p: p.poly("L") @ p.poly("i_r"),
    "d0*d0": lambda p: p.poly("d0") @ p.poly("d0"),
    "d2*d2": lambda p: p.poly("d2") @ p.poly("d2"),
    "Lie_r^2": lambda p: p.poly("Lie_r") @ p.poly("Lie_r"),
    "I d1 I^-1": lambda p: p.poly("d1c"),  # {W, d1} is I d1 I^-1 once certified
    "d1^{0,1}-d1^{1,0}": lambda p: p.poly("d1^{0,1}") - p.poly("d1^{1,0}"),
    "(d1+i d1c)/2": lambda p: (p.poly("d1") + p.poly("d1c").scale(IUNIT)).scale(HALF),
    "(d1-i d1c)/2": lambda p: (p.poly("d1") - p.poly("d1c").scale(IUNIT)).scale(HALF),
    # Vaisman forms as multiplications, with I theta = eta: d(theta) is
    # {d, e_th}, and omega is omega0 + theta ^ eta with omega0 the J-pair form L
    "d(theta)": lambda p: p.poly(("d", "e_th")),
    "d(I theta)": lambda p: p.poly(("d", "e_r")),
    "theta^eta": lambda p: p.poly("e_th") @ p.poly("e_r"),
    "omega": lambda p: p.poly("L") + p.poly("theta^eta"),
    "omega - theta^(I theta)": lambda p: p.poly("omega") - p.poly("theta^eta"),
    "omega0 + theta^eta": lambda p: p.poly("d(I theta)") + p.poly("theta^eta"),
}


class OperatorPool:
    """The named operators of one model, each built once.

    `pool.poly(name)` reads an operator's normal-ordered Clifford
    polynomial from the one memo `_polys`, building it from its recipe on
    first use; `pool.poly((a, b))` is the supercommutator {a, b}, memoised
    by name pair, and the pair may nest.  Building the pool puts d, L and
    W (the polynomials of `structure_operators`) and every coframe e_k and
    i_k in the memo, certifies the pack on them (`_certify`), then adds the
    split of d along the pack's vertical fields, d0, ..., d_{r+1}, and the
    Hodge split of its d1, whose certificate that J is integrable leaves
    d1^{1,0}, d1^{0,1}, d1c = {W, d1} and {W, d1c}; the command line builds
    it on load, so every command refuses a pack that breaks a rule before
    it reports.  The relation tables and the guards decide on the
    polynomials, and the complexes ask a polynomial for its blocks
    (`Clifford.block`), so names that share a polynomial share its blocks.
    The names are the operators' only labels: reports print them, never
    read them off an operator.
    """

    def __init__(self, model: LieModel, pack: StructurePack):
        self.model, self.pack = model, pack
        ops, n = structure_operators(model, pack), model.dim
        self._polys: dict = {"d": ops.d, "L": ops.L, "W": ops.W}
        for k in range(1, n + 1):
            self._polys[f"e_{k}"] = Clifford.wedge(n, k)
            self._polys[f"i_{k}"] = Clifford.contraction(n, k)
        self._certify()
        split = foliation_split(ops.d, model, pack.vertical_indices)
        self._polys.update((f"d{i}", part) for i, part in enumerate(split))
        d1_10, d1_01, d1c, w_d1c = _hodge_split(ops, split[1])
        self._polys.update({"d1^{1,0}": d1_10, "d1^{0,1}": d1_01, "d1c": d1c,
                            ("W", "d1"): d1c, ("W", "d1c"): w_d1c})

    def _certify(self):
        """Refuse, with StructureError, a pack that breaks a rule.  No rule
        reads the kind, only the Reeb and Lee fields the pack has.  A form a
        is its multiplication e_a, so da = 0 reads {d, e_a} = 0 and
        d(eta) = omega0 reads {d, e_r} = L, which also gives i_r d(eta) = 0,
        as L has no vertical letter.  What holds by construction is not
        checked: eta and theta are unit coframe generators, omega is
        omega0 + theta ^ eta, L is built from the J pairs, and
        d(eta) = omega0 with d(theta) = 0 leaves the leafwise volume closed.
        """
        pack, poly, n = self.pack, self.poly, self.model.dim
        used = [k for p in pack.j_pairs for k in p]
        if len(used) != len(set(used)):
            raise StructureError("J", f"J pairs overlap: {pack.j_pairs}")
        if pack.reeb_index is not None and poly("d(I theta)") != poly("L"):
            # e_{d eta}'s block from degree 0 is d(eta)'s coordinate column
            text = form_text(n, 2, poly("d(I theta)").block(0).columns()[0])
            raise StructureError(
                "deta", f"d(eta) = {text} incompatible with J pairs {pack.j_pairs}")
        # pairs that do not overlap and cover the coframe make its dimension even
        if {k for p in pack.transversal_pairs() for k in p} != set(pack.horizontal_indices(n)):
            raise StructureError("J", "J pairs must cover the horizontal coframe")
        # d(eta) = omega0 makes omega0 exact, so only a Kahler form can fail here
        if not poly(("d", "L")).is_zero():
            raise StructureError("deta", "fundamental form is not closed")
        # a vertical field is Killing when its Lie derivative is skew-adjoint;
        # its flow then keeps the metric, eta and omega0, and with them J
        for k in pack.vertical_indices:
            check, field, sub = (("contact", "Reeb", "r") if k == pack.reeb_index
                                 else ("vaisman", "Lee", "th"))
            if poly(f"Lie_{sub}*") != -poly(f"Lie_{sub}"):
                raise StructureError(
                    check, f"the {field} field is not Killing: Lie_{sub}* != -Lie_{sub}")
        if pack.lee_index is not None and not poly("d(theta)").is_zero():
            raise StructureError("vaisman", "lee form is not closed")

    def poly(self, ref) -> Clifford:
        op = self._polys.get(ref)
        if op is None:
            op = (supercommutator(self.poly(ref[0]), self.poly(ref[1])) if isinstance(ref, tuple)
                  else _RECIPES[ref](self))
            self._polys[ref] = op
        return op


@functools.lru_cache(maxsize=None)
def operator_pool(model: LieModel, pack: StructurePack) -> OperatorPool:
    return OperatorPool(model, pack)


# -- the evaluator ----------------------------------------------------------


def _text(term) -> str:
    """How a table term prints: a pool name as written, {a,b} for a pair,
    the given text of a multiple, 0 for the literal zero."""
    if term == 0:
        return "0"
    if isinstance(term, tuple):
        return term[0] if len(term) == 3 else "{%s,%s}" % term
    return term


def _term(pool: OperatorPool, lhs: Clifford, term) -> tuple[str, Clifford]:
    """A table term as its printed text and its polynomial."""
    if term == 0:
        op = Clifford.zero(lhs.ngen, lhs.shift)
    elif isinstance(term, tuple) and len(term) == 3:
        op = pool.poly(term[2]).scale(term[1])
    else:
        op = pool.poly(term)
    return _text(term), op


def _evaluate(model: LieModel, pack: StructurePack, table) -> list[RelationEntry]:
    """Decide every row of a relation table over the model's operator pool."""
    pool = operator_pool(model, pack)
    report = []
    for row in table:
        if callable(row):
            report.append(row(pool))
            continue
        name, lhs, rhs, variants = row
        left = pool.poly(lhs)
        # variants are built only when the printed form fails
        entry = check_relation(name, (_text(lhs), left), _term(pool, left, rhs),
                               (_term(pool, left, v) for v in variants))
        # a literal-zero right side asserts vanishing, so 0 = 0 is the claim
        # itself rather than a vacuous pass
        entry.vacuous = entry.vacuous and rhs != 0
        report.append(entry)
    return report


def central(group: str, centers, others) -> list:
    """Rows asserting {c, o} = 0 for each center c, then each other o."""
    return [(f"{group}.[{c},{o}]", (c, o), 0, ()) for c in centers for o in others]


def _star_map(ngen: int, k: int) -> list[tuple[int, bool]]:
    """The Hodge star from degree k to degree N - k as a signed permutation:
    for each basis monomial, the position of its complement and whether its
    sign is negative."""
    frame = tuple(range(1, ngen + 1))
    position = {m: i for i, m in enumerate(monomial_basis(ngen, ngen - k))}
    return [(position[comp], sign < 0)
            for comp, sign in (star(frame, m) for m in monomial_basis(ngen, k))]


def _star_adjoint_entry(pool: OperatorPool) -> RelationEntry:
    """Cross-check the metric adjoint against +-*d* degree by degree."""
    n, d, d_star = pool.model.dim, pool.poly("d"), pool.poly("d*")
    stars = [_star_map(n, k) for k in range(n + 1)]
    signs = [0]  # on 0-forms d* and *d* both map to degree -1
    for k in range(1, n + 1):
        target = d_star.block(k)
        # *d* : degree k -> N-k -> N-k+1 -> k-1 is d's block from degree
        # N-k with its columns and rows permuted and signed by the stars
        cols, back = d.block(n - k).columns(), stars[n - k + 1]
        entries = []
        for j, (c, neg) in enumerate(stars[k]):
            for r, v in cols[c].items():
                t, neg_t = back[r]
                entries.append((t, j, -v if neg ^ neg_t else v))
        block = Matrix.from_entries(target.nrows, target.ncols, entries)
        if target.is_zero() and block.is_zero():
            signs.append(0)
        elif target == block:
            signs.append(1)
        elif target == block.scale(NEG):
            signs.append(-1)
        else:
            return RelationEntry("aux.adjoint_vs_star", "d*", "+-*d*", "fail",
                                 failure=f"degree {k}: d* is not +-*d*")
    pattern = ",".join("." if not s else ("+" if s > 0 else "-") for s in signs)
    return RelationEntry("aux.adjoint_vs_star", "d*", "+-*d*", "pass",
                         variant=None, vacuous=not any(signs),
                         failure=f"sign pattern per degree: {pattern}")


def _first_order_entry(pool: OperatorPool) -> RelationEntry:
    """{L,d*} is determined by its values on 1 and the coframe generators,
    that is, every normal-ordered term has at most one contraction."""
    op = pool.poly(("L", "d*"))
    name = "aux.first_order.{L,d*}"
    if op.first_order():
        return RelationEntry(name, "{L,d*}", "first-order reconstruction", "pass",
                             vacuous=op.is_zero())
    return RelationEntry(name, "{L,d*}", "first-order reconstruction", "fail",
                         failure="operator is not determined by its generator values")


def _heisenberg_offdiagonal(pool: OperatorPool) -> RelationEntry:
    idx = range(1, pool.model.dim + 1)
    bad = [(a, b) for a in idx for b in idx
           if a != b and not pool.poly((f"e_{a}", f"i_{b}")).is_zero()]
    return RelationEntry("heisenberg.offdiagonal", "{e_a,i_b}, a!=b", "0",
                         "fail" if bad else "pass",
                         failure=f"pair {bad[-1]} nonzero" if bad else None)


# -- the tables -------------------------------------------------------------

SL2 = [
    ("sl2.[H,L]", ("H", "L"), ("2L", TWO, "L"), [("-2L", -TWO, "L")]),
    ("sl2.[H,Lam]", ("H", "Lam"), ("2Lam", TWO, "Lam"), [("-2Lam", -TWO, "Lam")]),
    ("sl2.[L,Lam]", ("L", "Lam"), "H", ()),
    ("sl2.H_scalar", "H", "(p-n)Id", ()),
]


def kahler_table(n: int) -> list:
    """The Kahler-type table; the Heisenberg rows run over the n coframe pairs."""
    return [
        *SL2,
        ("weil.[W,d]", ("W", "d"), "dc", ()),
        ("weil.[W,dc]", ("W", "dc"), ("-d", NEG, "d"), [("+d", ONE, "d")]),
        ("weil.[W,d*]", ("W", "d*"), ("-dc*", NEG, "dc*"), [("+dc*", ONE, "dc*")]),
        ("weil.[W,dc*]", ("W", "dc*"), "d*",
         [("-d*", NEG, "d*"), ("+d", ONE, "d"), ("-d", NEG, "d")]),
        ("kodaira.[Lam,d]", ("Lam", "d"), "dc*", [("-dc*", NEG, "dc*")]),
        ("kodaira.[L,d*]", ("L", "d*"), ("-dc", NEG, "dc"), [("+dc", ONE, "dc")]),
        ("kodaira.[Lam,dc]", ("Lam", "dc"), ("-d*", NEG, "d*"), [("+d*", ONE, "d*")]),
        ("kodaira.[L,dc*]", ("L", "dc*"), "d", [("-d", NEG, "d")]),
        ("odd.{d,dc}", ("d", "dc"), 0, ()),
        ("odd.{d*,dc*}", ("d*", "dc*"), 0, ()),
        ("odd.{d,dc*}", ("d", "dc*"), 0, ()),
        ("odd.{d*,dc}", ("d*", "dc"), 0, ()),
        ("delta.{d,d*}", ("d", "d*"), "Delta", ()),
        ("delta.{dc,dc*}", ("dc", "dc*"), "Delta", [("-Delta", NEG, "Delta")]),
        *central("delta.central", ("Delta",),
                 ("d", "dc", "d*", "dc*", "L", "Lam", "H", "W", "Delta")),
        # odd Heisenberg relations of the coframe multiplication/contraction pairs
        *((f"heisenberg.{{e_{k},i_{k}}}", (f"e_{k}", f"i_{k}"), "Id", ())
          for k in range(1, n + 1)),
        _heisenberg_offdiagonal,
        ("aux.L_as_wedge_pairs", "L", "sum e_a e_b", ()),
        ("aux.Lam_as_contraction_pairs", "Lam", "sum i_a i_b",
         [("-sum i_a i_b", NEG, "sum i_a i_b"), ("sum i_b i_a", NEG, "sum i_a i_b")]),
        ("aux.Lam_is_L_adjoint", "Lam", "L*", ()),
        ("aux.adjoint_involution", "d**", "d", ()),
        _star_adjoint_entry,
        ("aux.d_squared", "d*d", 0, ()),
    ]


SASAKIAN_TABLE = [
    # structural identities of the splitting
    ("structure.d_reconstruction", "d0+d1+d2", "d", ()),
    ("structure.d0_formula", "d0", "e_r*Lie_r", ()),
    ("structure.d2_formula", "d2", "L*i_r", ()),
    ("structure.d0_squared", "d0*d0", 0, ()),
    ("structure.d2_squared", "d2*d2", 0, ()),
    # d^2 = 0 in horizontal degree 2 gives {d0,d2} = -d1 d1 = -1/2{d1,d1}
    ("structure.{d0,d2}=-{d1,d1}", ("d0", "d2"), ("-{d1,d1}", NEG, ("d1", "d1")),
     [("-1/2{d1,d1}", -HALF, ("d1", "d1"))]),
    *SL2,
    *central("sl2.central", ("L", "Lam", "H"), ("W", "Delta1", "Delta0", "d0", "d0*")),
    ("weil.[W,d]", ("W", "d"), "d1c", ()),
    ("weil.[W,d1]", ("W", "d1"), "d1c", ()),
    ("weil.[W,d1c]", ("W", "d1c"), ("-d1", NEG, "d1"), [("+d1", ONE, "d1")]),
    ("weil.[W,d1*]", ("W", "d1*"), ("-d1c*", NEG, "d1c*"), [("+d1c*", ONE, "d1c*")]),
    ("weil.[W,d1c*]", ("W", "d1c*"), "d1",
     [("-d1", NEG, "d1"), ("+d1*", ONE, "d1*"), ("-d1*", NEG, "d1*")]),
    *central("weil.central", ("W",), ("e_r", "i_r", "d0", "d0*", "Delta0", "Delta1")),
    # {a,a} = 2a^2 for odd a, so d1^2 = -L(1) reads {d1,d1} = -2L(1)
    ("squares.{d1,d1}", ("d1", "d1"), ("-L(1)", NEG, "L(1)"),
     [("+L(1)", ONE, "L(1)"), ("-2L(1)", -TWO, "L(1)")]),
    ("squares.{d1c,d1c}", ("d1c", "d1c"), ("-L(1)", NEG, "L(1)"),
     [("+L(1)", ONE, "L(1)"), ("-2L(1)", -TWO, "L(1)")]),
    ("squares.{d1*,d1*}", ("d1*", "d1*"), "Lam(1)",
     [("-Lam(1)", NEG, "Lam(1)"), ("2Lam(1)", TWO, "Lam(1)")]),
    ("squares.{d1c*,d1c*}", ("d1c*", "d1c*"), "Lam(1)",
     [("-Lam(1)", NEG, "Lam(1)"), ("2Lam(1)", TWO, "Lam(1)")]),
    ("squares.{d1,d1c}", ("d1", "d1c"), 0, ()),
    ("squares.{d1*,d1c*}", ("d1*", "d1c*"), 0, ()),
    ("kodaira.[Lam,d1]", ("Lam", "d1"), "d1c*", [("-d1c*", NEG, "d1c*")]),
    ("kodaira.[L,d1*]", ("L", "d1*"), ("-d1c", NEG, "d1c"), [("+d1c", ONE, "d1c")]),
    ("kodaira.[Lam,d1c]", ("Lam", "d1c"), ("-d1*", NEG, "d1*"), [("+d1*", ONE, "d1*")]),
    ("kodaira.[L,d1c*]", ("L", "d1c*"), "d1", [("-d1", NEG, "d1")]),
    ("mixed.{d1*,d1c}", ("d1*", "d1c"), ("-1/2 H(1)", -HALF, "H(1)"),
     [("+1/2 H(1)", HALF, "H(1)")]),
    ("mixed.{d1,d1c*}", ("d1", "d1c*"), ("-1/2 H(1)", -HALF, "H(1)"),
     [("+1/2 H(1)", HALF, "H(1)")]),
    ("reeb_pair.{e_r,i_r}", ("e_r", "i_r"), "Id", ()),
    ("reeb_pair.{e_r,e_r}", ("e_r", "e_r"), 0, ()),
    ("reeb_pair.{i_r,i_r}", ("i_r", "i_r"), 0, ()),
    *(row for x in ("d1", "d1*", "d1c", "d1c*", "L", "Lam", "H", "W", "Delta1")
      for row in central("reeb_pair.central", ("e_r", "i_r"), (x,))),
    ("laplacian.Delta1_def", "Delta1", ("d1*", "d1c*"), [("d1c", "d1c*"), ("d1", "d1*")]),
    ("laplacian.Delta1_conjugate", "Delta1", ("d1c", "d1c*"), ()),
    *central("laplacian.central", ("Delta1",), ("L", "Lam", "H", "W", "e_r", "i_r", "Delta0")),
    ("laplacian.{d1,Delta1}", ("d1", "Delta1"), ("-1/2 d1c(1)", -HALF, "d1c(1)"),
     [("+1/2 d1c(1)", HALF, "d1c(1)"), ("-1/2 d1c*(1)", -HALF, "d1c*(1)"),
      ("+1/2 d1c*(1)", HALF, "d1c*(1)")]),
    ("laplacian.{d1c,Delta1}", ("d1c", "Delta1"), ("+1/2 d1(1)", HALF, "d1(1)"),
     [("-1/2 d1(1)", -HALF, "d1(1)")]),
    ("laplacian.{d1*,Delta1}", ("d1*", "Delta1"), ("-1/2 d1c*(1)", -HALF, "d1c*(1)"),
     [("+1/2 d1c*(1)", HALF, "d1c*(1)")]),
    ("laplacian.{d1c*,Delta1}", ("d1c*", "Delta1"), ("+1/2 d1*(1)", HALF, "d1*(1)"),
     [("-1/2 d1*(1)", -HALF, "d1*(1)")]),
    # auxiliary adjudications and cross-checks
    ("aux.d0_is_e_r(1)", "d0", "e_r(1)", ()),
    ("aux.d0*_vs_i_r(1)", "d0*", "i_r(1)", [("-i_r(1)", NEG, "i_r(1)")]),
    ("aux.Delta0_vs_Lie^2", "Delta0", "Lie_r^2", [("-Lie_r^2", NEG, "Lie_r^2")]),
    ("aux.d1c_consistency", ("W", "d1"), "I d1 I^-1", ()),
    ("aux.d1c_vs_hodge_components", "d1c", "d1^{0,1}-d1^{1,0}",
     [("-(d1^{0,1}-d1^{1,0})", NEG, "d1^{0,1}-d1^{1,0}"),
      ("i(d1^{0,1}-d1^{1,0})", IUNIT, "d1^{0,1}-d1^{1,0}"),
      ("-i(d1^{0,1}-d1^{1,0})", -IUNIT, "d1^{0,1}-d1^{1,0}")]),
    ("aux.d1^{1,0}_formula", "d1^{1,0}", "(d1+i d1c)/2", ["(d1-i d1c)/2"]),
    ("aux.adjoint(e_r)=i_r", "e_r*", "i_r", ()),
    ("aux.Lam_is_L_adjoint", "Lam", "L*", ()),
    ("aux.lie_r_skew", "Lie_r*", ("-Lie_r", NEG, "Lie_r"), ()),
    _star_adjoint_entry,
    _first_order_entry,
    ("aux.d_squared", "d*d", 0, ()),
]

VAISMAN_TABLE = [
    ("vaisman.d_theta", "d(theta)", 0, ()),
    ("vaisman.structure_equation", "d(I theta)", "omega - theta^(I theta)", ()),
    ("vaisman.omega_decomposition", "omega", "omega0 + theta^eta", ()),
    ("vaisman.lie_theta_zero", "Lie_th", 0, ()),
    ("vaisman.{e_th,i_th}", ("e_th", "i_th"), "Id", ()),
    ("aux.lie_r_skew", "Lie_r*", ("-Lie_r", NEG, "Lie_r"), ()),
    ("aux.d_squared", "d*d", 0, ()),
    *central("central", ("Lie_r",), ("L", "Lam", "H", "W", "e_r", "i_r", "e_th", "i_th")),
]


def kahler_relations(model: LieModel, pack: StructurePack) -> list[RelationEntry]:
    """The Kahler-type supersymmetry table on the full invariant complex."""
    return _evaluate(model, pack, kahler_table(model.dim))


def sasakian_relations(model: LieModel, pack: StructurePack) -> list[RelationEntry]:
    """The contact-model supersymmetry table for the Reeb foliation."""
    return _evaluate(model, pack, SASAKIAN_TABLE)


def vaisman_structure_relations(model: LieModel, pack: StructurePack) -> list[RelationEntry]:
    """Pack-level identities of a Vaisman model on the invariant complex."""
    return _evaluate(model, pack, VAISMAN_TABLE)


def guard_names(pack: StructurePack) -> tuple[str, ...]:
    """Pool names of the generators of the antisymmetry and Jacobi guards."""
    tail = (("d", "d*", "dc", "dc*") if pack.kind == "kahler"
            else ("d1", "d1*", "d1c", "d1c*", "e_r", "i_r"))
    return ("L", "Lam", "H", "W", "Id") + tail


def table_operator_pool(model: LieModel, pack: StructurePack) -> list[Clifford]:
    """The generator pool used for antisymmetry and Jacobi guards."""
    pool = operator_pool(model, pack)
    return [pool.poly(name) for name in guard_names(pack)]


def antisymmetry_report(model: LieModel, pack: StructurePack) -> RelationEntry:
    """{a,b} = -(-1)^{~a~b}{b,a} over every pair of guard generators."""
    names = guard_names(pack)
    poly = operator_pool(model, pack).poly
    for a in names:
        for b in names:
            rhs = poly((b, a)) if poly(a).parity * poly(b).parity % 2 else -poly((b, a))
            if poly((a, b)) != rhs:
                return RelationEntry("superalgebra.antisymmetry",
                                     "{a,b}", "-(-1)^{ab}{b,a}", "fail",
                                     failure=f"pair ({a},{b})")
    return RelationEntry("superalgebra.antisymmetry",
                         f"{{a,b}} over {len(names)}^2 pool pairs", "-(-1)^{ab}{b,a}", "pass")


# the number of triples a seeded Jacobi sample draws
JACOBI_SAMPLE = 60


def jacobi_report(model: LieModel, pack: StructurePack, exhaustive: bool) -> RelationEntry:
    """Super Jacobi identity over guard triples, exhaustive or seeded sample.

    Every bracket comes from the operator pool: the pairs, shared with the
    antisymmetry guard and the relation tables, and the nested brackets
    {g,{x,y}} and {{a,b},c}, which the pool memoises like any other, so
    a second report builds none.  A triple whose three inner pairs are zero
    passes unbuilt: each of its terms brackets a zero operand.
    """
    names = guard_names(pack)
    triples = [(a, b, c) for a in names for b in names for c in names]
    label = f"exhaustive over {len(names)}^3 pool triples"
    if not exhaustive:
        rng = random.Random(0)
        triples = rng.sample(triples, min(JACOBI_SAMPLE, len(triples)))
        label = f"seeded sample of {len(triples)} pool triples"
    poly = operator_pool(model, pack).poly
    for (a, b, c) in triples:
        if poly((b, c)).is_zero() and poly((a, b)).is_zero() and poly((a, c)).is_zero():
            continue
        # {a,{b,c}} = {{a,b},c} + (-1)^{ab} {b,{a,c}}
        lhs, rhs1, rhs2 = poly((a, (b, c))), poly(((a, b), c)), poly((b, (a, c)))
        rhs = rhs1 - rhs2 if poly(a).parity * poly(b).parity % 2 else rhs1 + rhs2
        if lhs != rhs:
            return RelationEntry("superalgebra.jacobi", f"triple ({a},{b},{c})",
                                 "graded Jacobi identity", "fail")
    return RelationEntry("superalgebra.jacobi", label, "graded Jacobi identity", "pass")
