"""Exact cohomology, harmonic spaces and the transversal Hodge package.

Complexes are held in coordinates: per-degree dimensions, differentials,
and a Gram matrix only where the basis is not orthonormal (a nullspace
basis of a coordinate subspace is orthonormal).  Representatives are
always chosen in ker d orthogonal to im d, which agrees exactly with the
kernel of the Laplacian.

Each form complex of a (model, pack) is named by its constraint set
(`full_complex` and `basic_subcomplex` are cached), and a complex
computes its cohomology, the adjoint of each d_k and its harmonic
coordinates once.  `contact_complexes` chooses the
two complexes behind every contact-type check.
"""

from __future__ import annotations

import functools

from .clifford import Clifford, basis_dim, op_sum, supercommutator
from .matrices import (
    Matrix,
    nullspace,
    rank,
    rational_eigenvalues,
    solve,
    subspace_equal,
)
from .models import LieModel, StructureError, StructurePack
from .splitting import Foliation, operator_pool
from .verdicts import RelationEntry


class CochainComplex:
    """Coordinate cochain complex over consecutive degrees.

    diff[k] is d_k : degree k -> k+1, for k, k+1 in degrees; a degree with
    no Gram matrix has an orthonormal basis.
    """

    __slots__ = ("degrees", "dims", "diff", "gram", "_memo")

    def __init__(self, degrees: tuple[int, ...], dims: dict[int, int],
                 diff: dict[int, Matrix], gram: dict[int, Matrix]):
        for k in degrees:
            if k in diff and k + 1 in diff:
                if not (diff[k + 1] @ diff[k]).is_zero():
                    raise StructureError("complex", f"d^2 != 0 at degree {k}")
        self.degrees, self.dims, self.diff, self.gram = degrees, dims, diff, gram
        # cohomology and harmonic coordinates, each computed once
        self._memo: dict = {}

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def d(self, k: int) -> Matrix:
        return self.diff.get(k, Matrix.zero(self.dim(k + 1), self.dim(k)))

    # -- metric structure ------------------------------------------------

    def adjoint_d(self, k: int) -> Matrix:
        """Adjoint of d_k w.r.t. the Gram inner products, G_k^-1 d_k^+ G_{k+1}:
        degree k+1 -> k, computed once.  Between orthonormal degrees it is d_k^+."""
        if ("adjoint", k) not in self._memo:
            out = self._times_gram(self.d(k).conj_transpose(), k + 1)
            self._memo["adjoint", k] = solve(self.gram[k], out) if k in self.gram else out
        return self._memo["adjoint", k]

    def _times_gram(self, m: Matrix, k: int) -> Matrix:
        """m G_k, which is m itself when degree k is orthonormal."""
        return m @ self.gram[k] if k in self.gram else m

    def laplacian(self, k: int) -> Matrix:
        out = self.adjoint_d(k) @ self.d(k)
        if k - 1 in self.dims:
            out = out + self.d(k - 1) @ self.adjoint_d(k - 1)
        return out

    # -- cohomology --------------------------------------------------------

    def cohomology(self) -> dict[int, Matrix]:
        """Per degree, a basis of harmonic representatives as the columns
        of a matrix; computed once."""
        if "cohomology" not in self._memo:
            reps: dict[int, Matrix] = {}
            for k in self.degrees:
                stacked = self.d(k)
                if k - 1 in self.dims:
                    # orthogonality to im d: (d_{k-1})^† G x = 0
                    stacked = stacked.vstack(self._times_gram(self.d(k - 1).conj_transpose(), k))
                reps[k] = nullspace(stacked)
            self._memo["cohomology"] = reps
        return self._memo["cohomology"]

    def betti(self, k: int) -> int:
        """dim H^k, which is 0 outside the complex's degrees."""
        reps = self.cohomology()
        return reps[k].ncols if k in reps else 0

    def betti_list(self) -> list[int]:
        return [reps.ncols for reps in self.cohomology().values()]

    def harmonic_coords(self, k: int) -> Matrix:
        if ("harmonic", k) not in self._memo:
            self._memo["harmonic", k] = nullspace(self.laplacian(k))
        return self._memo["harmonic", k]


class FormComplex(CochainComplex):
    """A cochain complex of actual forms inside an ambient model algebra.

    embed[k] has the ambient coordinates of the degree-k basis as columns,
    and holds the identity at its free rows, the last nonzero row of each
    column; the coordinates of a form of the complex are its entries at
    those rows (`coordinates`).  d is restricted to the complex, and the
    Gram matrices come from the ambient orthonormal metric.
    """

    __slots__ = ("embed", "_select")

    def __init__(self, embed: dict[int, Matrix], select: dict[int, Matrix], d: Clifford,
                 gram: dict[int, Matrix]):
        # select[k] picks the free rows of embed[k]
        self.embed, self._select = embed, select
        super().__init__(tuple(embed), {k: m.ncols for k, m in embed.items()},
                         self._restrict(d, "d fails to preserve the subspace"), gram)

    @staticmethod
    def full(model: LieModel, d: Clifford) -> "FormComplex":
        # every row of the identity is free
        embed = {k: Matrix.identity(basis_dim(model.dim, k)) for k in range(model.dim + 1)}
        return FormComplex(embed, embed, d, {})

    @staticmethod
    def from_constraints(
        model: LieModel,
        d: Clifford,
        constraints: list[Clifford],
    ) -> "FormComplex":
        """Common kernel of the constraint operators, with d restricted.

        Raises StructureError when d fails to preserve the subspace.
        """
        n = model.dim
        embed: dict[int, Matrix] = {}
        select: dict[int, Matrix] = {}
        for k in range(n + 1):
            stacked = functools.reduce(Matrix.vstack, [op.block(k) for op in constraints],
                                       Matrix.zero(0, basis_dim(n, k)))
            basis = embed[k] = nullspace(stacked)
            # a nullspace basis is 1 at the free coordinate of each column,
            # which is the column's last nonzero row, and 0 at the others
            rows = select[k] = Matrix.unit_rows([max(col, default=0) for col in basis.columns()],
                                                basis.nrows)
            if rows @ basis != Matrix.identity(basis.ncols):
                raise ValueError("basis has no identity at the last nonzero row of its columns")
        # a degree spanning a coordinate subspace has an orthonormal basis
        gram = {k: g for k, m in embed.items()
                if (g := m.conj_transpose() @ m) != Matrix.identity(m.ncols)}
        return FormComplex(embed, select, d, gram)

    def coordinates(self, k: int, v: Matrix) -> Matrix | None:
        """The x with embed[k] @ x == v, or None when some column of v is not
        a degree-k form of the complex.  x is v at the free rows, so one
        product decides membership, with no elimination."""
        x = self._select[k] @ v
        return x if self.embed[k] @ x == v else None

    def restrict(self, op: Clifford) -> dict[int, Matrix]:
        """Coordinate blocks of an ambient operator preserving the subcomplex,
        computed once per polynomial.  `Clifford` has no hash, so the memo is
        keyed by the polynomial's id and keeps the polynomial alive."""
        key = ("restrict", id(op))
        if key not in self._memo:
            self._memo[key] = (op, self._restrict(op, "operator fails to preserve the subspace"))
        return self._memo[key][1]

    def induced(self, op: Clifford) -> dict[int, tuple[Matrix, int]]:
        """The map an ambient operator commuting with d induces on this
        complex's cohomology, H^k -> H^{k + shift}, with its rank in each
        degree (`induced_map`); computed once per polynomial, like `restrict`."""
        key = ("induced", id(op))
        if key not in self._memo:
            self._memo[key] = (op, induced_map(self.restrict(op), self, self,
                                               degree_offset=op.shift))
        return self._memo[key][1]

    def _restrict(self, op: Clifford, msg: str) -> dict[int, Matrix]:
        """Per degree k, the coordinates of op's image of the degree-k basis,
        from k to k + shift; StructureError(msg) when one leaves the complex."""
        out = {}
        for k, basis in self.embed.items():
            if k + op.shift in self.embed:
                x = self.coordinates(k + op.shift, op.block(k) @ basis)
                if x is None:
                    raise StructureError("subcomplex", msg)
                out[k] = x
        return out


# -- spec-level operations ----------------------------------------------


@functools.lru_cache(maxsize=None)
def full_complex(model: LieModel, pack: StructurePack) -> FormComplex:
    return FormComplex.full(model, operator_pool(model, pack).poly("d"))


def harmonic_space(model: LieModel, pack: StructurePack, k: int) -> Matrix:
    """Kernel of the full Laplacian {d, d*} at degree k, a basis of forms as
    the columns of a coordinate matrix."""
    return full_complex(model, pack).harmonic_coords(k)


@functools.lru_cache(maxsize=None)
def basic_subcomplex(model: LieModel, pack: StructurePack, fol: Foliation) -> FormComplex:
    """Forms killed by i_v and Lie_v for every v spanning the foliation: a
    span of rank at most 1, or the pack's vertical fields, whose
    integrability the pool certifies when it splits d along them."""
    constraints = [op for pair in _contractions(model, pack, fol) for op in pair]
    return FormComplex.from_constraints(model, operator_pool(model, pack).poly("d"), constraints)


def _contractions(model: LieModel, pack: StructurePack, fol: Foliation):
    """(i_v, Lie_v = {d, i_v}) for each v spanning the foliation."""
    pool = operator_pool(model, pack)
    return [(pool.poly(f"i_{v}"), pool.poly(("d", f"i_{v}"))) for v in fol]


def invariant_subcomplex(model: LieModel, pack: StructurePack) -> FormComplex:
    """The Lie_r-invariant part of the contact-level complex C, the
    cone-side stand-in for C: Lie_r-invariant forms, which for a Vaisman
    pack are also basic for the Lee foliation (`contact_foliation`)."""
    pool = operator_pool(model, pack)
    constraints = [pool.poly("Lie_r")] + [
        op for pair in _contractions(model, pack, contact_foliation(pack)) for op in pair]
    return FormComplex.from_constraints(model, pool.poly("d"), constraints)


def contact_foliation(pack: StructurePack) -> Foliation:
    """The foliation whose basic complex is the contact-level complex C:
    the empty one for a Sasakian pack (C is the full complex), the Lee
    foliation for a Vaisman pack."""
    if pack.kind == "kahler":
        raise StructureError("contact", "a Kahler pack has no Reeb field")
    return (pack.lee_index,) if pack.kind == "vaisman" else ()


def contact_complexes(model: LieModel, pack: StructurePack) -> tuple[FormComplex, FormComplex]:
    """(C, B): the two complexes behind every contact-type check.

    C is the contact-level complex: the full complex of a Sasakian pack,
    the Lee-basic complex of a Vaisman pack, which is itself a complex of
    Sasakian type (Ornea-Verbitsky 2003).  B is the basic complex of the
    pack's canonical foliation.  The empty foliation takes the full complex,
    which `from_constraints` would only rebuild by elimination.
    """
    lee = contact_foliation(pack)
    contact = basic_subcomplex(model, pack, lee) if lee else full_complex(model, pack)
    return contact, basic_subcomplex(model, pack, pack.vertical_indices)


def basic_adjoint_check(model: LieModel, pack: StructurePack) -> list[RelationEntry]:
    """g(d*_h a, b) = g(d*_bas a, b) over all pairs of basis forms of the
    contact-level complex C."""
    return [_basic_adjoint(model, pack, contact_complexes(model, pack)[0])]


def _basic_adjoint(model, pack, sub: FormComplex) -> RelationEntry:
    d_star = operator_pool(model, pack).poly("d*")
    checked = 0
    for k in sub.degrees[1:]:
        # entry (j, b) pairs the image of the j-th basic form of degree k
        # with the b-th basic form of degree k-1.  The printed side keeps
        # Pi_hor, but basic forms are horizontal and Pi_hor is self-adjoint,
        # so g(Pi_hor x, b) = g(x, b) and d* is paired directly
        beta = sub.embed[k - 1]
        lhs = (d_star.block(k) @ sub.embed[k]).conj_transpose() @ beta
        rhs = (beta @ sub.adjoint_d(k - 1)).conj_transpose() @ beta
        diff = (lhs - rhs).first_nonzero()
        if diff is not None:
            j, b, _ = diff
            return RelationEntry(
                "basic_adjoint.pairing", "g(Pi_hor d* a, b)", "g(d*_bas a, b)", "fail",
                failure=f"degree {k}, basis pair ({j},{b}): "
                        f"{lhs.entry(j, b)} vs {rhs.entry(j, b)}")
        checked += lhs.nrows * lhs.ncols
    return RelationEntry("basic_adjoint.pairing",
                         f"g(Pi_hor d* a, b) over {checked} basis pairs",
                         "g(d*_bas a, b)", "pass")


def induced_map(blocks: dict[int, Matrix], src: CochainComplex, tgt: CochainComplex,
                degree_offset: int = 0) -> dict[int, tuple[Matrix, int]]:
    """Map induced on cohomology by a chain map given in coordinates, with
    its rank: {k: (matrix, rank)}.

    blocks[k]: src degree k -> tgt degree k + degree_offset.  Classes are
    expressed in the representative bases by solving modulo exact vectors.
    """
    tgt_reps = tgt.cohomology()
    out = {}
    for k, reps_s in src.cohomology().items():
        tk = k + degree_offset
        if tk not in tgt_reps:
            continue
        reps_t = tgt_reps[tk]
        image = (blocks[k] @ reps_s if k in blocks
                 else Matrix.zero(tgt.dim(tk), reps_s.ncols))
        x = solve(reps_t.hstack(tgt.d(tk - 1)), image)
        if x is None:
            raise StructureError("chain_map", f"image class not closed at degree {k}")
        m = x.top(reps_t.ncols)
        out[k] = (m, rank(m))
    return out


def transversal_package(model: LieModel, pack: StructurePack) -> list[RelationEntry]:
    """Transversal Hodge package on the basic complex B.

    Hard Lefschetz, bigraded stability of harmonic classes, the basic
    adjoint identity, positivity and commutation of the split Laplacian,
    and the eigenvector-exactness argument at desk scale.
    """
    pool = operator_pool(model, pack)
    sub = contact_complexes(model, pack)[1]
    report = []
    n_t = pack.transversal_dim(model.dim)

    # hard Lefschetz: (L^e)_* = (L_*)^e, so L^(n-k) on H^k composes the
    # map L induces on basic cohomology
    lef = sub.induced(pool.poly("L"))
    ok = True
    detail = []
    for k in sub.degrees:
        e = n_t - k
        if e < 0 or 2 * n_t - k > max(sub.degrees):
            continue
        power = Matrix.identity(sub.betti(k))
        for j in range(k, k + 2 * e, 2):
            power = lef[j][0] @ power
        rk = rank(power)
        detail.append(f"L^{e}:H^{k}->H^{2*n_t-k} rank {rk}")
        ok = ok and rk == sub.betti(k) == sub.betti(2 * n_t - k)
    report.append(RelationEntry("transversal.hard_lefschetz",
                                "; ".join(detail) or "no middle degrees", "bijective",
                                "pass" if ok else "fail"))

    # (p,q)-stability of basic harmonic classes.  B is the basic complex of
    # the pack's canonical foliation, whose basic k-forms are horizontal of
    # bidegree (h, v) = (k, 0).  There W is diagonalisable with eigenvalue
    # i(p-q) on the (p,q) part, so each Pi^{p,q} is a polynomial in W, and a
    # space is stable under every Pi^{p,q} exactly when it is stable under W.
    stable = True
    for k in sub.degrees:
        harm = sub.embed[k] @ sub.harmonic_coords(k)
        if solve(harm, pool.poly("W").block(k) @ harm) is None:
            stable = False
    report.append(RelationEntry("transversal.pq_stability",
                                "Pi^{p,q} (basic harmonic)", "basic harmonic",
                                "pass" if stable else "fail"))

    report.append(_basic_adjoint(model, pack, sub))

    # split Laplacian, decided on polynomials
    ds, box, pi_hor = pool.poly("Delta_s"), pool.poly("Delta1"), pool.poly("Pi_hor")
    pairs = _contractions(model, pack, pack.vertical_indices)
    lies = [lie for _, lie in pairs]
    report.append(RelationEntry("split_laplacian.self_adjoint", "Delta_s*", "Delta_s",
                                "pass" if ds.adjoint() == ds else "fail"))
    psd = op_sum([box] + [lie @ lie.adjoint() for lie in lies])
    report.append(RelationEntry("split_laplacian.psd_decomposition",
                                "Delta_s", "{d1,d1*} + sum Lie_v Lie_v*",
                                "pass" if psd == ds else "fail"))
    ds_blocks = [ds.block(k) for k in range(model.dim + 1)]
    diag_ok = all(
        block.entry(i, i).im == 0 and block.entry(i, i).re >= 0
        for block in ds_blocks for i in range(block.nrows)
    )
    report.append(RelationEntry("split_laplacian.diagonal_nonnegative",
                                "<Delta_s a, a> for basis a", ">= 0",
                                "pass" if diag_ok else "fail"))
    report.append(RelationEntry("split_laplacian.commutes_with_Pi_hor",
                                "[Pi_hor, Delta_s]", "0",
                                "pass" if supercommutator(pi_hor, ds).is_zero() else "fail"))

    # kernel conditions: Lie_v always vanishes; i_v is reported per model
    lie_ok, iv_ok = True, True
    for k, block in enumerate(ds_blocks):
        ker = nullspace(block)
        for iv, lie in pairs:
            lie_ok = lie_ok and (lie.block(k) @ ker).is_zero()
            iv_ok = iv_ok and (iv.block(k) @ ker).is_zero()
    report.append(RelationEntry("split_laplacian.kernel_lie_vanishing",
                                "Lie_v on ker Delta_s", "0",
                                "pass" if lie_ok else "fail"))
    # the i_v condition does not follow from the positivity identity (which
    # has no i_v term) and genuinely fails here: eta lies in ker Delta_s
    report.append(RelationEntry(
        "split_laplacian.kernel_iv_vanishing", "i_v on ker Delta_s", "0",
        "noted",
        failure="holds" if iv_ok else
        "fails on this model: ker Delta_s contains vertical covectors"))

    # harmonic basic = closed, orthogonal to exact (subspace identity), and
    # its dimension computes basic cohomology
    for k in sub.degrees:
        if not subspace_equal(sub.harmonic_coords(k), sub.cohomology()[k]):
            report.append(RelationEntry("transversal.harmonic_vs_representatives",
                                        f"ker Delta_bas deg {k}", "closed & orthogonal to exact",
                                        "fail"))
            break
    else:
        report.append(RelationEntry("transversal.harmonic_vs_representatives",
                                    "ker Delta_bas", "closed & orthogonal to exact, all degrees",
                                    "pass"))
    hodge_iso = all(sub.harmonic_coords(k).ncols == sub.betti(k) for k in sub.degrees)
    report.append(RelationEntry("transversal.hodge_isomorphism",
                                "dim ker Delta_bas", "basic Betti number, all degrees",
                                "pass" if hodge_iso else "fail"))

    report.append(_eigen_exactness(sub, sub.restrict(ds)))
    return report


def _eigen_exactness(sub: CochainComplex, ds_blocks: dict[int, Matrix]) -> RelationEntry:
    """Closed eigenvectors of Delta_s, given by its blocks on the complex,
    are exact when their eigenvalue is nonzero.

    In degree k the sum of the generalised eigenspaces of A = ds_blocks[k]
    for nonzero eigenvalues is im A^j for the first j >= 1 with
    rank A^(j+1) = rank A^j (Fitting's lemma; j = 1 for a diagonalisable
    A).  With P = A^j its closed part is P ker(d_k P), and each of its
    vectors must be d_(k-1) of something.
    """
    ok = True
    seen = set()
    for k, block in ds_blocks.items():
        seen.update(r for r in rational_eigenvalues(block) if r)
        power = block
        while rank(power @ block) != rank(power):
            power = power @ block
        closed = power @ nullspace(sub.d(k) @ power)
        if solve(sub.d(k - 1), closed) is None:
            ok = False
    return RelationEntry("split_laplacian.eigen_exactness",
                         "closed eigenvectors, nonzero eigenvalues "
                         f"(rational spectrum seen: {[str(r) for r in sorted(seen)] or ['none']})",
                         "exact", "pass" if ok else "fail")
