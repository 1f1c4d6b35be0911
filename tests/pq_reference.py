"""Reference (p,q) bigrading by Lagrange interpolation in W.

The engine never builds I = i^{p-q}, the algebra automorphism induced by
J: it certifies the Hodge split of d1 as {W, {W, d1}} = -d1, takes
I d1 I^-1 to be {W, d1}, and decides (p,q)-stability, all through W alone.
This module keeps the spectral construction those replaced, as an
independent reference: on each (horizontal, vertical) degree block W acts
on the (p,q) part as i(p-q), the candidate eigenvalues are finite, so each
Pi^{p,q,v} is an explicit polynomial in W there.  I, the Hodge components of d1 and (p,q)-stability
are then read off the projectors.
"""

from lieforms.forms import monomial_basis
from lieforms.matrices import Matrix, solve
from lieforms.models import structure_operators
from lieforms.scalars import I, ONE, Scalar

from block_reference import EVEN, ODD, Blocks, add, blocks, compose, scale


def pq_projectors(ngen, W, vertical, n_trans) -> dict[tuple[int, int, int], Blocks]:
    """{(p, q, v): Pi^{p,q,v}}, each a Lagrange polynomial in W on its block."""
    vert = set(vertical)
    parts: dict[tuple[int, int, int], dict[int, Matrix]] = {}
    for k in range(ngen + 1):
        basis = monomial_basis(ngen, k)
        groups: dict[tuple[int, int], list[int]] = {}
        for idx, m in enumerate(basis):
            mv = sum(1 for t in m if t in vert)
            groups.setdefault((len(m) - mv, mv), []).append(idx)
        for (h, v), positions in groups.items():
            # sel^† picks the (h,v) coordinates: a block restricts to them as
            # sel^† W sel and extends back by zero as sel P sel^†
            sel_t = Matrix.unit_rows(positions, len(basis))
            sel = sel_t.conj_transpose()
            sub = sel_t @ W.blocks[k] @ sel
            ident = Matrix.identity(len(positions))
            svals = [2 * p - h for p in range(max(0, h - n_trans), min(h, n_trans) + 1)]
            for s in svals:
                # prod_t (W - i t) / prod_t (i s - i t), over t != s
                proj, denom = ident, ONE
                for t in svals:
                    if t != s:
                        proj = proj @ (sub - ident.scale(Scalar(0, t)))
                        denom = denom * Scalar(0, s - t)
                p = (h + s) // 2
                parts.setdefault((p, h - p, v), {})[k] = sel @ proj.scale(ONE / denom) @ sel_t
    zero = Blocks.zero(ngen, 0, EVEN).blocks
    return {key: Blocks(ngen, 0, EVEN, tuple(bk.get(k, zero[k]) for k in range(ngen + 1)))
            for key, bk in parts.items()}


def reference_projectors(model, pack):
    ops = structure_operators(model, pack)
    return pq_projectors(model.dim, blocks(ops.W), pack.vertical_indices,
                         pack.transversal_dim(model.dim))


def i_power(s: int) -> Scalar:
    return [ONE, I, -ONE, -I][s % 4]


def reference_i(pi) -> tuple[Blocks, Blocks]:
    """(I, I^-1) as sum_{p,q,v} i^{+-(p-q)} Pi^{p,q,v}."""
    return (add(*(scale(proj, i_power(p - q)) for (p, q, _), proj in pi.items())),
            add(*(scale(proj, i_power(q - p)) for (p, q, _), proj in pi.items())))


def reference_hodge(pi, d1) -> tuple[Blocks, Blocks]:
    """(d1^{1,0}, d1^{0,1}) as sums of Pi^{p+1,q,v} d1 Pi^{p,q,v} and
    Pi^{p,q+1,v} d1 Pi^{p,q,v}; they add up to d1 exactly when d1 has no
    other bidegree component."""
    zero = Blocks.zero(d1.ngen, 1, ODD)
    return tuple(add(zero, *(compose(pi[tgt], d1, proj) for (p, q, v), proj in pi.items()
                              if (tgt := (p + a, q + 1 - a, v)) in pi))
                 for a in (1, 0))


def reference_pq_stable(pi, sub) -> bool:
    """Whether the harmonic space of a form complex is stable under every
    Pi^{p,q,v} of its degree."""
    for k in sub.degrees:
        harm = sub.embed[k] @ sub.harmonic_coords(k)
        for (p, q, v), proj in pi.items():
            if p + q + v == k and solve(harm, proj.blocks[k] @ harm) is None:
                return False
    return True
