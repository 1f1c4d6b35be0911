"""Block reference constructions: operators built from their action on forms.

The engine decides every operator identity on normal-ordered Clifford
polynomials, writes a polynomial's blocks straight from its terms, and
never builds I.  This module keeps the
constructions and the block arithmetic those replaced, which go through
`form_reference.wedge` and matrix products alone, as an independent
reference:

- `Blocks` holds one matrix per source degree, and `blocks(p)` reads a
  polynomial's blocks into one;
- `identity`, `add`, `scale`, `compose`, `power`, `adjoint`,
  `supercommutator`, `apply` and `first_difference` are the operator
  algebra on blocks, as plain functions of `Blocks` values;

- `from_action` enters the image of each basis monomial into its block;
- `extend_derivation` is the signed Leibniz extension of generator values;
- `reference_operators` builds d, L, W, I and I^-1 of a model with them;
- `bidegree_projectors` are the diagonal projectors onto each
  (horizontal, vertical) bidegree.
"""

import functools
from typing import Callable, Mapping

from lieforms.forms import monomial_basis
from lieforms.matrices import Matrix
from lieforms.clifford import basis_dim
from lieforms.scalars import ONE, Scalar

from form_reference import FormElement, column_forms, wedge

EVEN, ODD = 0, 1


class Blocks:
    """An operator of the given shift and parity as one block per source
    degree 0..N; equal when all four agree."""

    __slots__ = ("ngen", "shift", "parity", "blocks")

    def __init__(self, ngen: int, shift: int, parity: int, blocks: tuple[Matrix, ...]):
        shapes = tuple((basis_dim(ngen, k + shift), basis_dim(ngen, k)) for k in range(ngen + 1))
        if tuple(b.shape for b in blocks) != shapes:
            raise ValueError(f"blocks of shapes {[b.shape for b in blocks]}, expected {shapes}")
        self.ngen, self.shift, self.parity, self.blocks = ngen, shift, parity, blocks

    def __eq__(self, other) -> bool:
        return (isinstance(other, Blocks) and (self.ngen, self.shift, self.parity, self.blocks)
                == (other.ngen, other.shift, other.parity, other.blocks))

    @staticmethod
    def zero(ngen: int, shift: int, parity: int) -> "Blocks":
        return Blocks(ngen, shift, parity, tuple(Matrix.zero(basis_dim(ngen, k + shift),
                                                             basis_dim(ngen, k))
                                                 for k in range(ngen + 1)))


def blocks(p) -> Blocks:
    """The blocks of a Clifford polynomial, each read through `block(k)`."""
    return Blocks(p.ngen, p.shift, p.parity, tuple(p.block(k) for k in range(p.ngen + 1)))


def identity(ngen: int) -> Blocks:
    return Blocks(ngen, 0, EVEN, tuple(Matrix.identity(basis_dim(ngen, k))
                                       for k in range(ngen + 1)))


def add(a: Blocks, *others: Blocks) -> Blocks:
    """The sum of operators of equal shift and parity."""
    for b in others:
        if (b.ngen, b.shift, b.parity) != (a.ngen, a.shift, a.parity):
            raise ValueError("can only add operators of equal shift and parity")
        a = Blocks(a.ngen, a.shift, a.parity, tuple(x + y for x, y in zip(a.blocks, b.blocks)))
    return a


def scale(a: Blocks, c: Scalar) -> Blocks:
    return Blocks(a.ngen, a.shift, a.parity, tuple(b.scale(c) for b in a.blocks))


def compose(a: Blocks, *others: Blocks) -> Blocks:
    """a after each of the others in turn, right to left: shifts add,
    parities add mod 2."""
    for b in others:
        n, shift = a.ngen, a.shift + b.shift
        blocks = tuple(a.blocks[k + b.shift] @ b.blocks[k] if 0 <= k + b.shift <= n
                       else Matrix.zero(basis_dim(n, k + shift), basis_dim(n, k))
                       for k in range(n + 1))
        a = Blocks(n, shift, (a.parity + b.parity) % 2, blocks)
    return a


def power(a: Blocks, e: int) -> Blocks:
    return compose(identity(a.ngen), *[a] * e)


def adjoint(a: Blocks) -> Blocks:
    """Metric adjoint: block-wise conjugate transpose in the orthonormal
    monomial basis."""
    n = a.ngen
    blocks = tuple(a.blocks[k - a.shift].conj_transpose() if 0 <= k - a.shift <= n
                   else Matrix.zero(basis_dim(n, k - a.shift), basis_dim(n, k))
                   for k in range(n + 1))
    return Blocks(n, -a.shift, a.parity, blocks)


def supercommutator(a: Blocks, b: Blocks) -> Blocks:
    """{a,b} = ab - (-1)^{parity(a) parity(b)} ba."""
    return add(compose(a, b), scale(compose(b, a), Scalar.of(1 if a.parity * b.parity % 2 else -1)))


def d1_reference(d: Blocks, vertical: tuple[int, ...]) -> Blocks:
    """The component of d that raises the horizontal degree by 1 for the
    given vertical indices, cut out by the bidegree projectors."""
    n = d.ngen
    pi = bidegree_projectors(n, vertical)
    return add(Blocks.zero(n, 1, ODD), *(
        compose(pi[h + 1, v], d, p) for (h, v), p in pi.items() if (h + 1, v) in pi))


def is_zero(a: Blocks) -> bool:
    return all(b.is_zero() for b in a.blocks)


def apply(a: Blocks, x: FormElement) -> FormElement:
    out = FormElement.zero(a.ngen)
    for k in sorted(x.degrees()):
        if 0 <= k + a.shift <= a.ngen:
            column = Matrix([[x.coeff(m)] for m in monomial_basis(a.ngen, k)], 1)
            out = out + column_forms(a.ngen, k + a.shift, a.blocks[k] @ column)[0]
    return out


def first_difference(a: Blocks, b: Blocks):
    """(degree, row, col, lhs, rhs) of the first differing entry, or None;
    a shift mismatch is reported as degree None."""
    if a.shift != b.shift:
        return (None, None, None, a.shift, b.shift)
    for k, (x, y) in enumerate(zip(a.blocks, b.blocks)):
        diff = (x - y).first_nonzero()
        if diff is not None:
            i, j, _ = diff
            return (k, i, j, x.entry(i, j), y.entry(i, j))
    return None


def from_action(ngen: int, shift: int, parity: int,
                action: Callable[[FormElement], FormElement]) -> Blocks:
    """Realize a linear map given on basis monomials as matrices: the terms
    of each image are entered straight into the sparse block."""
    blocks = []
    for k in range(ngen + 1):
        tgt = monomial_basis(ngen, k + shift) if 0 <= k + shift <= ngen else []
        position = {m: i for i, m in enumerate(tgt)}
        entries = []
        for j, m in enumerate(monomial_basis(ngen, k)):
            for mono, c in action(FormElement(ngen, {m: ONE})).terms.items():
                i = position.get(mono)
                if i is None:
                    raise ValueError(f"action not homogeneous of shift {shift} on {m}")
                entries.append((i, j, c))
        blocks.append(Matrix.from_entries(len(position), basis_dim(ngen, k), entries))
    return Blocks(ngen, shift, parity, tuple(blocks))


def extend_derivation(
    ngen: int,
    parity: int,
    action: Mapping[int, FormElement],
    unit_value: FormElement | None = None,
    shift: int | None = None,
) -> Blocks:
    """Unique first-order operator with the given values on 1 and theta^k.

    With unit_value (the value on 1) zero or omitted this is the signed
    Leibniz extension of a graded derivation; otherwise D = e_{D(1)} + the
    derivation extending D(theta^k) - D(1)^theta^k.  The common degree
    shift of the generator values must match the declared parity mod 2.
    """
    d1 = unit_value if unit_value is not None else FormElement.zero(ngen)
    shifts = set()
    for k in range(1, ngen + 1):
        val = action.get(k, FormElement.zero(ngen))
        for deg in val.degrees():
            shifts.add(deg - 1)
    if not d1.is_zero():
        shifts.update(d1.degrees())
    if shift is not None:
        shifts.add(shift)
    if not shifts:
        return Blocks.zero(ngen, 1 if parity else 0, parity)
    if len(shifts) > 1:
        raise ValueError(f"action values have mixed degree shifts {sorted(shifts)}")
    shift = shifts.pop()
    if shift % 2 != parity % 2:
        raise ValueError(
            f"action inconsistent with declared parity: shift {shift} vs parity {parity}"
        )

    gen_values = {}
    for k in range(1, ngen + 1):
        val = action.get(k, FormElement.zero(ngen))
        gen_values[k] = val - wedge(d1, FormElement.generator(ngen, k))

    memo: dict[tuple[int, ...], FormElement] = {(): FormElement.zero(ngen)}

    def deriv(mono: tuple[int, ...]) -> FormElement:
        if mono in memo:
            return memo[mono]
        head, rest = mono[0], mono[1:]
        rest_form = FormElement.monomial(ngen, rest)
        out = wedge(gen_values[head], rest_form)
        tail = deriv(rest)
        signed = tail.scale(Scalar.of(-1)) if parity % 2 else tail
        out = out + wedge(FormElement.generator(ngen, head), signed)
        memo[mono] = out
        return out

    def act(x: FormElement) -> FormElement:
        mono = next(iter(x.terms))
        return wedge(d1, x) + deriv(mono).scale(x.terms[mono])

    return from_action(ngen, shift, parity, act)


def ce_values(model) -> dict[int, FormElement]:
    """d theta^k = -sum_{i<j} c^k_ij theta^i ^ theta^j for each generator k."""
    n = model.dim
    values = {k: FormElement.zero(n) for k in range(1, n + 1)}
    for (i, j, k, c) in model.brackets:
        values[k] = values[k] + FormElement.monomial(n, (i, j), -c)
    return values


def reference_operators(model, pack) -> dict[str, Blocks]:
    """d, L, W, I_aut and I_inv built through FormElement wedges: d and W as
    Leibniz extensions of their generator values, L as wedge with omega0
    (d eta on a contact pack, the sum of theta^a ^ theta^b over the J pairs
    on a Kahler one), and I as the algebra automorphism extending J and the
    identity on the vertical coframe, one wedge of generator images per
    monomial."""
    n = model.dim
    values = ce_values(model)
    if pack.kind == "kahler":
        omega0 = FormElement.zero(n)
        for a, b in pack.j_pairs:
            omega0 = omega0 + FormElement.monomial(n, (a, b))
    else:
        omega0 = values[pack.reeb_index]
    rotation = {}
    for a, b in pack.transversal_pairs():
        rotation[a] = FormElement.generator(n, b)
        rotation[b] = FormElement.generator(n, a).scale(Scalar.of(-1))
    image = {k: rotation.get(k, FormElement.generator(n, k)) for k in range(1, n + 1)}

    @functools.cache
    def automorphism(mono: tuple[int, ...]) -> FormElement:
        return wedge(image[mono[0]], automorphism(mono[1:])) if mono else FormElement.unit(n)

    I_aut = from_action(n, 0, EVEN, lambda x: automorphism(next(iter(x.terms))))
    return {
        "d": extend_derivation(n, ODD, values, shift=1),
        "L": from_action(n, 2, EVEN, lambda x: wedge(omega0, x)),
        "W": extend_derivation(n, EVEN, rotation, shift=0),
        "I_aut": I_aut,
        "I_inv": adjoint(I_aut),
    }


@functools.lru_cache(maxsize=None)
def bidegree_projectors(ngen: int, vertical: tuple[int, ...]):
    """Diagonal projectors onto horizontal-degree h, vertical-degree v.

    Memoised per (ngen, vertical): every caller shares the one dict, and
    none may change it."""
    vert = set(vertical)
    blocks = {(h, v): [] for h in range(ngen - len(vert) + 1) for v in range(len(vert) + 1)}
    for k in range(ngen + 1):
        basis = monomial_basis(ngen, k)
        # the positions in `basis` of the monomials of each bidegree
        groups: dict[tuple[int, int], list[int]] = {}
        for idx, m in enumerate(basis):
            mv = sum(1 for t in m if t in vert)
            groups.setdefault((len(m) - mv, mv), []).append(idx)
        for key, out in blocks.items():
            sel_t = Matrix.unit_rows(groups.get(key, ()), len(basis))
            out.append(sel_t.conj_transpose() @ sel_t)
    return {key: Blocks(ngen, 0, EVEN, tuple(out)) for key, out in blocks.items()}
