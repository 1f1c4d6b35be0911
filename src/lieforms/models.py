"""Lie-algebra models with contact / locally-conformally-Kahler decorations.

A model is a Lie algebra given by structure constants on an orthonormal
coframe; its invariant-forms complex is the finite stand-in for the
manifold, with the invariant differential determined by
d theta^k (e_i, e_j) = -c^k_{ij}.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction

from .clifford import Clifford, supercommutator
from .forms import form_text
from .scalars import MINUS_ONE, ONE, Scalar, ZERO


class ModelError(Exception):
    """Base class for model construction failures."""


class ModelSyntaxError(ModelError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class AntisymmetryError(ModelError):
    pass


class JacobiError(ModelError):
    def __init__(self, triple, message: str):
        super().__init__(message)
        self.triple = triple


class StructureError(ModelError):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


class LieModel:
    """Immutable structure constants c^k_{ij} (stored for i<j) on an
    orthonormal coframe; equal models compare and hash equal."""

    def __init__(self, name: str, dim: int, brackets: tuple[tuple[int, int, int, Scalar], ...]):
        ordered = tuple(sorted(brackets, key=lambda b: b[:3]))
        for (i, j, k, c) in ordered:
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise ModelError(f"bad bracket entry ({i},{j})->{k}")
            if c.is_zero():
                raise ModelError(f"explicit zero bracket entry ({i},{j})->{k}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "brackets", ordered)

    def __setattr__(self, *_):
        raise AttributeError("LieModel is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieModel)
            and self.name == other.name
            and self.dim == other.dim
            and self.brackets == other.brackets
        )

    def __hash__(self):
        return hash((self.name, self.dim, self.brackets))

    @functools.cached_property
    def _bracket_table(self) -> dict[tuple[int, int], dict[int, Scalar]]:
        """{(i, j): {k: c^k_ij}} over the stored brackets, in both orders."""
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j, k, c) in self.brackets:
            table.setdefault((i, j), {})[k] = c
            table.setdefault((j, i), {})[k] = -c
        return table

    def bracket(self, i: int, j: int) -> dict[int, Scalar]:
        return dict(self._bracket_table.get((i, j), {}))

    def jacobi_defect(self):
        """First (i,j,k,l) where the Jacobi identity fails, or None.

        Triples run in `combinations` order and l upwards.  Only a triple
        with a nonzero bracket among its pairs can fail, and each term
        [e_x, [e_y, e_z]] is summed over the stored brackets only.
        """
        table = self._bracket_table
        live = sorted({tuple(sorted((i, j, k))) for (i, j) in table
                       for k in range(1, self.dim + 1) if k not in (i, j)})
        for i, j, k in live:
            acc: dict[int, Scalar] = {}
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c1 in table.get((y, z), {}).items():
                    for l, c2 in table.get((x, m), {}).items():
                        acc[l] = acc.get(l, ZERO) + c1 * c2
            bad = [l for l, v in acc.items() if v]
            if bad:
                return (i, j, k, min(bad))
        return None


class StructurePack:
    """Immutable contact / Vaisman decorations carried alongside a model;
    equal packs compare and hash equal.

    kind is "kahler", "sasakian" or "vaisman".  j_pairs lists J(e_a) = e_b;
    for vaisman kind this includes the (lee, reeb) pair, which W and the
    bigrading ignore.  The forms of the pack are operators of the model's
    pool: eta is e_r, theta is e_th and omega0 is L.
    """

    __slots__ = ("kind", "reeb_index", "lee_index", "j_pairs")

    def __init__(self, kind: str, reeb_index: int | None, lee_index: int | None,
                 j_pairs: tuple[tuple[int, int], ...]):
        for name, value in zip(self.__slots__, (kind, reeb_index, lee_index, j_pairs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("StructurePack is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return isinstance(other, StructurePack) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def vertical_indices(self) -> tuple[int, ...]:
        """Vertical coframe for the pack's canonical foliation: the Reeb and
        Lee generators the pack has."""
        return tuple(sorted(k for k in (self.reeb_index, self.lee_index) if k is not None))

    def horizontal_indices(self, ngen: int) -> tuple[int, ...]:
        vert = set(self.vertical_indices)
        return tuple(k for k in range(1, ngen + 1) if k not in vert)

    def transversal_pairs(self) -> tuple[tuple[int, int], ...]:
        vert = set(self.vertical_indices)
        return tuple(p for p in self.j_pairs if not (set(p) & vert))

    def transversal_dim(self, ngen: int) -> int:
        """Complex dimension of the transversal Kahler geometry."""
        return len(self.horizontal_indices(ngen)) // 2


@functools.lru_cache(maxsize=None)
def ce_differential(model: LieModel) -> Clifford:
    """Invariant differential from the structure constants, as the Clifford
    polynomial sum_k e_{d theta^k} i_k with
    d theta^k = -sum_{i<j} c^k_ij theta^i ^ theta^j.

    Jacobi is checked first (it is equivalent to d^2 = 0, and both are
    asserted independently: the normal-ordered monomials are a basis, so
    d^2 = 0 exactly when the polynomial d @ d has no term).
    """
    defect = model.jacobi_defect()
    if defect is not None:
        raise JacobiError(defect, f"Jacobi identity fails on triple {defect[:3]} (component {defect[3]})")
    d = Clifford(model.dim, 1, {(1 << (i - 1) | 1 << (j - 1), 1 << (k - 1)): -c
                                for (i, j, k, c) in model.brackets})
    if not (d @ d).is_zero():
        raise JacobiError(None, "d^2 != 0 despite Jacobi holding; inconsistent constants")
    return d


def fundamental_form(ngen: int, pack: StructurePack) -> Clifford:
    """L = sum of e_a e_b over the transversal J pairs a -> b, the
    multiplication by omega0; built at shift 2 even when there are no
    pairs.  A term is normal-ordered, so e_a e_b = -e_b e_a for a > b."""
    return Clifford(ngen, 2, {(1 << (a - 1) | 1 << (b - 1), 0): ONE if a < b else MINUS_ONE
                              for a, b in pack.transversal_pairs()})


def validate_pack(model: LieModel, pack: StructurePack):
    """Assert the pack invariants that a model file can break, each an
    identity of polynomials; raise StructureError otherwise.

    No check reads the kind, only the Reeb and Lee fields the pack has:
    the J pairs cover the horizontal coframe (every generator of a Kahler
    pack), and every vertical field is Killing.  That J is integrable is
    certified where the pool splits d (`splitting.OperatorPool`).
    A form a is its multiplication e_a, so da = 0 reads {d, e_a} = 0 and
    d(eta) = omega0 reads {d, e_r} = L.  What holds by construction is not
    checked: eta and theta are unit coframe generators, omega is
    omega0 + theta ^ eta, L is built from the J pairs, `parse_model` has
    checked the indices and paired lee with reeb, and
    d(eta) = omega0 with d(theta) = 0 leaves the leafwise volume closed.
    """
    n = model.dim
    d = ce_differential(model)

    used = [k for p in pack.j_pairs for k in p]
    if len(used) != len(set(used)):
        raise StructureError("J", f"J pairs overlap: {pack.j_pairs}")
    L = fundamental_form(n, pack)

    r = pack.reeb_index
    if r is not None:
        deta = supercommutator(d, Clifford.wedge(n, r))
        if not supercommutator(Clifford.contraction(n, r), deta).is_zero():
            raise StructureError("contact", "i_r d eta != 0")
        if deta != L:
            # e_{d eta}'s block from degree 0 is d(eta)'s coordinate column
            text = form_text(n, 2, deta.block(0).columns()[0])
            raise StructureError("deta", f"d(eta) = {text} incompatible with J pairs {pack.j_pairs}")
    # pairs that do not overlap and cover the coframe make its dimension even
    if {k for p in pack.transversal_pairs() for k in p} != set(pack.horizontal_indices(n)):
        raise StructureError("J", "J pairs must cover the horizontal coframe")
    # d(eta) = omega0 makes omega0 exact, so only a Kahler form can fail here
    if not supercommutator(d, L).is_zero():
        raise StructureError("deta", "fundamental form is not closed")

    # a vertical field k is Killing when Lie_k = {d, i_k} is skew-adjoint;
    # its flow then keeps the metric, eta and omega0, and with them J
    for k in pack.vertical_indices:
        lie = supercommutator(d, Clifford.contraction(n, k))
        if lie.adjoint() != -lie:
            check, field, sub = ("contact", "Reeb", "r") if k == r else ("vaisman", "Lee", "th")
            raise StructureError(check, f"the {field} field is not Killing: Lie_{sub}* != -Lie_{sub}")

    lee = pack.lee_index
    if lee is not None and not supercommutator(d, Clifford.wedge(n, lee)).is_zero():
        raise StructureError("vaisman", "lee form is not closed")


# -- built-in models ---------------------------------------------------


def builtin(name: str) -> tuple[LieModel, StructurePack]:
    """A shipped model, parsed from its `.alg` file (see `builtin_file_text`)."""
    if name not in BUILTIN_NAMES:
        raise ModelError(f"unknown builtin model {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return parse_model(builtin_file_text(name), name=name)


BUILTIN_NAMES = ("torus2", "torus4", "su2", "h3", "h5", "su2xr", "h3xr")


# -- model file parsing ------------------------------------------------


def parse_model(text: str, name: str = "file") -> tuple[LieModel, StructurePack]:
    """Parse the line-oriented .alg format; every pack invariant asserted.

    Sections: [algebra] with dim = N; [brackets] with lines
    `i j -> k : a/b`; [structure] with kind/reeb/lee assignments and
    `J: i -> j` lines.  Comments start with #; numbers are rationals.
    """
    brackets: dict[tuple[int, int, int], tuple[Scalar, int]] = {}
    settings: dict[str, tuple[int | str, int]] = {}  # dim, kind, reeb, lee: (value, line)
    j_pairs: list[tuple[int, int]] = []
    indices: list[tuple[int, str, int]] = []  # (line, what, index), checked against dim
    section = None

    def setting(key: str, value, line_no: int):
        """Record a key; a repeat must agree with the first value."""
        if key in settings and settings[key][0] != value:
            prev, prev_line = settings[key]
            raise ModelSyntaxError(
                line_no, f"{key} = {value} contradicts line {prev_line} ({key} = {prev})")
        settings.setdefault(key, (value, line_no))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("algebra", "brackets", "structure"):
                raise ModelSyntaxError(line_no, f"unknown section [{section}]")
            continue
        if section == "algebra":
            key, _, value = line.partition("=")
            if key.strip() != "dim" or not value:
                raise ModelSyntaxError(line_no, f"expected `dim = N`, got {line!r}")
            try:
                value = int(value.strip())
            except ValueError:
                raise ModelSyntaxError(line_no, f"bad dimension {value.strip()!r}")
            if value < 1:
                raise ModelSyntaxError(line_no, "dimension must be positive")
            setting("dim", value, line_no)
        elif section == "brackets":
            try:
                left, coeff_text = line.split(":")
                pair, target = left.split("->")
                i_text, j_text = pair.split()
                i, j, k = int(i_text), int(j_text), int(target)
                coeff_text = coeff_text.strip()
                # an exponent (1e999999999) would have Fraction build a huge integer
                if "e" in coeff_text or "E" in coeff_text:
                    raise ModelSyntaxError(
                        line_no, f"coefficient {coeff_text!r} has an exponent; write it as a/b")
                # a printed mismatch multiplies up to four coefficients, so each
                # is kept below 10^100, and a text longer than any such one needs
                # is refused unread
                value = Fraction(coeff_text) if len(coeff_text) <= 1000 else None
                if value is None or max(abs(value.numerator), value.denominator) >= 10 ** 100:
                    raise ModelSyntaxError(line_no, "coefficient too large: numerator and "
                                                    "denominator must be below 10^100")
                coeff = Scalar(value)
            except (ValueError, ZeroDivisionError):
                raise ModelSyntaxError(line_no, f"expected `i j -> k : a/b`, got {line!r}")
            if "dim" not in settings:
                raise ModelSyntaxError(line_no, "[brackets] before [algebra]")
            dim = settings["dim"][0]
            if not all(1 <= x <= dim for x in (i, j, k)):
                raise ModelSyntaxError(line_no, f"index out of range 1..{dim}")
            if i == j:
                raise AntisymmetryError(f"line {line_no}: bracket [e_{i},e_{i}] must vanish")
            if not coeff:
                raise ModelSyntaxError(line_no, f"explicit zero bracket entry ({i},{j})->{k}")
            key = (min(i, j), max(i, j), k)
            val = coeff if i < j else -coeff
            if key in brackets:
                prev, prev_line = brackets[key]
                if prev != val:
                    raise AntisymmetryError(
                        f"line {line_no}: c^{k}_{{{i}{j}}} contradicts line {prev_line} "
                        "(antisymmetry or duplicate)"
                    )
            brackets[key] = (val, line_no)
        elif section == "structure":
            if line.lower().startswith("j:"):
                try:
                    a_text, b_text = line[2:].split("->")
                    a, b = int(a_text), int(b_text)
                except ValueError:
                    raise ModelSyntaxError(line_no, f"expected `J: i -> j`, got {line!r}")
                if a == b:
                    raise ModelSyntaxError(line_no, f"J pairs generator {a} with itself")
                j_pairs.append((a, b))
                indices += [(line_no, "J", a), (line_no, "J", b)]
                continue
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if not value:
                raise ModelSyntaxError(line_no, f"expected `key = value`, got {line!r}")
            if key == "kind":
                if value not in ("kahler", "sasakian", "vaisman"):
                    raise ModelSyntaxError(line_no, f"unknown kind {value!r}")
                setting("kind", value, line_no)
            elif key in ("reeb", "lee"):
                try:
                    index = int(value)
                except ValueError:
                    raise ModelSyntaxError(line_no, f"bad {key} index {value!r}")
                setting(key, index, line_no)
                indices.append((line_no, key, index))
            else:
                raise ModelSyntaxError(line_no, f"unknown structure key {key!r}")
        else:
            raise ModelSyntaxError(line_no, f"content outside any section: {line!r}")

    if "dim" not in settings:
        raise ModelSyntaxError(0, "missing [algebra] section with dim")
    dim = settings["dim"][0]
    for line_no, what, index in indices:
        if not 1 <= index <= dim:
            raise ModelSyntaxError(line_no, f"{what} index {index} out of range 1..{dim}")
    if "kind" not in settings:
        raise ModelSyntaxError(0, "missing [structure] kind")
    kind = settings["kind"][0]
    uses = {"kahler": (), "sasakian": ("reeb",), "vaisman": ("reeb", "lee")}[kind]
    for key in uses:
        if key not in settings:
            raise ModelSyntaxError(0, f"kind {kind} needs a {key} index")
    # checked once the whole file is read, since `kind` may follow the key
    for key in ("reeb", "lee"):
        if key in settings and key not in uses:
            raise ModelSyntaxError(settings[key][1], f"kind {kind} takes no {key} index")
    reeb, lee = (settings[key][0] if key in settings else None for key in ("reeb", "lee"))
    if lee is not None and lee == reeb:
        raise ModelSyntaxError(settings["lee"][1], f"lee index {lee} equals the reeb index")

    model = LieModel(name, dim, tuple((i, j, k, v) for (i, j, k), (v, _) in sorted(brackets.items())))

    if not j_pairs:
        j_pairs = _default_j_pairs(dim, kind, reeb, lee)
    elif kind == "vaisman" and not any(set(p) == {lee, reeb} for p in j_pairs):
        j_pairs = list(j_pairs) + [(min(lee, reeb), max(lee, reeb))]

    pack = StructurePack(kind, reeb, lee, tuple(j_pairs))
    validate_pack(model, pack)
    return model, pack


def _default_j_pairs(dim, kind, reeb, lee):
    skip = set()
    pairs = []
    if kind == "vaisman":
        skip = {reeb, lee}
        pairs.append((min(lee, reeb), max(lee, reeb)))
    elif kind == "sasakian":
        skip = {reeb}
    free = [k for k in range(1, dim + 1) if k not in skip]
    if len(free) % 2:
        raise StructureError("J", "odd number of horizontal generators")
    for t in range(0, len(free), 2):
        pairs.append((free[t], free[t + 1]))
    return pairs


def load_model_file(path: str) -> tuple[LieModel, StructurePack]:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelSyntaxError(0, f"model files are ASCII: {exc}") from exc
    return parse_model(text, name=path)


def builtin_file_text(name: str) -> str:
    """The shipped .alg source for a builtin model, read from the package's
    `data` directory."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.alg")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- structure operators ----------------------------------------------


class StructureOperators:
    """The operators built from the pack's data, immutable: d, L and W as
    Clifford polynomials.  J enters only as W; that it is integrable is
    certified on W alone, for every kind, where `splitting.OperatorPool`
    splits d.  Every other named operator is derived from these in the
    pool."""

    def __init__(self, d: Clifford, L: Clifford, W: Clifford):
        vars(self).update(d=d, L=L, W=W)

    def __setattr__(self, *_):
        raise AttributeError("StructureOperators is immutable")


@functools.lru_cache(maxsize=None)
def structure_operators(model: LieModel, pack: StructurePack) -> StructureOperators:
    # W = sum_k e_{J theta^k} i_k, the even derivation extending J on the
    # transversal coframe: theta^a -> theta^b and theta^b -> -theta^a for
    # each pair a -> b
    terms = {}
    for a, b in pack.transversal_pairs():
        ma, mb = 1 << (a - 1), 1 << (b - 1)
        terms[mb, ma], terms[ma, mb] = ONE, MINUS_ONE
    n = model.dim
    return StructureOperators(ce_differential(model), fundamental_form(n, pack),
                              Clifford(n, 0, terms))
