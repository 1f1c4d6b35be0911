"""Seeded inputs of the benchmark workloads.

The program under test only ever sees the generated inputs: builtin model
names, command lines, and `.alg` files written into the output directory.

- builtins: `all` on the seven builtins (dims 2-5) in seeded order, the
  typical user run.  Superalgebra guards and products of small blocks
  dominate; `structure_operators` is a small share.
- ladder: `all` on the Vaisman product h5xR (dim 6) with a seeded
  relabelling of the coframe.  Dim 6 is the largest tractable dimension,
  so this stresses time and memory in `models` and `splitting`.  The
  generator also relabels the Heisenberg contact model h5 (dim 5), but that
  rung is held back (see HELD_BACK).  The dim-7 model h7 is left out
  because it does not finish today (MemoryError).
- queries: short single commands on the builtins (`cohomology`,
  `harmonic --degree k` with seeded k, `cone` off the tori).  No relation
  table runs, so interpreter start, model load, `structure_operators` and
  exact elimination share the time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("builtins", "ladder", "queries")


@dataclass(frozen=True)
class Model:
    """A model as the benchmark knows it, independently of the engine.

    `key` is what the command line receives: a builtin name or the path of
    a generated `.alg` file relative to the checkout.  Brackets use the
    oracle's convention: (i, j, k) -> c^k_{ij} with i < j.
    """

    name: str
    key: str
    dim: int
    kind: str
    brackets: dict = field(hash=False, compare=False)
    reeb: int | None = None
    lee: int | None = None
    j_pairs: tuple[tuple[int, int], ...] = ()

    def basic_spans(self) -> dict[str, tuple[int, ...]]:
        """Spanning indices of each basic complex the cohomology report prints."""
        if self.kind == "sasakian":
            return {"basic": (self.reeb,)}
        if self.kind == "vaisman":
            return {"sas": (self.lee,), "kah": tuple(sorted((self.lee, self.reeb)))}
        return {}


@dataclass(frozen=True)
class Op:
    """One timed operation: a single `lieforms` command line."""

    command: str
    model: Model
    degree: int | None = None

    @property
    def name(self) -> str:
        tail = f" --degree {self.degree}" if self.degree is not None else ""
        return f"{self.command} {self.model.name}{tail}"

    def cli_args(self) -> list[str]:
        args = [self.command, self.model.key]
        if self.degree is not None:
            args += ["--degree", str(self.degree)]
        return args + ["--format", "json"]


# builtin name -> (oracle constant, kind, reeb, lee), transcribed from the
# shipped model files; dimensions and brackets come from tests/oracle.py.
BUILTINS = {
    "torus2": ("TORUS2", "kahler", None, None),
    "torus4": ("TORUS4", "kahler", None, None),
    "su2": ("SU2", "sasakian", 3, None),
    "h3": ("H3", "sasakian", 3, None),
    "h5": ("H5", "sasakian", 5, None),
    "su2xr": ("SU2XR", "vaisman", 4, 1),
    "h3xr": ("H3XR", "vaisman", 4, 1),
}

LADDER_BASES = (
    Model("h5", "", 5, "sasakian", {(1, 2, 5): Fraction(-1), (3, 4, 5): Fraction(-1)},
          reeb=5, j_pairs=((1, 2), (3, 4))),
    Model("h5xr", "", 6, "vaisman", {(2, 3, 6): Fraction(-1), (4, 5, 6): Fraction(-1)},
          reeb=6, lee=1, j_pairs=((2, 3), (4, 5), (1, 6))),
)


# Ladder rungs the workload leaves out until the engine is fixed.  h5: on a
# Sasakian model whose reeb index is an odd distance from the top index,
# `harmonic.star_duality` fails and the command exits 1, because the basic
# Hodge star orients the horizontal coframe by index order.  A random
# relabelling puts reeb there for about half the seeds.
# `test_perfbench.py` fails once the defect is gone, to bring the rung back.
HELD_BACK = ("h5",)


def builtin_models(oracle) -> list[Model]:
    out = []
    for name, (const, kind, reeb, lee) in BUILTINS.items():
        dim, brackets = getattr(oracle, const)
        out.append(Model(name, name, dim, kind, dict(brackets), reeb, lee))
    return out


def relabel(base: Model, rng: random.Random) -> Model:
    """Place the coframe at random indices, keeping every J pair increasing.

    A random permutation is drawn; within each J pair the smaller of the two
    new indices goes to the first element, so `J: a -> b` keeps a < b and
    d(eta) keeps its sign.  For Vaisman models lee and reeb form a J pair,
    so lee < reeb.
    """
    idx = list(range(1, base.dim + 1))
    perm = idx[:]
    rng.shuffle(perm)
    sigma = dict(zip(idx, perm))
    for a, b in base.j_pairs:
        if sigma[a] > sigma[b]:
            sigma[a], sigma[b] = sigma[b], sigma[a]
    brackets = {}
    for (i, j, k), c in base.brackets.items():
        a, b = sigma[i], sigma[j]
        if a > b:
            a, b, c = b, a, -c
        brackets[(a, b, sigma[k])] = c
    return Model(
        base.name, base.key, base.dim, base.kind, brackets,
        reeb=sigma[base.reeb] if base.reeb is not None else None,
        lee=sigma[base.lee] if base.lee is not None else None,
        j_pairs=tuple(sorted((sigma[a], sigma[b]) for a, b in base.j_pairs)),
    )


def alg_text(model: Model, seed: int) -> str:
    lines = [f"# {model.name}, coframe relabelled with seed {seed}",
             "[algebra]", f"dim = {model.dim}", "[brackets]"]
    for (i, j, k), c in sorted(model.brackets.items()):
        lines.append(f"{i} {j} -> {k} : {c}")
    lines += ["[structure]", f"kind = {model.kind}"]
    if model.reeb is not None:
        lines.append(f"reeb = {model.reeb}")
    if model.lee is not None:
        lines.append(f"lee = {model.lee}")
    lines += [f"J: {a} -> {b}" for a, b in model.j_pairs]
    return "\n".join(lines) + "\n"


def ladder_models(seed: int, out_dir: Path, root: Path) -> list[Model]:
    """Write every relabelled ladder model as an `.alg` file under out_dir."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    models = []
    for base in LADDER_BASES:
        model = relabel(base, rng)
        path = out_dir / f"{base.name}-seed{seed}.alg"
        path.write_text(alg_text(model, seed), encoding="ascii")
        key = path.relative_to(root).as_posix()
        models.append(Model(f"{base.name}~{seed}", key, model.dim, model.kind,
                            model.brackets, model.reeb, model.lee, model.j_pairs))
    return models


def make_ops(workload: str, seed: int, oracle, out_dir: Path, root: Path) -> list[Op]:
    """The workload's operations in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "builtins":
        ops = [Op("all", m) for m in builtin_models(oracle)]
    elif workload == "ladder":
        ops = [Op("all", m) for m in ladder_models(seed, out_dir, root)
               if m.name.split("~")[0] not in HELD_BACK]
    elif workload == "queries":
        ops = []
        for m in builtin_models(oracle):
            ops.append(Op("cohomology", m))
            ops.append(Op("harmonic", m, rng.randint(0, m.dim)))
            if m.kind != "kahler":
                ops.append(Op("cone", m))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
