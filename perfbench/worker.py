"""Child process of the benchmark: one fresh interpreter per operation.

    python perfbench/worker.py setup <model>...
    python perfbench/worker.py plain <spawn time> <op id> <lieforms args>...
    python perfbench/worker.py traced <spawn time> <op id> <lieforms args>...

`setup` imports lieforms and loads every named model (builtin name or
`.alg` path).  `plain` runs the command line through `lieforms.cli.main`.
`traced` does the same after wrapping each call the CLI makes into a layer
(`LAYERS`) in a span.  The cached inner calls (`structure_operators`,
`table_operator_pool`) are made first, right after the model is loaded, so
their cost lands in their own span.  After the command it runs standalone
probes, which are reported but not part of the command: the label-doubling
loops `foliation_split` and `hodge_split_d1`, and `structure_operators`
again, with a cleared cache, under `tracemalloc`.  `plain` and `traced` print one
JSON object: in-child start (taken after the worker's own imports) and end
times, exit status, the report text, and for `traced` the spans and probes.
"""

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from spans import Tracer, now  # noqa: E402

# the worker's own imports are benchmark overhead, outside every window
T0 = now()


def setup(keys):
    import lieforms  # noqa: F401
    from lieforms.models import BUILTIN_NAMES, builtin, parse_model

    for key in keys:
        if key in BUILTIN_NAMES:
            builtin(key)
        else:
            with open(key, encoding="ascii") as fh:
                parse_model(fh.read(), key)


def plain(argv):
    from lieforms import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    return {"t0": T0, "t1": now(), "status": status, "report": buf.getvalue()}


# Every call the CLI makes into a layer: (module of lieforms, attribute,
# span name).  `traced` replaces each attribute by a wrapper that times the call in a
# span, then runs `lieforms.cli.main` unchanged, so the traced report is
# the CLI's by construction.  `_load` is wrapped separately (see `traced`).
LAYERS = (
    ("cli", "_run_check", "cli.check"),
    ("cli", "_run_cohomology", "cli.cohomology"),
    ("cli", "_run_harmonic", "cli.harmonic"),
    ("cli", "_run_cone", "cli.cone"),
    ("cli", "kahler_relations", "splitting.relation_table"),
    ("cli", "sasakian_relations", "splitting.relation_table"),
    ("cli", "vaisman_structure_relations", "splitting.relation_table"),
    ("cli", "transversal_package", "cohomology.transversal"),
    ("cohomology", "basic_adjoint_check", "cohomology.transversal"),
    ("cli", "antisymmetry_report", "splitting.antisymmetry"),
    ("cli", "jacobi_report", "splitting.jacobi"),
    ("cli", "full_complex", "cohomology.betti"),
    ("cli", "basic_subcomplex", "cohomology.betti"),
    ("cohomology", "CochainComplex.cohomology", "cohomology.betti"),
    ("cli", "harmonic_space", "cohomology.harmonic"),
    ("cli", "sasakian_decomposition", "cones.decomposition"),
    ("cli", "vaisman_decomposition", "cones.decomposition"),
    ("cli", "sasakian_harmonic_check", "cones.decomposition"),
    ("cli", "vaisman_harmonic_check", "cones.decomposition"),
    ("cli", "lefschetz_cone_package", "cones.cone"),
    ("cli", "Report.render", "cli.render"),
)


def wrap(tracer, module, path, name):
    owner = importlib.import_module(f"lieforms.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    setattr(owner, attr, timed)


def traced(spawn, op_id, argv):
    tracer = Tracer(op_id)
    tracer.record("process.interpreter", spawn, T_START)
    with tracer.span("process.import"):
        from lieforms import cli, models, splitting

    for layer in LAYERS:
        wrap(tracer, *layer)

    loaded = []
    load = cli._load

    def load_then_build(name):
        # the cached inner calls are made here first, so that their cost lands
        # in their own span instead of in whichever layer calls them first
        with tracer.span("models.load"):
            model, pack = load(name)
        with tracer.span("models.structure_operators"):
            models.structure_operators(model, pack)
        if argv[0] in ("check", "all"):
            with tracer.span("splitting.operator_pool"):
                splitting.table_operator_pool(model, pack)
        loaded.append((model, pack))
        return model, pack

    cli._load = load_then_build
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    t1 = now()

    model, pack = loaded[0]
    probes = {}
    if pack.kind != "kahler":
        ops = models.structure_operators(model, pack)
        t = now()
        split = splitting.foliation_split(ops.d, model, splitting.reeb_foliation(pack))
        probes["splitting.foliation_split_s"] = now() - t
        t = now()
        splitting.hodge_split_d1(ops, split)
        probes["splitting.hodge_split_d1_s"] = now() - t
    import tracemalloc

    models.structure_operators.cache_clear()
    tracemalloc.start()
    models.structure_operators(model, pack)
    probes["models.structure_operators_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {"t0": T0, "t1": t1, "status": status, "report": buf.getvalue(),
            "spans": tracer.to_json(), "probes": probes}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1:])
        return 0
    spawn, op_id, rest = float(argv[1]), int(argv[2]), argv[3:]
    result = plain(rest) if mode == "plain" else traced(spawn, op_id, rest)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
