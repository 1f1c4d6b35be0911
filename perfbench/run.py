"""Benchmark: time and memory from `lieforms <command> <model>` to a verdict.

    python3 perfbench/run.py --workload builtins|ladder|queries \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports the
package from `src/`.  Every operation is a fresh child process, one at a
time, because the engine caches its operators per model and a command-line
user always starts with those caches empty.

With `--trace 0` each operation is `python -m lieforms.cli ... --format
json`, timed by this process from spawn to exit (wall time).  Operations
are taken in rounds (see `next_op`) until none would end within
`--seconds`.  The per-operation rows also give the child's CPU time (user +
system, from `os.wait4`); on a shared host the gap between the two is time
the host gave to other guests.  The end-to-end metrics are:

- verdict_s: geometric mean over the operations of each one's median time;
- slowest_verdict_s: median time of the slowest operation;
- peak_rss_mb: largest child `ru_maxrss`;
- setup_s: median over SETUP_REPEATS fresh interpreters, spread over the
  same window, of `import lieforms` plus loading every model of the
  workload (this includes `validate_pack` and `ce_differential`), in wall
  time as above.

With `--trace 1` each operation runs twice, through `worker.py plain` and
`worker.py traced`; the traced child wraps each call into the package in a
span.  Per-layer times are span self times, and counts are read from the
reports; both are summed over the operations (the tracemalloc peak is the
largest) and taken as the median over as many passes as fit in
`--seconds` (at least one).  Layers an operation does not run read 0.
trace.coverage_share is the time the top-level spans cover divided by the
traced child's own wall time, which falls away from 1 when the CLI does
work outside the wrapped calls; trace.overhead_share is traced over
untraced in-child time, minus 1.

Every report is checked (`gate.py`); a mismatch counts as a failed
operation.  The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A record of the run goes to
`perfbench/out/`.  Next to the commit, Python version and CPU count it holds
two machine-noise markers that rescale nothing: a fixed `Fraction`-loop
timing taken before and after, and the CPU time the host stole during the
run (from /proc/stat, where it exists).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gate
import workloads
from spans import Span, now, self_times, top_level_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 11

LAYER_SPANS = (
    "process.interpreter", "process.import", "models.load", "models.structure_operators",
    "splitting.operator_pool", "splitting.relation_table", "splitting.antisymmetry",
    "splitting.jacobi", "cohomology.transversal", "cohomology.betti", "cohomology.harmonic",
    "cones.decomposition", "cones.cone", "cli.render",
)
PROBES = ("splitting.foliation_split_s", "splitting.hodge_split_d1_s")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    status: int
    stdout: str


class Runner:
    """Starts one child at a time and waits for it; its stderr goes to a log."""

    def __init__(self, log_path: Path):
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        # children run as for a user of an installed package: bytecode cached,
        # output buffered, whatever the caller's environment says
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.log_path = log_path

    def run(self, argv: list[str]) -> Child:
        with open(self.log_path, "ab") as log:
            start = now()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=log)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                     proc.returncode, out.decode())

    def cli(self, op: workloads.Op) -> Child:
        return self.run(["-m", "lieforms.cli", *op.cli_args()])

    def worker(self, mode: str, op_id: int, args: list[str]) -> tuple[Child, dict | None]:
        child = self.run([str(ROOT / "perfbench" / "worker.py"), mode, repr(now()),
                          str(op_id), *args])
        try:
            return child, json.loads(child.stdout)
        except json.JSONDecodeError:
            return child, None


def fraction_marker() -> float:
    """A fixed pure-Python Fraction loop; its time tracks machine speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 15000):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def stolen_s() -> float | None:
    """CPU time the hypervisor has given to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def tail(xs: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(xs)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def next_op(ops, samples, deadline):
    """The first round runs every operation in seeded order.  After it, of the
    operations predicted to end before the deadline, the one with the fewest
    samples runs, the slowest first, so the slowest gets as many as any."""
    for op in ops:
        if not samples[op]:
            return op
    fitting = [op for op in ops if now() + statistics.median(samples[op]) <= deadline]
    if not fitting:
        return None
    return min(fitting, key=lambda o: (len(samples[o]), -statistics.median(samples[o])))


def end_to_end(runner, ops, models, refs, seconds, tally, rows) -> dict[str, float]:
    """Time the operations in rounds until none fits before the deadline.
    The set-up samples are spread over the same window, so that they see the
    same mix of machine states as the operations."""
    setup_argv = [str(ROOT / "perfbench" / "worker.py"), "setup", *[m.key for m in models]]
    runner.run(setup_argv)  # compiles bytecode, as an installed package would have
    setups: list[float] = []

    def setup_once():
        child = runner.run(setup_argv)
        tally.add("setup", [] if child.status == 0 else [f"exit status {child.status}"])
        setups.append(child.wall)

    walls: dict[workloads.Op, list[float]] = {op: [] for op in ops}
    cpus: dict[workloads.Op, list[float]] = {op: [] for op in ops}
    peak = 0.0
    start = now()
    deadline = start + seconds
    while True:
        due = 1 + (SETUP_REPEATS - 1) * (now() - start) / seconds
        while len(setups) < min(SETUP_REPEATS, due):
            setup_once()
        op = next_op(ops, walls, deadline)
        if op is None:
            break
        child = runner.cli(op)
        tally.add(op.name, gate.check(op, child.status, child.stdout, refs[op.model.key]))
        walls[op].append(child.wall)
        cpus[op].append(child.cpu)
        peak = max(peak, child.rss_mb)
    while len(setups) < SETUP_REPEATS:
        setup_once()
    medians = {}
    for op in ops:
        medians[op] = statistics.median(walls[op])
        t = tail(walls[op])
        rows.append({"op": op.name, "n": len(walls[op]), "median_s": medians[op],
                     "tail": None if t is None else {"percentile": t[0], "s": t[1]},
                     "median_cpu_s": statistics.median(cpus[op])})
    return {"verdict_s": geomean(medians.values()),
            "slowest_verdict_s": max(medians.values()),
            "peak_rss_mb": peak,
            "setup_s": statistics.median(setups)}


def traced_pass(runner, ops, refs, tally, rows) -> dict[str, float]:
    times = dict.fromkeys((name + "_s" for name in LAYER_SPANS), 0.0)
    times.update(dict.fromkeys(PROBES, 0.0))
    totals = dict.fromkeys(gate.COUNT_NAMES, 0)
    peak_mb = 0.0
    covered = untraced = traced = 0.0
    for op_id, op in enumerate(ops):
        plain_child, plain = runner.worker("plain", op_id, op.cli_args())
        traced_child, tr = runner.worker("traced", op_id, op.cli_args())
        problems = []
        for label, child, res in (("plain", plain_child, plain), ("traced", traced_child, tr)):
            if child.status != 0 or res is None:
                problems.append(f"{label} worker exit status {child.status}")
        if not problems:
            problems = gate.check(op, plain["status"], plain["report"], refs[op.model.key])
            if tr["report"] != plain["report"] or tr["status"] != plain["status"]:
                problems.append("traced report differs from the untraced one")
        tally.add(op.name, problems)
        if problems:
            continue
        spans = [Span(**r) for r in tr["spans"]]
        for name, t in self_times(spans).items():
            if name + "_s" in times:
                times[name + "_s"] += t
        for name in PROBES:
            times[name] += tr["probes"].get(name, 0.0)
        peak_mb = max(peak_mb, tr["probes"]["models.structure_operators_peak_mb"])
        for name, n in gate.counts(plain["report"]).items():
            totals[name] += n
        covered += top_level_time(spans, tr["t0"], tr["t1"])
        untraced += plain["t1"] - plain["t0"]
        traced += tr["t1"] - tr["t0"]
        rows.append({"op": op.name, "untraced_s": plain["t1"] - plain["t0"],
                     "traced_s": tr["t1"] - tr["t0"]})
    entries = totals.pop("splitting.relation_entries")
    vacuous = totals.pop("splitting.vacuous_entries")
    out = dict(times)
    out.update(totals)
    out.update({
        "models.structure_operators_peak_mb": peak_mb,
        "splitting.relation_entries": entries,
        "splitting.vacuous_share": vacuous / entries if entries else 0.0,
        "trace.coverage_share": covered / traced if traced else 0.0,
        "trace.overhead_share": traced / untraced - 1 if untraced else 0.0,
    })
    return out


def traced_run(runner, ops, refs, seconds, tally, rows) -> dict[str, float]:
    passes = []
    deadline = now() + seconds
    while not passes or now() + pass_time < deadline:
        start = now()
        passes.append(traced_pass(runner, ops, refs, tally, rows))
        pass_time = now() - start
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lieforms").is_dir() or not (ROOT / gate.ORACLE_PATH).is_file():
        print(f"error: {ROOT} holds no lieforms checkout (src/lieforms and "
              f"{gate.ORACLE_PATH} are needed)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(OUT / f"{tag}.stderr.log")
    oracle = gate.load_oracle(ROOT)
    ops = workloads.make_ops(args.workload, args.seed, oracle, OUT / "inputs", ROOT)
    models = list({op.model.key: op.model for op in ops}.values())
    refs = {m.key: gate.reference(oracle, m) for m in models}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": commit(), "python": sys.version.split()[0],
              "nproc": len(os.sched_getaffinity(0)), "marker_before_s": fraction_marker()}
    stolen = stolen_s()
    print(f"# {tag}: commit {record['commit']}, python {record['python']}, "
          f"nproc {record['nproc']}, marker {record['marker_before_s']:.4f} s")
    tally = Tally()
    rows: list[dict] = []
    if args.trace:
        values = traced_run(runner, ops, refs, args.seconds, tally, rows)
    else:
        values = end_to_end(runner, ops, models, refs, args.seconds, tally, rows)
    record["marker_after_s"] = fraction_marker()
    if stolen is not None:
        record["stolen_s"] = stolen_s() - stolen

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for row in rows:
        print("  " + json.dumps(row))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"failed_share = {failed}/{tally.attempted} = {failed / tally.attempted:.4g}")
    for line in tally.failures:
        print(f"FAILED {line}")
    print(f"# marker after {record['marker_after_s']:.4f} s, "
          f"stolen by the host {record.get('stolen_s', 'n/a')} s")
    record.update(rows=rows, failures=tally.failures, metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
