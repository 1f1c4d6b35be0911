"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_times, top_level_time  # noqa: E402

ROOT = run.ROOT
OUT = run.OUT / "selftest"


@pytest.fixture(scope="module")
def oracle():
    return gate.load_oracle(ROOT)


@pytest.fixture(scope="module")
def runner():
    OUT.mkdir(parents=True, exist_ok=True)
    return run.Runner(OUT / "stderr.log")


@pytest.fixture(scope="module")
def h3_all(oracle, runner):
    model = next(m for m in workloads.builtin_models(oracle) if m.name == "h3")
    op = workloads.Op("all", model)
    return op, gate.reference(oracle, model), runner.cli(op)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0),
        Span(1, "b", 1.0, 4.0, 0, 0),
        Span(2, "c", 3.0, 6.0, 0, 0),    # overlaps b
        Span(3, "d", 8.0, 12.0, 0, 0),   # runs past its parent: clipped
        Span(4, "e", 2.0, 3.0, 1, 0),
        Span(5, "b", 20.0, 21.5, None, 0),
        Span(0, "a", 0.0, 2.0, None, 1),  # same ids, other operation
        Span(1, "e", 0.5, 1.0, 0, 1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"a": 3.0 + 1.5, "b": 2.0 + 1.5, "c": 3.0, "d": 4.0, "e": 1.5})
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert top_level_time(spans, 0.0, 21.0) == pytest.approx(11.0)


def test_tracer_records_nesting():
    tracer = Tracer(op=3)
    tracer.record("outside", 0.0, 0.5)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    by_name = {s["name"]: s for s in tracer.to_json()}
    assert by_name["outside"]["parent"] is None
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert all(s["op"] == 3 for s in by_name.values())
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] <= by_name["inner"]["end"]


def test_ladder_generator(oracle, runner):
    sys.path.insert(0, str(ROOT / "src"))
    from lieforms.models import parse_model

    texts = set()
    for seed in range(3):
        models = workloads.ladder_models(seed, OUT / "inputs", ROOT)
        again = workloads.ladder_models(seed, OUT / "again", ROOT)
        for m, m2 in zip(models, again):
            text = (ROOT / m.key).read_text()
            assert text == (ROOT / m2.key).read_text()
            texts.add(text)
            model, pack = parse_model(text, m.name)
            assert (model.dim, pack.kind, pack.reeb_index) == (m.dim, m.kind, m.reeb)
            op = workloads.Op("cohomology", m)
            child = runner.cli(op)
            assert gate.check(op, child.status, child.stdout, gate.reference(oracle, m)) == []
    assert len(texts) > 2  # the relabelling moves the coframe


def test_relabelling_keeps_pairs_increasing():
    for seed in range(50):
        for base in workloads.LADDER_BASES:
            m = workloads.relabel(base, random.Random(seed))
            assert all(a < b for a, b in m.j_pairs)
            used = {k for p in m.j_pairs for k in p} | {m.reeb}
            assert used == set(range(1, m.dim + 1))
            assert m.lee is None or (m.lee, m.reeb) in m.j_pairs
            # each bracket stays inside its J pair, so its sign never flips
            assert all(c == -1 for c in m.brackets.values())


@pytest.mark.xfail(strict=True, reason="engine defect: the basic Hodge star orients the "
                   "horizontal coframe by index order, so harmonic.star_duality fails "
                   "when dim - reeb is odd; the ladder holds the h5 rung back")
def test_held_back_rungs_pass(oracle, runner):
    assert workloads.HELD_BACK == ("h5",)
    seed = 0
    while True:
        model = next(m for m in workloads.ladder_models(seed, OUT / "inputs", ROOT)
                     if m.name == f"h5~{seed}")
        if (model.dim - model.reeb) % 2:
            break
        seed += 1
    op = workloads.Op("harmonic", model)
    child = runner.cli(op)
    assert gate.check(op, child.status, child.stdout, gate.reference(oracle, model)) == []


def test_ladder_runs_every_rung_not_held_back():
    ops = workloads.make_ops("ladder", 7, None, OUT / "inputs", ROOT)
    names = {op.model.name.split("~")[0] for op in ops}
    assert names == {b.name for b in workloads.LADDER_BASES} - set(workloads.HELD_BACK)


def test_counts_repeat_exactly(h3_all, runner):
    op, _, first = h3_all
    second = runner.cli(op)
    assert gate.counts(first.stdout) == gate.counts(second.stdout)
    c = gate.counts(first.stdout)
    assert c["splitting.relation_entries"] > 0
    assert c["operators.pool_size"] == 11
    assert c["splitting.jacobi_triples"] == 11 ** 3


def test_gate_fails_a_corrupted_reference(h3_all):
    op, ref, child = h3_all
    assert gate.check(op, child.status, child.stdout, ref) == []
    bad_full = json.loads(json.dumps(ref))
    bad_full["full"][1] += 1
    assert gate.check(op, child.status, child.stdout, bad_full)
    bad_basic = json.loads(json.dumps(ref))
    bad_basic["basic"]["basic"][0] += 1
    assert gate.check(op, child.status, child.stdout, bad_basic)
    assert gate.check(op, 1, child.stdout, ref)


def test_refuses_to_run_without_the_package():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").glob("*.py"):
        if not f.name.startswith("test_"):  # a copy of this file would be collected
            shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
