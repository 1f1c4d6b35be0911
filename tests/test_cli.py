import csv
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lieforms.cli import RunConfig, json_text, parse_args, run
from lieforms.models import builtin_file_text

from conftest import DATA, child_env


def _run_to_file(tmp_path, command, model, fmt="text", degree=None, name="out"):
    path = tmp_path / f"{name}.{fmt}"
    code = run(RunConfig(command=command, model=model, degree=degree,
                         format=fmt, output=str(path)))
    return code, path.read_bytes()


def test_exit_zero_on_clean_models(tmp_path):
    for model in ("torus2", "torus4", "su2", "h3xr"):
        for command in ("check", "cohomology", "harmonic"):
            code, _ = _run_to_file(tmp_path, command, model)
            assert code == 0, (command, model)


def test_all_command_runs_everything(tmp_path):
    code, body = _run_to_file(tmp_path, "all", "su2")
    text = body.decode()
    assert code == 0
    for marker in ("relation table", "betti numbers", "harmonic bases",
                   "cone equivalence"):
        assert marker in text


def test_unknown_model_is_input_error(capsys):
    assert run(RunConfig(command="check", model="nosuch")) == 2
    assert "unknown model" in capsys.readouterr().err


def test_degree_out_of_range_is_input_error(capsys):
    assert run(RunConfig(command="harmonic", model="su2", degree=7)) == 2


def test_cone_on_kahler_model_is_input_error(capsys):
    assert run(RunConfig(command="cone", model="torus4")) == 2


def test_broken_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\ndim = 3\n[brackets]\nwhat\n")
    assert run(RunConfig(command="check", model=str(bad))) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    ("[algebra]\ndim = 3\n[structure]\nkind = sasakian\nreeb = x\n", 5),
    ("[algebra]\ndim = 4\n[structure]\nkind = vaisman\nreeb = 4\nlee = y\n", 6),
    ("[algebra]\ndim = 2\n[structure]\nkind = kahler\nJ: 1 -> 5\n", 5),
    ("[algebra]\ndim = 2\n[structure]\nkind = kahler\nJ: 0 -> 2\n", 5),
    ("[algebra]\ndim = 3\n[structure]\nkind = sasakian\nreeb = 7\n", 5),
    ("[algebra]\ndim = 2\n[structure]\nkind = kahler\nJ: 1 -> 1\n", 5),
    ("[algebra]\ndim = 4\n[structure]\nkind = vaisman\nreeb = 4\nlee = 4\n", 6),
    ("[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : -1\n"
     "[structure]\nkind = sasakian\nreeb = 3\nlee = 1\n", 8),
    ("[algebra]\ndim = 2\n[structure]\nreeb = 1\nkind = kahler\n", 4),
], ids=["reeb-not-a-number", "lee-not-a-number", "J-above-dim", "J-zero",
        "reeb-above-dim", "J-self-pair", "lee-equals-reeb", "lee-in-sasakian",
        "reeb-in-kahler"])
def test_bad_structure_index_is_input_error(tmp_path, text, line):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    child = subprocess.run([sys.executable, "-m", "lieforms.cli", "check", str(bad)],
                           capture_output=True, text=True, env=child_env())
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    assert f"line {line}:" in child.stderr


@pytest.mark.parametrize("coeff", ["1e5000", "1e999999999", "1E5000"])
def test_exponent_coefficient_is_input_error(tmp_path, capsys, coeff):
    # an exponent would have Fraction build a huge integer (1e999999999 has
    # about 3.3 billion bits), so it is refused before that
    bad = tmp_path / "exponent.alg"
    bad.write_text(f"[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : {coeff}\n"
                   "[structure]\nkind = sasakian\nreeb = 3\n")
    start = time.monotonic()
    assert run(RunConfig(command="check", model=str(bad))) == 2
    assert time.monotonic() - start < 5
    assert f"line 4: coefficient {coeff!r} has an exponent" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["9" * 101, "9" * 1500, "9" * 3000, "9" * 5000,
                                   "1/1" + "0" * 100, "-" + "9" * 101],
                         ids=["101-digits", "1500-digits", "3000-digits", "5000-digits",
                              "denominator-10^100", "negative-101-digits"])
def test_large_coefficient_is_input_error(tmp_path, capsys, coeff):
    # a printed mismatch multiplies up to four coefficients, so from 10^100
    # on one could pass Python's 4300-digit int-to-text limit; this dim-4
    # Kahler model, aff(R) x aff(R), fails its tables and prints their
    # mismatches
    bad = tmp_path / "large.alg"
    bad.write_text(AFF_AFF.format(coeff))
    for command in ("check", "all", "cohomology"):
        assert run(RunConfig(command=command, model=str(bad))) == 2
        assert "line 4: coefficient too large" in capsys.readouterr().err


# aff(R) x aff(R) with an integrable J: Kahler, but not unimodular, so the
# finite metric adjoint is not the formal one and the Kahler table fails
AFF_AFF = ("[algebra]\ndim = 4\n[brackets]\n1 2 -> 2 : {}\n3 4 -> 4 : 1\n"
           "[structure]\nkind = kahler\nJ: 1 -> 2\nJ: 3 -> 4\n")


def test_coefficient_below_the_limit_prints_its_mismatches(tmp_path, capsys):
    ok = tmp_path / "nines.alg"
    ok.write_text(AFF_AFF.format("9" * 100))
    assert run(RunConfig(command="check", model=str(ok))) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 14 and f"lhs=-{'9' * 100}, rhs=0" in out
    # the model this test once read has a non-integrable J, refused at load
    ok.write_text(f"[algebra]\ndim = 4\n[brackets]\n1 2 -> 3 : {'9' * 100}\n"
                  "[structure]\nkind = kahler\nJ: 1 -> 3\nJ: 2 -> 4\n")
    assert run(RunConfig(command="check", model=str(ok))) == 2
    assert "J: J is not integrable" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[algebra]\ndim = 4\n[brackets]\n1 3 -> 4 : -1\n[structure]\nkind = kahler\n",
    "[algebra]\ndim = 4\n[brackets]\n1 2 -> 3 : 7\n"
    "[structure]\nkind = kahler\nJ: 1 -> 3\nJ: 2 -> 4\n",
], ids=["default-J", "J-lines"])
def test_non_integrable_kahler_j_is_input_error(tmp_path, capsys, text):
    # on the first, N(e1, e3) = e4: d has a component of bidegree (2,-1) or
    # (-1,2), which {W, .} scales by +-3i and conjugation by I by -+i
    path = tmp_path / "nonintegrable.alg"
    path.write_text(text)
    for command in ("check", "cohomology", "harmonic", "all"):
        assert run(RunConfig(command=command, model=str(path))) == 2, command
        assert capsys.readouterr().err == "error: J: J is not integrable: {W, d} != I d I^-1\n"


def test_contact_pack_with_a_reeb_field_that_is_not_killing_is_input_error(tmp_path, capsys):
    # d(eta) = t1^t2 as on h3, but [e2, e3] = e1 makes ad(e3) not
    # skew-symmetric: the Reeb flow moves the metric, and no operator of the
    # tables can be composed with Lie_r
    path = tmp_path / "not-killing.alg"
    path.write_text("[algebra]\ndim = 3\n[brackets]\n1 2 -> 1 : 1\n1 2 -> 3 : -1\n"
                    "2 3 -> 1 : 1\n[structure]\nkind = sasakian\nreeb = 3\n")
    for command in ("check", "cohomology", "harmonic", "cone", "all"):
        assert run(RunConfig(command=command, model=str(path))) == 2, command
        assert capsys.readouterr().err == (
            "error: contact: the Reeb field is not Killing: Lie_r* != -Lie_r\n")


def test_integrable_non_unimodular_kahler_model_loads(tmp_path):
    # its tables fail (exit 1) and its complexes report (exit 0)
    path = tmp_path / "aff-aff.alg"
    path.write_text(AFF_AFF.format(1))
    for command, code in (("check", 1), ("cohomology", 0), ("harmonic", 0), ("all", 1)):
        assert _run_to_file(tmp_path, command, str(path))[0] == code, command


@pytest.mark.parametrize("coeff", ["0", "0/7", "-0"])
def test_zero_coefficient_is_refused_with_its_line(tmp_path, capsys, coeff):
    bad = tmp_path / "zero.alg"
    bad.write_text(f"[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : {coeff}\n"
                   "[structure]\nkind = sasakian\nreeb = 3\n")
    assert run(RunConfig(command="check", model=str(bad))) == 2
    assert "line 4: explicit zero bracket entry (1,2)->3" in capsys.readouterr().err


def test_j_line_keeps_its_direction(tmp_path, capsys):
    # `J: 2 -> 1` makes omega0 = theta^2 ^ theta^1: h3's d(eta) = theta^1 ^
    # theta^2 is then its negative, and the opposite bracket sign matches it
    path = tmp_path / "h3.alg"
    structure = "[structure]\nkind = sasakian\nreeb = 3\nJ: 2 -> 1\n"
    path.write_text(f"[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : -1\n{structure}")
    assert run(RunConfig(command="check", model=str(path))) == 2
    assert ("deta: d(eta) = (1)*t1^t2 incompatible with J pairs ((2, 1),)"
            in capsys.readouterr().err)
    path.write_text(f"[algebra]\ndim = 3\n[brackets]\n1 2 -> 3 : 1\n{structure}")
    out = tmp_path / "all.txt"
    assert run(RunConfig(command="all", model=str(path), output=str(out))) == 0
    assert "FAIL" not in out.read_text()


def test_broken_jacobi_file_reports_offending_triple(tmp_path, capsys):
    bad = tmp_path / "nonjacobi.alg"
    bad.write_text("[algebra]\ndim = 3\n[brackets]\n"
                   "1 2 -> 1 : 1\n2 3 -> 2 : 1\n1 3 -> 3 : -1\n"
                   "[structure]\nkind = sasakian\nreeb = 3\n")
    assert run(RunConfig(command="check", model=str(bad))) == 2
    err = capsys.readouterr().err
    assert "Jacobi" in err and "triple" in err


def test_model_file_accepted(tmp_path):
    path = tmp_path / "su2.alg"
    path.write_text(builtin_file_text("su2"))
    code, body = _run_to_file(tmp_path, "cohomology", str(path))
    assert code == 0
    assert b"betti" in body


def test_harmonic_degree_flag_restricts_output(tmp_path):
    code, body = _run_to_file(tmp_path, "harmonic", "su2", degree=3)
    text = body.decode()
    assert code == 0
    assert "degree 3 [0]: (1)*t1^t2^t3" in text
    assert "degree 0 [0]" not in text


def _sections(fmt: str, body: bytes) -> dict[str, list]:
    """{section title: its rows} of a json or csv report."""
    if fmt == "json":
        return {s["title"]: s["rows"] for s in json.loads(body)["sections"]}
    out: dict[str, list] = {}
    for row in list(csv.reader(io.StringIO(body.decode())))[1:]:
        out.setdefault(row[0], []).append(row[1:])
    return out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("model", ["torus4", "h5", "su2xr", str(DATA / "h5xr.alg")],
                         ids=["torus4", "h5", "su2xr", "h5xr.alg"])
def test_single_commands_print_the_sections_of_all(tmp_path, model, fmt):
    # each single command's report is made of the same-titled sections of
    # `all`, row for row; `harmonic --degree 2` keeps the degree-2 bases
    whole = _sections(fmt, _run_to_file(tmp_path, "all", model, fmt, name="all")[1])
    degree_2 = (lambda r: r["degree"] == 2) if fmt == "json" else (lambda r: r[1] == "2")
    whole["harmonic bases"] = [r for r in whole["harmonic bases"] if degree_2(r)]
    commands = ["check", "cohomology", "harmonic"]
    if "cone equivalence and long exact sequence" in whole:
        commands.append("cone")
    for command in commands:
        degree = 2 if command == "harmonic" else None
        single = _sections(fmt, _run_to_file(tmp_path, command, model, fmt, degree, command)[1])
        assert single, command
        for title, rows in single.items():
            assert rows == whole[title], (command, title)


def test_byte_determinism(tmp_path):
    for fmt in ("text", "json", "csv"):
        _, first = _run_to_file(tmp_path, "all", "h3", fmt=fmt, name="a")
        _, second = _run_to_file(tmp_path, "all", "h3", fmt=fmt, name="b")
        assert first == second


def test_byte_determinism_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "lieforms.cli", "check", "su2", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=child_env()).stdout
    second = subprocess.run(cmd, capture_output=True, check=True, env=child_env()).stdout
    assert first == second


def test_json_structure_and_no_floats(tmp_path):
    code, body = _run_to_file(tmp_path, "all", "su2xr", fmt="json")
    assert code == 0
    doc = json.loads(body)
    assert doc["model"] == "su2xr" and doc["passed"] is True
    titles = [s["title"] for s in doc["sections"]]
    assert "betti numbers" in titles

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into json output")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)


def test_json_rational_coefficients_round_trip(tmp_path):
    from lieforms.scalars import parse_scalar

    code, body = _run_to_file(tmp_path, "harmonic", "h3", fmt="json")
    doc = json.loads(body)
    rows = [r for s in doc["sections"] for r in s["rows"] if r.get("kind") == "basis"]
    assert rows
    for r in rows:
        # every coefficient in the printed representative parses back exactly
        form = r["form"]
        assert "(" in form
        for chunk in form.split("+ ("):
            coeff = chunk.split(")*")[0].lstrip("(")
            parse_scalar(coeff)


def test_csv_rows_per_complex_and_degree(tmp_path):
    code, body = _run_to_file(tmp_path, "cohomology", "h3xr", fmt="csv")
    lines = body.decode().splitlines()
    assert lines[0] == "section,kind,key,value,verdict,detail"
    table_rows = [l for l in lines if l.startswith("betti numbers,table")]
    # full (5) + sas (5) + kah (5) + theta-splitting (5)
    assert len(table_rows) == 20


def test_check_prints_one_line_per_relation(tmp_path):
    code, body = _run_to_file(tmp_path, "check", "su2")
    lines = [l for l in body.decode().splitlines() if l.strip().startswith(("PASS", "FAIL", "NOTE"))]
    assert len(lines) > 80
    assert code == 0
    assert any("holds as" in l for l in lines)  # variant notes are printed


def test_cli_main_entry():
    from lieforms.cli import main

    assert main(["check", "torus2", "--format", "csv", "--output", "/dev/null"]) == 0
    with pytest.raises(SystemExit):
        main(["unknown-command", "su2"])


@pytest.mark.parametrize("argv", [["check", "h3"], ["all", "su2xr"]],
                         ids=["check h3", "all su2xr"])
def test_traced_worker_report_matches_plain(argv):
    # the benchmark's traced worker calls engine functions by name, so a
    # rename of one of them would break only a traced benchmark run
    root = Path(__file__).resolve().parent.parent
    out = {}
    for mode in ("plain", "traced"):
        child = subprocess.run(
            [sys.executable, str(root / "perfbench" / "worker.py"), mode,
             repr(time.monotonic()), "0", *argv, "--format", "json"],
            capture_output=True, text=True, env=child_env(), cwd=root, timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]
        out[mode] = json.loads(child.stdout)
    assert out["plain"]["status"] == out["traced"]["status"] == 0
    assert out["traced"]["report"] == out["plain"]["report"]
    assert set(out["traced"]["probes"]) == {
        "splitting.foliation_split_s", "splitting.hodge_split_d1_s",
        "models.structure_operators_peak_mb"}


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("args, code, snapshot", [
    (["all", "tests/data/h9.alg", "--format", "json"], 0, "h9.all.json"),
    (["check", "tests/data/su2_aff.alg"], 1, "su2_aff.check.txt"),
], ids=["all h9 json", "check su2_aff"])
def test_command_line_process_delivers_the_whole_report(args, code, snapshot):
    # the process ends with os._exit after flushing; the h9 report (89 KB)
    # is larger than a pipe buffer, so it is written in several pieces
    child = subprocess.run([sys.executable, "-m", "lieforms.cli", *args], capture_output=True,
                           env=child_env(), cwd=ROOT, timeout=120)
    assert child.returncode == code, child.stderr[-2000:]
    assert child.stdout == (GOLDEN / snapshot).read_bytes()
    assert child.stderr == b""


def test_command_line_process_reports_input_errors_and_writes_output_files(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\ndim = 3\n[brackets]\nwhat\n")
    child = subprocess.run([sys.executable, "-m", "lieforms.cli", "check", str(bad)],
                           capture_output=True, text=True, env=child_env(), timeout=60)
    assert child.returncode == 2
    assert child.stderr == f"error: line 4: expected `i j -> k : a/b`, got 'what'\n"
    out = tmp_path / "report.csv"
    child = subprocess.run([sys.executable, "-m", "lieforms.cli", "all", "h5", "--format", "csv",
                            "--output", str(out)],
                           capture_output=True, env=child_env(), timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
    assert out.read_bytes() == (GOLDEN / "h5.csv").read_bytes()


class _Exit(Exception):
    pass


def test_entry_flushes_then_ends_without_teardown(monkeypatch):
    import io
    import os

    from lieforms import cli

    class Stream(io.StringIO):
        def __init__(self, fail: bool):
            super().__init__()
            self.fail, self.flushed = fail, False

        def flush(self):
            if self.fail:
                raise BrokenPipeError
            self.flushed = True

    def hard_exit(status):
        raise _Exit(status)

    monkeypatch.setattr(os, "_exit", hard_exit)
    monkeypatch.setattr(sys, "argv", ["lieforms", "cohomology", "torus2"])
    out, err = Stream(False), Stream(False)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    with pytest.raises(_Exit) as ended:
        cli.entry()
    assert ended.value.args == (0,) and out.flushed and err.flushed
    assert out.getvalue().startswith("== cohomology torus2 ==")
    # a failed flush falls back to a normal exit with the same status
    monkeypatch.setattr(sys, "stdout", Stream(True))
    with pytest.raises(SystemExit) as ended:
        cli.entry()
    assert ended.value.code == 0
    # a usage error's exit takes the normal path too
    monkeypatch.setattr(sys, "argv", ["lieforms", "nosuch-command"])
    with pytest.raises(SystemExit) as ended:
        cli.entry()
    assert ended.value.code == 2
    assert 'lieforms = "lieforms.cli:entry"' in (ROOT / "pyproject.toml").read_text()


def test_cold_import_loads_no_introspection_modules(tmp_path):
    # every record of the package is a plain class, so a fresh command-line
    # process never imports dataclasses and the modules it drags in; the
    # command line is parsed and the json report written by hand, so a
    # whole command loads no argparse (nor the gettext and locale its
    # messages pull in), csv or json beyond what the bare interpreter holds
    root = Path(__file__).resolve().parent.parent
    bare = subprocess.run([sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
                          capture_output=True, text=True, env=child_env(), cwd=root, timeout=60)
    probe = ("import io, sys, lieforms.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'tokenize') "
             "if m in sys.modules)); "
             "out, sys.stdout = sys.stdout, io.StringIO(); "
             "status = lieforms.cli.main(['all', 'h5', '--format', 'json']); "
             "report, sys.stdout = sys.stdout.getvalue(), out; "
             "print(status, report.startswith('{'), ' '.join(sys.modules))")
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=child_env(), cwd=root, timeout=60)
    assert child.returncode == 0, child.stderr[-2000:]
    imported, ran = child.stdout.splitlines()
    assert imported.split() == []
    status, is_json, *modules = ran.split()
    assert (status, is_json) == ("0", "True")
    new = set(modules) - set(bare.stdout.split())
    assert sorted(m for m in new if m.split(".")[0] in
                  ("argparse", "gettext", "locale", "csv", "json")) == []
    # without site, which may preload them, the same command imports neither
    # typing (annotation names are never evaluated) nor importlib.resources
    # (the builtin models are read from the package's own directory), and
    # writes the same report
    probe = ("import sys, lieforms.cli; "
             "status = lieforms.cli.main(['all', 'h5', '--format', 'json']); "
             "print(status, *(m for m in ('typing', 'importlib.resources') if m in sys.modules))")
    child = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                           env=child_env(), cwd=root, timeout=60)
    assert child.returncode == 0, child.stderr[-2000:]
    _, report = _run_to_file(tmp_path, "all", "h5", "json")
    assert child.stdout == report.decode() + "0\n"


# argv -> (command, model, degree, format, output) as the argparse parser
# of earlier versions produced it; the hand-written parser must agree
ACCEPTED = [
    (["check", "h3"], ("check", "h3", None, "text", None)),
    (["cohomology", "su2", "--format", "json"], ("cohomology", "su2", None, "json", None)),
    (["harmonic", "su2", "--degree", "2"], ("harmonic", "su2", 2, "text", None)),
    (["harmonic", "su2", "--degree=2"], ("harmonic", "su2", 2, "text", None)),
    (["all", "h5", "--format=csv", "--output", "out.csv"], ("all", "h5", None, "csv", "out.csv")),
    (["all", "--format", "json", "h5"], ("all", "h5", None, "json", None)),
    (["cone", "--output", "report.txt", "--format", "text", "su2xr"],
     ("cone", "su2xr", None, "text", "report.txt")),
    (["all", "h5", "--format", "text", "--format", "json"], ("all", "h5", None, "json", None)),
    (["harmonic", "su2", "--degree", "1", "--degree", "3"], ("harmonic", "su2", 3, "text", None)),
    (["harmonic", "su2", "--degree", "-1"], ("harmonic", "su2", -1, "text", None)),
    (["harmonic", "su2", "--degree=+3"], ("harmonic", "su2", 3, "text", None)),
    (["all", "--degree", "0", "h3"], ("all", "h3", 0, "text", None)),
    (["check", "tests/data/h7.alg", "--output=-"], ("check", "tests/data/h7.alg", None, "text", "-")),
    (["check", "h3", "--output="], ("check", "h3", None, "text", "")),
    (["cone", "h3xr", "--format=json", "--output", "a=b"], ("cone", "h3xr", None, "json", "a=b")),
    (["check", "h3", "--output", "a", "--output", "b"], ("check", "h3", None, "text", "b")),
    (["check", "h3", "--output", "-"], ("check", "h3", None, "text", "-")),
    (["check", "--", "h3"], ("check", "h3", None, "text", None)),
    (["check", "h3", "--"], ("check", "h3", None, "text", None)),
    (["cohomology", "--format", "csv", "--", "-odd.alg"],
     ("cohomology", "-odd.alg", None, "csv", None)),
]

REJECTED = [
    [], ["nosuch", "h3"], ["CHECK", "h3"], ["check"], ["check", "h3", "h5"],
    ["check", "h3", "--format"], ["check", "h3", "--format", "xml"], ["check", "h3", "--format="],
    ["check", "h3", "--degree", "2"], ["cohomology", "h3", "--degree=2"],
    ["cone", "--degree", "1", "h3xr"], ["harmonic", "su2", "--degree", "two"],
    ["harmonic", "su2", "--degree", "1.5"], ["harmonic", "su2", "--degree"],
    ["harmonic", "su2", "--degree="], ["check", "h3", "--output", "--format", "json"],
    ["check", "h3", "--output"], ["check", "h3", "-x"], ["check", "h3", "--verbose"],
    ["--format", "json", "check", "h3"], ["check", "-f", "json", "h3"],
    ["check", "--format", "json"], ["check", "-odd.alg"], ["nosuch", "--help"],
    ["check", "h3", "-"],
    # argparse's prefix abbreviations are not accepted
    ["check", "h3", "--form", "json"], ["harmonic", "su2", "--deg", "2"],
    ["check", "h3", "--out", "x"], ["--he"],
]


@pytest.mark.parametrize("argv, want", ACCEPTED, ids=[" ".join(a) for a, _ in ACCEPTED])
def test_parser_reads_the_command_line_as_argparse_did(argv, want):
    c = parse_args(argv)
    assert (c.command, c.model, c.degree, c.format, c.output) == want


@pytest.mark.parametrize("argv", REJECTED, ids=[" ".join(a) or "(empty)" for a in REJECTED])
def test_parser_rejects_with_usage_and_status_2(argv, capsys):
    with pytest.raises(SystemExit) as ended:
        parse_args(argv)
    out, err = capsys.readouterr()
    assert ended.value.code == 2
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: lieforms ") and error.startswith("lieforms: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check", "-h"], ["all", "h5", "--help"],
                                  ["harmonic", "--help"], ["cone", "--format", "json", "-h"]])
def test_help_prints_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as ended:
        parse_args(argv)
    out, err = capsys.readouterr()
    assert ended.value.code == 0 and err == ""
    assert out.startswith("usage: lieforms ") and "--degree K" in out


# report-like values: str (non-ASCII, control, astral and lone surrogate code points
# included), int, bool, None, and lists and str-keyed dicts of them
json_strings = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                                     blacklist_categories=()), max_size=8)
json_values = st.recursive(
    st.one_of(json_strings, st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(json_values)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1: "a"}, [b"x"], {"a": {"b": Path("p")}}])
def test_json_text_refuses_other_types(bad):
    with pytest.raises(TypeError):
        json_text(bad)


@pytest.mark.parametrize("snapshot", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_json_text_rerenders_every_golden_snapshot(snapshot):
    text = (GOLDEN / snapshot).read_text(encoding="utf-8")
    assert json_text(json.loads(text)) + "\n" == text


@st.composite
def model_texts(draw):
    """A model file of dim <= 4: a random kind with its reeb and lee lines
    and a dimension of the kind's parity, often brackets that make d(eta)
    the form of the default J pairs, then random brackets.  One text in
    five is noisy: an index may fall outside
    1..dim, the dimension may have either parity, lee may equal reeb, a
    reeb or lee line may be missing or extra, a bracket may pair a
    generator with itself, and J lines are added."""
    noisy = draw(st.integers(0, 4)) == 0
    kind = draw(st.sampled_from(["kahler", "sasakian", "vaisman"]))
    # a Kahler or Vaisman dimension is even and a Sasakian one odd
    dim = draw(st.integers(1, 4) if noisy else st.sampled_from([1, 3] if kind == "sasakian"
                                                              else [2, 4]))
    index = st.integers(0, dim + 1) if noisy else st.integers(1, dim)
    coeff = st.sampled_from(["1", "-1", "2", "1/2"]) | st.fractions(-3, 3, max_denominator=3)
    reeb = draw(index)
    lee = draw(index.filter(lambda k: noisy or k != reeb))
    brackets = []
    if draw(st.booleans()):
        free = [k for k in range(1, dim + 1) if k not in (reeb, lee)]
        brackets += [(a, b, reeb, "-1") for a, b in zip(free[::2], free[1::2])]
    brackets += draw(st.lists(st.tuples(index, index, index, coeff).filter(
        lambda b: noisy or b[0] != b[1]), max_size=3))
    lines = ["[algebra]", f"dim = {dim}", "[brackets]"]
    lines += [f"{i} {j} -> {k} : {c}" for i, j, k, c in brackets]
    lines += ["[structure]", f"kind = {kind}"]
    for key, value, needed in (("reeb", reeb, kind != "kahler"), ("lee", lee, kind == "vaisman")):
        if draw(st.booleans()) if noisy else needed:
            lines.append(f"{key} = {value}")
    if noisy:
        lines += [f"J: {a} -> {b}" for a, b in draw(st.lists(st.tuples(index, index), max_size=2))]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=100)
@given(model_texts())
def test_every_command_ends_with_an_exit_status_on_generated_models(text):
    # each command either reports (0 or 1) or refuses the input (2); none raises
    import contextlib
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.alg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(io.StringIO()):
            for command in ("check", "cohomology", "harmonic", "cone", "all"):
                config = RunConfig(command=command, model=path, output=os.devnull)
                assert run(config) in (0, 1, 2), (command, text)
