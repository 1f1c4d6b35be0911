"""Command-line front end.

Commands: check, cohomology, harmonic, cone, all; each takes a builtin
model name or a path to a .alg file.  Exit status 0 means every asserted
invariant and every normative identity passed (printed-form typos that
hold under a recorded variant still count as passes, with the variant
named in the report); 1 means some verification failed; 2 means the
input could not be used.  Output is byte-deterministic for a fixed
configuration, and no output format ever contains a floating-point
number: scalars are printed as exact rationals a/b (plus c/di when a
Gaussian part is present).
"""

from __future__ import annotations

import io
import os
import sys

from .cohomology import (
    basic_subcomplex,
    contact_foliation,
    full_complex,
    harmonic_space,
    transversal_package,
)
from .cones import (
    lefschetz_cone_package,
    sasakian_decomposition,
    sasakian_harmonic_check,
    vaisman_decomposition,
    vaisman_harmonic_check,
)
from .forms import form_text
from .models import BUILTIN_NAMES, ModelError, builtin, load_model_file
from .splitting import (
    antisymmetry_report,
    jacobi_report,
    kahler_relations,
    sasakian_relations,
    vaisman_structure_relations,
)

COMMANDS = ("check", "cohomology", "harmonic", "cone", "all")
FORMATS = ("text", "json", "csv")


class RunConfig:
    __slots__ = ("command", "model", "degree", "format", "output")

    def __init__(self, command: str, model: str, degree: int | None = None,
                 format: str = "text", output: str | None = None):
        self.command, self.model, self.degree = command, model, degree
        self.format, self.output = format, output


_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                 "\b": "\\b", "\f": "\\f"}


def _json_string(s: str) -> str:
    """s as a JSON string literal, escaped as `json.dumps` does with
    `ensure_ascii`: printable ASCII stays, everything else is `\\uXXXX`
    (a surrogate pair above U+FFFF)."""
    if s.isascii() and s.isprintable():
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    out = []
    for ch in s:
        c = ord(ch)
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif 0x20 <= c < 0x7F:
            out.append(ch)
        elif c < 0x10000:
            out.append(f"\\u{c:04x}")
        else:
            c -= 0x10000
            out.append(f"\\u{0xD800 | c >> 10:04x}\\u{0xDC00 | c & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _json_parts(value, indent: str, out: list[str], keys: dict[str, str]):
    # exact type tests: the report's rows are plain str, int, bool, None,
    # list and dict, and a str value inside a dict (most of them) is
    # written with its key in one piece; `keys` keeps each key's literal
    t = type(value)
    if t is str:
        out.append(_json_string(value))
    elif t is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k, x in value.items():
            key = keys.get(k)
            if key is None:
                if type(k) is not str:
                    raise TypeError(f"JSON object key {k!r} is not a str")
                key = keys[k] = _json_string(k) + ": "
            if type(x) is str:
                out.append(sep + key + _json_string(x))
            else:
                out.append(sep + key)
                _json_parts(x, inner, out, keys)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif t is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for x in value:
            out.append(sep)
            _json_parts(x, inner, out, keys)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif value is None:
        out.append("null")
    elif t is bool:
        out.append("true" if value else "false")
    elif t is int:
        out.append(repr(value))
    else:
        raise TypeError(f"{t.__name__} is not one of the JSON value types of a report")


def json_text(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for the values a report
    holds: str, int, bool, None, and lists and str-keyed dicts of them.
    Any other type, a subclass of these included, raises TypeError."""
    out: list[str] = []
    _json_parts(value, "", out, {})
    return "".join(out)


class Report:
    """Ordered sections of rows, rendered to text, json or csv
    deterministically.  A row is made once in all three forms: the triple
    (text line, JSON object, CSV fields after the section title, or None
    for a row the CSV leaves out)."""

    def __init__(self, command: str, model_name: str):
        self.command = command
        self.model_name = model_name
        self.sections: list[tuple[str, list[tuple[str, dict, list | None]]]] = []
        self.failed = False

    def add_checks(self, title: str, records: list):
        """A section of check outcomes (`verdicts.py` records), each printed
        as its own row; one that did not pass fails the report."""
        self.sections.append((title, [(r.line(), r.row(), r.csv()) for r in records]))
        if not all(r.ok for r in records):
            self.failed = True

    def add_table(self, title: str, columns: list[str], rows: list[list]):
        """A header row, then a row per list of column values; the CSV keys
        a row by its first value and lists the others as column=value."""
        section = [(" | ".join(columns), {"kind": "header", "columns": columns}, None)]
        for values in rows:
            rest = ";".join(f"{c}={v}" for c, v in zip(columns[1:], values[1:]))
            section.append((" | ".join(map(str, values)),
                            {**dict(zip(columns, values)), "kind": "table"},
                            ["table", str(values[0]), rest, "", ""]))
        self.sections.append((title, section))

    # -- renderers -----------------------------------------------------

    def to_text(self) -> str:
        out = [f"== {self.command} {self.model_name} =="]
        for title, rows in self.sections:
            out.append(f"-- {title}")
            out += ["  " + line for line, _, _ in rows]
        out.append(f"result: {'FAIL' if self.failed else 'OK'}")
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "model": self.model_name,
            "passed": not self.failed,
            "sections": [{"title": title, "rows": [obj for _, obj, _ in rows]}
                         for title, rows in self.sections],
        }
        return json_text(doc) + "\n"

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "kind", "key", "value", "verdict", "detail"])
        for title, rows in self.sections:
            writer.writerows([title, *fields] for _, _, fields in rows if fields is not None)
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        return {"text": self.to_text, "json": self.to_json, "csv": self.to_csv}[fmt]()


def _load(name: str):
    if name in BUILTIN_NAMES:
        return builtin(name)
    if os.path.exists(name):
        return load_model_file(name)
    raise ModelError(
        f"unknown model {name!r}: not a builtin ({', '.join(BUILTIN_NAMES)}) "
        "and no such file")


def _betti_rows(name, cx):
    return [[name, k, cx.betti(k)] for k in cx.degrees]


def _run_check(report: Report, model, pack):
    if pack.kind == "kahler":
        report.add_checks("relation table", kahler_relations(model, pack))
    elif pack.kind == "sasakian":
        report.add_checks("relation table", sasakian_relations(model, pack))
        report.add_checks("transversal package (reeb foliation)",
                          transversal_package(model, pack))
    else:
        report.add_checks("structure table", vaisman_structure_relations(model, pack))
        report.add_checks("transversal package (canonical foliation)",
                          transversal_package(model, pack))
        from .cohomology import basic_adjoint_check
        report.add_checks("basic adjoint identity (lee foliation)",
                          basic_adjoint_check(model, pack))
    report.add_checks("superalgebra guards", [
        antisymmetry_report(model, pack),
        jacobi_report(model, pack, exhaustive=model.dim <= 3)])


def _run_cohomology(report: Report, model, pack):
    full = full_complex(model, pack)
    rows = _betti_rows("full", full)
    if pack.kind == "sasakian":
        rows += _betti_rows("basic", basic_subcomplex(model, pack, pack.vertical_indices))
    elif pack.kind == "vaisman":
        sas = basic_subcomplex(model, pack, contact_foliation(pack))
        rows += _betti_rows("sas", sas)
        rows += _betti_rows("kah", basic_subcomplex(model, pack, pack.vertical_indices))
        rows += [["theta-splitting", k, f"{sas.betti(k)}+{sas.betti(k - 1)}"]
                 for k in full.degrees]
    report.add_table("betti numbers", ["complex", "degree", "betti"], rows)
    if pack.kind == "sasakian":
        report.add_checks("cohomology decomposition", sasakian_decomposition(model, pack))
    elif pack.kind == "vaisman":
        report.add_checks("cohomology decomposition", vaisman_decomposition(model, pack))


def _run_harmonic(report: Report, model, pack, degree):
    degrees = range(model.dim + 1) if degree is None else [degree]
    rows = []
    for k in degrees:
        for j, col in enumerate(harmonic_space(model, pack, k).columns()):
            form = form_text(model.dim, k, col)
            rows.append((f"degree {k} [{j}]: {form}",
                         {"kind": "basis", "degree": k, "index": j, "form": form},
                         ["basis", k, form, "", str(j)]))
    report.sections.append(("harmonic bases", rows))
    if pack.kind == "sasakian":
        report.add_checks("harmonic decomposition", sasakian_harmonic_check(model, pack))
    elif pack.kind == "vaisman":
        report.add_checks("harmonic decomposition", vaisman_harmonic_check(model, pack))


def _run_cone(report: Report, model, pack):
    report.add_checks("cone equivalence and long exact sequence",
                      lefschetz_cone_package(model, pack))


def run(config: RunConfig) -> int:
    """Execute one command; returns the exit status and emits the report."""
    try:
        model, pack = _load(config.model)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.degree is not None and not 0 <= config.degree <= model.dim:
        print(f"error: degree {config.degree} outside 0..{model.dim}", file=sys.stderr)
        return 2
    if config.command == "cone" and pack.kind == "kahler":
        print("error: the cone construction needs a reeb direction "
              "(sasakian or vaisman model)", file=sys.stderr)
        return 2

    report = Report(config.command, model.name)
    try:
        if config.command in ("check", "all"):
            _run_check(report, model, pack)
        if config.command in ("cohomology", "all"):
            _run_cohomology(report, model, pack)
        if config.command in ("harmonic", "all"):
            _run_harmonic(report, model, pack, config.degree)
        if config.command in ("cone", "all") and pack.kind != "kahler":
            _run_cone(report, model, pack)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.render(config.format)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if report.failed else 0


USAGE = ("usage: lieforms {check,cohomology,harmonic,cone,all} MODEL "
         "[--format text|json|csv] [--output PATH] [--degree K]\n")
HELP = USAGE + f"""
exact operator-relation and cohomology verdicts on Lie-algebra models

MODEL is a builtin ({'|'.join(BUILTIN_NAMES)}) or the path of a .alg file.
Options may come before or after MODEL, as --flag VALUE or --flag=VALUE;
the last occurrence of a flag wins.

  --format text|json|csv  report format (default text)
  --output PATH           write the report to PATH instead of stdout
  --degree K              harmonic and all only: harmonic bases of degree K

exit status: 0 every check passed, 1 some check failed, 2 unusable input
"""


def _help():
    sys.stdout.write(HELP)
    raise SystemExit(0)


def _usage_error(reason: str):
    sys.stderr.write(f"{USAGE}lieforms: error: {reason}\n")
    raise SystemExit(2)


def _is_flag(arg: str) -> bool:
    # as with argparse, "-" and negative numbers are values, not flags
    return arg.startswith("-") and arg != "-" and not arg[1:].isdecimal()


def parse_args(argv: list[str]) -> RunConfig:
    """The command line `<command> <model> [--format F] [--output PATH]
    [--degree K]` as a RunConfig; `-h`/`--help` prints the help and exits
    0, and any other input exits 2 after a usage error on stderr."""
    if not argv:
        _usage_error("no command given")
    if argv[0] in ("-h", "--help"):
        _help()
    command, rest = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        _usage_error(f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    flags = ("--format", "--output", "--degree")
    options: dict[str, str | int] = {}
    models: list[str] = []
    for arg in rest:
        if arg == "--":  # every later argument is a model
            models += rest
        elif not _is_flag(arg):
            models.append(arg)
        elif arg in ("-h", "--help"):
            _help()
        else:
            flag, eq, value = arg.partition("=")
            if flag not in flags:
                _usage_error(f"unrecognized option {arg!r}")
            if flag == "--degree" and command not in ("harmonic", "all"):
                _usage_error(f"--degree applies to harmonic and all, not to {command}")
            if not eq:
                value = next(rest, None)
                if value is None or _is_flag(value):
                    _usage_error(f"{flag} expects a value")
            if flag == "--format" and value not in FORMATS:
                _usage_error(f"invalid --format {value!r} (choose from {', '.join(FORMATS)})")
            if flag == "--degree":
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"--degree expects an integer, got {value!r}")
            options[flag] = value
    if len(models) != 1:
        _usage_error("no model given" if not models
                     else f"one model expected, got {' '.join(models)}")
    return RunConfig(command, models[0], options.get("--degree"),
                     options.get("--format", "text"), options.get("--output"))


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


def entry():
    """The command line's entry point: run `main`, flush the report, and end
    the process with `os._exit`, skipping interpreter teardown, which frees
    nothing a finished command needs.  If a flush fails, the process exits
    the normal way, so the error is reported.  An exception escaping `main`
    (a usage error's SystemExit among them) also takes the normal path."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry()
