"""The README's library layout names only what the package defines."""

import builtins
import importlib.util
import inspect
import re
import sys
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# backticked names that are not attributes of a module: operator pool keys
# (the names a relation row prints) and relation names of the reports
ALLOWED = {
    "e_k", "i_k", "e_r", "i_r", "e_th", "i_th", "Lie_r", "Lam", "H",
    "aux.adjoint_vs_star", "harmonic.star_duality", "aux.first_order",
}


def layout_bullets():
    """(modules, names) for each `lieforms.<m>` bullet of the library layout:
    the modules the bullet opens with, and each backticked name in it, with a
    call's arguments dropped."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0].split("\n\n`tests/", 1)[0]
    for bullet in section.split("\n- ")[1:]:
        head, _, _ = bullet.partition(":")
        modules = re.findall(r"`(lieforms\.\w+)`", head)
        names = []
        for span in re.findall(r"`([^`]+)`", bullet):
            match = NAME.match(span)
            if match and (match.end() == len(span) or span[match.end()] == "("):
                names.append(match.group())
        yield modules, names


def members(owner) -> set[str]:
    """An owner's attributes; for a class with its own `__init__`, also the
    fields that takes."""
    out = set(dir(owner))
    if isinstance(owner, type) and "__init__" in vars(owner):
        out |= set(inspect.signature(owner.__init__).parameters)
    return out


def resolves(modules, name: str) -> bool:
    """Whether a name is a module of the package or of Python, a builtin, or
    a member of one of the modules or of a class defined in one.  A dotted
    name whose head is a member must resolve as a chain; otherwise its head
    names an instance (`ops.d`), and its last part is looked up."""
    if name.startswith("lieforms."):
        return importlib.util.find_spec(name) is not None
    if name in sys.stdlib_module_names or hasattr(builtins, name):
        return True
    head, *rest = name.split(".")
    for owner in modules:
        if head in members(owner):
            for part in name.split("."):
                if owner is None or part not in members(owner):
                    return False
                owner = getattr(owner, part, None)
            return True
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__]
    return any(name.rsplit(".", 1)[-1] in members(owner) for owner in [*modules, *classes])


def test_library_layout_names_resolve():
    bullets = list(layout_bullets())
    assert len(bullets) >= 7
    missing = []
    for module_names, names in bullets:
        assert module_names, names
        modules = [importlib.import_module(m) for m in module_names]
        missing += [(module_names, n) for n in names if n not in ALLOWED and not resolves(modules, n)]
    assert not missing, missing


MEASURED = re.compile(r"\d(?: ?(?:ms|s|MB|GB)\b)")
CITED_CHANGE = re.compile(r'CHANGES\.md, "([^"]+)"')
CITED_BENCH = re.compile(r"BENCH_\d+\.json")


def test_measured_numbers_cite_their_source():
    # a paragraph that states a time or a memory size names the CHANGES.md
    # entry (by its opening words) or the BENCH file it was measured in, so
    # a reader can find how it was measured; a table belongs to the
    # paragraph before it
    root = README.parent
    entries = [line[2:] for line in (root / "CHANGES.md").read_text(encoding="utf-8").splitlines()
               if line.startswith("- ")]
    paragraphs: list[str] = []
    for block in README.read_text(encoding="utf-8").split("\n\n"):
        if block.startswith("|") and paragraphs:
            paragraphs[-1] += "\n" + block
        else:
            paragraphs.append(block)
    uncited = []
    for text in paragraphs:
        flat = " ".join(text.split())
        changes, benches = CITED_CHANGE.findall(flat), CITED_BENCH.findall(flat)
        if MEASURED.search(flat) and not (changes or benches):
            uncited.append(flat[:80])
        for opening in changes:
            assert any(e.startswith(opening) for e in entries), opening
        for bench in benches:
            assert (root / bench).is_file(), bench
    assert uncited == []
