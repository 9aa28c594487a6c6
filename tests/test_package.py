"""Source scans over the package and the code that runs it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "actionlab"
# The code whose references count as callers: the package itself, the
# scripts and the benchmark harness; tests do not count.
CALLER_DIRS = ("src", "scripts", "perfbench")
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> list[tuple[str, str, Path, int, int]]:
    """(kind, qualified name, file, first line, last line) of every public
    module-level function or class in the package and of every public method
    or property of such a class; kind is "name" or "method"."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.append(("name", f"{path.stem}.{node.name}", path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                found.extend(("method", f"{path.stem}.{node.name}.{item.name}", path,
                              item.lineno, item.end_lineno)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef) and _public(item.name))
    return found


def references() -> dict[str, dict[str, list[tuple[Path, int]]]]:
    """Where each identifier is referenced, by kind.

    "attribute" holds ``obj.name`` references.  "name" holds those plus bare
    names and string constants that are a (dotted) identifier, such as the
    ones a tracer binds by name; ``__all__`` listings and imports are not
    references.
    """
    refs = {"name": {}, "attribute": {}}

    def add(kind, ident, path, line):
        refs[kind].setdefault(ident, []).append((path, line))

    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skipped = {id(child) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                       and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                       for child in ast.walk(node.value)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    add("attribute", node.attr, path, node.lineno)
                    add("name", node.attr, path, node.lineno)
                elif isinstance(node, ast.Name):
                    add("name", node.id, path, node.lineno)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in skipped and DOTTED_NAME.fullmatch(node.value)):
                    for part in node.value.split("."):
                        add("name", part, path, node.lineno)
    return refs


def test_every_public_name_has_a_caller():
    # A public function, class, method or property that only tests reach is
    # a test oracle: it belongs in tests/conftest.py, not in the package.
    refs = references()
    uncalled = []
    for kind, qualname, path, first, last in public_definitions():
        ident = qualname.rsplit(".", 1)[1]
        where = refs["attribute" if kind == "method" else "name"].get(ident, [])
        if not any(p != path or not first <= line <= last for p, line in where):
            uncalled.append(qualname)
    assert uncalled == []


def test_scan_sees_callers_of_each_kind():
    # One witness per kind of reference the scan must count: a string
    # constant (perfbench/tracing.py binds names in LAYERS), an attribute
    # call of a method, and a bare name.
    refs = references()
    assert any(p.name == "tracing.py" for p, _ in refs["name"]["eigh_hermitian"])
    assert any(p.name == "experiments.py" for p, _ in refs["attribute"]["conditional_argmax"])
    assert any(p.name == "cli.py" for p, _ in refs["name"]["run_invariant_suite"])
    # A local variable is not an attribute reference: ``joint_distribution``
    # names one ``marginal_b``, and no code reads an attribute of that name.
    assert "marginal_b" in refs["name"]
    assert "marginal_b" not in refs["attribute"]
