"""Source scans over the package and the code that runs it."""

import ast
import os
import re
import subprocess
import sys
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


def test_measurement_imports_without_action():
    # action builds its branch filter on measurement's Gaussian kernel, so
    # measurement reads action's types for annotations only: in a fresh
    # interpreter importing it leaves action unloaded.
    script = "import sys, actionlab.measurement\nassert 'actionlab.action' not in sys.modules\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


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


# The modules whose imports are scanned: the package, the scripts and the tests.
IMPORT_SCANNED = [path for top in (PACKAGE, ROOT / "scripts", ROOT / "tests")
                  for path in sorted(top.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads as a bare name; a name listed
    in ``__all__`` is a re-export and counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - read)


def test_no_unused_imports():
    unused = {str(path.relative_to(ROOT)): names for path in IMPORT_SCANNED
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def test_import_scan_sees_each_kind_of_use():
    source = ("import os\nimport os.path\nimport numpy as np\n"
              "from a import b as c, d, e\nfrom __future__ import annotations\n"
              "__all__ = ['d']\n\ndef f(x: e):\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["c", "os"]


def model_policy_reads(source: str, module: str) -> list[tuple[str, int]]:
    """("prefix", line) for each ``<x>.name.startswith(...)`` call and
    ("metadata", line) for each ``.metadata`` read in a package module.

    A model's behaviour comes from its typed ``ModelSystem`` fields, not from
    its name or its ``metadata``, which only the ``models`` dump
    (``cli._run_models``) reads.  A dataclass ``Field``'s metadata, read
    through a name bound by ``for <name> in fields(...)``, belongs to no model.
    """
    tree = ast.parse(source)
    dump = {id(node) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            and (module, func.name) == ("cli", "_run_models") for node in ast.walk(func)}
    field_names = {node.target.id for node in ast.walk(tree)
                   if isinstance(node, (ast.For, ast.comprehension))
                   and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Call)
                   and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "fields"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "name"):
            found.append(("prefix", node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr == "metadata"
              and isinstance(node.ctx, ast.Load) and id(node) not in dump
              and not (isinstance(node.value, ast.Name) and node.value.id in field_names)):
            found.append(("metadata", node.lineno))
    return sorted(found, key=lambda read: read[1])


def test_no_model_policy_from_names_or_metadata():
    found = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
             if (reads := model_policy_reads(path.read_text(), path.stem))}
    assert found == {}


def test_model_policy_scan_sees_each_kind_of_read():
    source = ("def f(system, cls):\n"
              "    if system.name.startswith('ring'):\n"
              "        return system.metadata['mass']\n"
              "    return [g.metadata['rule'] for g in fields(cls)]\n"
              "def _run_models(system):\n"
              "    return dict(system.metadata)\n")
    # Only the cli module's _run_models is the models dump.
    assert model_policy_reads(source, "cli") == [("prefix", 2), ("metadata", 3)]
    assert model_policy_reads(source, "experiments") == [("prefix", 2), ("metadata", 3),
                                                         ("metadata", 6)]
