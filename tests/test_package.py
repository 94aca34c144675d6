"""Checks on the package as a whole: every import in src/incgrade is
used, every exported name resolves, and the CLI runs on the standard
library alone."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import incgrade

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "incgrade").glob("*.py"))


def unused_imports(source):
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    assert unused_imports(
        "import json\nfrom .grading import GradingMap, cyclic_group\n"
        "cyclic_group(2)\n") == [(1, "json"), (2, "GradingMap")]


def test_every_export_resolves():
    missing = [name for name in incgrade.__all__
               if not hasattr(incgrade, name)]
    assert missing == []


# Run without site, so only the interpreter's own path and src are on
# sys.path; report the modules loaded by the end of the command.
_LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
from incgrade.cli import main
code = main(sys.argv[2:])
print(sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""

# Loaded on use only: the rational layers and what they import, and the
# fixture reader incgrade does without.
LAZY = {"fractions", "decimal", "importlib.resources", "incgrade.algebra",
        "incgrade.identities", "incgrade.linalg"}


def loaded_modules(*argv):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _LOADED, str(SRC), *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(ast.literal_eval(proc.stderr))


def test_cli_runs_on_the_standard_library_alone():
    out, loaded = loaded_modules("validate", "--poset", "example")
    assert "valid: true" in out
    ours = sys.stdlib_module_names | {"incgrade", "__main__"}
    assert sorted(m for m in loaded if m.split(".")[0] not in ours) == []
    assert sorted(loaded & LAZY) == []
    out, loaded = loaded_modules("slice", "--poset", "c2", "--group", "C2",
                                 "--theta", "1,h", "--multidegree", "h,h")
    assert "dimension: 2" in out
    assert {"incgrade.identities", "incgrade.linalg", "fractions"} <= loaded
