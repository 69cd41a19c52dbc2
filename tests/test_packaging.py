"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``, while the CI steps that
run the tests install the test extras (pytest, hypothesis, sympy) too, so
an import of one of those in ``src/`` would go unnoticed there.  This test
parses every module of the package and checks its absolute imports.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slq2").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports anywhere in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    assert {"hopf.py", "cli.py"} <= {path.name for path in SOURCES}
    outside = {path.name: sorted(_absolute_imports(path) - sys.stdlib_module_names) for path in SOURCES}
    assert not {name: mods for name, mods in outside.items() if mods}
