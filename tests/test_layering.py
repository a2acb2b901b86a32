"""Dependencies point downward: no library module imports the CLI."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _imports_cli(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.cli" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro.cli":
                return True
            if node.module == "repro" and any(
                    alias.name == "cli" for alias in node.names):
                return True
    return False


def test_only_the_cli_imports_the_cli():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "cli.py"
        and _imports_cli(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_the_check_sees_every_import_form():
    for source in ("import repro.cli", "from repro.cli import main",
                   "from repro import cli", "def f():\n    import repro.cli"):
        assert _imports_cli(ast.parse(source))
    assert not _imports_cli(ast.parse("from repro.problem_io import x"))
