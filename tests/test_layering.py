"""Dependencies point downward, and every library module has a caller.

No library module imports the CLI.  Every module under ``src/repro`` is
reached by a static import walk from the CLI, the benchmarks and the
examples, so a module that only its own tests use fails here.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _unreached(roots, sources):
    """Modules of ``sources`` (dotted name → source text) that no import
    walk from the ``roots`` (source texts) reaches, packages aside.

    ``from pkg import name`` follows ``name`` through each package
    ``__init__`` that re-exports it to the module that defines it, so a
    re-exporting ``__init__`` does not reach its other submodules.  A
    module imported whole, or an ``__init__`` that defines the name
    itself, is walked: every import in it counts, inside functions too.
    """
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    packages = {name.rpartition(".")[0] for name in trees} & set(trees)
    reexports = {
        package: {
            alias.asname or alias.name: (node.module, alias.name)
            for node in trees[package].body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for package in packages
    }
    reached = set()
    todo = [ast.parse(text) for text in roots]

    def reach(name):
        if name in trees and name not in reached:
            reached.add(name)
            todo.append(trees[name])

    def follow(module, name):
        if module not in packages:
            reach(module)
        elif name in reexports[module]:
            follow(*reexports[module][name])
        elif module + "." + name in trees:
            reach(module + "." + name)
        else:
            reach(module)

    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reach(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    follow(node.module, alias.name)
    return sorted(set(trees) - packages - reached)


def test_every_module_is_reached_from_the_cli_benchmarks_or_examples():
    sources = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        sources[".".join(parts)] = path.read_text()
    roots = ["import repro.cli"] + [
        path.read_text()
        for folder in ("benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    unreached = _unreached(roots, sources)
    assert not unreached, (
        "no CLI, benchmark or example reaches " + ", ".join(unreached))


def test_the_walk_follows_every_import_form():
    sources = {
        "p": "from p.sub import B\nfrom p.own import helper\n",
        "p.sub": "from p.sub.b import B\nfrom p.sub.dead import D\n",
        "p.sub.b": "",
        "p.sub.dead": "",
        "p.own": "from p.own.used import U\n\ndef helper():\n    return U\n",
        "p.own.used": "",
        "p.plain": "",
        "p.lazy": "def run():\n    import p.deep\n",
        "p.deep": "",
    }
    needs = {
        "from p import B": ["p.sub.b"],
        "from p.own import helper": ["p.own.used"],
        "import p.plain": ["p.plain"],
        "def main():\n    from p.lazy import run\n": ["p.deep", "p.lazy"],
    }
    assert _unreached(list(needs), sources) == ["p.sub.dead"]
    for root, modules in needs.items():
        others = [other for other in needs if other != root]
        assert _unreached(others, sources) == sorted(
            modules + ["p.sub.dead"])
