"""Smoke runs of the example scripts: they still run against the library;
and a check that every public name of the library has a caller."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, headings",
    [
        (
            "knockout_demo.py",
            ("--actors", 6, "--events", 40, "--replicates", 3),
            ["simulated 40 events over 6 actors", "AICc", "mean Theil", "all_removed"],
        ),
        (
            # two actors: every Theil index is 0, so the comparisons print blank
            "knockout_demo.py",
            ("--actors", 2, "--events", 20, "--replicates", 3),
            ["simulated 20 events over 2 actors", "mean Theil", "all_removed"],
        ),
        (
            "recovery_experiment.py",
            ("--actors", 5, "--events", 60, "--replicates", 2),
            ["95% interval coverage:", "PSAB-BA", "RRecSnd", "ICR"],
        ),
    ],
    ids=["knockout_demo", "knockout_demo_two_actors", "recovery_experiment"],
)
def test_script_runs(name, args, headings):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    for heading in headings:
        assert heading in result.stdout


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _references(tree):
    """(name, line) of every read of a name in ``tree``: a loaded name or
    attribute, an imported name, or a string naming it (as ``getattr`` or
    a wrapper by name takes it), docstrings aside."""
    skip = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip and node.value.isidentifier():
                yield node.value, node.lineno


def _public_definitions(tree):
    """(name, first line, last line) of each public module-level function,
    class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_every_public_name_has_a_caller():
    # a caller is the package itself, a script, the benchmark or the
    # console-script entry point; the tests and the package's re-exports
    # in __init__.py do not count
    package = REPO / "src" / "remnet"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in [
            *package.glob("*.py"),
            *(REPO / "scripts").glob("*.py"),
            *(REPO / "perfbench").glob("**/*.py"),
        ]
    }
    references = {
        path: list(_references(tree))
        for path, tree in trees.items()
        if path != package / "__init__.py"
    }
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    entry_points = set(re.findall(r'"[\w.]+:(\w+)"', pyproject))
    unused = []
    for path in sorted(package.glob("*.py")):
        for name, first, last in _public_definitions(trees[path]):
            called = name in entry_points or any(
                ref == name and not (where == path and first <= line <= last)
                for where, refs in references.items()
                for ref, line in refs
            )
            if not called:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names with no caller: {unused}"
