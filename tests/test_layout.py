"""Guards on the shape of the source tree."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Top-level names of src/arena that nothing in src/ or scripts/ uses yet,
# each with the reason it stays.
ALLOWED = {"tournament.play_match":
           "ROADMAP item 5 gives it a caller; perfbench/trace_cli.py wraps "
           "it by name, so deleting it breaks --trace 1 until a benchmark "
           "change (ROADMAP item 4) drops that wrapper"}


def _referenced(node: ast.AST) -> str | None:
    """The name a node refers to, if it refers to one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def unused_names(root: Path) -> list[str]:
    """``module.name`` of each top-level function and class of
    ``root/src/arena`` that no code in ``src/`` or ``scripts/`` refers to
    by name outside its own definition. Names in ``arena.__all__`` and
    dunder names, which Python itself looks up, do not count."""
    package = root / "src" / "arena"
    trees = {path: ast.parse(path.read_text())
             for path in (*sorted(package.glob("*.py")),
                          *sorted((root / "scripts").glob("*.py")))}
    uses = Counter(name for tree in trees.values() for node in ast.walk(tree)
                   if (name := _referenced(node)) is not None)
    exported = set()
    for node in trees[package / "__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = sum(_referenced(inner) == node.name
                      for inner in ast.walk(node))
            if (uses[node.name] == own and node.name not in exported
                    and not node.name.startswith("__")):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_src_holds_no_code_that_only_tests_use():
    assert unused_names(ROOT) == list(ALLOWED)


def test_the_console_script_ends_as_python_m_arena_cli_does():
    # Both must leave through the one exit that flushes the output and
    # skips the interpreter's teardown, not through main alone.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["arena"]
    tree = ast.parse((ROOT / "src" / "arena" / "cli.py").read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [node.value.func.id for node in block.body
              if isinstance(node, ast.Expr)
              and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)]
    assert called and script == f"arena.cli:{called[-1]}"
