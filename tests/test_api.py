"""The package's public surface."""

import ast
from pathlib import Path

import hydent


def test_all_is_sorted_unique_and_resolves():
    names = hydent.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hydent, name) is not None, name


def test_all_lists_exactly_the_names_the_package_imports():
    # a name dropped from a module must leave both the import and __all__
    tree = ast.parse(Path(hydent.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if node.module != "__future__"}
    assert imported == set(hydent.__all__)


def test_every_public_name_is_read_outside_the_package_surface():
    # a public name no module, demo or benchmark reads is a second entry point
    # only tests call; a string equal to the name counts, as the tracer
    # patches the names it counts by their strings
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in [path for folder in ("src/hydent", "demos", "bench") for path in (root / folder).rglob("*.py")]:
        if path == root / "src" / "hydent" / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert sorted(set(hydent.__all__) - read) == []
