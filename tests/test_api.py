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
