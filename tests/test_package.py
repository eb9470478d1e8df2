"""The package's public surface: ``kvbudget.__all__`` names what ``__init__`` binds."""

import ast
import inspect

import kvbudget


def bound_public_names():
    """Public names that ``kvbudget/__init__.py`` imports or assigns at top level."""
    names = []
    for node in ast.parse(inspect.getsource(kvbudget)).body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_all_lists_each_bound_public_name_once():
    assert len(set(kvbudget.__all__)) == len(kvbudget.__all__)
    assert sorted(kvbudget.__all__) == sorted(bound_public_names())
    assert [name for name in kvbudget.__all__ if not hasattr(kvbudget, name)] == []
