"""The package's public surface: ``kvbudget.__all__`` names what ``__init__`` binds;
and the repository's code-line count."""

import ast
import importlib.util
import inspect
import textwrap
from pathlib import Path

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


def test_code_line_count_skips_blanks_comments_and_docstrings():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = textwrap.dedent('''\
        """Module docstring
        on two lines."""

        import os  # a comment
        # only a comment


        class C:
            """Class docstring."""

            def f(self):
                """Method docstring."""
                text = """a string
                that is code"""
                return text
        ''')
    # import, class, def, the two lines of the assignment, return
    assert module.code_lines(source) == 6
