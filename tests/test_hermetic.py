"""The engine reads no file outside the checkout: no string constant
in ``swishray/`` or ``__ray_entry__.py`` names a path under the
libswish3 reference tree. Docstrings may cite reference sources by
path; generators under ``tools/`` that read the reference by design
are not scanned."""

import ast
import pathlib

from test_config import TC

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = str(TC.parents[1])  # the libswish3 source tree


def _docstring_nodes(tree: ast.AST) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                ids.add(id(first.value))
    return ids


def reference_paths(source: str) -> list[tuple[int, str]]:
    """(line, constant) of every non-docstring string constant in
    ``source`` that names a path under the reference tree."""
    tree = ast.parse(source)
    docs = _docstring_nodes(tree)
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docs
            and REFERENCE in node.value]


def test_scan_sees_constants_not_docstrings():
    src = (f'"""Cites {REFERENCE}/src/a.c."""\n'
           'def f():\n'
           f'    """Also {REFERENCE}/src/b.c."""\n'
           f'    return pathlib.Path("{REFERENCE}/src/test_docs")\n'
           f'g = f"{{x}}{REFERENCE}/y"\n')
    assert sorted(line for line, _ in reference_paths(src)) == [4, 5]


def test_engine_names_no_reference_path():
    files = sorted((ROOT / "swishray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    hits = [f"{f.relative_to(ROOT)}:{line}: {value!r}"
            for f in files
            for line, value in reference_paths(f.read_text())]
    assert not hits, "\n".join(hits)
