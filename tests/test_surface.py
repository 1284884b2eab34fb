"""No public surface that only tests use.

Every public module-level function and class of conebell, and every public
method of those classes, must be named in the code of the package or of
bench/ somewhere besides its own definition.  Names are read off the parsed
code, so a mention in a docstring, comment or string does not count, and
neither does an import.  catalog is exempt: its functions are fixture data.
"""
import ast
import pathlib
from collections import defaultdict

import conebell

PACKAGE = pathlib.Path(conebell.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def _public_definitions(tree):
    """Public module-level functions and classes and the public methods of
    those classes, as AST nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _named_at(trees):
    """{identifier: [(path, line), ...]} of every name and attribute in code."""
    named = defaultdict(list)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                named[node.attr].append((path, node.lineno))
    return named


def test_every_public_definition_is_used_in_package_or_bench_code():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    named = _named_at(trees)
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "catalog.py":
            continue
        for node in _public_definitions(tree):
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in named[node.name]):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
