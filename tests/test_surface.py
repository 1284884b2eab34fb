"""No public surface that only tests use, and no dead private code.

Every public module-level function and class of conebell, and every public
method of those classes, must be named in the code of the package or of
bench/ somewhere besides its own definition.  Every private module-level
function, class and constant (dunders excepted) must be named in the code of
the package besides its own definition.  Names are read off the parsed
code, so a mention in a docstring, comment or string does not count, and
neither does an import.  catalog is exempt from the public rule: its
functions are fixture data.  The other way round, every name that a
docstring or comment of the package, or a backticked span of README.md,
mentions must exist: each underscore-prefixed name, and each
<module>.<name> of a conebell module.
"""
import ast
import io
import pathlib
import re
import tokenize
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


def _private_definitions(tree):
    """(name, node) of each private module-level function, class and
    constant; dunders are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_definition_is_used_in_package_code():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    named = _named_at(trees)
    unused = []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in named[name]):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def _prose(text, tree):
    """The docstrings and comments of one module's source text."""
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join(filter(None, docs + comments))


def _definitions():
    """(source text per module, {module: names it defines}, members): per
    module, its module-level constants and every function and class it
    defines; and the members of every class: fields, properties, methods
    and attributes set on self."""
    texts = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    defined, members = {}, set()
    for stem, text in texts.items():
        tree = ast.parse(text)
        defined[stem] = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined[stem].update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[stem].add(node.name)
            if isinstance(node, ast.ClassDef):
                members.update(item.name if isinstance(item, ast.FunctionDef) else item.target.id
                               for item in node.body
                               if isinstance(item, (ast.FunctionDef, ast.AnnAssign)))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self":
                members.add(node.attr)
    return texts, defined, members


def _stale_names(prose, defined, members):
    """The names in prose that no module defines: each underscore-prefixed
    name, and each <module>.<name> of a conebell module."""
    every = set().union(*defined.values())
    modules = "|".join(defined)
    return [name for name in re.findall(r"(?<!\w)_\w+", prose) if name not in every] + [
        f"{mod}.{name}" for mod, name in re.findall(rf"\b({modules})\.(?!py\b)(\w+)", prose)
        if name not in defined[mod] and name not in members]


def test_docstrings_and_comments_name_only_code_that_exists():
    texts, defined, members = _definitions()
    stale = [f"{stem}: {name}" for stem, text in texts.items()
             for name in _stale_names(_prose(text, ast.parse(text)), defined, members)]
    assert stale == []


def test_the_readme_names_only_code_that_exists():
    # the same rules on the README's backticked spans
    _, defined, members = _definitions()
    spans = re.findall(r"`([^`\n]+)`", (PACKAGE.parents[1] / "README.md").read_text())
    assert len(spans) > 100
    assert _stale_names("\n".join(spans), defined, members) == []
