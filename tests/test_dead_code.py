"""Every private top-level function or class of the library has a reader there.

A ``_name`` defined at the top of a module of src/mumford_heat must be read
somewhere in src/ outside its own definition.  A private helper that only
tests call is a test oracle, and lives in tests/.  A read is a name, an
attribute or a ``from ... import``; a recursive call inside the definition
does not count, and neither does a mention in a string.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mumford_heat"


def _private_definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """{name: (first line, last line)} of the top-level private functions and
    classes."""
    return {node.name: (node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _reads(tree: ast.Module):
    """(name, line) for each name the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _unread(sources: dict[str, str]) -> list[str]:
    """'module:name' of each private definition that no module reads
    outside the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: list(_reads(tree)) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for name, (first, last) in _private_definitions(tree).items():
            if not any(read == name and (other != module or not first <= line <= last)
                       for other, found in reads.items() for read, line in found):
                unread.append(f"{module}:{name}")
    return unread


def test_every_private_definition_is_read_in_src():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(map(len, map(_private_definitions, map(ast.parse, sources.values())))) > 40
    assert _unread(sources) == []


def test_a_definition_read_only_by_itself_or_in_a_string_is_caught():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\n"
                "def _alone(n):\n    return _alone(n - 1)\n\n\n"
                "class _Named:\n    '''not _Named'''\n\n\n"
                "def public():\n    return _used(), '_Named'\n",
        "b.py": "from a import public\n",
    }
    assert _unread(sources) == ["a.py:_alone", "a.py:_Named"]
