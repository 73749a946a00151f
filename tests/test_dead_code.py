"""Every top-level function or class of the library has a reader.

A private ``_name`` defined at the top of a module of src/mumford_heat must
be read somewhere in src/ outside its own definition.  A private helper that
only tests call is a test oracle, and lives in tests/.

A public name must be read outside its own definition in src/ (not counting
the package's re-exports), in perfbench/, in tests/test_acceptance.py or in
the README's Python sketch: a paper object stays only if a command, the
benchmark, an acceptance criterion or the documented API reaches it.

A read is a name, an attribute or a ``from ... import``; a recursive call
inside the definition does not count, and neither does a mention in a string.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mumford_heat"


def _definitions(tree: ast.Module, public: bool = False) -> dict[str, tuple[int, int]]:
    """{name: (first line, last line)} of the top-level private (or, with
    ``public``, public) functions and classes."""
    return {node.name: (node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") != public and not node.name.startswith("__")}


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


def _unread(sources: dict[str, str], readers: dict[str, str] | None = None,
            public: bool = False) -> list[str]:
    """'module:name' of each private (or public) definition of ``sources``
    that no module of ``sources`` or ``readers`` reads outside the
    definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: list(_reads(ast.parse(text)))
             for module, text in {**sources, **(readers or {})}.items()}
    unread = []
    for module, tree in trees.items():
        for name, (first, last) in _definitions(tree, public).items():
            if not any(read == name and (other != module or not first <= line <= last)
                       for other, found in reads.items() for read, line in found):
                unread.append(f"{module}:{name}")
    return unread


def test_every_private_definition_is_read_in_src():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(map(len, map(_definitions, map(ast.parse, sources.values())))) > 40
    assert _unread(sources) == []


def test_every_public_definition_has_a_reader():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    readers = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    readers["tests/test_acceptance.py"] = (ROOT / "tests" / "test_acceptance.py").read_text()
    readers["README.md"] = "\n".join(
        re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S))
    assert sum(len(_definitions(ast.parse(text), public=True))
               for text in sources.values()) > 40
    assert _unread(sources, readers, public=True) == []


def test_a_definition_read_only_by_itself_or_in_a_string_is_caught():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\n"
                "def _alone(n):\n    return _alone(n - 1)\n\n\n"
                "class _Named:\n    '''not _Named'''\n\n\n"
                "def public():\n    return _used(), '_Named'\n",
        "b.py": "from a import public\n",
    }
    assert _unread(sources) == ["a.py:_alone", "a.py:_Named"]


def test_an_unread_public_definition_is_caught():
    sources = {
        "a.py": "def used():\n    return 1\n\n\n"
                "def alone(n):\n    return alone(n - 1)\n\n\n"
                "class Shown:\n    '''not alone'''\n\n\n"
                "def _private():\n    return used()\n",
    }
    readers = {"README.md": "from a import Shown\n"}
    assert _unread(sources, readers, public=True) == ["a.py:alone"]
    assert _unread(sources, public=True) == ["a.py:alone", "a.py:Shown"]
