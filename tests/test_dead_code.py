"""Every top-level function or class of the library has a reader.

A private ``_name`` defined at the top of a module of src/mumford_heat must
be read somewhere in src/ outside its own definition.  A private helper that
only tests call is a test oracle, and lives in tests/.

A public name must be read outside its own definition in src/ (not counting
the package's re-exports), in perfbench/, in tests/test_acceptance.py or in
the README's Python sketch: a paper object stays only if a command, the
benchmark, an acceptance criterion or the documented API reaches it.  The
same holds for each method and property of a class of src/mumford_heat,
dunder methods aside: a method that only tests call is a test oracle.

A read is a name, an attribute or a ``from ... import``; a recursive call
inside the definition does not count, and neither does a mention in a string.

The same readers must pass each defaulted parameter of a top-level function
or a method of src/mumford_heat, by keyword or by position, in a call of
that name (``C(...)`` calls ``C.__init__``); src/ counts outside the
function itself.  An option that only tests set is a test oracle too, and
the value everything else uses becomes a constant.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mumford_heat"


def _definitions(tree: ast.Module, public: bool = False) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of the top-level private (or, with
    ``public``, public) functions and classes."""
    return [(node.name, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") != public and not node.name.startswith("__")]


def _methods(tree: ast.Module) -> list[tuple[str, int, int]]:
    """('Class.name', first line, last line) of the methods and properties of
    the top-level classes, dunder methods aside."""
    return [(f"{cls.name}.{node.name}", node.lineno, node.end_lineno)
            for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


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
            public: bool = False, methods: bool = False) -> list[str]:
    """'module:name' of each private (or public, or with ``methods`` each
    method's 'Class.name') definition of ``sources`` whose name no module of
    ``sources`` or ``readers`` reads outside the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: list(_reads(ast.parse(text)))
             for module, text in {**sources, **(readers or {})}.items()}
    unread = []
    for module, tree in trees.items():
        for label, first, last in _methods(tree) if methods else _definitions(tree, public):
            name = label.rpartition(".")[2]
            if not any(read == name and (other != module or not first <= line <= last)
                       for other, found in reads.items() for read, line in found):
                unread.append(f"{module}:{label}")
    return unread


def test_every_private_definition_is_read_in_src():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(map(len, map(_definitions, map(ast.parse, sources.values())))) > 40
    assert _unread(sources) == []


def _public_sources_and_readers() -> tuple[dict[str, str], dict[str, str]]:
    """The modules of src/mumford_heat but its re-exports, and the readers
    outside src/: perfbench/, the acceptance tests and the README sketch."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    readers = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    readers["tests/test_acceptance.py"] = (ROOT / "tests" / "test_acceptance.py").read_text()
    readers["README.md"] = "\n".join(
        re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S))
    return sources, readers


def test_every_public_definition_has_a_reader():
    sources, readers = _public_sources_and_readers()
    assert sum(len(_definitions(ast.parse(text), public=True))
               for text in sources.values()) > 40
    assert _unread(sources, readers, public=True) == []


def test_every_method_and_property_has_a_reader():
    sources, readers = _public_sources_and_readers()
    assert sum(len(_methods(ast.parse(text))) for text in sources.values()) > 40
    assert _unread(sources, readers, methods=True) == []


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


def test_an_unread_method_or_property_is_caught():
    sources = {
        "a.py": "class Box:\n"
                "    def used(self):\n        return self.shown\n\n"
                "    @property\n    def shown(self):\n        return 1\n\n"
                "    def alone(self, n):\n        return self.alone(n - 1)\n\n"
                "    def __len__(self):\n        return 0\n\n\n"
                "def public():\n    return 'Box().alone(1)'\n",
    }
    readers = {"README.md": "Box().used()\n"}
    assert _unread(sources, readers, methods=True) == ["a.py:Box.alone"]
    assert _unread(sources, methods=True) == ["a.py:Box.used", "a.py:Box.alone"]


def _defaulted(tree: ast.Module) -> list[tuple[str, str, int | None, int, int]]:
    """(called name, parameter, its position in a call or None if keyword-only,
    first line, last line) per defaulted parameter of the top-level functions
    and the methods of the top-level classes; ``__init__`` is called by the
    class name, and a method's position leaves out ``self`` or ``cls``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owners = [(None, node)]
        elif isinstance(node, ast.ClassDef):
            owners = [(node.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for cls, fn in owners:
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            shift = 1 if cls and not static else 0
            called = cls if fn.name == "__init__" else fn.name
            names = positional[len(positional) - len(args.defaults):]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for name in names:
                index = positional.index(name) - shift if name in positional else None
                found.append((called, name, index, fn.lineno, fn.end_lineno))
    return found


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether the call passes the parameter: by keyword, by position, or
    possibly through ``*args`` or ``**kwargs``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args))


def _calls(tree: ast.Module):
    """(called name, call) for each call of a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                yield func.id if isinstance(func, ast.Name) else func.attr, node


def _unpassed(sources: dict[str, str], readers: dict[str, str] | None = None) -> list[str]:
    """'module:name(parameter)' of each defaulted parameter of ``sources``
    that no call in ``sources`` (outside the function) or ``readers`` passes."""
    calls = {module: list(_calls(ast.parse(text)))
             for module, text in {**sources, **(readers or {})}.items()}
    unpassed = []
    for module, text in sources.items():
        for called, name, index, first, last in _defaulted(ast.parse(text)):
            if not any(label == called and _passes(call, name, index)
                       and (other != module or not first <= call.lineno <= last)
                       for other, found in calls.items() for label, call in found):
                unpassed.append(f"{module}:{called}({name})")
    return unpassed


def _all_sources_and_readers() -> tuple[dict[str, str], dict[str, str]]:
    """Every module of src/mumford_heat, and the readers outside src/."""
    _, readers = _public_sources_and_readers()
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}, readers


def test_every_defaulted_parameter_is_passed_by_a_reader():
    sources, readers = _all_sources_and_readers()
    assert sum(len(_defaulted(ast.parse(text))) for text in sources.values()) > 20
    assert _unpassed(sources, readers) == []


def test_an_unpassed_parameter_is_caught():
    sources = {
        "a.py": "def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, 1, e=5)\n\n\n"
                "class Box:\n"
                "    def __init__(self, size=1, shape=2):\n        pass\n\n"
                "    def grow(self, by=1):\n        return Box(by)\n\n"
                "    @staticmethod\n    def make(n=0):\n        return n\n",
    }
    assert _unpassed(sources) == ["a.py:f(b)", "a.py:f(c)", "a.py:f(d)", "a.py:f(e)",
                                  "a.py:Box(shape)", "a.py:grow(by)", "a.py:make(n)"]
    readers = {"README.md": "f(0, d=1)\nBox().grow(2)\nBox.make(1)\n"}
    assert _unpassed(sources, readers) == ["a.py:f(b)", "a.py:f(c)", "a.py:f(e)",
                                           "a.py:Box(shape)"]
    readers["b.py"] = "f(0, *rest, **options)\nBox(**options)\n"
    assert _unpassed(sources, readers) == []


def test_a_new_unused_keyword_in_the_library_is_caught():
    sources, readers = _all_sources_and_readers()
    signature = "def tail_bound(cfg: OperatorConfig, length: int)"
    assert sources["operator.py"].count(signature) == 1
    sources["operator.py"] = sources["operator.py"].replace(
        signature, "def tail_bound(cfg: OperatorConfig, length: int, spare: int = 0)")
    assert _unpassed(sources, readers) == ["operator.py:tail_bound(spare)"]
