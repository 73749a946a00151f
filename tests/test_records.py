"""A record of the library is a NamedTuple unless it uses a dataclass feature.

A class of src/mumford_heat may carry ``@dataclass`` only if it has a
``__post_init__``, a ``dataclasses.field``, a ``functools.cached_property``,
an override of ``__len__``, ``__getitem__``, ``__iter__`` or ``__eq__``, or
a reader that calls ``dataclasses.replace`` on it in src/ or tests/ (a call
whose keywords are all fields of the class).  Every other record is a
``typing.NamedTuple``: importing the package then builds one ``__new__`` for
it, where a frozen dataclass has six methods generated.  A record stays
immutable, survives a pickle round trip (the audit's workers pickle their
``CheckResult``s) and keeps its ``Name(field=value, ...)`` repr.
"""

import ast
import importlib
import pickle
from pathlib import Path

import pytest

from mumford_heat.audit import CheckResult, Instance

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mumford_heat"
MARKS = {"__post_init__", "__len__", "__getitem__", "__iter__", "__eq__"}


def _name(node: ast.expr) -> str:
    """The last name of ``f``, ``a.f`` or a call of either."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _dataclasses(tree: ast.Module) -> dict[str, ast.ClassDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)
            and any(_name(d) == "dataclass" for d in node.decorator_list)}


def _fields(cls: ast.ClassDef) -> set[str]:
    return {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}


def _has_feature(cls: ast.ClassDef) -> bool:
    """A method of MARKS, a ``field(...)`` default or a cached property."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and (node.name in MARKS or any(
                _name(d) == "cached_property" for d in node.decorator_list)):
            return True
        if (isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
                and _name(node.value) == "field"):
            return True
    return False


def _replaced(sources: dict[str, str]) -> list[set[str]]:
    """The keywords of each ``replace`` or ``dataclasses.replace`` call that has some."""
    return [{k.arg for k in node.keywords} for text in sources.values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and node.keywords and (
                isinstance(node.func, ast.Name) and node.func.id == "replace"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "replace"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "dataclasses")]


def _unjustified(library: dict[str, str], readers: dict[str, str]) -> list[str]:
    """'module:Class' of each dataclass of ``library`` with no dataclass feature
    and no ``replace`` call in ``library`` or ``readers`` that fits its fields."""
    calls = _replaced({**library, **readers})
    return [f"{module}:{name}" for module, text in library.items()
            for name, cls in _dataclasses(ast.parse(text)).items()
            if not _has_feature(cls) and not any(keys <= _fields(cls) for keys in calls)]


def _sources(folder: Path) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(folder.glob("*.py"))}


def test_every_dataclass_uses_a_dataclass_feature():
    library = _sources(PACKAGE)
    assert sum(len(_dataclasses(ast.parse(text))) for text in library.values()) > 5
    assert _unjustified(library, _sources(ROOT / "tests")) == []


def test_a_dataclass_without_a_feature_is_caught():
    library = {
        "a.py": "from dataclasses import dataclass, field, replace\n"
                "import dataclasses, functools\n\n\n"
                "@dataclass(frozen=True)\nclass Plain:\n    x: int\n\n\n"
                "@dataclass\nclass Checked:\n    x: int\n\n"
                "    def __post_init__(self):\n        pass\n\n\n"
                "@dataclasses.dataclass\nclass Derived:\n"
                "    x: int\n    y: int = dataclasses.field(init=False)\n\n\n"
                "@dataclass\nclass Cached:\n    x: int\n\n"
                "    @functools.cached_property\n    def y(self):\n        return 1\n\n\n"
                "@dataclass(eq=False)\nclass Sized:\n    x: int\n\n"
                "    def __len__(self):\n        return 1\n\n\n"
                "@dataclass(frozen=True)\nclass Copied:\n    x: int\n    shade: int\n\n\n"
                "@dataclass(frozen=True)\nclass Renamed:\n    x: int\n    name: str\n",
    }
    readers = {"t.py": "import dataclasses\n"
                       "dataclasses.replace(thing, shade=1)\n'a'.replace('a', 'b')\n"
                       "path.replace(name='b')\n"}
    assert _unjustified(library, readers) == ["a.py:Plain", "a.py:Renamed"]
    readers["t.py"] += "replace(thing, x=2, name='c')\n"
    assert _unjustified(library, readers) == ["a.py:Plain"]


def _records() -> list[type]:
    """The NamedTuple classes the modules of src/mumford_heat define."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"mumford_heat.{path.stem}".removesuffix(".__init__"))
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, tuple)
                  and hasattr(value, "_fields") and value.__module__ == module.__name__]
    return found


RECORDS = _records()


def test_the_plain_records_are_named_tuples():
    names = {cls.__name__ for cls in RECORDS}
    assert names >= {"Instance", "CheckResult", "RunSettings", "RunConfig",
                     "SpectralData", "TransitionMatrix", "HeatSolution", "PathSample",
                     "CheckpointRow", "ValidationReport", "MeasureProfile",
                     "FundamentalDomain", "DomainReport", "LevelFunction",
                     "LambdaExact", "SeriesValue", "SpectrumEntry", "SpectrumResult"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_immutable_pickles_and_keeps_its_repr(cls):
    values = [f"{field}-value" for field in cls._fields]
    record = cls(*values)
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(cls._fields, values)) + ")"


def test_a_check_result_survives_the_workers_pickle():
    result = CheckResult("lemma", False, 3, 1, (Instance("x=1/3", "2", "5/2", False),))
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result and copy.to_dict() == result.to_dict() and copy.note == ""
