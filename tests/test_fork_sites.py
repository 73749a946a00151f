"""The package starts processes at one place only.

``sample`` and ``audit`` fork their workers through one primitive,
``cli._workers``.  A second fork path would need its own pipe, exit and
reaping code, so ``os.fork`` may be called at exactly one site in
src/mumford_heat, and no module may reach for ``fork`` by another name or
start processes through ``multiprocessing``, ``concurrent.futures`` or
``subprocess``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mumford_heat"
PROCESS_MODULES = ("multiprocessing", "concurrent", "subprocess")


def _fork_sites(sources: dict[str, str]) -> list[str]:
    """'module:line' of each ``os.fork(...)`` call, and of each other route to
    a fork: an ``os.fork`` not called at once, ``from os import fork`` and
    an import of a process module."""
    sites = []
    for module, text in sources.items():
        tree = ast.parse(text)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "fork"
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                sites.append(f"{module}:{node.lineno}" + ("" if id(node) in called
                                                          else " (not called)"))
            elif isinstance(node, ast.ImportFrom) and (
                    node.module in ("os", "posix")
                    and any(alias.name.startswith("fork") for alias in node.names)
                    or (node.module or "").split(".")[0] in PROCESS_MODULES):
                sites.append(f"{module}:{node.lineno} (import)")
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] in PROCESS_MODULES for alias in node.names):
                sites.append(f"{module}:{node.lineno} (import)")
    return sites


def test_os_fork_is_called_at_exactly_one_site():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    sites = _fork_sites(sources)
    assert len(sites) == 1 and sites[0].startswith("cli.py:"), sites
    assert "(" not in sites[0]


def test_a_second_fork_path_is_caught():
    one = "import os\n\ndef run():\n    if os.fork() == 0:\n        os._exit(0)\n"
    assert _fork_sites({"a.py": one}) == ["a.py:4"]
    assert len(_fork_sites({"a.py": one, "b.py": one})) == 2
    assert _fork_sites({"a.py": "import os\nstart = os.fork\n"}) == ["a.py:2 (not called)"]
    assert _fork_sites({"a.py": "from os import fork\n"}) == ["a.py:1 (import)"]
    assert _fork_sites({"a.py": "import multiprocessing.pool\n"}) == ["a.py:1 (import)"]
    assert _fork_sites({"a.py": "from concurrent.futures import ProcessPoolExecutor\n"}) \
        == ["a.py:1 (import)"]
    # reading fork's presence is no fork
    assert _fork_sites({"a.py": "import os\nok = hasattr(os, 'fork')\n"}) == []
