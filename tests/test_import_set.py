"""Importing the CLI loads only the package and a few light standard modules.

A command's start-up is numpy's import, then the package's.  In a fresh
interpreter, the modules that ``import mumford_heat.cli`` adds to those of
``import numpy`` must be the package's own, json, argparse, fractions,
dataclasses and what they import, the interpreter's built-in SHA-256 module
for the config hash (``_sha2``, or ``_sha256`` before Python 3.12), and the
few light modules the package imports itself (cmath, pickle, random, typing)
where numpy has not loaded them first.  So a heavy import fails here: scipy
left the runtime and must not come back, and hashlib would load OpenSSL's
libcrypto through ``_hashlib`` for one digest.  The check counts modules and
takes no timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import mumford_heat.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

ALLOWED = {
    "__future__",
    "argparse", "gettext", "locale",                            # argparse
    "cmath",
    "copy", "dataclasses", "inspect", "keyword", "reprlib",     # dataclasses
    "decimal", "_decimal", "_pydecimal", "fractions", "numbers",  # fractions
    "_sha2", "_sha256",                                         # config_hash
    "json", "json.decoder", "json.encoder", "json.scanner", "_json",
    "pickle", "_pickle", "_compat_pickle", "typing",
    "random", "_sha512",                                        # random, before 3.12
}


def _added_modules() -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_the_cli_import_adds_only_light_modules():
    added = _added_modules()
    assert "mumford_heat.cli" in added and "mumford_heat.operator" in added
    assert not any(name == "scipy" or name.startswith("scipy.") for name in added)
    assert "_hashlib" not in added and "hashlib" not in added
    own = {name for name in added
           if name == "mumford_heat" or name.startswith("mumford_heat.")}
    assert sorted(set(added) - own - ALLOWED) == []
