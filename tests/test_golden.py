"""Golden sha256 fingerprints of the exact artifacts.

``validation.json``, ``spectrum.csv``, ``resolvent.csv`` and ``audit.json``
come from exact arithmetic and Python's own ``random``, with no BLAS and no
numpy RNG, so their bytes are the same on every machine.  The fingerprints
are the benchmark's g2-groupsum and g1-states settings.  A change that means
to alter these bytes updates the hashes here and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from mumford_heat.cli import main
from mumford_heat.config import bundled_fixture

SETTINGS = {
    "g2-groupsum": ("genus2-p3", ["--level", "3", "--cutoff-len", "4"]),
    "g1-states": ("tate-p3", ["--level", "3", "--cutoff-len", "6"]),
}
GOLDEN = {
    ("g2-groupsum", "validate", "validation.json"):
        "3f9c65c40e1c11933efb5ae03535d473a35c13c12bec7036e0f3e82154e6e592",
    ("g2-groupsum", "spectrum", "spectrum.csv"):
        "f59b55c246f093476d5c930321774a896d26d76c5a27ef8e4ffa0c3c4a81d2a5",
    ("g2-groupsum", "resolvent", "resolvent.csv"):
        "8a1906a94017b7befd9fbea85012088053b2335b019febf3bbc09737966096e8",
    ("g2-groupsum", "audit", "audit.json"):
        "b2cd7c7b8338ce19d160b789fd5adb731c9bd534e9e40d21d731c35a7d7ff272",
    ("g1-states", "validate", "validation.json"):
        "7417ba43dee6dc4b72fe81e14b08e450e084a5db82c142d5cfc110c6b01f0854",
    ("g1-states", "spectrum", "spectrum.csv"):
        "5f3848029016d9fe7d99e4c35bf15ac6353f5cf510ad5d1fc023a73fe7761331",
    ("g1-states", "resolvent", "resolvent.csv"):
        "23297aaca14eff52d3311802dc271b11b5f97f09eb8eb0ae246324522aebda87",
    ("g1-states", "audit", "audit.json"):
        "025860a5fe98bf5b22e20615137dedcc70e0b97d6fac52f23d62ff2f06bf3a1c",
}


@pytest.mark.parametrize("setting,command,artifact", sorted(GOLDEN),
                         ids=["/".join(key) for key in sorted(GOLDEN)])
def test_artifact_bytes_match_the_golden_fingerprint(tmp_path, setting, command, artifact):
    fixture, flags = SETTINGS[setting]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "-c", str(bundled_fixture(fixture)), *flags,
                     "-o", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
    assert digest == GOLDEN[setting, command, artifact]
