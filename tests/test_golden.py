"""Golden sha256 fingerprints of the exact artifacts.

``validation.json``, ``spectrum.csv``, ``resolvent.csv`` and ``audit.json``
come from exact arithmetic and Python's own ``random``, with no BLAS and no
numpy RNG, so their bytes are the same on every machine.  The fingerprints
are the benchmark's three settings: g2-groupsum, g1-states and g1-paths,
which is tate-p3 as configured (its seeded sample writes none of these),
plus ``resolvent.csv`` and ``spectrum.csv`` of both fixtures at levels 5 and
7, where the split-ball tree is several balls deep.  ``evolution.csv`` at
t = 0 is h0 itself, with no BLAS, so both initial conditions of ``evolve
--t 0`` are pinned too, on both fixtures at level 5.  A change that means
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
    "g1-paths": ("tate-p3", []),
    "g1-level5": ("tate-p3", ["--level", "5"]),
    "g1-level7": ("tate-p3", ["--level", "7"]),
    "g2-level5": ("genus2-p3", ["--level", "5"]),
    "g2-level7": ("genus2-p3", ["--level", "7"]),
    "g1-level5-t0-wavelet": ("tate-p3", ["--level", "5", "--t", "0", "--initial", "wavelet"]),
    "g1-level5-t0-indicator": ("tate-p3", ["--level", "5", "--t", "0", "--initial", "indicator"]),
    "g2-level5-t0-wavelet": ("genus2-p3", ["--level", "5", "--t", "0", "--initial", "wavelet"]),
    "g2-level5-t0-indicator": ("genus2-p3", ["--level", "5", "--t", "0",
                                             "--initial", "indicator"]),
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
    ("g1-paths", "validate", "validation.json"):
        "f8186bb5d0d0780ac70796a70d60f8cc02b4a37c832a376c414548564d35fb27",
    ("g1-paths", "spectrum", "spectrum.csv"):
        "d50d29b6a250c31863f139a3420024e98f131417b465ed9675751f3583a0624c",
    ("g1-paths", "resolvent", "resolvent.csv"):
        "58729ebf741e0bdb0c2f490e43ca69186fd06299291f5d674bab72bf13ea67ab",
    ("g1-paths", "audit", "audit.json"):
        "7070ce7f9d89f28f651ee9c76f4ac778c8d4df9f6131a49136cda7c7eb3a2c66",
    ("g1-level5", "spectrum", "spectrum.csv"):
        "1b7b2d6c0e573c28d324ac3a9d53e477ee512b043f9dba60ca9646b4bc31f146",
    ("g1-level5", "resolvent", "resolvent.csv"):
        "5b257f2895330bcd89b89e454630e113126a3cd6d7623c25c410ba43b6f02c6b",
    ("g1-level7", "spectrum", "spectrum.csv"):
        "e505a1ebbdc11d981a2a07bf38e5d92eded9f67a19c46e542d9dfd617d69a479",
    ("g1-level7", "resolvent", "resolvent.csv"):
        "cb7657d9a0985f5330adb59d6fe2af4d1a2ee99dec2b6685d294e1f098461511",
    ("g2-level5", "spectrum", "spectrum.csv"):
        "c56d2ce5227efbd8edb01b45a86f9be96ea1e50842fbbc39104543282eca8ba6",
    ("g2-level5", "resolvent", "resolvent.csv"):
        "8d1c575bb373db4a67cb61f1c49ec8a85617e263ed70f0e3e2ce4773998ea35d",
    ("g2-level7", "spectrum", "spectrum.csv"):
        "9ad6f34a2c440e6c0604a1f88cc34c5310c13cdae30239bff722e826f25028dd",
    ("g2-level7", "resolvent", "resolvent.csv"):
        "628e0a60200c7d11c5518490d8765e0d4e278a0a14959f26a4a138d589948167",
    ("g1-level5-t0-wavelet", "evolve", "evolution.csv"):
        "a97e2360d1943c2d79f21aebe94660bf70996dce26d99df04e36afd5473a4b35",
    ("g1-level5-t0-indicator", "evolve", "evolution.csv"):
        "f1d1057f57e1b447b31271ec3e4bb6a72b20a95c2cd0f39685d83189668a9b27",
    ("g2-level5-t0-wavelet", "evolve", "evolution.csv"):
        "410f284a10f2501c0740063b2f08972cee76d0d730ef20691fce4ef572897e2d",
    ("g2-level5-t0-indicator", "evolve", "evolution.csv"):
        "1ab4694ce5c563424a87d4685887d7d93f4a3a144df5e52494895b3c7fa53db6",
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
