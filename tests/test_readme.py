"""The README's library sketch runs as written and gives the value its
comments state, so an API the README still shows cannot silently go; the
config examples of docs/formats.md parse."""

import json
import re
from fractions import Fraction
from pathlib import Path

from mumford_heat.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
FORMATS = README.parent / "docs" / "formats.md"


def test_library_sketch_runs_and_gives_its_worked_value():
    sketch = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    names: dict = {}
    exec(compile(sketch, str(README), "exec"), names)
    line = next(line for line in sketch.splitlines() if "Fraction(15, 26)" in line)
    expression, _ = line.split("#", 1)
    assert eval(expression, names) == Fraction(15, 26)


def test_the_formats_profile_example_tiles_the_example_domain():
    config, profile = re.findall(r"```json\n(.*?)```", FORMATS.read_text(), re.S)[:2]
    raw = json.loads(config)
    del raw["measure"]["datum"]
    raw["measure"].update(json.loads("{" + profile + "}"))
    run = config_from_dict(raw)
    assert len(run.operator.profile.pieces) == 5
    assert run.operator.profile.total_mass == Fraction(11, 9)
