"""The README's library sketch runs as written and gives the value its
comments state, so an API the README still shows cannot silently go."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_and_gives_its_worked_value():
    sketch = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    names: dict = {}
    exec(compile(sketch, str(README), "exec"), names)
    line = next(line for line in sketch.splitlines() if "Fraction(15, 26)" in line)
    expression, _ = line.split("#", 1)
    assert eval(expression, names) == Fraction(15, 26)
