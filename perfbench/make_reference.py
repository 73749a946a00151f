"""Write reference.json: the certified spectrum enclosures of each workload.

    python3 perfbench/make_reference.py

For every workload's spectrum settings (the key) it records, per eigenvalue
class (radius exponent, density), the lambda_exact interval and the
certified lambda_formula enclosure.  The artifact checks require later versions to
stay inside these enclosures, so regenerate the file only when the spectrum
settings of a workload change, from a version whose enclosures are trusted.
"""

import json
import sys

from run import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))
from mumford_heat import parse_config, spectrum  # noqa: E402
from mumford_heat.config import format_rational  # noqa: E402


def classes(wl) -> list[dict]:
    run = parse_config(wl.config())
    op = run.operator_config(cutoff_len=wl.cutoff_len)
    level = wl.level if wl.level is not None else run.run.level
    return [{
        "radius_exp": e.radius_exp,
        "density": format_rational(e.density),
        "lambda_exact": [format_rational(e.lam_exact.lo), format_rational(e.lam_exact.hi)],
        "lambda_formula": [format_rational(e.lam_formula.lo),
                           format_rational(e.lam_formula.hi)],
    } for e in spectrum(op, level, datum=run.datum).entries]


if __name__ == "__main__":
    reference = {wl.reference_key(): classes(wl) for wl in WORKLOADS.values()}
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
