"""One-shot report: every CLI command once on each bundled fixture.

    python3 perfbench/fixture_report.py

Runs validate, spectrum, evolve, sample, audit and resolvent once per
bundled fixture at its configured settings (genus2-p3 takes several
minutes at the seed version) and prints the times beside the baseline
table in ROADMAP.md.  It is not a gated workload and no check runs it.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run

COMMANDS = ("validate", "spectrum", "evolve", "sample", "audit", "resolvent")
# ROADMAP.md "Recent": in-process, one run each, 2 cores, Python 3.11.7
BASELINE = {
    "tate-p3": {"validate": 0.02, "spectrum": 0.08, "evolve": 0.31,
                "sample": 0.52, "audit": 0.92, "resolvent": 0.22},
    "genus2-p3": {"validate": 0.17, "spectrum": 12.3, "evolve": 108.9,
                  "sample": 89.2, "audit": 0.48, "resolvent": 65.2},
}
TIMEOUT_S = 1800


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="report-", dir=run.SCRATCH))
    rows = {}
    try:
        for fixture in BASELINE:
            wl = run.Workload(fixture, level=None, cutoff_len=None, seeded_paths=None)
            spec = run.session_spec(wl, 0, work / fixture, COMMANDS)
            result = run.run_child(spec, timeout=TIMEOUT_S)
            rows[fixture] = {} if result is None else \
                {c["name"]: (c["seconds"], c["rc"]) for c in result["commands"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass
    fixtures = list(BASELINE)
    print("| command   | " + " | ".join(f"{f} baseline | {f} now" for f in fixtures) + " |")
    print("|-----------|" + "---|---|" * len(fixtures))
    failed = False
    for command in COMMANDS:
        cells = []
        for f in fixtures:
            seconds, rc = rows[f].get(command, (None, None))
            failed |= rc != 0
            now = "failed" if seconds is None or rc != 0 else f"{seconds:.2f} s"
            cells += [f"{BASELINE[f][command]:.2f} s", now]
        print(f"| {command:9s} | " + " | ".join(cells) + " |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
