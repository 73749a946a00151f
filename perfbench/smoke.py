"""The benchmark's own smoke test, on a tiny input (about 30 s).

    python3 perfbench/smoke.py

It runs tate-p3 at level 2 with a few hundred paths and checks that:

* every metric named in BENCHMARK.json prints, with its unit, in both modes,
  and every artifact check passes;
* the traced spans nest, and each span's self time is at most its
  inclusive time;
* the work counts repeat exactly across two traced sessions at one seed.

Exits 0 when all hold, 1 otherwise.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracing

SMOKE = run.Workload("tate-p3", level=None, cutoff_len=None, seeded_paths=300)
SEED = 5
REPEATED_COUNTS = ("schottky.words", "operator.generator_terms",
                   "exactnum.powersum_terms", "heat.jumps")


def expected_metrics(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def metric_problems(summary: dict, section: str) -> list[str]:
    expected = expected_metrics(section)
    problems = [] if summary["correct"] else \
        [f"{section}: {summary['failed']} of {summary['attempted']} invocations failed"]
    printed = json.loads(json.dumps(summary))["metrics"]
    for name, unit in expected.items():
        entry = printed.get(name)
        if entry is None or entry.get("unit") != unit or \
                not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{section}: {name} missing or without unit {unit}: {entry}")
    extra = set(printed) - set(expected)
    if extra:
        problems.append(f"{section}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.SCRATCH))
    problems = []
    try:
        bench = run.Run("smoke", SMOKE, SEED, work)
        problems += metric_problems(run.untraced(bench, seconds=0), "end_to_end")
        problems += metric_problems(run.traced(bench), "per_layer")

        counts = []
        for _ in range(2):
            result = bench.session(trace=True)
            if result is None:
                return 1
            problems += tracing.nesting_errors(result["spans"])
            values = tracing.layer_values(result["spans"], result["counts"], result["states"])
            counts.append({name: values[name] for name in REPEATED_COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"counts differ between traced sessions: {counts}")
        if not all(counts[0].values()):
            problems.append(f"a repeated count is zero: {counts[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(problem)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
