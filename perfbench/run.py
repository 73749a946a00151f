"""Benchmark of the mumford-heat CLI: per-command times on three workloads.

    python3 perfbench/run.py --workload g2-groupsum --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a fresh child process
imports the package, sets up, then runs the CLI commands back to back,
in-process, writing artifacts to a throwaway directory under the checkout.
Sessions repeat while the next one is expected to finish within
``--seconds``; every artifact is checked.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics: medians over the sessions
of each step's time at the reference speed (see SpeedProbe in session.py).
With ``--trace 1`` it holds per-layer metrics from the fastest of three
traced sessions, each run beside an untraced one for the tracing overhead.
The line before the result lists the run's facts: versions, thread
settings, flags and the raw wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "mumford_heat" / "fixtures"
SCRATCH = ROOT / ".perfbench_out"

COMMANDS = ("spectrum", "evolve", "resolvent", "sample", "audit")
MIN_SESSIONS = 3
TRACE_ROUNDS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("spectrum_s", "s"),
    ("evolve_s", "s"),
    ("resolvent_s", "s"),
    ("sample_s", "s"),
    ("audit_s", "s"),
    ("session_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    fixture: str
    level: int | None          # None: the fixture's configured level
    cutoff_len: int | None     # None: the fixture's configured cutoff
    seeded_paths: int | None   # paths of a seeded sample; None: configured sample

    def common_flags(self) -> list[str]:
        flags = []
        if self.level is not None:
            flags += ["--level", str(self.level)]
        if self.cutoff_len is not None:
            flags += ["--cutoff-len", str(self.cutoff_len)]
        return flags

    def command_flags(self, command: str, seed: int) -> list[str]:
        if command == "sample" and self.seeded_paths is not None:
            return ["--paths", str(self.seeded_paths), "--seed", str(seed)]
        return []

    def config(self) -> Path:
        return FIXTURES / f"{self.fixture}.json"

    def reference_key(self) -> str:
        """The spectrum settings, which select the entry of reference.json."""
        return " ".join([self.fixture, *self.common_flags()])


# Why each workload is here is set out in README.md.  Only g1-paths passes the
# seed on: the other two sample the fixture's configured 1000 paths at its
# configured seed, because the per-state 4-sigma validation of the sample
# raises a false alarm on about 1% of seeds at 24 states (see README.md).
WORKLOADS = {
    "g2-groupsum": Workload("genus2-p3", level=3, cutoff_len=4, seeded_paths=None),
    "g1-states": Workload("tate-p3", level=3, cutoff_len=6, seeded_paths=None),
    "g1-paths": Workload("tate-p3", level=None, cutoff_len=None, seeded_paths=20_000),
}


def session_spec(wl: Workload, seed: int, out: Path, commands,
                 trace: bool = False, probe: bool = False) -> dict:
    common = ["-c", str(wl.config()), *wl.common_flags(), "-o", str(out)]
    return {
        "src": str(SRC),
        "trace": trace,
        "probe": probe,
        "result": str(out / "result.json"),
        "setup": {"config": str(wl.config()), "cutoff_len": wl.cutoff_len,
                  "argv": ["validate", *common]},
        "commands": [[c, [c, *common, *wl.command_flags(c, seed)]] for c in commands],
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MUMFORD_HEAT_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, timeout: float = CHILD_TIMEOUT_S) -> dict | None:
    """Run one session process; None when it crashed or timed out."""
    out = Path(spec["result"]).parent
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("session.py")), str(spec_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"session timed out after {timeout} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"session process failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(Path(spec["result"]).read_text())


def check_session(wl: Workload, spec: dict, result: dict | None) -> tuple[int, int]:
    """(attempted, failed) CLI invocations of one session, artifacts included."""
    attempted = 1 + len(spec["commands"])
    if result is None:
        return attempted, attempted
    out = Path(spec["result"]).parent
    ctx = {"fixture": wl.fixture, "config": str(wl.config()), "level": wl.level,
           "cutoff_len": wl.cutoff_len, "reference": wl.reference_key()}
    outcomes = [("validate", result["setup_rc"], result["setup_error"])]
    outcomes += [(c["name"], c["rc"], c["error"]) for c in result["commands"]]
    failed = 0
    for command, rc, error in outcomes:
        problems = [error] if error else []
        if rc != 0:
            problems.append(f"{command} exited with {rc}")
        else:
            problems += checks.check(command, out, ctx)
        if problems:
            failed += 1
            print(f"{command} failed: " + "; ".join(problems), file=sys.stderr)
    if not result["facts"]["MUMFORD_HEAT_THREADS_unset"]:
        print("MUMFORD_HEAT_THREADS was set in the session", file=sys.stderr)
        failed += 1
    return attempted, failed


def command_seconds(result: dict) -> dict[str, float]:
    return {c["name"]: c["seconds"] for c in result["commands"]}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()
               if p.name not in ("spec.json", "result.json"))


class Run:
    """The sessions of one benchmark run, each in its own directory."""

    def __init__(self, name: str, wl: Workload, seed: int, work: Path):
        self.name, self.wl, self.seed, self.work = name, wl, seed, work
        self.attempted = self.failed = 0
        self.facts: dict = {}
        self._count = 0

    def session(self, trace: bool = False, probe: bool = False) -> dict | None:
        out = self.work / f"s{self._count}"
        self._count += 1
        spec = session_spec(self.wl, self.seed, out, COMMANDS, trace, probe)
        result = run_child(spec)
        attempted, failed = check_session(self.wl, spec, result)
        self.attempted += attempted
        self.failed += failed
        if result is not None:
            self.facts.update(result["facts"])
            result["artifact_bytes"] = artifact_bytes(out)
        shutil.rmtree(out)
        return result

    def summary(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def session_seconds(result: dict) -> float:
    return sum(command_seconds(result).values())


def untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics: medians over the run's sessions of each time at
    the reference speed (see SpeedProbe in session.py)."""
    sessions, walls = [], []
    start = perf_counter()
    while len(walls) < MIN_SESSIONS or \
            perf_counter() - start + statistics.mean(walls) <= seconds:
        t0 = perf_counter()
        result = run.session(probe=True)
        walls.append(perf_counter() - t0)
        if result is not None:
            sessions.append(result)
    if not sessions:
        return run.summary({})
    scaled = [{c["name"]: c["seconds"] * c["speed"] for c in r["commands"]} for r in sessions]
    values = {f"{c}_s": statistics.median(s[c] for s in scaled) for c in COMMANDS}
    values["session_s"] = statistics.median(sum(s.values()) for s in scaled)
    values["setup_s"] = statistics.median(r["setup_s"] * r["setup_speed"] for r in sessions)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in sessions)
    run.facts["wall_s"] = {f"{c}_s": statistics.median(command_seconds(r)[c] for r in sessions)
                           for c in COMMANDS}
    run.facts["sessions"] = len(sessions)
    return run.summary({name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END})


def traced(run: Run) -> dict:
    """Per-layer metrics from the fastest of a few traced sessions, each run
    beside an untraced one for the overhead ratio."""
    plain, spanned = [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(run.session())
        spanned.append(run.session(trace=True))
    plain = [r for r in plain if r is not None]
    spanned = [r for r in spanned if r is not None]
    if not plain or not spanned:
        return run.summary({})
    best = min(spanned, key=session_seconds)
    values = tracing.layer_values(best["spans"], best["counts"], best["states"])
    values["cli.artifact_bytes"] = best["artifact_bytes"]
    values["trace.overhead_ratio"] = (session_seconds(best)
                                      / min(session_seconds(r) for r in plain))
    return run.summary({name: {"value": values[name], "unit": unit}
                        for name, unit in tracing.LAYER_METRICS})


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_facts(run: Run, seconds: int, trace: bool) -> dict:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    sources = hashlib.sha256()
    for path in sorted((SRC / "mumford_heat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            sources.update(path.relative_to(SRC).as_posix().encode() + _sha256(path).encode())
    wl = run.wl
    return {
        **run.facts,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "workload": run.name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "fixture": wl.config().relative_to(ROOT).as_posix(),
        "fixture_sha256": _sha256(wl.config()),
        "flags": {c: [*wl.common_flags(), *wl.command_flags(c, run.seed)]
                  for c in ("validate", *COMMANDS)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mumford_heat" / "__init__.py").is_file():
        print(f"no mumford_heat sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        sys.path.insert(0, str(SRC))  # the artifact checks use the package
        run = Run(args.workload, WORKLOADS[args.workload], args.seed, work)
        result = traced(run) if args.trace else untraced(run, args.seconds)
        facts = run_facts(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it
    if not result["metrics"]:
        print("no session completed", file=sys.stderr)
        return 1
    print(json.dumps({"run_facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
