"""One workload session in a fresh process: set-up, then the CLI commands.

Run by ``run.py`` as ``python3 perfbench/session.py SPEC.json``.  The spec
names the source tree, the artifact directory, the set-up config and the
commands; the result (times, exit codes, peak RSS and, when traced, the
spans) is written as JSON to the path the spec gives.  Every command calls
``mumford_heat.cli.main`` in this process, one after another.
"""

import contextlib
import json
import os
import platform
import resource
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter


def _call(main, argv):
    """Run one CLI command; returns (exit code, error text or None)."""
    try:
        return main(argv), None
    except Exception:  # a crash is a measured failure, not the end of the session
        return None, traceback.format_exc()


def _probe_unit() -> float:
    """Time of a fixed pure-Python Fraction loop, unrelated to the program."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while a command runs.

    A SIGALRM handler times one probe unit every PERIOD_S of wall time, and
    a burst of units runs just before and after the command, so that short
    commands get samples too.  ``factor`` is the mean speed over the
    samples relative to the reference unit time: wall time times the
    factor is the time the command would take at the reference speed.
    """

    PERIOD_S = 0.005
    BURST = 100
    REFERENCE_UNIT_S = 110e-6  # the unit's time on a 2.0 GHz Xeon, uncontended

    def __init__(self):
        self._samples: list[float] = []

    def _tick(self, _signum, _frame):
        self._samples.append(_probe_unit())

    def __enter__(self):
        self._samples = [_probe_unit() for _ in range(self.BURST)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._samples += [_probe_unit() for _ in range(self.BURST)]

    @property
    def factor(self) -> float:
        return self.REFERENCE_UNIT_S * sum(1 / u for u in self._samples) / len(self._samples)


def run_session(spec: dict) -> dict:
    """Probed sessions (``spec["probe"]``) time each step with a SpeedProbe;
    traced sessions (``spec["trace"]``) record spans instead."""
    setup = spec["setup"]
    probe = SpeedProbe if spec["probe"] else contextlib.nullcontext
    tracer = None
    with probe() as setup_probe:
        start = perf_counter()
        sys.path.insert(0, spec["src"])
        import mumford_heat
        if spec["trace"]:
            import tracing
            tracer = tracing.install()
        from mumford_heat.cli import main
        from mumford_heat.config import parse_config

        run = parse_config(setup["config"])
        run.operator_config(cutoff_len=setup["cutoff_len"])
        idx = tracer.open("cli.validate") if tracer else None
        rc, error = _call(main, setup["argv"])
        if tracer:
            tracer.close(idx)
        setup_s = perf_counter() - start

    commands = []
    for run_id, (name, argv) in enumerate(spec["commands"], start=1):
        if tracer:
            tracer.run_id = run_id
            idx = tracer.open(f"cli.{name}")
        with probe() as command_probe:
            t0 = perf_counter()
            cmd_rc, cmd_error = _call(main, argv)
            seconds = perf_counter() - t0
        if tracer:
            tracer.close(idx)
        commands.append({"name": name, "seconds": seconds, "rc": cmd_rc, "error": cmd_error,
                         "speed": command_probe.factor if command_probe else None})

    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "setup_speed": setup_probe.factor if setup_probe else None,
        "setup_rc": rc,
        "setup_error": error,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mumford_heat": mumford_heat.__version__,
            "mumford_heat_file": mumford_heat.__file__,
            "MUMFORD_HEAT_THREADS_unset": "MUMFORD_HEAT_THREADS" not in os.environ,
        },
    }
    if tracer:
        result.update(spans=tracer.spans, counts=dict(tracer.counts),
                      states=tracer.states)
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        session_spec = json.load(fh)
    outcome = run_session(session_spec)
    with open(session_spec["result"], "w") as fh:
        json.dump(outcome, fh)
