"""Command-line front end: validate, spectrum, evolve, sample, audit, resolvent.

Outputs are deterministic: identical config, flags and seed produce
byte-identical files.  Every artifact embeds the config hash, the evaluation
mode, the resolved cutoff length and the certified tail bound at that
cutoff.  ``sample`` draws, counts and formats its paths, and ``audit`` runs
its checks, in up to one process per usable CPU, and their bytes do not
depend on the number.  Exit codes: 0 success, 1 a failed worker of
``sample`` or ``audit``, 2 validation failure, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from fractions import Fraction
from itertools import chain, pairwise, repeat
from operator import sub
from pathlib import Path

import numpy as np

from .audit import audit_lemmas
from .config import (ParseError, RunConfig, ValidationError, check_level,
                     emit_config, format_rational, parse_config, parse_cutoff,
                     parse_int, parse_positive_rational, parse_times)
from .heat import (NumericalBreakdown, PathColumns, SingularSystem,
                   empirical_validation, jump_chain, resolvent_solve,
                   sample_paths, solve_cauchy, wavelet_column)
from .measure import RationalFunctionDatum
from .operator import (ChartNotSupported, CoincidentPoints, CutoffNotReached,
                       OperatorConfig, RatioNotConstant, generator_matrix,
                       spectrum, tail_bound)
from .padic import PoleHit
from .schottky import DomainInvalid, verify_fundamental_domain
from .wavelets import LevelFunction, Wavelet


def _scalar_str(value) -> str:
    """An exact rational as such; a PowerSum or a float as the float's repr."""
    if isinstance(value, Fraction):
        return format_rational(value)
    return repr(float(value))


def _meta(run: RunConfig, op: OperatorConfig) -> dict:
    """The facts every artifact embeds; computed once per command."""
    cut = op.cutoff()
    return {
        "config_hash": run.config_hash,
        "mode": op.mode,
        "cutoff_len": cut,
        "tail_bound": format_rational(tail_bound(op, cut)),
    }


def _header_lines(meta: dict) -> list[str]:
    return [f"# {key}={meta[key]}\n"
            for key in ("config_hash", "mode", "cutoff_len", "tail_bound")]


def _write(path: Path, pieces: Iterable[str]) -> None:
    """Write an artifact piece by piece, in order: a lazy ``pieces`` keeps
    only the piece being written alive.  The pieces go to a temporary name
    beside ``path``, renamed to it only once all are written, so a write
    that fails leaves neither the artifact nor the temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with partial.open("w") as fh:
            fh.writelines(pieces)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # gone already once replaced
    print(f"wrote {path}")


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that names a file, or a path under one, before
    any work: the first artifact write would fail only after all of it."""
    for path in (out, *out.parents):
        if path.is_dir():
            return
        if os.path.lexists(path):
            raise ValidationError("--out", f"{path} exists and is not a directory")


def cmd_validate(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    report = verify_fundamental_domain(op.group, depth=4)
    payload = {
        "meta": _meta(run, op),
        "domain": {
            "holes_disjoint": report.holes_disjoint,
            "pairing_onto_targets": report.pairing_ok,
            "tiles_checked": report.tiles_checked,
            "tiles_disjoint": report.tiles_disjoint,
            "details": list(report.details),
            "measure": format_rational(op.domain.measure()),
        },
        "measure": {
            "total_mass": format_rational(op.profile.total_mass),
            "pieces": len(op.profile.pieces),
            "zero_cores": len(op.profile.zero_cores),
        },
        "config": emit_config(run),
    }
    _write(out / "validation.json", [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return 0


def _level(run: RunConfig, args) -> int:
    """``--level`` if given, else ``run.level``; ``main`` has checked the flag."""
    return args.level if args.level is not None else run.run.level


def cmd_spectrum(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    level = _level(run, args)
    result = spectrum(op, level, datum=run.datum)
    lines = _header_lines(_meta(run, op))
    lines.append("radius_exp,density,lambda_formula,lambda_exact_lo,"
                 "lambda_exact_hi,multiplicity,n_witness_discs\n")
    for e in result.entries:
        lines.append(",".join([
            str(e.radius_exp),
            format_rational(e.density),
            _scalar_str(e.lam_formula.value),
            format_rational(e.lam_exact.lo),
            format_rational(e.lam_exact.hi),
            str(e.multiplicity),
            str(len(e.witnesses)),
        ]) + "\n")
    lines.append("# word_census="
                 + ";".join(f"{l}:{n}" for l, n in result.word_counts) + "\n")
    _write(out / "spectrum.csv", lines)
    return 0


def _start_state(run: RunConfig, gen) -> int:
    """``run.start_state``, checked against the states at the generator's level."""
    idx = run.run.start_state
    if idx >= len(gen.states):
        raise ValidationError(
            "run.start_state",
            f"state {idx} does not exist: level {gen.level} has "
            f"{len(gen.states)} states")
    return idx


def _default_initial(run: RunConfig, op: OperatorConfig, gen, args) -> LevelFunction:
    kind = args.initial
    if kind == "wavelet":
        # the first admissible support: a largest piece the level resolves
        pieces = [d for d, _ in op.profile.pieces if d.radius_exp > -gen.level]
        if not pieces:
            raise ValidationError("--level" if args.level is not None else "run.level",
                                  "no admissible wavelet at this level; "
                                  "use --initial indicator")
        w = Wavelet(min(pieces, key=lambda d: (-d.radius_exp, d.center)), 1, op.p)
        return gen.level_function(wavelet_column(w, gen.states, op.profile).real.tolist())
    if kind == "indicator":
        idx = _start_state(run, gen)
        return gen.level_function([float(i == idx) for i in range(gen.size)])
    raise ValidationError("--initial", f"unknown initial condition {kind!r}")


def cmd_evolve(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    times = parse_times(args.times, "--t") if args.times else run.run.times
    level = _level(run, args)
    gen = generator_matrix(op, level)
    h0 = _default_initial(run, op, gen, args)
    sol = solve_cauchy(gen, h0, times)
    lines = _header_lines(_meta(run, op))
    lines.append("t,state_index,value\n")
    for t, row in zip(sol.times, sol.values):
        for si, value in enumerate(row):
            lines.append(f"{t!r},{si},{float(value)!r}\n")
    _write(out / "evolution.csv", lines)
    return 0


PATH_CHUNK = 1024  # paths per block of paths.csv text


def _path_blocks(paths: PathColumns, tails: list[str], first: int) -> Iterator[str]:
    """The rows of ``paths.csv`` for ``paths``, path ids from ``first``, one
    string per block of PATH_CHUNK paths.  A row is three pieces: its path id
    and a comma, the float repr of its time, and ``tails[state]``, which
    holds the state's columns and the newline."""
    for lo in range(first, first + len(paths), PATH_CHUNK):
        block = paths[lo - first:lo - first + PATH_CHUNK]
        bounds = block.offsets.tolist()
        pieces = [""] * (3 * bounds[-1])
        # one id string per path, repeated once per row of the path
        pieces[0::3] = chain.from_iterable(
            map(repeat, map("{},".format, range(lo, lo + len(block))),
                map(sub, bounds[1:], bounds)))
        pieces[1::3] = map(repr, block.times.tolist())
        pieces[2::3] = map(tails.__getitem__, block.states.tolist())
        yield "".join(pieces)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else every CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _ranges(n_paths: int) -> list[range]:
    """Contiguous ranges of whole PATH_CHUNK blocks (the last may be partial), one
    per usable CPU but at most one per block, and one without ``os.fork``."""
    n_blocks = -(-n_paths // PATH_CHUNK)
    k = min(_usable_cpus(), n_blocks) if hasattr(os, "fork") else 1
    cuts = [n_blocks * j // k * PATH_CHUNK for j in range(k)]
    return [range(a, b) for a, b in pairwise([*cuts, n_paths])]


PIPE_READ = 1 << 16  # bytes copied from a worker's pipe at a time


@contextmanager
def _workers(tasks: list[tuple[str, Callable]]) -> Iterator[list]:
    """Fork a worker per ``(name, task)`` and yield the read ends of their pipes,
    in order; ``task(pipe)`` writes to the binary file ``pipe``.  A worker calls
    no BLAS and leaves by ``os._exit``, flushing no file of this process.  The
    pipes close before the workers are waited for, so one blocked on a full
    pipe fails instead of hanging; one that did not exit 0 raises ChildProcessError."""
    pids, pipes = [], []
    try:
        for _, task in tasks:
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _work(task, pipes, write_end)
            finally:
                os.close(write_end)  # only the parent gets here
            pids.append(pid)
        yield pipes
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for (name, _), status in zip(tasks, statuses):
        if status:
            raise ChildProcessError(
                f"{name} exited with status {os.waitstatus_to_exitcode(status)}")


def _work(task: Callable, pipes: list, write_end: int):
    """A forked worker's whole life: run ``task`` on ``write_end``; exit 0 only if it all went."""
    status = 1
    try:
        for pipe in pipes:  # its own read end and those of earlier workers
            pipe.close()
        with open(write_end, "wb") as pipe:
            task(pipe)
        status = 0
    finally:
        os._exit(status)


def _sampled_rows(draw, ranges: list[range], tails: list[str], counts: list) -> Iterator[str]:
    """The rows of ``paths.csv``; ``draw(ids)`` gives a range's checkpoint counts
    and sample, and the counts go to ``counts``.  A worker per range but the
    first writes its counts (little-endian int64), then its text; this process
    yields the first range block by block, then copies each pipe."""
    def task(ids: range) -> tuple[str, Callable]:
        def run(pipe):
            counts, paths = draw(ids)
            text = list(_path_blocks(paths, tails, ids.start))
            pipe.write(counts.astype("<i8").tobytes())
            pipe.writelines(map(str.encode, text))
        return f"paths.csv: the worker on paths {ids.start}-{ids.stop - 1}", run

    with _workers(list(map(task, ranges[1:]))) as pipes:
        own, paths = draw(ranges[0])
        counts.append(own)
        yield from _path_blocks(paths, tails, 0)
        del paths  # freed before the workers' text is copied: a lower peak
        for pipe in pipes:
            if len(head := pipe.read(own.nbytes)) < own.nbytes:
                break  # the worker died before its counts: its status raises
            counts.append(np.frombuffer(head, "<i8").reshape(own.shape))
            while piece := pipe.read(PIPE_READ):
                yield piece.decode("ascii")


def _outcome(check: Callable):
    """The check's result, or None (its exception suppressed) if it raised."""
    with suppress(Exception):
        return check()


def _evaluate_checks(checks: list) -> list:
    """The audit's checks: check i runs in process i mod k, k the smaller of
    the usable CPUs and the number of checks, and process 0 is this one.  A
    worker pickles its outcomes to its pipe.  The checks that raised run
    again here, in order, so the first raises as it would in one process."""
    k = min(_usable_cpus(), len(checks)) if hasattr(os, "fork") else 1
    tasks = [(f"audit.json: the worker on checks {', '.join(map(str, range(j, len(checks), k)))}",
              lambda pipe, j=j: pickle.dump(list(map(_outcome, checks[j::k])), pipe))
             for j in range(1, k)]
    results = [None] * len(checks)
    with _workers(tasks) as pipes:
        results[0::k] = map(_outcome, checks[0::k])
        blobs = [pipe.read() for pipe in pipes]
    for j, blob in enumerate(blobs, 1):
        results[j::k] = pickle.loads(blob)
    return [check() if result is None else result for result, check in zip(results, checks)]


def cmd_sample(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    n_paths = (parse_int(args.paths, "--paths", minimum=1)
               if args.paths is not None else run.run.paths)
    seed = (parse_int(args.seed, "--seed", minimum=0)
            if args.seed is not None else run.run.seed)
    level = _level(run, args)
    gen = generator_matrix(op, level)
    start = _start_state(run, gen)
    t_max = max(run.run.times) if run.run.times else 1.0
    jumps = jump_chain(gen, n_paths, t_max, seed)  # refuses before any process starts
    checkpoints = [t for t in run.run.times if 0 < t <= t_max]

    def draw(ids: range) -> tuple:
        paths = sample_paths(gen, n_paths, t_max, seed, start, paths=ids, chain=jumps)
        return paths.counts(checkpoints, gen.size), paths

    meta = _meta(run, op)
    lines = _header_lines(meta)
    lines.append(f"# seed={seed} t_max={t_max!r} start_state={start}\n")
    lines.append("path_id,jump_time,state_index,state_center,state_radius_exp\n")
    tails = [f",{i},{format_rational(d.center)},{d.radius_exp}\n"
             for i, d in enumerate(gen.states)]
    counts = []
    _write(out / "paths.csv", chain(lines, _sampled_rows(draw, _ranges(n_paths), tails, counts)))
    if checkpoints:
        report = empirical_validation(gen, sum(counts), checkpoints, start_index=start)
        payload = {
            "meta": meta,
            "n_paths": report.n_paths,
            "threshold_sigmas": report.threshold,
            "passed": report.passed,
            "checkpoints": [
                {"t": r.t, "max_sigma": r.max_sigma,
                 "worst_state": r.worst_state, "passed": r.passed}
                for r in report.rows],
        }
        _write(out / "sample-validation.json",
               [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return 0


def cmd_audit(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    n_random = parse_int(args.audit_samples, "--audit-samples", minimum=1)
    datum = run.datum if run.datum is not None else RationalFunctionDatum.constant()
    report = audit_lemmas(op, datum, n_random=n_random, level=_level(run, args),
                          evaluate=_evaluate_checks)
    payload = {"meta": _meta(run, op)}
    payload.update(report.to_dict())
    _write(out / "audit.json", [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return 0


def cmd_resolvent(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    eta = (parse_positive_rational(args.eta, "--eta") if args.eta is not None
           else run.run.eta)
    level = _level(run, args)
    gen = generator_matrix(op, level)
    idx = _start_state(run, gen)
    h = [Fraction(int(i == idx)) for i in range(gen.size)]
    u = gen.vector(resolvent_solve(gen, eta, gen.level_function(h)))
    lines = _header_lines(_meta(run, op))
    lines.append(f"# eta={format_rational(eta)}\n")
    lines.append("state_index,state_center,state_radius_exp,h,u\n")
    for i, (d, hi, ui) in enumerate(zip(gen.states, h, u)):
        lines.append(f"{i},{format_rational(d.center)},{d.radius_exp},"
                     f"{format_rational(hi)},{_scalar_str(ui)}\n")
    _write(out / "resolvent.csv", lines)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "sample": cmd_sample,
    "audit": cmd_audit,
    "resolvent": cmd_resolvent,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mumford-heat",
        description="Spectra, heat flow and path sampling for the nonlocal "
                    "diffusion operator on a p-adic Schottky quotient.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("-c", "--config", required=True, help="JSON config file")
    parser.add_argument("--level", type=int, default=None,
                        help="state-space level (disc radius p^-level)")
    parser.add_argument("--t", "--times", dest="times", type=float, nargs="+",
                        default=None, help="time grid for evolve")
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=("ambient", "transport"), default=None)
    parser.add_argument("--cutoff-len", type=int, default=None)
    parser.add_argument("--cutoff-tol", type=str, default=None)
    parser.add_argument("--eta", type=str, default=None,
                        help="resolvent shift (exact rational)")
    parser.add_argument("--initial", choices=("wavelet", "indicator"),
                        default="wavelet", help="initial condition for evolve")
    parser.add_argument("--audit-samples", type=int, default=2000)
    parser.add_argument("-o", "--out", type=Path, default=Path("."),
                        help="output directory")
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact values may run past the default limit of 4300 digits: under
        # a density of 10^400, tate-p3's resolvent values have 4916
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        cutoff_len, cutoff_tol = parse_cutoff(args.cutoff_len, args.cutoff_tol,
                                              "--cutoff-len", "--cutoff-tol")
        run = parse_config(args.config)
        if args.level is not None:
            check_level(args.level, run.resolution, "--level")
        op = run.operator_config(mode=args.mode, cutoff_len=cutoff_len,
                                 cutoff_tol=cutoff_tol)
        code = COMMANDS[args.command](run, op, args.out, args)
    except (ParseError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CutoffNotReached as exc:
        # a --cutoff-tol replaces the file's cutoff; else the file's (or the
        # default) tolerance was searched
        field = "--cutoff-tol" if args.cutoff_tol is not None else "operator.cutoff.tol"
        print(f"validation error: {field}: {exc}", file=sys.stderr)
        return 2
    except (DomainInvalid, ChartNotSupported, PoleHit, CoincidentPoints) as exc:
        # the group fails a domain clause, or a walked word's pole or image
        # meets a cell the exact sums need
        print(f"validation error: group: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdown, SingularSystem, RatioNotConstant, OverflowError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
