"""Command-line front end: validate, spectrum, evolve, sample, audit, resolvent.

Outputs are deterministic: identical config, flags and seed produce
byte-identical files.  Every artifact embeds the config hash, the evaluation
mode, the resolved cutoff length and the certified tail bound at that
cutoff.  Exit codes: 0 success, 2 validation failure, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import sub
from pathlib import Path

from .audit import audit_lemmas
from .config import (ParseError, RunConfig, ValidationError, check_level,
                     emit_config, format_rational, parse_config, parse_cutoff,
                     parse_int, parse_positive_rational, parse_times)
from .heat import (NumericalBreakdown, SingularSystem, empirical_validation,
                   resolvent_solve, sample_paths, solve_cauchy)
from .measure import RationalFunctionDatum
from .operator import (ChartNotSupported, CoincidentPoints, OperatorConfig,
                       RatioNotConstant, generator_matrix, spectrum, tail_bound)
from .padic import PoleHit
from .schottky import DomainInvalid, verify_fundamental_domain
from .wavelets import LevelFunction, admissible_wavelets, wavelet_eval


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
    return [f"# {key}={meta[key]}"
            for key in ("config_hash", "mode", "cutoff_len", "tail_bound")]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


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
    _write(out / "validation.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _level(run: RunConfig, args) -> int:
    """``--level`` if given, else ``run.level``; ``main`` has checked the flag."""
    return args.level if args.level is not None else run.run.level


def cmd_spectrum(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    level = _level(run, args)
    result = spectrum(op, level, datum=run.datum)
    lines = _header_lines(_meta(run, op))
    lines.append("radius_exp,density,lambda_formula,lambda_exact_lo,"
                 "lambda_exact_hi,multiplicity,n_witness_discs")
    for e in result.entries:
        lines.append(",".join([
            str(e.radius_exp),
            format_rational(e.density),
            _scalar_str(e.lam_formula.value),
            format_rational(e.lam_exact.lo),
            format_rational(e.lam_exact.hi),
            str(e.multiplicity),
            str(len(e.witnesses)),
        ]))
    lines.append("# word_census=" + ";".join(f"{l}:{n}" for l, n in result.word_counts))
    _write(out / "spectrum.csv", "\n".join(lines) + "\n")
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
        wavelets = admissible_wavelets(op.profile, gen.level)
        if not wavelets:
            raise ValidationError("--level" if args.level is not None else "run.level",
                                  "no admissible wavelet at this level")
        w = wavelets[0]
        return gen.level_function(
            [complex(wavelet_eval(w, d.center, op.profile, "omega")).real
             for d in gen.states])
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
    lines.append("t,state_index,value")
    for t, row in zip(sol.times, sol.values):
        for si, value in enumerate(row):
            lines.append(f"{t!r},{si},{float(value)!r}")
    _write(out / "evolution.csv", "\n".join(lines) + "\n")
    return 0


def cmd_sample(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    n_paths = (parse_int(args.paths, "--paths", minimum=1)
               if args.paths is not None else run.run.paths)
    seed = (parse_int(args.seed, "--seed", minimum=0)
            if args.seed is not None else run.run.seed)
    level = _level(run, args)
    gen = generator_matrix(op, level)
    start = _start_state(run, gen)
    t_max = max(run.run.times) if run.run.times else 1.0
    paths = sample_paths(gen, n_paths, t_max, seed, start_index=start)
    meta = _meta(run, op)
    lines = _header_lines(meta)
    lines.append(f"# seed={seed} t_max={t_max!r} start_state={start}")
    lines.append("path_id,jump_time,state_index,state_center,state_radius_exp")
    labels = [f"{i},{format_rational(d.center)},{d.radius_exp}"
              for i, d in enumerate(gen.states)]
    bounds = paths.offsets.tolist()  # one id string per path, repeated per row
    ids = chain.from_iterable(map(repeat, map(str, range(len(paths))),
                                  map(sub, bounds[1:], bounds)))
    lines.extend(map(",".join, zip(ids, map(repr, paths.times.tolist()),
                                   map(labels.__getitem__, paths.states.tolist()))))
    _write(out / "paths.csv", "\n".join(lines) + "\n")
    checkpoints = [t for t in run.run.times if 0 < t <= t_max]
    if checkpoints:
        report = empirical_validation(gen, paths, checkpoints, start_index=start)
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
               json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_audit(run: RunConfig, op: OperatorConfig, out: Path, args) -> int:
    n_random = parse_int(args.audit_samples, "--audit-samples", minimum=1)
    datum = run.datum if run.datum is not None else RationalFunctionDatum.constant()
    report = audit_lemmas(op, datum, n_random=n_random, level=run.run.level)
    payload = {"meta": _meta(run, op)}
    payload.update(report.to_dict())
    _write(out / "audit.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    lines.append(f"# eta={format_rational(eta)}")
    lines.append("state_index,state_center,state_radius_exp,h,u")
    for i, (d, hi, ui) in enumerate(zip(gen.states, h, u)):
        lines.append(f"{i},{format_rational(d.center)},{d.radius_exp},"
                     f"{format_rational(hi)},{_scalar_str(ui)}")
    _write(out / "resolvent.csv", "\n".join(lines) + "\n")
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
    except (DomainInvalid, ChartNotSupported, PoleHit, CoincidentPoints) as exc:
        # the group fails a domain clause, or a walked word's pole or image
        # meets a cell the exact sums need
        print(f"validation error: group: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdown, SingularSystem, RatioNotConstant, OverflowError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
