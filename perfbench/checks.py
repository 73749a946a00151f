"""Artifact checks: each CLI command's output must satisfy these properties.

The checks test properties and enclosures taken from ``reference.json``,
never the bytes of an artifact, so they keep holding when a later version
collapses a certified interval to its exact value or draws different
sample paths.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from fractions import Fraction
from pathlib import Path


@functools.cache
def _reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


RATIONAL = re.compile(r"-?\d+(/\d+)?")
EVOLVE_RTOL = 1e-6
CHART_FACTOR_RTOL = 1e-9


def _csv_rows(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header comments (``# key=value``) and the data rows of a CLI csv."""
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            for item in line[1:].split():
                key, _, value = item.partition("=")
                meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _printed_value(text: str) -> Fraction:
    """An exact rational, or a float printed with repr (then exact as a binary
    fraction)."""
    return Fraction(text) if RATIONAL.fullmatch(text) else Fraction(float(text))


def check_validate(out: Path, ctx: dict) -> list[str]:
    domain = json.loads((out / "validation.json").read_text())["domain"]
    return [f"validation.json: {key} is not true"
            for key in ("pairing_onto_targets", "holes_disjoint", "tiles_disjoint")
            if domain.get(key) is not True]


def _spectrum_classes(out: Path) -> dict[tuple[int, Fraction], dict[str, str]]:
    _, rows = _csv_rows(out / "spectrum.csv")
    return {(int(r["radius_exp"]), Fraction(r["density"])): r for r in rows}


def check_spectrum(out: Path, ctx: dict) -> list[str]:
    problems = []
    classes = _spectrum_classes(out)
    reference = {(r["radius_exp"], Fraction(r["density"])): r
                 for r in _reference()[ctx["reference"]]}
    if set(classes) != set(reference):
        return [f"spectrum classes {sorted(classes)} != reference {sorted(reference)}"]
    for key, row in classes.items():
        ref = reference[key]
        lo, hi = Fraction(row["lambda_exact_lo"]), Fraction(row["lambda_exact_hi"])
        ref_lo, ref_hi = map(Fraction, ref["lambda_exact"])
        if lo > hi:
            problems.append(f"class {key}: lambda_exact lo > hi")
        if hi < ref_lo or lo > ref_hi:
            problems.append(f"class {key}: lambda_exact [{lo}, {hi}] misses the "
                            f"reference [{ref_lo}, {ref_hi}]")
        text = row["lambda_formula"]
        value = _printed_value(text)
        # a float-printed value may sit one unit in the last place outside
        slack = 0 if RATIONAL.fullmatch(text) else Fraction(math.ulp(float(text)))
        f_lo, f_hi = map(Fraction, ref["lambda_formula"])
        if not f_lo - slack <= value <= f_hi + slack:
            problems.append(f"class {key}: lambda_formula {text} outside the "
                            f"reference enclosure [{f_lo}, {f_hi}]")
    if ctx["fixture"] == "tate-p3":
        worked = classes.get((-1, Fraction(1)))
        if worked is None or worked["lambda_formula"] != "15/26":
            problems.append("tate-p3 class (-1, 1): lambda_formula is not 15/26")
    return problems


def _initial_wavelet(ctx: dict):
    """The initial condition ``evolve`` uses by default: the real part of the
    first admissible wavelet on the level's states, and that wavelet's class."""
    from mumford_heat import admissible_wavelets, parse_config, state_discs, wavelet_eval
    run = parse_config(ctx["config"])
    op = run.operator_config(cutoff_len=ctx["cutoff_len"])
    level = ctx["level"] if ctx["level"] is not None else run.run.level
    wavelet = admissible_wavelets(op.profile, level)[0]
    values = [complex(wavelet_eval(wavelet, d.center, op.profile, "omega")).real
              for d in state_discs(op.domain, op.profile, level)]
    key = (wavelet.support.radius_exp, op.profile.density_on(wavelet.support))
    return values, key


def check_evolve(out: Path, ctx: dict) -> list[str]:
    """t = 0 reproduces the wavelet; later rows are h0 * exp(-lam t) for one
    lam inside the class's lambda_exact interval from this run's spectrum."""
    h0, key = _initial_wavelet(ctx)
    row = _spectrum_classes(out).get(key)
    if row is None:
        return [f"evolve: class {key} of the initial wavelet is not in spectrum.csv"]
    lam_lo = float(Fraction(row["lambda_exact_lo"]))
    lam_hi = float(Fraction(row["lambda_exact_hi"]))
    _, rows = _csv_rows(out / "evolution.csv")
    by_time: dict[float, list[complex]] = {}
    for r in rows:
        by_time.setdefault(float(r["t"]), []).append(complex(r["value"]))
    scale = max(abs(v) for v in h0)
    problems = []
    for t, values in by_time.items():
        if len(values) != len(h0):
            problems.append(f"evolve: t={t} has {len(values)} states, expected {len(h0)}")
            continue
        if t == 0:
            if max(abs(v - h) for v, h in zip(values, h0)) > 1e-12 * scale:
                problems.append("evolve: the t = 0 row is not the initial wavelet")
            continue
        # the decay factor closest to the data, kept inside exp(-[lo, hi] t)
        c = sum((v * h).real for v, h in zip(values, h0)) / sum(h * h for h in h0)
        c = min(max(c, math.exp(-lam_hi * t)), math.exp(-lam_lo * t))
        err = max(abs(v - c * h) for v, h in zip(values, h0))
        if err > EVOLVE_RTOL * c * scale:
            problems.append(f"evolve: t={t} is not h0*exp(-lam t) for lam in "
                            f"[{lam_lo}, {lam_hi}] (error {err / (c * scale):.2e})")
    return problems


def check_resolvent(out: Path, ctx: dict) -> list[str]:
    meta, rows = _csv_rows(out / "resolvent.csv")
    eta = Fraction(meta["eta"])
    if not all(RATIONAL.fullmatch(r["u"]) for r in rows):
        return ["resolvent: u is not exact"]
    u = [Fraction(r["u"]) for r in rows]
    bound = max(Fraction(r["h"]) for r in rows) / eta
    if min(u) < 0 or max(u) > bound:
        return [f"resolvent: u outside [0, max h / eta] = [0, {bound}]"]
    return []


def check_sample(out: Path, ctx: dict) -> list[str]:
    report = json.loads((out / "sample-validation.json").read_text())
    return [] if report.get("passed") is True else \
        ["sample-validation.json: passed is not true"]


def check_audit(out: Path, ctx: dict) -> list[str]:
    checks = {c["check"]: c for c in json.loads((out / "audit.json").read_text())["checks"]}
    problems = [f"audit: {name} does not hold"
                for name in ("moebius_distance_product_identity", "escape_distance_bound")
                if not (checks[name]["holds"] and checks[name]["failures"] == 0)]
    if ctx["fixture"] == "tate-p3":
        if not any(e["lhs"] == "1/9" and e["rhs"] == "1" and not e["equal"]
                   for e in checks["disc_distance_word_shift"]["examples"]):
            problems.append("audit: the 1/9-vs-1 word-shift counterexample is missing")
        factors = [Fraction(m.group(1)) for e in checks["chart_shift_invariance"]["examples"]
                   if (m := re.search(r"\(scale (\S+)\)", e["rhs"]))]
        # the oracle is truncated at the cutoff, so the factor is 81 to its precision
        if not factors or any(abs(f / 81 - 1) > CHART_FACTOR_RTOL for f in factors):
            problems.append(f"audit: ambient chart factor {factors} is not 81")
    return problems


CHECKS = {
    "validate": check_validate,
    "spectrum": check_spectrum,
    "evolve": check_evolve,
    "resolvent": check_resolvent,
    "sample": check_sample,
    "audit": check_audit,
}


def check(command: str, out: Path, ctx: dict) -> list[str]:
    """Problems with ``command``'s artifacts in ``out``; a crash is a problem."""
    try:
        return CHECKS[command](out, ctx)
    except Exception as exc:  # a malformed artifact is a failed check, not a crash
        return [f"{command}: artifact unreadable: {exc!r}"]
