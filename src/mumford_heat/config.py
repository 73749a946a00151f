"""Run configuration: JSON parsing, validation, canonical serialisation.

Exact rationals travel as strings ("num/den", decimals, or scientific
notation) so no float contamination enters the exact layers.  Validation
collects structured errors with section/field paths; the growth condition
and the rational-zero assumption on the measure datum are checked at load.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .measure import (MeasureProfile, RationalFunctionDatum, ResolutionTooCoarse,
                      RootInsideDisc, build_profile)
from .operator import MAX_CUTOFF, OperatorConfig, growth_condition_holds
from .padic import Disc
from .schottky import DomainInvalid, MoebiusMap, SchottkyGroup


class ParseError(ValueError):
    """The file is not syntactically a config."""


class ValidationError(ValueError):
    """The config is syntactically fine but violates an invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


MAX_EXPONENT_DIGITS = 4  # of a decimal exponent: Fraction("1e<e>") builds 10**e first


def parse_rational(value, path: str = "") -> Fraction:
    exp = isinstance(value, str) and re.search(r"[eE][-+]?([\d_]+)\s*\Z", value)
    if exp and len(exp[1].replace("_", "").lstrip("0")) > MAX_EXPONENT_DIGITS:
        raise ValidationError(path, f"not an exact rational with a decimal exponent "
                                    f"of at most {MAX_EXPONENT_DIGITS} digits")
    try:
        if isinstance(value, bool):
            raise TypeError("booleans are not numbers")
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(path, f"not an exact rational: {value!r}") from exc
    raise ValidationError(path, f"expected an exact rational string, got {value!r} "
                                "(floats are rejected to keep the arithmetic exact)")


def parse_positive_rational(value, path: str) -> Fraction:
    """An exact rational field that must be > 0."""
    value = parse_rational(value, path)
    if value <= 0:
        raise ValidationError(path, f"must be positive, got {format_rational(value)}")
    return value


MAX_EXPONENT_TERM = 100  # bound on the numerator and denominator of alpha, alpha_g


def parse_exponent(value, path: str) -> Fraction:
    """A rational exponent > 0 with numerator and denominator at most
    MAX_EXPONENT_TERM.  The exact sums raise p to its multiples and bound p
    to it by a q-th root for denominator q: 1/1000 takes 0.25 s a bound,
    and 1e400 or 1e-400 never finishes."""
    exponent = parse_positive_rational(value, path)
    if max(exponent.numerator, exponent.denominator) > MAX_EXPONENT_TERM:
        raise ValidationError(path, f"numerator and denominator must be at most "
                                    f"{MAX_EXPONENT_TERM}, got {value!r}")
    return exponent


def parse_times(values, path: str) -> tuple[float, ...]:
    """A time grid: a list of finite numbers >= 0 (no booleans or strings)."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(path, f"expected a list of times, got {values!r}")
    for t in values:
        if (isinstance(t, bool) or not isinstance(t, (int, float))
                or not 0 <= t <= sys.float_info.max):
            raise ValidationError(path, f"expected a finite time >= 0, got {t!r}")
    return tuple(float(t) for t in values)


def parse_int(value, path: str, minimum: int | None = None,
              maximum: int | None = None) -> int:
    """An integer field; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(path, f"must be at most {maximum}, got {value}")
    return value


def parse_cutoff(cutoff_len, cutoff_tol, len_path: str, tol_path: str
                 ) -> tuple[int | None, Fraction | None]:
    """The truncation length (an integer from 1 to MAX_CUTOFF) and tolerance
    (a rational > 0); either may be None."""
    if cutoff_len is not None:
        cutoff_len = parse_int(cutoff_len, len_path, minimum=1, maximum=MAX_CUTOFF)
    if cutoff_tol is not None:
        cutoff_tol = parse_positive_rational(cutoff_tol, tol_path)
    return cutoff_len, cutoff_tol


def format_rational(value: Fraction) -> str:
    """``n`` for an integer, else ``n/d`` in lowest terms."""
    return str(Fraction(value))


def check_level(level: int, resolution: int, path: str) -> None:
    """A state-space level must not be coarser than the measure resolution."""
    if level < resolution:
        raise ValidationError(path, f"level {level} is coarser than the measure "
                                    f"resolution {resolution}")


def _typed(value, kind: type, path: str):
    """``value`` if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ValidationError(path, f"expected {noun}, got {value!r}")
    return value


def _parse_disc(obj, path: str) -> Disc:
    if not isinstance(obj, dict):
        raise ValidationError(path, "disc must be an object")
    try:
        center = parse_rational(obj["center"], f"{path}.center")
        rexp = parse_int(obj["radius_exp"], f"{path}.radius_exp")
    except KeyError as exc:
        raise ValidationError(path, f"missing field {exc}") from exc
    complement = obj.get("complement", False)
    if not isinstance(complement, bool):
        raise ValidationError(f"{path}.complement",
                              f"expected true or false, got {complement!r}")
    return Disc(center, rexp, complement)


def _disc_dict(d: Disc) -> dict:
    out = {"center": format_rational(d.center), "radius_exp": d.radius_exp}
    if d.complement:
        out["complement"] = True
    return out


class RunSettings(NamedTuple):
    level: int
    times: tuple[float, ...]
    paths: int
    seed: int
    start_state: int
    eta: Fraction


class RunConfig(NamedTuple):
    """Validated run configuration plus its canonical hash.

    ``operator`` holds the operator section as the file gives it.  Its
    group is a Schottky figure, as ``SchottkyGroup`` checks on construction;
    only ``validate`` runs the tile certificate, for its report.
    """

    operator: OperatorConfig
    datum: RationalFunctionDatum | None
    resolution: int
    run: RunSettings
    config_hash: str

    def operator_config(self, mode: str | None = None,
                        cutoff_len: int | None = None,
                        cutoff_tol: Fraction | None = None) -> OperatorConfig:
        """The file's operator with the given overrides.  A cutoff override
        replaces the file's cutoff as a whole, so a tolerance alone is not
        shadowed by the file's length."""
        changes = {"mode": mode} if mode else {}
        if cutoff_len is not None or cutoff_tol is not None:
            changes.update(cutoff_len=cutoff_len, cutoff_tol=cutoff_tol)
        return replace(self.operator, **changes)


# Miller-Rabin with the 13 prime bases <= 41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015); the 12
# bases <= 37 alone are fooled by 318665857834031151167461.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin over MILLER_RABIN_BASES for n >= 2.  False proves n
    composite; True proves n prime when n < MILLER_RABIN_LIMIT."""
    if n in MILLER_RABIN_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_config(path) -> RunConfig:
    """Load and validate a config file; every violation names its field."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such config file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: unreadable: {exc.strerror or exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ParseError("config root must be an object")
    field = _typed(raw.get("field", {}), dict, "field")
    p = field.get("p")
    if not isinstance(p, int) or p < 2:
        raise ValidationError("field.p", f"prime expected, got {p!r}")
    if not _is_prime(p):
        raise ValidationError("field.p", f"{p} is not prime")
    if p >= MILLER_RABIN_LIMIT:
        raise ValidationError("field.p", f"{p} is a probable prime, but primality "
                                         f"is decided only below {MILLER_RABIN_LIMIT}")

    gsec = _typed(raw.get("group", {}), dict, "group")
    gens = []
    for i, mat in enumerate(_typed(gsec.get("generators", []), list,
                                   "group.generators")):
        gpath = f"group.generators[{i}]"
        try:
            (a, b), (c, d) = mat
            gens.append(MoebiusMap(int(str(a)), int(str(b)), int(str(c)), int(str(d))))
        except (TypeError, ValueError) as exc:
            raise ValidationError(gpath, f"bad matrix: {exc}") from exc
    outer = _parse_disc(gsec.get("outer"), "group.outer")
    holes = tuple(_parse_disc(h, f"group.holes[{i}]")
                  for i, h in enumerate(_typed(gsec.get("holes", []), list,
                                               "group.holes")))
    try:
        group = SchottkyGroup(p=p, generators=tuple(gens), holes=holes, outer=outer)
    except DomainInvalid as exc:
        raise ValidationError("group", str(exc)) from exc

    msec = _typed(raw.get("measure", {}), dict, "measure")
    resolution = parse_int(msec.get("resolution", 2), "measure.resolution")
    datum = None
    if "datum" in msec:
        datum = _parse_datum(msec["datum"])
        profile = _datum_profile(datum, group, resolution)
    elif "profile" in msec:
        profile = _parse_profile(msec["profile"], p, resolution)
        fault = profile.tiling_fault(group.fundamental_domain())
        if fault:
            raise ValidationError("measure.profile.pieces",
                                  f"the pieces and zero cores do not tile F: {fault}")
    else:
        raise ValidationError("measure", "needs either a datum or a profile")
    if not profile.pieces:  # the zero cores tile F, so no level has a state
        raise ValidationError("measure.profile.pieces" if datum is None else
                              "measure.datum.factors", "the measure vanishes on all of F")

    osec = _typed(raw.get("operator", {}), dict, "operator")
    alpha = parse_exponent(osec.get("alpha", "1"), "operator.alpha")
    alpha_g = parse_exponent(osec.get("alpha_g", "1"), "operator.alpha_g")
    mode = osec.get("mode", "ambient")
    if mode not in ("ambient", "transport"):
        raise ValidationError("operator.mode", f"unknown mode {mode!r}")
    cutoff = _typed(osec.get("cutoff", {}), dict, "operator.cutoff")
    cutoff_len, cutoff_tol = parse_cutoff(
        cutoff.get("len"), cutoff.get("tol"),
        "operator.cutoff.len", "operator.cutoff.tol")
    if not growth_condition_holds(p, group.genus, alpha_g):
        raise ValidationError(
            "operator.alpha_g", f"growth condition p^alpha_g > 2g fails: "
                                f"{p}^{alpha_g} <= {2 * group.genus}")

    rsec = _typed(raw.get("run", {}), dict, "run")
    run = RunSettings(
        level=parse_int(rsec.get("level", resolution), "run.level"),
        times=parse_times(rsec.get("times", [0.0, 0.5, 1.0]), "run.times"),
        paths=parse_int(rsec.get("paths", 1000), "run.paths", minimum=1),
        seed=parse_int(rsec.get("seed", 0), "run.seed", minimum=0),
        start_state=parse_int(rsec.get("start_state", 0), "run.start_state",
                              minimum=0),
        eta=parse_positive_rational(rsec.get("eta", "1"), "run.eta"),
    )
    check_level(run.level, resolution, "run.level")
    operator = OperatorConfig(group=group, profile=profile, alpha=alpha,
                              alpha_g=alpha_g, mode=mode, cutoff_len=cutoff_len,
                              cutoff_tol=cutoff_tol)
    return RunConfig(operator, datum, resolution, run, config_hash(raw))


def _parse_datum(obj) -> RationalFunctionDatum:
    _typed(obj, dict, "measure.datum")
    scale = parse_rational(obj.get("scale", "1"), "measure.datum.scale")
    factors = []
    for i, fac in enumerate(_typed(obj.get("factors", []), list,
                                   "measure.datum.factors")):
        fpath = f"measure.datum.factors[{i}]"
        _typed(fac, dict, fpath)
        mult = parse_int(fac.get("multiplicity", 1), f"{fpath}.multiplicity")
        if "root" in fac:
            factors.append((parse_rational(fac["root"], f"{fpath}.root"), mult))
        elif "coeffs" in fac:
            coeffs = [parse_rational(c, f"{fpath}.coeffs")
                      for c in _typed(fac["coeffs"], list, f"{fpath}.coeffs")]
            if len(coeffs) > 2:
                raise ValidationError(
                    fpath, "irreducible factor of degree >= 2: the zero set "
                           "must consist of rational points")
            if len(coeffs) != 2 or coeffs[1] == 0:
                raise ValidationError(fpath, "degree-1 factor needs two coefficients")
            factors.append((-coeffs[0] / coeffs[1], mult))
        else:
            raise ValidationError(fpath, "factor needs a root or coeffs")
    try:
        return RationalFunctionDatum(scale, tuple(factors))
    except ValueError as exc:
        raise ValidationError("measure.datum", str(exc)) from exc


def _datum_profile(datum: RationalFunctionDatum, group: SchottkyGroup,
                   resolution: int) -> MeasureProfile:
    """The datum's profile on F, which must tile F at this resolution."""
    domain = group.fundamental_domain()
    try:
        profile = build_profile(datum, domain, resolution)
    except ResolutionTooCoarse as exc:
        raise ValidationError("measure.resolution", str(exc)) from exc
    except RootInsideDisc as exc:  # a pole, or a root of multiplicity 0, in F
        i = next(i for i, (root, mult) in enumerate(datum.factors)
                 if mult <= 0 and domain.contains_point(root))
        raise ValidationError(f"measure.datum.factors[{i}]", str(exc)) from exc
    fault = profile.tiling_fault(domain)
    if fault:
        finer = next((f"group.holes[{i}]" for i, h in enumerate(group.holes)
                      if h.radius_exp < -resolution), "group.outer")
        raise ValidationError("measure.resolution",
                              f"level-{resolution} discs do not tile F, as "
                              f"{finer} is finer: {fault}")
    return profile


def _resolved_disc(obj, path: str, resolution: int) -> Disc:
    """A profile disc no finer than the resolution, so that each state,
    at a level no coarser, lies in one piece or core or misses it."""
    disc = _parse_disc(obj, path)
    if disc.radius_exp < -resolution:
        raise ValidationError(path, f"radius_exp {disc.radius_exp} is finer than the "
                                    f"measure resolution {resolution}")
    return disc


def _parse_profile(obj, p: int, resolution: int) -> MeasureProfile:
    _typed(obj, dict, "measure.profile")
    pieces = []
    for i, piece in enumerate(_typed(obj.get("pieces", []), list,
                                     "measure.profile.pieces")):
        ppath = f"measure.profile.pieces[{i}]"
        disc = _resolved_disc(piece, ppath, resolution)
        dens = parse_rational(piece.get("density"), f"{ppath}.density")
        if dens <= 0:
            raise ValidationError(f"{ppath}.density", "density must be positive")
        pieces.append((disc, dens))
    cores = tuple(_resolved_disc(c, f"measure.profile.zero_cores[{i}]", resolution)
                  for i, c in enumerate(_typed(obj.get("zero_cores", []), list,
                                               "measure.profile.zero_cores")))
    pieces.sort(key=lambda it: (it[0].center, it[0].radius_exp))
    return MeasureProfile(tuple(pieces), cores, p)


def profile_dict(profile: MeasureProfile) -> dict:
    return {
        "pieces": [dict(_disc_dict(d), density=format_rational(c))
                   for d, c in profile.pieces],
        "zero_cores": [_disc_dict(d) for d in profile.zero_cores],
    }


def _cutoff_dict(cutoff_len: int | None, cutoff_tol: Fraction | None) -> dict:
    """Both fields when both are set; the default tolerance when neither is."""
    out = {} if cutoff_len is None else {"len": cutoff_len}
    if cutoff_tol is not None or cutoff_len is None:
        out["tol"] = format_rational(cutoff_tol or Fraction(1, 10 ** 12))
    return out


def emit_config(cfg: RunConfig) -> dict:
    """Canonical dict form; parses back to an equal structure."""
    op = cfg.operator
    out = {
        "field": {"p": op.p},
        "group": {
            "generators": [[[str(m.a), str(m.b)], [str(m.c), str(m.d)]]
                           for m in op.group.generators],
            "outer": _disc_dict(op.group.outer),
            "holes": [_disc_dict(h) for h in op.group.holes],
        },
        "measure": {"resolution": cfg.resolution},
        "operator": {
            "alpha": format_rational(op.alpha),
            "alpha_g": format_rational(op.alpha_g),
            "mode": op.mode,
            "cutoff": _cutoff_dict(op.cutoff_len, op.cutoff_tol),
        },
        "run": {
            "level": cfg.run.level,
            "times": list(cfg.run.times),
            "paths": cfg.run.paths,
            "seed": cfg.run.seed,
            "start_state": cfg.run.start_state,
            "eta": format_rational(cfg.run.eta),
        },
    }
    if cfg.datum is not None:
        out["measure"]["datum"] = {
            "scale": format_rational(cfg.datum.scale),
            "factors": [{"root": format_rational(r), "multiplicity": n}
                        for r, n in cfg.datum.factors],
        }
    else:
        out["measure"]["profile"] = profile_dict(op.profile)
    return out


def bundled_fixture(name: str) -> Path:
    """Path of a packaged example config (tate-p3, genus2-p3)."""
    ref = resources.files("mumford_heat") / "fixtures" / f"{name}.json"
    with resources.as_file(ref) as concrete:
        return Path(concrete)
