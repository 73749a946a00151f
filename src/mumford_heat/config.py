"""Run configuration: JSON parsing, validation, canonical serialisation.

Exact rationals travel as strings ("num/den", decimals, or scientific
notation) so no float contamination enters the exact layers.  Validation
collects structured errors with section/field paths; the growth condition
and the rational-zero assumption on the measure datum are checked at load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .measure import (MeasureProfile, RationalFunctionDatum, build_profile)
from .operator import OperatorConfig, growth_condition_holds
from .padic import Disc
from .schottky import (DomainInvalid, DomainReport, MoebiusMap, SchottkyGroup,
                       verify_fundamental_domain)


class ParseError(ValueError):
    """The file is not syntactically a config."""


class ValidationError(ValueError):
    """The config is syntactically fine but violates an invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def parse_rational(value, path: str = "") -> Fraction:
    try:
        if isinstance(value, bool):
            raise TypeError("booleans are not numbers")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(path, f"not an exact rational: {value!r}") from exc
    raise ValidationError(path, f"expected an exact rational string, got {value!r} "
                                "(floats are rejected to keep the arithmetic exact)")


def parse_int(value, path: str, minimum: int | None = None) -> int:
    """An integer field; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be at least {minimum}, got {value}")
    return value


def parse_cutoff(cutoff_len, cutoff_tol, len_path: str, tol_path: str
                 ) -> tuple[int | None, Fraction | None]:
    """The truncation length (an integer >= 1) and tolerance (a rational > 0);
    either may be None."""
    if cutoff_len is not None:
        cutoff_len = parse_int(cutoff_len, len_path, minimum=1)
    if cutoff_tol is not None:
        cutoff_tol = parse_rational(cutoff_tol, tol_path)
        if cutoff_tol <= 0:
            raise ValidationError(tol_path, "the tolerance must be positive")
    return cutoff_len, cutoff_tol


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def check_level(level: int, resolution: int, path: str) -> None:
    """A state-space level must not be coarser than the measure resolution."""
    if level < resolution:
        raise ValidationError(path, f"level {level} is coarser than the measure "
                                    f"resolution {resolution}")


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


@dataclass(frozen=True)
class RunSettings:
    level: int
    times: tuple[float, ...]
    paths: int
    seed: int
    start_state: int
    eta: Fraction


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus its canonical hash.

    ``domain_report`` is the depth-4 domain verification that parsing ran;
    parsing raises unless it passed.
    """

    group: SchottkyGroup
    domain_report: DomainReport
    datum: RationalFunctionDatum | None
    profile: MeasureProfile
    resolution: int
    alpha: Fraction
    alpha_g: Fraction
    mode: str
    cutoff_len: int | None
    cutoff_tol: Fraction | None
    run: RunSettings
    config_hash: str
    raw: dict

    def operator_config(self, mode: str | None = None,
                        cutoff_len: int | None = None,
                        cutoff_tol: Fraction | None = None) -> OperatorConfig:
        return OperatorConfig(
            group=self.group,
            profile=self.profile,
            alpha=self.alpha,
            alpha_g=self.alpha_g,
            mode=mode or self.mode,
            cutoff_len=cutoff_len if cutoff_len is not None else self.cutoff_len,
            cutoff_tol=cutoff_tol if cutoff_tol is not None else self.cutoff_tol,
        )


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_config(path) -> RunConfig:
    """Load and validate a config file; every violation names its field."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such config file: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ParseError("config root must be an object")
    field = raw.get("field", {})
    p = field.get("p")
    if not isinstance(p, int) or p < 2:
        raise ValidationError("field.p", f"prime expected, got {p!r}")
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            raise ValidationError("field.p", f"{p} is not prime")

    gsec = raw.get("group", {})
    gens = []
    for i, mat in enumerate(gsec.get("generators", [])):
        gpath = f"group.generators[{i}]"
        try:
            (a, b), (c, d) = mat
            gens.append(MoebiusMap(int(str(a)), int(str(b)), int(str(c)), int(str(d))))
        except (TypeError, ValueError) as exc:
            raise ValidationError(gpath, f"bad matrix: {exc}") from exc
    outer = _parse_disc(gsec.get("outer"), "group.outer")
    holes = tuple(_parse_disc(h, f"group.holes[{i}]")
                  for i, h in enumerate(gsec.get("holes", [])))
    try:
        group = SchottkyGroup(p=p, generators=tuple(gens), holes=holes, outer=outer)
        domain_report = verify_fundamental_domain(group, depth=4)
    except DomainInvalid as exc:
        raise ValidationError("group", str(exc)) from exc

    msec = raw.get("measure", {})
    resolution = parse_int(msec.get("resolution", 2), "measure.resolution")
    datum = None
    if "datum" in msec:
        datum = _parse_datum(msec["datum"])
        profile = build_profile(datum, group.fundamental_domain(), resolution)
    elif "profile" in msec:
        profile = _parse_profile(msec["profile"], p)
    else:
        raise ValidationError("measure", "needs either a datum or a profile")

    osec = raw.get("operator", {})
    alpha = parse_rational(osec.get("alpha", "1"), "operator.alpha")
    alpha_g = parse_rational(osec.get("alpha_g", "1"), "operator.alpha_g")
    for name, value in (("alpha", alpha), ("alpha_g", alpha_g)):
        if value <= 0:
            raise ValidationError(f"operator.{name}", f"must be positive, got {value}")
    mode = osec.get("mode", "ambient")
    if mode not in ("ambient", "transport"):
        raise ValidationError("operator.mode", f"unknown mode {mode!r}")
    cutoff = osec.get("cutoff", {})
    cutoff_len, cutoff_tol = parse_cutoff(
        cutoff.get("len"), cutoff.get("tol"),
        "operator.cutoff.len", "operator.cutoff.tol")
    if not growth_condition_holds(p, group.genus, alpha_g):
        raise ValidationError(
            "operator.alpha_g", f"growth condition p^alpha_g > 2g fails: "
                                f"{p}^{alpha_g} <= {2 * group.genus}")

    rsec = raw.get("run", {})
    run = RunSettings(
        level=parse_int(rsec.get("level", resolution), "run.level"),
        times=tuple(float(t) for t in rsec.get("times", (0.0, 0.5, 1.0))),
        paths=parse_int(rsec.get("paths", 1000), "run.paths", minimum=1),
        seed=parse_int(rsec.get("seed", 0), "run.seed", minimum=0),
        start_state=parse_int(rsec.get("start_state", 0), "run.start_state",
                              minimum=0),
        eta=parse_rational(rsec.get("eta", "1"), "run.eta"),
    )
    if any(t < 0 for t in run.times):
        raise ValidationError("run.times", "times must be nonnegative")
    check_level(run.level, resolution, "run.level")
    return RunConfig(group, domain_report, datum, profile, resolution, alpha,
                     alpha_g, mode, cutoff_len, cutoff_tol, run, config_hash(raw),
                     raw)


def _parse_datum(obj) -> RationalFunctionDatum:
    scale = parse_rational(obj.get("scale", "1"), "measure.datum.scale")
    factors = []
    for i, fac in enumerate(obj.get("factors", [])):
        fpath = f"measure.datum.factors[{i}]"
        mult = parse_int(fac.get("multiplicity", 1), f"{fpath}.multiplicity")
        if "root" in fac:
            factors.append((parse_rational(fac["root"], f"{fpath}.root"), mult))
        elif "coeffs" in fac:
            coeffs = [parse_rational(c, f"{fpath}.coeffs") for c in fac["coeffs"]]
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


def _parse_profile(obj, p: int) -> MeasureProfile:
    pieces = []
    for i, piece in enumerate(obj.get("pieces", [])):
        ppath = f"measure.profile.pieces[{i}]"
        disc = _parse_disc(piece, ppath)
        dens = parse_rational(piece.get("density"), f"{ppath}.density")
        if dens <= 0:
            raise ValidationError(f"{ppath}.density", "density must be positive")
        pieces.append((disc, dens))
    cores = tuple(_parse_disc(c, f"measure.profile.zero_cores[{i}]")
                  for i, c in enumerate(obj.get("zero_cores", [])))
    pieces.sort(key=lambda it: (it[0].center, it[0].radius_exp))
    return MeasureProfile(tuple(pieces), cores, p)


def profile_dict(profile: MeasureProfile) -> dict:
    return {
        "pieces": [dict(_disc_dict(d), density=format_rational(c))
                   for d, c in profile.pieces],
        "zero_cores": [_disc_dict(d) for d in profile.zero_cores],
    }


def emit_config(cfg: RunConfig) -> dict:
    """Canonical dict form; parses back to an equal structure."""
    out = {
        "field": {"p": cfg.group.p},
        "group": {
            "generators": [[[str(m.a), str(m.b)], [str(m.c), str(m.d)]]
                           for m in cfg.group.generators],
            "outer": _disc_dict(cfg.group.outer),
            "holes": [_disc_dict(h) for h in cfg.group.holes],
        },
        "measure": {"resolution": cfg.resolution},
        "operator": {
            "alpha": format_rational(cfg.alpha),
            "alpha_g": format_rational(cfg.alpha_g),
            "mode": cfg.mode,
            "cutoff": ({"len": cfg.cutoff_len} if cfg.cutoff_len is not None
                       else {"tol": format_rational(cfg.cutoff_tol
                                                    or Fraction(1, 10 ** 12))}),
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
        out["measure"]["profile"] = profile_dict(cfg.profile)
    return out


def bundled_fixture(name: str) -> Path:
    """Path of a packaged example config (tate-p3, genus2-p3)."""
    ref = resources.files("mumford_heat") / "fixtures" / f"{name}.json"
    with resources.as_file(ref) as concrete:
        return Path(concrete)


# ---------------------------------------------------------------------------
# Wavelet and level-function interchange (same schema family as profiles)
# ---------------------------------------------------------------------------

def wavelet_dict(w) -> dict:
    return {"support": _disc_dict(w.support), "j": w.j, "p": w.p}


def wavelet_from_dict(obj) -> "Wavelet":
    from .wavelets import Wavelet
    return Wavelet(_parse_disc(obj["support"], "wavelet.support"),
                   int(obj["j"]), int(obj["p"]))


def exact_complex_dict(value) -> dict:
    """Magnitude/phase form with every component an exact rational string."""
    return {
        "magnitude_coeff": format_rational(value.coeff),
        "magnitude_radicand": format_rational(value.radicand),
        "p_exp": format_rational(value.p_exp),
        "phase": format_rational(value.phase),
    }


def level_function_dict(u, exact_values: dict | None = None) -> dict:
    """Level function as JSON: decimal floats by default, magnitude/phase
    rational pairs (and their prime ``p``) for states in ``exact_values``."""
    rows = []
    out = {"level": u.level, "values": rows}
    for disc, val in u.values:
        row = _disc_dict(disc)
        if exact_values is not None and disc in exact_values:
            row["value"] = exact_complex_dict(exact_values[disc])
            out["p"] = exact_values[disc].p
        else:
            val = complex(val)
            row["value"] = {"re": val.real, "im": val.imag}
        rows.append(row)
    return out


def level_function_from_dict(obj) -> "LevelFunction":
    from .exactnum import ExactComplex
    from .wavelets import LevelFunction
    values = {}
    for row in obj["values"]:
        disc = _parse_disc(row, "level_function.values")
        val = row["value"]
        if "re" in val:
            values[disc] = complex(val["re"], val.get("im", 0.0))
        elif "p" not in obj:
            raise ValidationError("level_function.p", "needed by exact values")
        else:
            values[disc] = complex(ExactComplex(
                Fraction(val["magnitude_coeff"]),
                Fraction(val["magnitude_radicand"]),
                obj["p"],
                Fraction(val["phase"]),
                Fraction(val["p_exp"])))
    return LevelFunction.from_mapping(int(obj["level"]), values)
