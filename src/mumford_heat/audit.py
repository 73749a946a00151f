"""Independent exact verification of the transport identities behind the spectrum.

Every check recomputes both sides of a claimed identity exactly on
systematic and randomized instances.  Two of the identities (the Moebius
distance product and the escape-distance bound) hold unconditionally and
must pass; the others are contested by exact computation, and the audit
records counterexample instances with their exact values rather than
failing: which reading of the translated quantities makes them true is
reported through the transport/ambient comparison.

The two randomized checks run on integer valuations.  A random point is an
integer pair n/d, a Moebius image is the pair (a*n + b*d, c*n + d*d), and a
distance |x - y| = p^(-v) is compared through its exact valuation
v = v_p(xn*yd - yn*xd) - v_p(xd) - v_p(yd), which needs no pair reduced
(``padic.pair_difference_valuation``).
Rationals are formed only for the instances the report prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .measure import RationalFunctionDatum, invariance_audit
from .operator import (ChartNotSupported, OperatorConfig, lambda_exact, lambda_transform,
                       transformed_config, vladimirov_local_integral,
                       vladimirov_alpha_free_value)
from .padic import (Disc, PoleHit, abs_from_valuation, abs_p,
                    pair_difference_valuation)
from .schottky import (GroupWord, MoebiusMap, SchottkyGroup,
                       moebius_distance_valuations, region_image,
                       words_with_maps)
from .wavelets import admissible_supports, completeness_census


@dataclass(frozen=True)
class Instance:
    label: str
    lhs: str
    rhs: str
    equal: bool

    def to_dict(self) -> dict:
        return {"instance": self.label, "lhs": self.lhs, "rhs": self.rhs,
                "equal": self.equal}


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    n_instances: int
    n_failures: int
    instances: tuple[Instance, ...]
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "holds": self.holds,
            "instances_checked": self.n_instances,
            "failures": self.n_failures,
            "note": self.note,
            "examples": [i.to_dict() for i in self.instances],
        }


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks]}


def _random_rational(rng: random.Random, p: int) -> tuple[int, int]:
    """A random rational as an integer pair (numerator, positive denominator)."""
    num = rng.randint(-p ** 4, p ** 4)
    den = rng.randint(1, p ** 3)
    return num, den


def _random_point_in(disc: Disc, rng: random.Random, p: int) -> tuple[int, int]:
    """center + p^(-t) * (p-adic integer), |p^(-t)| = p^t = radius, as an
    integer pair."""
    den = rng.randint(1, 50)
    while den % p == 0:
        den = rng.randint(1, 50)
    num = rng.randint(-50 * den, 50 * den)  # num/den integral: den coprime to p
    cn, cd = disc.center.numerator, disc.center.denominator
    t = disc.radius_exp
    if t <= 0:
        return cn * den + cd * num * p ** -t, cd * den
    return cn * den * p ** t + cd * num, cd * den * p ** t


def check_distance_product_identity(group: SchottkyGroup, n: int,
                                    seed: int = 0) -> CheckResult:
    """|gx - gy| = |g'(x)|^(1/2) |g'(y)|^(1/2) |x - y| on random exact instances.

    This is an algebraic identity and must hold without exception.  Points
    and their images stay integer pairs, and both sides are compared as
    exact p-adic valuations (:func:`moebius_distance_valuations`); an
    instance is skipped when x = y, when either point is the pole, or when
    the images coincide.
    """
    rng = random.Random(seed)
    p = group.p
    mats = [m for w, m in words_with_maps(group, 3) if not w.is_identity()]
    if not mats:
        mats = [MoebiusMap.identity()]
    failures = 0
    shown = []
    for k in range(n):
        mat = rng.choice(mats)
        x, y = _random_rational(rng, p), _random_rational(rng, p)
        gx, gy = mat.apply_pair(*x), mat.apply_pair(*y)
        if (x[0] * y[1] == y[0] * x[1] or gx[1] == 0 or gy[1] == 0
                or gx[0] * gy[1] == gy[0] * gx[1]):
            continue
        lhs, rhs = moebius_distance_valuations(mat, x, y, gx, gy, p)
        ok = lhs == rhs
        failures += not ok
        if not ok or len(shown) < 3:
            shown.append(Instance(f"gamma={mat}, x={Fraction(*x)}, y={Fraction(*y)}",
                                  str(abs_from_valuation(lhs, p)),
                                  str(abs_from_valuation(rhs, p)), ok))
    return CheckResult("moebius_distance_product_identity", failures == 0, n,
                       failures, tuple(shown))


def check_escape_distance_bound(cfg: OperatorConfig, n: int,
                                seed: int = 1) -> CheckResult:
    """|beta x - gamma y| = |beta x - gamma c_B| >= radius(gamma B) for
    x in F off the support and y in it; unconditional, must pass.

    Both distances are exact valuations of integer pairs: the instance holds
    iff they are equal, finite, and -v >= the radius exponent of
    ``region_image(gamma, B)``.  That image and gamma(c_B) are computed once
    per (word, support), the host pieces once per support.
    """
    rng = random.Random(seed)
    group = cfg.group
    p = cfg.p
    outside = [piece for piece, _ in cfg.profile.pieces]
    supports = [(s, [d for d in outside if not d.contains(s, p)])
                for s in admissible_supports(cfg.profile, 3)]
    # x needs a point of F off the support: none if the support is all of F
    supports = [(s, host) for s, host in supports
                if host or all(s.radius_exp < d.radius_exp for d in outside)]
    if not supports:
        return CheckResult("escape_distance_bound", True, 0, 0, (),
                           note="no admissible support at levels <= 3 to draw y from")
    words = list(words_with_maps(group, 4))
    images: dict[tuple[GroupWord, Disc], tuple[Disc, tuple[int, int]]] = {}
    failures = 0
    shown = []
    for k in range(n):
        support, host = rng.choice(supports)
        beta_w, beta = rng.choice(words)
        gamma_w, gamma = rng.choice(words)
        y = _random_point_in(support, rng, p)
        if host:
            x = _random_point_in(rng.choice(host), rng, p)
        else:
            sibling = next(ch for ch in rng.choice(outside).children(p)
                           if not ch.contains(support, p)
                           and not support.contains(ch, p))
            x = _random_point_in(sibling, rng, p)
        key = (gamma_w, support)
        if key not in images:
            centre = gamma.apply_pair(support.center.numerator,
                                      support.center.denominator)
            images[key] = region_image(gamma, support, p), centre
        image, gamma_centre = images[key]
        bx, gy = beta.apply_pair(*x), gamma.apply_pair(*y)
        if 0 in (bx[1], gy[1], gamma_centre[1]):
            raise PoleHit(f"pole hit at beta={beta_w}, gamma={gamma_w}")
        lhs = pair_difference_valuation(bx, gy, p)
        ctr = pair_difference_valuation(bx, gamma_centre, p)
        ok = lhs == ctr and -lhs >= image.radius_exp
        failures += not ok
        if not ok or len(shown) < 3:
            shown.append(Instance(
                f"beta={beta_w}, gamma={gamma_w}, B={support}, "
                f"x={Fraction(*x)}, y={Fraction(*y)}",
                str(abs_from_valuation(lhs, p)),
                f"{abs_from_valuation(ctr, p)} (radius {image.radius(p)})", ok))
    return CheckResult("escape_distance_bound", failures == 0, n, failures,
                       tuple(shown))


def check_distance_word_shift(cfg: OperatorConfig, depth: int = 2) -> CheckResult:
    """dist(beta B, gamma B) vs dist(B, beta^-1 gamma B) over short words.

    Exact ambient computation refutes this on expanding directions; the
    counterexample instances carry the exact distances.  Each word's image
    of a support is computed once, and so is the image under each shifted
    word beta^-1 gamma.
    """
    group = cfg.group
    p = cfg.p
    supports = [piece for piece, _ in cfg.profile.pieces][:2]
    words = list(words_with_maps(group, depth))
    n = failures = 0
    shown: list[Instance] = []
    counterexamples: list[Instance] = []
    for support in supports:
        centres = [(w, region_image(m, support, p).center) for w, m in words]
        shift_centres: dict[GroupWord, Fraction] = {}
        for bw, left in centres:
            for gw, right in centres:
                shifted = bw.inverse().compose(gw)
                if shifted.is_identity() or bw.letters == gw.letters:
                    continue
                n += 1
                lhs = abs_p(left - right, p)
                if shifted not in shift_centres:
                    shift_centres[shifted] = region_image(
                        group.word_map(shifted), support, p).center
                rhs = abs_p(support.center - shift_centres[shifted], p)
                ok = lhs == rhs
                failures += not ok
                bucket = shown if ok else counterexamples
                if len(bucket) < 4:
                    bucket.append(Instance(
                        f"beta={bw}, gamma={gw}, B={support}",
                        str(lhs), str(rhs), ok))
    return CheckResult("disc_distance_word_shift", failures == 0, n, failures,
                       tuple(counterexamples + shown),
                       note="ambient distances; holds by definition in transport mode")


def check_density_transport(cfg: OperatorConfig,
                            datum: RationalFunctionDatum) -> CheckResult:
    """The three density-transport identities per (piece, generator):
    honest form invariance, constancy of the density under the group, and
    unimodularity of the derivative."""
    report = invariance_audit(cfg.profile, datum, cfg.group)
    rows = []
    failures = 0
    for r in report.rows:
        ok = r.density_transported and r.derivative_unimodular
        failures += not ok
        if len(rows) < 6:
            lhs, rhs, deriv = r.values
            rows.append(Instance(
                f"piece={r.piece}, generator={r.generator_index}",
                f"form: |f(gy)||g'(y)|={lhs} vs |f(y)|={rhs}",
                f"C_B transported: {r.density_transported}, |g'|={deriv}",
                ok))
    note = (f"form invariance holds: {report.form_invariance_holds}; "
            f"density constancy holds: {report.density_transport_holds}; "
            f"derivative unimodular: {report.derivative_unimodular_holds}")
    return CheckResult("density_transport", failures == 0,
                       len(report.rows), failures, tuple(rows), note)


def check_local_integral_alpha(cfg: OperatorConfig) -> CheckResult:
    """Local wavelet integral: stated alpha-free value vs the sphere
    decomposition, which carries the extra factor p^(-d*alpha)."""
    p = cfg.p
    supports = admissible_supports(cfg.profile, 3)
    scales = sorted({s.radius_exp for s in supports}, reverse=True)
    shown = []
    n = failures = 0
    for alpha in (Fraction(0), Fraction(1), Fraction(2)):
        for rexp in scales:
            support = next(s for s in supports if s.radius_exp == rexp)
            x = support.center
            oracle = vladimirov_local_integral(support, 1, alpha, x, p)
            stated = vladimirov_alpha_free_value(support, 1, x, p)
            ok = oracle == stated
            n += 1
            failures += not ok
            shown.append(Instance(
                f"alpha={alpha}, d={rexp}",
                repr(oracle), repr(stated), ok))
    return CheckResult(
        "local_integral_alpha_dependence", failures == 0, n, failures,
        tuple(shown),
        note="oracle and stated value agree exactly iff d = 0 or alpha = 0")


def check_completeness_gap(cfg: OperatorConfig, level: int) -> CheckResult:
    census = completeness_census(cfg.domain, cfg.profile, level)
    row = census.at_level(level)
    holds = row.gap == 0
    inst = Instance(f"level={level}",
                    f"dim={row.n_discs}",
                    f"constants+wavelets={1 + row.n_wavelets}",
                    holds)
    return CheckResult(
        "wavelet_completeness_gap", holds, 1, 0 if holds else 1, (inst,),
        note=f"gap={row.gap} = (maximal admissible discs) - 1 "
             f"= {len(census.maximal_admissible)} - 1")


def check_chart_shift(cfg: OperatorConfig, datum: RationalFunctionDatum,
                      chart_letter: int = 1) -> CheckResult:
    """Eigenvalue behaviour under F -> phi(F) for the chart generator.

    Transport mode keeps every class value exactly; ambient mode rescales
    the oracle by an exact rational factor, which is recorded together with
    the transformation-formula value.  A chart the exact toolkit cannot
    evaluate on (ChartNotSupported) ends the check with no instances and
    the reason in the note: it holds in transport mode, and is unsettled,
    so not held, in ambient mode.
    """
    p = cfg.p
    if abs(chart_letter) > cfg.group.genus:
        return CheckResult("chart_shift_invariance", True, 0, 0, (),
                           note=f"no generator {abs(chart_letter)} to shift the chart by")
    phi = cfg.group.letter_map(chart_letter)
    supports = admissible_supports(cfg.profile, 2)[:2]
    bases = [lambda_exact(cfg, support) for support in supports]
    images = [region_image(phi, support, p) for support in supports]
    try:
        work = transformed_config(cfg, datum, phi)
        charted = [(lambda_exact(work, image), lambda_transform(cfg, phi, support, datum))
                   for support, image in zip(supports, images)]
    except ChartNotSupported as exc:
        return CheckResult("chart_shift_invariance", cfg.mode == "transport", 0, 0, (),
                           note=f"phi(F) is out of the exact toolkit's reach: {exc}")
    instances = []
    failures = 0
    ambient_ok = True
    for support, image, base, (shifted, formula) in zip(supports, images, bases, charted):
        scale = Fraction(shifted.value) / Fraction(base.value) \
            if isinstance(shifted.value, Fraction) and isinstance(base.value, Fraction) \
            else None
        invariant = shifted.value == base.value
        failures += not invariant
        instances.append(Instance(
            f"B={support} -> {image}",
            f"oracle on F: {base.value}",
            f"oracle on phi(F): {shifted.value} (scale {scale}); "
            f"transformation formula: {formula.value}",
            invariant))
        if scale is None or scale != 1:
            ambient_ok = False
    note = ("transport mode: exactly invariant by construction; "
            "ambient mode: classes rescale by the exact factor shown")
    return CheckResult("chart_shift_invariance", cfg.mode == "transport" or ambient_ok,
                       len(instances), failures, tuple(instances), note)


def audit_lemmas(cfg: OperatorConfig, datum: RationalFunctionDatum,
                 n_random: int = 2000, level: int = 2,
                 seed: int = 0) -> AuditReport:
    """Run every identity check and collect the findings.

    The distance-product identity and the escape bound must pass; the rest
    are reported findings whose exact counterexamples document which
    convention each statement needs.  ``n_random`` (at least 1) is the
    number of random instances of each of the first two.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be at least 1, got {n_random}")
    checks = (
        check_distance_product_identity(cfg.group, n_random, seed),
        check_escape_distance_bound(cfg, n_random, seed + 1),
        check_distance_word_shift(cfg),
        check_density_transport(cfg, datum),
        check_local_integral_alpha(cfg),
        check_completeness_gap(cfg, level),
        check_chart_shift(cfg, datum),
    )
    return AuditReport(checks)
