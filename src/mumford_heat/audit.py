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
(``padic.pair_difference_valuation``); each integer's valuation is taken
once.  The instances are the draws of ``random.Random(seed)``, taken as its
``randint`` and ``choice`` take them (:func:`_randbelow`).  Rationals are
formed only for the instances the report prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable
from .measure import RationalFunctionDatum, RootInsideDisc, local_abs
from .operator import (ChartNotSupported, OperatorConfig, lambda_exact, lambda_transform,
                       transformed_config, vladimirov_local_integral,
                       vladimirov_alpha_free_value)
from .padic import (Disc, PoleHit, abs_from_valuation, difference_valuation,
                    valuation)
from .schottky import MoebiusMap, SchottkyGroup, region_image, words_with_maps
from .wavelets import admissible_supports, admissible_wavelets, state_discs


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


def _randbelow(bits: Callable[[int], int], n: int) -> int:
    """A uniform draw from range(n), n >= 1, taking from ``bits`` (an
    ``rng.getrandbits``) exactly the bits CPython's ``rng.randrange(n)``
    takes: ``lo + _randbelow(bits, hi - lo + 1)`` is ``rng.randint(lo, hi)``
    and ``seq[_randbelow(bits, len(seq))]`` is ``rng.choice(seq)``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_point_in(disc: Disc, bits: Callable[[int], int], p: int) -> tuple[int, int]:
    """center + p^(-t) * (p-adic integer), |p^(-t)| = p^t = radius, as an
    integer pair."""
    den = 1 + _randbelow(bits, 50)
    while den % p == 0:
        den = 1 + _randbelow(bits, 50)
    num = _randbelow(bits, 100 * den + 1) - 50 * den  # num/den integral: den coprime to p
    cn, cd = disc.center.numerator, disc.center.denominator
    t = disc.radius_exp
    if t <= 0:
        return cn * den + cd * num * p ** -t, cd * den
    return cn * den * p ** t + cd * num, cd * den * p ** t


def check_distance_product_identity(group: SchottkyGroup, n: int,
                                    seed: int = 0) -> CheckResult:
    """|gx - gy| = |g'(x)|^(1/2) |g'(y)|^(1/2) |x - y| on random exact instances.

    This is an algebraic identity and must hold without exception.  A point
    x = xn/xd and its image gx = (Ax, Bx) stay integer pairs, reduced or not,
    and both sides are compared as exact p-adic valuations:

        left:  v(gx - gy) = v(Ax*By - Ay*Bx) - v(Bx) - v(By)
        right: (v(g'(x)) + v(g'(y))) / 2 + v(x - y),

    with v(g'(x)) = v(det) - 2*(v(Bx) - v(xd)) because c*x + d = Bx/xd, so
    the derivative product has an even valuation and its square root is
    exact.  v(det) is taken once per matrix, every other valuation once per
    instance.  An instance is skipped when x = y, when either point is the
    pole, or when the images coincide.

    Ax*By - Ay*Bx = det * (xn*yd - yn*xd) as integers, so the two sides
    agree whenever ``valuation`` is additive: the instances test that
    additivity and nothing of the map or the points, as the note says.
    """
    bits = random.Random(seed).getrandbits
    p = group.p
    mats = [m for w, m in words_with_maps(group, 3) if not w.is_identity()]
    mats = [(m, valuation(m.det, p)) for m in mats or [MoebiusMap.identity()]]
    top, dens = p ** 4, p ** 3
    failures = 0
    shown = []
    for _ in range(n):
        mat, vdet = mats[_randbelow(bits, len(mats))]
        # numerators in [-p^4, p^4] over denominators in [1, p^3]
        xn, xd = _randbelow(bits, 2 * top + 1) - top, 1 + _randbelow(bits, dens)
        yn, yd = _randbelow(bits, 2 * top + 1) - top, 1 + _randbelow(bits, dens)
        (ax, bx), (ay, by) = mat.apply_pair(xn, xd), mat.apply_pair(yn, yd)
        dist, image_dist = xn * yd - yn * xd, ax * by - ay * bx
        if dist == 0 or bx == 0 or by == 0 or image_dist == 0:
            continue
        vxd, vyd, vbx, vby = (valuation(xd, p), valuation(yd, p),
                              valuation(bx, p), valuation(by, p))
        lhs = valuation(image_dist, p) - vbx - vby
        rhs = vdet - (vbx - vxd) - (vby - vyd) + valuation(dist, p) - vxd - vyd
        ok = lhs == rhs
        failures += not ok
        if not ok or len(shown) < 3:
            shown.append(Instance(f"gamma={mat}, x={Fraction(xn, xd)}, y={Fraction(yn, yd)}",
                                  str(abs_from_valuation(lhs, p)),
                                  str(abs_from_valuation(rhs, p)), ok))
    return CheckResult("moebius_distance_product_identity", failures == 0, n,
                       failures, tuple(shown),
                       note="Ax*By - Ay*Bx = det(gamma)*(xn*yd - yn*xd) as integers: "
                            "the instances test only the additivity of padic.valuation")


def check_escape_distance_bound(cfg: OperatorConfig, n: int,
                                seed: int = 1) -> CheckResult:
    """|beta x - gamma y| = |beta x - gamma c_B| >= radius(gamma B) for
    x in F off the support and y in it; unconditional, must pass.

    Both distances are exact valuations of integer pairs: the instance holds
    iff they are equal, finite, and -v >= the radius exponent of
    ``region_image(gamma, B)``.  That image, the pair gamma(c_B) and the
    valuation of its denominator are computed once per (word, support), the
    host pieces once per support.
    """
    bits = random.Random(seed).getrandbits
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
    # (gamma B, gamma(c_B) as a pair, v of its denominator), keyed by
    # word index * len(supports) + support index
    images: dict[int, tuple[Disc, int, int, int | float]] = {}
    failures = 0
    shown = []
    for _ in range(n):
        si = _randbelow(bits, len(supports))
        support, host = supports[si]
        beta_w, beta = words[_randbelow(bits, len(words))]
        gi = _randbelow(bits, len(words))
        gamma_w, gamma = words[gi]
        y = _random_point_in(support, bits, p)
        if host:
            x = _random_point_in(host[_randbelow(bits, len(host))], bits, p)
        else:
            piece = outside[_randbelow(bits, len(outside))]
            sibling = next(ch for ch in piece.children(p)
                           if not ch.contains(support, p)
                           and not support.contains(ch, p))
            x = _random_point_in(sibling, bits, p)
        key = gi * len(supports) + si
        cached = images.get(key)
        if cached is None:
            cn, cd = gamma.apply_pair(support.center.numerator,
                                      support.center.denominator)
            cached = images[key] = (region_image(gamma, support, p), cn, cd,
                                    valuation(cd, p))
        image, cn, cd, vcd = cached
        bn, bd = beta.apply_pair(*x)
        yn, yd = gamma.apply_pair(*y)
        if 0 in (bd, yd, cd):
            raise PoleHit(f"pole hit at beta={beta_w}, gamma={gamma_w}")
        vbd = valuation(bd, p)
        lhs = valuation(bn * yd - yn * bd, p) - vbd - valuation(yd, p)
        ctr = valuation(bn * cd - cn * bd, p) - vbd - vcd
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


def check_distance_word_shift(cfg: OperatorConfig) -> CheckResult:
    """dist(beta B, gamma B) vs dist(B, beta^-1 gamma B) over the words of
    length <= 2.

    Exact ambient computation refutes this on expanding directions; the
    counterexample instances carry the exact distances.  Each word is
    inverted once, each word's image of a support is computed once, and so
    is the right-hand side for each shifted word beta^-1 gamma; distances
    are compared as valuations.
    """
    group = cfg.group
    p = cfg.p
    supports = [piece for piece, _ in cfg.profile.pieces][:2]
    walk = list(words_with_maps(group, 2))
    inverses = [(w.inverse(), m.inverse()) for w, m in walk]
    n = failures = 0
    shown: list[Instance] = []
    counterexamples: list[Instance] = []
    for support in supports:
        centres = [region_image(m, support, p).center for _, m in walk]
        rhs_by_shift: dict[tuple[int, ...], int | float] = {}
        for bi, left in enumerate(centres):
            inverse_w, inverse_m = inverses[bi]
            for gi, right in enumerate(centres):
                # the words are distinct and reduced: beta^-1 gamma = 1 iff beta = gamma
                if bi == gi:
                    continue
                n += 1
                gamma_w, gamma = walk[gi]
                shifted = inverse_w.compose(gamma_w).letters
                lhs = difference_valuation(left, right, p)
                rhs = rhs_by_shift.get(shifted)
                if rhs is None:
                    image = region_image(inverse_m.compose(gamma), support, p)
                    rhs = rhs_by_shift[shifted] = difference_valuation(
                        support.center, image.center, p)
                ok = lhs == rhs
                failures += not ok
                bucket = shown if ok else counterexamples
                if len(bucket) < 4:
                    bucket.append(Instance(
                        f"beta={walk[bi][0]}, gamma={gamma_w}, B={support}",
                        str(abs_from_valuation(lhs, p)),
                        str(abs_from_valuation(rhs, p)), ok))
    return CheckResult("disc_distance_word_shift", failures == 0, n, failures,
                       tuple(counterexamples + shown),
                       note="ambient distances; holds by definition in transport mode")


def check_density_transport(cfg: OperatorConfig,
                            datum: RationalFunctionDatum) -> CheckResult:
    """Three density-transport identities per (piece, generator), exactly:
    (A) honest form invariance |f(gamma y)| |gamma'(y)| = |f(y)| at the
    piece's centre and its children's; (B) the piece's density equals |f| on
    the image disc gamma(piece); (C) |gamma'| = 1 at those samples.  An
    instance holds when (B) and (C) do.  A root of f at an image sample (the
    form side is None) or in the image disc is a finding, never an error."""
    p = cfg.p
    shown = []
    n = failures = 0
    form_holds = transport_holds = unimodular_holds = True
    for piece, dens in cfg.profile.pieces:
        samples = [piece.center] + [child.center for child in piece.children(p)]
        for gi, gen in enumerate(cfg.group.generators or (MoebiusMap.identity(),)):
            sides = []
            for y in samples:
                try:
                    lhs = datum.abs_at(gen.apply(y), p) * gen.derivative_abs(y, p)
                except ZeroDivisionError:  # gamma(y) is a root of f: |f| is 0 or infinite
                    lhs = None
                sides.append((lhs, datum.abs_at(y, p)))
            image = region_image(gen, piece, p)
            try:
                transported = not image.complement and local_abs(datum, image, p) == dens
            except RootInsideDisc:  # |f| is not constant on gamma(piece)
                transported = False
            unimodular = all(gen.derivative_abs(y, p) == 1 for y in samples)
            ok = transported and unimodular
            n += 1
            failures += not ok
            form_holds &= all(lhs == rhs for lhs, rhs in sides)
            transport_holds &= transported
            unimodular_holds &= unimodular
            if len(shown) < 6:
                lhs, rhs = sides[0]
                shown.append(Instance(
                    f"piece={piece}, generator={gi}",
                    f"form: |f(gy)||g'(y)|={lhs} vs |f(y)|={rhs}",
                    f"C_B transported: {transported}, "
                    f"|g'|={gen.derivative_abs(piece.center, p)}",
                    ok))
    note = (f"form invariance holds: {form_holds}; "
            f"density constancy holds: {transport_holds}; "
            f"derivative unimodular: {unimodular_holds}")
    return CheckResult("density_transport", failures == 0, n, failures,
                       tuple(shown), note)


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
    """States against constants plus wavelets at one level.  The gap
    (states - 1 - wavelets) is how far the wavelets are from spanning the
    level functions; on a holed domain it is the number of maximal admissible
    discs, the profile's pieces, minus one."""
    n_discs = len(state_discs(cfg.domain, cfg.profile, level))
    n_wavelets = len(admissible_wavelets(cfg.profile, level))
    gap = n_discs - 1 - n_wavelets if n_discs else 0
    holds = gap == 0
    inst = Instance(f"level={level}", f"dim={n_discs}",
                    f"constants+wavelets={1 + n_wavelets}", holds)
    return CheckResult(
        "wavelet_completeness_gap", holds, 1, 0 if holds else 1, (inst,),
        note=f"gap={gap} = (maximal admissible discs) - 1 "
             f"= {len(cfg.profile.pieces)} - 1")


def check_chart_shift(cfg: OperatorConfig, datum: RationalFunctionDatum) -> CheckResult:
    """Eigenvalue behaviour under F -> phi(F) for phi the first generator.

    Transport mode keeps every class value exactly; ambient mode rescales
    the oracle by an exact rational factor, which is recorded together with
    the transformation-formula value.  A chart the exact toolkit cannot
    evaluate on (ChartNotSupported) ends the check with no instances and
    the reason in the note: it holds in transport mode, and is unsettled,
    so not held, in ambient mode.  No admissible support: nothing to check.
    """
    p = cfg.p
    if not cfg.group.genus:
        return CheckResult("chart_shift_invariance", True, 0, 0, (),
                           note="no generator 1 to shift the chart by")
    supports = admissible_supports(cfg.profile, 2)[:2]
    if not supports:
        return CheckResult("chart_shift_invariance", True, 0, 0, (),
                           note="no admissible support at levels <= 2: nothing was checked")
    phi = cfg.group.letter_map(1)
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


def audit_lemmas(cfg: OperatorConfig, datum: RationalFunctionDatum, n_random: int = 2000,
                 level: int = 2, evaluate=lambda checks: [c() for c in checks]) -> AuditReport:
    """Run every identity check and collect the findings.

    The distance-product identity and the escape bound must pass; the rest
    are reported findings whose exact counterexamples document which
    convention each statement needs.  ``n_random`` (at least 1) is the
    number of random instances of each of the first two.  The checks are
    independent: ``evaluate`` takes them as argument-free calls and returns
    their results in order, by default calling them one after another.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be at least 1, got {n_random}")
    checks = [
        lambda: check_distance_product_identity(cfg.group, n_random, 0),
        lambda: check_escape_distance_bound(cfg, n_random, 1),
        lambda: check_distance_word_shift(cfg),
        lambda: check_density_transport(cfg, datum),
        lambda: check_local_integral_alpha(cfg),
        lambda: check_completeness_gap(cfg, level),
        lambda: check_chart_shift(cfg, datum),
    ]
    return AuditReport(tuple(evaluate(checks)))
