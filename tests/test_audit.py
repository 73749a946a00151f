import dataclasses
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumford_heat import audit
from mumford_heat.audit import (CheckResult, Instance, audit_lemmas,
                                check_chart_shift, check_density_transport,
                                check_distance_product_identity,
                                check_distance_word_shift,
                                check_escape_distance_bound)
from mumford_heat.measure import RationalFunctionDatum, build_profile, local_abs
from mumford_heat.operator import OperatorConfig
from mumford_heat.padic import Disc, abs_p
from mumford_heat.schottky import MoebiusMap, SchottkyGroup, region_image, words_with_maps
from mumford_heat.wavelets import admissible_supports
from test_groupsum import schottky_figures


# --- Fraction reference: the checks as they were before the integer-valuation
# rewrite.  Every distance is a rational evaluated with abs_p, every random
# point a reduced Fraction; the draws from random.Random are the same.

def ref_exact_sqrt(q):
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise ArithmeticError(f"{q} is not a rational square")
    return F(num, den)


def ref_distance_identity(gamma, x, y, p):
    x, y = F(x), F(y)
    lhs = abs_p(gamma.apply(x) - gamma.apply(y), p)
    root = ref_exact_sqrt(gamma.derivative_abs(x, p) * gamma.derivative_abs(y, p))
    return lhs, root * abs_p(x - y, p)


def ref_random_rational(rng, p):
    num = rng.randint(-p ** 4, p ** 4)
    den = rng.randint(1, p ** 3)
    return F(num, den)


def ref_random_point_in(disc, rng, p):
    den = rng.randint(1, 50)
    while den % p == 0:
        den = rng.randint(1, 50)
    num = rng.randint(-50 * den, 50 * den)
    return disc.center + F(p) ** (-disc.radius_exp) * F(num, den)


def ref_distance_product(group, n, seed):
    rng = random.Random(seed)
    mats = [m for w, m in words_with_maps(group, 3) if not w.is_identity()]
    mats = mats or [MoebiusMap.identity()]
    failures, shown = 0, []
    for _ in range(n):
        mat = rng.choice(mats)
        x, y = ref_random_rational(rng, group.p), ref_random_rational(rng, group.p)
        if x == y or mat.pole() in (x, y) or mat.apply(x) == mat.apply(y):
            continue
        lhs, rhs = ref_distance_identity(mat, x, y, group.p)
        ok = lhs == rhs
        failures += not ok
        if not ok or len(shown) < 3:
            shown.append(Instance(f"gamma={mat}, x={x}, y={y}", str(lhs), str(rhs), ok))
    return CheckResult("moebius_distance_product_identity", failures == 0, n,
                       failures, tuple(shown),
                       note="Ax*By - Ay*Bx = det(gamma)*(xn*yd - yn*xd) as integers: "
                            "the instances test only the additivity of padic.valuation")


def ref_escape_bound(cfg, n, seed, image_of=region_image):
    rng = random.Random(seed)
    p = cfg.p
    outside = [piece for piece, _ in cfg.profile.pieces]
    # y's support needs a point of F off it: in a piece not holding the
    # support, or, when every piece holds it, in a sibling of it
    supports = [s for s in admissible_supports(cfg.profile, 3)
                if not all(d.contains(s, p) for d in outside)
                or all(s.radius_exp < d.radius_exp for d in outside)]
    if not supports:
        return CheckResult("escape_distance_bound", True, 0, 0, (),
                           note="no admissible support at levels <= 3 to draw y from")
    words = list(words_with_maps(cfg.group, 4))
    failures, shown = 0, []
    for _ in range(n):
        support = rng.choice(supports)
        host = [d for d in outside if not d.contains(support, p)]
        beta_w, beta = rng.choice(words)
        gamma_w, gamma = rng.choice(words)
        y = ref_random_point_in(support, rng, p)
        if host:
            x = ref_random_point_in(rng.choice(host), rng, p)
        else:
            piece = rng.choice(outside)
            x = ref_random_point_in(next(
                ch for ch in piece.children(p)
                if not ch.contains(support, p) and not support.contains(ch, p)), rng, p)
        bximg = beta.apply(x)
        lhs = abs_p(bximg - gamma.apply(y), p)
        ctr = abs_p(bximg - gamma.apply(support.center), p)
        image = image_of(gamma, support, p)
        ok = lhs == ctr and lhs >= image.radius(p)
        failures += not ok
        if not ok or len(shown) < 3:
            shown.append(Instance(
                f"beta={beta_w}, gamma={gamma_w}, B={support}, x={x}, y={y}",
                str(lhs), f"{ctr} (radius {image.radius(p)})", ok))
    return CheckResult("escape_distance_bound", failures == 0, n, failures,
                       tuple(shown))


def ref_word_shift(cfg, depth=2):
    group, p = cfg.group, cfg.p
    words = list(words_with_maps(group, depth))
    n = failures = 0
    shown, counterexamples = [], []
    for support in [piece for piece, _ in cfg.profile.pieces][:2]:
        for bw, bm in words:
            for gw, gm in words:
                shifted = bw.inverse().compose(gw)
                if shifted.is_identity() or bw.letters == gw.letters:
                    continue
                n += 1
                lhs = abs_p(region_image(bm, support, p).center
                            - region_image(gm, support, p).center, p)
                shift_img = region_image(group.word_map(shifted), support, p)
                rhs = abs_p(support.center - shift_img.center, p)
                ok = lhs == rhs
                failures += not ok
                bucket = shown if ok else counterexamples
                if len(bucket) < 4:
                    bucket.append(Instance(f"beta={bw}, gamma={gw}, B={support}",
                                           str(lhs), str(rhs), ok))
    return CheckResult("disc_distance_word_shift", failures == 0, n, failures,
                       tuple(counterexamples + shown),
                       note="ambient distances; holds by definition in transport mode")


@pytest.fixture(scope="module")
def tate_report(tate_cfg, tate_datum):
    return audit_lemmas(tate_cfg, tate_datum, n_random=1500)


def test_unconditional_identities_pass(tate_report):
    assert tate_report["moebius_distance_product_identity"].holds
    assert tate_report["moebius_distance_product_identity"].n_failures == 0
    assert tate_report["escape_distance_bound"].holds
    assert tate_report["escape_distance_bound"].n_failures == 0


def test_word_shift_counterexample_recorded(tate_report):
    check = tate_report["disc_distance_word_shift"]
    assert not check.holds
    # the worked instance: shifting by one letter sends distance 1 to 1/9
    assert any(i.lhs == "1/9" and i.rhs == "1" and not i.equal
               for i in check.instances)


def test_density_transport_findings(tate_report):
    check = tate_report["density_transport"]
    assert not check.holds
    assert "form invariance holds: True" in check.note
    assert "density constancy holds: False" in check.note


def test_density_transport_tate(tate_cfg, tate_datum):
    # z -> 9z keeps the form |f(z)| |dz| = |dz/z| but not the density, as
    # |gamma'| = 1/9 on every piece
    check = check_density_transport(tate_cfg, tate_datum)
    assert not check.holds
    assert check.n_instances == check.n_failures == 4
    assert check.note == ("form invariance holds: True; density constancy holds: "
                          "False; derivative unimodular: False")
    first = check.instances[0]
    assert first.label == f"piece={Disc(F(1), -1)}, generator=0"
    assert first.lhs == "form: |f(gy)||g'(y)|=1 vs |f(y)|=1"
    assert first.rhs == "C_B transported: False, |g'|=1/9"
    # the image of D(1, 1/3) is D(9, 1/27), where |1/z| = 9, not 1
    assert local_abs(tate_datum, region_image(tate_cfg.group.generators[0],
                                              Disc(F(1), -1), 3), 3) == 9


def test_density_transport_identity_group(ball_domain):
    # genus 0: the identity stands in for the generators and moves nothing
    trivial = SchottkyGroup(p=3, generators=(), holes=(), outer=Disc(F(0), 0))
    constant = RationalFunctionDatum.constant()
    cfg = OperatorConfig(group=trivial, cutoff_len=3,
                         profile=build_profile(constant, ball_domain, 1))
    check = check_density_transport(cfg, constant)
    assert check.holds
    assert check.n_instances == 1 and check.n_failures == 0
    assert check.note == ("form invariance holds: True; density constancy holds: "
                          "True; derivative unimodular: True")


def test_local_integral_findings(tate_report):
    check = tate_report["local_integral_alpha_dependence"]
    assert not check.holds
    zero_alpha = [i for i in check.instances if i.label.startswith("alpha=0")]
    assert zero_alpha and all(i.equal for i in zero_alpha)
    one_alpha = [i for i in check.instances
                 if i.label.startswith("alpha=1") and "d=-1" in i.label]
    assert one_alpha and not any(i.equal for i in one_alpha)


def test_completeness_gap_reported(tate_report):
    check = tate_report["wavelet_completeness_gap"]
    assert not check.holds and "gap=3" in check.note


def test_chart_shift_findings(tate_report):
    check = tate_report["chart_shift_invariance"]
    assert not check.holds  # ambient mode rescales
    assert any("scale 81" in i.rhs for i in check.instances)
    assert any("57/26" in i.rhs for i in check.instances)


def test_transport_mode_chart_shift(tate_group, tate_profile, tate_datum):
    cfg = OperatorConfig(group=tate_group, profile=tate_profile,
                         mode="transport", cutoff_len=40)
    # the check recomputes ambient values; transport holds by construction
    check = check_chart_shift(cfg, tate_datum)
    assert check.name == "chart_shift_invariance"


def test_report_is_json_serializable(tate_report):
    payload = json.dumps(tate_report.to_dict())
    assert "escape_distance_bound" in payload


def test_genus2_unconditional_checks(genus2_cfg):
    assert check_distance_product_identity(genus2_cfg.group, 800).holds
    assert check_escape_distance_bound(genus2_cfg, 400).holds
    shift = check_distance_word_shift(genus2_cfg)
    assert shift.n_failures > 0  # ambient refutation is generic


FIXTURES = ("tate_cfg", "genus2_cfg")


@pytest.mark.parametrize("n", [1, 50, 2000])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_random_checks_match_fraction_reference(request, fixture, seed, n):
    cfg = request.getfixturevalue(fixture)
    assert (check_distance_product_identity(cfg.group, n, seed)
            == ref_distance_product(cfg.group, n, seed))
    assert check_escape_distance_bound(cfg, n, seed) == ref_escape_bound(cfg, n, seed)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_word_shift_matches_fraction_reference(request, fixture):
    cfg = request.getfixturevalue(fixture)
    assert check_distance_word_shift(cfg) == ref_word_shift(cfg)


def test_escape_bound_catches_a_broken_radius(tate_cfg, monkeypatch):
    def too_large(gamma, region, p):
        image = region_image(gamma, region, p)
        return dataclasses.replace(image, radius_exp=image.radius_exp + 50)

    monkeypatch.setattr(audit, "region_image", too_large)
    check = check_escape_distance_bound(tate_cfg, 200)
    assert not check.holds
    assert check.n_failures == 200
    assert not any(i.equal for i in check.instances)


@pytest.mark.parametrize("shift", [1, 2])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_escape_bound_at_the_radius(request, monkeypatch, fixture, shift):
    """Radii raised until some distances equal them (shift 1 on both
    fixtures) or fall below them (shift 2): the bound is >=, not >."""
    cfg = request.getfixturevalue(fixture)

    def raised(gamma, region, p):
        image = region_image(gamma, region, p)
        return dataclasses.replace(image, radius_exp=image.radius_exp + shift)

    monkeypatch.setattr(audit, "region_image", raised)
    assert (check_escape_distance_bound(cfg, 300)
            == ref_escape_bound(cfg, 300, 1, image_of=raised))


@pytest.mark.parametrize("n_random", [0, -5])
def test_audit_rejects_too_few_samples(tate_cfg, tate_datum, n_random):
    with pytest.raises(ValueError, match="n_random"):
        audit_lemmas(tate_cfg, tate_datum, n_random=n_random)


def test_escape_bound_without_a_support_is_vacuous():
    # genus 3 over p = 2: the co-hole and five holes of radius 2^-3 at 0, 6,
    # 7, 1 and 2 leave F the three discs D(c, 2^-3), c = 3, 4, 5, so no
    # admissible support at levels <= 3 holds a point y
    group = SchottkyGroup(
        p=2, generators=(MoebiusMap(8, 7, 0, 1), MoebiusMap(1, 96, 1, 0),
                         MoebiusMap(2, -108, 1, -6)),
        holes=(Disc(F(0), 0, complement=True),
               *(Disc(F(c), -3) for c in (0, 6, 7, 1, 2))),
        outer=Disc(F(0), 0))
    datum = RationalFunctionDatum.constant()
    cfg = OperatorConfig(group=group, cutoff_len=3, alpha_g=F(3),
                         profile=build_profile(datum, group.fundamental_domain(), 3))
    assert admissible_supports(cfg.profile, 3) == []
    check = check_escape_distance_bound(cfg, 20)
    assert check.holds and check.n_instances == 0 and "no admissible support" in check.note
    report = audit_lemmas(cfg, datum, n_random=20, level=3)
    assert report["escape_distance_bound"] == check
    # nor is there a support for the chart shift, and its note says so
    chart = report["chart_shift_invariance"]
    assert chart.holds and chart.n_instances == 0 and chart.instances == ()
    assert chart.note == "no admissible support at levels <= 2: nothing was checked"


def test_escape_bound_draws_x_from_a_sibling_when_every_piece_holds_the_support():
    # genus 0: F is the single piece D(0, 1), which holds every support
    group = SchottkyGroup(p=2, generators=(), holes=(), outer=Disc(F(0), 0))
    cfg = OperatorConfig(group=group, cutoff_len=3, profile=build_profile(
        RationalFunctionDatum.constant(), group.fundamental_domain(), 3))
    check = check_escape_distance_bound(cfg, 300)
    assert check.holds and check.n_instances == 300
    assert check == ref_escape_bound(cfg, 300, 1)


# one- and few-way choices, powers of p, the denominators 1..50 of a point,
# and the numerator ranges 2p^4 + 1 of a rational for p = 3 and 7
DRAW_WIDTHS = (1, 2, 3, 4, 8, 27, 49, 50, 2 * 3 ** 4 + 1, 2 * 7 ** 4 + 1)


def test_draws_are_the_randint_and_choice_stream():
    """The audit's draw helper takes the bits random.Random's randint and
    choice take, draw by draw, interleaved as the checks interleave them."""
    for seed in range(50):
        stream, fast = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for width in DRAW_WIDTHS:
                lo = -(width // 2)
                seq = range(lo, lo + width)
                assert seq[audit._randbelow(fast.getrandbits, width)] == stream.choice(seq)
                assert (lo + audit._randbelow(fast.getrandbits, width)
                        == stream.randint(lo, lo + width - 1))
        assert fast.getstate() == stream.getstate()


@settings(max_examples=30, deadline=None)
@given(figure=schottky_figures(), seed=st.integers(0, 4))
def test_the_checks_match_the_fraction_references_on_random_figures(figure, seed):
    """The integer loops against the Fraction references off the two p = 3
    fixtures: p in {2, 3, 5, 7}, genus <= 3."""
    cfg, _ = figure
    assert (check_distance_product_identity(cfg.group, 60, seed)
            == ref_distance_product(cfg.group, 60, seed))
    assert check_escape_distance_bound(cfg, 60, seed) == ref_escape_bound(cfg, 60, seed)
    assert check_distance_word_shift(cfg) == ref_word_shift(cfg)
