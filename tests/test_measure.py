from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumford_heat.padic import Disc, discs_disjoint, haar_measure
from mumford_heat.measure import (MeasureProfile, RationalFunctionDatum,
                                  ResolutionTooCoarse, RootInsideDisc,
                                  build_profile, local_abs)
from mumford_heat.schottky import FundamentalDomain
from conftest import TATE_DATUM, ref_level_discs
from test_groupsum import schottky_figures


def test_local_abs_examples(tate_datum):
    assert local_abs(tate_datum, Disc(F(1), -1), 3) == 1
    assert local_abs(tate_datum, Disc(F(3), -2), 3) == 3
    two_roots = RationalFunctionDatum(F(1), ((F(0), 1), (F(9), 1)))
    assert local_abs(two_roots, Disc(F(1), -1), 3) == 1


def test_local_abs_rejects_root_in_disc(tate_datum):
    with pytest.raises(RootInsideDisc):
        local_abs(tate_datum, Disc(F(0), -1), 3)


def test_local_abs_constant_under_refinement(tate_datum):
    disc = Disc(F(1), -1)
    value = local_abs(tate_datum, disc, 3)
    for child in disc.children(3):
        assert local_abs(tate_datum, child, 3) == value
        for grand in child.children(3):
            assert local_abs(tate_datum, grand, 3) == value


def test_tate_profile_structure(tate_profile):
    assert tate_profile.total_mass == F(4, 3)
    layout = sorted(((d.center, d.radius_exp), c) for d, c in tate_profile.pieces)
    assert layout == [((F(1), -1), F(1)), ((F(2), -1), F(1)),
                      ((F(3), -2), F(3)), ((F(6), -2), F(3))]
    assert tate_profile.zero_cores == ()


def test_constant_profile_mass_is_domain_measure(tate_group):
    profile = build_profile(RationalFunctionDatum.constant(),
                            tate_group.fundamental_domain(), 2)
    assert profile.total_mass == tate_group.fundamental_domain().measure()


def test_zero_core_mass_shrinks_geometrically(ball_domain):
    fz = RationalFunctionDatum(F(1), ((F(0), 1),))
    previous = None
    for m in (1, 2, 3, 4):
        profile = build_profile(fz, ball_domain, m)
        core = sum(haar_measure(d, 3) for d in profile.zero_cores)
        assert core == F(1, 3 ** m)
        if previous is not None:
            assert core <= previous / 3
        previous = core
        spheres = sum(F(1, 3 ** k) * (F(1, 3 ** k) - F(1, 3 ** (k + 1)))
                      for k in range(m))
        assert profile.total_mass == spheres


def test_partition_exactness(tate_profile, tate_group):
    pieces = sum((c * haar_measure(d, 3) for d, c in tate_profile.pieces), F(0))
    assert pieces == tate_profile.total_mass
    refined = F(0)
    for d, c in tate_profile.pieces:
        refined += sum(c * haar_measure(ch, 3) for ch in d.children(3))
    assert refined == tate_profile.total_mass


def test_close_zeros_need_resolution(ball_domain):
    datum = RationalFunctionDatum(F(1), ((F(0), 1), (F(9), 1)))
    with pytest.raises(ResolutionTooCoarse):
        build_profile(datum, ball_domain, 1)
    profile = build_profile(datum, ball_domain, 3)
    assert len(profile.zero_cores) == 2


def test_pole_inside_domain_rejected(ball_domain, tate_datum):
    with pytest.raises(RootInsideDisc):
        build_profile(tate_datum, ball_domain, 2)


# ---------------------------------------------------------------------------
# The walk to F's maximal discs against the former coalescing builder
# ---------------------------------------------------------------------------

def ball_key(center, exp, p):
    """The disc of radius p^exp around ``center`` as a canonical value: the
    representative of center mod p^-exp in [0, p^-exp), with the
    denominator's power of p (the valuation, if negative) kept."""
    num, den, shift = center.numerator, center.denominator, 0
    while den % p == 0:
        den, shift = den // p, shift + 1
    modulus = p ** (shift - exp)
    if shift - exp <= 0 or num % modulus == 0:
        return F(0)
    return F(num * pow(den, -1, modulus) % modulus, p ** shift)


def ref_coalesce(pieces, domain, cores, p):
    """Merge complete sibling families of equal density, finest level first:
    a level's discs grouped by the disc one level up (``ball_key``), each
    merged family's parent, centred on its least centre, joining the next
    level."""
    current = dict(pieces)
    levels = {}
    for d in current:
        levels.setdefault(d.radius_exp, []).append(d)
    while levels:
        t = min(levels)
        families = {}
        for d in sorted(levels.pop(t), key=lambda d: d.center):
            families.setdefault(ball_key(d.center, t + 1, p), []).append(d)
        for sibs in families.values():
            parent = Disc(sibs[0].center, t + 1)
            dens = current[sibs[0]]
            if (len(sibs) == p and all(current[e] == dens for e in sibs)
                    and domain.contains_disc(parent)
                    and all(discs_disjoint(parent, core, p) for core in cores)):
                for e in sibs:
                    del current[e]
                current[parent] = dens
                levels.setdefault(t + 1, []).append(parent)
    return current


def ref_build_profile(datum, domain, resolution):
    """The former builder: the density of every level-``resolution`` disc of
    F clear of the zero cores, merged back up by ``ref_coalesce``."""
    p = domain.p
    zeros = [z for z in datum.zeros() if domain.contains_point(z)]
    if any(domain.contains_point(pole) for pole in datum.poles()):
        raise RootInsideDisc("a pole lies inside the domain")
    cores = [Disc(z, -resolution) for z in zeros]
    if any(not discs_disjoint(c, d, p) for i, c in enumerate(cores) for d in cores[i + 1:]):
        raise ResolutionTooCoarse("two zeros share a core")
    pieces = {d: local_abs(datum, d, p) for d in ref_level_discs(domain, resolution)
              if all(discs_disjoint(d, core, p) for core in cores)}
    merged = ref_coalesce(pieces, domain, cores, p)
    return MeasureProfile(tuple(sorted(merged.items(),
                                       key=lambda it: (it[0].center, it[0].radius_exp))),
                          tuple(cores), p)


def outcome(build, datum, domain, resolution):
    """The profile, or the type of the exception the build raised."""
    try:
        return build(datum, domain, resolution)
    except (RootInsideDisc, ResolutionTooCoarse) as exc:
        return type(exc)


# zeros at 3 and 4 lie in F for both fixtures; the pole 0 lies in a hole,
# and so does the root 0 of multiplicity 0, while 4 lies in F
COALESCE_DATA = [TATE_DATUM, RationalFunctionDatum.constant(),
                 RationalFunctionDatum(F(2), ((F(3), 1), (F(4), 2), (F(0), -1))),
                 RationalFunctionDatum(F(1), ((F(0), 0), (F(3), 1))),
                 RationalFunctionDatum(F(1), ((F(4), 0),))]


@pytest.mark.parametrize("name", ["tate_group", "genus2_group"])
@pytest.mark.parametrize("datum", COALESCE_DATA,
                         ids=["tate", "constant", "zeros", "hole-root", "f-root"])
def test_coalesce_matches_rescanning_merge(name, datum, request):
    domain = request.getfixturevalue(name).fundamental_domain()
    for resolution in range(1, 8):
        profile = outcome(build_profile, datum, domain, resolution)
        assert profile == outcome(ref_build_profile, datum, domain, resolution)
        if datum.factors == ((F(4), 0),):
            # |f| is not constant around 4, unless no disc of F is that coarse
            assert profile is RootInsideDisc or profile.pieces == ()
        elif datum.zeros():
            assert len(profile.zero_cores) == len(datum.zeros())
        if resolution > 2 and isinstance(profile, MeasureProfile):  # some family merged
            assert len(profile.pieces) < len(ref_level_discs(domain, resolution))


def test_an_outer_disc_finer_than_the_resolution_holds_no_piece():
    domain = FundamentalDomain(Disc(F(0), -2), (), 3)
    for resolution in range(1, 5):
        for datum in COALESCE_DATA[:2]:
            profile = outcome(build_profile, datum, domain, resolution)
            assert profile == outcome(ref_build_profile, datum, domain, resolution)
    assert build_profile(COALESCE_DATA[1], domain, 1).pieces == ()
    assert build_profile(COALESCE_DATA[1], domain, 2).pieces == ((Disc(F(0), -2), 1),)


@settings(max_examples=60, deadline=None)
@given(figure=schottky_figures(),
       factors=st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 4),
                                  st.sampled_from([-1, 0, 1, 2])), max_size=3))
def test_walk_matches_the_coalescing_builder_on_random_figures(figure, factors):
    # roots n/d with a multiplicity: poles, roots of multiplicity 0, simple
    # and double roots, in F, in a hole or outside the outer disc
    cfg, level = figure
    datum = RationalFunctionDatum(F(1), tuple((F(n, d), k) for n, d, k in factors))
    domain = cfg.domain
    for resolution in (max(1, level - 1), level, level + 1):
        assert outcome(build_profile, datum, domain, resolution) \
            == outcome(ref_build_profile, datum, domain, resolution)


def test_fine_resolution_parses_quickly():
    import json
    import time

    from mumford_heat.config import bundled_fixture, config_from_dict
    raw = json.loads(bundled_fixture("tate-p3").read_text())
    raw["measure"]["resolution"] = raw["run"]["level"] = 10
    start = time.perf_counter()
    run = config_from_dict(raw)
    assert time.perf_counter() - start < 2
    assert len(run.operator.profile.pieces) == 4
