from fractions import Fraction as F

import pytest

from mumford_heat.padic import Disc, discs_disjoint, haar_measure
from mumford_heat.measure import (RationalFunctionDatum,
                                  ResolutionTooCoarse, RootInsideDisc,
                                  build_profile, invariance_audit, local_abs,
                                  region_image_density)
from mumford_heat.schottky import SchottkyGroup


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


def test_invariance_audit_tate(tate_profile, tate_datum, tate_group):
    report = invariance_audit(tate_profile, tate_datum, tate_group)
    assert report.form_invariance_holds
    assert not report.density_transport_holds
    assert not report.derivative_unimodular_holds
    row = next(r for r in report.rows if r.piece == Disc(F(1), -1))
    assert row.form_invariant
    assert not row.density_transported
    assert not row.derivative_unimodular
    assert row.values[2] == F(1, 9)  # |gamma'| on the piece
    assert region_image_density(tate_datum, tate_group.generators[0],
                                Disc(F(1), -1), 3) == 9


def test_invariance_audit_identity_group(ball_domain):
    trivial = SchottkyGroup(p=3, generators=(), holes=(), outer=Disc(F(0), 0))
    profile = build_profile(RationalFunctionDatum.constant(), ball_domain, 1)
    report = invariance_audit(profile, RationalFunctionDatum.constant(), trivial)
    assert report.form_invariance_holds
    assert report.density_transport_holds
    assert report.derivative_unimodular_holds


# ---------------------------------------------------------------------------
# Coalescing against the former rescanning merge
# ---------------------------------------------------------------------------

def ref_coalesce(pieces, domain, cores, p):
    """Merge complete sibling families of equal density, rescanning a level
    for each disc's siblings and restarting after every merging level."""
    current = dict(pieces)
    changed = True
    while changed:
        changed = False
        by_exp = {}
        for d in sorted(current, key=lambda d: (d.radius_exp, d.center)):
            by_exp.setdefault(d.radius_exp, []).append(d)
        for t in sorted(by_exp):
            used = set()
            for d in by_exp[t]:
                if d in used:
                    continue
                parent = Disc(d.center, t + 1)
                sibs = [e for e in by_exp[t]
                        if e not in used and parent.contains(e, p)]
                if len(sibs) != p:
                    continue
                dens = current[sibs[0]]
                if any(current[e] != dens for e in sibs):
                    continue
                if not domain.contains_disc(parent):
                    continue
                if any(not discs_disjoint(parent, core, p) for core in cores):
                    continue
                for e in sibs:
                    used.add(e)
                    del current[e]
                current[parent] = dens
                changed = True
            if changed:
                break
    return current


# zeros at 3 and 4 lie in F for both fixtures; the pole 0 lies in a hole
COALESCE_DATA = [RationalFunctionDatum.tate(), RationalFunctionDatum.constant(),
                 RationalFunctionDatum(F(2), ((F(3), 1), (F(4), 2), (F(0), -1)))]


@pytest.mark.parametrize("name", ["tate_group", "genus2_group"])
@pytest.mark.parametrize("datum", COALESCE_DATA, ids=["tate", "constant", "zeros"])
def test_coalesce_matches_rescanning_merge(name, datum, request, monkeypatch):
    import mumford_heat.measure as measure
    domain = request.getfixturevalue(name).fundamental_domain()
    for resolution in range(2, 7):
        profile = build_profile(datum, domain, resolution)
        with monkeypatch.context() as patch:
            patch.setattr(measure, "_coalesce", ref_coalesce)
            assert profile == build_profile(datum, domain, resolution)
        if datum.zeros():
            assert len(profile.zero_cores) == 2
        if resolution > 2:  # some family merged
            assert len(profile.pieces) < len(domain.level_discs(resolution))


def test_fine_resolution_parses_quickly():
    import json
    import time

    from mumford_heat.config import bundled_fixture, config_from_dict
    raw = json.loads(bundled_fixture("tate-p3").read_text())
    raw["measure"]["resolution"] = raw["run"]["level"] = 8
    start = time.perf_counter()
    run = config_from_dict(raw)
    assert time.perf_counter() - start < 2
    assert len(run.operator.profile.pieces) == 4
