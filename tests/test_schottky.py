import random
from fractions import Fraction as F
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumford_heat.measure import RationalFunctionDatum, build_profile
from mumford_heat.padic import (Disc, PoleHit, covered_measure, discs_disjoint,
                                haar_measure)
from mumford_heat.schottky import (DomainInvalid, GroupWord, MoebiusMap,
                                   SchottkyGroup, _tile_in_first_target,
                                   enumerate_words, region_image,
                                   regions_equal, verify_fundamental_domain,
                                   words_with_maps)
from mumford_heat.wavelets import state_discs
from conftest import domain_ok, ref_level_discs

SCALE = MoebiusMap(9, 0, 0, 1)
SWAP = MoebiusMap(0, 1, 1, 0)


def maximal_discs(domain):
    """The maximal discs contained in F: the pieces of a constant density
    profile at the finest hole's resolution, which tile F."""
    resolution = max(-h.radius_exp for h in domain.holes if not h.complement)
    profile = build_profile(RationalFunctionDatum.constant(), domain, resolution)
    assert profile.tiling_fault(domain) is None
    return [piece for piece, _ in profile.pieces]


class TestMoebius:
    def test_apply(self):
        assert SCALE.apply(3) == 27
        assert SWAP.apply(2) == F(1, 2)
        assert SCALE.inverse().apply(27) == 3

    def test_pole(self):
        with pytest.raises(PoleHit):
            SWAP.apply(0)
        assert SCALE.pole() is None
        assert MoebiusMap(1, 0, 2, -4).pole() == 2

    def test_composition_and_inverse(self):
        m = MoebiusMap(17, -16, 8, -7)
        assert m.compose(m.inverse()).is_identity()
        assert m.inverse().compose(m).is_identity()

    def test_content_reduction(self):
        assert MoebiusMap(6, 0, 0, 3) == MoebiusMap(2, 0, 0, 1)

    def test_derivative(self):
        assert SCALE.derivative_abs(F(5), 3) == F(1, 9)
        assert SWAP.derivative_abs(2, 2) == 4
        assert MoebiusMap.identity().derivative_abs(F(7), 5) == 1

    def test_hyperbolicity(self):
        assert SCALE.is_hyperbolic(3)
        assert MoebiusMap(17, -16, 8, -7).is_hyperbolic(3)
        assert not SWAP.is_hyperbolic(3)
        assert not MoebiusMap.identity().is_hyperbolic(3)


matrices = st.sampled_from([
    SCALE, SCALE.inverse(), MoebiusMap(17, -16, 8, -7),
    MoebiusMap(17, -16, 8, -7).inverse(), MoebiusMap(1, 3, 0, 1),
    MoebiusMap(2, 1, 1, 1), MoebiusMap(9, 1, 3, 28),
])
points = st.fractions(min_value=-500, max_value=500, max_denominator=100)


@given(matrices, points, st.integers(-3, 2))
@settings(max_examples=200)
def test_region_image_membership_and_haar(m, c, t):
    p = 3
    disc = Disc(c, t)
    pole = m.pole()
    image = region_image(m, disc, p)
    if pole is not None and disc.contains_point(pole, p):
        assert image.complement
        return
    assert not image.complement
    for child in disc.children(p):
        assert image.contains_point(m.apply(child.center), p)
    assert haar_measure(image, p) == m.derivative_abs(c, p) * haar_measure(disc, p)


def test_region_image_examples():
    assert region_image(SCALE, Disc(F(1), -1), 3) == Disc(F(9), -3)
    assert region_image(MoebiusMap.identity(), Disc(F(1), -1), 3) == Disc(F(1), -1)
    assert region_image(SCALE.inverse(), Disc(F(9), -3), 3) == Disc(F(1), -1)
    # SWAP's pole 0 lies in D(0, 1/3), whose image is |z| >= 3, the co-disc of D(0, 1)
    assert region_image(SWAP, Disc(F(0), -1), 3) == Disc(F(0), 0, complement=True)


def test_region_image_roundtrip_codisc():
    co = Disc(F(0), 0, complement=True)
    img = region_image(SCALE, co, 3)
    assert img.complement
    back = region_image(SCALE.inverse(), img, 3)
    assert regions_equal(back, co, 3)


class TestWords:
    def test_reduction(self):
        w = GroupWord.from_letters([1, 2, -2, -1, 1])
        assert w.letters == (1,)
        assert GroupWord.from_letters([1, -1]).is_identity()

    def test_inverse_and_compose(self):
        w = GroupWord((1, 2, -1))
        assert w.compose(w.inverse()).is_identity()
        assert w.inverse().letters == (1, -2, -1)

    def test_length_subadditive(self):
        u, v = GroupWord((1, 2)), GroupWord((-2, 1))
        assert len(u.compose(v)) <= len(u) + len(v)

    def test_enumeration_counts(self):
        words = list(enumerate_words(2, 3))
        by_len = {l: len(list(g)) for l, g in groupby(words, key=len)}
        assert by_len == {0: 1, 1: 4, 2: 12, 3: 36}
        assert len(set(words)) == len(words)
        assert sum(1 for w in enumerate_words(1, 5) if len(w) == 5) == 2

    def test_words_with_maps_consistent(self, tate_group):
        for word, mat in words_with_maps(tate_group, 4):
            assert tate_group.word_map(word) == mat

    def test_words_with_maps_prunes_whole_subtrees(self, genus2_group):
        asked = []

        def prune(prefix, mat, letter):
            asked.append(prefix + (letter,))
            assert genus2_group.word_map(GroupWord(prefix)) == mat
            return letter == 2

        walked = [word.letters for word, _ in words_with_maps(genus2_group, 3, prune)]
        everything = [word.letters for word in enumerate_words(2, 3)]
        assert walked == [w for w in everything if 2 not in w]
        # asked once per word whose proper prefixes all survived
        assert sorted(asked) == sorted(w for w in everything
                                       if w and 2 not in w[:-1])


class TestDomain:
    def test_tate_passes(self, tate_group):
        report = verify_fundamental_domain(tate_group, depth=6)
        assert domain_ok(report) and report.tiles_checked == 12

    def test_genus2_passes(self, genus2_group):
        assert domain_ok(verify_fundamental_domain(genus2_group, depth=4))

    def test_swapped_pairing_fails(self, tate_group, pairing_faults):
        with pytest.raises(DomainInvalid) as err:
            SchottkyGroup(p=3, generators=tate_group.generators,
                          holes=tuple(reversed(tate_group.holes)),
                          outer=tate_group.outer)
        assert str(err.value) == pairing_faults(
            (1, Disc(F(0), -4, complement=True), Disc(F(0), 0, complement=True)),
            (-1, Disc(F(0), 2), Disc(F(0), -2)))

    def test_overlapping_holes_fail(self, tate_group, pairing_faults):
        with pytest.raises(DomainInvalid) as err:
            SchottkyGroup(
                p=3, generators=tate_group.generators * 2,
                holes=(Disc(F(0), 0, complement=True), Disc(F(0), -2),
                       Disc(F(0), -2), Disc(F(0), -3)),
                outer=tate_group.outer)
        assert str(err.value) == "; ".join(
            [f"clause (i): holes {i} and {j} intersect" for i, j in ((1, 2), (1, 3), (2, 3))]
            + [pairing_faults((2, Disc(F(0), -4, complement=True), Disc(F(0), -3)),
                              (-2, Disc(F(0), -1, complement=True), Disc(F(0), -2)))])

    def test_non_hyperbolic_generator_rejected(self):
        with pytest.raises(DomainInvalid):
            SchottkyGroup(p=3, generators=(MoebiusMap(1, 3, 0, 1),),
                          holes=(Disc(F(0), 0, complement=True), Disc(F(0), -2)),
                          outer=Disc(F(0), 0))

    def test_measures(self, tate_group, genus2_group):
        assert tate_group.fundamental_domain().measure() == F(8, 9)
        assert genus2_group.fundamental_domain().measure() == F(4, 9)

    def test_level_discs(self, tate_group, tate_profile):
        dom = tate_group.fundamental_domain()
        centers = [d.center for d in ref_level_discs(dom, 2)]
        assert centers == [F(k) for k in (1, 2, 3, 4, 5, 6, 7, 8)]
        assert state_discs(dom, tate_profile, 2) == ref_level_discs(dom, 2)
        assert [(d.center, d.radius_exp) for d in maximal_discs(dom)] \
            == [(F(1), -1), (F(2), -1), (F(3), -2), (F(6), -2)]


# ---------------------------------------------------------------------------
# region_image against its former Fraction version
# ---------------------------------------------------------------------------

def _fraction_valuation(x, p):
    x, v = F(x), 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def _fraction_abs(x, p):
    return F(0) if F(x) == 0 else F(p) ** -_fraction_valuation(x, p)


def ref_region_image(gamma, region, p):
    """The Fraction version: push the disc through w = c*x + d, invert, then
    apply z -> a/c + (-det/c)*z."""
    if region.complement:
        inner = ref_region_image(gamma, region.complement_region(), p)
        return inner.complement_region()
    c0, t = region.center, region.radius_exp
    if gamma.c == 0:
        scale = F(gamma.a, gamma.d)
        return Disc(gamma.apply(c0), t - _fraction_valuation(scale, p))
    w_center = gamma.c * c0 + gamma.d
    w_exp = t - _fraction_valuation(gamma.c, p)
    scale = F(-gamma.det, gamma.c)
    if w_center != 0 and _fraction_abs(w_center, p) > F(p) ** w_exp:
        inv_center = 1 / F(w_center)
        inv_exp = w_exp + 2 * _fraction_valuation(w_center, p)
        return Disc(F(gamma.a, gamma.c) + scale * inv_center,
                    inv_exp - _fraction_valuation(scale, p))
    return Disc(F(gamma.a, gamma.c), -w_exp - 1 - _fraction_valuation(scale, p),
                complement=True)


def _random_map(rng, p, affine):
    while True:
        a, b, c, d = (rng.choice([1, -1]) * rng.randint(0, 12)
                      * p ** rng.randint(0, 2) for _ in range(4))
        if affine:
            c = 0
        if a * d - b * c != 0:
            return MoebiusMap(a, b, c, d)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_region_image_matches_fraction_reference(p):
    rng = random.Random(100 + p)
    kinds = {"affine": 0, "pole outside": 0, "pole inside": 0}
    for i in range(600):
        gamma = _random_map(rng, p, affine=i % 4 == 0)
        t = rng.randint(-4, 3)
        if gamma.c != 0 and i % 3 == 0:
            # a disc about the pole, holding it, or just missing it
            centre = gamma.pole() + rng.choice(
                [0, F(p) ** -t, F(p) ** (1 - t), F(p) ** (-1 - t)])
        else:
            centre = F(rng.randint(-60, 60) * p ** rng.randint(0, 2),
                       rng.choice([1, 7]) * p ** rng.randint(0, 2))
        for complement in (False, True):
            region = Disc(centre, t, complement)
            assert region_image(gamma, region, p) == ref_region_image(gamma, region, p)
        if gamma.c == 0:
            kinds["affine"] += 1
        elif Disc(centre, t).contains_point(gamma.pole(), p):
            kinds["pole inside"] += 1
        else:
            kinds["pole outside"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_certificate_catches_a_tile_covering_f(genus2_group, monkeypatch, tmp_path,
                                               capsys):
    import mumford_heat.schottky as schottky
    from mumford_heat.cli import main
    from mumford_heat.config import bundled_fixture

    word = GroupWord((1, 2))
    target = genus2_group.word_map(word)
    honest = schottky.region_image

    def overlapping(gamma, region, p):
        # the tile of ``word`` becomes F itself: outer disc minus the holes
        if gamma == target:
            return region
        return honest(gamma, region, p)

    monkeypatch.setattr(schottky, "region_image", overlapping)
    with pytest.raises(DomainInvalid) as err:
        verify_fundamental_domain(genus2_group, depth=4)
    assert str(err.value) == f"clause (iii): tile of {word} meets F"

    out = tmp_path / "out"
    assert main(["validate", "-c", str(bundled_fixture("genus2-p3")),
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"clause (iii): tile of {word} meets F" in err
    assert "Traceback" not in err and not out.exists()


# ---------------------------------------------------------------------------
# Clause (iii) against the former measure-based tile check
# ---------------------------------------------------------------------------

def _codisc_cover_mass(target, holes, p):
    """Mass of ``target`` covered by co-disc holes (disjoint from their cores)."""
    mass = F(0)
    for h in holes:
        if not h.complement:
            continue
        core = Disc(h.center, h.radius_exp)
        if discs_disjoint(target, core, p):
            mass = haar_measure(target, p)  # co-disc covers all of target
            break
        if core.contains(target, p):
            continue
        # target strictly contains the core: co-disc covers target minus core
        mass = max(mass, haar_measure(target, p) - haar_measure(core, p))
    return mass


def _tile_disjoint_from(f_pieces, tile_outer, tile_holes, p):
    """Is (tile_outer minus tile_holes) disjoint from the union of f_pieces?

    For each piece D of F, clip against the tile's bounding region, then
    check the clipped mass is entirely covered by the tile's holes.
    """
    for piece in f_pieces:
        if tile_outer.complement:
            core = Disc(tile_outer.center, tile_outer.radius_exp)
            if core.contains(piece, p):
                continue  # piece inside the removed core: empty intersection
            if not discs_disjoint(piece, core, p):
                # piece strictly contains the core: intersection is piece-minus-core
                inter_mass = haar_measure(piece, p) - haar_measure(core, p)
                covered = covered_measure(
                    piece, [h for h in tile_holes if not h.complement], p)
                extra = _codisc_cover_mass(piece, tile_holes, p)
                if covered + extra < inter_mass:
                    return False
                continue
            clipped = piece
        else:
            clipped = None
            if not discs_disjoint(piece, tile_outer, p):
                clipped = piece if tile_outer.contains(piece, p) else tile_outer
            if clipped is None:
                continue
        inter_mass = haar_measure(clipped, p)
        covered = covered_measure(
            clipped, [h for h in tile_holes if not h.complement], p)
        extra = _codisc_cover_mass(clipped, tile_holes, p)
        if covered + extra < inter_mass:
            return False
    return True


def ref_tile_disjoint(group, mat):
    """The former clause (iii) for one tile: w(outer) minus w(holes), by mass."""
    import mumford_heat.schottky as schottky
    p = group.p
    tile_outer = schottky.region_image(mat, group.outer, p)
    tile_holes = [schottky.region_image(mat, h, p) for h in group.holes]
    return _tile_disjoint_from(maximal_discs(group.fundamental_domain()),
                               tile_outer, tile_holes, p)


@pytest.mark.parametrize("name", ["tate_group", "genus2_group"])
def test_tile_certificate_matches_mass_oracle(name, request):
    group = request.getfixturevalue(name)
    tiles = 0
    for word, mat in words_with_maps(group, 6):
        if word.is_identity():
            continue
        tiles += 1
        assert _tile_in_first_target(group, word, mat) is True
        assert ref_tile_disjoint(group, mat) is True, word
    assert tiles == (12 if group.genus == 1 else 4 * (3 ** 6 - 1) // 2)
    for depth in range(1, 7):
        report = verify_fundamental_domain(group, depth=depth)
        assert report.tiles_checked == sum(
            1 for w in enumerate_words(group.genus, depth) if len(w))


def test_both_tile_checks_flag_a_tile_covering_f(genus2_group, monkeypatch):
    import mumford_heat.schottky as schottky

    word = GroupWord((1, 2))
    target = genus2_group.word_map(word)
    honest = schottky.region_image

    def overlapping(gamma, region, p):
        if gamma == target:
            return region
        return honest(gamma, region, p)

    monkeypatch.setattr(schottky, "region_image", overlapping)
    flagged = [w for w, mat in words_with_maps(genus2_group, 4) if len(w)
               and not _tile_in_first_target(genus2_group, w, mat)]
    oracle = [w for w, mat in words_with_maps(genus2_group, 4) if len(w)
              and not ref_tile_disjoint(genus2_group, mat)]
    assert flagged == oracle == [word]


@pytest.mark.parametrize("radius_exp", [-1, -2])
def test_outer_disc_inside_the_co_hole_core_fails(tate_group, radius_exp):
    # points between the outer disc and the co-hole lie in no tile
    with pytest.raises(DomainInvalid) as err:
        SchottkyGroup(p=3, generators=tate_group.generators,
                      holes=tate_group.holes, outer=Disc(F(0), radius_exp))
    assert str(err.value) == "clause (i): co-hole 0 is not the complement of the outer disc"


def test_holes_covering_the_outer_disc_fail():
    # the pairings hold, but the three plain holes tile Z_3, so F is empty
    with pytest.raises(DomainInvalid) as err:
        SchottkyGroup(
            p=3, generators=(MoebiusMap(3, 0, 0, 1), MoebiusMap(2, 1, 1, -1)),
            holes=(Disc(F(0), 0, complement=True), Disc(F(1), -1), Disc(F(0), -1),
                   Disc(F(2), -1)),
            outer=Disc(F(0), 0))
    assert str(err.value) == "clause (i): the holes cover the outer disc, so F is empty"
