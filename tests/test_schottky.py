from fractions import Fraction as F
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumford_heat.padic import Disc, PoleHit
from mumford_heat.schottky import (DiscsIntersect, DomainInvalid, GroupWord,
                                   MoebiusMap, PoleInsideDisc,
                                   ReductionDiverged, SchottkyGroup, delta,
                                   disc_distance, disc_image, enumerate_words,
                                   moebius_distance_identity_check,
                                   reduce_to_domain, region_image,
                                   regions_equal, verify_fundamental_domain,
                                   words_with_maps)

SCALE = MoebiusMap(9, 0, 0, 1)
SWAP = MoebiusMap(0, 1, 1, 0)


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

    def test_distance_identity_examples(self):
        assert moebius_distance_identity_check(SWAP, 2, 3, 2) == (2, 2)
        assert moebius_distance_identity_check(SCALE, 1, 2, 3) == (F(1, 9), F(1, 9))
        lhs, rhs = moebius_distance_identity_check(MoebiusMap.identity(), F(7), 5, 3)
        assert lhs == rhs == 1  # identity map: both sides are |x - y|

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


@given(matrices, points, points, st.sampled_from([2, 3, 5]))
@settings(max_examples=300)
def test_distance_identity_universal(m, x, y, p):
    if x == y or m.pole() in (x, y):
        return
    if m.apply(x) == m.apply(y):
        return
    lhs, rhs = moebius_distance_identity_check(m, x, y, p)
    assert lhs == rhs


@given(matrices, points, st.integers(-3, 2))
@settings(max_examples=200)
def test_disc_image_membership_and_haar(m, c, t):
    p = 3
    disc = Disc(c, t)
    pole = m.pole()
    if pole is not None and disc.contains_point(pole, p):
        with pytest.raises(PoleInsideDisc):
            disc_image(m, disc, p)
        return
    image = disc_image(m, disc, p)
    for child in disc.children(p):
        assert image.contains_point(m.apply(child.center), p)
    from mumford_heat.padic import haar_measure
    assert haar_measure(image, p) == m.derivative_abs(c, p) * haar_measure(disc, p)


def test_disc_image_examples():
    assert disc_image(SCALE, Disc(F(1), -1), 3) == Disc(F(9), -3)
    assert disc_image(MoebiusMap.identity(), Disc(F(1), -1), 3) == Disc(F(1), -1)
    assert disc_image(SCALE.inverse(), Disc(F(9), -3), 3) == Disc(F(1), -1)


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


class TestDomain:
    def test_tate_passes(self, tate_group):
        report = verify_fundamental_domain(tate_group, depth=6)
        assert report.ok and report.tiles_checked == 12

    def test_genus2_passes(self, genus2_group):
        assert verify_fundamental_domain(genus2_group, depth=4).ok

    def test_swapped_pairing_fails(self, tate_group):
        bad = SchottkyGroup(p=3, generators=tate_group.generators,
                            holes=tuple(reversed(tate_group.holes)),
                            outer=tate_group.outer)
        report = verify_fundamental_domain(bad, depth=2, raise_on_failure=False)
        assert not report.pairing_ok
        with pytest.raises(DomainInvalid):
            verify_fundamental_domain(bad, depth=2)

    def test_overlapping_holes_fail(self, tate_group):
        bad = SchottkyGroup(
            p=3, generators=tate_group.generators * 2,
            holes=(Disc(F(0), 0, complement=True), Disc(F(0), -2),
                   Disc(F(0), -2), Disc(F(0), -3)),
            outer=tate_group.outer)
        report = verify_fundamental_domain(bad, depth=1, raise_on_failure=False)
        assert not report.holes_disjoint

    def test_non_hyperbolic_generator_rejected(self):
        with pytest.raises(DomainInvalid):
            SchottkyGroup(p=3, generators=(MoebiusMap(1, 3, 0, 1),),
                          holes=(Disc(F(0), 0, complement=True), Disc(F(0), -2)),
                          outer=Disc(F(0), 0))

    def test_measures(self, tate_group, genus2_group):
        assert tate_group.fundamental_domain().measure() == F(8, 9)
        assert genus2_group.fundamental_domain().measure() == F(4, 9)

    def test_level_discs(self, tate_group):
        dom = tate_group.fundamental_domain()
        centers = [d.center for d in dom.level_discs(2)]
        assert centers == [F(k) for k in (1, 2, 3, 4, 5, 6, 7, 8)]
        assert sorted((d.center, d.radius_exp) for d in dom.maximal_discs()) \
            == [(F(1), -1), (F(2), -1), (F(3), -2), (F(6), -2)]


class TestReduction:
    def test_examples(self, tate_group):
        assert reduce_to_domain(tate_group, 27) == (3, GroupWord((1,)))
        assert reduce_to_domain(tate_group, 1) == (1, GroupWord.identity())
        assert reduce_to_domain(tate_group, F(1, 3)) == (3, GroupWord((-1,)))

    def test_round_trip_genus2(self, genus2_group):
        dom = genus2_group.fundamental_domain()
        seeds = [F(27), F(5, 3), F(23, 11)]
        for w in (GroupWord((1, 2)), GroupWord((2, -1, 2)), GroupWord((-2, 1, 1, 2))):
            seeds.append(genus2_group.word_map(w).apply(F(6)))
        for z in seeds:
            x, witness = reduce_to_domain(genus2_group, z)
            assert genus2_group.word_map(witness).apply(x) == z
            assert dom.contains_point(x)

    def test_witness_is_checked(self, tate_group, monkeypatch):
        # a wrong word map must be caught by a check that survives python -O
        monkeypatch.setattr(SchottkyGroup, "word_map",
                            lambda self, word: MoebiusMap(1, 1, 0, 1))
        with pytest.raises(ReductionDiverged):
            reduce_to_domain(tate_group, 27)

    def test_limit_points_diverge(self, genus2_group):
        for z in (F(81), F(1, 9), F(1), F(2)):
            with pytest.raises(ReductionDiverged):
                reduce_to_domain(genus2_group, z, max_steps=64)


class TestDistances:
    def test_disc_distance_examples(self):
        assert disc_distance(Disc(F(1), -1), Disc(F(9), -3), 3) == 1
        assert disc_distance(Disc(F(1), -1), Disc(F(2), -1), 3) == 1
        assert disc_distance(Disc(F(3), -2), Disc(F(6), -2), 3) == F(1, 3)
        with pytest.raises(DiscsIntersect):
            disc_distance(Disc(F(1), -1), Disc(F(4), -2), 3)

    def test_delta_examples(self, tate_group):
        b = Disc(F(1), -1)
        assert delta(b, GroupWord.identity(), tate_group) == 1
        assert delta(b, GroupWord((1,)), tate_group) == 1
        assert delta(b, GroupWord((-1,)), tate_group) == 9
