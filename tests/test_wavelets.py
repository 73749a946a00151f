import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from mumford_heat.measure import MeasureProfile, RationalFunctionDatum, build_profile
from mumford_heat.padic import Disc
from mumford_heat.wavelets import (Wavelet, admissible_supports,
                                   admissible_wavelets, inner_product,
                                   state_discs, wavelet_eval)
from conftest import ref_admissible_supports, ref_state_discs
from test_groupsum import schottky_figures


def test_wavelet_eval_examples():
    w = Wavelet(Disc(F(1), -1), 1, 3)
    v = wavelet_eval(w, 1)
    assert v.phase == F(1, 9)
    assert abs(abs(complex(v)) - math.sqrt(3)) < 1e-14
    assert wavelet_eval(w, 2).is_zero()
    w0 = Wavelet(Disc(F(0), 0), 1, 3)
    assert complex(wavelet_eval(w0, 0)) == 1 + 0j


def test_wavelet_constant_on_children():
    w = Wavelet(Disc(F(1), -1), 2, 3)
    for child in w.support.children(3):
        ref = wavelet_eval(w, child.center)
        for grand in child.children(3):
            assert wavelet_eval(w, grand.center) == ref


def test_gram_matrix_is_exact_identity(tate_profile):
    wavelets = admissible_wavelets(tate_profile, 3)
    assert len(wavelets) == 20
    for i, w1 in enumerate(wavelets):
        for k, w2 in enumerate(wavelets):
            ip = inner_product(w1, w2, tate_profile, "omega")
            if i == k:
                assert ip == 1
            else:
                assert ip.is_zero()


def test_haar_gram_diagonal_is_density(tate_profile):
    w = Wavelet(Disc(F(3), -2), 1, 3)
    assert inner_product(w, w, tate_profile, "haar") == 3


def test_census_examples(tate_group, tate_profile, ball_domain):
    # states against constants + wavelets, counted as the audit's
    # completeness check counts them: the gap is (maximal admissible discs) - 1
    domain = tate_group.fundamental_domain()
    census = [(len(state_discs(domain, tate_profile, m)),
               len(admissible_wavelets(tate_profile, m))) for m in (2, 3)]
    assert census == [(8, 4), (24, 20)]
    assert [n - 1 - k for n, k in census] == [3, 3] == [len(tate_profile.pieces) - 1] * 2

    profile = build_profile(RationalFunctionDatum.constant(), ball_domain, 1)
    assert (len(state_discs(ball_domain, profile, 1)),
            len(admissible_wavelets(profile, 1))) == (3, 2)


def test_supports_enumeration(tate_profile):
    supports = admissible_supports(tate_profile, 3)
    assert len(supports) == 10
    assert sum(1 for s in supports if s.radius_exp == -1) == 2
    assert sum(1 for s in supports if s.radius_exp == -2) == 8


@settings(max_examples=40, deadline=None)
@given(figure=schottky_figures(), data=st.data())
def test_the_listings_match_the_disc_walks_on_random_figures(figure, data):
    # levels <= 5, and at most 729 discs of the finest radius in D(0, 1)
    cfg, _ = figure
    level = data.draw(st.integers(0, min(5, int(math.log(729, cfg.p) + 1e-9))))
    assert state_discs(cfg.domain, cfg.profile, level) \
        == ref_state_discs(cfg.domain, cfg.profile, level)
    assert admissible_supports(cfg.profile, level) == ref_admissible_supports(cfg.profile, level)


def test_the_listings_keep_the_centres_that_name_the_pieces(tate_group):
    # tate-p3's pieces named by other points: D(5, 3^-1) for D(2, 3^-1), and
    # the negative centres -2 for 1 and -3 for 6; each support is a piece's
    # own centre plus p^(-r) M, in the order of the walk on Disc.children
    domain = tate_group.fundamental_domain()
    profile = MeasureProfile(((Disc(F(-2), -1), F(1)), (Disc(F(5), -1), F(1)),
                              (Disc(F(3), -2), F(3)), (Disc(F(-3), -2), F(3))), (), 3)
    for level in range(1, 6):
        assert state_discs(domain, profile, level) == ref_state_discs(domain, profile, level)
        assert admissible_supports(profile, level) == ref_admissible_supports(profile, level)
    assert admissible_supports(profile, 2) == [Disc(F(-2), -1), Disc(F(5), -1)]
