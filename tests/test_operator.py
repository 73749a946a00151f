import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from mumford_heat.exactnum import PowerSum
from mumford_heat.operator import (ChartNotSupported, _chart_escape_distance,
                                   NotAdmissible, OperatorConfig,
                                   apply_operator, generator_matrix,
                                   lambda_exact, lambda_formula,
                                   lambda_transform, minimal_escape_distance,
                                   scalar_times_value, spectrum, tail_bound,
                                   transformed_config,
                                   vladimirov_local_integral,
                                   vladimirov_alpha_free_value, wavelet_multiplier,
                                   word_census)
from mumford_heat.padic import Disc, abs_p, haar_measure
from mumford_heat.schottky import DomainInvalid, GroupWord, MoebiusMap
from mumford_heat.measure import RationalFunctionDatum
from mumford_heat.wavelets import (LevelFunction, Wavelet, state_discs, support_runs,
                                   wavelet_eval)
from conftest import TATE_DATUM, dense, ref_spectrum_classes

# oracle eigenvalues for the multiplicative fixture, frozen after independent
# brute-force quadrature on a level-6 refinement of the domain
TATE_EXACT = {
    (F(1), -1): F(81, 26),
    (F(3), -2): F(99, 13),
    (F(1), -2): F(201, 52),
}


class TestKernel:
    """The kernel's group sums converge only under the growth condition."""

    def test_growth_condition_enforced(self, genus2_group, genus2_profile):
        with pytest.raises(DomainInvalid):
            OperatorConfig(group=genus2_group, profile=genus2_profile,
                           alpha_g=F(1))  # 3^1 <= 4


class TestTailBound:
    def test_escape_distance(self, tate_cfg):
        assert minimal_escape_distance(tate_cfg) == F(1, 3)

    def test_closed_form_and_monotone(self, tate_cfg):
        assert tail_bound(tate_cfg, 40) == 9 * F(1, 3 ** 40)
        assert tail_bound(tate_cfg, 12) < tail_bound(tate_cfg, 10)

    def test_soundness_under_refinement(self, tate_cfg):
        support = Disc(F(1), -1)
        for length in (6, 8, 10):
            coarse, tail = wavelet_multiplier(tate_cfg, support, F(1), length)
            fine, _ = wavelet_multiplier(tate_cfg, support, F(1), length + 2)
            assert abs(F(fine) - F(coarse)) <= tail

    def test_tolerance_conversion(self, tate_group, tate_profile):
        cfg = OperatorConfig(group=tate_group, profile=tate_profile,
                             cutoff_tol=F(1, 10 ** 12))
        length = cfg.cutoff()
        assert tail_bound(cfg, length) <= F(1, 10 ** 12)
        assert tail_bound(cfg, length - 1) > F(1, 10 ** 12)


class TestEigenvalueOracle:
    def test_multipliers_match_brute_force(self, tate_cfg):
        for (center, rexp), lam in TATE_EXACT.items():
            support = Disc(center, rexp)
            for child in support.children(3):
                mult, tail = wavelet_multiplier(tate_cfg, support, child.center)
                assert abs(mult + lam) <= tail

    def test_lambda_exact_constant_and_positive(self, tate_cfg):
        for (center, rexp), lam in TATE_EXACT.items():
            le = lambda_exact(tate_cfg, Disc(center, rexp))
            assert le.value > 0
            assert le.lo <= lam <= le.hi
            assert le.hi - le.lo < F(1, 10 ** 12)

    def test_class_constancy(self, tate_cfg):
        outer_level2 = [Disc(F(c), -2) for c in (1, 2, 4, 5, 7, 8)]
        values = {lambda_exact(tate_cfg, d).value for d in outer_level2}
        assert len(values) == 1

    def test_apply_operator_off_support_is_exact_zero(self, tate_cfg):
        w = Wavelet(Disc(F(1), -1), 1, 3)
        for x in (F(2), F(3), F(6)):
            value, tail = apply_operator(tate_cfg, w, x)
            assert value.is_zero() and tail == 0

    def test_numeric_path_agrees_with_exact(self, tate_cfg, tate_group):
        states = state_discs(tate_group.fundamental_domain(),
                             tate_cfg.profile, 2)
        for j in (1, 2):
            w = Wavelet(Disc(F(1), -1), j, 3)
            u = LevelFunction.from_wavelet(w, 2, states, tate_cfg.profile, "haar")
            for x in (F(1), F(4), F(7)):
                numeric, _ = apply_operator(tate_cfg, u, x)
                exact, _ = apply_operator(tate_cfg, w, x)
                assert abs(numeric - complex(exact)) < 1e-12
            for x in (F(2), F(3)):
                numeric, _ = apply_operator(tate_cfg, u, x)
                assert abs(numeric) < 1e-13

    def test_constant_function_maps_to_zero(self, tate_cfg, tate_group):
        states = state_discs(tate_group.fundamental_domain(), tate_cfg.profile, 2)
        u = LevelFunction.from_mapping(2, dict.fromkeys(states, 1.0))
        value, _ = apply_operator(tate_cfg, u, F(1))
        assert value == 0j


class TestLambdaPaper:
    def test_tate_worked_value(self, tate_cfg):
        lp = lambda_formula(tate_cfg, Disc(F(1), -1))
        assert lp.is_exact and lp.value == F(15, 26)

    def test_other_classes(self, tate_cfg):
        assert lambda_formula(tate_cfg, Disc(F(3), -2)).value == F(51, 52)
        assert lambda_formula(tate_cfg, Disc(F(1), -2)).value == F(5, 26)

    def test_identity_term_is_one(self, tate_cfg):
        # the series minus its branches equals 1: check via alpha_g -> large
        big = OperatorConfig(group=tate_cfg.group, profile=tate_cfg.profile,
                             alpha_g=F(40), cutoff_len=8)
        lp = lambda_formula(big, Disc(F(1), -1))
        dens, mu_inv, scale = F(1), F(9, 8), F(1, 3)
        assert abs(F(lp.value) - dens * mu_inv * scale) < F(1, 3 ** 30)

    def test_monotone_in_alpha_g(self, tate_cfg):
        doubled = OperatorConfig(group=tate_cfg.group, profile=tate_cfg.profile,
                                 alpha_g=F(2), cutoff_len=40)
        assert lambda_formula(doubled, Disc(F(1), -1)).value \
            < lambda_formula(tate_cfg, Disc(F(1), -1)).value

    def test_positive(self, tate_cfg, genus2_cfg):
        assert lambda_formula(tate_cfg, Disc(F(1), -1)).value > 0
        g2 = lambda_formula(genus2_cfg, Disc(F(3), -2))
        assert g2.lo > 0 and g2.is_exact and g2.value == F(15, 32)

    def test_inadmissible_rejected(self, tate_cfg):
        with pytest.raises(NotAdmissible):
            lambda_formula(tate_cfg, Disc(F(0), -1))


class TestSpectrum:
    def test_level2_class(self, tate_cfg):
        result = spectrum(tate_cfg, 2)
        assert len(result.entries) == 1
        entry = result.entries[0]
        assert (entry.radius_exp, entry.density, entry.multiplicity) == (-1, F(1), 4)
        assert entry.lam_formula.value == F(15, 26)

    def test_level3_classes(self, tate_cfg):
        result = spectrum(tate_cfg, 3)
        keys = sorted((e.radius_exp, e.density, e.multiplicity)
                      for e in result.entries)
        assert keys == [(-2, F(1), 12), (-2, F(3), 4), (-1, F(1), 4)]

    def test_word_census_attached(self, tate_cfg, genus2_cfg):
        assert dict(spectrum(tate_cfg, 2).word_counts)[5] == 2
        assert dict(word_census(2))[3] == 36
        assert dict(word_census(3))[8] == 6 * 5 ** 7

    def test_transport_chart_invariance(self, tate_group, tate_profile, tate_datum):
        cfg = OperatorConfig(group=tate_group, profile=tate_profile,
                             mode="transport", cutoff_len=40)
        base = spectrum(cfg, 2)
        shifted = spectrum(cfg, 2, chart=GroupWord((1,)), datum=tate_datum)
        assert [e.lam_formula.value for e in shifted.entries] \
            == [e.lam_formula.value for e in base.entries]
        assert [e.lam_exact.value for e in shifted.entries] \
            == [e.lam_exact.value for e in base.entries]

    def test_ambient_chart_scales_by_81(self, tate_cfg, tate_datum):
        base = spectrum(tate_cfg, 2)
        shifted = spectrum(tate_cfg, 2, chart=GroupWord((1,)), datum=tate_datum)
        ratio = F(shifted.entries[0].lam_exact.value) \
            / F(base.entries[0].lam_exact.value)
        assert ratio == 81


def renamed_pieces(cfg):
    """``cfg`` with piece i of k, D(c, p^r), named D(c + (k - i) p^(-r), p^r):
    the same discs, pieces of one radius in reverse centre order, given in
    their old order, so not sorted by centre."""
    k, p = len(cfg.profile.pieces), cfg.p
    named = [(Disc(d.center + (k - i) * F(p) ** -d.radius_exp, d.radius_exp), dens)
             for i, (d, dens) in enumerate(cfg.profile.pieces)]
    assert named != sorted(named, key=lambda piece: piece[0].center)
    return replace(cfg, profile=cfg.profile._replace(pieces=tuple(named)))


# chart words per fixture; an ambient chart on genus2-p3 costs about 0.3 s
# per class, so it runs to level 3, and on p = 5 over 1 s, so it is left out
SPECTRUM_CHARTS = {"tate_cfg": [(), (1,), (-1,), (1, 1)], "p5_cfg": [()],
                   "genus2_cfg": [(), (1,), (2,), (-2,)]}


@pytest.mark.parametrize("name,change,mode", [
    *[(name, {}, mode) for name in SPECTRUM_CHARTS for mode in ("ambient", "transport")],
    *[(name, change, "ambient") for name in ("tate_cfg", "genus2_cfg")
      for change in ({"alpha": F(1, 2)}, {"alpha": F(3, 2)}, "renamed")]])
def test_spectrum_matches_the_listed_supports(request, name, change, mode):
    # the classes read off the support runs are the listing-and-scan
    # grouping's: key, first witness, support count, multiplicity and both
    # eigenvalues; a chart the toolkit refuses is refused by both
    cfg = request.getfixturevalue(name)
    cfg = replace(renamed_pieces(cfg) if change == "renamed" else replace(cfg, **change),
                  mode=mode)
    datum = TATE_DATUM if name == "tate_cfg" else RationalFunctionDatum.constant()
    for letters in SPECTRUM_CHARTS[name]:
        chart = GroupWord(letters) if letters else None
        top = 3 if letters and mode == "ambient" and name == "genus2_cfg" else 6
        for level in range(1, top + 1):
            try:
                work, classes = ref_spectrum_classes(cfg, level, chart, datum)
            except ChartNotSupported:
                with pytest.raises(ChartNotSupported):
                    spectrum(cfg, level, chart=chart, datum=datum)
                continue
            got = [(e.radius_exp, e.density, e.witness, e.n_witness_discs, e.multiplicity,
                    e.lam_formula, e.lam_exact)
                   for e in spectrum(cfg, level, chart=chart, datum=datum).entries]
            assert got == [(*key, found[0], len(found), len(found) * (cfg.p - 1),
                            lambda_formula(work, found[0]), lambda_exact(work, found[0]))
                           for key, found in classes]


@pytest.mark.parametrize("name,made", [("tate_cfg", 4661), ("genus2_cfg", 2870)])
def test_spectrum_at_level_30_lists_no_support(request, monkeypatch, name, made):
    # each piece D(c, p^r) has p^(r - e) supports at each radius p^e above
    # p^-30: (p^(r + 30) - 1) / (p - 1) in all, counted without one Disc per
    # support (level 12 alone lists 236 236 on tate-p3); the Discs built are
    # the runs' first supports and the eigenvalue oracle's, as measured
    cfg = request.getfixturevalue(name)
    p, counts = cfg.p, Counter()
    for support, n in support_runs(cfg.profile, 30):
        counts[support.center] += n
    assert counts == {d.center: (p ** (d.radius_exp + 30) - 1) // (p - 1)
                      for d, _ in cfg.profile.pieces}
    built, honest = [], Disc.__post_init__
    monkeypatch.setattr(Disc, "__post_init__", lambda disc: built.append(1) or honest(disc))
    result = spectrum(cfg, 30)
    assert len(built) <= made
    assert sum(e.n_witness_discs for e in result.entries) == sum(counts.values())
    assert all(e.multiplicity == e.n_witness_discs * (p - 1) for e in result.entries)


class TestLambdaTransform:
    def test_identity_is_lambda_formula(self, tate_cfg, tate_datum):
        lt = lambda_transform(tate_cfg, MoebiusMap.identity(),
                              Disc(F(1), -1), tate_datum)
        assert lt.value == F(15, 26)

    def test_tate_chart_value(self, tate_cfg, tate_datum):
        # frozen after recomputing the transformation formula by hand:
        # prefactor 1 * 9 * (1/9), mu(phi F) = 8/81, radius exponent -3,
        # series 1 + 9/2 + 9/26 = 76/13
        lt = lambda_transform(tate_cfg, MoebiusMap(9, 0, 0, 1),
                              Disc(F(1), -1), tate_datum)
        assert lt.is_exact and lt.value == F(57, 26)

    def test_transformed_chart_oracle(self, tate_cfg, tate_datum):
        work = transformed_config(tate_cfg, tate_datum, MoebiusMap(9, 0, 0, 1))
        assert work.domain.measure() == F(8, 81)
        chart_value = lambda_formula(work, Disc(F(9), -3))
        assert chart_value.value == F(513, 26)  # naive re-evaluation on the chart
        ratio = F(lambda_exact(work, Disc(F(9), -3)).value) \
            / F(lambda_exact(tate_cfg, Disc(F(1), -1)).value)
        assert ratio == 81

    def test_pole_in_domain_rejected(self, tate_cfg, tate_datum):
        with pytest.raises(ChartNotSupported):
            lambda_transform(tate_cfg, MoebiusMap(0, 1, 1, 0),
                             Disc(F(1), -1), tate_datum)

    @pytest.mark.parametrize("letters,bound", [((2, 1), F(1, 243)),
                                               ((-1, 2, 1), F(1, 27))])
    def test_chart_escape_bound_on_a_chart_with_a_pole(self, genus2_cfg, letters,
                                                       bound):
        # |phi x - gamma phi y| over x, y in F and l(gamma) >= 1, sampled
        group, domain = genus2_cfg.group, genus2_cfg.domain
        phi = group.word_map(GroupWord(letters))
        assert phi.c != 0  # not affine: the bound goes through min |phi'|
        assert _chart_escape_distance(genus2_cfg, phi) == bound
        rng = random.Random(11)

        def point():
            while True:
                x = F(rng.randrange(3 ** 5), rng.choice([1, 2, 4, 5, 7]))
                if domain.contains_point(x):
                    return phi.apply(x)

        for _ in range(1000):
            word, length = [], rng.randint(1, 3)
            while len(word) < length:
                s = rng.choice([1, -1, 2, -2])
                if not word or word[-1] != -s:
                    word.append(s)
            gamma = group.word_map(GroupWord(tuple(word)))
            assert abs_p(point() - gamma.apply(point()), 3) >= bound


class TestVladimirov:
    def test_alpha_one_example(self):
        support = Disc(F(1), -1)
        w = Wavelet(support, 1, 3)
        value = vladimirov_local_integral(support, 1, F(1), F(1), 3)
        assert value == wavelet_eval(w, F(1)).scaled(-1)

    def test_alpha_zero_matches_stated_value(self):
        support = Disc(F(1), -1)
        assert vladimirov_local_integral(support, 1, F(0), F(1), 3) \
            == vladimirov_alpha_free_value(support, 1, F(1), 3)

    def test_scale_zero_matches_for_all_alpha(self):
        support = Disc(F(0), 0)
        for alpha in (F(0), F(1), F(2), F(1, 2)):
            assert vladimirov_local_integral(support, 1, alpha, F(0), 3) \
                == vladimirov_alpha_free_value(support, 1, F(0), 3)

    def test_disagreement_factor(self):
        # d != 0, alpha != 0: the sphere decomposition carries p^(-d*alpha)
        support = Disc(F(3), -2)
        oracle = vladimirov_local_integral(support, 1, F(2), F(3), 3)
        stated = vladimirov_alpha_free_value(support, 1, F(3), 3)
        assert oracle != stated
        want = scalar_times_value(
            3, PowerSum(3).add_term(F(-1), F(-2) * (1 - F(2))).to_fraction(),
            wavelet_eval(Wavelet(support, 1, 3), F(3)))
        assert oracle == want


class TestGeneratorMatrix:
    def test_structure(self, tate_cfg):
        gen = generator_matrix(tate_cfg, 2)
        assert gen.size == 8
        for i, row in enumerate(gen.rows):
            assert sum(row, F(0)) == 0
            for k, value in enumerate(row):
                if i != k:
                    assert value >= 0

    def test_float_matrix_and_masses(self, tate_cfg):
        gen = generator_matrix(tate_cfg, 2)
        assert dense(gen).tolist() == [[float(v) for v in row] for row in gen.rows]
        assert gen.masses == tuple(tate_cfg.profile.density_on(d)
                                   * haar_measure(d, 3) for d in gen.states)
        values = [F(i) for i in range(gen.size)]
        assert gen.vector(LevelFunction.from_mapping(2, dict(zip(gen.states, values)))) == values

    def test_rates_against_kernel(self, tate_cfg):
        # independent recomputation of one entry from kernel values
        gen = generator_matrix(replace(tate_cfg, cutoff_len=12), 2)
        states = gen.states
        i, k = 0, 3
        total = F(0)
        from mumford_heat.schottky import words_with_maps
        from mumford_heat.padic import abs_p, haar_measure
        for word, mat in words_with_maps(tate_cfg.group, 12):
            dist = abs_p(states[i].center - mat.apply(states[k].center), 3)
            total += (F(1, 3) ** len(word)) / dist
        mass = tate_cfg.profile.density_on(states[k]) \
            * haar_measure(states[k], 3)
        assert gen.rows[i][k] == total * mass * F(9, 8)

    def test_wavelet_vector_is_eigenvector(self, tate_cfg):
        gen = generator_matrix(tate_cfg, 2)
        w = Wavelet(Disc(F(1), -1), 1, 3)
        vec = [complex(wavelet_eval(w, d.center, tate_cfg.profile, "haar"))
               for d in gen.states]
        image = dense(gen) @ vec
        lam = float(F(lambda_exact(tate_cfg, Disc(F(1), -1),
                                   length=gen.cutoff).value))
        for a, b in zip(image, vec):
            assert abs(a + lam * b) < 1e-12

    def test_constants_in_kernel(self, tate_cfg):
        gen = generator_matrix(tate_cfg, 2)
        assert all(isinstance(v, F) for row in gen.rows for v in row)
        assert all(sum(row) == 0 for row in gen.rows)

    def test_hash_and_equality_by_identity(self, tate_cfg):
        # its ``lam`` is a dict, so a hash by value would raise TypeError
        gen, twin = generator_matrix(tate_cfg, 2), generator_matrix(tate_cfg, 2)
        assert hash(gen) == hash(gen) and gen == gen
        assert gen != twin and {gen, twin} == {twin, gen}


# ---------------------------------------------------------------------------
# The cutoff search runs once per configuration
# ---------------------------------------------------------------------------

def ref_cutoff(cfg):
    """The smallest length whose tail bound is at most the tolerance."""
    tol = cfg.cutoff_tol if cfg.cutoff_tol is not None else F(1, 10 ** 12)
    length = 1
    while tail_bound(cfg, length) > tol:
        length += 1
    return length


@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
@pytest.mark.parametrize("tol", [None, F(1, 10), F(1, 10 ** 6), F(1, 10 ** 12),
                                 F(1, 10 ** 30)])
def test_cutoff_searched_once_per_instance(name, tol, request, monkeypatch):
    import dataclasses

    import mumford_heat.operator as operator
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=None,
                              cutoff_tol=tol)
    expected = ref_cutoff(cfg)
    searches = []
    honest = operator.tail_bound

    def counting(cfg, length):
        if length == 1:
            searches.append(cfg)
        return honest(cfg, length)

    monkeypatch.setattr(operator, "tail_bound", counting)
    assert [cfg.cutoff() for _ in range(3)] == [expected] * 3
    assert len(searches) == 1
    copy = dataclasses.replace(cfg, mode="transport")
    assert copy.cutoff() == expected and len(searches) == 2
    assert dataclasses.replace(cfg, cutoff_len=5).cutoff() == 5
    assert len(searches) == 2


@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
def test_cutoff_search_evaluates_one_tail_bound(name, request, monkeypatch):
    # the bound shrinks by the exact ratio (2g-1) * q_hi per length, so one
    # tail_bound call serves the whole search, with the old loop's answer
    import dataclasses

    import mumford_heat.operator as operator
    base = request.getfixturevalue(name)
    tols = [F(1, 10 ** k) for k in range(3, 31)]
    expected = [ref_cutoff(dataclasses.replace(base, cutoff_len=None, cutoff_tol=tol))
                for tol in tols]
    calls = []
    honest = operator.tail_bound

    def counting(cfg, length):
        calls.append(length)
        return honest(cfg, length)

    monkeypatch.setattr(operator, "tail_bound", counting)
    found = [dataclasses.replace(base, cutoff_len=None, cutoff_tol=tol).cutoff()
             for tol in tols]
    assert found == expected and calls == [1] * len(tols)
    for tol, length in zip(tols, found):
        assert honest(base, length) <= tol
        assert length == 1 or honest(base, length - 1) > tol
