"""The group-sum engine against a plain Fraction/abs_p reference of the same sums.

The reference walks the reduced words and evaluates every distance as a
rational with ``abs_p``, one ``PowerSum`` term per (word, cell) pair; the
engine's integer histograms must give values that are ``==`` to it.
"""

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

import mumford_heat.operator as operator
from mumford_heat.exactnum import PowerSum
from mumford_heat.measure import MeasureProfile, RationalFunctionDatum, build_profile
from mumford_heat.operator import (ChartNotSupported, CoincidentPoints,
                                   OperatorConfig, _fold, _group_histograms,
                                   _multipliers, _wavelet_cells, apply_operator,
                                   delta_series, generator_matrix, lambda_exact,
                                   simplify, transformed_config, wavelet_multiplier,
                                   word_census)
from mumford_heat.padic import Disc, PoleHit, abs_p, haar_measure, valuation
from mumford_heat.schottky import (GroupWord, MoebiusMap, SchottkyGroup, region_image,
                                   words_with_maps)
from mumford_heat.wavelets import LevelFunction, admissible_supports, state_discs

ID = GroupWord.identity()


def ref_sum(cfg, length, x, centre, beta_map, skip_identity):
    """sum over l(w) <= length of p^(-alpha_g l(w)) |beta x - beta w c|^(-alpha)."""
    p, bx, total = cfg.p, beta_map.apply(x), PowerSum(cfg.p)
    for word, mat in words_with_maps(cfg.group, length):
        if skip_identity and word.is_identity():
            continue
        dist = abs_p(bx - beta_map.compose(mat).apply(centre), p)
        assert dist != 0
        total.add_term(1, -cfg.alpha_g * len(word) - cfg.alpha * valuation(dist, p))
    return total


def ref_generator_rows(cfg, level, length):
    p, states = cfg.p, state_discs(cfg.domain, cfg.profile, level)
    rows = []
    for i, di in enumerate(states):
        row, diag = [], PowerSum(p)
        for k, dk in enumerate(states):
            if k == i:
                row.append(None)
                continue
            mass = cfg.profile.density_at(dk.center) * haar_measure(dk, p)
            entry = ref_sum(cfg, length, di.center, dk.center, MoebiusMap.identity(),
                            False).mul_power(cfg.mu_inverse() * mass, 0)
            row.append(simplify(entry))
            diag = diag + entry
        row[i] = simplify(-diag)
        rows.append(tuple(row))
    return tuple(rows)


def ref_multiplier(cfg, support, x, length, chart=None):
    p = cfg.p
    beta = chart if chart is not None and cfg.mode == "ambient" else ID
    beta_map = cfg.group.word_map(beta)
    local_exp = support.radius_exp * (1 - cfg.alpha)
    if not beta.is_identity():
        local_exp -= cfg.alpha * valuation(beta_map.derivative_abs(support.center, p), p)
    total = PowerSum(p).add_term(-cfg.profile.density_on(support), local_exp)
    for cell, dens in _wavelet_cells(cfg, support):
        part = ref_sum(cfg, length, x, cell.center, beta_map, cell == support)
        total = total + part.scaled(-dens * haar_measure(cell, p))
    return simplify(total.mul_power(cfg.mu_inverse(), 0))


def ref_level_apply(cfg, u, x, length, chart):
    """The level-function quadrature, term by term in complex floats."""
    p = cfg.p
    beta_map = cfg.group.word_map(chart if cfg.mode == "ambient" else ID)
    bx, ux, total = beta_map.apply(x), u.value_at(x, p), 0j
    for word, mat in words_with_maps(cfg.group, length):
        for cell, val in u.values:
            if word.is_identity() and cell.contains_point(x, p):
                continue
            dist = abs_p(bx - beta_map.compose(mat).apply(cell.center), p)
            mass = cfg.profile.density_at(cell.center) * haar_measure(cell, p)
            total += (float(p) ** -float(cfg.alpha_g * len(word)) * float(mass)
                      * float(dist) ** -float(cfg.alpha) * (val - ux))
    return total * float(cfg.mu_inverse())


def ref_delta_value(cfg, support):
    p, total = cfg.p, PowerSum(cfg.p).add_term(1, 0)
    for word, mat in words_with_maps(cfg.group, cfg.cutoff()):
        if not word.is_identity():
            image = region_image(mat, support, p)
            assert not image.complement
            dist = abs_p(support.center - image.center, p)
            total.add_term(1, -cfg.alpha_g * len(word) - cfg.alpha * valuation(dist, p))
    return simplify(total)


# (fixture, alpha, alpha_g, cutoff length, chart word for the ambient multiplier;
# its inverse letter puts p in the denominator of the moved base point);
# 3^(3/2) > 4 keeps the genus-2 growth condition at alpha_g = 3/2
CASES = [
    ("tate_cfg", F(1), F(1), 6, GroupWord((-1,))),
    ("tate_cfg", F(1, 2), F(1), 6, GroupWord((-1,))),
    ("genus2_cfg", F(1), F(2), 3, GroupWord((-1, 2))),
    ("genus2_cfg", F(1), F(3, 2), 3, GroupWord((-1, 2))),
]


@pytest.fixture(params=[(c, mode) for c in CASES for mode in ("ambient", "transport")],
                ids=lambda cm: f"{cm[0][0]}-a{cm[0][1]}-ag{cm[0][2]}-{cm[1]}")
def case(request):
    (name, alpha, alpha_g, length, chart), mode = request.param
    cfg = dataclasses.replace(request.getfixturevalue(name), alpha=alpha,
                              alpha_g=alpha_g, mode=mode, cutoff_len=length)
    return cfg, length, chart


def test_generator_matrix_matches_reference(case):
    cfg, length, _ = case
    gen = generator_matrix(cfg, 2)
    assert gen.rows == ref_generator_rows(cfg, 2, length)
    if cfg.alpha.denominator > 1 or cfg.alpha_g.denominator > 1:
        # the fold keeps the fractional powers of p
        assert any(isinstance(v, PowerSum) for row in gen.rows for v in row)


@pytest.mark.parametrize("name,alpha,alpha_g", [("tate_cfg", 1, 1), ("tate_cfg", 2, 1),
                                                ("genus2_cfg", 1, 2)])
def test_integral_exponents_give_fraction_rates(request, name, alpha, alpha_g):
    cfg = dataclasses.replace(request.getfixturevalue(name), alpha=F(alpha),
                              alpha_g=F(alpha_g), cutoff_len=3)
    gen = generator_matrix(cfg, 2)
    assert all(type(v) is F for row in gen.rows for v in row)
    assert all(sum(row) == 0 for row in gen.rows)


@pytest.mark.parametrize("name,length", [("tate_cfg", 6), ("genus2_cfg", 3)])
def test_half_alpha_gives_power_sum_rates(request, name, length):
    cfg = dataclasses.replace(request.getfixturevalue(name), alpha=F(1, 2),
                              cutoff_len=length)
    gen, ref = generator_matrix(cfg, 2), ref_generator_rows(cfg, 2, length)
    assert gen.rows == ref
    # a rate is a PowerSum exactly when a fractional power of p survives
    assert [[type(v) for v in row] for row in gen.rows] == [
        [type(v) for v in row] for row in ref]
    assert sum(isinstance(v, PowerSum) for row in gen.rows for v in row) > gen.size


def test_lambda_exact_and_multipliers_match_reference(case):
    cfg, length, chart = case
    for support in admissible_supports(cfg.profile, 3):
        children = [child.center for child in support.children(cfg.p)]
        assert lambda_exact(cfg, support).value == simplify(
            -ref_multiplier(cfg, support, children[0], length))
        for x in children:
            for word in (None, chart):
                mult, _ = wavelet_multiplier(cfg, support, x, chart=word)
                assert mult == ref_multiplier(cfg, support, x, length, word)


def test_level_function_quadrature_matches_reference(case):
    # the engine sums each cell exactly before the one conversion to float,
    # so it agrees with the term-by-term float sum to rounding only
    cfg, length, chart = case
    states = state_discs(cfg.domain, cfg.profile, 2)
    u = LevelFunction.from_mapping(2, {d: complex(i % 3, i % 2 - 1)
                                       for i, d in enumerate(states)})
    for d in states:
        for word in (ID, chart):
            value, _ = apply_operator(cfg, u, d.center, beta=word)
            assert value == pytest.approx(ref_level_apply(cfg, u, d.center, length, word),
                                          rel=1e-12, abs=1e-12)


def test_delta_series_matches_reference(case):
    cfg, _, _ = case
    for support in admissible_supports(cfg.profile, 3):
        series = delta_series(cfg, support)
        if series.is_exact:
            continue  # closed by the exact tail, not a truncated group sum
        ref = ref_delta_value(cfg, support)
        assert series.value == ref
        lo = ref if isinstance(ref, F) else ref.bounds()[0]
        assert series.lo == lo


# ---------------------------------------------------------------------------
# Guards on crafted inputs
# ---------------------------------------------------------------------------

def test_pole_of_a_word_at_a_cell_centre(genus2_group):
    # g2 = (17x - 16)/(8x - 7) has its pole at 7/8; a cell centred there
    pole_cell = Disc(F(7, 8), -2)
    profile = MeasureProfile(((pole_cell, F(1)),), (), 3)
    cfg = OperatorConfig(group=genus2_group, profile=profile, alpha_g=F(2),
                         cutoff_len=2)
    u = LevelFunction.from_mapping(2, {pole_cell: 1.0})
    with pytest.raises(PoleHit):
        apply_operator(cfg, u, F(7, 8) + 9)


def test_distance_zero_between_point_and_word_image(tate_group):
    # g1 = 9x maps the centre 1 of the second cell onto the base point 9
    cells = (Disc(F(0), -2), Disc(F(1), -2))
    profile = MeasureProfile(((Disc(F(0), 0), F(1)),), (), 3)
    cfg = OperatorConfig(group=tate_group, profile=profile, cutoff_len=2)
    u = LevelFunction.from_mapping(2, {cells[0]: 1.0, cells[1]: 0.0})
    with pytest.raises(CoincidentPoints):
        apply_operator(cfg, u, F(9))


def test_distance_zero_in_the_series(genus2_cfg):
    # 0 is the fixed point of g1, so g1 moves the centre of D(0, 3^-3) nowhere
    with pytest.raises(CoincidentPoints):
        delta_series(genus2_cfg, Disc(F(0), -3))


@pytest.mark.parametrize("centre", [F(7, 8), F(7, 8) + 9])
def test_image_wrapping_infinity(genus2_cfg, centre):
    # the pole 7/8 of g2 lies in the disc, at its centre or off it
    with pytest.raises(ChartNotSupported):
        delta_series(genus2_cfg, Disc(centre, -2))


# ---------------------------------------------------------------------------
# One fold per distinct (mass, histogram) entry
# ---------------------------------------------------------------------------

def ref_generator_per_pair(cfg, level, length):
    """The generator with one ``_fold`` per (state, state) pair."""
    p, states = cfg.p, state_discs(cfg.domain, cfg.profile, level)
    masses = [cfg.profile.density_at(d.center) * haar_measure(d, p) for d in states]
    hists = _group_histograms(cfg, length, [d.center for d in states], states)
    rows = []
    for i, row_hists in enumerate(hists):
        row = [_fold(cfg, cfg.mu_inverse() * mass, hist)
               for mass, hist in zip(masses, row_hists)]
        row[i] = simplify(-sum(row[:i] + row[i + 1:], F(0)))
        rows.append(tuple(row))
    return tuple(rows)


def test_generator_matrix_matches_per_pair_folds(case):
    cfg, length, _ = case
    gen = generator_matrix(cfg, 3)
    ref = ref_generator_per_pair(cfg, 3, length)
    assert gen.rows == ref
    assert [[type(v) for v in row] for row in gen.rows] == [
        [type(v) for v in row] for row in ref]
    if cfg.alpha.denominator > 1:
        assert any(isinstance(v, PowerSum) for row in gen.rows for v in row)


def test_generator_folds_each_distinct_entry_once(tate_cfg, monkeypatch):
    import mumford_heat.operator as operator
    calls = []
    honest = operator._fold

    def counting(cfg, coeff, hist):
        calls.append(coeff)
        return honest(cfg, coeff, hist)

    monkeypatch.setattr(operator, "_fold", counting)
    gen = generator_matrix(dataclasses.replace(tate_cfg, cutoff_len=6), 3)
    assert gen.size == 24 and 1 <= len(calls) <= 9


def test_generator_entries_keep_their_masses(tate_group):
    # x -> -x commutes with z -> 9z and swaps the pieces about 1 and 2, so
    # pairs with equal histograms meet different masses here
    profile = MeasureProfile(((Disc(F(1), -1), F(1)), (Disc(F(2), -1), F(2)),
                              (Disc(F(3), -2), F(3)), (Disc(F(6), -2), F(5))), (), 3)
    cfg = OperatorConfig(group=tate_group, profile=profile, cutoff_len=4)
    gen = generator_matrix(cfg, 2)
    assert gen.rows == ref_generator_per_pair(cfg, 2, 4)


# ---------------------------------------------------------------------------
# Counted subtrees: the pruned engine against the exhaustive walk
# ---------------------------------------------------------------------------

def walk_everything(monkeypatch):
    """Make the engine walk every reduced word, as it did before pruning."""
    monkeypatch.setattr(operator, "words_with_maps",
                        lambda group, length, prune=None: words_with_maps(group, length))


def walked_words(monkeypatch):
    """A list that the engine's walk appends each word it yields to."""
    walked = []

    def counting(group, length, prune=None):
        for item in words_with_maps(group, length, prune):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(operator, "words_with_maps", counting)
    return walked


def every_caller(cfg, level, chart):
    """What the four engine callers give at this level: the generator, and
    at a spread of supports and states the eigenvalue oracle, the
    (chart-shifted) multipliers, the series and the level-function
    quadrature."""
    states = state_discs(cfg.domain, cfg.profile, level)
    supports = admissible_supports(cfg.profile, level)
    u = LevelFunction.from_mapping(level, {d: complex(i % 3, i % 2 - 1)
                                           for i, d in enumerate(states)})
    out = {"generator": generator_matrix(cfg, level).rows,
           "level": [apply_operator(cfg, u, d.center, beta=chart)[0]
                     for d in states[::max(1, len(states) // 2)]]}
    for support in supports[::max(1, len(supports) // 3)]:
        children = [child.center for child in support.children(cfg.p)]
        out[support] = (lambda_exact(cfg, support).value,
                        _multipliers(cfg, support, children, cfg.cutoff(), chart),
                        dataclasses.astuple(delta_series(cfg, support)))
    return out


CHARTS = {"tate_cfg": GroupWord((-1,)), "genus2_cfg": GroupWord((-1, 2))}
VARIANTS = {"ambient": {}, "transport": {"mode": "transport"},
            "alpha1/2": {"alpha": F(1, 2)}, "alpha_g3/2": {"alpha_g": F(3, 2)}}
# every cutoff at level 2; the exhaustive walk grows as (2g-1)^L and the
# callers' work with the states, so levels 3 and 4 get fewer cutoffs.  The
# exponents do not enter the histograms, only their folds, so the
# fractional ones run at one level and cutoff per fixture.
PRUNE_GRID = [(name, level, length, variant)
              for name, by_level in (("tate_cfg", {2: range(1, 9), 3: (1, 4, 8), 4: (8,)}),
                                     ("genus2_cfg", {2: range(1, 9), 3: (1, 3, 5), 4: (4,)}))
              for level, lengths in by_level.items() for length in lengths
              for variant in ("ambient", "transport")]
PRUNE_GRID += [(name, 3, 4, variant) for name in ("tate_cfg", "genus2_cfg")
               for variant in ("alpha1/2", "alpha_g3/2")]


@pytest.mark.parametrize("name,level,length,variant", PRUNE_GRID,
                         ids=[f"{n}-m{lv}-L{ln}-{v}" for n, lv, ln, v in PRUNE_GRID])
def test_counted_subtrees_match_the_full_walk(request, monkeypatch, name, level, length,
                                              variant):
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=length,
                              **VARIANTS[variant])
    pruned = every_caller(cfg, level, CHARTS[name])
    walk_everything(monkeypatch)
    assert pruned == every_caller(cfg, level, CHARTS[name])


def full_walk_size(cfg, length):
    return sum(n for _, n in word_census(cfg.group.genus, length))


def test_genus2_walks_only_the_co_hole_chain(genus2_cfg, monkeypatch):
    # 13 121 reduced words of length <= 8 without pruning
    walked = walked_words(monkeypatch)
    generator_matrix(genus2_cfg, 3)
    g, length = genus2_cfg.group.genus, genus2_cfg.cutoff()
    assert length == 8 and len(walked) <= 1 + 2 * g * length


@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
def test_transformed_charts_prune_nothing(request, monkeypatch, name):
    # g1 = 9z moves F into its own target hole, so the chart's cells meet it
    base = dataclasses.replace(request.getfixturevalue(name), cutoff_len=4)
    datum = (RationalFunctionDatum.tate() if name == "tate_cfg"
             else RationalFunctionDatum.constant())
    phi = base.group.word_map(GroupWord((1,)))
    work = transformed_config(base, datum, phi)
    supports = [region_image(phi, s, base.p) for s in admissible_supports(base.profile, 3)]
    walked = walked_words(monkeypatch)
    pruned = [lambda_exact(work, s).value for s in supports]
    assert len(walked) == len(supports) * full_walk_size(work, 4)
    walk_everything(monkeypatch)
    assert pruned == [lambda_exact(work, s).value for s in supports]


def test_a_letter_missing_its_target_prunes_nothing(monkeypatch):
    # z -> 9z maps the complement of the co-hole onto D(0, 3^-2), which is
    # not inside the target hole D(0, 3^-3): counting g1's subtree at the
    # distance to 0 would be wrong for the point 36, 3^-3 from g1(1) = 9
    group = SchottkyGroup(p=3, generators=(MoebiusMap(9, 0, 0, 1),),
                          holes=(Disc(F(0), 0, complement=True), Disc(F(0), -3)),
                          outer=Disc(F(0), 0))
    cells = (Disc(F(1), -3), Disc(F(36), -3))
    profile = MeasureProfile(((Disc(F(1), -1), F(1)), (Disc(F(36), -3), F(1))), (), 3)
    cfg = OperatorConfig(group=group, profile=profile, cutoff_len=5)
    u = LevelFunction.from_mapping(3, {cells[0]: 1.0, cells[1]: 0.0})
    walked = walked_words(monkeypatch)
    pruned = apply_operator(cfg, u, F(36))
    assert len(walked) == full_walk_size(cfg, 5)
    walk_everything(monkeypatch)
    assert pruned == apply_operator(cfg, u, F(36))


def test_a_point_in_a_hole_keeps_the_subtrees_around_it(tate_cfg, monkeypatch):
    # the callers' points lie in their cells, off the holes; the engine
    # itself takes any point.  90 lies in g1's target D(0, 3^-2), so g1's
    # subtree is walked: its distances |90 - 9c| = |10 - c| / 9 vary with
    # the cell centre c.  90 lies outside g1(D(0, 3^-2)) = D(0, 3^-4),
    # which is counted.
    states = state_discs(tate_cfg.domain, tate_cfg.profile, 2)
    walked = walked_words(monkeypatch)
    pruned = _group_histograms(tate_cfg, 6, [F(90)], states)
    assert GroupWord((1,)) in walked and GroupWord((1, 1)) not in walked
    walk_everything(monkeypatch)
    assert pruned == _group_histograms(tate_cfg, 6, [F(90)], states)


# ---------------------------------------------------------------------------
# One group sum per (state, split ball)
# ---------------------------------------------------------------------------

def engine_pairs(monkeypatch):
    """A list that gets the number of (point, cell) pairs of each engine call."""
    handed = []
    honest = operator._group_histograms

    def counting(cfg, length, points, cells, *args, pairs=None, **kwargs):
        handed.append(len(points) * len(cells) if pairs is None else sum(map(len, pairs)))
        return honest(cfg, length, points, cells, *args, pairs=pairs, **kwargs)

    monkeypatch.setattr(operator, "_group_histograms", counting)
    return handed


def one_generator_group(generator, hole_exp):
    """Genus one with the co-hole |z| > 1 and the hole D(0, 3^hole_exp), and
    the constant density on F at resolution 3."""
    group = SchottkyGroup(p=3, generators=(generator,),
                          holes=(Disc(F(0), 0, complement=True), Disc(F(0), hole_exp)),
                          outer=Disc(F(0), 0))
    profile = build_profile(RationalFunctionDatum.constant(), group.fundamental_domain(), 3)
    return OperatorConfig(group=group, profile=profile, cutoff_len=5)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name,length", [("tate_cfg", 6), ("genus2_cfg", 3)])
def test_split_balls_match_per_pair_folds_at_level_4(request, name, length, variant):
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=length,
                              **VARIANTS[variant])
    gen = generator_matrix(cfg, 4)
    ref = ref_generator_per_pair(cfg, 4, length)
    assert gen.rows == ref
    assert np.array_equal(gen.matrix, np.array([[float(v) for v in row] for row in ref]))


@pytest.mark.parametrize("level,most", [(3, 156), (4, 612)])
def test_generator_counts_one_sum_per_split_ball(tate_cfg, monkeypatch, level, most):
    # one sum per state pair would be 24 * 23 = 552 and 72 * 71 = 5 112
    handed = engine_pairs(monkeypatch)
    generator_matrix(dataclasses.replace(tate_cfg, cutoff_len=6), level)
    assert len(handed) == 1 and handed[0] <= most


def test_a_pole_in_a_split_ball_splits_it(monkeypatch):
    # g = 9z/(18z + 1) maps D(0, 1) onto the hole D(0, 3^-2) and infinity to
    # 1/2, which lies in F: 1/2 is the pole of g^-1.  It lies in the balls
    # D(2, 3^-1) and D(5, 3^-2) and, off its centre 14, in the state
    # D(14, 3^-3).  The engine reports the pole, those balls are split down
    # to that state, and the rows stay the dense sums.
    cfg = one_generator_group(MoebiusMap(9, 0, 18, 1), -2)
    with pytest.raises(ChartNotSupported) as err:
        _group_histograms(cfg, 5, [F(1)], [Disc(F(2), -1)], whole_cells=[True])
    assert err.value.pole == F(1, 2)
    holding = []
    honest = operator._group_histograms

    def recording(cfg, length, points, cells, *args, **kwargs):
        holding.append([cell for cell in cells
                        if cell.radius_exp > -3 and cell.contains_point(F(1, 2), 3)])
        return honest(cfg, length, points, cells, *args, **kwargs)

    monkeypatch.setattr(operator, "_group_histograms", recording)
    gen = generator_matrix(cfg, 3)
    assert holding[0] and holding[-1] == [] and len(holding) == 2
    monkeypatch.undo()
    assert gen.rows == ref_generator_per_pair(cfg, 3, 5) == ref_generator_rows(cfg, 3, 5)


def test_a_pole_at_a_split_ball_centre_splits_it():
    # g = 9z/(9z + 1): the pole 1 of g^-1 is the centre of the ball
    # D(1, 3^-1) and of the state D(1, 3^-3); the ball is split, and the
    # state raises unless a zero core of the datum takes its place
    cfg = one_generator_group(MoebiusMap(9, 0, 9, 1), -2)
    with pytest.raises(PoleHit):
        generator_matrix(cfg, 3)
    cored = dataclasses.replace(cfg, profile=build_profile(
        RationalFunctionDatum(F(1), ((F(1), 1),)), cfg.domain, 2))
    assert generator_matrix(cored, 3).rows == ref_generator_per_pair(cored, 3, 5)


def test_a_pole_in_a_quadrature_cell_is_refused():
    # the same g: the pole 1/2 of g^-1 lies off the centre of the cell
    # D(2, 3^-1) of the wavelet and level-function quadratures, so the
    # distances from 1 to g^-1 of that cell are not all the centre's
    cfg = one_generator_group(MoebiusMap(9, 0, 18, 1), -2)
    support = Disc(F(1), -2)
    assert Disc(F(2), -1) in [cell for cell, _ in _wavelet_cells(cfg, support)]
    with pytest.raises(ChartNotSupported) as err:
        lambda_exact(cfg, support)
    assert err.value.pole == F(1, 2) and "GroupWord(g1')" in str(err.value)
    u = LevelFunction.from_mapping(1, {piece: float(k)
                                       for k, (piece, _) in enumerate(cfg.profile.pieces)})
    with pytest.raises(ChartNotSupported):
        apply_operator(cfg, u, F(1))


def test_a_group_off_the_certificate_sums_every_state_pair(monkeypatch):
    # z -> 9z + 9/2 maps D(0, 1) onto D(0, 3^-2), which is not inside the
    # hole D(0, 3^-3): without ping-pong no ball but a state is certified
    cfg = one_generator_group(MoebiusMap(18, 9, 0, 2), -3)
    handed = engine_pairs(monkeypatch)
    gen = generator_matrix(cfg, 3)
    assert handed == [gen.size * (gen.size - 1)]
    monkeypatch.undo()
    assert gen.rows == ref_generator_rows(cfg, 3, 5)


def test_a_chart_whose_states_meet_the_holes_sums_every_state_pair(tate_cfg, monkeypatch):
    # z -> z/9 maps F onto D(0, 9) minus D(0, 1), inside the co-hole: a
    # word may map a ball onto a disc around such a state, so the split
    # balls need the states off the holes, and every ball is a state
    base = dataclasses.replace(tate_cfg, cutoff_len=4)
    work = transformed_config(base, RationalFunctionDatum.tate(),
                              base.group.word_map(GroupWord((-1,))))
    handed = engine_pairs(monkeypatch)
    gen = generator_matrix(work, 2)
    assert handed == [gen.size * (gen.size - 1)]
    monkeypatch.undo()
    assert gen.rows == ref_generator_rows(work, 2, 4)
