"""The group-sum engine against a plain Fraction/abs_p reference of the same sums.

The reference walks the reduced words and evaluates every distance as a
rational with ``abs_p``, one ``PowerSum`` term per (word, cell) pair; the
engine's integer histograms must give values that are ``==`` to it.
"""

import contextlib
import dataclasses
import functools
import io
from fractions import Fraction as F
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import mumford_heat.operator as operator
from mumford_heat.cli import main
from mumford_heat.config import (ValidationError, bundled_fixture, config_from_dict,
                                 format_rational, parse_config)
from mumford_heat.exactnum import PowerSum
from mumford_heat.heat import (_laws, _semigroup, _solve_exact, resolvent_solve,
                               solve_cauchy, spectral_data, transition_matrix)
from mumford_heat.measure import (MeasureProfile, RationalFunctionDatum, UnalignedDisc,
                                  build_profile)
from mumford_heat.operator import (ChartNotSupported, CoincidentPoints,
                                   OperatorConfig, _fold, _group_histograms,
                                   _multipliers, _wavelet_cells, apply_operator,
                                   delta_series, generator_matrix, lambda_exact,
                                   simplify, transformed_config, wavelet_multiplier)
from mumford_heat.padic import (Disc, PoleHit, abs_p, disc_name, discs_disjoint,
                               haar_measure, valuation)
from mumford_heat.schottky import (DomainInvalid, GroupWord, MoebiusMap, SchottkyGroup,
                                   _split_balls, region_image, words_with_maps)
from mumford_heat.wavelets import LevelFunction, admissible_supports, state_discs
from conftest import TATE_DATUM, ball_discs, dense, ref_state_discs


def ref_sum(cfg, length, x, centre, skip_identity):
    """sum over l(w) <= length of p^(-alpha_g l(w)) |x - w c|^(-alpha)."""
    p, total = cfg.p, PowerSum(cfg.p)
    for word, mat in words_with_maps(cfg.group, length):
        if skip_identity and word.is_identity():
            continue
        dist = abs_p(x - mat.apply(centre), p)
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
            mass = cfg.profile.density_on(dk) * haar_measure(dk, p)
            entry = ref_sum(cfg, length, di.center, dk.center,
                            False).mul_power(cfg.mu_inverse() * mass, 0)
            row.append(simplify(entry))
            diag = diag + entry
        row[i] = simplify(-diag)
        rows.append(tuple(row))
    return tuple(rows)


def ref_multiplier(cfg, support, x, length):
    p = cfg.p
    local_exp = support.radius_exp * (1 - cfg.alpha)
    total = PowerSum(p).add_term(-cfg.profile.density_on(support), local_exp)
    for cell, dens in _wavelet_cells(cfg, support):
        part = ref_sum(cfg, length, x, cell.center, cell == support)
        total = total + part.scaled(-dens * haar_measure(cell, p))
    return simplify(total.mul_power(cfg.mu_inverse(), 0))


def ref_level_apply(cfg, u, x, length):
    """The level-function quadrature, term by term in complex floats."""
    p = cfg.p
    ux, total = u.value_at(x, p), 0j
    for word, mat in words_with_maps(cfg.group, length):
        for cell, val in u.values:
            if word.is_identity() and cell.contains_point(x, p):
                continue
            dist = abs_p(x - mat.apply(cell.center), p)
            mass = cfg.profile.density_on(cell) * haar_measure(cell, p)
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


# (fixture, alpha, alpha_g, cutoff length); 3^(3/2) > 4 keeps the genus-2
# growth condition at alpha_g = 3/2
CASES = [
    ("tate_cfg", F(1), F(1), 6),
    ("tate_cfg", F(1, 2), F(1), 6),
    ("genus2_cfg", F(1), F(2), 3),
    ("genus2_cfg", F(1), F(3, 2), 3),
]


@pytest.fixture(params=[(c, mode) for c in CASES for mode in ("ambient", "transport")],
                ids=lambda cm: f"{cm[0][0]}-a{cm[0][1]}-ag{cm[0][2]}-{cm[1]}")
def case(request):
    (name, alpha, alpha_g, length), mode = request.param
    cfg = dataclasses.replace(request.getfixturevalue(name), alpha=alpha,
                              alpha_g=alpha_g, mode=mode, cutoff_len=length)
    return cfg, length


def test_generator_matrix_matches_reference(case):
    cfg, length = case
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
    cfg, length = case
    for support in admissible_supports(cfg.profile, 3):
        children = [child.center for child in support.children(cfg.p)]
        assert lambda_exact(cfg, support).value == simplify(
            -ref_multiplier(cfg, support, children[0], length))
        for x in children:
            mult, _ = wavelet_multiplier(cfg, support, x)
            assert mult == ref_multiplier(cfg, support, x, length)


def test_level_function_quadrature_matches_reference(case):
    # the engine sums each cell exactly before the one conversion to float,
    # so it agrees with the term-by-term float sum to rounding only
    cfg, length = case
    states = state_discs(cfg.domain, cfg.profile, 2)
    u = LevelFunction.from_mapping(2, {d: complex(i % 3, i % 2 - 1)
                                       for i, d in enumerate(states)})
    for d in states:
        value, _ = apply_operator(cfg, u, d.center)
        assert value == pytest.approx(ref_level_apply(cfg, u, d.center, length),
                                      rel=1e-12, abs=1e-12)


def test_delta_series_matches_reference(case):
    cfg, _ = case
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
    masses = [cfg.profile.density_on(d) * haar_measure(d, p) for d in states]
    hists = _group_histograms(cfg, length, [d.center for d in states], states)
    rows = []
    for i, row_hists in enumerate(hists):
        row = [_fold(cfg, cfg.mu_inverse() * mass, hist)
               for mass, hist in zip(masses, row_hists)]
        row[i] = simplify(-sum(row[:i] + row[i + 1:], F(0)))
        rows.append(tuple(row))
    return tuple(rows)


def test_generator_matrix_matches_per_pair_folds(case):
    cfg, length = case
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


def every_caller(cfg, level):
    """What the four engine callers give at this level: the generator, and
    at a spread of supports and states the eigenvalue oracle, the
    multipliers, the series and the level-function quadrature."""
    states = state_discs(cfg.domain, cfg.profile, level)
    supports = admissible_supports(cfg.profile, level)
    u = LevelFunction.from_mapping(level, {d: complex(i % 3, i % 2 - 1)
                                           for i, d in enumerate(states)})
    out = {"generator": generator_matrix(cfg, level).rows,
           "level": [apply_operator(cfg, u, d.center)[0]
                     for d in states[::max(1, len(states) // 2)]]}
    for support in supports[::max(1, len(supports) // 3)]:
        children = [child.center for child in support.children(cfg.p)]
        out[support] = (lambda_exact(cfg, support).value,
                        _multipliers(cfg, support, children, cfg.cutoff()),
                        tuple(delta_series(cfg, support)))
    return out


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
    pruned = every_caller(cfg, level)
    walk_everything(monkeypatch)
    assert pruned == every_caller(cfg, level)


@st.composite
def schottky_figures(draw):
    """(operator config, level) of a random Schottky figure over p <= 7 of
    genus g <= 3 in the outer disc D(0, 1), parsed by ``config_from_dict``.

    Letter 1, z -> t + p^k z, maps D(0, 1), the complement of the co-hole
    |z| > 1, onto D(t, p^-k).  Letter i > 1, z -> b + c/(z - a) with
    v_p(c) = m + n - 1, maps the complement of D(a, p^-m) onto D(b, p^-n),
    and is hyperbolic as the two discs are disjoint.  The 2g - 1 plain holes
    have integer centres below p^3, distinct mod p^R, and radii p^-r with
    r <= R above v_p of every difference of centres, so they are disjoint.
    The datum is constant at the finest hole's resolution, which is the
    level; alpha = 1, alpha_g is the least integer with p^alpha_g > 2g, and
    the cutoff length is 3.  Figures with 3 to 40 states are kept."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    g = draw(st.integers(1, 3))
    top = draw(st.sampled_from([r for r in (1, 2, 3) if 2 * g - 1 <= p ** r <= 49]))
    residues = draw(st.lists(st.integers(0, p ** top - 1), min_size=2 * g - 1,
                             max_size=2 * g - 1, unique=True))
    centres = [r + p ** top * draw(st.integers(0, p ** (3 - top) - 1)) for r in residues]
    exps = [draw(st.integers(1 + max((valuation(c - d, p) for d in centres if d != c),
                                     default=0), top)) for c in centres]
    (t, k), pairs = (centres[0], exps[0]), list(zip(centres[1:], exps[1:]))
    generators = [[[p ** k, t], [0, 1]]]
    for (a, m), (b, n) in zip(pairs[::2], pairs[1::2]):
        unit = draw(st.integers(1, p - 1)) + p * draw(st.integers(-p, p))
        c = unit * p ** (m + n - 1)
        generators.append([[b, c - a * b], [1, -a]])
    plain = [(t, k)] + pairs[::2] + pairs[1::2]
    holes = ([{"center": "0", "radius_exp": 0, "complement": True}] + plain[1:g]
             + [plain[0]] + plain[g:])
    alpha_g = next(a for a in range(1, 4) if p ** a > 2 * g)
    resolution = max(exps)
    raw = {"field": {"p": p},
           "group": {"generators": [[[str(v) for v in row] for row in m] for m in generators],
                     "outer": {"center": "0", "radius_exp": 0},
                     "holes": [h if isinstance(h, dict) else
                               {"center": str(h[0]), "radius_exp": -h[1]} for h in holes]},
           "measure": {"datum": {"scale": "1", "factors": []}, "resolution": resolution},
           "operator": {"alpha": "1", "alpha_g": str(alpha_g), "cutoff": {"len": 3}},
           "run": {"level": resolution}}
    try:
        cfg = config_from_dict(raw).operator
    except ValidationError as exc:
        assert "the holes cover the outer disc" in str(exc), exc  # disjoint, yet F is empty
        reject()
    if not 3 <= len(state_discs(cfg.domain, cfg.profile, resolution)) <= 40:
        reject()
    return cfg, resolution


@settings(max_examples=40, deadline=None)
@given(figure=schottky_figures())
def test_random_figures_match_the_references(figure):
    """On random Schottky figures: every engine caller pruned and with every
    word walked, the generator's rows, built from its tree, against one fold
    per state pair; the tree's dimension count and trace identity; the
    next level's tree, cut at this level's radius, against this one; the
    multiresolution resolvent against the dense exact solve; the heat flow,
    the validation law and P_t, read from the split balls, against the
    dense semigroup; and ``spectral_data`` against the dense solve."""
    cfg, level = figure
    pruned = every_caller(cfg, level)
    with pytest.MonkeyPatch.context() as mp:
        walk_everything(mp)
        assert pruned == every_caller(cfg, level)
    gen = generator_matrix(cfg, level)
    assert gen.states == tuple(state_discs(cfg.domain, cfg.profile, level))
    ref = ref_generator_per_pair(cfg, level, 3)
    assert gen.rows == ref  # derived from the tree's densities
    assert_tree_accounts_for_the_states_and_the_trace(gen)
    assert_the_tower_is_structural(gen, generator_matrix(cfg, level + 1))
    h = [F(i % 3 - 1, i + 2) for i in range(gen.size)]
    system = [[int(i == k) - gen.rows[i][k] for k in range(gen.size)] for i in range(gen.size)]
    assert resolvent_solve(gen, F(1), h) == _solve_exact(system, h)
    times = [1e-6, 0.3, 1.0, 7.0, 50.0]
    flow = solve_cauchy(gen, h, times).values
    laws = _laws(gen, 0, times)
    for k, t in enumerate(times):
        p = _semigroup(dense(gen), t)
        assert np.max(np.abs(transition_matrix(gen, t).matrix - p)) < 1e-12
        assert np.max(np.abs(flow[k] - p @ [float(v) for v in h])) < 1e-12
        assert np.max(np.abs(laws[k] - p[0])) < 1e-12
    assert_spectral_data_matches_the_dense_solve(cfg, gen)


def assert_spectral_data_matches_the_dense_solve(cfg, gen):
    """``spectral_data``'s basis^-1 Q basis, Q basis from one tree descent,
    against solve(basis, dense(gen) @ basis) on the basis it solved in."""
    bases, honest = [], np.linalg.solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", lambda a, b: bases.append(a) or honest(a, b))
        data = spectral_data(cfg, gen)
    (basis,) = bases
    assert np.max(np.abs(data.triangular - honest(basis, dense(gen) @ basis))) < 1e-12


def full_walk_size(cfg, length):
    g = cfg.group.genus
    return 1 + sum(2 * g * (2 * g - 1) ** (ell - 1) for ell in range(1, length + 1))


def test_genus2_walks_only_the_co_hole_chain(genus2_cfg, monkeypatch):
    # 13 121 reduced words of length <= 8 without pruning
    walked = walked_words(monkeypatch)
    generator_matrix(genus2_cfg, 3)
    g, length = genus2_cfg.group.genus, genus2_cfg.cutoff()
    assert length == 8 and len(walked) <= 1 + 2 * g * length


@pytest.mark.parametrize("name,letters", [
    pytest.param("tate_cfg", (1,), id="tate_cfg"),
    pytest.param("genus2_cfg", (1,), id="genus2_cfg"),
    pytest.param("tate_cfg", (-1,), id="tate_cfg-z/9 chart"),
])
def test_transformed_charts_prune_nothing(request, monkeypatch, name, letters):
    # g1 = 9z moves F into its own target hole, so the chart's cells meet
    # it; z/9 moves F into the co-hole, and its points have 9 in the
    # denominator, which the engine's valuations must take out
    base = dataclasses.replace(request.getfixturevalue(name), cutoff_len=4)
    datum = (TATE_DATUM if name == "tate_cfg"
             else RationalFunctionDatum.constant())
    phi = base.group.word_map(GroupWord(letters))
    work = transformed_config(base, datum, phi)
    supports = [region_image(phi, s, base.p) for s in admissible_supports(base.profile, 3)]
    walked = walked_words(monkeypatch)
    pruned = [lambda_exact(work, s).value for s in supports]
    assert len(walked) == len(supports) * full_walk_size(work, 4)
    walk_everything(monkeypatch)
    assert pruned == [lambda_exact(work, s).value for s in supports]


def test_a_letter_missing_its_target_is_refused(pairing_faults):
    # z -> 9z maps the complement of the co-hole onto D(0, 3^-2), which is
    # not the target hole D(0, 3^-3): counting g1's subtree at the distance
    # to 0 would be wrong for the point 36, 3^-3 from g1(1) = 9
    with pytest.raises(DomainInvalid) as err:
        one_generator_group(MoebiusMap(9, 0, 0, 1), -3)
    assert str(err.value) == pairing_faults(
        (1, Disc(F(0), -2), Disc(F(0), -3)),
        (-1, Disc(F(0), -1, complement=True), Disc(F(0), 0, complement=True)))


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
# One group sum per pair of maximal split balls
# ---------------------------------------------------------------------------

def engine_pairs(monkeypatch):
    """A list that gets the number of (point, cell) pairs of each engine call."""
    handed = []
    honest = operator._group_histograms

    def counting(cfg, length, points, cells, *args, **kwargs):
        handed.append(len(points) * len(cells))
        return honest(cfg, length, points, cells, *args, **kwargs)

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


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
def test_the_states_are_the_state_discs_in_centre_order(request, name, level):
    # _split_balls walks the disc tree in its own order; the generator's
    # states and wavelets.state_discs must still be the discs of the
    # reference walk on Disc.children, sorted by centre
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=3)
    states = tuple(ref_state_discs(cfg.domain, cfg.profile, level))
    assert states == tuple(sorted(states, key=lambda d: d.center))
    assert tuple(state_discs(cfg.domain, cfg.profile, level)) == states
    assert generator_matrix(cfg, level).states == states


def ref_split_balls(cfg, level, poles):
    """The split-ball walk on ``Disc``s with ``Fraction`` centres: (states in
    centre order, order, balls, spans, per ball its children, tops), the
    reference of ``operator._split_balls``'s walk on integer addresses."""
    p, domain, holes = cfg.p, cfg.domain, (*cfg.domain.holes, *cfg.group.holes)
    states, balls, spans, children = [], [], [], []

    def walk(disc, off):  # -> indices of the balls tiling the states in disc
        start = len(states)
        if not off:  # else an ancestor is off every hole, and so is disc
            if any(h.contains(disc, p) for h in domain.holes):
                return []
            off = all(discs_disjoint(disc, h, p) for h in holes)
        if disc.radius_exp <= -level:
            if not (disc.radius_exp == -level and (off or domain.contains_disc(disc)) and all(
                    discs_disjoint(disc, core, p) for core in cfg.profile.zero_cores)):
                return []
            if not off:  # in the domain, so it meets a hole of the group
                raise ChartNotSupported(
                    f"the state {disc_name(disc, p)} meets a hole of the group")
            tiles, whole = [], True
            states.append(disc)
        else:
            tiles = [k for child in disc.children(p) for k in walk(child, off)]
            whole = off and not any(disc.contains_point(z, p) for z in poles)
        if len(states) > start and whole:
            balls.append(disc)
            spans.append((start, len(states)))
            children.append(tiles)
            tiles = [len(balls) - 1]
        return tiles

    tops = walk(domain.outer, False)
    by_centre = sorted(range(len(states)), key=lambda i: states[i].center)
    order = [0] * len(states)  # per walked state, its index in centre order
    for new, old in enumerate(by_centre):
        order[old] = new
    return [states[i] for i in by_centre], order, balls, spans, children, tops


@settings(max_examples=40, deadline=None)
@given(figure=schottky_figures(), data=st.data())
def test_the_address_walk_matches_the_disc_walk(figure, data):
    """On random Schottky figures, as given or moved by an affine chart,
    with poles drawn among the state centres and the points 1/p^k: the same
    states, centre order, balls, spans, children and tops as the walk on
    discs, or the same refusal of a state that meets a hole of the group;
    the masses are density times Haar measure, and each state's formatted
    centre is its disc's."""
    cfg, level = figure
    p = cfg.p
    chart = data.draw(st.sampled_from([None, MoebiusMap(p, 1, 0, p), MoebiusMap(1, 0, 0, p),
                                       MoebiusMap(p * p, 1, 0, p)]))
    if chart is not None:  # z + 1/p, z/p or p z + 1/p: an outer disc off 0 or wider
        cfg = transformed_config(cfg, RationalFunctionDatum.constant(), chart)
    states = state_discs(cfg.domain, cfg.profile, level)
    poles = data.draw(st.lists(st.sampled_from([d.center for d in states]
                                               + [F(1, p ** k) for k in range(3)]),
                               max_size=2, unique=True))
    walk = functools.partial(_split_balls, cfg.domain, cfg.profile, level, cfg.group.holes)
    try:
        ref_states, *ref_tree = ref_split_balls(cfg, level, poles)
    except ChartNotSupported as refused:
        with pytest.raises(ChartNotSupported) as err:
            walk(poles)
        assert str(err.value) == str(refused)
        return
    keys, *tree, found = walk(poles)
    order, depths, spans, children, tops = tree
    masses = [cfg.profile.pieces[i][1] * F(p) ** -level for i in found]
    gen = operator.GeneratorMatrix(level, p, cfg.domain.outer, tuple(keys), tuple(masses),
                                   3, tuple(depths), tuple(order), tuple(spans),
                                   tuple(children), tuple(F(1) if kids else None
                                                          for kids in children), tuple(tops),
                                   ((F(0),) * len(tops),) * len(tops))
    assert gen.states == tuple(ref_states) == tuple(states)
    assert [order, ball_discs(gen), spans, [list(kids) for kids in children], tops] == ref_tree
    assert masses == [cfg.profile.density_on(d) * haar_measure(d, p) for d in states]
    assert list(map(format_rational, gen.centers())) == [format_rational(d.center)
                                                        for d in states]


def test_the_generator_makes_no_disc_per_state(tate_cfg, monkeypatch):
    # a timing-free guard on the address walk: the build makes the tops'
    # cells and the engine's images, the same discs at 24 states as at 648
    made, honest = [], Disc.__post_init__
    monkeypatch.setattr(Disc, "__post_init__", lambda disc: made.append(1) or honest(disc))
    counts = []
    for level in (3, 6):
        made.clear()
        gen = generator_matrix(tate_cfg, level)
        counts.append(len(made))
    assert gen.size == 648 and counts[0] == counts[1] < gen.size // 8


def test_the_listings_make_one_disc_per_disc_listed(monkeypatch):
    # the same guard on state_discs and admissible_supports: they read
    # integer addresses and centres, and build only the discs they return
    cfg = parse_config(bundled_fixture("tate-p3")).operator_config()
    made, honest = [], Disc.__post_init__
    monkeypatch.setattr(Disc, "__post_init__", lambda disc: made.append(1) or honest(disc))
    for listing in (lambda: state_discs(cfg.domain, cfg.profile, 6),
                    lambda: admissible_supports(cfg.profile, 6)):
        made.clear()
        assert len(listing()) == len(made) > 100


def test_a_state_in_no_piece_is_listed_and_refused(tate_cfg):
    # D(1, 3^-1) gives way to two of its children, so the state D(7, 3^-2)
    # lies in no piece: state_discs still lists it, and the generator
    # refuses it, named as the docs name discs
    dens = tate_cfg.profile.density_on(Disc(F(1), -1))
    pieces = [(d, c) for d, c in tate_cfg.profile.pieces if d != Disc(F(1), -1)]
    profile = tate_cfg.profile._replace(
        pieces=(*pieces, (Disc(F(1), -2), dens), (Disc(F(4), -2), dens)))
    cfg = dataclasses.replace(tate_cfg, profile=profile, cutoff_len=4)
    assert Disc(F(7), -2) in state_discs(cfg.domain, profile, 2)
    with pytest.raises(UnalignedDisc) as err:
        generator_matrix(cfg, 2)
    assert str(err.value) == "the level-2 state D(7, 3^-2) lies in no piece"


@pytest.mark.parametrize("argv", [["evolve", "--initial", "wavelet"],
                                  ["evolve", "--initial", "indicator"], ["resolvent"]],
                         ids=["evolve-wavelet", "evolve-indicator", "resolvent"])
def test_the_heat_commands_make_no_disc_per_state(tmp_path, monkeypatch, argv):
    # the same guard over a whole command: h and u stay in state order, so
    # the command makes as many discs at 24 states as at 648
    made, honest = [], Disc.__post_init__
    monkeypatch.setattr(Disc, "__post_init__", lambda disc: made.append(1) or honest(disc))
    counts = []
    for level in (3, 6):
        made.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "-c", str(bundled_fixture("tate-p3")), "--level", str(level),
                         "-o", str(tmp_path / str(level))]) == 0
        counts.append(len(made))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("level", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
def test_lambda_is_one_value_per_top_and_depth(request, name, level):
    # lambda_B depends on B through its top M and its depth alone, and at
    # alpha = 1 each depth adds exactly s_M = mu(F)^-1 rho_M (1 - 1/p), rho_M
    # the |omega| density on M: 9/4 and 3/4 on tate-p3, 3/2 on genus2-p3
    cfg = request.getfixturevalue(name)
    gen, by = generator_matrix(cfg, level), {}
    assert cfg.alpha == 1
    for t, (a, b) in enumerate(pairwise([-1, *gen.tops])):  # top t's balls follow top t - 1's
        for k in range(a + 1, b + 1):
            if k in gen.lam:
                by.setdefault((t, gen.depths[k]), set()).add(gen.lam[k])
    assert all(len(values) == 1 for values in by.values())
    steps, tops = set(), ball_discs(gen)
    for (t, depth), (lam,) in by.items():
        if (t, depth + 1) in by:
            (deeper,) = by[t, depth + 1]
            rho = cfg.profile.density_on(tops[gen.tops[t]])
            assert deeper - lam == cfg.mu_inverse() * rho * (1 - F(1, cfg.p))
            steps.add(deeper - lam)
    expected = {F(9, 4), F(3, 4)} if name == "tate_cfg" else {F(3, 2)}
    assert steps == expected if level >= 4 else steps <= expected


@pytest.mark.parametrize("level", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
def test_generator_counts_one_sum_per_pair_of_maximal_balls(request, monkeypatch,
                                                              name, level):
    # k = 4 maximal balls at every level, so k^2 = 16 sums, where one per
    # pair of states would grow as the square of the state count
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=4)
    handed = engine_pairs(monkeypatch)
    gen = generator_matrix(cfg, level)
    assert handed == [16] == [len(gen.tops) ** 2]


def assert_tree_accounts_for_the_states_and_the_trace(gen):
    """Exactly: the cells and the #children(B) - 1 wavelets of each split
    ball B that is not a state number the states, and
    tr Q = tr Q_c - sum_B (#children(B) - 1) * lambda_B.  The tops' members
    list every state once, and a ball's are its children's in order."""
    members = [gen.order[lo:hi] for lo, hi in gen.spans]
    assert sorted(x for a in gen.tops for x in members[a]) == list(range(gen.size))
    for ins, kids in zip(members, gen.children):
        assert not kids or list(ins) == [x for k in kids for x in members[k]]
    chain, lam = gen.q, gen.lam
    wavelets = {b: len(gen.children[b]) - 1 for b in lam}
    assert len(gen.tops) + sum(wavelets.values()) == gen.size
    trace = sum((row[i] for i, row in enumerate(gen.rows)), F(0))
    assert trace + sum((k * lam[b] for b, k in wavelets.items()), F(0)) == sum(
        (row[i] for i, row in enumerate(chain)), F(0))


@pytest.mark.parametrize("alpha", [F(1), F(1, 2)], ids=["alpha1", "alpha1/2"])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("name,length", [("tate_cfg", 6), ("genus2_cfg", 4)])
def test_the_tree_accounts_for_the_states_and_the_trace(request, name, length, level, alpha):
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=length, alpha=alpha)
    assert_tree_accounts_for_the_states_and_the_trace(generator_matrix(cfg, level))


def assert_the_tower_lumps(p, coarse, fine):
    """Strong lumpability, exactly: from each level-(m+1) state y, the rates
    into the states of a level-m state X other than y's parent add up to
    Q_m[parent(y)][X]."""
    parent = [next(i for i, x in enumerate(coarse.states) if x.contains(y, p))
              for y in fine.states]
    for y, row in enumerate(fine.rows):
        into = [F(0)] * coarse.size
        for z, rate in enumerate(row):
            into[parent[z]] = into[parent[z]] + rate
        assert all(simplify(total) == coarse.rows[parent[y]][x]
                   for x, total in enumerate(into) if x != parent[y])


def assert_the_tower_is_structural(coarse, fine):
    """Level m's tree is level m + 1's cut at radius p^-m: the same tops,
    cross table and cell chain, the balls of radius at least p^-m, and the
    same density on each ball with children at both levels."""
    coarse_balls, fine_balls = ball_discs(coarse), ball_discs(fine)
    assert [coarse_balls[t] for t in coarse.tops] == [fine_balls[t] for t in fine.tops]
    assert coarse.cross == fine.cross and coarse.q == fine.q
    assert set(coarse_balls) == {b for b in fine_balls if b.radius_exp >= -coarse.level}
    density = dict(zip(fine_balls, fine.density))
    assert all(d == density[b] for b, d in zip(coarse_balls, coarse.density) if d is not None)


@pytest.fixture(scope="module")
def tate_zero_cfg(tate_cfg):
    """tate-p3 with one more zero of omega, at 1, so a zero core in F."""
    datum = RationalFunctionDatum(F(1), ((F(0), -1), (F(1), 1)))
    return dataclasses.replace(tate_cfg, profile=build_profile(datum, tate_cfg.domain, 3))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name,level", [
    ("tate_cfg", 2), ("tate_cfg", 3), ("tate_cfg", 4), ("genus2_cfg", 2), ("genus2_cfg", 3),
    ("genus2_cfg", 4), ("tate_zero_cfg", 3), ("tate_zero_cfg", 4)])
def test_each_level_is_an_exact_projection_of_the_next(request, name, level, variant):
    cfg = dataclasses.replace(request.getfixturevalue(name), cutoff_len=6, **VARIANTS[variant])
    coarse, fine = generator_matrix(cfg, level), generator_matrix(cfg, level + 1)
    assert_the_tower_is_structural(coarse, fine)
    if level < 4:  # the dense rows of level 5 take seconds, more than all the rest
        assert_the_tower_lumps(cfg.p, coarse, fine)


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


def test_a_group_off_the_certificate_is_refused(pairing_faults):
    # z -> 9z + 9/2 maps D(0, 1) onto D(0, 3^-2), which is not inside the
    # hole D(0, 3^-3): the point 1/2 of F maps onto the point 9 of F, where
    # the tail bound assumes |x - gamma y| >= 1/9 for x, y in F
    with pytest.raises(DomainInvalid) as err:
        one_generator_group(MoebiusMap(18, 9, 0, 2), -3)
    assert str(err.value) == pairing_faults(
        (1, Disc(F(9, 2), -2), Disc(F(0), -3)),
        (-1, Disc(F(-1, 2), -1, complement=True), Disc(F(0), 0, complement=True)))


def test_a_chart_whose_states_meet_the_holes_is_refused(tate_cfg, monkeypatch):
    # z -> z/9 maps F onto D(0, 9) minus D(0, 1), inside the co-hole: a
    # word may map a ball onto a disc around such a state, so the split-ball
    # lemma fails there, and the generator is refused before any group sum
    base = dataclasses.replace(tate_cfg, cutoff_len=4)
    work = transformed_config(base, TATE_DATUM,
                              base.group.word_map(GroupWord((-1,))))
    handed = engine_pairs(monkeypatch)
    with pytest.raises(ChartNotSupported, match="meets a hole of the group") as err:
        generator_matrix(work, 2)
    assert handed == []
    # the refused state is named as the docs name discs, D(centre, p^radius_exp)
    assert str(err.value) == "the state D(1/3, 3^-2) meets a hole of the group"
    assert Disc(F(1, 3), -2) in state_discs(work.domain, work.profile, 2)
