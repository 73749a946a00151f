"""The eigenvalue series: the walk of the group-sum engine plus its exact tail.

The genus-one values below were computed by the per-branch closed form that
the exact tail replaced; they are asserted ``==``.
"""

import contextlib
import dataclasses
import io
from fractions import Fraction as F

import pytest

from mumford_heat import Disc, GroupWord, MoebiusMap, RationalFunctionDatum
from mumford_heat.cli import main
from mumford_heat.operator import (_closed_tail, _fold, _group_histograms, _group_tail,
                                   delta_series, lambda_exact, lambda_formula,
                                   lambda_transform, spectrum, transformed_config)
from mumford_heat.schottky import region_image
from mumford_heat.wavelets import admissible_supports

# (mode, level, chart letters) -> [(radius exponent, density, lambda_formula)]
TATE_CLASSES = {
    ("ambient", 2, ()): [(-1, "1", "15/26")],
    ("ambient", 2, (1,)): [(-3, "9", "513/26")],
    ("ambient", 3, ()): [(-2, "1", "5/26"), (-2, "3", "51/52"), (-1, "1", "15/26")],
    ("ambient", 3, (1,)): [(-4, "9", "171/26"), (-4, "27", "2727/52"), (-3, "9", "513/26")],
    ("ambient", 4, ()): [(-3, "1", "5/78"), (-3, "3", "17/52"), (-2, "1", "5/26"),
                         (-2, "3", "51/52"), (-1, "1", "15/26")],
    ("ambient", 4, (1,)): [(-5, "9", "57/26"), (-5, "27", "909/52"), (-4, "9", "171/26"),
                           (-4, "27", "2727/52"), (-3, "9", "513/26")],
}
for (_, level, letters), row in list(TATE_CLASSES.items()):
    # transport mode keeps the base spectrum, with or without a chart
    TATE_CLASSES["transport", level, letters] = TATE_CLASSES["ambient", level, ()]

# lambda_transform under the chart z -> 9z, by (radius exponent, support centre)
TATE_TRANSFORM = {"57/26": [(-1, c) for c in (1, 2)],
                  "19/26": [(-2, c) for c in (1, 2, 4, 5, 7, 8)],
                  "909/52": [(-2, c) for c in (3, 6)],
                  "19/78": [(-3, c) for c in range(1, 27) if c % 3],
                  "303/52": [(-3, c) for c in (3, 6, 12, 15, 21, 24)]}


@pytest.mark.parametrize("mode,level,letters", sorted(TATE_CLASSES))
def test_genus_one_classes_keep_their_closed_form(tate_cfg, tate_datum, mode, level,
                                                  letters):
    cfg = dataclasses.replace(tate_cfg, mode=mode)
    chart = GroupWord(letters) if letters else None
    result = spectrum(cfg, level, chart=chart, datum=tate_datum)
    work = cfg
    if chart is not None and mode == "ambient":
        work = transformed_config(cfg, tate_datum, cfg.group.word_map(chart))
    got = []
    for entry in result.entries:
        value = entry.lam_formula
        assert value.is_exact and value.lo == value.value == value.hi
        assert value.cutoff is None
        assert {lambda_formula(work, w).value for w in entry.witnesses} == {value.value}
        got.append((entry.radius_exp, str(entry.density), str(value.value)))
    assert got == TATE_CLASSES[mode, level, letters]


def test_genus_one_chart_images_keep_their_closed_form(tate_cfg, tate_datum):
    phi = tate_cfg.group.letter_map(1)
    expected = {(rexp, F(c)): F(value) for value, discs in TATE_TRANSFORM.items()
                for rexp, c in discs}
    supports = admissible_supports(tate_cfg.profile, 4)
    assert sorted((s.radius_exp, s.center) for s in supports) == sorted(expected)
    for support in supports:
        value = lambda_transform(tate_cfg, phi, support, tate_datum)
        assert value.is_exact and value.lo == value.value == value.hi
        assert value.value == expected[support.radius_exp, support.center]


# ---------------------------------------------------------------------------
# The exact tail against the truncated walk
# ---------------------------------------------------------------------------

def partial_sum(cfg, support, length, runs=None, frontier=None):
    """1 + the engine's truncated series at this length."""
    (hist,), = _group_histograms(cfg, length, [support.center], [support],
                                 runs=runs, frontier=frontier)
    return _fold(cfg, F(1), hist) + 1


def tate_chart(tate_cfg, tate_datum):
    """The audit's chart z -> 9z of tate-p3 and the images of its supports."""
    phi = tate_cfg.group.letter_map(1)
    return (transformed_config(tate_cfg, tate_datum, phi),
            [region_image(phi, s, tate_cfg.p) for s in admissible_supports(tate_cfg.profile, 3)])


@pytest.fixture
def certified(request, tate_cfg, tate_datum):
    if request.param == "tate_chart":
        return tate_chart(tate_cfg, tate_datum)
    cfg = request.getfixturevalue(request.param)
    return cfg, admissible_supports(cfg.profile, 3)


# the closed values over the supports at level 3
CLOSED = {"tate_cfg": {"20/13", "34/13"}, "tate_chart": {"76/13", "202/13"},
          "genus2_cfg": {"15/8", "37/20"}, "p5_cfg": {"78/31", "141/31", "140/31"}}


@pytest.mark.parametrize("certified", sorted(CLOSED), indirect=True)
def test_the_closed_series_is_the_same_at_every_cutoff(certified, request):
    # delta_series closes after one word; the walk to each L closes alike
    cfg, supports = certified
    seen = set()
    for support in supports:
        series = delta_series(cfg, support)
        assert series.is_exact and series.cutoff is None
        assert series.lo == series.value == series.hi
        for length in range(1, 11):
            runs, frontier = [], []
            partial = partial_sum(cfg, support, length, runs, frontier)
            tail = _closed_tail(cfg, length, support, runs, frontier)
            assert partial + tail == series.value
            assert partial <= series.value <= partial + _group_tail(cfg, length)
        seen.add(series.value)
    assert {str(v) for v in seen} == CLOSED[request.node.callspec.params["certified"]]


@pytest.mark.parametrize("name,change", [("tate_cfg", {"alpha": F(1, 2)}),
                                         ("genus2_cfg", {"alpha": F(1, 2)}),
                                         ("genus2_cfg", {"alpha_g": F(3, 2)}),
                                         ("p5_cfg", {"alpha": F(1, 2)}),
                                         ("genus2_cfg", "chart")])
def test_uncertified_series_keep_the_truncated_sum(request, name, change):
    cfg = request.getfixturevalue(name)
    supports = admissible_supports(cfg.profile, 3)
    if change == "chart":
        # g1 = 9z moves the supports into a hole: nothing is counted, and a
        # frontier word has other children than its chain
        phi = cfg.group.letter_map(1)
        cfg = transformed_config(cfg, RationalFunctionDatum.constant(), phi)
        supports = [region_image(phi, s, cfg.p) for s in supports]
        change = {}
    for length in (3, 5):
        at = dataclasses.replace(cfg, cutoff_len=length, **change)
        for support in supports[:2]:
            series = delta_series(at, support)
            partial = partial_sum(at, support, length)
            lo, hi = (partial, partial) if isinstance(partial, F) else partial.bounds()
            assert not series.is_exact and series.cutoff == length
            assert (series.value, series.lo, series.hi) == (
                partial, lo, hi + _group_tail(at, length))


def test_lambda_formula_varies_within_a_genus2_class(genus2_cfg):
    # one spectrum class (radius 3^-2, density 1) at level 3, yet two closed
    # values: the oracle is the same on all four discs, the series is not
    by_centre = {3: F(15, 32), 6: F(15, 32), 4: F(37, 80), 7: F(37, 80)}
    entry, = spectrum(genus2_cfg, 3).entries
    assert [w.center for w in entry.witnesses] == [3, 4, 6, 7]
    assert {w.center: lambda_formula(genus2_cfg, w).value
            for w in entry.witnesses} == by_centre
    assert len({lambda_exact(genus2_cfg, w).value for w in entry.witnesses}) == 1
    # the row prints the first witness's value
    assert entry.lam_formula.value == F(15, 32)


def test_p5_variant_runs_every_checked_command(p5_config_path, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("validate", "spectrum", "resolvent", "audit"):
            assert main([command, "-c", str(p5_config_path), "-o", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "spectrum.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [row[2] for row in rows] == ["13/93", "65/93"]


def test_hand_built_frontier_words_off_the_certificate_are_not_closed(tate_cfg,
                                                                     genus2_cfg):
    # w(z) = z/81 + 730/729 before the letter z/9: at k = 1 the chain point
    # sits 3^6 from t = w(0), no farther than x = 1 is from t, so the
    # distances need not grow by 9 per step yet
    support = Disc(F(1), -1)
    w = MoebiusMap(9, 730, 0, 729)
    assert _closed_tail(tate_cfg, 1, support, [], [((-1,), w)]) is None
    # z/9 itself is past x: its chain is the branch 1/26 of the worked
    # example less the branch's first term 1/27
    closed = _closed_tail(tate_cfg, 1, support, [], [((-1,), MoebiusMap(1, 0, 0, 9))])
    assert closed == F(1, 26) - F(1, 27)
    # w(z) = z + 2 moves g2's target D(1, 3^-2) onto the support D(3, 3^-2):
    # that child holds the point, so it is neither counted nor the chain
    w = MoebiusMap(1, 2, 0, 1)
    assert _closed_tail(genus2_cfg, 1, Disc(F(3), -2), [], [((-1,), w)]) is None
