import json
import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

from mumford_heat.config import bundled_fixture, parse_config
from mumford_heat.exactnum import PowerSum
from mumford_heat.heat import (ROW_SUM_TOL, NumericalBreakdown, SingularSystem,
                               _solve_exact, empirical_validation,
                               resolvent_solve, sample_paths, solve_cauchy,
                               spectral_data, transition_matrix, wavelet_column)
from mumford_heat import heat
from mumford_heat.cli import main
from mumford_heat.operator import (GeneratorMatrix, NotLocallyConstant,
                                   generator_matrix, lambda_exact)
from mumford_heat.padic import Disc
from mumford_heat.wavelets import (LevelFunction, Wavelet, admissible_supports,
                                  admissible_wavelets, wavelet_eval)
from conftest import ball_discs, dense, ref_jump_table
from test_groupsum import assert_spectral_data_matches_the_dense_solve, schottky_figures


@pytest.fixture(scope="module")
def gen(tate_cfg):
    return generator_matrix(tate_cfg, 2)


@pytest.fixture(scope="module")
def data(tate_cfg, gen):
    return spectral_data(tate_cfg, gen)


@pytest.fixture(scope="module")
def tate_lambda(tate_cfg):
    return float(F(lambda_exact(tate_cfg, Disc(F(1), -1)).value))


def stationary(gen):
    """The invariant law pi of the chain, pi Q = 0 with sum(pi) = 1, by least
    squares on the stacked system."""
    a = np.vstack([dense(gen).T, np.ones(gen.size)])
    return np.linalg.lstsq(a, np.eye(gen.size + 1)[-1], rcond=None)[0]


def flat_generator(states, rows, masses, p=3):
    """The generator with the given rows as a flat tree: every state is a
    maximal ball, at the cross density Q[x][y] / m(y) to every other.  The
    states are discs of one level with integer centres below p^level, so
    their addresses under D(0, 1) are their centres."""
    n, level = len(states), -states[0].radius_exp
    keys = tuple(int(d.center) for d in states)
    assert all(d == Disc(F(k), -level) and 0 <= k < p ** level for d, k in zip(states, keys))
    cross = tuple(tuple(F(rows[i][j]) / masses[j] if j != i else F(0) for j in range(n))
                  for i in range(n))
    return GeneratorMatrix(level, p, Disc(F(0), 0), keys, tuple(masses), 1,
                           (level,) * n, tuple(range(n)),
                           tuple((i, i + 1) for i in range(n)), ((),) * n,
                           (None,) * n, tuple(range(n)), cross)


def two_state_toy():
    """Hand-built symmetric 2-state chain over Q_2: the two halves of Z_2,
    each of Haar mass 1/2 under density 1."""
    states = (Disc(F(0), -1), Disc(F(1), -1))
    rows = ((F(-1), F(1)), (F(1), F(-1)))
    return flat_generator(states, rows, (F(1, 2), F(1, 2)), p=2)


def three_state_toy():
    """Hand-built chain on the thirds of Z_3: state 1 is reachable from 2
    only, and 0 never jumps to 1."""
    states = tuple(Disc(F(c), -1) for c in range(3))
    rows = ((F(-2), F(0), F(2)),
            (F(1), F(-3), F(2)),
            (F(1), F(1), F(-2)))
    return flat_generator(states, rows, (F(1, 3),) * 3)


class TestSpectralStructure:
    def test_known_span_is_invariant(self, data):
        assert data.coupling_defect < 1e-10

    def test_wavelet_block_matches_oracle(self, data, tate_lambda):
        t = data.triangular
        for i, rate in enumerate(data.wavelet_rates, start=1):
            assert rate == pytest.approx(tate_lambda)
            assert t[i, i] == pytest.approx(-rate, rel=1e-10)
            column = np.abs(t[:, i].copy())
            column[i] = 0
            assert column.max() < 1e-9

    def test_gap_eigenvalues_reported(self, data):
        assert len(data.gap_eigenvalues) == 3  # 8 - 1 - 4


def test_wavelets_on_pieces_named_by_any_centre(tmp_path):
    # tate-p3's four pieces D(1, 3^-1), D(2, 3^-1), D(3, 3^-2), D(6, 3^-2),
    # each named by another of its points: every wavelet column, and
    # evolve's default initial function, is w at each state's own centre
    raw = json.loads(bundled_fixture("tate-p3").read_text())
    pieces = [("5/2", -1, "1"), ("-1", -1, "1"), ("12", -2, "3"), ("-3", -2, "3")]
    raw["measure"] = {"resolution": 2, "profile": {"zero_cores": [], "pieces": [
        {"center": c, "radius_exp": r, "density": d} for c, r, d in pieces]}}
    raw["run"]["level"] = 4
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    cfg = parse_config(config).operator
    gen = generator_matrix(cfg, 4)
    for w in admissible_wavelets(cfg.profile, 4):
        assert wavelet_column(w, gen, cfg.profile).tolist() == [
            complex(wavelet_eval(w, d.center, cfg.profile, "omega")) for d in gen.states]
    assert main(["evolve", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
    w = Wavelet(min((d for d, _ in cfg.profile.pieces), key=lambda d: (-d.radius_exp, d.center)),
                1, 3)
    rows = (tmp_path / "out" / "evolution.csv").read_text().splitlines()
    start = rows.index("t,state_index,value") + 1
    assert rows[start:start + gen.size] == [
        f"0.0,{i},{complex(wavelet_eval(w, d.center, cfg.profile, 'omega')).real!r}"
        for i, d in enumerate(gen.states)]


@pytest.fixture(scope="module")
def genus2_level3(genus2_cfg):
    cfg = replace(genus2_cfg, cutoff_len=4)
    return cfg, generator_matrix(cfg, 3)


class TestTransitionMatrix:
    @pytest.mark.parametrize("fixture", ["tate-p3 level 2", "genus2-p3 level 3"])
    @pytest.mark.parametrize("t", [1e-6, 0.3, 1.0, "50/gap", 1e4])
    def test_uniformization_matches_expm(self, request, gen, fixture, t):
        from scipy.linalg import expm
        g = (gen if fixture.startswith("tate")
             else request.getfixturevalue("genus2_level3")[1])
        q = dense(g)
        if t == "50/gap":
            t = 50.0 / np.sort(np.abs(np.linalg.eigvals(q).real))[1]
        p = transition_matrix(g, t)
        assert np.max(np.abs(p.matrix - expm(t * q))) < 1e-10
        assert p.matrix.min() >= 0 and p.min_entry >= 0
        assert p.row_sum_error < ROW_SUM_TOL
        assert p.provenance == "uniformization"

    def test_zero_rates_give_identity(self):
        toy = two_state_toy()
        frozen = flat_generator(toy.states, ((F(0), F(0)), (F(0), F(0))), toy.masses,
                                p=toy.p)
        assert (transition_matrix(frozen, 5.0).matrix == np.eye(2)).all()

    @pytest.mark.parametrize("t", [1e12, 1e308])
    def test_drift_at_huge_times_is_a_breakdown(self, gen, t):
        # at 1e308 the rate times t overflows and the matrix is NaN
        with pytest.raises(NumericalBreakdown):
            transition_matrix(gen, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_time_rejected(self, gen, t):
        with pytest.raises(ValueError):
            transition_matrix(gen, t)
        h0 = LevelFunction.from_mapping(2, dict.fromkeys(gen.states, 1.0))
        with pytest.raises(ValueError):
            solve_cauchy(gen, h0, [0.0, t])

    def test_identity_at_zero(self, gen):
        p0 = transition_matrix(gen, 0.0)
        assert np.allclose(p0.matrix, np.eye(gen.size), atol=1e-12)

    def test_chapman_kolmogorov(self, gen):
        p3 = transition_matrix(gen, 0.3).matrix
        p7 = transition_matrix(gen, 0.7).matrix
        p10 = transition_matrix(gen, 1.0).matrix
        assert np.max(np.abs(p3 @ p7 - p10)) < 1e-9

    def test_stochasticity(self, gen):
        p = transition_matrix(gen, 1.0)
        assert np.max(np.abs(p.matrix.sum(axis=1) - 1)) < 1e-12
        assert p.min_entry > -1e-12

    def test_spectral_vs_dense(self, gen):
        ps = transition_matrix(gen, 1.0).matrix
        from scipy.linalg import expm
        pd = expm(dense(gen))
        assert np.max(np.abs(ps - pd)) < 1e-10

    def test_long_time_limit_is_stationary(self, gen, data, tate_lambda):
        pi = stationary(gen)
        gap = min(abs(r) for r in data.wavelet_rates + tuple(
            abs(e.real) for e in data.gap_eigenvalues))
        p = transition_matrix(gen, 50.0 / gap).matrix
        tv = 0.5 * np.abs(p - pi[None, :]).sum(axis=1).max()
        assert tv < 1e-8


class TestCauchy:
    def test_an_empty_time_grid_gives_no_rows(self, gen):
        # run.times may be empty: evolve then writes a header only
        h0 = LevelFunction.from_mapping(2, dict.fromkeys(gen.states, 1.0))
        assert solve_cauchy(gen, h0, []).values.size == 0
        assert heat._laws(gen, 0, []).shape == (0, gen.size)

    def test_wavelet_initial_condition_decays_exactly(self, tate_cfg, gen, tate_lambda):
        w = Wavelet(Disc(F(1), -1), 1, 3)
        h0 = LevelFunction.from_mapping(
            2, {d: complex(wavelet_eval(w, d.center, tate_cfg.profile, "haar"))
                for d in gen.states})
        times = [0.0, 0.3, 0.9, 1.7]
        sol = solve_cauchy(gen, h0, times)
        base = np.array([v for _, v in h0.values])
        for row, t in zip(sol.values, times):
            assert np.max(np.abs(row - np.exp(-tate_lambda * t) * base)) < 1e-10

    def test_fitted_decay_rate(self, tate_cfg, gen, tate_lambda):
        w = Wavelet(Disc(F(1), -1), 1, 3)
        h0 = LevelFunction.from_mapping(
            2, {d: complex(wavelet_eval(w, d.center, tate_cfg.profile,
                                        "haar")).real for d in gen.states})
        times = np.linspace(0, 5 / tate_lambda, 12)
        sol = solve_cauchy(gen, h0, times)
        norms = sol.sup_norms()
        rate = -np.polyfit(sol.times, np.log(norms), 1)[0]
        assert abs(rate - tate_lambda) / tate_lambda < 1e-6

    def test_negative_time_rejected(self, gen):
        h0 = LevelFunction.from_mapping(2, dict.fromkeys(gen.states, 1.0))
        with pytest.raises(ValueError):
            solve_cauchy(gen, h0, [0.0, -1.0])

    def test_constant_is_preserved(self, gen):
        h0 = LevelFunction.from_mapping(2, dict.fromkeys(gen.states, 4.0))
        sol = solve_cauchy(gen, h0, [0.0, 1.0, 10.0])
        assert np.max(np.abs(sol.values - 4.0)) < 1e-10

    def test_maximum_principle(self, gen):
        rng = np.random.default_rng(5)
        for _ in range(100):
            vals = rng.uniform(-1, 2, gen.size)
            h0 = LevelFunction.from_mapping(
                2, {d: float(v) for d, v in zip(gen.states, vals)})
            sol = solve_cauchy(gen, h0, [0.2, 1.0, 4.0])
            assert sol.values.real.min() >= vals.min() - 1e-9
            assert sol.values.real.max() <= vals.max() + 1e-9

    def test_indicator_decays_monotonically(self, gen):
        # center by the stationary mean: the invariant law is not the
        # mass-normalised measure here, and only the invariant mean decays
        pi = stationary(gen)
        ind = np.zeros(gen.size)
        ind[0] = 1.0
        centered = ind - pi @ ind
        h0 = LevelFunction.from_mapping(
            2, {d: float(v) for d, v in zip(gen.states, centered)})
        times = [0.0, 0.2, 0.5, 1.0, 2.0, 4.0]
        sol = solve_cauchy(gen, h0, times)
        norms = sol.sup_norms()
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3


def gauss_jordan(a, b):
    """Gauss-Jordan elimination on Fractions, pivoting on the first nonzero
    entry: the reference for the fraction-free ``_solve_exact``."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"zero pivot column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# powers of p = 3 and large primes, multiplied in pairs
DENOMINATORS = [1, 2, 7, 3, 9, 3 ** 5, 3 ** 11, 1_000_000_007, 2 ** 61 - 1]


def random_rational(rng):
    if rng.random() < 0.2:
        return F(0)
    return F(rng.randint(-10 ** 6, 10 ** 6),
             rng.choice(DENOMINATORS) * rng.choice(DENOMINATORS))


def resolvent_system(gen, eta, h):
    """(eta*I - Q, h) as exact dense rows, h in state order."""
    a = [[(eta if i == k else 0) - gen.rows[i][k] for k in range(gen.size)]
         for i in range(gen.size)]
    return a, [F(v) for v in h]


class TestExactSolve:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_gauss_jordan(self, n):
        rng = random.Random(500 + n)
        solved = 0
        for _ in range(20):
            a = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
            b = [random_rational(rng) for _ in range(n)]
            if n > 1:
                a[0][0] = F(0)  # the first pivot needs a row swap
            try:
                want = gauss_jordan(a, b)
            except SingularSystem:
                with pytest.raises(SingularSystem):
                    _solve_exact(a, b)
                continue
            got = _solve_exact(a, b)
            assert got == want and all(type(v) is F for v in got)
            solved += 1
        assert solved >= 10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_repeated_row_is_singular(self, n):
        rng = random.Random(600 + n)
        a = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        a[-1] = list(a[rng.randrange(n - 1)]) if n > 1 else [F(0)]
        with pytest.raises(SingularSystem):
            _solve_exact(a, [random_rational(rng) for _ in range(n)])

    def test_resolvent_on_24_states(self, tate_cfg):
        gen3 = generator_matrix(replace(tate_cfg, cutoff_len=6), 3)
        h = LevelFunction.from_mapping(
            3, {d: F(int(i == 0)) for i, d in enumerate(gen3.states)})
        u = resolvent_solve(gen3, F(1), h).as_dict()
        got = [u[d] for d in gen3.states]
        assert got == gauss_jordan(*resolvent_system(gen3, F(1), gen3.vector(h)))
        assert gen3.size == 24
        assert max(v.denominator.bit_length() for v in got) == 125


class TestResolvent:
    def test_zero_maps_to_zero(self, gen):
        h = LevelFunction.from_mapping(2, {d: F(0) for d in gen.states})
        u = resolvent_solve(gen, F(1), h)
        assert all(v == 0 for _, v in u.values)

    def test_constant_scales_by_eta(self, gen):
        h = LevelFunction.from_mapping(2, {d: F(3) for d in gen.states})
        u = resolvent_solve(gen, F(2), h)
        assert all(v == F(3, 2) for _, v in u.values)

    def test_wavelet_eigen_identity(self, tate_cfg, gen):
        w = Wavelet(Disc(F(1), -1), 1, 3)
        h = LevelFunction.from_mapping(
            2, {d: complex(wavelet_eval(w, d.center, tate_cfg.profile, "haar"))
                for d in gen.states})
        u = resolvent_solve(gen, 1.0, h)
        lam = float(F(lambda_exact(tate_cfg, Disc(F(1), -1),
                                   length=gen.cutoff).value))
        ud, hd = u.as_dict(), h.as_dict()
        for d in gen.states:
            assert abs(ud[d] - hd[d] / (1 + lam)) < 1e-10

    def test_positivity_and_contraction_exact(self, gen):
        rng = random.Random(3)
        for _ in range(100):
            h_vals = {d: F(rng.randint(0, 24), rng.randint(1, 9))
                      for d in gen.states}
            h = LevelFunction.from_mapping(2, h_vals)
            u = resolvent_solve(gen, F(1), h)
            assert all(v >= 0 for _, v in u.values)
            assert max(v for _, v in u.values) <= max(h_vals.values())

    @pytest.mark.parametrize("eta", [F(-1), -1, 0, 0.0, -1.0, math.nan])
    def test_non_positive_eta_rejected(self, gen, eta):
        h = LevelFunction.from_mapping(2, dict.fromkeys(gen.states, F(1)))
        with pytest.raises(ValueError):
            resolvent_solve(gen, eta, h)

    def test_rational_exponent_gives_a_real_float_solve(self, tate_cfg):
        half = generator_matrix(replace(tate_cfg, alpha=F(1, 2), cutoff_len=6), 2)
        assert any(isinstance(v, PowerSum) for row in half.rows for v in row)
        h = LevelFunction.from_mapping(
            2, {d: F(int(i == 0)) for i, d in enumerate(half.states)})
        u = resolvent_solve(half, F(1), h).as_dict()
        vec = np.array([u[d] for d in half.states])
        assert vec.dtype == np.float64
        residual = (np.eye(half.size) - dense(half)) @ vec
        assert np.max(np.abs(residual - np.eye(half.size)[0])) < 1e-12
        ref = np.linalg.solve(np.eye(half.size) - dense(half), np.eye(half.size)[0])
        assert np.allclose(vec, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("level", [2, 3, 5])
    @pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
    def test_the_float_resolvent_matches_the_dense_solve(self, request, name, level):
        # the multiresolution in floats against numpy's n x n solve
        gen = generator_matrix(replace(request.getfixturevalue(name), alpha=F(1, 2),
                                       cutoff_len=4), level)
        rng = random.Random(level)
        for vals in (indicator(gen), [F(rng.randint(1, 9), rng.randint(1, 9))
                                      for _ in gen.states]):
            for eta in (F(1), F(1, 3), 2.5):
                u = resolvent_solve(gen, eta, vals)
                ref = np.linalg.solve(float(eta) * np.eye(gen.size) - dense(gen),
                                      [float(v) for v in vals])
                assert np.max(np.abs(np.array(u) / ref - 1)) < 1e-12

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("name,alpha,alpha_g", [
        ("tate_cfg", F(1), F(1)), ("tate_cfg", F(1, 2), F(1)), ("tate_cfg", F(1, 3), F(1)),
        ("genus2_cfg", F(1), F(2)), ("genus2_cfg", F(1), F(3, 2)),
    ], ids=["tate", "tate-a1/2", "tate-a1/3", "genus2", "genus2-ag3/2"])
    def test_the_diagonal_decides_exactness_as_the_full_scan_does(
            self, request, monkeypatch, name, alpha, alpha_g, level):
        cfg = replace(request.getfixturevalue(name), alpha=alpha, alpha_g=alpha_g,
                      cutoff_len=4)
        gen = generator_matrix(cfg, level)
        scan = [all(isinstance(v, F) for v in row) for row in gen.rows]
        assert scan == [isinstance(row[i], F) for i, row in enumerate(gen.rows)]
        sizes = cell_solve_sizes(monkeypatch)
        u = resolvent_solve(gen, F(1), indicator(gen))
        assert bool(sizes) == all(scan) == all(isinstance(v, F) for v in u)
        assert all(scan) == (alpha.denominator == alpha_g.denominator == 1)


@pytest.mark.parametrize("name", ["tate_cfg", "genus2_cfg"])
def test_a_signed_h_with_zero_total_on_a_ball(request, name):
    # h = m(k') on the states of a child k of a split ball B and -m(k) on
    # those of a sibling k': its total on B is zero, yet h is not zero on B,
    # so a descent that skipped B for a zero total would lose both children
    gen = generator_matrix(replace(request.getfixturevalue(name), cutoff_len=4), 4)
    b = next(b for b, kids in enumerate(gen.children) if len(kids) > 1 and b not in gen.tops)
    (k, kk), h = gen.children[b][:2], [F(0)] * gen.size
    for ball, value in ((k, gen.mass[kk]), (kk, -gen.mass[k])):
        for x in gen.order[slice(*gen.spans[ball])]:
            h[x] = value
    assert any(h) and sum(m * v for m, v in zip(gen.masses, h)) == 0
    assert resolvent_solve(gen, F(1), h) == _solve_exact(*resolvent_system(gen, F(1), h))
    vec, times = np.array([float(v) for v in h]), [0.5, 2.0]
    for t, row in zip(times, solve_cauchy(gen, h, times).values):
        assert np.max(np.abs(row - transition_matrix(gen, t).matrix @ vec)) < 1e-12


@pytest.fixture(scope="module")
def certified(tate_cfg, genus2_cfg):
    """(cfg, generator) of a fixture at a level and mode, built once; the
    cutoffs keep the dense oracle at level 4 under a second."""
    base = {"tate-p3": replace(tate_cfg, cutoff_len=6),
            "genus2-p3": replace(genus2_cfg, cutoff_len=4)}
    built = {}

    def get(name, level, mode="ambient"):
        if (name, level, mode) not in built:
            cfg = replace(base[name], mode=mode)
            built[name, level, mode] = cfg, generator_matrix(cfg, level)
        return built[name, level, mode]
    return get


@pytest.fixture(scope="module")
def dense_solve():
    """The dense fraction-free solve of (eta*I - Q) u = h, once per system:
    ambient and transport mode give the same rows."""
    solved = {}

    def get(gen, eta, vals):
        key = (gen.rows, eta, tuple(vals))
        if key not in solved:
            solved[key] = _solve_exact(*resolvent_system(gen, eta, vals))
        return solved[key]
    return get


def cell_solve_sizes(monkeypatch):
    """A list that gets the number of unknowns of each ``_solve_exact`` call."""
    sizes = []
    honest = heat._solve_exact

    def counting(a, b):
        sizes.append(len(b))
        return honest(a, b)

    monkeypatch.setattr(heat, "_solve_exact", counting)
    return sizes


def indicator(gen):
    return [F(int(i == 0)) for i in range(gen.size)]


FIXTURE_LEVELS = [(name, level) for name in ("tate-p3", "genus2-p3") for level in (2, 3, 4)]


class TestMultiresolution:
    @pytest.mark.parametrize("mode", ["ambient", "transport"])
    @pytest.mark.parametrize("name,level", FIXTURE_LEVELS)
    def test_matches_the_dense_solve(self, certified, dense_solve, name, level, mode):
        _, gen = certified(name, level, mode)
        rng = random.Random(700 + level)
        small = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gen.states]
        for vals in (indicator(gen), small):
            for eta in (F(1), F(2), F(1, 3)):
                u = resolvent_solve(gen, eta, vals)
                assert u == dense_solve(gen, eta, vals)

    @pytest.mark.parametrize("name,level", FIXTURE_LEVELS)
    def test_decay_rates_are_the_oracle_eigenvalues(self, certified, name, level):
        # the paper's theorem: each admissible support is certified, and its
        # rate read off the split balls is lambda_exact at the same cutoff
        cfg, gen = certified(name, level)
        lam = gen.lam
        rates = {ball_discs(gen)[b]: v for b, v in lam.items()}
        assert all(rates[b] == lambda_exact(cfg, b, gen.cutoff).value
                   for b in admissible_supports(cfg.profile, level))

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["tate-p3", "genus2-p3"])
    def test_certified_fixtures_make_one_small_cell_solve(self, certified, monkeypatch,
                                                          name, level):
        _, gen = certified(name, level)
        sizes = cell_solve_sizes(monkeypatch)
        resolvent_solve(gen, F(1), indicator(gen))
        assert len(sizes) == 1 and sizes[0] <= 4

    @pytest.mark.parametrize("build", [
        lambda cfg: doubled(generator_matrix(cfg, 2)),
        lambda cfg: two_state_toy(),
        lambda cfg: three_state_toy(),
    ], ids=["replaced rows", "two-state toy", "three-state toy"])
    def test_without_certified_supports_the_cells_are_the_states(
            self, tate_cfg, dense_solve, monkeypatch, build):
        gen = build(replace(tate_cfg, cutoff_len=4))
        rng = random.Random(800)
        vals = [random_rational(rng) for _ in gen.states]
        sizes = cell_solve_sizes(monkeypatch)
        for eta in (F(1), F(1, 3)):
            u = resolvent_solve(gen, eta, vals)
            assert u == dense_solve(gen, eta, vals)
        assert sizes == [gen.size] * 2


TIMES = [1e-6, 0.3, 1.0, 7.0, 50.0]


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["tate-p3", "genus2-p3"])
def test_the_tree_semigroup_matches_the_dense_one(certified, name, level):
    # solve_cauchy, the validation law and transition_matrix read P_t from
    # the split balls; the reference is the dense uniformization of the rows
    _, gen = certified(name, level)
    h = np.random.default_rng(level).standard_normal(gen.size)
    flow = solve_cauchy(gen, h, TIMES).values
    starts = (0, gen.size - 1)
    laws = [heat._laws(gen, x, TIMES) for x in starts]
    for k, t in enumerate(TIMES):
        p = heat._semigroup(dense(gen), t)
        assert np.max(np.abs(transition_matrix(gen, t).matrix - p)) < 1e-12
        assert np.max(np.abs(flow[k] - p @ h)) < 1e-12
        for x, law in zip(starts, laws):
            assert np.max(np.abs(law[k] - p[x])) < 1e-12


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["tate-p3", "genus2-p3"])
def test_the_tree_matvec_matches_the_dense_one(certified, name, level):
    # spectral_data reads Q basis from one descent of the split balls
    assert_spectral_data_matches_the_dense_solve(*certified(name, level))


def diagonal_over_mass(gen, t):
    """P_t(x, x) / m(x) per state x by the tree formula of docs/heat-kernel.md:
    [e^(tQ_c)]_CC / m(C), C the top of x, plus per split ball B above x
    e^(-lambda_B t) (1/m(child_B(x)) - 1/m(B)); e^(tQ_c) from scipy."""
    from scipy.linalg import expm
    coarse = expm(t * np.array(gen.q, dtype=float))
    out = np.zeros(gen.size)
    stack = [(c, coarse[i, i] / float(gen.mass[c])) for i, c in enumerate(gen.tops)]
    while stack:
        b, value = stack.pop()
        if not gen.children[b]:
            out[gen.order[gen.spans[b][0]]] = value
            continue
        decay = math.exp(-float(gen.lam[b]) * t)
        stack.extend((k, value + decay * (1 / float(gen.mass[k]) - 1 / float(gen.mass[b])))
                     for k in gen.children[b])
    return out


@pytest.mark.parametrize("t", [0.05, 0.3, 0.488, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("level", [3, 5])
@pytest.mark.parametrize("name", ["tate-p3", "genus2-p3"])
def test_the_diagonal_of_the_heat_kernel_is_the_tree_formula(certified, name, level, t):
    _, gen = certified(name, level)
    masses = np.array([float(m) for m in gen.masses])
    reference = transition_matrix(gen, t).matrix.diagonal() / masses
    assert np.max(np.abs(diagonal_over_mass(gen, t) / reference - 1)) < 1e-12


def doubled(gen):
    """gen with every rate doubled, as a flat tree."""
    return flat_generator(gen.states, [[2 * v for v in row] for row in gen.rows],
                          gen.masses)


@pytest.mark.parametrize("consumer", [
    lambda gen, h: solve_cauchy(gen, h, [0.0, 1.0]),
    lambda gen, h: resolvent_solve(gen, F(1), h),
], ids=["solve_cauchy", "resolvent_solve"])
def test_missing_state_is_named(gen, consumer):
    missing = gen.states[3]
    h = LevelFunction.from_mapping(
        gen.level, {d: F(1) for d in gen.states if d != missing})
    with pytest.raises(NotLocallyConstant, match=re.escape(repr(missing))):
        consumer(gen, h)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("form", [list, np.array])
@pytest.mark.parametrize(*test_missing_state_is_named.pytestmark[0].args,
                         **test_missing_state_is_named.pytestmark[0].kwargs)
def test_a_state_order_h_of_another_length_is_refused(gen, consumer, form, extra):
    # the consumers above, on h in state order: a long h would otherwise
    # lose its last values silently, a short one fail with an IndexError
    h = form([F(1)] * (gen.size + extra))
    with pytest.raises(ValueError, match=f"^{gen.size + extra} values for the {gen.size} states"):
        consumer(gen, h)


def state_at(path, t):
    """The state of one path view at time t, right-continuous: the oracle of
    ``PathColumns.states_at``."""
    return int(path.states[np.searchsorted(path.jump_times, t, side="right")])


class TestSampling:
    def test_determinism(self, gen):
        a = sample_paths(gen, 200, 1.0, seed=42)
        b = sample_paths(gen, 200, 1.0, seed=42)
        assert a == b
        c = sample_paths(gen, 200, 1.0, seed=43)
        assert a != c
        # a seed past 64 bits is folded in, not cut off
        assert sample_paths(gen, 200, 1.0, seed=2 ** 64 + 42) not in (a, c)

    def test_prefix_of_a_sample_is_the_smaller_sample(self, gen):
        full = sample_paths(gen, 300, 1.0, seed=7)
        assert full[:40] == sample_paths(gen, 40, 1.0, seed=7)
        assert full[:1] == sample_paths(gen, 1, 1.0, seed=7)

    def test_no_jump_to_self_or_to_zero_rate_state(self):
        toy = three_state_toy()
        rows = toy.rows
        paths = sample_paths(toy, 500, 5.0, seed=3, start_index=0)
        zero_rate = {(i, k) for i, row in enumerate(rows)
                     for k, v in enumerate(row) if i != k and v == 0}
        jumps = [(a, b) for path in paths
                 for a, b in zip(path.states, path.states[1:])]
        assert len(jumps) > 1000
        assert all(a != b for a, b in jumps)
        assert not zero_rate & set(jumps)
        assert {(1, 0), (1, 2), (2, 0), (2, 1), (0, 2)} <= set(jumps)

    def test_bad_inputs_rejected(self, gen):
        with pytest.raises(ValueError):
            sample_paths(gen, 0, 1.0, seed=1)
        with pytest.raises(ValueError):
            sample_paths(gen, 1, 1.0, seed=-1)
        absorbing = flat_generator(gen.states[:2], ((F(0), F(0)), (F(1), F(-1))),
                                   gen.masses[:2])
        with pytest.raises(ValueError):
            sample_paths(absorbing, 5, 1.0, seed=1)

    def test_a_sample_past_the_jump_budget_is_a_breakdown(self, gen, monkeypatch):
        # the largest hold rate times t_max times the paths bounds the jumps
        monkeypatch.setattr(heat, "MAX_JUMPS", 1000)
        rate = max(float(-row[i]) for i, row in enumerate(gen.rows))
        assert len(sample_paths(gen, 10, 0.99 * 100 / rate, seed=1)) == 10
        with pytest.raises(NumericalBreakdown, match="past the budget of 1e"):
            sample_paths(gen, 10, 1.01 * 100 / rate, seed=1)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_horizon_rejected(self, gen, t_max):
        with pytest.raises(ValueError):
            sample_paths(gen, 1, t_max, seed=1)

    def test_paths_are_cadlag_steps(self, gen):
        for path in sample_paths(gen, 50, 2.0, seed=1):
            assert len(path.states) == len(path.jump_times) + 1
            assert all(a < b for a, b in zip(path.jump_times, path.jump_times[1:]))
            assert state_at(path, 0.0) == path.states[0]
            if len(path.jump_times):
                t0 = path.jump_times[0]
                assert state_at(path, t0) == path.states[1]  # right continuous
                assert state_at(path, t0 - 1e-12) == path.states[0]

    def test_hold_rates_positive(self, gen):
        assert all(-row[i] > 0 for i, row in enumerate(gen.rows))

    def test_empirical_matches_transition_row(self, gen):
        paths = sample_paths(gen, 4000, 1.0, seed=11)
        report = empirical_validation(gen, paths, [0.5, 1.0])
        assert report.passed

    def test_perturbed_row_fails(self, gen):
        paths = sample_paths(gen, 20000, 1.0, seed=13)
        report = empirical_validation(gen, paths, [1.0])
        assert report.passed
        # reweight one transition row by 10 percent: the test must have power
        skewed = dense(gen)
        skewed[0] *= 1.1
        rows = tuple(tuple(F(x).limit_denominator(10 ** 9) for x in row)
                     for row in skewed)
        broken = flat_generator(gen.states, rows, gen.masses)
        report2 = empirical_validation(broken, paths, [1.0])
        assert not report2.passed

    def test_tracer_contract(self, gen):
        # a tracer counts paths with len() and jumps through the path views
        sample = sample_paths(gen, 1100, 1.0, seed=5)
        assert len(sample) == 1100
        assert sum(len(p.jump_times) for p in sample) == len(sample.times) - 1100
        assert [p.path_index for p in sample[:3]] == [0, 1, 2]

    def test_columns_agree_with_path_views(self, gen):
        sample = sample_paths(gen, 300, 2.0, seed=2)
        probes = [0.0, 0.3, 1.999, *sample[7].jump_times[:2]]  # jump instants too
        for t in probes:
            assert sample.states_at(t).tolist() == [state_at(p, t) for p in sample]



class TestRanges:
    """A range [a, b) of a sample of n paths is drawn alone: it is those rows
    of the whole sample, offsets rebased, and the ranges' checkpoint counts
    sum to the sample's."""

    N, SEED, CHECKPOINTS = 2500, 9, (0.25, 0.5, 1.0)

    # the first range, an interior one, the last, a single path, and ranges
    # across one and two PATH_CHUNK boundaries
    @pytest.mark.parametrize("a,b", [(0, 700), (300, 1000), (2048, 2500), (1234, 1235),
                                     (1000, 1030), (1000, 2100)])
    @pytest.mark.parametrize("start", [0, 3])
    def test_a_range_is_those_rows_of_the_sample(self, gen, a, b, start):
        full = sample_paths(gen, self.N, 1.0, self.SEED, start_index=start)
        part = sample_paths(gen, self.N, 1.0, self.SEED, start_index=start,
                            paths=range(a, b))
        assert len(part) == b - a and part.offsets[0] == 0
        assert part == full[a:b]
        chain = heat.jump_chain(gen, self.N, 1.0, self.SEED)
        assert sample_paths(gen, self.N, 1.0, self.SEED, start_index=start,
                            paths=range(a, b), chain=chain) == part

    def test_the_keys_of_a_range_are_those_of_the_stream(self):
        assert (heat._path_keys(2 ** 70 + 5, range(1000, 1030))
                == heat._path_keys(2 ** 70 + 5, range(1030))[1000:]).all()

    def test_range_counts_sum_to_the_sample_counts(self, gen):
        full = sample_paths(gen, self.N, 1.0, self.SEED)
        chain = heat.jump_chain(gen, self.N, 1.0, self.SEED)
        cuts = [0, 1024, 2048, self.N]
        counts = [sample_paths(gen, self.N, 1.0, self.SEED, paths=range(a, b), chain=chain)
                  .counts(self.CHECKPOINTS, gen.size) for a, b in zip(cuts, cuts[1:])]
        assert all(c.dtype == np.int64 and c.shape == (3, gen.size) for c in counts)
        whole = full.counts(self.CHECKPOINTS, gen.size)
        assert (sum(counts) == whole).all() and (whole.sum(axis=1) == self.N).all()
        # the validation reads the summed counts as it reads the sample
        assert (empirical_validation(gen, sum(counts), self.CHECKPOINTS)
                == empirical_validation(gen, full, self.CHECKPOINTS))

    @pytest.mark.parametrize("paths", [range(5, 11), range(-1, 3), range(0, 10, 2)])
    def test_a_range_outside_the_sample_is_rejected(self, gen, paths):
        with pytest.raises(ValueError, match="is not a range of the 10 paths"):
            sample_paths(gen, 10, 1.0, 1, paths=paths)

def assert_jump_law(gen):
    """The sampler's jump table against the exact rows: from each state x,
    an entry's rate spread over its ball by mass, over the hold rate, is
    Q[x][y] / -Q[x][x] to 1e-15, and the entries' balls tile the states
    y != x with Q[x][y] != 0."""
    rate, balls, rates = heat._jump_table(gen)
    members, mass = [gen.order[lo:hi] for lo, hi in gen.spans], gen.mass
    for x, row in enumerate(gen.rows):
        assert rate[x] == float(-row[x])
        law = {}
        for b, r in zip(balls[x].tolist(), rates[x].tolist()):
            for y in members[b] if r else ():
                assert y not in law
                law[y] = r * float(gen.masses[y] / mass[b]) / rate[x]
        assert set(law) == {y for y, q in enumerate(row) if y != x and q != 0}
        for y, p in law.items():
            assert p == pytest.approx(float(row[y] / -row[x]), rel=1e-15, abs=0)


@pytest.mark.parametrize("name,level", [("tate-p3", m) for m in range(1, 7)]
                         + [("genus2-p3", m) for m in range(2, 7)])  # genus2-p3: none at 1
def test_the_jump_table_matches_the_reference(certified, name, level):
    """Hold rates, balls and rates, element for element and in dtype."""
    gen = certified(name, level)[1]
    for a, b in zip(heat._jump_table(gen), ref_jump_table(gen)):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_the_jump_table_keeps_no_row_per_state(certified):
    """At tate-p3 level 8 (5 832 states) the rows stream into the table:
    its tracemalloc peak is below the reference's, which keeps them all, by
    a quarter at least (1.8 against 3.2 MB as measured; kept rows would add
    about 1.2 MB)."""
    gen = certified("tate-p3", 8)[1]
    peaks = []
    for build in (ref_jump_table, heat._jump_table):
        tracemalloc.start()
        try:
            build(gen)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 0.75 * peaks[0], peaks


class TestJumpChain:
    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["tate-p3", "genus2-p3"])
    def test_jumps_follow_the_rows_on_the_fixtures(self, certified, name, level):
        assert_jump_law(certified(name, level)[1])

    @pytest.mark.parametrize("build", [
        lambda gen: two_state_toy(), lambda gen: three_state_toy(), doubled,
    ], ids=["two-state toy", "three-state toy", "replaced rows"])
    def test_jumps_follow_the_rows_on_flat_trees(self, gen, build):
        assert_jump_law(build(gen))

    @settings(max_examples=15, deadline=None)
    @given(figure=schottky_figures())
    def test_jumps_follow_the_rows_on_random_figures(self, figure):
        cfg, level = figure
        assert_jump_law(generator_matrix(cfg, level))

    def test_the_streams_pass_a_chi_square_test(self):
        # 10^6 uniforms, the first four draws of 250 000 paths, on 64 bins;
        # chi^2 with 63 degrees of freedom exceeds 131.4 with probability 1e-6
        keys = heat._path_keys(2024, range(250_000))
        u = heat._uniforms(keys, range(4)).ravel()
        counts = np.bincount((u * 64).astype(np.intp), minlength=64)
        expected = len(u) / 64
        assert ((counts - expected) ** 2 / expected).sum() < 131.4

    def test_neighbouring_paths_draw_uncorrelated_first_draws(self):
        # 10^5 pairs: the sample correlation of independent uniforms has
        # standard deviation 1/sqrt(10^5), about 0.0032; the second pair
        # would be equal if path j + 1's stream ran one draw behind path j's
        keys = heat._path_keys(7, range(100_001))
        first, second = heat._uniforms(keys, range(2)).T
        for a, b in ((first[:-1], first[1:]), (second[:-1], first[1:])):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(100_000)


def _false_alarm_rate(analytic: np.ndarray, n: int, sigmas: float = 4.0) -> float:
    """P(some state's count leaves the sigma band) for a multinomial sample
    of n under ``analytic``, bounded by the sum of exact binomial tails."""
    k = np.arange(n + 1)
    total = 0.0
    for p in analytic:
        if not 0 < p < 1:
            continue
        sigma = np.sqrt(p * (1 - p) / n)
        # log pmf by the ratio pmf(k+1)/pmf(k) = (n-k)/(k+1) * p/(1-p)
        steps = np.log((n - k[:-1]) / (k[:-1] + 1)) + math.log(p / (1 - p))
        log_pmf = n * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(steps)))
        total += np.exp(log_pmf[np.abs(k / n - p) / sigma > sigmas]).sum()
    return total


def test_law_over_many_seeds(gen):
    """Over 200 seeds, the 4-sigma validation fails no more often than the
    exact binomial tails of the true transition rows allow."""
    checkpoints = [t for t in parse_config(bundled_fixture("tate-p3")).run.times
                   if t > 0]
    n_paths, seeds = 4000, range(200)
    per_seed = sum(_false_alarm_rate(
        heat._semigroup(dense(gen), t)[0], n_paths)
        for t in checkpoints)
    assert 0 < per_seed < 0.01
    failed = sum(not empirical_validation(
        gen, sample_paths(gen, n_paths, max(checkpoints), seed=s),
        checkpoints).passed for s in seeds)
    # the smallest count that Binomial(200, per_seed) reaches with p < 1e-6
    allowed, tail = 0, 1.0
    while tail >= 1e-6:
        tail -= math.comb(len(seeds), allowed) * per_seed ** allowed \
            * (1 - per_seed) ** (len(seeds) - allowed)
        allowed += 1
    assert failed < allowed


def test_single_path_occupation_matches_stationary(gen):
    # ergodic average of one long trajectory against the invariant law
    pi = stationary(gen)
    t_max = 4000.0
    path = sample_paths(gen, 1, t_max, seed=99)[0]
    occupation = np.zeros(gen.size)
    times = list(path.jump_times) + [t_max]
    prev = 0.0
    for state, nxt in zip(path.states, times):
        occupation[state] += nxt - prev
        prev = nxt
    occupation /= t_max
    # generous tolerance: several mixing times of slack
    assert np.abs(occupation - pi).max() < 0.05
