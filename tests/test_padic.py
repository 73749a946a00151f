import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumford_heat.padic import (Disc, INFINITE_VALUATION, abs_p,
                                ball_character_moment_integral,
                                brute_sphere_decomposition, character_phase,
                                covered_measure, difference_valuation,
                                discs_disjoint, haar_measure, p_power,
                                sphere_character_integral, valuation)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
primes = st.sampled_from([2, 3, 5])


def test_valuation_examples():
    assert valuation(9, 3) == 2
    assert valuation(F(8, 9), 3) == -2
    assert valuation(0, 3) is INFINITE_VALUATION


def test_abs_examples():
    assert abs_p(F(8, 9), 3) == 9
    assert abs_p(3, 3) == F(1, 3)  # uniformiser
    assert abs_p(10, 5) == F(1, 5)
    assert abs_p(0, 7) == 0


def test_character_phase_examples():
    assert character_phase(F(1, 3), 3) == F(1, 3)
    assert character_phase(2, 3) == 0
    assert character_phase(F(1, 9) + F(1, 3), 3) == F(4, 9)


@given(rationals, rationals, primes)
def test_ultrametric_inequality(x, y, p):
    lhs = abs_p(x + y, p)
    assert lhs <= max(abs_p(x, p), abs_p(y, p))
    if abs_p(x, p) != abs_p(y, p):
        assert lhs == max(abs_p(x, p), abs_p(y, p))


@given(rationals, rationals, primes)
def test_character_is_additive(x, y, p):
    lhs = character_phase(x + y, p)
    rhs = (character_phase(x, p) + character_phase(y, p)) % 1
    assert lhs == rhs


@given(rationals, primes)
def test_character_trivial_on_integers(x, p):
    if valuation(x, p) is INFINITE_VALUATION or valuation(x, p) >= 0:
        assert character_phase(x, p) == 0
    else:
        assert character_phase(x, p) != 0


def test_haar_examples():
    assert haar_measure(Disc(F(0), -2), 3) == F(1, 9)
    assert haar_measure(Disc(F(1), 0), 3) == 1
    sphere = haar_measure(Disc(F(0), 0), 3) - haar_measure(Disc(F(0), -1), 3)
    assert sphere == F(2, 3)


@given(st.integers(-3, 3), primes)
def test_haar_additive_over_children(t, p):
    disc = Disc(F(1), t)
    total = sum(haar_measure(c, p) for c in disc.children(p))
    assert total == haar_measure(disc, p)


def test_disc_dichotomy():
    a, b = Disc(F(1), -1), Disc(F(4), -2)
    assert a.contains(b, 3) and not discs_disjoint(a, b, 3)
    assert discs_disjoint(Disc(F(1), -1), Disc(F(2), -1), 3)


def test_codisc_membership_and_containment():
    co = Disc(F(0), 0, complement=True)
    assert co.contains_point(F(1, 3), 3) and not co.contains_point(2, 3)
    assert co.contains(Disc(F(1, 9), 2, complement=True), 3)
    assert not co.contains(Disc(F(0), -1), 3)
    assert discs_disjoint(co, Disc(F(1), -1), 3)


def test_covered_measure_maximal_members():
    target = Disc(F(0), 0)
    pieces = [Disc(F(0), -1), Disc(F(0), -2), Disc(F(1), -1)]
    assert covered_measure(target, pieces, 3) == F(2, 3)


def test_sphere_integral_cases():
    assert sphere_character_integral(1, 0, 0, 3) == F(2, 3)
    assert sphere_character_integral(F(1, 3), 0, 0, 3) == F(-1, 3)
    assert sphere_character_integral(F(1, 9), 0, 0, 3) == 0


def test_ball_integral_cases():
    assert ball_character_moment_integral(1, 0, 1, 3) == F(3, 4)
    assert ball_character_moment_integral(1, -1, 0, 3) == 0
    assert ball_character_moment_integral(1, -1, 1, 3) == F(-9, 4)


def test_ball_integral_vanishing_iff():
    # vanishes exactly when m = 0 and the ball swallows the dual radius
    for ell in range(-4, 2):
        for m in range(3):
            val = ball_character_moment_integral(F(1, 3), ell, m, 3)  # d = 0
            assert (val == 0) == (m == 0 and ell <= 0)


@given(st.fractions(min_value=-200, max_value=200, max_denominator=200),
       st.integers(-2, 2), st.integers(0, 2), primes)
@settings(max_examples=150, deadline=None)
def test_sphere_integral_matches_enumeration(a, k, m, p):
    if a == 0:
        a = F(1)
    v = valuation(a, p)
    if not -2 <= v <= 2:
        return
    assert (sphere_character_integral(a, k, m, p)
            == brute_sphere_decomposition(a, k, k, m, p))


@given(st.fractions(min_value=-60, max_value=60, max_denominator=60),
       st.integers(-3, 1), st.integers(0, 2), primes)
@settings(max_examples=80, deadline=None)
def test_ball_integral_telescopes(a, ell, m, p):
    if a == 0:
        a = F(2)
    v = valuation(a, p)
    if not -2 <= v <= 2:
        return
    cut = max(ell, -v + 2)
    pi = F(1, p)
    geometric_tail = (1 - pi) / (1 - pi ** (m + 1)) * pi ** (cut * (m + 1))
    head = sum((brute_sphere_decomposition(a, k, k, m, p)
                for k in range(ell, cut)), F(0))
    assert ball_character_moment_integral(a, ell, m, p) == head + geometric_tail


# ---------------------------------------------------------------------------
# The disc predicates against their former Fraction versions
# ---------------------------------------------------------------------------

def _fraction_abs(x, p):
    """|x|_p by dividing a Fraction down, independent of ``valuation``."""
    x, size = F(x), F(1)
    if x == 0:
        return F(0)
    while x.numerator % p == 0:
        x, size = x / p, size / p
    while x.denominator % p == 0:
        x, size = x * p, size * p
    return size


def ref_contains_point(disc, x, p):
    inside = _fraction_abs(F(x) - disc.center, p) <= F(p) ** disc.radius_exp
    return inside != disc.complement


def ref_contains(outer, other, p):
    if not outer.complement and not other.complement:
        return (other.radius_exp <= outer.radius_exp
                and _fraction_abs(outer.center - other.center, p)
                <= F(p) ** outer.radius_exp)
    if outer.complement and other.complement:
        return ref_contains(Disc(other.center, other.radius_exp),
                            Disc(outer.center, outer.radius_exp), p)
    if outer.complement and not other.complement:
        return ref_discs_disjoint(other, Disc(outer.center, outer.radius_exp), p)
    return False


def ref_discs_disjoint(d1, d2, p):
    if not d1.complement and not d2.complement:
        gap = _fraction_abs(d1.center - d2.center, p)
        return gap > max(F(p) ** d1.radius_exp, F(p) ** d2.radius_exp)
    if d1.complement and not d2.complement:
        return ref_contains(Disc(d1.center, d1.radius_exp), d2, p)
    if d2.complement and not d1.complement:
        return ref_contains(Disc(d2.center, d2.radius_exp), d1, p)
    return False


def _disc_grid(p, rng):
    """Discs and co-discs about a few centres, with partners at distance
    exactly p^t (on the radius), just inside and just outside it, and at
    distance zero."""
    discs = []
    for _ in range(12):
        centre = F(rng.randint(-40, 40) * p ** rng.randint(0, 3),
                   rng.choice([1, 7, 11]) * p ** rng.randint(0, 3))
        t = rng.randint(-4, 3)
        unit = rng.choice([1, -1, 2, p + 1, F(1, p + 1)])
        for shift in (0, unit * F(p) ** -t, unit * F(p) ** (1 - t),
                      unit * F(p) ** (-1 - t)):
            for dt in (-1, 0, 1):
                for complement in (False, True):
                    discs.append(Disc(centre + shift, t + dt, complement))
    return discs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_disc_predicates_match_fraction_reference(p):
    rng = random.Random(p)
    discs = _disc_grid(p, rng)
    seen = set()
    for d1 in discs:
        points = [d1.center, d1.center + F(p) ** -d1.radius_exp,
                  d1.center + F(p) ** (1 - d1.radius_exp), int(d1.center)]
        for x in points:
            assert d1.contains_point(x, p) == ref_contains_point(d1, x, p)
        for d2 in rng.sample(discs, 40):
            assert d1.contains(d2, p) == ref_contains(d1, d2, p)
            disjoint = discs_disjoint(d1, d2, p)
            assert disjoint == ref_discs_disjoint(d1, d2, p)
            seen.add((d1.contains(d2, p), disjoint))
    # the grid exercises containment, disjointness and partial overlap
    assert {(True, False), (False, True), (False, False)} <= seen


def _division_valuation(x, p):
    """v_p(x) by the plain division loop on numerator and denominator."""
    x = F(x)
    if x == 0:
        return INFINITE_VALUATION

    def count(n):
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        return k
    return count(x.numerator) - count(x.denominator)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), n=st.integers(-2 ** 80, 2 ** 80),
       e=st.integers(0, 70), d=st.integers(1, 2 ** 70))
def test_valuation_matches_the_division_loop(p, n, e, d):
    """The int fast path and the Fraction path against the plain loop: on
    negative and wider-than-64-bit integers, exact powers of p, 0 and
    Fractions."""
    for x in (n, n * p ** e, p ** e, -p ** e, 0, F(n * p ** e, d), F(d, p ** e)):
        assert valuation(x, p) == _division_valuation(x, p)
    assert valuation(0, p) is INFINITE_VALUATION


def test_valuation_helpers():
    assert difference_valuation(F(1, 3), F(1, 3), 3) == INFINITE_VALUATION
    assert difference_valuation(F(1, 3), F(4, 3), 3) == 0
    assert difference_valuation(F(1, 3), F(10, 3), 3) == 1
    assert difference_valuation(F(2, 9), F(1, 9), 3) == -2
    assert valuation(-54, 3) == 3 and valuation(F(-54), 3) == 3
    assert p_power(3, 2) == 9 and p_power(3, -2) == F(1, 9)
    assert Disc(2, -1).center == F(2) and isinstance(Disc(2, -1).center, F)
