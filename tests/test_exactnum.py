import math
from fractions import Fraction as F

import pytest

from mumford_heat.exactnum import (ExactComplex, NotRationalError, PhaseSum,
                                   PowerSum, p_power_bounds)


def test_full_root_of_unity_sum_reduces_to_zero():
    for p in (2, 3, 5):
        s = PhaseSum(p)
        for k in range(p):
            s.add(F(k, p), 1)
        assert s.is_zero()


def test_nontrivial_character_sum_is_zero():
    s = PhaseSum(3)
    for k in range(3):
        s.add(F(k, 3) + F(1, 9), 1)  # common twist does not break cancellation
    assert s.is_zero()


def test_partial_sum_is_not_zero():
    s = PhaseSum(3).add(F(1, 3), 1).add(F(2, 3), 1)
    assert not s.is_zero()
    assert s.to_fraction() == -1


def test_deep_cyclotomic_reduction():
    # sum over a full level-2 coset: 9 ninth-roots sum to zero
    s = PhaseSum(3)
    for k in range(9):
        s.add(F(k, 9), F(1, 9))
    assert s.is_zero()


def test_phase_sum_equality_and_scaling():
    a = PhaseSum(3).add(F(1, 3), 2)
    b = PhaseSum(3).add(F(1, 3), 1).scaled(2)
    assert a == b
    assert a != PhaseSum(3).add(F(2, 3), 2)


def test_phase_sum_rejects_foreign_denominator():
    with pytest.raises(ValueError):
        PhaseSum(3).add(F(1, 2), 1)


def test_power_sum_folds_integer_exponents():
    ps = PowerSum(3).add_term(F(1), F(5))
    assert ps.is_rational() and ps.to_fraction() == 243


def test_power_sum_algebra_and_bounds():
    ps = PowerSum(3).add_term(1, F(1, 2)).add_term(2, F(3, 2))  # 7 sqrt(3)
    assert not ps.is_rational()
    with pytest.raises(NotRationalError):
        ps.to_fraction()
    lo, hi = ps.bounds()
    true = 7 * math.sqrt(3)
    assert float(lo) <= true <= float(hi)
    assert float(hi) - float(lo) < 1e-12
    assert abs(float(ps) - true) < 1e-12
    doubled = ps + ps
    assert doubled == ps.scaled(2)
    assert (ps - ps).is_zero()


def test_power_sum_mul_power():
    ps = PowerSum(3).add_term(F(2), F(1, 2))
    shifted = ps.mul_power(F(1, 2), F(1, 2))  # 2 sqrt(3) * sqrt(3)/2 = 3
    assert shifted.to_fraction() == 3


def test_p_power_bounds_certified():
    lo, hi = p_power_bounds(3, F(1, 2))
    assert float(lo) <= math.sqrt(3) <= float(hi) and lo < hi
    lo, hi = p_power_bounds(3, F(-2))
    assert lo == hi == F(1, 9)
    lo, hi = p_power_bounds(2, F(-5, 3))
    assert float(lo) <= 2 ** (-5 / 3) <= float(hi)
    # 30 digits take an integer square root of a 62-digit radicand, beyond
    # what a float estimate of the root can seed
    lo, hi = p_power_bounds(3, F(-3, 2), digits=30)
    assert lo ** 2 <= F(1, 27) <= hi ** 2 and hi - lo < F(1, 10 ** 29)


def test_exact_complex_equality_across_forms():
    a = ExactComplex(F(1), F(3), 3, F(1, 9))
    b = ExactComplex(F(1), F(1), 3, F(1, 9), F(1, 2))
    assert a == b
    assert complex(a) == pytest.approx(complex(b))


def test_exact_complex_zero_and_sign():
    z = ExactComplex.zero(3)
    assert z.is_zero() and complex(z) == 0
    neg = ExactComplex.from_rational(3, F(-2))
    assert neg.phase == F(1, 2) and complex(neg) == pytest.approx(-2)
    assert neg.scaled(-1) == 2
