"""Exact scalar types shared by the spectral code.

Three small representations keep every intermediate quantity exact until an
output boundary is reached:

* :class:`PhaseSum` - finite rational combinations of p-power roots of unity,
  reduced modulo the cyclotomic polynomial so that zero is decidable.  Used
  for character sums (wavelet inner products, the enumeration oracle).
* :class:`PowerSum` - finite rational combinations of rational powers of p.
  Sums of kernel terms with non-integral exponents alpha, alpha_g live here;
  for integral exponents they collapse to plain fractions.
* :class:`ExactComplex` - a single term coeff*sqrt(rad)*p^exp * exp(2*pi*i*phase),
  the shape of every wavelet value and eigen-multiple.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class NotRationalError(ArithmeticError):
    """An exact value was asked for in a narrower form than it has."""


def _integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) by pure integer arithmetic."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    # Newton's iteration from 2^ceil(bits/k) >= n^(1/k) decreases to the floor
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def p_power_bounds(p: int, exponent: Fraction, digits: int = 12) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= p**exponent <= hi, exact integer arithmetic."""
    exponent = Fraction(exponent)
    a, b = exponent.numerator, exponent.denominator
    if b == 1:
        val = Fraction(p) ** a
        return val, val
    scale = 10 ** digits
    if a >= 0:
        root = _integer_nth_root(p ** a * scale ** b, b)
        lo = Fraction(root, scale)
        hi = Fraction(root + 1, scale)
    else:
        lo_inv, hi_inv = p_power_bounds(p, -exponent, digits)
        lo, hi = 1 / hi_inv, 1 / lo_inv
    return lo, hi


class PhaseSum:
    """Exact finite sum of terms coeff * exp(2*pi*i*phase) with p-power phases.

    Terms are kept as a phase->coefficient map and are reduced modulo the
    p-power cyclotomic polynomial on demand, so ``is_zero`` and equality are
    decidable: the reduced coefficient vector is a canonical form.
    """

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: dict[Fraction, Fraction] | None = None):
        self.p = p
        self._terms: dict[Fraction, Fraction] = {}
        if terms:
            for phase, coeff in terms.items():
                self.add(phase, coeff)

    def add(self, phase: Rational, coeff: Rational) -> "PhaseSum":
        phase = Fraction(phase) % 1
        den = phase.denominator
        dd = den
        while dd % self.p == 0:
            dd //= self.p
        if dd != 1:
            raise ValueError(f"phase denominator {den} is not a power of {self.p}")
        coeff = Fraction(coeff)
        if coeff:
            new = self._terms.get(phase, Fraction(0)) + coeff
            if new:
                self._terms[phase] = new
            else:
                self._terms.pop(phase, None)
        return self

    def scaled(self, factor: Rational) -> "PhaseSum":
        out = PhaseSum(self.p)
        factor = Fraction(factor)
        for phase, coeff in self._terms.items():
            out.add(phase, coeff * factor)
        return out

    def _reduced_vector(self) -> dict[int, Fraction]:
        """Coefficients on the power basis of the p^M-th cyclotomic field."""
        if not self._terms:
            return {}
        level = max(ph.denominator for ph in self._terms)  # p^M (or 1)
        coeffs: dict[int, Fraction] = {}
        for phase, coeff in self._terms.items():
            e = int(phase * level)
            coeffs[e] = coeffs.get(e, Fraction(0)) + coeff
        if level == 1:
            return {k: v for k, v in coeffs.items() if v}
        block = level // self.p  # p^(M-1); Phi(x) = sum_i x^(i*block)
        top = (self.p - 1) * block
        for e in range(level - 1, top - 1, -1):
            c = coeffs.get(e)
            if not c:
                continue
            del coeffs[e]
            base = e - top
            for i in range(self.p - 1):
                idx = base + i * block
                coeffs[idx] = coeffs.get(idx, Fraction(0)) - c
        return {k: v for k, v in coeffs.items() if v}

    def is_zero(self) -> bool:
        return not self._reduced_vector()

    def to_fraction(self) -> Fraction:
        """The value as a rational; raises if irrational components survive."""
        vec = self._reduced_vector()
        if not vec:
            return Fraction(0)
        if set(vec) == {0}:
            return vec[0]
        raise NotRationalError(f"phase sum is not rational: {vec}")

    def monomial(self) -> tuple[Fraction, Fraction] | None:
        """(coeff, phase) if the raw sum has collapsed to a single term."""
        if len(self._terms) == 1:
            (phase, coeff), = self._terms.items()
            return coeff, phase
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, PhaseSum):
            diff = PhaseSum(self.p, dict(self._terms))
            for phase, coeff in other._terms.items():
                diff.add(phase, -coeff)
            return diff.is_zero()
        if isinstance(other, (int, Fraction)):
            try:
                return self.to_fraction() == other
            except NotRationalError:
                return False
        return NotImplemented

    def __repr__(self):
        return f"PhaseSum(p={self.p}, {dict(self._terms)!r})"


class PowerSum:
    """Exact finite sum of coeff * p**exponent with rational exponents.

    Exponents are normalised to their fractional part in [0, 1); the integer
    part folds into the coefficient.  Distinct fractional powers of p are
    linearly independent over Q, so the map is a canonical form: equality and
    zero tests are exact, and sums are order-independent.
    """

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: dict[Fraction, Fraction] | None = None):
        self.p = p
        self._terms: dict[Fraction, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                self.add_term(coeff, exp)

    @classmethod
    def from_rational(cls, p: int, value: Rational) -> "PowerSum":
        return cls(p, {Fraction(0): Fraction(value)})

    def add_term(self, coeff: Rational, exponent: Rational) -> "PowerSum":
        coeff, exponent = Fraction(coeff), Fraction(exponent)
        if not coeff:
            return self
        shift = math.floor(exponent)
        frac = exponent - shift
        coeff *= Fraction(self.p) ** shift
        new = self._terms.get(frac, Fraction(0)) + coeff
        if new:
            self._terms[frac] = new
        else:
            self._terms.pop(frac, None)
        return self

    def __add__(self, other):
        out = PowerSum(self.p, dict(self._terms))
        if isinstance(other, PowerSum):
            for exp, coeff in other._terms.items():
                out.add_term(coeff, exp)
            return out
        out.add_term(Fraction(other), Fraction(0))
        return out

    __radd__ = __add__

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSum) else -Fraction(other))

    def scaled(self, factor: Rational) -> "PowerSum":
        out = PowerSum(self.p)
        factor = Fraction(factor)
        for exp, coeff in self._terms.items():
            out.add_term(coeff * factor, exp)
        return out

    __mul__ = __rmul__ = scaled  # by a rational only

    def mul_power(self, coeff: Rational, exponent: Rational) -> "PowerSum":
        """Multiply the whole sum by coeff * p**exponent."""
        out = PowerSum(self.p)
        for exp, c in self._terms.items():
            out.add_term(c * Fraction(coeff), exp + Fraction(exponent))
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[Fraction, Fraction]:
        """Fractional exponent -> coefficient map (a copy)."""
        return dict(self._terms)

    def is_rational(self) -> bool:
        return set(self._terms) <= {Fraction(0)}

    def to_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_rational():
            return self._terms[Fraction(0)]
        raise NotRationalError(f"power sum is not rational: {self._terms}")

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure of the value, each p-power to 15 digits."""
        lo = hi = Fraction(0)
        for exp, coeff in self._terms.items():
            blo, bhi = p_power_bounds(self.p, exp, 15)
            if coeff >= 0:
                lo += coeff * blo
                hi += coeff * bhi
            else:
                lo += coeff * bhi
                hi += coeff * blo
        return lo, hi

    def __float__(self) -> float:
        return float(sum(float(c) * float(self.p) ** float(e)
                         for e, c in self._terms.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, PowerSum):
            return self.p == other.p and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_fraction() == Fraction(other)
        return NotImplemented

    def __repr__(self):
        return f"PowerSum(p={self.p}, {dict(self._terms)!r})"


@dataclass(frozen=True)
class ExactComplex:
    """coeff * sqrt(radicand) * p**p_exp * exp(2*pi*i*phase), all fields exact.

    coeff >= 0 and radicand > 0; a vanishing coeff is the canonical zero.
    This is exactly the shape of Kozyrev wavelet values and of their exact
    scalar multiples, including p^(rational) eigen-factors.
    """

    coeff: Fraction
    radicand: Fraction
    p: int
    phase: Fraction
    p_exp: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        object.__setattr__(self, "phase", Fraction(self.phase) % 1)
        object.__setattr__(self, "p_exp", Fraction(self.p_exp))
        if self.coeff < 0:
            raise ValueError("coeff must be nonnegative; fold signs into phase")
        if self.radicand <= 0:
            raise ValueError("radicand must be positive")

    @classmethod
    def zero(cls, p: int) -> "ExactComplex":
        return cls(Fraction(0), Fraction(1), p, Fraction(0))

    @classmethod
    def from_rational(cls, p: int, value: Rational) -> "ExactComplex":
        value = Fraction(value)
        if value >= 0:
            return cls(value, Fraction(1), p, Fraction(0))
        return cls(-value, Fraction(1), p, Fraction(1, 2))

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            if other.p != self.p:
                raise ValueError("mismatched primes")
            return ExactComplex(self.coeff * other.coeff,
                                self.radicand * other.radicand,
                                self.p,
                                self.phase + other.phase,
                                self.p_exp + other.p_exp)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, factor: Rational) -> "ExactComplex":
        factor = Fraction(factor)
        if factor >= 0:
            return ExactComplex(self.coeff * factor, self.radicand, self.p,
                                self.phase, self.p_exp)
        return ExactComplex(self.coeff * -factor, self.radicand, self.p,
                            self.phase + Fraction(1, 2), self.p_exp)

    def magnitude_squared_key(self) -> tuple[Fraction, Fraction]:
        """Canonical key for |value|^2 = q * p^s with v_p(q) = 0."""
        if self.coeff == 0:
            return Fraction(0), Fraction(0)
        from .padic import valuation
        q = self.coeff ** 2 * self.radicand
        v = valuation(q, self.p)
        return q / Fraction(self.p) ** v, v + 2 * self.p_exp

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex.from_rational(self.p, other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return (self.magnitude_squared_key() == other.magnitude_squared_key()
                and self.phase == other.phase)

    def __complex__(self) -> complex:
        mag = (float(self.coeff) * math.sqrt(float(self.radicand))
               * float(self.p) ** float(self.p_exp))
        return mag * cmath.exp(2j * math.pi * float(self.phase))

    def __repr__(self):
        if self.is_zero():
            return "ExactComplex(0)"
        return (f"ExactComplex({self.coeff}*sqrt({self.radicand})"
                f"*{self.p}^{self.p_exp}, phase={self.phase})")
