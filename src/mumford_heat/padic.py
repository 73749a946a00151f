"""Exact arithmetic of the p-adic rationals.

Everything in this module is a pure function of exact data: field elements
are ``fractions.Fraction`` values interpreted inside Q_p, discs are pairs
(center, radius exponent), and all absolute values, measures and character
integrals come out as exact rationals.  There is no precision model; the
residue degree ``RESIDUE_DEGREE`` is carried as a named constant (fixed to 1,
so the uniformiser is p itself and |p| = 1/p).

The disc predicates (membership, containment, disjointness) compare
valuations, not absolute values: |x - c| <= p^t is v_p(x - c) >= -t, with
v_p(x - c) read off the integer numerators and denominators by
:func:`difference_valuation`, so no ``Fraction`` is built to answer them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

Rational = Union[int, Fraction]

#: Residue-field degree f of the coefficient field over F_p.  The toolkit
#: works over the p-adic rationals, so f = 1 and the uniformiser is p; it is
#: kept symbolic so formulas display their f-dependence.
RESIDUE_DEGREE = 1

#: Valuation of zero.
INFINITE_VALUATION = math.inf


class PoleHit(ZeroDivisionError):
    """A Moebius map was evaluated at its pole."""

    #: the pole, where the group-sum engine reports it
    pole: Fraction | None = None


def valuation(x: Rational, p: int) -> Union[int, float]:
    """Exact p-adic valuation v_p(x); ``INFINITE_VALUATION`` for x = 0."""
    if isinstance(x, int):
        if x % p:  # most integers are units: one remainder answers them
            return 0
        if x == 0:
            return INFINITE_VALUATION
        x //= p
        v = 1
        while not x % p:
            x //= p
            v += 1
        return v
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def pair_difference_valuation(x: tuple[int, int], y: tuple[int, int],
                              p: int) -> Union[int, float]:
    """v_p(xn/xd - yn/yd) for integer pairs (numerator, nonzero denominator).

    v_p(xn*yd - yn*xd) - v_p(xd) - v_p(yd): no pair needs reducing, since a
    common factor adds the same valuation to a numerator and its denominator.
    """
    (xn, xd), (yn, yd) = x, y
    return valuation(xn * yd - yn * xd, p) - valuation(xd, p) - valuation(yd, p)


def difference_valuation(x: Fraction, y: Fraction, p: int) -> Union[int, float]:
    """v_p(x - y) of two rationals, from their numerators and denominators."""
    return pair_difference_valuation((x.numerator, x.denominator),
                                     (y.numerator, y.denominator), p)


def p_power(p: int, e: int) -> Fraction:
    """The exact rational p^e for an integer exponent e."""
    return Fraction(p ** e) if e >= 0 else Fraction(1, p ** -e)


def abs_p(x: Rational, p: int) -> Fraction:
    """p-adic absolute value |x| = p^(-f*v_p(x)), an exact rational (0 for x=0)."""
    return abs_from_valuation(valuation(x, p), p)


def abs_from_valuation(v: Union[int, float], p: int) -> Fraction:
    """The absolute value p^(-f*v) of an element of valuation v (0 for v = inf)."""
    if v == INFINITE_VALUATION:
        return Fraction(0)
    return p_power(p, -RESIDUE_DEGREE * v)


def character_phase(x: Rational, p: int) -> Fraction:
    """Phase of the standard additive character, as a rational in [0, 1).

    chi(x) = exp(2*pi*i*phase) where phase is the p-adic fractional part of
    x: the unique rational t/p^k in [0,1) with x - t/p^k p-integral.  The
    character is trivial on p-adic integers and additive mod 1.
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Fraction(0)
    pk = p ** k
    t = (num * pow(den, -1, pk)) % pk
    return Fraction(t, pk)


@dataclass(frozen=True)
class Disc:
    """Closed p-adic ball {x : |x - center| <= p^radius_exp}.

    With ``complement=True`` the object denotes {x : |x - center| > p^radius_exp}
    instead (the affine part of a ball around infinity); this is the co-disc
    encoding used for holes of a fundamental domain that contain infinity.
    """

    center: Fraction
    radius_exp: int
    complement: bool = False

    def __post_init__(self):
        if not isinstance(self.center, Fraction):
            object.__setattr__(self, "center", Fraction(self.center))

    def radius(self, p: int) -> Fraction:
        return p_power(p, self.radius_exp)

    def contains_point(self, x: Rational, p: int) -> bool:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        inside = difference_valuation(x, self.center, p) >= -self.radius_exp
        return inside != self.complement

    def complement_region(self) -> "Disc":
        return Disc(self.center, self.radius_exp, not self.complement)

    def contains(self, other: "Disc", p: int) -> bool:
        """Exact containment ``other`` subset of ``self`` (affine parts)."""
        if not self.complement and not other.complement:
            return (other.radius_exp <= self.radius_exp
                    and difference_valuation(self.center, other.center, p)
                    >= -self.radius_exp)
        if self.complement and other.complement:
            # K\E1 >= K\E2  <=>  E2 >= E1
            return Disc(other.center, other.radius_exp).contains(
                Disc(self.center, self.radius_exp), p)
        if self.complement and not other.complement:
            # other inside K\E  <=>  other disjoint from E
            return discs_disjoint(other, Disc(self.center, self.radius_exp), p)
        # plain disc can never contain a co-disc
        return False

    def children(self, p: int) -> Iterator["Disc"]:
        """The p sub-discs one radius level down (plain discs only)."""
        if self.complement:
            raise ValueError("co-disc has no canonical children")
        step = p_power(p, -self.radius_exp)
        for i in range(p):
            yield Disc(self.center + i * step, self.radius_exp - 1)


def disc_name(disc: Disc, p: int) -> str:
    """The docs' name of a disc, ``D(1/3, 3^-2)``; a co-disc is ``Q_3 \\ D(0, 3^0)``."""
    name = f"D({disc.center}, {p}^{disc.radius_exp})"
    return f"Q_{p} \\ {name}" if disc.complement else name


def discs_disjoint(d1: Disc, d2: Disc, p: int) -> bool:
    """Exact disjointness test; handles the co-disc flag on either side."""
    if not d1.complement and not d2.complement:
        return (difference_valuation(d1.center, d2.center, p)
                < -max(d1.radius_exp, d2.radius_exp))
    if d1.complement and not d2.complement:
        return Disc(d1.center, d1.radius_exp).contains(d2, p)
    if d2.complement and not d1.complement:
        return Disc(d2.center, d2.radius_exp).contains(d1, p)
    # two co-discs always share the neighbourhood of infinity
    return False


def haar_measure(disc: Disc, p: int) -> Fraction:
    """Haar measure normalised so the unit ball has mass 1: mu(D) = p^radius_exp."""
    if disc.complement:
        raise ValueError("co-disc has infinite Haar measure")
    return p_power(p, disc.radius_exp)


def disc_intersection(d1: Disc, d2: Disc, p: int) -> Disc | None:
    """Intersection of two plain discs: the smaller one, or None."""
    if d1.complement or d2.complement:
        raise ValueError("plain discs expected")
    if discs_disjoint(d1, d2, p):
        return None
    return d2 if d2.radius_exp <= d1.radius_exp else d1


def covered_measure(target: Disc, pieces: list[Disc], p: int) -> Fraction:
    """Haar mass of ``target`` covered by a union of plain discs.

    Because any two p-adic discs are nested or disjoint, the union of the
    clipped pieces equals the disjoint union of its maximal members, so the
    covered mass is an exact finite sum.
    """
    clipped = []
    for piece in pieces:
        inter = disc_intersection(target, piece, p)
        if inter is not None:
            clipped.append(inter)
    maximal: list[Disc] = []
    for cand in sorted(clipped, key=lambda d: -d.radius_exp):
        if not any(m.contains(cand, p) for m in maximal):
            maximal.append(cand)
    return sum((haar_measure(d, p) for d in maximal), Fraction(0))


# ---------------------------------------------------------------------------
# Closed-form character integrals and their enumeration oracle
# ---------------------------------------------------------------------------

def sphere_character_integral(a: Rational, k: int, m: int, p: int) -> Fraction:
    """Exact value of the oscillatory integral of chi(a*x)*|x|^m over the
    sphere {|x| = p^(-k)}.

    Three closed-form cases, split on |a| against p^k: full sphere mass for
    small |a|, a single cancellation level at |a| = p^(k+1), and zero beyond.
    """
    pi_abs = Fraction(1, p)
    a_abs = abs_p(a, p)
    if a_abs <= Fraction(p) ** k:
        return pi_abs ** (k * (m + 1)) * (1 - pi_abs)
    if a_abs == Fraction(p) ** (k + 1):
        return -(pi_abs ** (k * (m + 1) + 1))
    return Fraction(0)


def ball_character_moment_integral(a: Rational, ell: int, m: int, p: int) -> Fraction:
    """Exact value of the integral of chi(a*x)*|x|^m over the ball {|x| <= p^(-ell)}.

    Requires a != 0 (which fixes d via |a| = p^(1-d)) and m >= 0.  The value
    telescopes out of the sphere integrals; it vanishes iff m = 0 and
    ell <= -d.
    """
    if Fraction(a) == 0:
        raise ValueError("a must be nonzero")
    if m < 0:
        raise ValueError("m must be nonnegative")
    pi_abs = Fraction(1, p)
    d = valuation(a, p) + 1  # |a| = |pi|^(d-1)
    c_m = (1 - pi_abs) / (1 - pi_abs ** (m + 1))
    if ell >= 1 - d:
        return c_m * pi_abs ** (ell * (m + 1))
    # ell <= -d: the deeper spheres all cancel, so the value is ell-independent
    return c_m * pi_abs ** ((1 - d) * (m + 1)) - pi_abs ** (1 - d * (m + 1))


def brute_sphere_decomposition(a: Rational, k_min: int, k_max: int, m: int,
                               p: int) -> Fraction:
    """Independent oracle: sum chi(a*x)|x|^m over spheres p^(-k), k_min<=k<=k_max,
    by finite enumeration of residue classes on which chi(a*x) is constant.

    Returns an exact rational; the imaginary parts cancel class-by-class and
    the real parts collapse through full root-of-unity sums, which are
    evaluated exactly in the cyclotomic arithmetic of :mod:`exactnum`.
    """
    from .exactnum import PhaseSum

    total = PhaseSum(p)
    va = valuation(a, p)
    for k in range(k_min, k_max + 1):
        # chi(a*x) is constant on discs of radius min(p^(-k-1), p^va);
        # enumerate sphere representatives at that resolution.
        res = k + 1 if va is INFINITE_VALUATION else max(k + 1, -va)
        depth = res - k  # digits beyond the leading one
        weight = Fraction(p) ** (-k * m) * Fraction(p) ** (-res)
        step = Fraction(p) ** k
        for lead in range(1, p):
            for tail in range(p ** (depth - 1)):
                x0 = step * (lead + p * tail)
                total.add(character_phase(Fraction(a) * x0, p), weight)
    return total.to_fraction()
