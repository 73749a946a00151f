"""Kozyrev wavelets on admissible discs, their exact inner products, and
level functions keyed by state disc.

A wavelet is a normalised character bump on a disc B: constant in absolute
value on B, constant on each child sub-disc, mean zero against any density
that is constant on B.  Two normalisations are available: ``haar`` divides
by the square root of the Haar mass of B, ``omega`` by the square root of
the |omega|-mass, which makes the admissible family orthonormal.

Inner products are computed in exact cyclotomic arithmetic
(:class:`~mumford_heat.exactnum.PhaseSum`), so orthogonality statements are
decided, not approximated.  A ``LevelFunction`` holds one value per state
disc of a level, keyed by disc; ``state_discs`` lists those discs (the
states of ``schottky._split_balls``) and ``admissible_supports`` the wavelet
supports that a level resolves, from integer centres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .exactnum import ExactComplex, PhaseSum
from .padic import Disc, Rational, _centres, character_phase, discs_disjoint, haar_measure
from .measure import MeasureProfile, UnalignedDisc
from .schottky import FundamentalDomain, _split_balls


class NotAdmissible(ValueError):
    """The wavelet support meets a zero core or straddles density pieces."""


@dataclass(frozen=True)
class Wavelet:
    """psi_{B,j}: support disc B and residue index j in {1, ..., p-1}.

    The radius exponent of B is the scale parameter d (radius p^d), and the
    value on B is norm_factor * chi(p^(d-1) * j * x).
    """

    support: Disc
    j: int
    p: int

    def __post_init__(self):
        if not 1 <= self.j <= self.p - 1:
            raise ValueError(f"j must lie in 1..{self.p - 1}")
        if self.support.complement:
            raise ValueError("wavelet support must be a plain disc")

    @property
    def scale(self) -> int:
        return self.support.radius_exp

    def phase_at(self, x: Rational) -> Fraction:
        d = self.scale
        return character_phase(Fraction(self.p) ** (d - 1) * self.j * Fraction(x),
                               self.p)

    def norm_magnitude(self, profile: MeasureProfile | None = None,
                       normalization: str = "haar") -> ExactComplex:
        """The constant magnitude on the support, as an exact value."""
        d = self.scale
        if normalization == "haar":
            return ExactComplex(Fraction(1), Fraction(1), self.p, Fraction(0),
                                Fraction(-d, 2))
        if normalization == "omega":
            if profile is None:
                raise ValueError("omega normalisation needs a profile")
            dens = profile.density_on(self.support)
            return ExactComplex(Fraction(1), 1 / dens, self.p, Fraction(0),
                                Fraction(-d, 2))
        raise ValueError(f"unknown normalization {normalization!r}")


def wavelet_eval(w: Wavelet, x: Rational, profile: MeasureProfile | None = None,
                 normalization: str = "haar") -> ExactComplex:
    """Exact wavelet value at a point: zero off-support, magnitude*phase on it."""
    if not w.support.contains_point(x, w.p):
        return ExactComplex.zero(w.p)
    mag = w.norm_magnitude(profile, normalization)
    return ExactComplex(mag.coeff, mag.radicand, w.p, w.phase_at(x), mag.p_exp)


def _support_check(w: Wavelet, profile: MeasureProfile) -> None:
    if not profile.admissible(w.support):
        raise NotAdmissible(f"support {w.support} is not admissible")


def inner_product(w1: Wavelet, w2: Wavelet, profile: MeasureProfile,
                  normalization: str = "omega") -> ExactComplex:
    """<psi_1, psi_2> against |omega|, in exact cyclotomic arithmetic.

    The integrand is constant on the children of the smaller support, so the
    integral is a finite character sum; after cyclotomic reduction it always
    collapses to zero or to a single exact term.
    """
    if w1.p != w2.p:
        raise ValueError("mismatched primes")
    p = w1.p
    _support_check(w1, profile)
    _support_check(w2, profile)
    if discs_disjoint(w1.support, w2.support, p):
        return ExactComplex.zero(p)
    small = w1 if w1.scale <= w2.scale else w2
    dens = profile.density_on(small.support)
    phases = PhaseSum(p)
    for child in small.support.children(p):
        c = child.center
        phases.add(w1.phase_at(c) - w2.phase_at(c),
                   dens * haar_measure(child, p))
    mag = (w1.norm_magnitude(profile, normalization)
           * w2.norm_magnitude(profile, normalization))
    return _collapse(phases, mag)


def _collapse(phases: PhaseSum, magnitude: ExactComplex) -> ExactComplex:
    if phases.is_zero():
        return ExactComplex.zero(magnitude.p)
    mono = phases.monomial()
    if mono is None:
        value = phases.to_fraction()  # raises if genuinely non-monomial
        return ExactComplex.from_rational(magnitude.p, value) * magnitude
    coeff, phase = mono
    return ExactComplex.from_rational(magnitude.p, coeff) * magnitude \
        * ExactComplex(Fraction(1), Fraction(1), magnitude.p, phase)


# ---------------------------------------------------------------------------
# Level functions, state discs and admissible supports
# ---------------------------------------------------------------------------

class LevelFunction(NamedTuple):
    """Locally constant function at a fixed level: one value per state disc."""

    level: int
    values: tuple[tuple[Disc, complex], ...]

    @classmethod
    def from_mapping(cls, level: int, mapping: Mapping[Disc, complex]) -> "LevelFunction":
        ordered = tuple(sorted(mapping.items(), key=lambda it: it[0].center))
        return cls(level, ordered)

    @classmethod
    def from_wavelet(cls, w: Wavelet, level: int, states: Iterable[Disc],
                     profile: MeasureProfile | None = None,
                     normalization: str = "haar") -> "LevelFunction":
        vals = {}
        for disc in states:
            vals[disc] = complex(wavelet_eval(w, disc.center, profile, normalization))
        return cls.from_mapping(level, vals)

    def as_dict(self) -> dict[Disc, complex]:
        return dict(self.values)

    def value_at(self, x: Rational, p: int) -> complex:
        for disc, val in self.values:
            if disc.contains_point(x, p):
                return val
        raise UnalignedDisc(f"{x} is not in any state disc")

    def sup_norm(self) -> float:
        return max((abs(v) for _, v in self.values), default=0.0)


def state_discs(domain: FundamentalDomain, profile: MeasureProfile,
                level: int) -> list[Disc]:
    """Level-``level`` discs of F clear of every zero core, ordered by centre:
    the states of ``schottky._split_balls``, a piece of ``profile`` or none."""
    keys = _split_balls(domain, profile, level)[0]
    return [Disc(c, -level) for c in _centres(domain.outer, domain.p, keys)]


def admissible_supports(profile: MeasureProfile, max_level: int) -> list[Disc]:
    """All admissible wavelet supports whose children live at level <= max_level,
    by radius, then centre: in each piece D(c, p^r) the discs
    D(c + p^(-r) M, p^(r-j)), 0 <= M < p^j, their centres sorted as integers
    over one common denominator."""
    p = profile.p
    den = math.lcm(*(d.center.denominator * p ** max(d.radius_exp, 0) for d, _ in profile.pieces))
    runs = [(d.radius_exp, int(d.center * den), int(den * Fraction(p) ** -d.radius_exp))
            for d, _ in profile.pieces]  # per piece D(c, p^r): r, den c and den p^(-r)
    out = []
    for e in range(max((r for r, _, _ in runs), default=0), -max_level, -1):
        out += [Disc(Fraction(n, den), e) for n in sorted(
            c + m * step for r, c, step in runs if r >= e for m in range(p ** (r - e)))]
    return out


def admissible_wavelets(profile: MeasureProfile, max_level: int) -> list[Wavelet]:
    return [Wavelet(d, j, profile.p)
            for d in admissible_supports(profile, max_level)
            for j in range(1, profile.p)]
