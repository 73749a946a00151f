"""The measure |omega| on the fundamental domain as a density profile.

A rational-function datum f(z) = c * prod (z - a_i)^(n_i) induces the measure
|f(z)| |dz| away from its zeros; on any disc avoiding the roots the density
is an exact rational constant.  A profile partitions F into pieces, the
maximal discs of F clear of the zero cores and no finer than its resolution,
each with its constant density, plus zero-core discs around the declared
zeros, which carry no density at all (the measure is not extended to the
zero set).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple
from .padic import Disc, Rational, abs_p, disc_name, discs_disjoint, haar_measure
from .schottky import FundamentalDomain


class RootInsideDisc(ValueError):
    """local_abs needs the disc to avoid every root and pole of the datum."""


class UnalignedDisc(ValueError):
    """A disc or point lies in no single piece of the profile (or, for a
    level function, in no state disc)."""


class ResolutionTooCoarse(ValueError):
    """A single resolution disc would contain two distinct zeros."""


@dataclass(frozen=True)
class RationalFunctionDatum:
    """f(z) = scale * prod (z - root_i)^(mult_i) with exact rational data.

    Negative multiplicities are poles (allowed away from the domain); any
    factor declared irreducible of degree >= 2 violates the rationality
    assumption on the zero set and is rejected at construction.
    """

    scale: Fraction
    factors: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(
            self, "factors",
            tuple((Fraction(r), int(n)) for r, n in self.factors))
        if self.scale == 0:
            raise ValueError("datum scale must be nonzero")

    @classmethod
    def constant(cls) -> "RationalFunctionDatum":
        return cls(Fraction(1), ())

    def zeros(self) -> list[Fraction]:
        return [r for r, n in self.factors if n > 0]

    def poles(self) -> list[Fraction]:
        return [r for r, n in self.factors if n < 0]

    def abs_at(self, z: Rational, p: int) -> Fraction:
        """|f(z)|, exact; raises at roots/poles."""
        z = Fraction(z)
        value = abs_p(self.scale, p)
        for root, mult in self.factors:
            base = abs_p(z - root, p)
            if base == 0:
                raise ZeroDivisionError(f"|f| undefined at {z}")
            value *= base ** mult
        return value

def local_abs(datum: RationalFunctionDatum, disc: Disc, p: int) -> Fraction:
    """The constant value of |f| on a disc containing no root or pole.

    Constancy is the ultrametric fact that |x - a| = |center - a| whenever a
    stays outside the disc.
    """
    if disc.complement:
        raise RootInsideDisc("density is only defined on plain discs")
    for root, _ in datum.factors:
        if disc.contains_point(root, p):
            raise RootInsideDisc(f"root {root} lies in {disc_name(disc, p)}")
    return datum.abs_at(disc.center, p)


class MeasureProfile(NamedTuple):
    """Locally constant density on F: disjoint pieces plus zero-core discs."""

    pieces: tuple[tuple[Disc, Fraction], ...]
    zero_cores: tuple[Disc, ...]
    p: int

    @property
    def total_mass(self) -> Fraction:
        return sum((c * haar_measure(d, self.p) for d, c in self.pieces),
                   Fraction(0))

    def density_on(self, disc: Disc) -> Fraction:
        """Density of the piece containing ``disc``; NotAdmissible otherwise."""
        for piece, dens in self.pieces:
            if piece.contains(disc, self.p):
                return dens
        raise UnalignedDisc(f"{disc} is not inside a single piece")

    def admissible(self, disc: Disc) -> bool:
        """Inside one density piece and clear of every zero core."""
        inside = any(piece.contains(disc, self.p) for piece, _ in self.pieces)
        clear = all(discs_disjoint(disc, core, self.p) for core in self.zero_cores)
        return inside and clear

    def tiling_fault(self, domain: FundamentalDomain) -> str | None:
        """Why the pieces and zero cores do not tile F, or None when they do.

        They tile F when each lies in F, no two meet and their Haar masses
        add up to mu(F): what they leave of F is open and has no mass, so it
        is empty.
        """
        discs = [d for d, _ in self.pieces] + list(self.zero_cores)
        for i, d in enumerate(discs):
            if not domain.contains_disc(d):
                return f"{d} is not inside F"
            for e in discs[i + 1:]:
                if not discs_disjoint(d, e, self.p):
                    return f"{d} meets {e}"
        covered = sum((haar_measure(d, self.p) for d in discs), Fraction(0))
        if covered != domain.measure():
            return f"they cover mass {covered} of mu(F) = {domain.measure()}"
        return None


def build_profile(datum: RationalFunctionDatum, domain: FundamentalDomain,
                  resolution: int) -> MeasureProfile:
    """Exact density profile of |f| on F at the given disc resolution.

    Zeros of the datum inside F get a level-``resolution`` core disc that is
    excluded from the pieces; distinct zeros must separate at that
    resolution.  The pieces are the maximal discs of F clear of every core
    and no finer than the resolution, found by one walk down from the outer
    disc: a disc inside F and clear of the cores is a piece, and any other
    disc coarser than the resolution and in no hole splits into its
    children.  A piece holds no zero or pole of f, so |f| is one constant
    on it (``local_abs``, which refuses a piece holding a root of
    multiplicity 0).
    """
    p = domain.p
    zeros_in_f = [z for z in datum.zeros() if domain.contains_point(z)]
    for pole in datum.poles():
        if domain.contains_point(pole):
            raise RootInsideDisc(f"pole {pole} lies inside the domain")
    cores = [Disc(z, -resolution) for z in zeros_in_f]
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            if not discs_disjoint(cores[i], cores[j], p):
                raise ResolutionTooCoarse(
                    f"zeros {zeros_in_f[i]} and {zeros_in_f[j]} share a "
                    f"level-{resolution} disc")
    pieces = []
    stack = [domain.outer] if domain.outer.radius_exp >= -resolution else []
    while stack:
        disc = stack.pop()
        if domain.contains_disc(disc) and all(discs_disjoint(disc, core, p)
                                              for core in cores):
            pieces.append((disc, local_abs(datum, disc, p)))
        elif (disc.radius_exp > -resolution
              and not any(h.contains(disc, p) for h in domain.holes)):
            stack.extend(disc.children(p))
    pieces.sort(key=lambda it: (it[0].center, it[0].radius_exp))
    return MeasureProfile(tuple(pieces), tuple(cores), p)
