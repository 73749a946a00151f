"""The measure |omega| on the fundamental domain as a density profile.

A rational-function datum f(z) = c * prod (z - a_i)^(n_i) induces the measure
|f(z)| |dz| away from its zeros; on any disc avoiding the roots the density
is an exact rational constant.  Profiles partition F into pieces of constant
density plus zero-core discs around the declared zeros, which carry no
density at all (the measure is not extended to the zero set).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .padic import (Disc, Rational, abs_p, character_phase, discs_disjoint,
                    haar_measure, p_power)
from .schottky import (FundamentalDomain, MoebiusMap, SchottkyGroup,
                       region_image)


class RootInsideDisc(ValueError):
    """local_abs needs the disc to avoid every root and pole of the datum."""


class UnalignedDisc(ValueError):
    """mass() was asked for a disc that straddles the piece partition."""


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
    def constant(cls, value: Rational = 1) -> "RationalFunctionDatum":
        return cls(Fraction(value), ())

    @classmethod
    def tate(cls) -> "RationalFunctionDatum":
        """The multiplicative-coordinate form dz/z: f(z) = 1/z."""
        return cls(Fraction(1), ((Fraction(0), -1),))

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
            raise RootInsideDisc(f"root {root} lies in {disc}")
    return datum.abs_at(disc.center, p)


@dataclass(frozen=True)
class MeasureProfile:
    """Locally constant density on F: disjoint pieces plus zero-core discs."""

    pieces: tuple[tuple[Disc, Fraction], ...]
    zero_cores: tuple[Disc, ...]
    p: int

    @property
    def total_mass(self) -> Fraction:
        return sum((c * haar_measure(d, self.p) for d, c in self.pieces),
                   Fraction(0))

    def zero_core_mass(self) -> Fraction:
        return sum((haar_measure(d, self.p) for d in self.zero_cores),
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

    def density_at(self, x: Rational) -> Fraction:
        for piece, dens in self.pieces:
            if piece.contains_point(x, self.p):
                return dens
        raise UnalignedDisc(f"{x} is not in any piece")

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
    resolution.  Pieces are coalesced to maximal discs of constant density.
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
    pieces: dict[Disc, Fraction] = {}
    for disc in domain.level_discs(resolution):
        if any(not discs_disjoint(disc, core, p) for core in cores):
            continue
        pieces[disc] = local_abs(datum, disc, p)
    merged = _coalesce(pieces, domain, cores, p)
    ordered = tuple(sorted(merged.items(), key=lambda it: (it[0].center, it[0].radius_exp)))
    return MeasureProfile(ordered, tuple(cores), p)


def _coalesce(pieces: dict[Disc, Fraction], domain: FundamentalDomain,
              cores: list[Disc], p: int) -> dict[Disc, Fraction]:
    """Merge complete sibling families of equal density into their parent.

    Levels are taken finest first, and each is read once: discs of radius
    exponent t are siblings when their centres c agree in the p-adic
    fractional part of c * p^(t + 1), so grouping by that key is linear.  A
    merged parent, centred at its least sibling centre, joins level t + 1.
    The result is the set of maximal constant-density discs in F that avoid
    the cores.
    """
    levels: dict[int, dict[Disc, Fraction]] = {}
    for d, dens in pieces.items():
        levels.setdefault(d.radius_exp, {})[d] = dens
    merged: dict[Disc, Fraction] = {}
    while levels:
        t = min(levels)
        level = levels.pop(t)
        families: dict[Fraction, list[Disc]] = {}
        for d in level:
            key = character_phase(d.center * p_power(p, t + 1), p)
            families.setdefault(key, []).append(d)
        for sibs in families.values():
            dens = level[sibs[0]]
            parent = Disc(min(e.center for e in sibs), t + 1)
            if (len(sibs) == p and all(level[e] == dens for e in sibs)
                    and domain.contains_disc(parent)
                    and all(discs_disjoint(parent, core, p) for core in cores)):
                levels.setdefault(t + 1, {})[parent] = dens
            else:
                merged.update((e, level[e]) for e in sibs)
    return merged


def mass(profile: MeasureProfile, disc: Disc) -> Fraction:
    """|omega|-mass of a partition-aligned disc (zero cores carry none)."""
    p = profile.p
    total = Fraction(0)
    seen = False
    for piece, dens in profile.pieces:
        if discs_disjoint(disc, piece, p):
            continue
        if piece.contains(disc, p):
            return dens * haar_measure(disc, p)
        if disc.contains(piece, p):
            total += dens * haar_measure(piece, p)
            seen = True
        else:
            raise UnalignedDisc(f"{disc} straddles piece {piece}")
    for core in profile.zero_cores:
        if not discs_disjoint(disc, core, p) and not disc.contains(core, p):
            raise UnalignedDisc(f"{disc} straddles zero core {core}")
    if not seen and not any(disc.contains(c, p) for c in profile.zero_cores):
        raise UnalignedDisc(f"{disc} meets no piece of the profile")
    return total


@dataclass(frozen=True)
class InvarianceRow:
    piece: Disc
    generator_index: int
    form_invariant: bool        # |f(gamma y)| |gamma'(y)| == |f(y)|
    density_transported: bool   # C_B == C_{gamma B}
    derivative_unimodular: bool # |gamma'| == 1 on the piece
    values: tuple[Fraction, Fraction, Fraction]  # (|f(gy)||g'(y)|, |f(y)|, |g'(y)|)


@dataclass(frozen=True)
class InvarianceReport:
    rows: tuple[InvarianceRow, ...]

    @property
    def form_invariance_holds(self) -> bool:
        return all(r.form_invariant for r in self.rows)

    @property
    def density_transport_holds(self) -> bool:
        return all(r.density_transported for r in self.rows)

    @property
    def derivative_unimodular_holds(self) -> bool:
        return all(r.derivative_unimodular for r in self.rows)


def invariance_audit(profile: MeasureProfile, datum: RationalFunctionDatum,
                     group: SchottkyGroup) -> InvarianceReport:
    """Exact check of three transport identities per (piece, generator).

    (A) honest form-invariance |f(gamma y)| * |gamma'(y)| = |f(y)| sampled on
    the piece; (B) equality of the density constant with the ambient density
    of the image disc; (C) |gamma'| = 1 on the piece.  Disagreement is a
    reported finding, never an error, and so is a root of f at an image
    sample (the value is None) or in the image disc.
    """
    p = group.p
    rows = []
    generators = group.generators if group.genus else (MoebiusMap.identity(),)
    for piece, dens in profile.pieces:
        samples = [piece.center] + [child.center for child in piece.children(p)]
        for gi, gen in enumerate(generators):
            form_ok = True
            vals = None
            for y in samples:
                try:
                    lhs = datum.abs_at(gen.apply(y), p) * gen.derivative_abs(y, p)
                except ZeroDivisionError:  # gamma(y) is a root of f: |f| is 0 or infinite
                    lhs = None
                rhs = datum.abs_at(y, p)
                if vals is None:
                    vals = (lhs, rhs, gen.derivative_abs(y, p))
                if lhs != rhs:
                    form_ok = False
            try:
                image = region_image_density(datum, gen, piece, p)
            except RootInsideDisc:  # |f| is not constant on gamma(piece)
                image = None
            rows.append(InvarianceRow(
                piece, gi, form_ok,
                image == dens,
                all(gen.derivative_abs(y, p) == 1 for y in samples),
                vals))
    return InvarianceReport(tuple(rows))


def region_image_density(datum: RationalFunctionDatum, gen: MoebiusMap,
                         piece: Disc, p: int) -> Fraction:
    """Ambient density |f| on the image disc gamma(piece)."""
    image = region_image(gen, piece, p)
    if image.complement:
        raise RootInsideDisc("image of a piece should stay affine")
    return local_abs(datum, image, p)
