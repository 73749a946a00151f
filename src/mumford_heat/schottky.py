"""Schottky groups acting on the projective line over Q_p.

Generators are integer Moebius matrices (content-reduced, nonzero
determinant); group elements are reduced words over the generators and their
inverses.  The module provides exact disc images under Moebius maps (with
co-disc handling for regions containing infinity), breadth-first word
enumeration with the standard 2g(2g-1)^(l-1) counts (optionally pruned),
fundamental-domain verification, and reduction of points to the fundamental
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .padic import (Disc, PoleHit, Rational, abs_from_valuation, abs_p,
                    covered_measure, difference_valuation, discs_disjoint,
                    haar_measure, pair_difference_valuation, valuation)


class DomainInvalid(ValueError):
    """A fundamental-domain invariant failed; the message names the clause."""


class ReductionDiverged(RuntimeError):
    """Point reduction hit its iteration cap or its witness failed to check."""


class DiscsIntersect(ValueError):
    """disc_distance was asked for two intersecting discs."""


def _gcd_many(values: Sequence[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


@dataclass(frozen=True)
class MoebiusMap:
    """Integer matrix [[a, b], [c, d]] acting as x -> (a*x+b)/(c*x+d).

    The matrix content (gcd of the entries) is reduced to 1 on construction;
    this keeps composition canonical in PGL_2 without leaving integer
    arithmetic.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise ValueError("singular matrix")
        g = _gcd_many([self.a, self.b, self.c, self.d])
        if g > 1:
            object.__setattr__(self, "a", self.a // g)
            object.__setattr__(self, "b", self.b // g)
            object.__setattr__(self, "c", self.c // g)
            object.__setattr__(self, "d", self.d // g)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def pole(self) -> Fraction | None:
        """The finite pole -d/c, or None for affine maps (pole at infinity)."""
        if self.c == 0:
            return None
        return Fraction(-self.d, self.c)

    def apply_pair(self, num: int, den: int) -> tuple[int, int]:
        """The image of num/den as the integer pair (a*num + b*den, c*num + d*den).

        The pair is not reduced; a zero second entry means num/den is the pole.
        """
        return self.a * num + self.b * den, self.c * num + self.d * den

    def apply(self, x: Rational) -> Fraction:
        x = Fraction(x)
        den = self.c * x + self.d
        if den == 0:
            raise PoleHit(f"{self!r} evaluated at pole {x}")
        return (self.a * x + self.b) / den

    def derivative_abs(self, x: Rational, p: int) -> Fraction:
        """|gamma'(x)| = |det| / |c*x+d|^2, exact."""
        x = Fraction(x)
        den = self.c * x + self.d
        if den == 0:
            raise PoleHit(f"{self!r} differentiated at pole {x}")
        return abs_p(self.det, p) / abs_p(den, p) ** 2

    def is_hyperbolic(self, p: int) -> bool:
        """Exact hyperbolicity criterion: 2*v_p(trace) < v_p(det).

        Equivalent to the eigenvalues splitting in Q_p with distinct absolute
        values, i.e. a loxodromic action with two fixed points.
        """
        tr = self.a + self.d
        if tr == 0:
            return False
        return 2 * valuation(tr, p) < valuation(self.det, p)

    def __repr__(self):
        return f"MoebiusMap([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def moebius_distance_identity_check(gamma: MoebiusMap, x: Rational, y: Rational,
                                    p: int) -> tuple[Fraction, Fraction]:
    """Both sides of |gx - gy| = |g'(x)|^(1/2) |g'(y)|^(1/2) |x - y|.

    Both sides are exact rationals, obtained from the valuations of
    :func:`moebius_distance_valuations`; the identity is unconditional.
    """
    x, y = Fraction(x), Fraction(y)
    xp, yp = (x.numerator, x.denominator), (y.numerator, y.denominator)
    lhs, rhs = moebius_distance_valuations(
        gamma, xp, yp, gamma.apply_pair(*xp), gamma.apply_pair(*yp), p)
    return abs_from_valuation(lhs, p), abs_from_valuation(rhs, p)


def moebius_distance_valuations(gamma: MoebiusMap, x: tuple[int, int],
                                y: tuple[int, int], gx: tuple[int, int],
                                gy: tuple[int, int], p: int
                                ) -> tuple[int | float, int | float]:
    """Valuations of both sides of |gx - gy| = |g'(x)|^(1/2) |g'(y)|^(1/2) |x - y|.

    Points are integer pairs (numerator, denominator), reduced or not, and
    ``gx``, ``gy`` are ``gamma.apply_pair`` of ``x``, ``y``.  With
    x = xn/xd and gx = (Ax, Bx):

        left:  v(gx - gy)
        right: (v(g'(x)) + v(g'(y))) / 2 + v(x - y),

    each difference by :func:`pair_difference_valuation`, and
    v(g'(x)) = v(det) - 2*(v(Bx) - v(xd)) because c*x + d = Bx/xd.  The
    halving is the square root of the derivative product; it is exact only
    for an even valuation, which is checked.  A zero distance has valuation
    ``INFINITE_VALUATION``.
    """
    if gx[1] == 0 or gy[1] == 0:
        raise PoleHit(f"{gamma!r} evaluated at its pole")
    vdet = valuation(gamma.det, p)
    vprod = sum(vdet - 2 * (valuation(image[1], p) - valuation(point[1], p))
                for point, image in ((x, gx), (y, gy)))
    if vprod % 2:
        raise ArithmeticError(f"p^{-vprod} is not a rational square")
    return (pair_difference_valuation(gx, gy, p),
            vprod // 2 + pair_difference_valuation(x, y, p))


def region_image(gamma: MoebiusMap, region: Disc, p: int) -> Disc:
    """Exact image of a disc or co-disc under a Moebius map, as a disc or co-disc.

    Moebius maps are bijections of the projective line, so the image of the
    complement is the complement of the image; a disc maps to a co-disc
    exactly when it contains the pole.  The centre c0 = n/m moves as the
    integer pair ``gamma.apply_pair(n, m)`` = (num, den), and the radius
    exponent comes from valuations alone, with v(c*c0 + d) = v(den) - v(m):

    * affine maps (c = 0): D(gamma(c0), t - v(det) + 2*v(d));
    * pole outside D(c0, t), i.e. v(c*c0 + d) < v(c) - t:
      D(gamma(c0), t + 2*v(c*c0 + d) - v(det));
    * pole inside: the co-disc about a/c with exponent 2*v(c) - t - 1 - v(det).
    """
    if region.complement:
        inner = region_image(gamma, region.complement_region(), p)
        return inner.complement_region()
    c0, t = region.center, region.radius_exp
    num, den = gamma.apply_pair(c0.numerator, c0.denominator)
    vdet = valuation(gamma.det, p)
    if gamma.c == 0:
        return Disc(Fraction(num, den), t - vdet + 2 * valuation(gamma.d, p))
    vc = valuation(gamma.c, p)
    if den != 0:
        vw = valuation(den, p) - valuation(c0.denominator, p)
        if vw < vc - t:
            return Disc(Fraction(num, den), t + 2 * vw - vdet)
    return Disc(Fraction(gamma.a, gamma.c), 2 * vc - t - 1 - vdet,
                complement=True)


def regions_equal(r1: Disc, r2: Disc, p: int) -> bool:
    """Set equality of discs/co-discs (centers need not match literally)."""
    return r1.contains(r2, p) and r2.contains(r1, p)


def disc_distance(d1: Disc, d2: Disc, p: int) -> Fraction:
    """|center1 - center2| for disjoint plain discs (constant over point pairs)."""
    if d1.complement or d2.complement:
        raise DiscsIntersect("distance only defined for plain discs")
    if not discs_disjoint(d1, d2, p):
        raise DiscsIntersect(f"{d1} and {d2} intersect")
    return abs_from_valuation(difference_valuation(d1.center, d2.center, p), p)


# ---------------------------------------------------------------------------
# Reduced words
# ---------------------------------------------------------------------------

Letter = int  # +i / -i for generator i (1-based) and its inverse


@dataclass(frozen=True)
class GroupWord:
    """Reduced word over the alphabet {gamma_1^+-1, ..., gamma_g^+-1}.

    Letters are nonzero signed integers; the tuple never contains an adjacent
    letter/inverse pair.
    """

    letters: tuple[Letter, ...] = ()

    @classmethod
    def from_letters(cls, letters: Sequence[Letter]) -> "GroupWord":
        out: list[Letter] = []
        for s in letters:
            if s == 0:
                raise ValueError("0 is not a letter")
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return cls(tuple(out))

    @classmethod
    def identity(cls) -> "GroupWord":
        return cls(())

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def compose(self, other: "GroupWord") -> "GroupWord":
        return GroupWord.from_letters(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(-s for s in reversed(self.letters)))

    def __repr__(self):
        if not self.letters:
            return "GroupWord(1)"
        names = []
        for s in self.letters:
            names.append(f"g{abs(s)}" + ("'" if s < 0 else ""))
        return "GroupWord(" + ".".join(names) + ")"


def enumerate_words(g: int, max_len: int) -> Iterator[GroupWord]:
    """All reduced words of length <= max_len, breadth-first by length.

    Yields the identity first, then exactly 2g(2g-1)^(l-1) words of each
    length l >= 1, built by appending any letter other than the inverse of
    the last one.
    """
    yield GroupWord.identity()
    if g == 0:
        return
    alphabet = [i for k in range(1, g + 1) for i in (k, -k)]
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[Letter, ...]] = []
        for word in frontier:
            for s in alphabet:
                if word and word[-1] == -s:
                    continue
                grown = word + (s,)
                yield GroupWord(grown)
                nxt.append(grown)
        frontier = nxt


def words_with_maps(group: "SchottkyGroup", max_len: int,
                    prune: Callable[[tuple[Letter, ...], "MoebiusMap", Letter], bool]
                    | None = None) -> Iterator[tuple["GroupWord", "MoebiusMap"]]:
    """Breadth-first reduced words with their matrices, built incrementally.

    Streaming form of :func:`enumerate_words` used by truncated group sums;
    matrices are extended by one letter per step, so no word is recomputed.
    ``prune(prefix, prefix_map, letter)``, when given, is asked before each
    word prefix + (letter,) is built; when it returns True, that word and
    every reduced word extending it are skipped.
    """
    identity = MoebiusMap.identity()
    yield GroupWord.identity(), identity
    if group.genus == 0:
        return
    alphabet = [(s, group.letter_map(s))
                for k in range(1, group.genus + 1) for s in (k, -k)]
    frontier: list[tuple[tuple[Letter, ...], MoebiusMap]] = [((), identity)]
    for _ in range(max_len):
        nxt = []
        for word, mat in frontier:
            for s, smat in alphabet:
                if word and word[-1] == -s:
                    continue
                if prune is not None and prune(word, mat, s):
                    continue
                grown = (word + (s,), mat.compose(smat))
                yield GroupWord(grown[0]), grown[1]
                nxt.append(grown)
        frontier = nxt


# ---------------------------------------------------------------------------
# The group with its fundamental domain data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalDomain:
    """Outer disc minus the 2g holes: the good fundamental domain F.

    Holes may carry the co-disc flag (a hole around infinity); such a hole
    must contain the complement of the outer disc, and contributes no mass
    inside it.
    """

    outer: Disc
    holes: tuple[Disc, ...]
    p: int

    def measure(self) -> Fraction:
        total = haar_measure(self.outer, self.p)
        inner = [h for h in self.holes if not h.complement]
        return total - covered_measure(self.outer, inner, self.p)

    def contains_point(self, x: Rational, p: int | None = None) -> bool:
        p = p or self.p
        if not self.outer.contains_point(x, p):
            return False
        return all(not h.contains_point(x, p) for h in self.holes)

    def contains_disc(self, disc: Disc) -> bool:
        if not self.outer.contains(disc, self.p):
            return False
        return all(discs_disjoint(disc, h, self.p) for h in self.holes)

    def level_discs(self, m: int) -> list[Disc]:
        """All discs of radius p^-m inside F, ordered by center."""
        if self.outer.radius_exp < -m:
            return []
        found = []
        stack = [self.outer]
        while stack:
            d = stack.pop()
            if any(h.contains(d, self.p) for h in self.holes):
                continue
            if d.radius_exp == -m:
                if self.contains_disc(d):
                    found.append(d)
                continue
            stack.extend(d.children(self.p))
        found.sort(key=lambda d: d.center)
        return found

    def maximal_discs(self) -> list[Disc]:
        """Maximal discs contained in F (the canonical coarse partition)."""
        out: list[Disc] = []
        stack = [self.outer]
        while stack:
            d = stack.pop()
            if self.contains_disc(d):
                out.append(d)
            elif all(not h.contains(d, self.p) for h in self.holes):
                if any(not discs_disjoint(d, h, self.p) for h in self.holes):
                    stack.extend(d.children(self.p))
        out.sort(key=lambda d: (d.center, d.radius_exp))
        return out


@dataclass(frozen=True)
class SchottkyGroup:
    """Free group of hyperbolic Moebius maps with paired Schottky holes.

    ``holes[i]`` (i < g) is the source disc D_i of generator i+1 and
    ``holes[g+i]`` its target D'_i: the generator maps the complement of the
    source into the target.  Exactly one hole carries the co-disc flag when
    g >= 1, realising the assumption that infinity is a limit point.
    """

    p: int
    generators: tuple[MoebiusMap, ...]
    holes: tuple[Disc, ...]
    outer: Disc

    def __post_init__(self):
        if len(self.holes) != 2 * self.genus:
            raise DomainInvalid("expected 2g holes")
        for gen in self.generators:
            if not gen.is_hyperbolic(self.p):
                raise DomainInvalid(f"generator {gen} is not hyperbolic")
        if self.genus >= 1 and sum(1 for h in self.holes if h.complement) != 1:
            raise DomainInvalid(
                "exactly one hole must be marked as a complement so that "
                "infinity is a limit point")

    @property
    def genus(self) -> int:
        return len(self.generators)

    def source_hole(self, letter: Letter) -> Disc:
        i = abs(letter) - 1
        return self.holes[i] if letter > 0 else self.holes[self.genus + i]

    def target_hole(self, letter: Letter) -> Disc:
        return self.source_hole(-letter)

    def letter_map(self, letter: Letter) -> MoebiusMap:
        gen = self.generators[abs(letter) - 1]
        return gen if letter > 0 else gen.inverse()

    def word_map(self, word: GroupWord) -> MoebiusMap:
        mat = MoebiusMap.identity()
        for s in word.letters:
            mat = mat.compose(self.letter_map(s))
        return mat

    def fundamental_domain(self) -> FundamentalDomain:
        return FundamentalDomain(self.outer, self.holes, self.p)


def delta(disc: Disc, word: GroupWord, group: SchottkyGroup) -> Fraction:
    """delta(B, gamma*B): 1 for the identity, the exact disc distance otherwise."""
    if word.is_identity():
        return Fraction(1)
    image = region_image(group.word_map(word), disc, group.p)
    return disc_distance(disc, image, group.p)


@dataclass(frozen=True)
class DomainReport:
    holes_disjoint: bool
    pairing_ok: bool
    tiles_checked: int
    tiles_disjoint: bool
    details: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.holes_disjoint and self.pairing_ok and self.tiles_disjoint


def verify_fundamental_domain(group: SchottkyGroup, depth: int = 6,
                              raise_on_failure: bool = True) -> DomainReport:
    """Exact verification of the Schottky domain data.

    (i) the 2g holes are pairwise disjoint and sit inside the outer disc
        (the co-disc hole must be the complement of the outer disc), and
        they leave F nonempty;
    (ii) each generator maps the complement of its source hole onto its
         target hole, by exact region images;
    (iii) for every reduced word w = a_1...a_k with 1 <= k <= depth the tile
          w(F) is disjoint from F, certified by one containment per word: the
          region I = w(source(a_k)) must contain the complement of
          target(a_1).

    Clause (iii) is sound: F lies in the complement of every hole, so the
    tile w(F) lies in w(complement of source(a_k)), the complement of I.
    When I contains the complement of target(a_1), the tile lies in
    target(a_1), a hole, which F avoids.

    Clause (iii) is only checked once (i) and (ii) hold, and then it cannot
    fail: w(source(a_k)) contains the complement of target(a_1) for every
    reduced word, by induction on k.  For k = 1, a(source(a)) is the
    complement of a(complement of source(a)) = target(a) by (ii).  For k > 1
    write w = a_1 w' with w' = a_2...a_k, so w'(source(a_k)) contains the
    complement of target(a_2).  Since a_2 != a_1^-1, target(a_2) and
    source(a_1) = target(a_1^-1) are distinct holes, disjoint by (i); so the
    complement of target(a_2) contains source(a_1), and w(source(a_k))
    contains a_1(source(a_1)), the complement of target(a_1).  The clause is
    a certificate of this ping-pong argument, not a proof.
    """
    details: list[str] = []
    p = group.p

    holes_ok = True
    for i in range(len(group.holes)):
        for j in range(i + 1, len(group.holes)):
            if not discs_disjoint(group.holes[i], group.holes[j], p):
                holes_ok = False
                details.append(f"clause (i): holes {i} and {j} intersect")
    for i, h in enumerate(group.holes):
        if h.complement:
            # not just disjoint from the outer disc: a gap between the two
            # would be covered by neither F nor any tile
            if not regions_equal(h.complement_region(), group.outer, p):
                holes_ok = False
                details.append(f"clause (i): co-hole {i} is not the "
                               "complement of the outer disc")
        elif not group.outer.contains(h, p):
            holes_ok = False
            details.append(f"clause (i): hole {i} not inside the outer disc")
    if holes_ok and group.fundamental_domain().measure() == 0:
        holes_ok = False
        details.append("clause (i): the holes cover the outer disc, so F is empty")

    pairing_ok = True
    for k in range(1, group.genus + 1):
        for letter in (k, -k):
            source = group.source_hole(letter)
            target = group.target_hole(letter)
            image = region_image(group.letter_map(letter),
                                 source.complement_region(), p)
            # Equality, not containment: a strictly smaller image leaves gap
            # points covered by no translate of F, so reduction would cycle.
            if not regions_equal(image, target, p):
                pairing_ok = False
                details.append(
                    f"clause (ii): generator letter {letter} maps the complement "
                    f"of its source to {image}, not onto {target}")

    tiles_ok = True
    checked = 0
    if holes_ok and pairing_ok:
        for word, mat in words_with_maps(group, depth):
            if word.is_identity():
                continue
            checked += 1
            if not _tile_in_first_target(group, word, mat):
                tiles_ok = False
                details.append(f"clause (iii): tile of {word} meets F")

    report = DomainReport(holes_ok, pairing_ok, checked, tiles_ok, tuple(details))
    if raise_on_failure and not report.ok:
        raise DomainInvalid("; ".join(details))
    return report


def _tile_in_first_target(group: SchottkyGroup, word: GroupWord,
                          mat: MoebiusMap) -> bool:
    """Clause (iii) for one nonempty reduced word w = a_1...a_k with matrix
    ``mat``: does w(source(a_k)) contain the complement of target(a_1)?"""
    image = region_image(mat, group.source_hole(word.letters[-1]), group.p)
    return image.contains(group.target_hole(word.letters[0]).complement_region(),
                          group.p)


def reduce_to_domain(group: SchottkyGroup, z: Rational,
                     max_steps: int = 256) -> tuple[Fraction, GroupWord]:
    """Reduce z in Omega to its representative x in F with an exact witness.

    Returns (x, w) with w(x) = z exactly.  Each step applies the letter whose
    source hole contains the point, which strictly shortens the word of the
    tile containing it; points on or near the limit set exhaust the cap and
    raise ReductionDiverged, as does a witness that fails its exact check.
    """
    z = Fraction(z)
    domain = group.fundamental_domain()
    witness: list[Letter] = []
    x = z
    for _ in range(max_steps):
        if domain.contains_point(x):
            # x = t_n(...t_1(z)) for the applied letters t_i, so
            # z = (t_1^-1 o ... o t_n^-1)(x).
            word = GroupWord.from_letters([-t for t in witness])
            if group.word_map(word).apply(x) != z:
                raise ReductionDiverged(f"witness {word} does not map {x} to {z}")
            return x, word
        for k in range(1, group.genus + 1):
            for letter in (k, -k):
                if group.source_hole(letter).contains_point(x, group.p):
                    x = group.letter_map(letter).apply(x)
                    witness.append(letter)
                    break
            else:
                continue
            break
        else:
            raise ReductionDiverged(f"{z} lies in no hole and outside F")
    raise ReductionDiverged(f"reduction of {z} exceeded {max_steps} steps")
