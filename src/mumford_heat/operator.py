"""The jump kernel, its exact truncated group sums, and the spectrum.

The operator acts on functions of the orbit space through the kernel

    H(x, gamma y) = mu(F)^-1 * p^(-alpha_g * l(gamma)) * |x - gamma y|^(-alpha)

integrated over the fundamental domain against the density profile, x in F.
For a wavelet the whole truncated sum collapses, by ultrametric constancy and
exact character cancellation, to a rational (or exact p-power) multiple of
the wavelet value; that multiple is the first-principles eigenvalue oracle.
Both readings of translated quantities are supported: ``ambient`` recomputes
distances and densities in the field, ``transport`` defines gamma-translated
data to equal its representative on F; the spectral computation on F is the
same in both modes.

Every truncated group sum (generator matrix, wavelet multipliers and their
eigenvalue oracle, eigenvalue series, level-function quadrature) runs through
one engine: a single walk over the reduced words moves cell centres by the
words' integer matrices and counts, per (base point, cell) pair, the words by
(length l, valuation v of the distance).  Each such histogram is folded once
into the exact sum of count * p^(alpha*v - alpha_g*l), for rational exponents
as for integral ones.  The eigenvalue series attached to a support disc, in
any genus, adds to its walk the exact rest of the series wherever the chain
certificate of ``_closed_tail`` holds, and a certified tail bound otherwise.

The walk skips every subtree whose distances are certified constant and
counts it instead (ping-pong, as in Gerritzen-van der Put).  The certificate
is the Schottky figure, which every ``SchottkyGroup`` is by construction
(the holes are pairwise disjoint and each letter s maps the complement of
its source hole onto its target hole), and that every cell is a plain disc
off all holes (on every engine call).  Then every word P.s.r maps the
cells into R = P(target(s)).  When R is a plain disc that holds no point
x, the subtree of P.s adds (2g-1)^(l-j) words to the key
(l, v_p(x - centre(R))) for each l = j..L, j = l(P.s), and for every
cell.  On the bundled fixtures only the chain of words into the co-hole is
walked, 1 + L words instead of about (2g-1)^L; on a transformed chart the
cells meet the holes, nothing is pruned and every word is walked.

The generator is an ultrametric (tree) matrix plus a chain between its k
maximal split balls (Dellacherie-Martinez-San Martin).  Split balls are the
discs that hold states, lie off every hole and hold no walked word's pole;
the maximal ones, the tops, partition the states.  Lemma: for x, y in a top
M and a reduced word gamma != 1, |x - gamma y| = |c_M - gamma c_M|.  By
ping-pong, M lies off the source hole of gamma's last letter, each letter
maps the complement of its source into its target hole, and a reduced
word's next source avoids that target, so gamma(M) lies in the target hole
of gamma's first letter: a plain disc, as M holds no walked word's pole and
a pruned word maps it into a plain disc R.  Two disjoint discs of an
ultrametric field are one distance apart, and gamma(M), in a hole, misses
M.  So x, y in two children of a split ball B in M, exactly radius(B) apart,
have Q(x, y) / m(y) = mu(F)^-1 radius(B)^(-alpha) + G_M, G_M the group part
at c_M; and x in M, y in another top M' have one density cross(M, M').  One
engine call, the tops' centres as points and the tops as cells, counts all
k^2 sums; where the point lies in its cell it leaves the identity out, and
that histogram is G_M.  A ball around a walked pole is split until its
tiles hold none.  The lemma needs every state off the group's holes, which
holds on the base chart, where F's holes are the group's; a state that
meets a hole of the group (on a transformed chart) raises ChartNotSupported.
The tree is the one form of Q kept, ``GeneratorMatrix``, and building it
reads off the cell chain Q_c, the exit rates and each support's rate
lambda_B: all that the heat layer needs.  It comes from the one walk of F's
disc tree, on integer addresses (``schottky._split_balls``); exact dense
rows and the state discs, ``GeneratorMatrix.states``, come on demand.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .exactnum import ExactComplex, PowerSum, p_power_bounds
from .padic import (INFINITE_VALUATION, Disc, PoleHit, Rational, _centres, abs_p,
                    difference_valuation, disc_name, discs_disjoint, haar_measure,
                    p_power, pair_difference_valuation, valuation)
from .measure import (MeasureProfile, RationalFunctionDatum, RootInsideDisc, UnalignedDisc,
                      local_abs)
from .schottky import (ChartNotSupported, DomainInvalid, FundamentalDomain, GroupWord,
                       MoebiusMap, SchottkyGroup, _split_balls, region_image, words_with_maps)
from .wavelets import (LevelFunction, NotAdmissible, Wavelet,
                       admissible_supports, wavelet_eval)

Scalar = Union[Fraction, PowerSum]


class CoincidentPoints(ZeroDivisionError):
    """The kernel is singular on the diagonal."""


class RatioNotConstant(ArithmeticError):
    """The operator value failed to be a fixed multiple of the wavelet."""


class NotLocallyConstant(ValueError):
    """apply_operator needs a locally constant input at a declared level."""


class CutoffNotReached(ValueError):
    """No cutoff length up to MAX_CUTOFF brings the tail bound below the tolerance."""


def growth_condition_holds(p: int, genus: int, alpha_g: Fraction) -> bool:
    """p^alpha_g > 2g, decided exactly as p^a > (2g)^b for alpha_g = a/b > 0."""
    return p ** alpha_g.numerator > (2 * genus) ** alpha_g.denominator


MAX_CUTOFF = 1_000  # the longest truncation that a cutoff may ask for (docs/formats.md)


@dataclass(frozen=True)
class OperatorConfig:
    """Everything the operator needs: group, domain, measure and exponents.

    Construction enforces the growth condition p^(f*alpha_g) > 2g, without
    which the group sums diverge.  ``cutoff_len`` wins over ``cutoff_tol``;
    a tolerance is converted to the smallest length whose certified tail
    bound (for a unit-size function) is below it.
    """

    group: SchottkyGroup
    profile: MeasureProfile
    alpha: Fraction = Fraction(1)
    alpha_g: Fraction = Fraction(1)
    mode: str = "ambient"
    cutoff_len: int | None = None
    cutoff_tol: Fraction | None = None
    #: set only on transformed charts F -> phi(F)
    domain_override: FundamentalDomain | None = None
    escape_override: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "alpha_g", Fraction(self.alpha_g))
        if self.alpha <= 0 or self.alpha_g <= 0:
            raise ValueError("alpha and alpha_g must be positive")
        if self.mode not in ("ambient", "transport"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not growth_condition_holds(self.group.p, self.group.genus, self.alpha_g):
            raise DomainInvalid(f"growth condition fails: {self.group.p}^"
                                f"{self.alpha_g} <= {2 * self.group.genus}")

    @property
    def p(self) -> int:
        return self.group.p

    @property
    def domain(self) -> FundamentalDomain:
        if self.domain_override is not None:
            return self.domain_override
        return self.group.fundamental_domain()

    def mu_inverse(self) -> Fraction:
        return 1 / self.domain.measure()

    def cutoff(self) -> int:
        """The truncation length, searched for once per instance."""
        return self._cutoff

    @functools.cached_property
    def _cutoff(self) -> int:
        if self.cutoff_len is not None:
            return self.cutoff_len
        tol = self.cutoff_tol if self.cutoff_tol is not None else Fraction(1, 10 ** 12)
        # the bound at length + 1 is the bound at length times the exact
        # ratio (2g-1) * q_hi of _group_tail's geometric series
        _, q_hi = p_power_bounds(self.p, -self.alpha_g, digits=30)
        ratio = (2 * self.group.genus - 1) * q_hi
        length, bound = 1, tail_bound(self, 1)
        while bound > tol:
            length += 1
            bound *= ratio
            if length > MAX_CUTOFF:
                raise CutoffNotReached(f"no cutoff length up to {MAX_CUTOFF} "
                                       "brings the tail bound below the tolerance")
        return length


def simplify(value: Scalar) -> Scalar:
    if isinstance(value, PowerSum) and value.is_rational():
        return value.to_fraction()
    return value


def as_power_sum(p: int, value: Scalar) -> PowerSum:
    if isinstance(value, PowerSum):
        return value
    return PowerSum.from_rational(p, value)


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------

def minimal_escape_distance(cfg: OperatorConfig) -> Fraction:
    """Certified lower bound for |x - gamma y| over x, y in F, l(gamma) >= 1.

    gamma y lies in the hole of gamma's first letter while x does not, so
    the distance exceeds that hole's radius, hence is at least p times it.
    That needs the Schottky figure, which every ``SchottkyGroup`` is by
    construction, so the bound holds for every group that can be built.
    Transformed charts carry their own bound (set by the chart builder).
    """
    if cfg.escape_override is not None:
        return cfg.escape_override
    radii = [h.radius(cfg.p) for h in cfg.group.holes]
    if not radii:
        raise ValueError("no holes: the group is trivial")
    return cfg.p * min(radii)


def _group_tail(cfg: OperatorConfig, length: int) -> Fraction:
    """Certified upper bound for the l > length part of the group sum
    sum_gamma p^(-alpha_g l(gamma)) |x - gamma y|^(-alpha) over x, y in F:
    d_min^(-alpha) * sum_{l > length} 2g(2g-1)^(l-1) p^(-alpha_g l)."""
    g = cfg.group.genus
    if g == 0:
        return Fraction(0)
    _, q_hi = p_power_bounds(cfg.p, -cfg.alpha_g, digits=30)
    ratio = (2 * g - 1) * q_hi
    if ratio >= 1:
        raise ArithmeticError("tail ratio not contractive at this precision")
    first = 2 * g * (2 * g - 1) ** length * q_hi ** (length + 1)
    k = valuation(minimal_escape_distance(cfg), cfg.p)  # d_min = p^k exactly
    _, dist_hi = p_power_bounds(cfg.p, -k * cfg.alpha, digits=30)
    return dist_hi * first / (1 - ratio)


def tail_bound(cfg: OperatorConfig, length: int) -> Fraction:
    """Certified bound for the discarded l > length part of an operator sum
    on a function of sup norm 1.

    2 * mu(F)^-1 * total_mass * (group-sum tail); exact rational, monotone
    decreasing in the cutoff length.
    """
    return 2 * cfg.mu_inverse() * cfg.profile.total_mass * _group_tail(cfg, length)


# ---------------------------------------------------------------------------
# Quadrature cells
# ---------------------------------------------------------------------------

def _complement_within(parent: Disc, sub: Disc, p: int) -> list[Disc]:
    """Discs tiling parent minus sub (sub contained in parent)."""
    tiles = []
    current = parent
    while current.radius_exp > sub.radius_exp:
        keeper = None
        for child in current.children(p):
            if child.contains(sub, p):
                keeper = child
            else:
                tiles.append(child)
        if keeper is None:
            raise ValueError(f"{sub} escaped {parent} during tiling")
        current = keeper
    return tiles


def _wavelet_cells(cfg: OperatorConfig, support: Disc) -> list[tuple[Disc, Fraction]]:
    """Constant-distance cells for quadrature against a wavelet on ``support``:
    the support as one cell, the tiling of its piece around it, and every
    other piece whole."""
    cells = []
    host = None
    for piece, dens in cfg.profile.pieces:
        if piece.contains(support, cfg.p):
            host = (piece, dens)
            continue
        cells.append((piece, dens))
    if host is None:
        raise NotAdmissible(f"{support} is not inside a single piece")
    piece, dens = host
    cells.append((support, dens))
    for tile in _complement_within(piece, support, cfg.p):
        cells.append((tile, dens))
    return cells


# ---------------------------------------------------------------------------
# The group-sum engine
# ---------------------------------------------------------------------------

def _cross_valuation(xn: int, xd: int, tn: int, td: int, p: int) -> int:
    """v_p(xn*td - tn*xd), which is v_p(xn/xd - tn/td) + v_p(xd) + v_p(td)."""
    num = xn * td - tn * xd
    if num == 0:
        raise CoincidentPoints(f"distance zero at {Fraction(xn, xd)}")
    return valuation(num, p)


def _group_histograms(cfg: OperatorConfig, length: int, points: Sequence[Fraction],
                      cells: Sequence[Disc], whole_cells: Sequence[bool] = (),
                      runs: list | None = None,
                      frontier: list | None = None) -> list[list[dict]]:
    """{(l(w), v): count} for each (point x, cell) pair, where v is the
    valuation of x - w(c), c the cell's centre, over the reduced words w
    with l(w) <= length.

    Centres move as integer pairs, n/d -> (a*n + b*d, c*n + d*d) under the
    matrix of w.  The identity word is left out of every pair whose
    point lies in the cell: that part of the integral is the caller's.  A
    word whose pole is a cell centre raises PoleHit; one whose pole lies
    elsewhere in a cell flagged in ``whole_cells`` raises ChartNotSupported;
    either has the pole as its ``pole``.  A word that maps a centre onto a
    point raises CoincidentPoints.  The subtrees that
    :func:`_subtree_pruner` certifies are counted, not walked, into one
    histogram per point and added to each of its histograms.  ``runs`` and
    ``frontier``, when given, get the counted subtrees (as (l(P.s),
    valuation per point)) and the walked words of full length (as (letters,
    word map)).
    """
    p = cfg.p
    xs = [(x.numerator, x.denominator, valuation(x.denominator, p)) for x in points]
    centres = [(cell.center.numerator, cell.center.denominator) for cell in cells]
    # a word's pole -d/c lies in a flagged cell iff |c*centre + d| / |c| <= its
    # radius, that is v(den) >= v(c) + reach for den the centre's image pair
    reach = [valuation(m, p) - cell.radius_exp if whole else INFINITE_VALUATION
             for cell, (_, m), whole in zip(cells, centres,
                                             whole_cells or [False] * len(cells))]
    inside = [[pair_difference_valuation((x.numerator, x.denominator), centre, p)
               >= -cell.radius_exp for cell, centre in zip(cells, centres)] for x in points]
    hists = [[{} for _ in cells] for _ in points]
    runs = [] if runs is None else runs
    for word, mat in words_with_maps(cfg.group, length,
                                     _subtree_pruner(cfg, cells, points, runs)):
        ell = len(word)
        if frontier is not None and ell == length:
            frontier.append((word.letters, mat))
        a, b, c, d = mat.a, mat.b, mat.c, mat.d
        vc = valuation(c, p)
        targets = []
        for cell, (n, m), r in zip(cells, centres, reach):
            den = c * n + d * m
            if den == 0:
                err = PoleHit(f"{word} evaluated at its pole {cell.center}")
                err.pole = cell.center
                raise err
            vden = valuation(den, p)
            if vden >= vc + r:
                err = ChartNotSupported(
                    f"image of {disc_name(cell, p)} under {word} wraps infinity")
                err.pole = Fraction(-d, c)
                raise err
            targets.append((a * n + b * m, den, vden))
        try:
            for (xn, xd, vx), x_inside, row in zip(xs, inside, hists):
                for (tn, td, vt), skip, hist in zip(targets, x_inside, row):
                    if ell or not skip:
                        key = (ell, _cross_valuation(xn, xd, tn, td, p) - vx - vt)
                        hist[key] = hist.get(key, 0) + 1
        except CoincidentPoints as exc:
            raise CoincidentPoints(f"{exc} under {word}") from None
    # a subtree rooted at a word of length j holds (2g-1)^(l-j) words of
    # each length l = j..length, all at the run's distance from the point
    branch = 2 * cfg.group.genus - 1
    extras: dict[tuple, Counter] = {}  # per distances from a point to the runs
    for i, row in enumerate(hists):
        vs = tuple(v[i] for _, v in runs)
        if vs not in extras:
            extra = extras[vs] = Counter()
            for (j, _), v in zip(runs, vs):
                for ell in range(j, length + 1):
                    extra[ell, v] += branch ** (ell - j)
        for hist in row:
            for key, count in extras[vs].items():
                hist[key] = hist.get(key, 0) + count
    return hists


def _subtree_pruner(cfg: OperatorConfig, cells: Sequence[Disc],
                    points: Sequence[Fraction], runs: list):
    """The walk's pruning predicate, or None when the certificate of the
    module docstring fails for these cells.

    For each subtree P.s it prunes, the predicate appends (l(P.s), the
    valuation of x - centre(R) per point x) to ``runs``.  The pruned
    images lie in the plain disc R, which holds no point, so no pruned
    word could have hit a pole, wrapped infinity or met a point.
    R is a co-disc exactly when the pole of P lies in target(s);
    that is tested first, as it is cheaper than the image.
    """
    group, p = cfg.group, cfg.p
    if not all(not c.complement and all(discs_disjoint(c, h, p) for h in group.holes)
               for c in cells):
        return None

    def prune(prefix: tuple[int, ...], mat: MoebiusMap, s: int) -> bool:
        target = group.target_hole(s)
        pole = mat.pole()
        if target.complement if pole is None else target.contains_point(pole, p):
            return False
        region = region_image(mat, target, p)
        vs = [difference_valuation(x, region.center, p) for x in points]
        if region.complement or any(v >= -region.radius_exp for v in vs):
            return False
        runs.append((len(prefix) + 1, vs))
        return True
    return prune


def _fold(cfg: OperatorConfig, coeff: Fraction, hist: dict) -> Scalar:
    """coeff * sum of count * p^(alpha*v - alpha_g*l) over hist, a distance
    p^-v giving (p^-v)^(-alpha).  With alpha = a/q, alpha_g = g/q the exponent
    is k + r/q, 0 <= r < q: counts are summed in integers per r, one Fraction
    per r; a Fraction comes back unless some r > 0 survives (a PowerSum)."""
    q = math.lcm(cfg.alpha.denominator, cfg.alpha_g.denominator)
    a, g = int(cfg.alpha * q), int(cfg.alpha_g * q)
    by_residue: dict[int, dict[int, int]] = {}
    for (ell, v), count in hist.items():
        k, r = divmod(a * v - g * ell, q)
        counts = by_residue.setdefault(r, {})
        counts[k] = counts.get(k, 0) + count
    p = cfg.p
    terms = {}
    for r, counts in by_residue.items():
        k_min = min(counts)
        num = sum(count * p ** (k - k_min) for k, count in counts.items())
        terms[Fraction(r, q)] = coeff * num * Fraction(p) ** k_min
    if any(terms):
        return simplify(PowerSum(p, terms))
    return terms.get(0, Fraction(0))


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------

def _multipliers(cfg: OperatorConfig, support: Disc, points: Sequence[Fraction],
                 length: int) -> list[Scalar]:
    """:func:`wavelet_multiplier` at each of the points, from one walk."""
    p = cfg.p
    cells = _wavelet_cells(cfg, support)
    local_exp = Fraction(support.radius_exp) * (1 - cfg.alpha)
    hists = _group_histograms(cfg, length, points, [cell for cell, _ in cells],
                              whole_cells=[True] * len(cells))
    local = PowerSum(p).add_term(-cfg.profile.density_on(support), local_exp)
    return [simplify((local + sum((_fold(cfg, -dens * haar_measure(cell, p), hist)
                                   for (cell, dens), hist in zip(cells, row)),
                                  Fraction(0))).mul_power(cfg.mu_inverse(), 0))
            for row in hists]


def wavelet_multiplier(cfg: OperatorConfig, support: Disc, x: Rational,
                       length: int | None = None) -> tuple[Scalar, Fraction]:
    """Exact scalar M with (H psi)(x) = M * psi(x), truncated at the cutoff.

    x must lie in the support.  The identity's cell over the support
    contributes the exact local integral -C_B * p^(d(1-alpha)); every other
    (gamma, cell) pair sees a constant distance, so its wavelet part cancels
    exactly and only the -psi(x) part survives.  Returns (M, certified tail
    bound).
    """
    x = Fraction(x)
    if not support.contains_point(x, cfg.p):
        raise ValueError(f"{x} is not in the support {support}")
    length = cfg.cutoff() if length is None else length
    mult, = _multipliers(cfg, support, [x], length)
    return mult, tail_bound(cfg, length)


def scalar_times_value(p: int, scalar: Scalar, base: ExactComplex) -> ExactComplex:
    """Exact product of a (possibly p-power) scalar with an exact value."""
    ps = as_power_sum(p, scalar)
    terms = ps.terms()
    if not terms:
        return ExactComplex.zero(p)
    if len(terms) == 1:
        (exp, coeff), = terms.items()
        return base.scaled(coeff) * ExactComplex(
            Fraction(1), Fraction(1), p, Fraction(0), exp)
    raise ArithmeticError("scalar did not collapse to a single p-power term")


def apply_operator(cfg: OperatorConfig, u, x: Rational, length: int | None = None):
    """Apply the truncated operator at a point of F.

    For a wavelet the result is exact: (ExactComplex value, Fraction tail).
    For a level function the generic quadrature runs in complex floats and
    returns (complex value, float tail).  Constant functions map to zero
    identically.
    """
    if isinstance(u, Wavelet):
        if not u.support.contains_point(x, cfg.p):
            # every group term vanishes identically off the support: the
            # wavelet part integrates to zero over the support cell (full
            # character sum) and u(x) = 0 kills the rest, so no tail at all
            return ExactComplex.zero(cfg.p), Fraction(0)
        mult, tail = wavelet_multiplier(cfg, u.support, x, length)
        base = wavelet_eval(u, x, cfg.profile, "haar")
        return scalar_times_value(cfg.p, mult, base), tail
    if isinstance(u, LevelFunction):
        return _apply_to_level_function(cfg, u, Fraction(x), length)
    raise NotLocallyConstant(f"cannot apply the operator to {type(u)!r}")


def _apply_to_level_function(cfg: OperatorConfig, u: LevelFunction, x: Fraction,
                             length: int | None):
    p = cfg.p
    length = cfg.cutoff() if length is None else length
    ux = u.value_at(x, p)
    masses = [cfg.profile.density_on(d) * haar_measure(d, p) for d, _ in u.values]
    # the identity term vanishes on the cell of x, which the engine skips
    row, = _group_histograms(cfg, length, [x], [d for d, _ in u.values],
                             whole_cells=[True] * len(masses))
    total = sum((float(_fold(cfg, mass, hist)) * (val - ux)
                 for mass, (_, val), hist in zip(masses, u.values, row)), 0j)
    return (total * float(cfg.mu_inverse()),
            float(tail_bound(cfg, length)) * u.sup_norm())


# ---------------------------------------------------------------------------
# Eigenvalue series
# ---------------------------------------------------------------------------

class SeriesValue(NamedTuple):
    """A group-sum value with certified enclosure.

    ``value`` is the exact total when ``is_exact`` (closed form), otherwise
    the truncated partial sum; [lo, hi] always encloses the true value.
    """

    value: Scalar
    lo: Fraction
    hi: Fraction
    is_exact: bool
    cutoff: int | None = None


def _scalar_bounds(value: Scalar) -> tuple[Fraction, Fraction]:
    if isinstance(value, Fraction):
        return value, value
    return value.bounds()


def _closed_tail(cfg: OperatorConfig, length: int, support: Disc, runs: list,
                 frontier: list) -> Fraction | None:
    """The exact l > length part of :func:`delta_series` at x = c_B, from the
    walk's runs and frontier, or None where no certificate covers it (the
    sums below are rational for integral exponents only).

    * A counted subtree (j, v) adds sum_{l > length} (2g-1)^(l-j)
      p^(alpha*v - alpha_g*l); so does each child of a frontier word w (a
      walked word of full length) that the pruner counts.
    * Any other child must be w.c, c the last letter of w: the chain w.c^k,
      k >= 1.  For affine c(z) = a*z + b and w, w.c^k maps z to
      t + A*a^k*(z - f), f the fixed point of c and t = w(f).  If
      |A*a*(z - f)| exceeds |x - t| for |a| > 1 (falls below it for
      |a| < 1) at every z of the chain point and of each other child's
      target disc, so it does at every k >= 1: every distance from x
      scales by |a| per step (stays |x - t|), each other child of w.c^k is
      a counted subtree, and the chain is one geometric series.
    """
    if not (runs or frontier):
        return Fraction(0)
    if cfg.alpha.denominator != 1 or cfg.alpha_g.denominator != 1:
        return None
    group, p, x = cfg.group, cfg.p, support.center
    branch = 2 * group.genus - 1
    letters = [s for k in range(1, group.genus + 1) for s in (k, -k)]
    prune = _subtree_pruner(cfg, [support], [x], runs)
    rate = p ** int(cfg.alpha_g)
    whole = Fraction(rate, rate - branch)  # 1/(1 - r): a subtree's every length
    total = Fraction(0)
    for word, w in frontier:
        c = word[-1]
        left = [s for s in letters if s != -c and not (prune and prune(word, w, s))]
        if not left:
            continue
        step = group.letter_map(c)
        if left != [c] or step.c or w.c:
            return None
        # plain discs: under an affine w the pruner counts no co-disc target
        others = [group.target_hole(s) for s in letters if s not in (c, -c)]
        f = Fraction(step.b, step.d - step.a)
        va = valuation(Fraction(step.a, step.d), p)
        shift = valuation(Fraction(w.a, w.d), p) + va  # v(A*a)
        v_xt = valuation(x - w.apply(f), p)
        # v(z - f) is one value on each target disc: f, fixed by c, lies in
        # a hole of c and so off the other targets
        v_zf = [valuation(z - f, p) for z in [x] + [disc.center for disc in others]]
        if not all(shift + v < v_xt if va < 0 else shift + v > v_xt for v in v_zf):
            return None
        step = w.compose(step)  # the terms at k = 1: the word, the other children
        head = (Fraction(p) ** int(cfg.alpha * valuation(x - step.apply(x), p)
                                   - cfg.alpha_g * (length + 1))
                + _fold(cfg, whole, Counter((length + 2, valuation(x - step.apply(d.center), p))
                                            for d in others)))
        ratio = p ** int(cfg.alpha_g - cfg.alpha * min(va, 0))  # 1 / the chain's ratio
        total += head * Fraction(ratio, ratio - 1)
    # every counted subtree past the walk, rooted at length + 1
    counted: Counter = Counter()
    for j, vs in runs:
        counted[length + 1, vs[0]] += branch ** (length + 1 - j)
    return total + _fold(cfg, whole, counted)


def delta_series(cfg: OperatorConfig, support: Disc) -> SeriesValue:
    """sum over the group of p^(-alpha_g l(gamma)) * delta(support, gamma support)^(-alpha).

    The engine walks the words and :func:`_closed_tail` adds the exact rest,
    the same after a walk of any length: one word long first.  Where no
    certificate covers the rest, the value is the sum truncated at the
    cutoff with a certified geometric tail.
    """
    for length in sorted({1, cfg.cutoff()}):
        runs: list = []
        frontier: list = []
        # gamma B has centre gamma(c_B); the engine leaves out the identity
        # word, whose term is 1
        try:
            (hist,), = _group_histograms(cfg, length, [support.center], [support],
                                         whole_cells=[True], runs=runs, frontier=frontier)
        except PoleHit as exc:  # the pole is c_B, so gamma B wraps infinity
            raise ChartNotSupported(str(exc)) from exc
        total = _fold(cfg, Fraction(1), hist) + 1
        tail = _closed_tail(cfg, length, support, runs, frontier)
        if tail is not None:
            # a Fraction: the exponents are integral, or no word but the identity is
            total += tail
            return SeriesValue(total, total, total, True, None)
    lo, hi = _scalar_bounds(total)
    return SeriesValue(simplify(total), lo, hi + _group_tail(cfg, length), False, length)


def lambda_formula(cfg: OperatorConfig, support: Disc) -> SeriesValue:
    """The closed-form eigenvalue attached to a support disc:

        C_B * mu(F)^-1 * p^(f*d) * sum_gamma p^(-alpha_g l) * delta(B, gamma B)^(-alpha)

    Exact in any genus wherever the chain certificate of :func:`delta_series`
    holds (both bundled fixtures, integral exponents); otherwise a certified
    enclosure around the truncated sum.
    """
    if not cfg.profile.admissible(support):
        raise NotAdmissible(f"{support} is not admissible")
    pref = cfg.profile.density_on(support) * cfg.mu_inverse()
    # |pi|^(-d) = p^(f d), f = 1
    return _scaled(cfg.p, delta_series(cfg, support), pref,
                   Fraction(support.radius_exp))


def _scaled(p: int, series: SeriesValue, pref: Fraction,
            pref_exp: Fraction) -> SeriesValue:
    """pref * p^pref_exp * series, with the enclosure scaled alike."""
    value = as_power_sum(p, series.value).mul_power(pref, pref_exp)
    scale_lo, scale_hi = p_power_bounds(p, pref_exp, digits=30)
    return SeriesValue(simplify(value),
                       pref * scale_lo * series.lo,
                       pref * scale_hi * series.hi,
                       series.is_exact, series.cutoff)


class LambdaExact(NamedTuple):
    """First-principles eigenvalue: the constant ratio -(H psi)(x) / psi(x).

    ``value`` is the truncated exact ratio, the same at every child centre
    of the support, certified to within ``tail``.
    """

    value: Scalar
    tail: Fraction
    cutoff: int

    @property
    def lo(self) -> Fraction:
        return _scalar_bounds(self.value)[0] - self.tail

    @property
    def hi(self) -> Fraction:
        return _scalar_bounds(self.value)[1] + self.tail


def lambda_exact(cfg: OperatorConfig, support: Disc,
                 length: int | None = None) -> LambdaExact:
    """Evaluate the eigenvalue oracle on every child of the support.

    The truncated multiplier must be exactly identical across the child
    sample points (RatioNotConstant otherwise, which would falsify the
    eigen-relation), and the eigenvalue is its negative.  One walk serves
    all the children.
    """
    if not cfg.profile.admissible(support):
        raise NotAdmissible(f"{support} is not admissible")
    length = cfg.cutoff() if length is None else length
    samples = tuple(child.center for child in support.children(cfg.p))
    values = [simplify(-mult)
              for mult in _multipliers(cfg, support, samples, length)]
    if any(val != values[0] for val in values[1:]):
        raise RatioNotConstant(f"operator ratio varies over {support}: {values}")
    return LambdaExact(values[0], tail_bound(cfg, length), length)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

class SpectrumEntry(NamedTuple):
    radius_exp: int
    density: Fraction
    lam_formula: SeriesValue
    lam_exact: LambdaExact
    multiplicity: int
    witnesses: tuple[Disc, ...]


class SpectrumResult(NamedTuple):
    entries: tuple[SpectrumEntry, ...]
    word_counts: tuple[tuple[int, int], ...]  # (length, number of words)


def word_census(g: int) -> tuple[tuple[int, int], ...]:
    """Exact reduced-word counts per length up to 8: 1 and then 2g(2g-1)^(l-1)."""
    rows = [(0, 1)]
    for length in range(1, 9):
        rows.append((length, 2 * g * (2 * g - 1) ** (length - 1) if g else 0))
    return tuple(rows)


def spectrum(cfg: OperatorConfig, level: int,
             chart: GroupWord | None = None,
             datum: RationalFunctionDatum | None = None) -> SpectrumResult:
    """All eigenvalue classes visible at the given level.

    Entries are grouped by (radius exponent, density); each class carries the
    closed-form value, the oracle value with certified interval, and the
    multiplicity (number of same-class discs in F) * (p - 1).  With a chart
    word, ambient mode recomputes everything on phi(F) (which needs the
    measure datum); transport mode returns the base spectrum unchanged.
    """
    work = cfg
    supports = admissible_supports(cfg.profile, level)
    if chart is not None and not chart.is_identity() and cfg.mode == "ambient":
        if datum is None:
            raise ChartNotSupported("ambient chart shift needs the measure datum")
        phi = cfg.group.word_map(chart)
        work = transformed_config(cfg, datum, phi)
        supports = [region_image(phi, s, cfg.p) for s in supports]
    classes: dict[tuple[int, Fraction], list[Disc]] = {}
    for s in supports:
        key = (s.radius_exp, work.profile.density_on(s))
        classes.setdefault(key, []).append(s)
    entries = []
    for (rexp, dens), discs in sorted(classes.items()):
        witness = discs[0]
        entries.append(SpectrumEntry(
            rexp, dens,
            lambda_formula(work, witness),
            lambda_exact(work, witness),
            len(discs) * (work.p - 1),
            tuple(discs)))
    return SpectrumResult(tuple(entries), word_census(cfg.group.genus))


def transformed_config(cfg: OperatorConfig, datum: RationalFunctionDatum,
                       phi: MoebiusMap) -> OperatorConfig:
    """The ambient operator data on the chart phi(F): image domain, image
    pieces with recomputed densities, and a certified escape bound."""
    p = cfg.p
    outer = region_image(phi, cfg.domain.outer, p)
    if outer.complement:
        raise ChartNotSupported("chart outer disc wraps infinity")
    holes = tuple(region_image(phi, h, p) for h in cfg.domain.holes)
    domain = FundamentalDomain(outer, holes, p)
    pieces = []
    for piece, _ in cfg.profile.pieces:
        image = region_image(phi, piece, p)
        try:
            pieces.append((image, local_abs(datum, image, p)))
        except RootInsideDisc as exc:  # the image wraps infinity or holds a root of f
            raise ChartNotSupported(f"chart piece {disc_name(image, p)}: {exc}") from exc
    pieces.sort(key=lambda it: (it[0].center, it[0].radius_exp))
    cores = tuple(region_image(phi, core, p) for core in cfg.profile.zero_cores)
    profile = MeasureProfile(tuple(pieces), cores, p)
    escape = _chart_escape_distance(cfg, phi)
    return dataclasses.replace(cfg, profile=profile, domain_override=domain,
                               escape_override=escape)


def _chart_escape_distance(cfg: OperatorConfig, phi: MoebiusMap) -> Fraction:
    """Lower bound |phi(u) - phi(v)| >= min|phi'| * |u - v| over the outer disc."""
    p = cfg.p
    base = minimal_escape_distance(dataclasses.replace(cfg, escape_override=None))
    if phi.c == 0:
        return abs_p(Fraction(phi.a, phi.d), p) * base
    outer = cfg.group.fundamental_domain().outer
    denom_max = max(abs_p(phi.c, p) * outer.radius(p),
                    abs_p(phi.c * outer.center + phi.d, p))
    deriv_min = abs_p(phi.det, p) / denom_max ** 2
    return deriv_min * base


def lambda_transform(cfg: OperatorConfig, phi: MoebiusMap, support: Disc,
                     datum: RationalFunctionDatum) -> SeriesValue:
    """The transformation-formula value for the eigenvalue on the chart phi(F):

        C_B * |f(phi(y))| * |phi'(y)| * mu(phi F)^-1 * p^(f*dtilde)
            * sum_gamma p^(-alpha_g l) * delta(phi B, gamma phi B)^(-alpha)

    with both constants evaluated on the support (they are constant there).
    phi must be bianalytic on F: its pole stays outside the outer disc.
    """
    p = cfg.p
    pole = phi.pole()
    if pole is not None and cfg.domain.outer.contains_point(pole, p):
        raise ChartNotSupported(f"pole {pole} of the chart map lies in the domain")
    if not cfg.profile.admissible(support):
        raise NotAdmissible(f"{support} is not admissible")
    if phi.is_identity():
        return lambda_formula(cfg, support)
    dens = cfg.profile.density_on(support)
    c_phi = datum.abs_at(phi.apply(support.center), p)
    c_phi_prime = phi.derivative_abs(support.center, p)
    image = region_image(phi, support, p)
    if image.complement:
        raise ChartNotSupported("support image wraps infinity")
    work = transformed_config(cfg, datum, phi)
    pref = dens * c_phi * c_phi_prime / work.domain.measure()
    return _scaled(p, delta_series(work, image), pref, Fraction(image.radius_exp))


# ---------------------------------------------------------------------------
# Local integral oracle
# ---------------------------------------------------------------------------

def vladimirov_local_integral(support: Disc, j: int, alpha: Fraction, x: Rational,
                              p: int) -> ExactComplex:
    """Exact value of the local integral of |x-y|^(-alpha) (psi(y) - psi(x))
    over the support, by sphere decomposition: -p^(d(1-alpha)) * psi(x).

    The character cancellation over the children is evaluated in exact
    cyclotomic arithmetic rather than assumed.
    """
    from .exactnum import PhaseSum

    alpha = Fraction(alpha)
    w = Wavelet(support, j, p)
    x = Fraction(x)
    if not support.contains_point(x, p):
        raise ValueError(f"{x} is outside the support")
    d = support.radius_exp
    child_x = next(ch for ch in support.children(p) if ch.contains_point(x, p))
    rel = PhaseSum(p)
    for ch in support.children(p):
        if ch == child_x:
            continue
        rel.add(w.phase_at(ch.center) - w.phase_at(x), Fraction(1))
    char_sum = rel.to_fraction()  # = -1 by the full character sum
    haar_child = Fraction(p) ** (d - 1)
    mu_b = Fraction(p) ** d
    coeff = haar_child * char_sum - (mu_b - haar_child)
    mult = PowerSum(p).add_term(coeff, -Fraction(d) * alpha)
    return scalar_times_value(p, simplify(mult), wavelet_eval(w, x))


def vladimirov_alpha_free_value(support: Disc, j: int, x: Rational, p: int) -> ExactComplex:
    """The stated right-hand side -p^(f*d) * psi(x) (no alpha dependence)."""
    w = Wavelet(support, j, p)
    return scalar_times_value(p, -(Fraction(p) ** support.radius_exp),
                              wavelet_eval(w, Fraction(x)))


# ---------------------------------------------------------------------------
# Finite generator matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Exact level-m restriction of the operator, the Markov jump generator,
    as the tree of the module docstring's lemma: every ball with children
    is a certified wavelet support by construction.

    Discs are addresses under ``outer``: state i is (r0 + m, ``keys[i]``),
    in centre order, and the split balls, the states included, come each
    after its descendants (its child balls in ``children``), ball k at depth
    ``depths[k]``; the maximal ones, ``tops``, partition the states.
    ``order`` lists the state indices as the walk meets them, and ball k
    holds the run ``order[lo:hi]``, (lo, hi) = ``spans[k]``.  For x and y in
    two children of ball B, Q[x][y] / m(y) is ``density[B]``, mu(F)^-1
    radius(B)^(-alpha) + G_M, M the top holding B (None for a state); for x
    in top M and y in top M' != M it is ``cross[M][M']``, by position in
    ``tops``; ``cross[M][M]`` is G_M.  m(y) is the exact |omega|-mass
    ``masses[y]``, and Q[x][x] is minus the rate out of x.

    Construction reads off, exactly, the cell chain of ``heat._descend``:
    per ball its ``mass`` (summed as integers over the masses' common
    denominator) and exit rate ``out`` (a top's: the cross densities times
    the other tops' masses; a child k of B adds density[B] * (m(B) - m(k)));
    Q_c as ``q``, cross densities times cell masses and minus the exit rates
    on the diagonal; per split ball B that is no state, lam[B] = out[B] +
    density[B] m(B).  The discs ``states`` and the exact dense ``rows`` are
    built on demand.  A level function is a sequence in state order;
    ``vector`` reads a ``LevelFunction`` into one.
    """

    level: int
    p: int
    outer: Disc
    keys: tuple[int, ...]
    masses: tuple[Fraction, ...]
    cutoff: int
    depths: tuple[int, ...]
    order: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    children: tuple[tuple[int, ...], ...]
    density: tuple[Scalar | None, ...]
    tops: tuple[int, ...]
    cross: tuple[tuple[Scalar, ...], ...]
    mass: tuple[Fraction, ...] = dataclasses.field(init=False)
    out: tuple[Scalar, ...] = dataclasses.field(init=False)
    q: tuple[tuple[Scalar, ...], ...] = dataclasses.field(init=False)
    lam: dict[int, Scalar] = dataclasses.field(init=False)

    def __post_init__(self):
        den, num = math.lcm(*{m.denominator for m in self.masses}), []
        for (lo, _), kids in zip(self.spans, self.children):
            m = self.masses[self.order[lo]]
            num.append(sum(num[k] for k in kids) if kids else m.numerator * (den // m.denominator))
        unique = {n: Fraction(n, den) for n in set(num)}  # a few values over all the balls
        mass, out, lam = [unique[n] for n in num], [None] * len(num), {}
        rate, parents, known = [None] * len(num), {}, {}  # per ball the number of its rate
        for i, (a, row) in enumerate(zip(self.tops, self.cross)):
            out[a] = sum((d * mass[b] for b, d in zip(self.tops, row) if b != a), Fraction(0))
            rate[a] = -1 - i  # apart from the numbers that ``known`` gives
        # each distinct rate is computed once, keyed by value: by the number of
        # the parent's (rate, density) and a mass numerator
        for b in reversed(range(len(num))):
            if (s := self.density[b]) is None:
                continue
            by = s if isinstance(s, Fraction) else frozenset(s.terms().items())
            at = parents.setdefault((rate[b], by), len(parents))
            for k in self.children[b]:
                if (key := (at, num[b] - num[k])) not in known:
                    known[key] = len(known), out[b] + s * (mass[b] - mass[k])
                rate[k], out[k] = known[key]
            if (key := (at, num[b], None)) not in known:
                known[key] = len(known), out[b] + s * mass[b]
            lam[b] = known[key][1]
        q = tuple(tuple(-out[c] if d == c else v * mass[d] for d, v in zip(self.tops, row))
                  for c, row in zip(self.tops, self.cross))
        for name, value in ("mass", tuple(mass)), ("out", tuple(out)), ("q", q), ("lam", lam):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.keys)

    def centers(self) -> list[Fraction]:
        """The states' centres, in state order."""
        return _centres(self.outer, self.p, self.keys)

    @functools.cached_property
    def states(self) -> tuple[Disc, ...]:
        """The state discs, made from their addresses when first asked for."""
        return tuple(Disc(c, -self.level) for c in self.centers())

    @functools.cached_property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The rates as exact dense rows: one block per ordered pair of
        sibling balls, two tops or two children of one ball."""
        m, tops, order, spans = self.masses, self.tops, self.order, self.spans
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        pairs = [(a, b, d) for a, row in zip(tops, self.cross) for b, d in zip(tops, row)]
        pairs += [(a, b, d) for kids, d in zip(self.children, self.density)
                  for a in kids for b in kids]
        for a, b, d in pairs:
            for j in order[slice(*spans[b])] if a != b else ():
                rate = d * m[j]
                for i in order[slice(*spans[a])]:
                    rows[i][j] = rate
        for i, row in enumerate(rows):
            row[i] = simplify(-sum(row, Fraction(0)))
        return tuple(map(tuple, rows))

    def vector(self, u: LevelFunction | Sequence) -> Sequence:
        """u in state order: a sequence of one value per state as it is (else
        ValueError), a ``LevelFunction`` by state disc (NotLocallyConstant
        names a missing state)."""
        if not isinstance(u, LevelFunction):
            if len(u) != self.size:
                raise ValueError(f"{len(u)} values for the {self.size} states")
            return u
        values = u.as_dict()
        try:
            return [values[d] for d in self.states]
        except KeyError as exc:
            raise NotLocallyConstant(f"missing state {exc}") from exc


def generator_matrix(cfg: OperatorConfig, level: int) -> GeneratorMatrix:
    """Assemble the exact jump rates on the level-m discs of F.

    Q[D, D'] = mu(F)^-1 * mass(D') * sum_gamma p^(-alpha_g l) |c_D - gamma c_D'|^(-alpha)
    for D != D'; the diagonal is defined as the negative row sum (jumps
    within a state cancel in the operator and carry no rate).

    One engine call counts the sums between the k maximal split balls, at
    their centres: G_M and the cross densities of the module docstring's
    lemma, from which each ball's density follows, one per (top, depth).  A
    ball that holds a walked word's pole (ChartNotSupported, or PoleHit at
    its centre, from the engine) is split and the sums counted again; a
    pole still hit is a state's centre, and raises.  A state in no piece of
    the profile raises UnalignedDisc.
    """
    p, length, outer = cfg.p, cfg.cutoff(), cfg.domain.outer
    poles: list[Fraction] = []
    while True:
        keys, order, depths, spans, children, tops, found = _split_balls(
            cfg.domain, cfg.profile, level, cfg.group.holes, poles)
        if not keys:
            raise ValueError(f"no states at level {level}")
        if None in found:
            state = Disc(_centres(outer, p, [keys[found.index(None)]])[0], -level)
            raise UnalignedDisc(f"the level-{level} state {disc_name(state, p)} lies in no piece")
        cells = [Disc(c, outer.radius_exp - depths[t]) for t, c in zip(tops, _centres(
            outer, p, [keys[order[spans[t][0]]] % p ** depths[t] for t in tops]))]
        try:
            hists = _group_histograms(cfg, length, [c.center for c in cells], cells,
                                      whole_cells=[c.radius_exp > -level for c in cells])
            break
        except (ChartNotSupported, PoleHit) as err:
            if err.pole in poles:
                raise
            poles.append(err.pole)
    mu_inv = cfg.mu_inverse()
    folded: dict[frozenset, Scalar] = {}

    def fold(hist: dict) -> Scalar:
        if (key := frozenset(hist.items())) not in folded:
            folded[key] = _fold(cfg, mu_inv, hist)
        return folded[key]

    cross = tuple(tuple(map(fold, row)) for row in hists)

    @functools.cache
    def ball_density(depth: int, t: int) -> Scalar:
        return simplify(fold({(0, depth - outer.radius_exp): 1}) + cross[t][t])

    # per ball its top's position: top t's balls follow top t - 1, up to it
    top = [t for t, (a, b) in enumerate(pairwise([-1, *tops])) for _ in range(b - a)]
    density = [ball_density(depth, t) if kids else None
               for depth, kids, t in zip(depths, children, top)]
    unit = [dens * p_power(p, -level) for _, dens in cfg.profile.pieces]
    return GeneratorMatrix(level, p, outer, tuple(keys), tuple(unit[i] for i in found), length,
                           tuple(depths), tuple(order), tuple(spans), tuple(children),
                           tuple(density), tuple(tops), cross)
