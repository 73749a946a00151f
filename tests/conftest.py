import json
from fractions import Fraction as F

import numpy as np
import pytest

from mumford_heat import (Disc, FundamentalDomain, MoebiusMap, OperatorConfig,
                          RationalFunctionDatum, SchottkyGroup, build_profile)
from mumford_heat.config import bundled_fixture
from mumford_heat.padic import discs_disjoint


# the multiplicative-coordinate form dz/z: f(z) = 1/z
TATE_DATUM = RationalFunctionDatum(F(1), ((F(0), -1),))


def dense(gen):
    """The generator's rates as a float n x n array, from its exact rows: the
    independent reference of the tree's semigroup and matvec."""
    return np.array([[float(v) for v in row] for row in gen.rows])


def ball_discs(gen):
    """The split balls of a ``GeneratorMatrix`` as discs: the ball (d, N)
    under the outer disc D(c0, r0) is D(c0 + p^(-r0) N, p^(r0 - d))."""
    c0, r0, p = gen.outer.center, gen.outer.radius_exp, gen.p
    return [Disc(c0 + gen.keys[gen.order[lo]] % p ** d * F(p) ** -r0, r0 - d)
            for d, (lo, _) in zip(gen.depths, gen.spans)]


def ref_level_discs(domain, m):
    """All discs of radius p^-m inside F, ordered by centre, from a walk of
    ``Disc.children``: the reference of the address walk's states."""
    if domain.outer.radius_exp < -m:
        return []
    found, stack = [], [domain.outer]
    while stack:
        d = stack.pop()
        if any(h.contains(d, domain.p) for h in domain.holes):
            continue
        if d.radius_exp == -m:
            if domain.contains_disc(d):
                found.append(d)
            continue
        stack.extend(d.children(domain.p))
    return sorted(found, key=lambda d: d.center)


def ref_state_discs(domain, profile, level):
    """The reference of ``wavelets.state_discs``: the level discs clear of
    every zero core."""
    return [d for d in ref_level_discs(domain, level)
            if all(discs_disjoint(d, core, profile.p) for core in profile.zero_cores)]


def ref_admissible_supports(profile, max_level):
    """The reference of ``wavelets.admissible_supports``: every descendant of
    a piece down to radius p^(1 - max_level), from a walk of
    ``Disc.children``, sorted by radius and then by ``Fraction`` centre."""
    out, stack = [], [piece for piece, _ in profile.pieces]
    while stack:
        d = stack.pop()
        if d.radius_exp >= 1 - max_level:
            out.append(d)
            stack.extend(d.children(profile.p))
    return sorted(out, key=lambda d: (-d.radius_exp, d.center))


def domain_ok(report):
    """Every clause of a ``schottky.DomainReport`` holds."""
    return report.holes_disjoint and report.pairing_ok and report.tiles_disjoint


@pytest.fixture(scope="session")
def tate_group():
    gen = MoebiusMap(9, 0, 0, 1)
    return SchottkyGroup(
        p=3,
        generators=(gen,),
        holes=(Disc(F(0), 0, complement=True), Disc(F(0), -2)),
        outer=Disc(F(0), 0),
    )


@pytest.fixture(scope="session")
def tate_datum():
    return TATE_DATUM


@pytest.fixture(scope="session")
def tate_profile(tate_group, tate_datum):
    return build_profile(tate_datum, tate_group.fundamental_domain(), 2)


@pytest.fixture(scope="session")
def tate_cfg(tate_group, tate_profile):
    return OperatorConfig(group=tate_group, profile=tate_profile,
                          alpha=F(1), alpha_g=F(1), cutoff_len=40)


@pytest.fixture(scope="session")
def genus2_group():
    g1 = MoebiusMap(9, 0, 0, 1)
    g2 = MoebiusMap(17, -16, 8, -7)
    return SchottkyGroup(
        p=3,
        generators=(g1, g2),
        holes=(Disc(F(0), 0, complement=True), Disc(F(2), -1),
               Disc(F(0), -2), Disc(F(1), -2)),
        outer=Disc(F(0), 0),
    )


@pytest.fixture(scope="session")
def genus2_profile(genus2_group):
    return build_profile(RationalFunctionDatum.constant(),
                         genus2_group.fundamental_domain(), 2)


@pytest.fixture(scope="session")
def genus2_cfg(genus2_group, genus2_profile):
    return OperatorConfig(group=genus2_group, profile=genus2_profile,
                          alpha=F(1), alpha_g=F(2), cutoff_len=8)


@pytest.fixture(scope="session")
def pairing_faults():
    """The clause-(ii) details of (letter, image, target) triples, joined as
    the group constructor joins them."""
    def faults(*triples):
        return "; ".join(f"clause (ii): generator letter {letter} maps the complement "
                         f"of its source to {image}, not onto {target}"
                         for letter, image, target in triples)
    return faults


@pytest.fixture(scope="session")
def ball_domain():
    return FundamentalDomain(Disc(F(0), 0), (), 3)


# A genus-two group over p = 5, built like genus2-p3 with 9 -> 25 and 3 -> 5:
# z -> 25z and its conjugate with fixed points 2 and 1.  Test-only: it is not
# a bundled fixture and not a benchmark workload.
P5_GENERATORS = ((25, 0, 0, 1), (49, -48, 24, -23))
P5_HOLES = ((0, 0, True), (2, -1, False), (0, -2, False), (1, -2, False))


@pytest.fixture(scope="session")
def p5_group():
    return SchottkyGroup(
        p=5,
        generators=tuple(MoebiusMap(*m) for m in P5_GENERATORS),
        holes=tuple(Disc(F(c), r, complement=co) for c, r, co in P5_HOLES),
        outer=Disc(F(0), 0),
    )


@pytest.fixture(scope="session")
def p5_cfg(p5_group):
    profile = build_profile(RationalFunctionDatum.constant(),
                            p5_group.fundamental_domain(), 2)
    return OperatorConfig(group=p5_group, profile=profile,
                          alpha=F(1), alpha_g=F(1), cutoff_len=8)


@pytest.fixture
def p5_config_path(tmp_path):
    """The p = 5 group as a config file, on the genus2-p3 run settings."""
    raw = json.loads(bundled_fixture("genus2-p3").read_text())
    raw["field"]["p"] = 5
    raw["group"]["generators"] = [[[str(a), str(b)], [str(c), str(d)]]
                                  for a, b, c, d in P5_GENERATORS]
    raw["group"]["holes"] = [{"center": str(c), "radius_exp": r, "complement": True}
                             if co else {"center": str(c), "radius_exp": r}
                             for c, r, co in P5_HOLES]
    raw["operator"]["alpha_g"] = "1"
    path = tmp_path / "p5-genus2.json"
    path.write_text(json.dumps(raw))
    return path
