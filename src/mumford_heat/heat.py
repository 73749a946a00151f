"""Heat semigroup, resolvent and path sampling.

The finite level-m generator Q is exact; floating point enters only through
the semigroup, eigen-solves, resolvents of Q with irrational rates and random
sampling.  Q acts diagonally on the wavelets of its split balls, so f(-Q) h
is one descent of the tree (``_descend``): f(-Q_c) on the cell means of h,
Q_c the small chain between the maximal balls, then one factor f(lambda_B)
per split ball B that is not a state, all read off the tree when the
``GeneratorMatrix`` is built (its ``q`` and ``lam``).  h is one value per
state, in state order (``gen.vector`` reads a ``LevelFunction``).  So come
the heat flow, the validation law and ``transition_matrix`` (f = e^(-lambda
t), e^(tQ_c) by uniformization with squaring), the resolvent (f = 1/(eta +
lambda)) and Q basis in ``spectral_data`` (f = -lambda); no n x n float
copy of Q is built.  Paths follow the exact jump-chain construction on the
same tree (exponential holds at the exit rate, a jump into a sibling ball of
an ancestor or another maximal ball by its rate, then into one of its states
by mass), each path from its own counter-based SplitMix64 stream, so any
range of paths is drawn alone, its live paths one vectorised step at a time.
They come back as columns (``PathColumns``: row offsets per path, flat times
and states; ``PathSample`` is a per-path view), and ``empirical_validation``
reads their state counts at the checkpoints, summed over ranges if need be.
The records (``SpectralData``, ``HeatSolution``, ``ValidationReport`` ...) are
``NamedTuple``s, as are the package's other plain results: immutable and
picklable, and so a record compares equal to a plain tuple of the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .exactnum import ExactComplex
from .operator import GeneratorMatrix, OperatorConfig
from .padic import _address, _centres
from .wavelets import LevelFunction, Wavelet, admissible_supports


class NumericalBreakdown(ArithmeticError):
    """Stochasticity of the computed semigroup drifted beyond tolerance, or a
    sample would make more jumps than its budget."""


class SingularSystem(ArithmeticError):
    """The resolvent system was singular (impossible for eta > 0)."""


ROW_SUM_TOL = 1e-9


class SpectralData(NamedTuple):
    """Block triangularisation of Q over the basis [constants | wavelets | gap].

    ``wavelet_rates`` pairs each wavelet column with its exact decay rate;
    the gap block is handled densely and its eigenvalues reported.
    """

    triangular: np.ndarray     # basis^-1 Q basis (block upper triangular)
    wavelet_rates: tuple[float, ...]
    gap_eigenvalues: tuple[complex, ...]
    coupling_defect: float     # largest lower-left entry (should be ~0)


def wavelet_column(w: Wavelet, gen: GeneratorMatrix, profile) -> np.ndarray:
    """w, omega-normalised, at the states' centres: exact on its support's
    states, one value per child of the support, 0 off them.  State i lies in
    the support (d, n) when keys[i] = n mod p^d, in child keys[i] // p^d mod p."""
    (d, n, rest), p = _address(w.support, gen.outer, gen.p), gen.p
    mag, unit = w.norm_magnitude(profile, "omega"), p ** d  # once per wavelet, not per state
    values = [complex(ExactComplex(mag.coeff, mag.radicand, p, w.phase_at(c), mag.p_exp))
              for c in _centres(gen.outer, p, range(n, n + p * unit, unit))]
    return np.array([0 if rest or key % unit != n else values[key // unit % p]
                     for key in gen.keys], dtype=complex)


def spectral_data(cfg: OperatorConfig, gen: GeneratorMatrix) -> SpectralData:
    from .operator import lambda_exact

    n = gen.size
    cols = [np.ones(n, dtype=complex)]
    rates = []
    for support in admissible_supports(cfg.profile, gen.level):
        rate = float(Fraction(lambda_exact(cfg, support, gen.cutoff).value))
        for j in range(1, gen.p):
            cols.append(wavelet_column(Wavelet(support, j, gen.p), gen, cfg.profile))
            rates.append(rate)
    known = np.column_stack(cols)
    # complete with the omega-orthogonal complement of the known columns
    root = np.sqrt([float(m) for m in gen.masses])[:, None]
    u2, s2, _ = np.linalg.svd(known * root, full_matrices=True)
    basis = np.column_stack([known, u2[:, int(np.sum(s2 > 1e-10)):] / root])
    q = np.array(gen.q, dtype=float)  # Q basis from one descent, f = -lambda
    tri = np.linalg.solve(basis, _descend(gen, basis, lambda means: q @ means,
                                          lambda lam: -float(lam)))
    k = known.shape[1]
    defect = float(np.max(np.abs(tri[k:, :k]))) if k < n else 0.0
    gap_eigs = tuple(np.linalg.eigvals(tri[k:, k:])) if k < n else ()
    return SpectralData(tri, tuple(rates), gap_eigs, defect)


POISSON_TERMS = 18  # per uniformization step; see _semigroup


def _semigroup(q: np.ndarray, t: float) -> np.ndarray:
    """exp(tQ) for a Markov generator Q (rates >= 0, rows summing to 0).

    With r = max_i(-Q_ii) and B = I + Q/r >= 0, exp(tQ) is
    (sum_k e^-theta theta^k/k! B^k)^(2^s) with theta = rt/2^s <= 1.  The sum
    stops at k = POISSON_TERMS = 18, so each step drops a Poisson tail of at
    most theta^19/19! <= 1/19! < 1e-17.  No term, so no entry, is negative.
    NumericalBreakdown unless every row sums to 1 within ROW_SUM_TOL."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    eye = np.eye(len(q))
    rate = float(-q.diagonal().min())
    if rate == 0 or t == 0:
        return eye
    s = max(math.frexp(rate * t)[1], 0)
    theta = rate * t / 2 ** s
    step = eye + q / rate
    weight = math.exp(-theta)
    term, p = eye, weight * eye
    for k in range(1, POISSON_TERMS + 1):
        weight *= theta / k
        term = term @ step
        p += weight * term
    for _ in range(s):
        p = p @ p
    drift = float(np.max(np.abs(p.sum(axis=1) - 1)))
    if not drift <= ROW_SUM_TOL:
        raise NumericalBreakdown(f"row-sum drift {drift}")
    return p


class TransitionMatrix(NamedTuple):
    """Row-stochastic P_t with provenance and the observed row-sum drift."""

    t: float
    matrix: np.ndarray
    provenance: str
    row_sum_error: float
    min_entry: float


def transition_matrix(gen: GeneratorMatrix, t: float) -> TransitionMatrix:
    """P_t = exp(tQ) over every state: ``_flow`` of the identity, so column
    j is P_t e_j, from the split balls and e^(tQ_c) alone."""
    p = _flow(gen, np.eye(gen.size), [t], lambda pc, means: pc @ means)[0]
    return TransitionMatrix(float(t), p, "uniformization",
                            float(np.max(np.abs(p.sum(axis=1) - 1))), float(p.min()))


class HeatSolution(NamedTuple):
    times: tuple[float, ...]
    values: np.ndarray  # shape (len(times), n)

    def sup_norms(self) -> list[float]:
        return [float(np.max(np.abs(row))) for row in self.values]


def _float_vector(values: Sequence) -> np.ndarray:
    """complex128, or its real part when no imaginary part is nonzero."""
    vec = np.array([complex(v) for v in values])
    return vec if vec.imag.any() else vec.real


def solve_cauchy(gen: GeneratorMatrix, h0: LevelFunction | Sequence,
                 times: Sequence[float]) -> HeatSolution:
    """h(t) = P_t h0 on the time grid (``_flow``); t = 0 reproduces h0
    exactly.  The values are real unless h0 has a nonzero imaginary part."""
    vec = _float_vector(gen.vector(h0))
    rows = _flow(gen, vec, times, lambda p, means: p @ means)
    return HeatSolution(tuple(float(t) for t in times),
                        np.array([vec if t == 0 else u for t, u in zip(times, rows)]))


def _flow(gen: GeneratorMatrix, h: Sequence, times: Sequence[float], coarse) -> np.ndarray:
    """P_t h at every t, shape (len(times), *h.shape): one ``_descend`` on arrays
    over the times, f(lambda) = e^(-lambda t), cell values coarse(e^(tQ_c), means)."""
    q, t = np.array(gen.q, dtype=float), np.array(times, dtype=float)
    semigroups = [_semigroup(q, float(s)) for s in t]
    t = t.reshape(-1, *[1] * (np.ndim(h) - 1))  # times first, then h's columns

    def cell_values(means: list) -> np.ndarray:  # per cell, times first
        values = [coarse(p, means) for p in semigroups]
        return np.moveaxis(np.reshape(values, (len(t), len(means), *np.shape(h)[1:])), 0, 1)

    return np.moveaxis(_descend(gen, h, cell_values, lambda lam: np.exp(-float(lam) * t)), 0, 1)


def resolvent_solve(gen: GeneratorMatrix, eta, h: LevelFunction | Sequence) -> LevelFunction | list:
    """Solve (eta*I - Q) u = h for eta > 0 (ValueError otherwise): u in state
    order, a list, or a ``LevelFunction`` when h is one.

    u is exact, one Fraction per state, when eta, h and every density of
    ``gen`` are rational; otherwise it is a float solve, in real
    arithmetic unless h has a nonzero imaginary part.  For eta > 0 the
    system is strictly diagonally dominant, so it is never singular.  u is
    ``_descend`` with f(lambda) = 1/(eta + lambda): one solve of size #cells
    (``_solve_exact``, or numpy's in floats) and one division per support."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    vals = gen.vector(h)
    exact_q = all(isinstance(d, Fraction) for d in (*gen.density, *sum(gen.cross, ()))
                  if d is not None)
    exact_h = all(isinstance(v, (int, Fraction)) for v in vals)
    num = Fraction if exact_q and exact_h and isinstance(eta, (int, Fraction)) else float
    eta = num(eta)
    a = [[eta * (i == j) - num(v) for j, v in enumerate(row)] for i, row in enumerate(gen.q)]

    def coarse(means: list) -> Sequence:
        try:
            return _solve_exact(a, means) if num is Fraction else np.linalg.solve(a, means)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc

    vals = [Fraction(v) for v in vals] if num is Fraction else _float_vector(vals)
    u = _descend(gen, vals, coarse, lambda lam: 1 / (eta + num(lam)))
    if isinstance(h, LevelFunction):
        return LevelFunction(gen.level, tuple(zip(gen.states, u)))
    return u


def _descend(gen: GeneratorMatrix, h: Sequence, coarse, factor) -> list:
    """f(-Q) h, one value per state (per row of a 2-D h), from the split balls.

    Every split ball B that is not a state has one density s_B between its
    children (the lemma of ``operator``), so with m the state masses Q acts
    as -lambda_B, lambda_B = (rate out of B) + s_B * m(B), on the functions
    constant on the children of B, zero off B and of m-mean zero, and as the
    chain Q_c on the functions constant on each cell, a maximal ball.  So h
    splits into its cell means, which ``coarse`` maps to the cell values of
    f(-Q) h, and per B into mean_child(h) - mean_B(h), times factor(lambda_B):
    the ball masses m(B), floats for a float array h, and the rates lambda_B
    are ``gen.mass`` and ``gen.lam``.  A ball where a 1-D h is 0 at every
    state (a test on the states, not on the total) passes its value on."""
    order, columns = gen.order, isinstance(h, np.ndarray) and h.ndim == 2
    mass = [float(v) for v in gen.mass] if isinstance(h, np.ndarray) else gen.mass
    total, live = [], []  # per ball, the m-weighted sum of h, and whether h is nonzero on it
    for b, ((lo, _), kids) in enumerate(zip(gen.spans, gen.children)):
        live.append(columns or (any(live[k] for k in kids) if kids else h[order[lo]] != 0))
        total.append(sum(total[k] for k in kids if live[k]) if kids else
                     mass[b] * h[order[lo]] if live[b] else 0)
    u = [None] * gen.size
    stack = list(zip(gen.tops, coarse([total[c] / mass[c] for c in gen.tops])))
    while stack:
        b, value = stack.pop()
        if not (live[b] and gen.children[b]):  # a state, or h is zero on b
            for x in order[slice(*gen.spans[b])]:
                u[x] = value
            continue
        mean = total[b] / mass[b]
        for k in gen.children[b]:
            diff = total[k] / mass[k] - mean
            stack.append((k, value + diff * factor(gen.lam[b]) if columns or diff else value))
    return u


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """The unique rational solution of a u = b, by fraction-free elimination.

    Rows of [a | b] are scaled to integers by the lcm of their denominators;
    Bareiss's update (m_kk*m_ij - m_ik*m_kj) // prev divides exactly.  A zero
    pivot swaps in a lower row (SingularSystem if none).  The last pivot d is
    the determinant up to sign, so back-substitution finds the integers d*u_i
    and each u_i becomes a Fraction only at the end."""
    n = len(b)
    m = []
    for row, rhs in zip(a, b):
        scale = math.lcm(rhs.denominator, *(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in (*row, rhs)])
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            raise SingularSystem(f"zero pivot column {k}")
        m[k], m[pivot] = m[pivot], m[k]
        top, pk = m[k], m[k][k]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pk * v - f * w) // prev
                           for v, w in zip(row[k + 1:], top[k + 1:])]
        prev = pk
    y = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        y[i] = (prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, prev) for v in y]


class PathSample(NamedTuple):
    """One cadlag trajectory, a view into the columns of a ``PathColumns``:
    a right-continuous step function of state indices."""

    path_index: int
    jump_times: np.ndarray  # increasing
    states: np.ndarray      # visited states; states[0] at time 0


@dataclass(frozen=True, eq=False)
class PathColumns:
    """A sample of paths held as columns, like a CSR matrix.

    Path k owns rows ``offsets[k]:offsets[k + 1]`` of ``times`` and
    ``states``: first (0.0, start state), then one row per jump, the jump
    time and the state entered.  Indexing by an integer gives a
    ``PathSample`` view, by a contiguous slice a smaller ``PathColumns``."""

    offsets: np.ndarray  # len(self) + 1 row offsets, offsets[0] == 0
    times: np.ndarray    # float64
    states: np.ndarray   # state indices

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("only contiguous slices of a sample")
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            return PathColumns(self.offsets[start:stop + 1] - lo,
                               self.times[lo:hi], self.states[lo:hi])
        k = range(len(self))[key]
        return self._path(k, self.offsets[k], self.offsets[k + 1])

    def __iter__(self):
        bounds = self.offsets.tolist()
        return map(self._path, range(len(self)), bounds, bounds[1:])

    def _path(self, k: int, lo: int, hi: int) -> PathSample:
        return PathSample(k, self.times[lo + 1:hi], self.states[lo:hi])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathColumns):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip((self.offsets, self.times, self.states),
                       (other.offsets, other.times, other.states)))

    __hash__ = None

    def states_at(self, t: float) -> np.ndarray:
        """Every path's state at time t >= 0, right-continuous: each path's
        times increase from 0.0, so its rows at or before t are a prefix."""
        starts = self.offsets[:-1]
        upto = np.add.reduceat(self.times <= t, starts, dtype=np.intp)
        return self.states[starts + upto - 1]

    def counts(self, times: Sequence[float], size: int) -> np.ndarray:
        """Per time t, the paths in each of ``size`` states at t (int64)."""
        return np.array([np.bincount(self.states_at(float(t)), minlength=size) for t in times],
                        dtype=np.int64).reshape(len(times), size)


GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment of the stream state
MIX = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of the state, in place on a uint64 array."""
    s1, m1, s2, m2, s3 = MIX
    z ^= z >> s1
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    return z


def _path_keys(seed: int, paths: range) -> np.ndarray:
    """The keys of ``paths``: key j is output j + 1 of the SplitMix64 stream whose
    state starts at the seed, a seed past 64 bits folded in 64 bits at a time."""
    root = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        root = _mix(root + np.uint64(GOLDEN)) ^ np.uint64(seed >> shift & 2 ** 64 - 1)
    return _mix(root + np.uint64(GOLDEN) * np.arange(paths.start + 1, paths.stop + 1,
                                                     dtype=np.uint64))


def _uniforms(keys: np.ndarray, draws: range) -> np.ndarray:
    """Per key a row of its draws: draw d is output d + 1 of the SplitMix64
    stream whose state starts at the key, as a float in [0, 1) from its
    top 53 bits."""
    steps = np.array([GOLDEN * (d + 1) & 2 ** 64 - 1 for d in draws], dtype=np.uint64)
    z = _mix(keys[:, None] + steps)
    return (z >> np.uint64(11)) * 2.0 ** -53


def _jump_table(gen: GeneratorMatrix):
    """(hold rates, balls, rates): per state x, -Q[x][x] and the balls a jump
    from x enters, with the rate into each, padded with ball 0 at rate 0.

    The balls are the other tops, at their cross density times their mass,
    and per split ball B above x the children of B that miss x, at
    ``density[B]`` times their mass: they tile the states other than x, and
    a ball's rate spreads over its states by mass.  A ball at rate 0 is left
    out.  So x has O(depth * p + #tops) entries, its parent's and its
    siblings, built on one descent that keeps only the balls on its path and
    streams each state's row into the table; one rate per child ball fills
    the rates."""
    # at most the other tops and p - 1 siblings per depth below the highest top
    width = len(gen.tops) - 1 + (gen.p - 1) * (max(gen.depths)
                                               - min(gen.depths[t] for t in gen.tops))
    floats, into = {}, [0.0] * len(gen.depths)

    def rate(density, mass) -> float:
        # one float per pair of objects, all held by ``gen``: a few dozen pairs
        if (key := (id(density), id(mass))) not in floats:
            floats[key] = float(density * mass)
        return floats[key]

    for b, kids in enumerate(gen.children):
        for k in kids:
            into[k] = rate(gen.density[b], gen.mass[k])
    tops = [[(b, r) for b, d in zip(gen.tops, row) if b != a and (r := rate(d, gen.mass[b])) > 0]
            for a, row in zip(gen.tops, gen.cross)]
    stack = [(a, [b for b, _ in row]) for a, row in zip(gen.tops, tops)]
    pad, xs, outs = [-1] * max(1, width), [], [0] * gen.size  # ball -1 is at rate 0

    def rows():  # per state, in descent order, its balls padded to the width
        while stack:
            b, row = stack.pop()
            if kids := gen.children[b]:
                rated = [k for k in kids if into[k] > 0]
                stack.extend((k, row + [j for j in rated if j != k]) for k in kids)
                continue
            xs.append(x := gen.order[gen.spans[b][0]])
            outs[x] = gen.out[b]
            yield row + pad[len(row):]

    balls = np.empty((len(pad), gen.size), dtype=np.intp)  # transposed, as rates below
    balls[:, xs] = np.fromiter(chain.from_iterable(rows()), np.intp,  # the descent fills xs
                               balls.size).reshape(gen.size, -1).T
    balls, rates = balls.T, np.array(into + [0.0])[balls].T  # jump_chain sums rates.T in place
    for a, row in zip(gen.tops, tops):
        rates[list(gen.order[slice(*gen.spans[a])]), :len(row)] = [r for _, r in row]
    return np.array(_floats(outs)), balls.clip(0, None, balls), rates  # pad with ball 0


def _floats(values) -> list[float]:
    """float(v) per v, converted once per object: a generator holds few distinct ones."""
    memo = {}
    return [memo[i] if (i := id(v)) in memo else memo.setdefault(i, float(v)) for v in values]


MAX_JUMPS = 10 ** 7  # budget on a sample's expected jump count; see jump_chain


def jump_chain(gen: GeneratorMatrix, n_paths: int, t_max: float, seed: int) -> tuple:
    """Check a sample and build the tables its ranges draw from: ValueError on
    a bad argument or an absorbing state among several, NumericalBreakdown
    (huge rates run for ever) if n_paths * t_max * the largest hold rate
    passes MAX_JUMPS.  The operator's off-diagonal rates are all positive,
    so only a lone state holds for ever: ``sample_paths`` draws no hold there."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rate, balls, rates = _jump_table(gen)
    if gen.size > 1 and (rate <= 0).any():
        raise ValueError("absorbing state: zero hold rate")
    if not (jumps := float(rate.max()) * t_max * n_paths) <= MAX_JUMPS:
        raise NumericalBreakdown(f"{n_paths} paths to t = {t_max!r} may make {jumps:.3g} "
                                 f"jumps, past the budget of {MAX_JUMPS:.0e}")
    # ball b's states are the run order[lo:hi], over the cumulative masses edges[lo:hi + 1]
    order, (lo, hi) = np.array(gen.order), np.array(gen.spans).T
    edges = np.concatenate(([0.0], np.cumsum(_floats(map(gen.masses.__getitem__, gen.order)))))
    # transposed: a step gathers one column per live path, counts down the rows
    last, cum = np.count_nonzero(rates, axis=1) - 1, rates.T  # a view: rates is column-major
    return (np.divide(1, rate, out=np.full(gen.size, math.inf), where=rate > 0),
            np.cumsum(cum, axis=0, out=cum), last,
            balls, order, edges, edges[lo], edges[hi] - edges[lo], hi - 1)


def sample_paths(gen: GeneratorMatrix, n_paths: int, t_max: float, seed: int,
                 start_index: int = 0, paths: range | None = None,
                 chain: tuple | None = None) -> PathColumns:
    """Exact-jump-chain sampling on the generator's tree: a hold at rate
    -Q[x][x], then a jump into a ball of ``_jump_table`` with probability
    proportional to its rate, and to a state of that ball by mass.

    Path j draws from its own SplitMix64 stream, keyed by the seed and j
    (``_path_keys``): its k-th hold, ball and state are ``_uniforms`` draws
    3k, 3k + 1 and 3k + 2, so they depend on the seed and j alone, and
    ``paths``, a range of the n_paths (all by default), is drawn alone as
    the sample's slice of it.  Every live path advances in one vectorised
    step.  ``chain`` is ``jump_chain``'s, built here unless given."""
    mean_hold, cum, last, balls, order, edges, low, span, end = (
        chain or jump_chain(gen, n_paths, t_max, seed))
    paths = range(n_paths) if paths is None else paths
    if paths.step != 1 or not 0 <= paths.start <= paths.stop <= n_paths:
        raise ValueError(f"{paths} is not a range of the {n_paths} paths")
    n, keys = len(paths), _path_keys(seed, paths)
    live, t, s = np.arange(n if gen.size > 1 else 0), np.zeros(n), np.full(n, start_index)
    steps = []  # per step: the paths that jumped, the jump times, the states entered
    while live.size:
        u = _uniforms(keys, range(3 * len(steps), 3 * len(steps) + 3))
        t = t - np.log1p(-u[:, 0]) * mean_hold[s]
        going = t < t_max
        live, keys, t, s, u = live[going], keys[going], t[going], s[going], u[going]
        # entries <= the draw counted, so an entry at rate 0 is never chosen
        counted = (cum.take(s, axis=1) <= u[:, 1] * cum[-1, s]).sum(axis=0, dtype=np.intp)
        b = balls[s, np.minimum(counted, last[s])]
        at = low[b] + u[:, 2] * span[b]
        s = order[np.minimum(np.searchsorted(edges, at, side="right") - 1, end[b])]
        steps.append((live, t, s))
    counts = np.ones(n, dtype=np.intp)
    for ids, _, _ in steps:
        counts[ids] += 1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times, states = np.zeros(offsets[-1]), np.full(offsets[-1], start_index)
    for k, (ids, t, s) in enumerate(steps, 1):  # a path's k-th jump is its row k
        rows = offsets[ids] + k
        times[rows], states[rows] = t, s
    return PathColumns(offsets, times, states)


class CheckpointRow(NamedTuple):
    t: float
    max_sigma: float
    worst_state: int
    passed: bool


class ValidationReport(NamedTuple):
    rows: tuple[CheckpointRow, ...]
    n_paths: int
    threshold: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


VALIDATION_SIGMAS = 4.0  # binomial sigmas a state's empirical frequency may deviate


def _laws(gen: GeneratorMatrix, x: int, times: Sequence[float]) -> np.ndarray:
    """P_t[x, .] per t, a rounding below 0 as 0: m * ``_flow``(delta_x / m(x))
    with the row e^(tQ_c)[C_x, .] over the cell masses as cell values."""
    home = next(i for i, b in enumerate(gen.tops) if x in gen.order[slice(*gen.spans[b])])
    cell_mass = np.array([float(gen.mass[b]) for b in gen.tops])
    h = np.where(np.arange(gen.size) == x, 1 / float(gen.masses[x]), 0.0)
    m = np.array([float(v) for v in gen.masses])
    return np.maximum(m * _flow(gen, h, times, lambda p, means: p[home] / cell_mass), 0)


def empirical_validation(gen: GeneratorMatrix, paths: PathColumns | np.ndarray,
                         checkpoints: Sequence[float],
                         start_index: int = 0) -> ValidationReport:
    """Per-checkpoint comparison of the empirical state distribution with the
    law from the start state (``_laws``), at a binomial-sigma threshold.
    ``paths`` is a sample, or the sum of ``PathColumns.counts`` over its ranges."""
    counts = paths.counts(checkpoints, gen.size) if isinstance(paths, PathColumns) else paths
    n_paths = int(counts[0].sum()) if len(counts) else len(paths)
    rows = []
    for t, analytic, found in zip(checkpoints, _laws(gen, start_index, checkpoints), counts):
        emp = found / n_paths
        sigma = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-300) / n_paths)
        dev = np.abs(emp - analytic) / sigma
        worst = int(np.argmax(dev))
        rows.append(CheckpointRow(float(t), float(dev[worst]), worst,
                                  bool(dev[worst] <= VALIDATION_SIGMAS)))
    return ValidationReport(tuple(rows), n_paths, VALIDATION_SIGMAS)
