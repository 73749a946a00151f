"""Heat semigroup, resolvent, stationary analysis and path sampling.

The finite level-m generator Q is exact; floating point enters only through
the semigroup, eigen-solves, resolvents of Q with irrational rates and random
sampling.  Everything here reads Q through its ``GeneratorMatrix``: the
cached float ``matrix``, the exact state ``masses``, and ``vector`` and
``level_function`` to move a level function into and out of state order.
P_t = exp(tQ) is a sum of nonnegative terms (uniformization with squaring);
``spectral_data`` shows the known eigenvectors, constants plus wavelets, as
a diagnostic only.  Paths follow the exact jump-chain construction
(exponential holding times, jump probabilities proportional to the rates),
drawn from one seeded stream in lockstep chunks of PATH_CHUNK paths, and
come back as columns (``PathColumns``: row offsets per path, flat times and
states) with ``PathSample`` as a per-path view.

The exact resolvent is solved by multiresolution over the generator's split
balls (``GeneratorMatrix.tree``): one division by eta + lambda_B per
certified wavelet support B and one small exact solve for the cell means,
as ``resolvent_solve`` sets out with its checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .operator import GeneratorMatrix, OperatorConfig, SplitTree
from .padic import Disc
from .wavelets import LevelFunction, Wavelet, admissible_wavelets, wavelet_eval


class NumericalBreakdown(ArithmeticError):
    """Stochasticity of the computed semigroup drifted beyond tolerance."""


class SingularSystem(ArithmeticError):
    """The resolvent system was singular (impossible for eta > 0)."""


class Reducible(ValueError):
    """The jump chain is not irreducible."""


ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Block triangularisation of Q over [constants | wavelets | gap].

    ``known_eigenvalues`` pairs each wavelet column with its exact decay
    rate; the gap block is handled densely and its eigenvalues reported.
    """

    basis: np.ndarray          # columns: 1, wavelet vectors, gap vectors
    triangular: np.ndarray     # basis^-1 Q basis (block upper triangular)
    wavelets: tuple[Wavelet, ...]
    wavelet_rates: tuple[float, ...]
    gap_eigenvalues: tuple[complex, ...]
    coupling_defect: float     # largest lower-left entry (should be ~0)


def spectral_data(cfg: OperatorConfig, gen: GeneratorMatrix) -> SpectralData:
    from .operator import lambda_exact

    n = gen.size
    wavelets = tuple(w for w in admissible_wavelets(cfg.profile, gen.level))
    cols = [np.ones(n, dtype=complex)]
    rates = []
    by_support: dict[Disc, Fraction] = {}
    for w in wavelets:
        vec = np.array([complex(wavelet_eval(w, d.center, cfg.profile, "omega"))
                        for d in gen.states])
        cols.append(vec)
        if w.support not in by_support:
            by_support[w.support] = Fraction(lambda_exact(cfg, w.support,
                                                          gen.cutoff).value)
        rates.append(float(by_support[w.support]))
    known = np.column_stack(cols)
    # complete with the omega-orthogonal complement of the known columns
    weights = np.array([float(m) for m in gen.masses])
    scaled = known * np.sqrt(weights)[:, None]
    u2, s2, _ = np.linalg.svd(scaled, full_matrices=True)
    rank = int(np.sum(s2 > 1e-10))
    complement = u2[:, rank:]
    gap_cols = complement / np.sqrt(weights)[:, None]
    basis = np.column_stack([known, gap_cols])
    tri = np.linalg.solve(basis, gen.matrix @ basis)
    k = known.shape[1]
    defect = float(np.max(np.abs(tri[k:, :k]))) if k < n else 0.0
    gap_eigs = tuple(np.linalg.eigvals(tri[k:, k:])) if k < n else ()
    return SpectralData(basis, tri, wavelets, tuple(rates), gap_eigs, defect)


POISSON_TERMS = 18  # per uniformization step; see _semigroup


def _semigroup(q: np.ndarray, t: float) -> np.ndarray:
    """exp(tQ) for a Markov generator Q (rates >= 0, rows summing to 0).

    With r = max_i(-Q_ii) and B = I + Q/r >= 0, exp(tQ) is
    (sum_k e^-theta theta^k/k! B^k)^(2^s) with theta = rt/2^s <= 1.  The sum
    stops at k = POISSON_TERMS = 18, so each step drops a Poisson tail of at
    most theta^19/19! <= 1/19! < 1e-17.  No term, so no entry, is negative."""
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
    return p


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic P_t with provenance and the observed row-sum drift."""

    t: float
    matrix: np.ndarray
    provenance: str
    row_sum_error: float
    min_entry: float

    def clamped(self) -> np.ndarray:
        out = np.where(self.matrix < 0, 0.0, self.matrix)
        return out / out.sum(axis=1, keepdims=True)


def transition_matrix(gen: GeneratorMatrix, t: float) -> TransitionMatrix:
    """P_t = exp(tQ) by uniformization (``_semigroup``); NumericalBreakdown
    unless every row sums to 1 within ROW_SUM_TOL."""
    p = _semigroup(gen.matrix, float(t))
    drift = float(np.max(np.abs(p.sum(axis=1) - 1)))
    if not drift <= ROW_SUM_TOL:
        raise NumericalBreakdown(f"row-sum drift {drift}")
    return TransitionMatrix(float(t), p, "uniformization", drift,
                            float(p.min()))


@dataclass(frozen=True)
class HeatSolution:
    times: tuple[float, ...]
    values: np.ndarray  # shape (len(times), n)

    def sup_norms(self) -> list[float]:
        return [float(np.max(np.abs(row))) for row in self.values]


def _float_vector(values: Sequence) -> np.ndarray:
    """complex128, or its real part when no imaginary part is nonzero."""
    vec = np.array([complex(v) for v in values])
    return vec if vec.imag.any() else vec.real


def solve_cauchy(gen: GeneratorMatrix, h0: LevelFunction,
                 times: Sequence[float]) -> HeatSolution:
    """h(t) = P_t h0 on the time grid; t = 0 reproduces h0 exactly.  The
    values are real unless h0 has a nonzero imaginary part."""
    vec = _float_vector(gen.vector(h0))
    rows = [vec if t == 0 else transition_matrix(gen, t).matrix @ vec
            for t in times]
    return HeatSolution(tuple(float(t) for t in times), np.array(rows))


def resolvent_solve(gen: GeneratorMatrix, eta, h: LevelFunction) -> LevelFunction:
    """Solve (eta*I - Q) u = h for eta > 0 (ValueError otherwise).

    u is exact, one Fraction per state, when eta, h and every rate of Q are
    rational; otherwise it is a float solve, in real arithmetic unless h has
    a nonzero imaginary part.  For eta > 0 the system matrix is strictly
    diagonally dominant (the diagonal is eta plus the total jump rate,
    off-diagonals are the negated nonnegative rates), so it is never singular.

    The exact u comes from multiresolution over ``gen.tree``.  With m the
    state masses, Q acts as -lambda_B on V_B, the functions constant on the
    children of a certified support B, zero off B and of m-mean zero, and
    as a lumped chain on the functions constant on each cell (a maximal
    certified support, or a state in none).  So h splits into its cell
    means, solved by one ``_solve_exact`` of size #cells, and per support B
    into mean_child(h) - mean_B(h) on each child, divided by eta + lambda_B.
    The checks are exact:

    1. B is one split ball for every row outside it, so Q f = 0 off B for f
       in V_B (the tree holds only such balls);
    2. at each state x of B, the rates into the other children of B have
       one density s_B(x) per unit mass;
    3. lambda_B = (rate of x out of B) + s_B(x) * m(B) is the same at every
       x in B, and each child of B is a state or certified;
    4. every state of a cell has the same rate into each other cell, so the
       cell functions are Q-invariant.  A cell where this fails is split
       into its children, and its support is no longer divided out.

    Without certified supports every state is a cell and the cell system is
    the full one, as for a generator built by hand or by
    ``dataclasses.replace``, which has no tree.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    vals = gen.vector(h)
    # Q[i][i] is minus the sum of row i's nonnegative rates, and the terms
    # of a rate at a fractional power of p have positive coefficients, so
    # they cannot cancel: the diagonal is a Fraction exactly when its row is.
    exact_q = all(isinstance(gen.rows[i][i], Fraction) for i in range(gen.size))
    exact_h = all(isinstance(v, (int, Fraction)) for v in vals)
    if exact_q and exact_h and isinstance(eta, (int, Fraction)):
        return gen.level_function(_multiresolution(gen, Fraction(eta),
                                                   [Fraction(v) for v in vals]))
    a = float(eta) * np.eye(gen.size) - gen.matrix
    try:
        u = np.linalg.solve(a, _float_vector(vals))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return gen.level_function(u)


def _multiresolution(gen: GeneratorMatrix, eta: Fraction,
                     h: list[Fraction]) -> list[Fraction]:
    """The exact solution of (eta*I - Q) u = h: one ``_solve_exact`` of size
    #cells and one division per certified support (``resolvent_solve``)."""
    n, q, m = gen.size, gen.rows, gen.masses
    tree = gen.tree or SplitTree(gen.states, tuple((i,) for i in range(n)), ((),) * n)
    rep = [ins[0] for ins in tree.members]
    lam, leave, mass = _decay_rates(q, m, tree)
    total = []  # per ball, the m-weighted sum of h
    for r, kids in zip(rep, tree.children):
        total.append(sum(total[k] for k in kids) if kids else m[r] * h[r])
    nested = {k for b in lam for k in tree.children[b]}
    cells = [b for b, kids in enumerate(tree.children)
             if (b in lam or not kids) and b not in nested]

    def uneven(c):  # a state of cell c enters another cell at another rate
        return any(q[x][rep[d]] != q[rep[c]][rep[d]]
                   for x in tree.members[c][1:] for d in cells if d != c)

    while (split := next(filter(uneven, cells), None)) is not None:
        del lam[split]
        cells.remove(split)
        cells.extend(tree.children[split])
    # the rate from cell c into cell d, whose states get rates proportional to mass
    a = [[eta + leave[c] if d == c else -q[rep[c]][rep[d]] * mass[d] / m[rep[d]]
          for d in cells] for c in cells]
    u = [Fraction(0)] * n
    stack = list(zip(cells, _solve_exact(a, [total[c] / mass[c] for c in cells])))
    while stack:
        b, value = stack.pop()
        if not tree.children[b]:
            u[rep[b]] = value
            continue
        mean = total[b] / mass[b]
        for k in tree.children[b]:
            diff = total[k] / mass[k] - mean
            stack.append((k, value + diff / (eta + lam[b]) if diff else value))
    return u


def _decay_rates(q, m, tree: SplitTree):
    """({b: lambda_B} over the certified supports B = tree.balls[b], per ball
    the rate out of it from its first state, per ball its mass).  Balls come
    after their descendants, so one pass reads each state's ancestors bottom
    up, and lambda_B at x in child C is (rate of x out of C) + s_B(x) * m(C)."""
    rep, mass = [ins[0] for ins in tree.members], []
    for r, kids in zip(rep, tree.children):
        mass.append(sum(mass[k] for k in kids) if kids else m[r])
    out = [-row[x] for x, row in enumerate(q)]  # rate of x out of its certified ball
    lam, leave = {}, [out[r] for r in rep]
    for b, kids in enumerate(tree.children):
        if not kids or any(tree.children[k] and k not in lam for k in kids):
            continue
        at = [(c, x) for c in kids for x in tree.members[c]]
        dens = [[q[x][rep[k]] / m[rep[k]] for k in kids if k != c] or [0] for c, x in at]
        if any(v != d[0] for d in dens for v in d):
            continue
        rates = [out[x] + d[0] * mass[c] for (c, x), d in zip(at, dens)]
        if any(v != rates[0] for v in rates):
            continue
        lam[b] = rates[0]
        for (_, x), d in zip(at, dens):
            out[x] = lam[b] - d[0] * mass[b]
        leave[b] = out[rep[b]]
    return lam, leave, mass


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


@dataclass(frozen=True)
class StationaryReport:
    distribution: np.ndarray
    residual: float
    tv_distance_to_mass: float


def stationary_distribution(gen: GeneratorMatrix) -> StationaryReport:
    """The unique probability vector with pi Q = 0.

    Irreducibility is checked on the positive-rate graph.  The report also
    measures (never asserts) the total-variation distance between pi and the
    mass-normalised measure.
    """
    n = gen.size
    q = gen.matrix
    _check_irreducible(gen)
    # pi Q = 0, sum pi = 1: least squares on the stacked system
    a = np.vstack([q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(pi @ q)))
    if residual > 1e-9 or pi.min() <= 0:
        raise Reducible(f"no positive stationary solution (residual {residual})")
    masses = np.array([float(m) for m in gen.masses])
    masses = masses / masses.sum()
    tv = 0.5 * float(np.abs(pi - masses).sum())
    return StationaryReport(pi, residual, tv)


def _check_irreducible(gen: GeneratorMatrix) -> None:
    """Reducible unless every state reaches every state along positive rates;
    each squaring of the reachability matrix doubles the path length covered."""
    reach = gen.matrix > 0
    np.fill_diagonal(reach, True)
    for _ in range(gen.size.bit_length()):
        reach = (reach.astype(int) @ reach) > 0
    stuck = np.flatnonzero(~reach.all(axis=1))
    if stuck.size:
        raise Reducible(f"state {stuck[0]} does not reach every state")


PATH_CHUNK = 1024  # paths drawn in lockstep; another width is another stream


@dataclass(eq=False, slots=True)
class PathSample:
    """One cadlag trajectory, a view into the columns of a ``PathColumns``:
    a right-continuous step function of state indices."""

    path_index: int
    jump_times: np.ndarray  # increasing
    states: np.ndarray      # visited states; states[0] at time 0

    def state_at(self, t: float) -> int:
        return int(self.states[np.searchsorted(self.jump_times, t, side="right")])


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


def sample_paths(gen: GeneratorMatrix, n_paths: int, t_max: float, seed: int,
                 start_index: int = 0) -> PathColumns:
    """Exact-jump-chain sampling: exponential holds at rate -Q[s,s], jumps
    with probability proportional to the off-diagonal rates.

    Paths advance in lockstep chunks of PATH_CHUNK from the one stream
    default_rng(seed).  Each step of a chunk draws PATH_CHUNK exponentials,
    then PATH_CHUNK uniforms, and path j of the chunk always uses element j,
    even after it stopped; so the first k paths of a sample with seed s are
    the sample of k paths."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}")
    rate = -gen.matrix.diagonal()
    if (rate <= 0).any():
        raise ValueError("absorbing state: zero hold rate")
    jumps = gen.matrix + np.diag(rate)  # the diagonal cancels to 0.0 exactly
    mean_hold, cum = 1.0 / rate, np.cumsum(jumps / rate[:, None], axis=1)
    rng = np.random.default_rng(seed)
    chunks = [_lockstep_chunk(rng, mean_hold, cum, min(PATH_CHUNK, n_paths - first),
                              t_max, start_index)
              for first in range(0, n_paths, PATH_CHUNK)]
    counts = np.concatenate([c for c, _, _ in chunks])
    return PathColumns(np.concatenate(([0], np.cumsum(counts))),
                       np.concatenate([t for _, t, _ in chunks]),
                       np.concatenate([s for _, _, s in chunks]))


def _lockstep_chunk(rng, mean_hold: np.ndarray, cum: np.ndarray, k: int,
                    t_max: float, start: int):
    """The first k paths of one lockstep chunk: rows per path, then the time
    and state columns in path-major order."""
    t = np.zeros(k)
    s = np.full(k, start)
    live = np.arange(k)
    ids, times, states = [live], [t.copy()], [s.copy()]
    while live.size:
        hold = rng.standard_exponential(PATH_CHUNK)[live]
        u = rng.random(PATH_CHUNK)[live]
        t_next = t[live] + hold * mean_hold[s[live]]
        going = t_next < t_max
        live = live[going]
        # entries <= u*total counted: bisect_right, so neither the zeroed
        # diagonal nor any other zero-probability entry is ever chosen
        cum_rows = cum[s[live]]
        s[live] = (cum_rows <= (u[going] * cum_rows[:, -1])[:, None]).sum(axis=1)
        t[live] = t_next[going]
        ids.append(live)
        times.append(t[live])
        states.append(s[live])
    # rows were appended step by step, so a stable sort by path keeps time order
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    return (np.bincount(ids, minlength=k), np.concatenate(times)[order],
            np.concatenate(states)[order])


@dataclass(frozen=True)
class CheckpointRow:
    t: float
    max_sigma: float
    worst_state: int
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[CheckpointRow, ...]
    n_paths: int
    threshold: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


VALIDATION_SIGMAS = 4.0  # binomial sigmas a state's empirical frequency may deviate


def empirical_validation(gen: GeneratorMatrix, paths: PathColumns,
                         checkpoints: Sequence[float],
                         start_index: int = 0) -> ValidationReport:
    """Per-checkpoint comparison of the empirical state distribution with the
    transition row, at a binomial-sigma threshold per state."""
    n_paths = len(paths)
    rows = []
    for t in checkpoints:
        analytic = transition_matrix(gen, float(t)).clamped()[start_index]
        counts = np.bincount(paths.states_at(float(t)), minlength=gen.size)
        emp = counts / n_paths
        sigma = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-300) / n_paths)
        dev = np.abs(emp - analytic) / sigma
        worst = int(np.argmax(dev))
        rows.append(CheckpointRow(float(t), float(dev[worst]), worst,
                                  bool(dev[worst] <= VALIDATION_SIGMAS)))
    return ValidationReport(tuple(rows), n_paths, VALIDATION_SIGMAS)
