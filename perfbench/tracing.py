"""Spans and counters around the public functions of each mumford_heat layer.

The wrappers live here, in the benchmark, and are installed by rebinding
names at run time: the library itself carries no tracing.  A function is
wrapped in every module namespace that binds it (``generator_matrix`` is
bound in both ``operator`` and ``cli``; ``words_with_maps`` in ``schottky``,
``operator`` and ``audit``), and ``heat.spectral_data`` imports
``operator.lambda_exact`` at call time, so it picks up the wrapper too.

A span is ``[name, start, end, parent, run_id]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``run_id`` numbers the CLI command the
span belongs to.  Spans stay in memory until the traced process writes them
out at its end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

WORDS = "schottky.words"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.states = 0
        self.run_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")


# --- what each layer counts, from the wrapped call's result -----------------

def _after_generator(tr: Tracer, gen, words: int) -> None:
    tr.counts["operator.generator_terms"] += words * gen.size ** 2
    tr.states = max(tr.states, gen.size)


def _after_lambda_exact(tr: Tracer, _result, _words: int) -> None:
    tr.counts["operator.lambda_exact_calls"] += 1


def _after_lambda_formula(tr: Tracer, series, _words: int) -> None:
    tr.counts["operator.lambda_formula_calls"] += 1
    tr.counts["operator.lambda_formula_exact"] += bool(series.is_exact)


def _after_sample(tr: Tracer, paths, _words: int) -> None:
    tr.counts["heat.paths"] += len(paths)
    tr.counts["heat.jumps"] += sum(len(p.jump_times) for p in paths)


# (module, function, span name, hook run on the result)
LAYERS = (
    ("config", "parse_config", "config.parse", None),
    ("schottky", "verify_fundamental_domain", "schottky.verify_domain", None),
    ("operator", "generator_matrix", "operator.generator_matrix", _after_generator),
    ("operator", "lambda_exact", "operator.lambda_exact", _after_lambda_exact),
    ("operator", "lambda_formula", "operator.lambda_formula", _after_lambda_formula),
    ("heat", "spectral_data", "heat.spectral_data", None),
    ("heat", "transition_matrix", "heat.transition_matrix", None),
    ("heat", "solve_cauchy", "heat.solve_cauchy", None),
    ("heat", "resolvent_solve", "heat.resolvent_solve", None),
    ("heat", "sample_paths", "heat.sample_paths", _after_sample),
    ("heat", "empirical_validation", "heat.empirical_validation", None),
    ("audit", "audit_lemmas", "audit.audit_lemmas", None),
)
WALK = ("schottky", "words_with_maps", "schottky.word_walk")


def _traced_call(tr: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        words = tr.counts[WORDS]
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, result, tr.counts[WORDS] - words)
        return result
    return traced


def _traced_walk(tr: Tracer, name: str, fn):
    """One span per step of the word generator, so that the consumer's loop
    body is not billed to the walk."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tr.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.close(idx)
            tr.counts[WORDS] += 1
            yield item
    return traced


def _rebind(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mumford_heat" and not mod_name.startswith("mumford_heat."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every layer function of the imported mumford_heat package."""
    importlib.import_module("mumford_heat.cli")
    tr = Tracer()
    for mod, fname, span, hook in LAYERS:
        fn = getattr(importlib.import_module(f"mumford_heat.{mod}"), fname)
        _rebind(fn, _traced_call(tr, span, fn, hook))
    mod, fname, span = WALK
    fn = getattr(importlib.import_module(f"mumford_heat.{mod}"), fname)
    _rebind(fn, _traced_walk(tr, span, fn))

    power_sum = importlib.import_module("mumford_heat.exactnum").PowerSum
    add_term = power_sum.add_term

    @functools.wraps(add_term)
    def counted_add_term(self, coeff, exponent):
        tr.counts["exactnum.powersum_terms"] += 1
        return add_term(self, coeff, exponent)

    power_sum.add_term = counted_add_term
    return tr


# --- from spans to per-layer metrics ----------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_n, start, end, _p, _r) in enumerate(spans)]


def nesting_errors(spans) -> list[str]:
    """Children inside their parent, siblings disjoint, self <= inclusive."""
    errors = []
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or p[4] != run:
                errors.append(f"span {i} {name} escapes its parent {p[0]}")
            if start < last_child_end.get(parent, start):
                errors.append(f"span {i} {name} overlaps a sibling")
            last_child_end[parent] = end
    for i, own in enumerate(self_times(spans)):
        inclusive = spans[i][2] - spans[i][1]
        if own < -1e-9 or own > inclusive + 1e-9:
            errors.append(f"span {i} {spans[i][0]}: self {own} vs inclusive {inclusive}")
    return errors


# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
LAYER_METRICS = (
    ("config.parse_s", "s"),
    ("schottky.verify_domain_s", "s"),
    ("schottky.word_walk_s", "s"),
    ("schottky.words", "count"),
    ("operator.generator_matrix_s", "s"),
    ("operator.states", "count"),
    ("operator.generator_terms", "count"),
    ("operator.generator_ns_per_term", "ns"),
    ("operator.lambda_exact_s", "s"),
    ("operator.lambda_exact_calls", "count"),
    ("operator.lambda_formula_s", "s"),
    ("operator.closed_form_ratio", "ratio"),
    ("exactnum.powersum_terms", "count"),
    ("heat.spectral_data_s", "s"),
    ("heat.transition_matrix_s", "s"),
    ("heat.solve_cauchy_s", "s"),
    ("heat.resolvent_solve_s", "s"),
    ("heat.sample_paths_s", "s"),
    ("heat.paths", "count"),
    ("heat.jumps", "count"),
    ("heat.jumps_per_s", "1/s"),
    ("heat.empirical_validation_s", "s"),
    ("audit.audit_lemmas_s", "s"),
    ("cli.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_values(spans, counts, states: int) -> dict[str, float]:
    """Per-layer values of one traced process; ``_s`` names are self times.

    ``cli.artifact_bytes`` and ``trace.overhead_ratio`` are not known to the
    traced process and are filled in by the caller.
    """
    own: Counter = Counter()
    inclusive: Counter = Counter()
    for span, t in zip(spans, self_times(spans)):
        name = "cli.self" if span[0].startswith("cli.") else span[0]
        own[name] += t
        inclusive[name] += span[2] - span[1]
    values = {name: own[name[:-2]] for name, unit in LAYER_METRICS
              if name.endswith("_s") and unit == "s"}
    terms = counts["operator.generator_terms"]
    calls = counts["operator.lambda_formula_calls"]
    values.update({
        "schottky.words": counts[WORDS],
        "operator.states": states,
        "operator.generator_terms": terms,
        "operator.generator_ns_per_term":
            1e9 * inclusive["operator.generator_matrix"] / terms if terms else 0.0,
        "operator.lambda_exact_calls": counts["operator.lambda_exact_calls"],
        "operator.closed_form_ratio":
            counts["operator.lambda_formula_exact"] / calls if calls else 0.0,
        "exactnum.powersum_terms": counts["exactnum.powersum_terms"],
        "heat.paths": counts["heat.paths"],
        "heat.jumps": counts["heat.jumps"],
        "heat.jumps_per_s": (counts["heat.jumps"] / inclusive["heat.sample_paths"]
                             if inclusive["heat.sample_paths"] else 0.0),
    })
    return values
