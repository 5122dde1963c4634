"""Per-layer tracing installed from outside the library.

``install()`` wraps public functions of each ``parikhbound`` module and
rebinds every module attribute that holds the original, so calls between
modules (``intersect`` imports ``sl_intersect`` by name) and within a module
both pass through the wrapper.  A wrapper records a span with its parent span
and adds to per-function totals; for the functions in TOTALS_ONLY, which run
hundreds of thousands of times, it keeps the totals alone.  Self time is a
call's duration minus the time of the wrapped calls nested inside it.
Durations are CPU time of the process, like the benchmark's cpu_s.
"""

from __future__ import annotations

import functools
import sys
import time

WRAPPED = {
    "diophantine": ("minimal_homogeneous", "solve_system", "solve_nonneg"),
    "semilinear": ("prune", "sl_minkowski", "wit_minkowski", "sl_intersect",
                   "sl_membership", "parikh_semilinear", "witness_for_vector",
                   "parikh_image"),
    "grammar": ("product_with_dfa", "transducer_product", "block_projection",
                "to_cnf", "trim", "enumerate_words", "cyk_membership",
                "simplify", "concat_grammars", "binarize"),
    "symbols": ("eb_concat", "determinize", "eb_to_nfa", "eb_complement_dfa",
                "nfa_to_regex"),
    "newton": ("build_kfold", "differential_grammar", "suggested_depth"),
    "boundedgen": ("parikh_equivalent_bounded", "bounded_for_substitution",
                   "bounded_for_powers", "bounded_for_linear",
                   "bounded_for_regex", "bounded_subset"),
    "intersect": ("semi_algorithm", "intersect_modulo", "refine"),
    "pdn": ("reach", "encode_to_acceptors", "acceptor_to_cfg"),
}

TOTALS_ONLY = {"diophantine.solve_nonneg", "grammar.trim", "grammar.binarize",
               "semilinear.prune", "semilinear.sl_minkowski",
               "semilinear.wit_minkowski", "semilinear.sl_membership",
               "symbols.eb_concat", "grammar.cyk_membership", "grammar.to_cnf"}

MAX_SPANS = 100_000

# Public functions wrapped by lru_cache, whose hit ratio is reported.
CACHED = ("semilinear.parikh_image", "grammar.to_cnf")


def _sizes(name, args, result):
    """Counters taken from a call's arguments and result."""
    if name == "semilinear.prune":
        return {"components_in": len(args[0].components),
                "components_out": len(result.components)}
    if name in ("grammar.product_with_dfa", "pdn.acceptor_to_cfg"):
        return {"productions_out": len(result.productions)}
    if name == "grammar.enumerate_words":
        return {"words_out": len(result)}
    if name == "symbols.eb_concat":
        return {"words_out": result.k}
    if name == "symbols.determinize":
        return {"states_out": result.n_states}
    if name == "newton.suggested_depth":
        return {"depth": result}
    if name == "intersect.semi_algorithm":
        return {"rounds": result.rounds}
    if name == "boundedgen.parikh_equivalent_bounded":
        return {"words": result.k, "distinct_words": len(set(result.words)),
                "total_length": result.total_length()}
    return None


class Tracer:
    def __init__(self, budget_error: type):
        self.budget_error = budget_error
        self.totals: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []   # [span id, start, child time]
        self._next_id = 0

    def _wrap(self, name, fn):
        totals = self.totals.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        spans_wanted = name not in TOTALS_ONLY
        stack = self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                totals["calls"] += 1
                totals["total_s"] += duration
                totals["self_s"] += duration - frame[2]
                if isinstance(raised, self.budget_error):
                    totals["budget_exhausted"] = totals.get(
                        "budget_exhausted", 0) + 1
                    totals["wasted_s"] = totals.get("wasted_s", 0.0) + duration
                elif raised is None:
                    sizes = _sizes(name, args, result)
                    for key, value in (sizes or {}).items():
                        totals[key] = totals.get(key, 0) + value
                if spans_wanted:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((span_id, parent, name, frame[1], end))
                    else:
                        self.spans_dropped += 1

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "parikhbound" or key.startswith("parikhbound.")]
        for layer, names in WRAPPED.items():
            module = sys.modules[f"parikhbound.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                name = f"{layer}.{fname}"
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def cache_ratios(self) -> dict[str, float]:
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            lookups = info.hits + info.misses
            out[name] = info.hits / lookups if lookups else 0.0
        return out


def install() -> Tracer:
    import parikhbound  # imports every module that gets wrapped

    tracer = Tracer(parikhbound.BudgetError)
    tracer.install()
    return tracer


# The per-layer metrics of a traced run, with their units.  A name
# "<module>.<function>.<stat>" reads a per-function total, "<module>.self_s"
# sums the self time of the module's wrapped functions, and ALIASES names the
# totals behind the remaining ones.
LAYER_METRICS = [
    ("traced_cpu_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in WRAPPED],
    ("diophantine.minimal_homogeneous.calls", "count"),
    ("diophantine.minimal_homogeneous.self_s", "s"),
    ("diophantine.minimal_homogeneous.budget_exhausted", "count"),
    ("diophantine.minimal_homogeneous.wasted_s", "s"),
    ("diophantine.solve_nonneg.calls", "count"),
    ("diophantine.solve_nonneg.self_s", "s"),
    ("semilinear.prune.calls", "count"),
    ("semilinear.prune.self_s", "s"),
    ("semilinear.prune.components_in", "count"),
    ("semilinear.prune.components_out", "count"),
    ("semilinear.sl_minkowski.self_s", "s"),
    ("semilinear.sl_intersect.calls", "count"),
    ("semilinear.sl_intersect.self_s", "s"),
    ("semilinear.parikh_semilinear.calls", "count"),
    ("semilinear.parikh_semilinear.self_s", "s"),
    ("semilinear.witness_for_vector.self_s", "s"),
    ("semilinear.parikh_image.cache_hit_ratio", "ratio"),
    ("grammar.product_with_dfa.self_s", "s"),
    ("grammar.product_with_dfa.productions_out", "count"),
    ("grammar.transducer_product.self_s", "s"),
    ("grammar.to_cnf.self_s", "s"),
    ("grammar.to_cnf.cache_hit_ratio", "ratio"),
    ("grammar.trim.calls", "count"),
    ("grammar.trim.self_s", "s"),
    ("grammar.enumerate_words.self_s", "s"),
    ("grammar.enumerate_words.words_out", "count"),
    ("grammar.cyk_membership.calls", "count"),
    ("grammar.cyk_membership.self_s", "s"),
    ("grammar.simplify.self_s", "s"),
    ("symbols.eb_concat.calls", "count"),
    ("symbols.eb_concat.self_s", "s"),
    ("symbols.eb_concat.words_out", "count"),
    ("symbols.determinize.self_s", "s"),
    ("symbols.determinize.states_out", "count"),
    ("symbols.eb_to_nfa.self_s", "s"),
    ("symbols.nfa_to_regex.self_s", "s"),
    ("newton.build_kfold.self_s", "s"),
    ("newton.suggested_depth.self_s", "s"),
    ("newton.depth", "count"),
    ("boundedgen.parikh_equivalent_bounded.calls", "count"),
    ("boundedgen.parikh_equivalent_bounded.self_s", "s"),
    ("boundedgen.bounded_for_substitution.self_s", "s"),
    ("boundedgen.bounded_for_powers.calls", "count"),
    ("boundedgen.bounded_subset.self_s", "s"),
    ("boundedgen.words", "count"),
    ("boundedgen.distinct_words", "count"),
    ("boundedgen.total_length", "count"),
    ("intersect.semi_algorithm.rounds", "count"),
    ("intersect.intersect_modulo.calls", "count"),
    ("intersect.intersect_modulo.self_s", "s"),
    ("intersect.refine.calls", "count"),
    ("intersect.refine.self_s", "s"),
    ("pdn.acceptor_to_cfg.self_s", "s"),
    ("pdn.acceptor_to_cfg.productions_out", "count"),
]

# Sums over the bounded languages parikh_equivalent_bounded returned, and
# over the depths suggested_depth chose.
ALIASES = {
    "newton.depth": "newton.suggested_depth.depth",
    "boundedgen.words": "boundedgen.parikh_equivalent_bounded.words",
    "boundedgen.distinct_words":
        "boundedgen.parikh_equivalent_bounded.distinct_words",
    "boundedgen.total_length":
        "boundedgen.parikh_equivalent_bounded.total_length",
}


def layer_metrics(tracer: Tracer, traced_cpu_s: float) -> dict[str, float]:
    ratios = tracer.cache_ratios()
    out = {}
    for metric, _ in LAYER_METRICS:
        layer = metric.split(".")[0]
        if metric == "traced_cpu_s":
            value = traced_cpu_s
        elif metric == f"{layer}.self_s":
            value = sum(t["self_s"] for name, t in tracer.totals.items()
                        if name.startswith(layer + "."))
        else:
            function, stat = ALIASES.get(metric, metric).rsplit(".", 1)
            if stat == "cache_hit_ratio":
                value = ratios[function]
            else:
                value = tracer.totals.get(function, {}).get(stat, 0)
        out[metric] = value
    return out

