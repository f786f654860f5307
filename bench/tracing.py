"""Per-layer tracing of the pipeline from outside the package.

The package is not edited.  ``Tracer.install`` replaces a module attribute
that the pipeline looks up at run time (for example
``discrete_fdr.wfdr.groupwise_pi0``) with a wrapper, so every call through
that name is recorded:

* a *span* (name, layer, start, end, parent) for calls at a layer boundary;
* an aggregate counter (calls and total seconds) for hot leaf calls made
  once per hypothesis or per pair, where a span per call would cost more
  than the call itself;
* a call count alone for the hottest leaf, the per-pair distance, and for
  the step that maps each enumerated outcome to its p-value; their time
  already belongs to the enclosing span or leaf.

A span's self time is its duration minus the time covered by its child
spans and leaf calls; a layer's self time sums the self time of its spans
and the time of its leaf calls.  Spans are kept in memory and written out
by the caller when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# (module, attribute, layer, kind).  Each entry is a name the pipeline looks
# up at run time, so the wrapper sees every call made through it.
PROBES = (
    ("cli", "main", "cli", "span"),
    ("cli", "parse_counts_csv", "io", "span"),
    ("cli", "score_input", "io", "span"),
    ("cli", "estimate_pi0", "proportion", "span"),
    ("cli", "wfdr_reject", "wfdr", "span"),
    ("cli", "bh_reject", "wfdr", "span"),
    # Called once per cache miss with the null probabilities of every outcome
    # the test enumerates, so its argument's length is the work done.
    ("exact_tests", "_outcome_pvalues", "exact_tests", "count"),
    ("io", "binomial_pvalue", "exact_tests", "leaf"),
    ("io", "binomial_null_distribution", "exact_tests", "leaf"),
    ("io", "fet_pvalue", "exact_tests", "leaf"),
    ("io", "fet_null_distribution", "exact_tests", "leaf"),
    ("simulate", "run_study", "simulate", "span"),
    ("simulate", "generate_scenario", "simulate", "span"),
    ("simulate", "score_study", "simulate", "span"),
    ("simulate", "binomial_pvalue", "exact_tests", "leaf"),
    ("simulate", "binomial_null_distribution", "exact_tests", "leaf"),
    ("simulate", "fet_pvalue", "exact_tests", "leaf"),
    ("simulate", "fet_null_distribution", "exact_tests", "leaf"),
    ("simulate", "estimate_pi0", "proportion", "span"),
    ("simulate", "groupwise_pi0", "proportion", "span"),
    ("simulate", "overall_pi0", "proportion", "span"),
    ("simulate", "group_by_statistic_quantiles", "grouping", "span"),
    ("simulate", "bh_reject", "wfdr", "span"),
    ("simulate", "group_weights", "wfdr", "span"),
    ("simulate", "weighted_pvalues", "wfdr", "span"),
    ("simulate", "rejection_threshold", "wfdr", "span"),
    # The metric partition is where the pairwise distance matrix is built;
    # its own time is the cdf_metric layer's, its grouping call is a child.
    ("wfdr", "_metric_partition", "cdf_metric", "span"),
    ("wfdr", "marginal_distance", "cdf_metric", "count"),
    ("wfdr", "group_by_statistic_quantiles", "grouping", "span"),
    ("wfdr", "group_from_distances", "grouping", "span"),
    ("wfdr", "groupwise_pi0", "proportion", "span"),
    ("wfdr", "overall_pi0", "proportion", "span"),
    ("proportion", "estimate_pi0", "proportion", "span"),
)

LAYERS = ("exact_tests", "cdf_metric", "grouping", "proportion", "wfdr",
          "simulate", "io", "cli")
STEP_UPS = ("wfdr_reject", "rejection_threshold", "bh_reject")


class Tracer:
    """Records spans and leaf counters for the wrappers it installs."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {}  # name -> [layer, calls, seconds]
        self.counts: Counter = Counter()
        self.stats: set = set()  # distinct conditioning statistics scored
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._installed: list[tuple] = []

    def install(self, module, attr: str, layer: str, kind: str, observe=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        make = {"span": self._span, "leaf": self._leaf, "count": self._count}[kind]
        setattr(module, attr, make(fn, name, layer, observe))
        self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _span(self, fn, name, layer, observe):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name, "layer": layer,
                   "parent": stack[-1]["id"] if stack else None,
                   "start": clock(), "end": None, "covered": 0.0}
            spans.append(rec)
            stack.append(rec)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                rec["end"] = clock()
                stack.pop()
                if stack:
                    stack[-1]["covered"] += rec["end"] - rec["start"]
                if observe is not None:
                    observe(self, args, result, error)

        return wrapper

    def _leaf(self, fn, name, layer, observe):
        stack, clock = self._stack, time.perf_counter
        agg = self.leaves.setdefault(name, [layer, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                agg[1] += 1
                agg[2] += elapsed
                if stack:
                    stack[-1]["covered"] += elapsed
                if observe is not None:
                    observe(self, args, None, None)

        return wrapper

    def _count(self, fn, name, layer, observe):
        agg = self.leaves.setdefault(name, [layer, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg[1] += 1
            if observe is not None:
                observe(self, args, None, None)
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self, key: str) -> dict[str, float]:
        """Self time summed by span ``key`` ("layer" or "name")."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s[key]] = out.get(s[key], 0.0) + (s["end"] - s["start"] - s["covered"])
        for name, (layer, _, seconds) in self.leaves.items():
            k = layer if key == "layer" else name
            out[k] = out.get(k, 0.0) + seconds
        return out


def _count_call(counter_name):
    def observe(tracer, args, result, error):
        tracer.counts[counter_name] += 1
    return observe


def _binomial_stat(tracer, args, result, error):
    tracer.stats.add(("binomial", int(args[0])))


def _fet_stat(tracer, args, result, error):
    tracer.stats.add(("fet",) + args[0].as_tuple())


def _enumerated(tracer, args, result, error):
    tracer.counts["exact_tests.outcomes"] += len(args[0])


def _pi0(tracer, args, result, error):
    if error is not None:
        return
    tracer.counts["proportion.calls"] += 1
    tracer.counts["proportion.hyp_tau_evals"] += len(args[0]) * len(result.trial_values)


def _partition(tracer, args, result, error):
    if error is not None:
        # metric grouping gave up; the pipeline falls back to quantiles
        tracer.counts["grouping.fallbacks"] += 1
        tracer.counts["grouping.restarts"] += len(getattr(error, "trace", ()))
        return
    l_star = args[1] if isinstance(args[1], int) else args[1].l_star
    tracer.counts["grouping.groups"] += len(result.groups)
    tracer.counts["grouping.groups_requested"] += int(l_star)
    tracer.counts["grouping.restarts"] += result.iterations


def _parsed(tracer, args, result, error):
    if error is None:
        tracer.counts["io.rows"] += result.m


OBSERVERS = {
    "_outcome_pvalues": _enumerated,
    "binomial_null_distribution": _binomial_stat,
    "fet_null_distribution": _fet_stat,
    "estimate_pi0": _pi0,
    "group_by_statistic_quantiles": _partition,
    "group_from_distances": _partition,
    "parse_counts_csv": _parsed,
    "generate_scenario": _count_call("simulate.reps"),
    **{name: _count_call("wfdr.stepups") for name in STEP_UPS},
}


def install_probes(tracer: Tracer, package) -> None:
    """Wrap every name in ``PROBES`` on the imported ``package``."""
    for module_name, attr, layer, kind in PROBES:
        module = getattr(package, module_name)
        tracer.install(module, attr, layer, kind, OBSERVERS.get(attr))


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    layer = tracer.self_times("layer")
    named = tracer.self_times("name")
    calls = sum(tracer.leaves.get(n, [None, 0])[1]
                for n in ("exact_tests.binomial_pvalue", "exact_tests.fet_pvalue"))
    distinct = len(tracer.stats)
    c = tracer.counts
    return {
        "exact_tests.busy_s": layer.get("exact_tests", 0.0),
        "exact_tests.calls": calls,
        "exact_tests.distinct_stats": distinct,
        "exact_tests.hit_ratio": 1.0 - distinct / calls if calls else 0.0,
        "exact_tests.outcomes": tracer.counts["exact_tests.outcomes"],
        "cdf_metric.busy_s": layer.get("cdf_metric", 0.0),
        "cdf_metric.calls": tracer.leaves.get("cdf_metric.marginal_distance", [None, 0])[1],
        "grouping.busy_s": layer.get("grouping", 0.0),
        "grouping.restarts": c["grouping.restarts"],
        "grouping.groups": c["grouping.groups"],
        "grouping.groups_requested": c["grouping.groups_requested"],
        "grouping.fallbacks": c["grouping.fallbacks"],
        "proportion.busy_s": layer.get("proportion", 0.0),
        "proportion.calls": c["proportion.calls"],
        "proportion.hyp_tau_evals": c["proportion.hyp_tau_evals"],
        "wfdr.self_s": layer.get("wfdr", 0.0),
        "wfdr.stepups": c["wfdr.stepups"],
        "simulate.self_s": layer.get("simulate", 0.0),
        "simulate.reps": c["simulate.reps"],
        "io.self_s": layer.get("io", 0.0),
        "io.parse_s": named.get("io.parse_counts_csv", 0.0),
        "io.rows": c["io.rows"],
        "cli.self_s": layer.get("cli", 0.0),
        "cli.bytes_written": bytes_written,
    }
