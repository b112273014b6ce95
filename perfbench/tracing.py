"""In-memory span tracer for the traced benchmark run.

``Patches`` replaces public liesolv functions and methods with wrappers
that record a span per call: name, start, end and the enclosing span.
A module-level function is replaced in every liesolv module that holds
it, because callers look it up in their own namespace (``classify``
imports ``Envelope`` and calls ``necessary_tests`` by name).

Per span name the tracer keeps calls, inclusive seconds (outermost
occurrence only, so recursion is not counted twice) and self seconds
(duration minus the time of child spans).  Spans of the coarse layers
are also kept one by one, with their parent, for the trace file; the
hot leaves (field and PBW products, brackets, eliminator adds) are only
aggregated, which keeps memory flat.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Dict, List

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.paused = False
        self.frames: List[List[float]] = [[0.0]]     # child seconds of each open span
        self.depth: Dict[str, int] = defaultdict(int)
        self.stats: Dict[str, List[float]] = {}      # name -> [calls, inclusive_s, self_s]
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []                 # (id, parent, name, start, end, label)
        self.open_ids: List[int] = [-1]
        self.next_id = 0
        self.dropped = 0

    def wrap(self, name, fn, record=False, on_result=None, alias=None, label=None):
        """Return fn wrapped in a span called name.

        on_result(counts, args, result) adds counters; alias=(ancestor,
        counter) adds the duration to counts[counter] when the call runs
        inside an open span called ancestor.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames, depth, counts, clock = self.frames, self.depth, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            child = [0.0]
            frames.append(child)
            d = depth[name]
            depth[name] = d + 1
            if record:
                sid = self.next_id
                self.next_id += 1
                parent = self.open_ids[-1]
                self.open_ids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                depth[name] = d
                dur = t1 - t0
                frames[-1][0] += dur
                stat[0] += 1
                stat[2] += dur - child[0]
                if not d:
                    stat[1] += dur
                if alias is not None and depth[alias[0]] and not d:
                    counts[alias[1]] += dur
                if record:
                    self.open_ids.pop()
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((sid, parent, name, t0, t1, label))
                    else:
                        self.dropped += 1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def reset(self) -> None:
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()


# ----------------------------------------------------------------------
# what is wrapped
# ----------------------------------------------------------------------

def _cache_entries(counts, args, result):
    env = args[0]
    # Envelope has no public accessor for its memo tables yet.
    counts["envelope.cache_entries"] += len(env._cache) + len(env._mask_cache)


def _series_result(counts, args, result):
    counts["envelope.series.steps"] += len(result.dims) - 1
    _cache_entries(counts, args, result)


def _truthy(counter):
    def hook(counts, args, result):
        if result:
            counts[counter] += 1
    return hook


def _hit(counts, args, result):
    if result is not None:
        counts["classify.match_condition.hits"] += 1


def _attempts(counts, args, result):
    counts["families.random_instance.attempts"] += result[1]


def patch_points(mods) -> list:
    """(span name, [(owner, attribute)], wrap options) for every wrapped call."""
    E, Lg, F, A, C, O, Fam, S = (mods[k] for k in (
        "envelope", "linalg", "fields", "algebra", "classify", "ordinary",
        "families", "specfile"))
    rec = {"record": True}
    return [
        ("envelope.series", [(E.Envelope, "lie_derived_series")],
         {"record": True, "on_result": _series_result,
          "alias": ("classify.classify", "classify.oracle.s")}),
        ("envelope.sz", [(E.Envelope, "sz_nilpotency")],
         {"record": True, "on_result": _cache_entries}),
        ("envelope.bracket", [(E.Envelope, "lie"), (E.Envelope, "lie_mask")],
         {"on_result": _truthy("envelope.bracket.nonzero")}),
        ("envelope.mul", [(E.Envelope, "mul"), (E.Envelope, "mul_mask")], {}),
        ("envelope.is_nilpotent", [(E.Envelope, "is_nilpotent")], {}),
        ("linalg.add", [(Lg.Eliminator, "add_vector"), (Lg.Eliminator, "add_planes"),
                        (Lg.Eliminator, "add_mask")],
         {"on_result": _truthy("linalg.add.accepted")}),
        ("linalg.subspace", [(Lg.Subspace, "sum_intersect"), (Lg.Subspace, "sum"),
                             (Lg.Subspace, "intersect"), (Lg, "kernel"),
                             (Lg.Quotient, "__init__"), (Lg.Quotient, "project"),
                             (Lg.Quotient, "lift")], {}),
        ("linalg.to_subspace", [(Lg.Eliminator, "to_subspace")], {}),
        ("fields.mul", [(F.GF2k, "mul"), (F.RatFunc2, "mul")], {}),
        ("fields.inv", [(F.GF2k, "inv"), (F.RatFunc2, "inv")], {}),
        ("fields.extend", [(F.GF2k, "extend"), (F.RatFunc2, "extend")], rec),
        ("algebra.bracket", [(A.RestrictedLieAlgebra, "bracket")], {}),
        ("algebra.restricted_closure", [(A.RestrictedLieAlgebra, "restricted_closure")], rec),
        ("algebra.is_2nilpotent_ideal", [(A.RestrictedLieAlgebra, "is_2nilpotent_ideal")], rec),
        ("algebra.quotient", [(A.RestrictedLieAlgebra, "quotient")], rec),
        ("algebra.check_axioms", [(A.RestrictedLieAlgebra, "check_axioms")], rec),
        ("classify.classify", [(C, "classify")], rec),
        ("classify.necessary_tests", [(C, "necessary_tests")], rec),
        ("classify.nilpotent_core", [(C, "nilpotent_core")], rec),
        ("classify.match_condition", [(C, "match_condition")],
         {"record": True, "on_result": _hit}),
        ("classify.verify_verdict", [(C, "verify_verdict")], rec),
        ("ordinary.descent", [(O, "descent_abelian_codim1")], rec),
        ("ordinary.corollary_classify", [(O, "corollary_classify")], rec),
        ("ordinary.mul", [(O.UEnvelope, "mul")], {}),
        ("families.random_instance", [(Fam, "random_instance")],
         {"record": True, "on_result": _attempts}),
        ("specfile.parse_spec", [(S, "parse_spec")], rec),
        ("specfile.serialize", [(S, "serialize")], rec),
    ]


class Patches:
    """Installs the wrappers of patch_points and restores the originals."""

    def __init__(self, tracer: Tracer, mods: dict):
        self.tracer = tracer
        self.points = patch_points(mods)
        self.saved: List[tuple] = []

    def install(self) -> None:
        for name, targets, opts in self.points:
            for owner, attr in targets:
                orig = owner.__dict__[attr]
                wrapped = self.tracer.wrap(name, orig, **opts)
                holders = [owner] if isinstance(owner, type) else [
                    mod for mod in list(sys.modules.values())
                    if getattr(mod, "__name__", "").startswith("liesolv")
                    and getattr(mod, attr, None) is orig]
                for holder in holders:
                    self.saved.append((holder, attr, holder.__dict__[attr]))
                    setattr(holder, attr, wrapped)

    def remove(self) -> None:
        while self.saved:
            owner, attr, orig = self.saved.pop()
            setattr(owner, attr, orig)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

LAYERS = ("envelope", "linalg", "fields", "algebra", "classify", "ordinary",
          "families", "specfile")

# "<span>.calls", "<span>.s" (inclusive) and "<span>.self_s" read the span
# statistics; the names in COUNTERS read counters, and those in FRACTIONS
# divide a counter by the calls of a span.
SPAN_METRICS = [
    "envelope.series.s", "envelope.bracket.calls", "envelope.bracket.self_s",
    "envelope.mul.calls", "envelope.mul.self_s", "envelope.sz.s",
    "envelope.is_nilpotent.calls",
    "linalg.add.calls", "linalg.add.self_s", "linalg.subspace.self_s", "linalg.to_subspace.s",
    "fields.mul.calls", "fields.mul.self_s", "fields.inv.calls", "fields.extend.s",
    "algebra.bracket.calls", "algebra.bracket.self_s", "algebra.restricted_closure.s",
    "algebra.is_2nilpotent_ideal.s", "algebra.quotient.s", "algebra.check_axioms.s",
    "classify.necessary_tests.s", "classify.nilpotent_core.s", "classify.match_condition.s",
    "classify.verify_verdict.s",
    "ordinary.descent.s", "ordinary.corollary_classify.s", "ordinary.mul.calls",
    "families.random_instance.s", "specfile.parse_spec.s", "specfile.serialize.s",
]
COUNTERS = {"envelope.series.steps": "count", "envelope.cache_entries": "count",
            "classify.oracle.s": "s", "families.random_instance.attempts": "count"}
FRACTIONS = {
    "envelope.bracket.nonzero_frac": ("envelope.bracket.nonzero", "envelope.bracket"),
    "linalg.add.accepted_frac": ("linalg.add.accepted", "linalg.add"),
    "classify.match_condition.hit_frac": ("classify.match_condition.hits",
                                          "classify.match_condition"),
}
_FIELDS = {"calls": 0, "s": 1, "self_s": 2}

INSTANCE_SPAN = "bench.instance"
OVERHEAD = "trace.overhead_s"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric of a traced run with its unit."""
    units = {name: "count" if name.endswith(".calls") else "s" for name in SPAN_METRICS}
    units.update(COUNTERS)
    units.update(dict.fromkeys(FRACTIONS, "frac"))
    units.update({f"share.{layer}": "frac" for layer in LAYERS + ("bench",)})
    units[OVERHEAD] = "s"
    return units


def layer_metrics(setup: dict, run: dict, passes: int) -> Dict[str, float]:
    """Per-layer metrics of one set-up plus one mean pass of the workload."""
    zero = [0, 0.0, 0.0]
    stats = {k: [a + b / passes for a, b in zip(setup["stats"].get(k, zero),
                                               run["stats"].get(k, zero))]
             for k in set(setup["stats"]) | set(run["stats"])}
    counts = {k: setup["counts"].get(k, 0.0) + run["counts"].get(k, 0.0) / passes
              for k in set(setup["counts"]) | set(run["counts"])}
    out = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        out[name] = stats.get(span, zero)[_FIELDS[field]]
    for name in COUNTERS:
        out[name] = counts.get(name, 0.0)
    for name, (counter, span) in FRACTIONS.items():
        calls = stats.get(span, zero)[0]
        out[name] = counts.get(counter, 0.0) / calls if calls else 0.0
    return out


def layer_shares(run: dict) -> Dict[str, float]:
    """Each layer's self time as a share of the time spent inside instance calls."""
    stats = run["stats"]
    total = stats.get(INSTANCE_SPAN, [0, 0.0, 0.0])[1]
    shares = {}
    for layer in LAYERS:
        self_s = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
        shares[f"share.{layer}"] = self_s / total if total else 0.0
    shares["share.bench"] = stats.get(INSTANCE_SPAN, [0, 0.0, 0.0])[2] / total if total else 0.0
    return shares
