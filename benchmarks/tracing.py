"""Outside-in tracing: wrap syrdyn's layer boundaries from the benchmark.

Nothing in syrdyn changes.  Module-level functions are replaced by span
recorders in the namespace they are looked up from (the CLI's imports, plus
the internal call sites listed in SITES), and four hot methods by call
counters.  A span is (pass id, span id, parent span id, name, start, end);
a counted method call is attributed to the innermost open span, so "apply
calls inside iterate" and "preimage calls inside check_power_bound" are
measured where the work happens.  When a pass ends its spans are folded
into per-name totals; the spans of the first KEPT_PASSES passes stay in
memory until write(), so memory stays bounded however long the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name, per-call counts taken from the result)
SITES = (
    ("syrdyn.cli", "main", "cli.main", None),
    ("syrdyn.cli", "iterate", "trajectory.iterate",
     lambda r: {"trajectory.iterate.orbit_points": len(r.steps)}),
    ("syrdyn.cli", "find_cycles", "trajectory.find_cycles", None),
    ("syrdyn.cli", "partition", "partition.partition",
     lambda r: {"partition.points": r.domain_bound}),
    ("syrdyn.cli", "build_forest", "measure.build_forest",
     lambda r: {"measure.forest_nodes": len(r.covered)}),
    ("syrdyn.cli", "assign_measure", "measure.assign_measure", None),
    ("syrdyn.cli", "check_power_bound", "measure.check_power_bound",
     lambda r: {"measure.comparisons": r.comparisons}),
    ("syrdyn.cli", "chain_of", "chains.chain_of", None),
    ("syrdyn.cli", "build_preimage_tree", "chains.build_preimage_tree",
     lambda r: {"chains.tree_nodes": len(r.nodes)}),
    ("syrdyn.cli", "search_family_witness", "chains.search_family_witness", None),
    ("syrdyn.cli", "verify_family_identity", "chains.verify_family_identity", None),
    ("syrdyn.cli", "verify_family_connection", "chains.verify_family_connection", None),
    # internal call sites the CLI namespace does not see
    ("syrdyn.trajectory", "iterate", "trajectory.iterate",       # inside find_cycles
     lambda r: {"trajectory.iterate.orbit_points": len(r.steps)}),
    ("syrdyn.partition", "iterate", "trajectory.iterate",        # partition's exact fallback
     lambda r: {"trajectory.iterate.orbit_points": len(r.steps), "partition.iterate_fallbacks": 1}),
    ("syrdyn.measure", "measure_of", "measure.measure_of", None),  # inside check_power_bound
    ("syrdyn.chains", "family_of", "chains.family_of", None),      # inside chain_of
)

# (module, class, method, counter name): counted, not spanned
METHODS = (
    ("syrdyn.maps", "MapDescriptor", "apply", "maps.apply"),
    ("syrdyn.maps", "MapDescriptor", "preimage", "maps.preimage"),
    ("syrdyn.measure", "MeasureValue", "__init__", "measure.MeasureValue"),
    ("syrdyn.numeric", "DyadicRational", "__init__", "numeric.DyadicRational"),
)

KEPT_PASSES = 20  # passes whose raw spans write() saves

VERIFY_SPANS = ("chains.search_family_witness", "chains.verify_family_identity",
                "chains.verify_family_connection")

# per-layer metric -> unit, in report order
UNITS = {
    "maps.apply.calls": "count",
    "maps.preimage.calls": "count",
    "trajectory.iterate.calls": "count",
    "trajectory.iterate.self_s": "s",
    "trajectory.iterate.orbit_points": "count",
    "trajectory.apply_per_start": "ratio",
    "trajectory.find_cycles.s": "s",
    "partition.partition.s": "s",
    "partition.points": "count",
    "partition.apply_per_point": "ratio",
    "partition.iterate_fallbacks": "count",
    "measure.build_forest.s": "s",
    "measure.forest_nodes": "count",
    "measure.assign_measure.s": "s",
    "measure.check_power_bound.self_s": "s",
    "measure.measure_of.calls": "count",
    "measure.measure_of.s": "s",
    "measure.comparisons": "count",
    "measure.MeasureValue.constructions": "count",
    "measure.preimage_per_comparison": "ratio",
    "numeric.DyadicRational.constructions": "count",
    "chains.chain_of.calls": "count",
    "chains.chain_of.s": "s",
    "chains.family_of.calls": "count",
    "chains.build_preimage_tree.s": "s",
    "chains.tree_nodes": "count",
    "chains.verify.s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []      # the open pass: [span id, parent id, name, start, end]
        self.stack = []      # open spans, innermost last
        self.counts = defaultdict(int)  # (counter, innermost span name or None) -> n
        self.pass_id = 0
        self.passes = {}     # pass id -> (calls, inclusive seconds, self seconds), each by span name
        self.kept = []       # [pass id, *span] for the first KEPT_PASSES passes
        self._undo = []

    @contextlib.contextmanager
    def tracing(self, count_methods: bool):
        """Trace one pass: patch, run the body, unpatch, fold the pass's spans."""
        self.pass_id += 1
        self.install(count_methods)
        try:
            yield
        finally:
            self.uninstall()
        self.end_pass()

    def install(self, count_methods: bool) -> None:
        """Patch every site; method counters too when count_methods is set."""
        for mod, attr, name, measure in SITES:
            module = importlib.import_module(mod)
            # span-only passes skip the per-call counts: their cost would land in the parent's self time
            measure = measure if count_methods else None
            self._patch(module, attr, self._spanned(getattr(module, attr), name, measure))
        if count_methods:
            for mod, cls_name, attr, name in METHODS:
                cls = getattr(importlib.import_module(mod), cls_name)
                self._patch(cls, attr, self._counted(getattr(cls, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name, measure):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            # the clock is read first and last, so the wrapper's own bookkeeping
            # counts to this span rather than to its parent's self time
            t0 = clock()
            rec = [len(spans), stack[-1][0] if stack else None, name, t0, 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if measure is not None:
                for key, n in measure(result).items():
                    counts[key, None] += n
            return result

        return wrapper

    def _counted(self, fn, name):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name, stack[-1][2] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def end_pass(self) -> None:
        """Fold the open pass's spans into per-name calls, inclusive and self seconds."""
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, inclusive, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, _parent, name, t0, t1 in self.spans:
            calls[name] += 1
            inclusive[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
        self.passes[self.pass_id] = (calls, inclusive, own)
        if len(self.passes) <= KEPT_PASSES:
            self.kept += [[self.pass_id, *span] for span in self.spans]
        self.spans.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer: Tracer, count_pass: int, output_bytes: int, overhead_s: float) -> dict:
    """Every per-layer metric: counts from the counting pass, times as medians over the others."""
    counts = tracer.counts

    def total(key):
        return sum(n for (k, _w), n in counts.items() if k == key)

    def attributed(key, where):
        return counts.get((key, where), 0)

    calls = tracer.passes[count_pass][0]
    per_pass = [folded[1:] for p, folded in tracer.passes.items() if p != count_pass]

    def median_of(pick):
        return statistics.median(pick(inc, own) for inc, own in per_pass) if per_pass else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    points = total("partition.points")
    comparisons = total("measure.comparisons")
    values = {
        "maps.apply.calls": total("maps.apply"),
        "maps.preimage.calls": total("maps.preimage"),
        "trajectory.iterate.calls": calls["trajectory.iterate"],
        "trajectory.iterate.self_s": median_of(lambda inc, own: own["trajectory.iterate"]),
        "trajectory.iterate.orbit_points": total("trajectory.iterate.orbit_points"),
        "trajectory.apply_per_start": ratio(attributed("maps.apply", "trajectory.iterate"),
                                            calls["trajectory.iterate"]),
        "trajectory.find_cycles.s": median_of(lambda inc, own: inc["trajectory.find_cycles"]),
        "partition.partition.s": median_of(lambda inc, own: inc["partition.partition"]),
        "partition.points": points,
        "partition.apply_per_point": ratio(attributed("maps.apply", "partition.partition"), points),
        "partition.iterate_fallbacks": total("partition.iterate_fallbacks"),
        "measure.build_forest.s": median_of(lambda inc, own: inc["measure.build_forest"]),
        "measure.forest_nodes": total("measure.forest_nodes"),
        "measure.assign_measure.s": median_of(lambda inc, own: inc["measure.assign_measure"]),
        "measure.check_power_bound.self_s": median_of(lambda inc, own: own["measure.check_power_bound"]),
        "measure.measure_of.calls": calls["measure.measure_of"],
        "measure.measure_of.s": median_of(lambda inc, own: inc["measure.measure_of"]),
        "measure.comparisons": comparisons,
        "measure.MeasureValue.constructions": total("measure.MeasureValue"),
        "measure.preimage_per_comparison": ratio(
            attributed("maps.preimage", "measure.check_power_bound"), comparisons),
        "numeric.DyadicRational.constructions": total("numeric.DyadicRational"),
        "chains.chain_of.calls": calls["chains.chain_of"],
        "chains.chain_of.s": median_of(lambda inc, own: inc["chains.chain_of"]),
        "chains.family_of.calls": calls["chains.family_of"],
        "chains.build_preimage_tree.s": median_of(lambda inc, own: inc["chains.build_preimage_tree"]),
        "chains.tree_nodes": total("chains.tree_nodes"),
        "chains.verify.s": median_of(lambda inc, own: sum(inc[n] for n in VERIFY_SPANS)),
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": median_of(lambda inc, own: own["cli.main"]),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
