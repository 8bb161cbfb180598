"""Per-layer tracing of synclcs from outside the library.

`Tracer.install` replaces selected functions with timing or counting
wrappers, in every `synclcs` module that binds them (a name imported into
several modules is patched in each), and `Tracer.uninstall` puts the
originals back.  Each timed call records a span: name, entry, parent span,
start and end.  Spans stay in memory; a layer's self time is the sum of
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer name) of every timed function.  Private helpers
# are wrapped where they are the only boundary of a stage.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "_load_system", "cli.load_system"),
    ("cli", "_emit", "cli.emit"),
    ("system", "validate_document", "system.validate_document"),
    ("system", "row_solutions", "system.row_solutions"),
    ("zp", "is_prime", "zp.is_prime"),
    ("zp", "gauss_solve", "zp.gauss_solve"),
    ("games", "build_synclcs_game", "games.build_synclcs_game"),
    ("games", "find_perfect_deterministic", "games.find_perfect_deterministic"),
    ("games", "best_deterministic_strategy", "games.best_deterministic_strategy"),
    ("graphs", "build_game_graph", "graphs.build_game_graph"),
    ("graphs", "_wl_refine", "graphs.wl_refine"),
    ("graphs", "isomorphism_search", "graphs.isomorphism_search"),
    ("graphs", "translate_isomorphism", "graphs.translate_isomorphism"),
    ("group", "build_presentation", "group.build_presentation"),
    ("group", "relation_residuals", "group.relation_residuals"),
    ("matops", "frob", "matops.frob"),
    ("reps", "load_representation", "reps.load_representation"),
    ("reps", "run_check_suite", "reps.run_check_suite"),
    ("reps", "_assemble_family", "reps.assemble_family"),
    ("reps", "f_projection", "reps.f_projection"),
    ("reps", "projection_family_checks", "reps.projection_family_checks"),
    ("reps", "phi_welldefinedness_checks", "reps.phi_welldefinedness_checks"),
    ("reps", "check_mutual_inverse", "reps.check_mutual_inverse"),
    ("reps", "iso_generator_images", "reps.iso_generator_images"),
    ("reps", "iso_partition_checks", "reps.iso_partition_checks"),
    ("reps", "check_iso_relations", "reps.check_iso_relations"),
    ("reps", "psi_iso_consistency_checks", "reps.psi_iso_consistency_checks"),
)

# (module, class, method, counter) of hot methods that are only counted:
# a span per call would cost more than the call itself.
COUNTERS = (
    ("cyclotomic", "Cyclotomic", "__init__", "cyclotomic.new"),
    ("cyclotomic", "Cyclotomic", "__mul__", "cyclotomic.mul"),
    ("cyclotomic", "Cyclotomic", "__rmul__", "cyclotomic.mul"),
    ("games", "SynchronousGame", "wins", "games.rule_evals"),
)


def _graph_counts(counts, args, result):
    d = result.order()
    counts["graphs.build_game_graph.vertices"] += d
    counts["graphs.build_game_graph.edges"] += result.edge_count()
    counts["graphs.build_game_graph.pairs"] += d * (d - 1) // 2


def _search_counts(counts, args, result):
    counts["graphs.isomorphism_search.nodes"] += result.nodes
    counts["graphs.isomorphism_search.vertices"] += args[0].order()


def _wl_counts(counts, args, result):
    if result is not None:
        counts["graphs.wl_refine.rounds"] += result[2]


# Counts read from return values, by layer name.
RESULT_COUNTS = {
    "system.row_solutions": lambda c, a, r: c.update({"system.row_solutions.vectors": len(r)}),
    "graphs.build_game_graph": _graph_counts,
    "graphs.isomorphism_search": _search_counts,
    "graphs.wl_refine": _wl_counts,
    "group.build_presentation": lambda c, a, r: c.update({"group.relations": len(r.relations)}),
    "reps.assemble_family": lambda c, a, r: c.update({"reps.assemble_family.entries": len(r.entries)}),
    "reps.run_check_suite": lambda c, a, r: c.update({"reps.records": len(r)}),
}

class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, entry, parent, start, end]
        self.counts: Counter = Counter()
        self.entry = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        on_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, self.entry, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                span[4] = clock()
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "synclcs" or k.startswith("synclcs."))]
        for module, attr, name in SPANS:
            original = getattr(sys.modules[f"synclcs.{module}"], attr)
            wrapper = self._timed(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for module, cls, method, key in COUNTERS:
            owner = getattr(sys.modules[f"synclcs.{module}"], cls)
            self._patch(owner, method, self._counted(key, vars(owner)[method]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for k, (name_id, _, _, start, end) in enumerate(self.spans):
            totals[self.names[name_id]] += (end - start) - child[k]
        return totals

    def metrics(self, layer_metrics, emitted_bytes: int, overhead_frac: float) -> dict:
        """Values of the (name, unit) pairs in `layer_metrics`; a layer the
        pass never reached reads 0."""
        values = dict(self.counts)
        for name, total in self.self_times().items():
            values[f"{name}.self_s"] = total
        searched = values.get("graphs.isomorphism_search.vertices", 0)
        values["graphs.isomorphism_search.nodes_per_vertex"] = (
            values.get("graphs.isomorphism_search.nodes", 0) / searched if searched else 0.0)
        values["cli.emit.bytes"] = emitted_bytes
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in layer_metrics}

    def spans_json(self) -> dict:
        return {"columns": ["name", "entry", "parent", "start", "end"],
                "names": self.names, "spans": self.spans}
