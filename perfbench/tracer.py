"""Outside-in tracing: wrap sumsetlab's public functions and record spans.

Every wrapped call becomes a span (name, start, end, parent span, request).
Spans stay in memory and are written as JSONL when the pass ends.  The two
functions called hundreds of thousands of times per request
(``SemigroupOracle.contains`` and ``solve_in_lattice``) are timed and
counted but not stored one by one: their totals are in the aggregate record
that closes the JSONL file.  A span's self time is its duration minus the
time its child spans cover; a layer is a module, and its self time is the
sum over its functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "reporting", "lattice", "polytope", "kernels", "sumsets",
          "khovanskii", "structure", "circuits")

# module -> public functions wrapped wherever they are imported
TARGETS = {
    "cli": ("main", "build_parser", "load_config"),
    "reporting": ("build_analysis", "geometry_section", "khovanskii_section",
                  "structure_section", "growth_report", "circuits_report",
                  "triangulate_report", "bounds_report", "render_int",
                  "serialize"),
    "lattice": ("normalize_config", "solve_in_lattice"),
    "polytope": ("convex_hull", "volumes", "triangulate_from_origin",
                 "facet_height_ratio", "count_dilate_points"),
    "kernels": ("sumset_step", "array_to_points", "box_count", "box_points"),
    "sumsets": ("iter_sumsets", "sumset_iterate"),
    "khovanskii": ("minimal_obstructions", "sumset_size_formula",
                   "khovanskii_polynomial", "khovanskii_threshold",
                   "khovanskii_bounds"),
    "structure": ("structure_threshold", "structure_rhs",
                  "verify_structure_equation", "structure_bounds"),
    "circuits": ("circuits",),
}
UNRECORDED = {"lattice.solve_in_lattice", "sumsets.SemigroupOracle.contains"}
GENERATORS = {"sumsets.iter_sumsets"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [child seconds, span id] per open call
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.request = None
        self._next_id = 0

    def timed(self, name, record, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        stack = self.stack
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            parent = None
            if stack:
                stack[-1][0] += dur
                parent = stack[-1][1]
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if record:
                self.spans.append((span_id, name, start, end, parent, self.request))

    def wrap(self, name, fn, before=None, after=None):
        record = name not in UNRECORDED
        timed = self.timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            result = timed(name, record, fn, args, kwargs)
            if after:
                after(self.counts, token, args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Time each next() of the generator ``fn`` returns, as one span."""
        timed = self.timed
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def levels():
                while True:
                    try:
                        item = timed(name, True, next, (gen,), {})
                    except StopIteration:
                        return
                    counts["sumsets.iter_levels"] += 1
                    yield item

            return levels()

        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
            fh.write(json.dumps({"aggregate": {
                name: {"calls": c, "inclusive_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())},
                "counts": dict(self.counts)}) + "\n")

    def below_entry_seconds(self) -> float:
        """Time in spans beneath the CLI entry point: cli.main minus its self time."""
        _, inclusive, self_s = self.stats.get("cli.main", [0, 0.0, 0.0])
        return inclusive - self_s

    def metrics(self) -> dict:
        """Per-layer metrics by group: group -> {name: (value, unit, better)}.

        This is the one list of per-layer names, units and directions;
        BENCHMARK.json's per_layer repeats it, and run.py checks that the two
        agree.  META.json's layer_table refers to the groups by name.
        """
        stats, c = self.stats, self.counts

        def calls(name):
            return stats.get(name, [0, 0.0, 0.0])[0]

        def secs(*names):
            return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

        def timed(*names):
            return secs(*names), "s", "lower"

        def count(value):
            return value, "count", "lower"

        def share(num, den):
            return (num / den if den else 0.0), "ratio", "higher"

        return {
            "structure and membership": {
                "structure.threshold_s": timed("structure.structure_threshold"),
                "structure.rhs_s": timed("structure.structure_rhs"),
                "structure.levels_checked": count(c["structure.levels_checked"]),
                "structure.rhs_points": count(c["structure.rhs_points"]),
                "sumsets.contains_calls": count(calls("sumsets.SemigroupOracle.contains")),
                "sumsets.contains_s": timed("sumsets.SemigroupOracle.contains"),
                "sumsets.oracle_builds": count(calls("sumsets.SemigroupOracle.__init__")),
                "lattice.solve_in_lattice_calls": count(calls("lattice.solve_in_lattice")),
            },
            "sumsets and kernels": {
                "kernels.sumset_step_s": timed("kernels.sumset_step"),
                "kernels.sumset_step_calls": count(calls("kernels.sumset_step")),
                "kernels.sumset_rows_in": count(c["kernels.sumset_rows_in"]),
                "kernels.sumset_rows_out": count(c["kernels.sumset_rows_out"]),
                "kernels.sumset_dedup_yield": share(
                    c["kernels.sumset_rows_out"], c["kernels.sumset_rows_in"]),
                "kernels.array_to_points_s": timed("kernels.array_to_points"),
                "kernels.array_to_points_rows": count(c["kernels.array_to_points_rows"]),
                "sumsets.iter_levels": count(c["sumsets.iter_levels"]),
                "sumsets.iter_s": timed("sumsets.iter_sumsets"),
                "sumsets.iterate_s": timed("sumsets.sumset_iterate"),
            },
            "obstructions and polynomial": {
                "khovanskii.obstruction_scan_s": timed("khovanskii.minimal_obstructions"),
                "khovanskii.obstruction_elements": count(c["khovanskii.obstruction_elements"]),
                "khovanskii.obstruction_weight_scanned": count(
                    c["khovanskii.obstruction_weight_scanned"]),
                "khovanskii.obstruction_truncated": count(c["khovanskii.obstruction_truncated"]),
                "khovanskii.size_formula_calls": count(calls("khovanskii.sumset_size_formula")),
                "khovanskii.size_formula_s": timed("khovanskii.sumset_size_formula"),
                "khovanskii.polynomial_s": timed("khovanskii.khovanskii_polynomial"),
                "khovanskii.threshold_s": timed("khovanskii.khovanskii_threshold"),
            },
            "dilate scans": {
                "polytope.dilate_scan_s": timed("polytope.count_dilate_points"),
                "polytope.dilate_box_points": count(c["polytope.dilate_box_points"]),
                "polytope.dilate_points": count(c["polytope.dilate_points"]),
                "polytope.dilate_yield": share(
                    c["polytope.dilate_points"], c["polytope.dilate_box_points"]),
                "kernels.box_scan_s": timed("kernels.box_count", "kernels.box_points"),
            },
            "geometry, CLI and rendering": {
                "polytope.hull_s": timed("polytope.convex_hull"),
                "polytope.hull_calls": count(calls("polytope.convex_hull")),
                "polytope.hull_cache_hit_ratio": share(
                    c["polytope.hull_cache_hits"], calls("polytope.convex_hull")),
                "polytope.volumes_s": timed("polytope.volumes"),
                "polytope.triangulate_s": timed("polytope.triangulate_from_origin"),
                "circuits.circuits_s": timed("circuits.circuits"),
                "circuits.count": count(c["circuits.count"]),
                "lattice.normalize_s": timed("lattice.normalize_config"),
                "cli.load_config_s": timed("cli.load_config"),
                "reporting.render_int_s": timed("reporting.render_int"),
                "reporting.big_int_digits": count(c["reporting.big_int_digits"]),
                "reporting.serialize_s": timed("reporting.serialize"),
                "reporting.output_bytes": (c["reporting.output_bytes"], "bytes", "lower"),
            },
            "self time": {
                f"{layer}.self_s": (
                    sum(s for name, (_, _, s) in stats.items()
                        if name.split(".", 1)[0] == layer), "s", "lower")
                for layer in LAYERS
            },
        }


def _hull_hit(polytope):
    cache = getattr(polytope, "_hull_cache", None)

    def before(args):
        config = args[0]
        return cache is not None and (config.points, config.dim) in cache

    def after(counts, hit, args, result):
        counts["polytope.hull_cache_hits"] += hit

    return before, after


def _dilate_after(counts, token, args, result):
    config, n = args[0], args[1]
    cells = 1
    for k in range(config.dim):
        column = [p[k] for p in config.points]
        cells *= n * (max(column) - min(column)) + 1
    counts["polytope.dilate_box_points"] += cells
    counts["polytope.dilate_points"] += result if isinstance(result, int) else len(result)


def _add(counter_name, measure):
    def after(counts, token, args, result):
        counts[counter_name] += measure(args, result)

    return after


def _obstructions_after(counts, token, args, result):
    counts["khovanskii.obstruction_elements"] += len(result.elements)
    counts["khovanskii.obstruction_weight_scanned"] += result.weight_scanned
    counts["khovanskii.obstruction_truncated"] += result.status == "truncated"


def _sumset_step_after(counts, token, args, result):
    counts["kernels.sumset_rows_in"] += len(args[0]) * len(args[1])
    counts["kernels.sumset_rows_out"] += len(result)


def _render_int_after(counts, token, args, result):
    if isinstance(result, dict):
        counts["reporting.big_int_digits"] += result["digits"]


def install(tracer: Tracer) -> None:
    """Wrap every target function in every sumsetlab module that holds it."""
    import sumsetlab

    modules = {name: importlib.import_module(f"sumsetlab.{name}")
               for name in [m.name for m in pkgutil.iter_modules(sumsetlab.__path__)]}
    hooks = {
        "polytope.convex_hull": _hull_hit(modules["polytope"]),
        "polytope.count_dilate_points": (None, _dilate_after),
        "kernels.sumset_step": (None, _sumset_step_after),
        "kernels.array_to_points": (None, _add("kernels.array_to_points_rows",
                                               lambda a, r: len(r))),
        "khovanskii.minimal_obstructions": (None, _obstructions_after),
        "structure.structure_threshold": (None, _add("structure.levels_checked",
                                                     lambda a, r: r.window_top)),
        "structure.structure_rhs": (None, _add("structure.rhs_points",
                                               lambda a, r: len(r))),
        "circuits.circuits": (None, _add("circuits.count", lambda a, r: len(r))),
        "reporting.render_int": (None, _render_int_after),
        "reporting.serialize": (None, _add("reporting.output_bytes",
                                           lambda a, r: len(r.encode()))),
    }
    replace = {}
    for layer, names in TARGETS.items():
        for fname in names:
            full = f"{layer}.{fname}"
            fn = getattr(modules[layer], fname)
            if full in GENERATORS:
                replace[fn] = tracer.wrap_generator(full, fn)
            else:
                replace[fn] = tracer.wrap(full, fn, *hooks.get(full, (None, None)))
    for module in [sumsetlab, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if callable(value) and not isinstance(value, type):
                wrapper = replace.get(value)
                if wrapper is not None:
                    setattr(module, attr, wrapper)
    oracle = modules["sumsets"].SemigroupOracle
    oracle.contains = tracer.wrap("sumsets.SemigroupOracle.contains", oracle.contains)
    oracle.__init__ = tracer.wrap("sumsets.SemigroupOracle.__init__", oracle.__init__)
