"""Per-layer tracing of newtonspec from outside the package.

``Tracer.install`` replaces the public functions and methods of the nine
modules with timing wrappers, patching every module-level binding of
each function (``build_model`` is bound in ``cli``, ``spectrum`` and
``invariants`` as well as in ``polytope``) and the class attribute of
each method.  ``Tracer.uninstall`` puts the originals back.

A wrapper measures its call with ``perf_counter_ns`` and charges the
duration to the caller's frame, so that self time is a frame's duration
minus that of its traced children.  Every call is aggregated per
(function, calling function) as count, total time and self time; calls
of the functions outside ``HOT`` are also kept as spans (request, id,
parent id, name, start, end).  Functions in ``HOT`` run about 10^5 times
or more in a pass and are only aggregated, so the trace does not grow
with them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

PACKAGE = "newtonspec"

# time metric -> traced functions, named "<module>.<qualname>"
TIME_METRICS = {
    "cli.self_s": ["cli.main"],
    "poly.parse_s": ["poly.parse_polynomial", "poly.parse_monomial"],
    "invariants.self_s": ["invariants.run_checks"],
    "polytope.build_model_s": ["polytope.build_model"],
    "polytope.census_s": [
        "polytope.PolytopeModel.lattice_count",
        "polytope.PolytopeModel.value_histogram",
        "polytope.PolytopeModel.points_by_value",
    ],
    "polytope.box_points_s": ["polytope.PolytopeModel.box_points"],
    "polytope.newton_eval_s": [
        "polytope.PolytopeModel.newton_value",
        "polytope.PolytopeModel.same_cone",
        "polytope.PolytopeModel.smallest_cone",
    ],
    "polytope.volume_s": ["polytope.PolytopeModel.normalized_volume"],
    "linalg.s": [
        "linalg.rref", "linalg.rank", "linalg.nullspace_vector",
        "linalg.solve_unique", "linalg.int_det",
    ],
    "spectrum.oracle_s": ["spectrum.toric_spectrum_oracle"],
    "spectrum.box_route_s": ["spectrum.toric_spectrum", "spectrum.toric_spectrum_box"],
    "spectrum.restrictions_s": ["spectrum.spectrum_at_infinity", "spectrum.milnor_number"],
    "graded.koszul_s": ["graded.koszul_hilbert_series"],
    "graded.basis_s": ["graded.quotient_basis", "graded.leading_classes"],
    "graded.table_s": [
        "graded.product_table", "graded.reduce_product", "graded.b_product",
        "graded.multiply_in_basis", "graded.DegreeBlock.reduce",
    ],
    "ehrhart.delta_counts_s": [
        "ehrhart.delta_from_counts", "ehrhart.delta_from_spectrum",
        "ehrhart.ehrhart_polynomial",
    ],
    "ehrhart.orbifold_s": [
        "ehrhart.orbifold_dimensions", "ehrhart.orbifold_contributions",
        "ehrhart.box_point_union", "ehrhart.hodge_deligne",
    ],
    "series.s": [
        "series.SpectrumSeries.__init__", "series.SpectrumSeries.__add__",
        "series.SpectrumSeries.__sub__", "series.SpectrumSeries.__neg__",
        "series.SpectrumSeries.__mul__", "series.SpectrumSeries.shift",
        "series.SpectrumSeries.mul_one_minus_z_pow", "series.SpectrumSeries.reflect",
        "series.SpectrumSeries.truncate_above", "series.SpectrumSeries.restrict_below",
        "series.z_minus_one_pow", "series.one_minus_z_pow",
    ],
}

# count metric -> functions whose calls it counts
COUNT_METRICS = {
    "polytope.build_model_calls": TIME_METRICS["polytope.build_model_s"],
    "polytope.census_calls": TIME_METRICS["polytope.census_s"],
    "polytope.newton_eval_calls": TIME_METRICS["polytope.newton_eval_s"],
    "linalg.nullspace_calls": ["linalg.nullspace_vector"],
    "spectrum.oracle_calls": TIME_METRICS["spectrum.oracle_s"],
    "series.ops": TIME_METRICS["series.s"],
}

# count metric -> functions whose returned lists it sums the lengths of
ITEM_METRICS = {
    "polytope.box_points_found": ["polytope.PolytopeModel.box_points"],
}

HOT = frozenset(
    [name for metric in ("polytope.newton_eval_s", "polytope.box_points_s",
                         "polytope.volume_s", "linalg.s", "series.s")
     for name in TIME_METRICS[metric]]
    + ["graded.reduce_product", "graded.b_product", "graded.multiply_in_basis",
       "graded.DegreeBlock.reduce"]
)

TRACED = [name for names in TIME_METRICS.values() for name in names]

METRIC_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **{name: "count" for name in ITEM_METRICS},
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and per-(function, caller) aggregates in memory."""

    def __init__(self):
        self.request = 0                 # index of the CLI call in progress
        self._stack = []                 # frames: [name, child_ns, span id]
        self._ids = itertools.count(1)
        self.spans = []                  # (request, id, parent id, name, start_ns, end_ns)
        self.aggregates = {}             # (name, caller) -> [count, total_ns, self_ns, items]
        self._patched = []               # (owner, attribute, original)

    def _wrap(self, name, fn):
        stack, spans, aggregates, ids = self._stack, self.spans, self.aggregates, self._ids
        clock = time.perf_counter_ns
        keep_span = name not in HOT
        count_items = any(name in names for names in ITEM_METRICS.values())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if caller is not None:
                    caller[1] += duration
                key = (name, caller[0] if caller else None)
                rec = aggregates.get(key)
                if rec is None:
                    rec = aggregates[key] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if keep_span:
                    spans.append((self.request, frame[2], caller[2] if caller else None,
                                  name, start, end))
            if count_items:
                rec[3] += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in TRACED:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if len(path) == 2:
                cls = getattr(module, path[0])
                original = cls.__dict__[path[1]]
                self._patch(cls, path[1], original, self._wrap(name, original))
                continue
            original = getattr(module, path[0])
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _sum(self, names, field) -> int:
        wanted = set(names)
        return sum(rec[field] for (name, _), rec in self.aggregates.items() if name in wanted)

    def layer_metrics(self) -> dict:
        """Per-layer self times in seconds and work counts."""
        out = {m: self._sum(names, 2) / 1e9 for m, names in TIME_METRICS.items()}
        out.update({m: self._sum(names, 0) for m, names in COUNT_METRICS.items()})
        out.update({m: self._sum(names, 3) for m, names in ITEM_METRICS.items()})
        return out

    def dump(self) -> dict:
        """Spans and aggregates in a JSON-ready form."""
        return {
            "span_fields": ["request", "id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "aggregates": [
                {"name": name, "caller": caller, "count": rec[0],
                 "total_s": rec[1] / 1e9, "self_s": rec[2] / 1e9}
                for (name, caller), rec in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
        }
