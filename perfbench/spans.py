"""Spans around the public functions of each ``susplink`` layer.

The traced run replaces every module binding of the functions in ``LAYERS``
with a wrapper that records one span (operation, id, parent, name, start,
end, counts).  Calls made inside the program resolve those bindings at call
time, so ``run_pipeline`` gets its stage spans as children and
``obstruction_report`` gets its kernel spans, without any change to the
program.  The untraced run installs nothing.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from time import perf_counter_ns

from workloads import longest_chain, plain


def _k_bits(report) -> dict:
    bits = [max(abs(k.numerator).bit_length(), k.denominator.bit_length())
            for k in report.K]
    return {"K_max_bits": max(bits, default=0)}


# (module, function, layer metric, counts taken from (args, result), alloc peak)
LAYERS = (
    ("resolve", "parse_resolution", "resolve.parse_s", None, False),
    ("resolve", "subtract_and_normalize", "resolve.step1_s", None, False),
    ("resolve", "product_multiplicity_tree", "resolve.product_s", None, False),
    ("nielsen", "build_nielsen", "nielsen.build_s",
     lambda a, r: {"pieces": len(r.vertices)}, False),
    ("power", "power_nielsen", "power.power_s", None, False),
    ("power", "valency_formula_notes", "power.notes_s", None, False),
    ("waldhausen", "nielsen_to_waldhausen", "waldhausen.convert_s",
     lambda a, r: {"pairs": len(r.stalks) + len(r.arrows) + len(r.edges)}, False),
    ("synthesis", "synth_plumbing", "synthesis.synth_s",
     lambda a, r: {"vertices": len(r.vertices), "longest_chain": longest_chain(plain(r))},
     True),
    ("synthesis", "blow_down", "synthesis.blow_down_s",
     lambda a, r: {"blow_down_steps": len(a[0].vertices) - len(r.vertices)}, False),
    ("invariants", "obstruction_report", "invariants.report_s",
     lambda a, r: _k_bits(r), True),
    ("invariants", "canonical_class", "invariants.canonical_class_s", None, False),
    ("invariants", "k_squared", "invariants.k_squared_s", None, False),
    ("invariants", "laufer_steenbrink", "invariants.laufer_steenbrink_s", None, False),
    ("invariants", "determinant", "invariants.determinant_s", None, False),
    ("invariants", "negative_definite", "invariants.negative_definite_s", None, False),
    ("graphs", "intersection_matrix", "graphs.intersection_matrix_s", None, False),
    ("serialize", "to_json", "serialize.to_json_s",
     lambda a, r: {"json_bytes": len(r)}, False),
    ("serialize", "from_json", "serialize.from_json_s",
     lambda a, r: {"json_bytes": len(a[0])}, False),
    ("report", "render_text", "report.render_text_s", None, False),
    ("report", "render_json_dict", "report.render_json_s", None, False),
    ("cli", "main", "cli.main_s", None, False),
    ("pipeline", "run_pipeline", "pipeline.run_s", None, False),
)

# Count metrics: name -> (layer metric whose spans carry it, key, aggregate).
COUNTS = {
    "nielsen.pieces": ("nielsen.build_s", "pieces", "mean"),
    "waldhausen.pairs": ("waldhausen.convert_s", "pairs", "mean"),
    "synthesis.vertices": ("synthesis.synth_s", "vertices", "mean"),
    "synthesis.longest_chain": ("synthesis.synth_s", "longest_chain", "max"),
    "synthesis.blow_down_steps": ("synthesis.blow_down_s", "blow_down_steps", "mean"),
    "invariants.K_max_bits": ("invariants.report_s", "K_max_bits", "max"),
    "serialize.json_bytes": (None, "json_bytes", "mean"),
}

# tracemalloc peaks, taken in a separate pass so they do not slow the timed one.
ALLOC = {
    "synthesis.alloc_peak_kb": "synthesis.synth_s",
    "invariants.alloc_peak_kb": "invariants.report_s",
}

PER_LAYER = ([metric for _, _, metric, _, _ in LAYERS] + ["pipeline.overhead_s"]
             + list(COUNTS) + list(ALLOC))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_kb"):
        return "KB"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.alloc = False  # tracemalloc peaks, only in the allocation pass

    def wrap(self, fn, name, counts, alloc):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            measure = alloc and tracer.alloc
            if measure:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                data = counts(args, result) if counts and result is not None else {}
                if measure:
                    data["alloc_peak_kb"] = (tracemalloc.get_traced_memory()[1] - base) / 1024
                tracer.spans[sid] = (tracer.op, sid, parent, name, start, end, data)

        return traced

    def install(self) -> None:
        """Rebind every module-level reference to each traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "susplink" or n.startswith("susplink.")]
        for module, func, metric, counts, alloc in LAYERS:
            original = getattr(sys.modules[f"susplink.{module}"], func)
            wrapper = self.wrap(original, metric, counts, alloc)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics: seconds per operation in each layer's spans,
        counts per operation (or their maximum), and the pipeline overhead
        (run_pipeline minus its direct child spans)."""
        total = {metric: 0 for *_, metric, _, _ in LAYERS}
        child_time: dict[int, int] = {}
        for op, sid, parent, name, start, end, data in self.spans:
            total[name] += end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0) + end - start
        overhead = sum(end - start - child_time.get(sid, 0)
                       for _, sid, _, name, start, end, _ in self.spans
                       if name == "pipeline.run_s")
        out = {metric: total[metric] / 1e9 / n_ops for metric in total}
        out["pipeline.overhead_s"] = overhead / 1e9 / n_ops
        for metric, (layer, key, how) in COUNTS.items():
            values = [data[key] for *_, name, _, _, data in self.spans
                      if key in data and (layer is None or name == layer)]
            if how == "max":
                out[metric] = max(values, default=0)
            else:
                out[metric] = sum(values) / n_ops
        return out

    def alloc_peaks(self) -> dict:
        return {metric: max((data["alloc_peak_kb"] for *_, name, _, _, data in self.spans
                             if name == layer and "alloc_peak_kb" in data), default=0)
                for metric, layer in ALLOC.items()}
