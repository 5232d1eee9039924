"""Per-layer tracing of tripos from outside the package.

``Tracer.install()`` wraps the public functions of each tripos module (and
``QPoly``'s arithmetic dunders) in place: the module attribute, every other
tripos module's imported binding and the class slot are all replaced, so
calls made inside the package are traced too.  Each call records a span
(id, parent id, job, layer, start ns, end ns) in memory; layer self time is
a span's duration minus the time its direct child spans cover.  Work
counters are taken at the same boundaries and do not depend on timing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter_ns

ROOT = "worker"

# layer -> (module, attribute) pairs; "QPoly.__mul__" names a class slot.
LAYERS = {
    "algebra.qpoly_mul": [("algebra", "QPoly.__mul__"), ("algebra", "QPoly.__rmul__")],
    "algebra.qpoly_addsub": [("algebra", "QPoly.__add__"), ("algebra", "QPoly.__sub__"),
                             ("algebra", "QPoly.__neg__")],
    "algebra.poly_geq_q": [("algebra", "poly_geq_q")],
    "algebra.det_exact": [("algebra", "det_exact")],
    "properties.pair_scan": [("properties", f) for f in (
        "is_strongly_q_log_convex", "is_strongly_q_log_concave",
        "is_q_log_convex", "is_q_log_concave")],
    "properties.is_tp_r": [("properties", "is_tp_r")],
    "properties.other": [("properties", f) for f in (
        "is_log_concave", "is_log_convex", "is_pf_r", "is_q_tp2", "toeplitz", "hankel")],
    "triangles.generate": [("triangles", f) for f in (
        "from_three_term", "from_five_term", "from_const_params", "from_bisnomial")],
    "triangles.build_preset": [("triangles", "build_preset")],
    "triangles.row_polys": [("triangles", f) for f in ("row_polys", "row_poly", "row_tail_poly")],
    "triangles.bisnomial_row": [("triangles", "bisnomial_row"), ("triangles", "bisnomial")],
    "triangles.other": [("triangles", f) for f in ("recurrence_matrix", "preset")],
    "oracles": [("oracles", f) for f in (
        "catalan_numbers", "motzkin_numbers", "bell_numbers", "large_schroder_numbers",
        "stirling2_triangle", "shapiro_row", "pascal_row")],
    "transforms.bisnomial_transform": [("transforms", "bisnomial_transform")],
    "transforms.check_preservation": [("transforms", "check_preservation")],
    "transforms.other": [("transforms", "window_sum"), ("transforms", "transform_minor_form")],
    "conditions.tail_recurrence": [("conditions", "verify_tail_recurrence")],
    "conditions.clauses": [("conditions", f) for f in (
        "log_concavity_conditions", "log_concavity_conditions_const",
        "q_log_convexity_conditions")],
    "oeis.fetch_bfile": [("oeis", "fetch_bfile")],
    "oeis.reshape": [("oeis", "reshape"), ("oeis", "trim_to_rows")],
    "cli.main": [("cli", "main")],
    "cli.load_inputs": [("cli", f) for f in (
        "load_triangle_file", "load_poly_file", "load_scheme_file", "parse_const_params")],
}


def _bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _count_mul(counts: Counter, args, result) -> None:
    a, other = args[0].coeffs, args[1]
    if type(other) is type(args[0]):
        b = other.coeffs
        products = (len(a) - a.count(0)) * len(b) if b else 0
        fraction = any(type(c) is Fraction for c in a) or any(type(c) is Fraction for c in b)
    else:
        products = len(a)
        fraction = type(other) is Fraction or any(type(c) is Fraction for c in a)
    counts["coeff_products"] += products
    counts["fraction_calls"] += fraction
    if result.coeffs:
        counts["max_coeff_bits"] = max(counts["max_coeff_bits"], max(map(_bits, result.coeffs)))


def _count_det(counts: Counter, args, result) -> None:
    counts["entries"] += len(args[0]) ** 2


def _count_triangle(counts: Counter, args, result) -> None:
    counts["entries"] += sum(len(row) for row in result.rows)


COUNTERS = {"algebra.qpoly_mul": _count_mul, "algebra.det_exact": _count_det,
            "triangles.generate": _count_triangle}


class Tracer:
    """Spans, self times and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, job, layer, start_ns, end_ns)
        self.stack: list[list] = []    # open spans: [id, layer, child ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()            # (layer, function) -> calls
        self.raised: Counter = Counter()           # (layer, function) -> exceptions
        self.counts: defaultdict = defaultdict(Counter)  # layer -> work counters
        self.children: Counter = Counter()         # (parent layer, layer) -> calls
        self.job = -1

    def install(self) -> None:
        for modname in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(f"tripos.{modname}")
        modules = [m for name, m in sys.modules.items()
                   if name == "tripos" or name.startswith("tripos.")]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                module = sys.modules[f"tripos.{modname}"]
                if "." in attr:
                    cls_name, slot = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, slot, self._wrap(layer, attr, getattr(cls, slot)))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(layer, attr, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapped)
        # as_fraction is only counted (no span): det_exact calls it per entry.
        algebra = sys.modules["tripos.algebra"]
        as_fraction = algebra.as_fraction

        def counted(x):
            layer = self.stack[-1][1] if self.stack else ROOT
            self.counts[layer]["fraction_calls"] += 1
            return as_fraction(x)

        algebra.as_fraction = counted

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get(layer)
        key = (layer, name)
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans)
            spans.append(None)
            frame = [span_id, layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[span_id] = (span_id, parent[0] if parent else -1, self.job,
                                  layer, start, end)
                self.self_ns[layer] += end - start - frame[2]
                self.calls[key] += 1
                self.children[(parent[1] if parent else None, layer)] += 1
                if parent is not None:
                    parent[2] += end - start
            if count is not None:
                count(self.counts[layer], args, result)
            if parent is not None:
                # the counting above is charged to neither span
                parent[2] += perf_counter_ns() - end
            return result

        return traced

    def run_job(self, job: int, call):
        """Run one job under a root span, so its glue time is measured too."""
        self.job = job
        return self._wrap(ROOT, "job", call)()

    def summary(self) -> dict:
        """Per-layer self time, calls, raised and work counters."""
        layers = {}
        for layer in [ROOT, *LAYERS]:
            calls = sum(v for (l, _), v in self.calls.items() if l == layer)
            layers[layer] = {"self_s": self.self_ns[layer] / 1e9, "calls": calls,
                             "raised": sum(v for (l, _), v in self.raised.items() if l == layer),
                             **self.counts[layer]}
        functions = {f"{l}:{f}": {"calls": c, "raised": self.raised[(l, f)]}
                     for (l, f), c in sorted(self.calls.items())}
        return {"layers": layers, "functions": functions, "spans": len(self.spans),
                "pairs": self.children[("properties.pair_scan", "algebra.poly_geq_q")],
                "minors": self.children[("properties.is_tp_r", "algebra.det_exact")]}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "job", "layer", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
