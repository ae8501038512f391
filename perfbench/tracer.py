"""Spans and counters around the public functions of each qtnabla module.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
replaces each listed function or method, in its own module and in every
qtnabla module that imported it by value, with a wrapper that records a
span (name, start, end, parent span, case) and bumps counters.  Spans stay
in memory until ``dump``.  A layer metric is the total self time of its
spans: span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from time import perf_counter

# (module, function or Class.method, span metric, call counter, yield counter)
TARGETS = [
    ("scalar", "QtScalar.__init__", None, "scalar.qtscalar_new", None),
    ("scalar", "QtScalar._reduce", None, "scalar.reductions", None),
    ("scalar", "QtScalar.t_expand", "scalar.t_expand_s", "scalar.t_expand_calls", None),
    ("scalar", "SeriesBuilder.add", "scalar.series_build_s", None, None),
    ("scalar", "SeriesBuilder.build", "scalar.series_build_s", None, None),
    ("scalar", "MonomialSeries.first_discrepancy", "scalar.compare_s", None, None),
    ("scalar", "MonomialSeries.__eq__", "scalar.compare_s", None, None),
    ("scalar", "TSeries.__eq__", "scalar.compare_s", None, None),
    ("symfunc", "SymFunc.qt_inner", "symfunc.qt_inner_s", None, None),
    ("symfunc", "SymFunc.convert", "symfunc.convert_s", None, None),
    ("symfunc", "SymFunc.to_p_dict", "symfunc.convert_s", None, None),
    ("symfunc", "SymFunc.from_p_dict", "symfunc.convert_s", None, None),
    ("symfunc", "poly_to_symfunc", "symfunc.convert_s", None, None),
    ("symfunc", "SymFunc.expand", "symfunc.expand_s", None, None),
    ("symfunc", "plethysm", "symfunc.plethysm_s", None, None),
    ("symfunc", "plethysm_p_scale", "symfunc.plethysm_s", None, None),
    ("symfunc", "plethysm_expand", "symfunc.plethysm_s", None, None),
    ("macdonald", "modified_macdonald", "macdonald.htilde_s", None, None),
    ("macdonald", "htilde_schur", "macdonald.htilde_s", None, None),
    ("macdonald", "MacdonaldCache.get", "macdonald.htilde_s", None, None),
    ("macdonald", "MacdonaldCache._load", "macdonald.htilde_s", None, None),
    ("macdonald", "MacdonaldCache.store", "macdonald.htilde_s", None, None),
    ("macdonald", "_build_htilde", "macdonald.htilde_s", None, None),
    ("macdonald", "_gram_schmidt_P", "macdonald.htilde_s", None, None),
    ("macdonald", "integral_J", "macdonald.htilde_s", None, None),
    ("macdonald", "_validate_htilde", "macdonald.htilde_s", "macdonald.htilde_tables", None),
    ("macdonald", "cauchy_macdonald_series", "macdonald.cauchy_series_s", None, None),
    ("macdonald", "nabla_power", "macdonald.nabla_s", None, None),
    ("macdonald", "to_htilde_dict", "macdonald.nabla_s", None, None),
    ("macdonald", "from_htilde_dict", "macdonald.nabla_s", None, None),
    ("macdonald", "_htilde_inverse_matrix", "macdonald.nabla_s", None, None),
    ("labels", "iter_sorted_triples", None, None, "labels.sorted_triples"),
    ("labels", "iter_sorted_pairs", None, None, "labels.sorted_pairs"),
    ("labels", "xi_pi", "labels.xi_s", None, None),
    ("labels", "chromatic", "labels.chromatic_s", None, None),
    ("omega", "omega_series", "omega.omega_series_s", None, None),
    ("omega", "omega_via_xi", "omega.omega_series_s", None, None),
    ("omega", "omega_sub_y", "omega.omega_series_s", None, None),
    ("omega", "omega_sub_y_via_plethysm", "omega.omega_series_s", None, None),
    ("omega", "fulltwist_series", "omega.fulltwist_s", None, None),
    ("omega", "fulltwist_extraction", "omega.fulltwist_s", None, None),
    ("omega", "hilbert_coefficient", "omega.fulltwist_s", None, None),
    ("shuffle", "parking_sum", "shuffle.parking_sum_s", None, None),
    ("shuffle", "nabla_en_expansion", "shuffle.nabla_en_s", None, None),
    ("involution", "enumerate_van", None, "involution.van_walks", "involution.quadruples"),
    ("involution", "verify_vanishing", "involution.van_s", None, None),
    ("involution", "signed_quadruple_series", "involution.van_s", None, None),
    ("involution", "macdonald_substituted_series", "involution.substituted_series_s", None, None),
    ("affine", "raths_series", "affine.raths_s", None, None),
    ("affine", "verify_paff", "affine.paff_s", None, None),
    ("affine", "iter_wplus_graded", None, None, "affine.wplus"),
    ("bundles", "brute_force_counts", "bundles.oracle_s", "bundles.oracle_cases", None),
    ("bundles", "verify_bundle_counts", "bundles.oracle_s", None, None),
    ("bundles", "bundle_side_series", "bundles.series_s", None, None),
    ("bundles", "verify_bundle_series", "bundles.series_s", None, None),
    ("bundles", "product_side_expansion", "bundles.series_s", None, None),
    ("bundles", "verify_product_identity", "bundles.series_s", None, None),
    ("cli", "main", "cli.main_s", None, None),
]

# spans recorded by the benchmark itself rather than by a wrapper
IMPORT_SPAN = "cli.import_s"
REPORT_BYTES = "cli.report_bytes"


def _metric_names():
    names = []
    for _, _, span, calls, yields in TARGETS:
        for name in (span, calls, yields):
            if name and name not in names:
                names.append(name)
    return names + [IMPORT_SPAN, REPORT_BYTES]


METRICS = _metric_names()


def import_all():
    """Import every qtnabla module so that by-value imports can be found."""
    import qtnabla
    for info in pkgutil.iter_modules(qtnabla.__path__):
        importlib.import_module("qtnabla." + info.name)


class Tracer:
    """Records spans and counters for one process; ``case`` labels spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, case]
        self.counts = {}
        self.case = None
        self._stack = []

    def add_span(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.case])

    def _wrap(self, fn, span, calls, yields):
        counts, stack, spans = self.counts, self._stack, self.spans
        if yields:
            def counted(*args, **kwargs):
                if calls:
                    counts[calls] = counts.get(calls, 0) + 1
                for item in fn(*args, **kwargs):
                    counts[yields] = counts.get(yields, 0) + 1
                    yield item
            return counted
        if span is None:
            def tallied(*args, **kwargs):
                counts[calls] = counts.get(calls, 0) + 1
                return fn(*args, **kwargs)
            return tallied

        def timed(*args, **kwargs):
            if calls:
                counts[calls] = counts.get(calls, 0) + 1
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
        return timed

    def traced(self, fn, span):
        """fn, recording one span per call under the given name."""
        return self._wrap(fn, span, None, None)

    def install(self):
        """Wrap every target; call once, after ``import_all``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qtnabla" or name.startswith("qtnabla.")]
        for module_name, qualname, span, calls, yields in TARGETS:
            module = sys.modules["qtnabla." + module_name]
            *owner_path, attr = qualname.split(".")
            if owner_path:
                owner = getattr(module, owner_path[0])
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(fn, span, calls, yields)
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(module, attr)
            if yields and not inspect.isgeneratorfunction(fn):
                raise TypeError(f"{qualname} does not yield")
            wrapped = self._wrap(fn, span, calls, yields)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)

    def dump(self, path):
        """Write the spans (one JSON object per line) and the counters."""
        with open(path, "w") as fh:
            write_spans(fh, self.spans)
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def write_spans(fh, spans):
    for name, start, end, parent, case in spans:
        fh.write(json.dumps({"name": name, "start": start, "end": end,
                             "parent": parent, "case": case}) + "\n")


def load(path):
    """Read back what ``dump`` wrote: (spans, counts)."""
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if "counts" in row:
                counts = row["counts"]
            else:
                spans.append([row["name"], row["start"], row["end"],
                              row["parent"], row["case"]])
    return spans, counts


def self_times(spans):
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def unit(name):
    if name == REPORT_BYTES:
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def layer_metrics(self_time, counts):
    """Every per-layer metric; a layer the workload never calls reads 0."""
    out = {}
    for name in METRICS:
        if name.endswith("_s"):
            out[name] = self_time.get(name, 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out
