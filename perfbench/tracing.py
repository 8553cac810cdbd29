"""Per-layer spans for the traced benchmark run, installed from outside.

`Tracer.installed()` replaces public functions and methods of the
`cluster_geom` modules with wrappers that record a span (name, start, end,
parent span, job) and a few work counts, and restores the originals on exit.
A module-level function is replaced in every module namespace that holds it
(for example `explore.exact_divide`, `cli.explore`, `rank2.solve_integer`);
a method is replaced on its class.  Per-entry helpers such as
`Matrix.__getitem__`, `_grlex_key` and `_normalize_entry` are left alone:
they run 10^5 to 10^6 times per job and their wrappers would swamp the
numbers.

There is one thread and no queue, so waiting time is zero by construction
and is not reported.
"""

from __future__ import annotations

import contextlib
import json
import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _terms_out(counts, name, result):
    counts[f"{name}.terms_out"] += result.n_terms()


def _divide(counts, name, result):
    if result is None:
        counts[f"{name}.none"] += 1
    else:
        counts[f"{name}.quotient_terms"] += result.n_terms()


def _twist(counts, name, result):
    counts[f"{name}.terms_out"] += result.num.n_terms() + result.den.n_terms()


def _none(counts, name, result):
    if result is None:
        counts[f"{name}.none"] += 1


def _new_nodes(counts, name, result):
    counts["explore.explore.new_nodes"] += len(result.nodes) - 1


# (span name, module, attribute path, work counter).  A counter gets the
# counts dict, the span name and the result after each call returns.
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("cli.load_seed_file", "cli", "load_seed_file", None),
    ("explore.explore", "explore", "explore", _new_nodes),
    ("explore.step", "explore", "step", None),
    ("explore.exchange_polynomial", "explore", "exchange_polynomial", None),
    ("explore.report", "explore", "ExchangeGraph.report", None),
    ("explore.verify_laurent", "explore", "verify_laurent_A", None),
    ("explore.verify_laurent", "explore", "verify_laurent_X", None),
    ("laurent.mul", "laurent", "LaurentPolynomial.__mul__", _terms_out),
    ("laurent.pow", "laurent", "LaurentPolynomial.__pow__", None),
    ("laurent.shift", "laurent", "LaurentPolynomial.shift", None),
    ("laurent.terms", "laurent", "LaurentPolynomial.terms", None),
    ("laurent.exact_divide", "laurent", "exact_divide", _divide),
    ("laurent.monomial_twist", "laurent", "monomial_twist", _twist),
    ("laurent.binomial_power", "laurent", "binomial_power", None),
    ("laurent.as_laurent", "laurent", "RationalExpression.as_laurent", _none),
    ("seeds.Seed.init", "seeds", "Seed.__init__", None),
    ("seeds.mutate_seed", "seeds", "mutate_seed", None),
    ("seeds.mutate_epsilon", "seeds", "mutate_epsilon", None),
    ("seeds.check_symmetrizable", "seeds", "check_symmetrizable", None),
    ("seeds.picard_invariants", "seeds", "picard_invariants", None),
    ("intmat.Matrix.init", "intmat", "Matrix.__init__", None),
    ("intmat.matmul", "intmat", "Matrix.__matmul__", None),
    ("intmat.inverse", "intmat", "Matrix.inverse", None),
    ("intmat.det", "intmat", "Matrix.det", None),
    ("intmat.solve_integer", "intmat", "solve_integer", None),
    ("intmat.smith_normal_form", "intmat", "smith_normal_form", None),
    ("intmat.kernel_basis", "intmat", "kernel_basis", None),
    ("intmat.hermite_row_basis", "intmat", "hermite_row_basis", None),
    ("rank2.symmetric_form", "rank2", "symmetric_form", None),
    ("rank2.invariance_check", "rank2", "invariance_check", None),
    ("rank2.complete_smooth_fan", "rank2", "complete_smooth_fan", None),
    ("rank2.blowup_surface", "rank2", "blowup_surface", None),
    ("rank2.inertia", "rank2", "inertia", None),
)

# Reported per-layer metrics: (name, unit, workloads where it should move).
# The end-to-end metric each group should move is listed in README.md.
DEEP, WIDE, VERIFY, GEO = "exchange-deep", "exchange-wide", "laurent-verify", "geometry"
REPORTED = (
    ("laurent.mul.calls", "count", (DEEP,)),
    ("laurent.mul.self_s", "s", (DEEP,)),
    ("laurent.mul.terms_out", "count", (DEEP,)),
    ("laurent.pow.self_s", "s", (DEEP,)),
    ("laurent.exact_divide.calls", "count", (DEEP,)),
    ("laurent.exact_divide.self_s", "s", (DEEP,)),
    ("laurent.exact_divide.quotient_terms", "count", (DEEP,)),
    ("laurent.exact_divide.none", "count", ()),
    ("laurent.monomial_twist.calls", "count", (VERIFY,)),
    ("laurent.monomial_twist.self_s", "s", (VERIFY,)),
    ("laurent.monomial_twist.terms_out", "count", (VERIFY,)),
    ("laurent.binomial_power.self_s", "s", (VERIFY,)),
    ("laurent.as_laurent.calls", "count", (VERIFY,)),
    ("laurent.as_laurent.self_s", "s", (VERIFY,)),
    ("laurent.as_laurent.none", "count", ()),
    ("laurent.shift.self_s", "s", (VERIFY,)),
    ("laurent.terms.calls", "count", (WIDE,)),
    ("laurent.terms.self_s", "s", (WIDE,)),
    ("explore.explore.self_s", "s", (WIDE,)),
    ("explore.report.self_s", "s", (WIDE,)),
    ("explore.dedup_new_ratio", "ratio", (WIDE,)),
    ("explore.step.calls", "count", (DEEP,)),
    ("explore.step.self_s", "s", (DEEP,)),
    ("explore.exchange_polynomial.self_s", "s", (DEEP,)),
    ("explore.verify_laurent.calls", "count", (VERIFY,)),
    ("explore.verify_laurent.self_s", "s", (VERIFY,)),
    ("seeds.mutate_seed.calls", "count", (WIDE,)),
    ("seeds.mutate_seed.self_s", "s", (WIDE,)),
    ("seeds.mutate_epsilon.calls", "count", (WIDE,)),
    ("seeds.mutate_epsilon.self_s", "s", (WIDE,)),
    ("seeds.check_symmetrizable.self_s", "s", (WIDE,)),
    ("intmat.Matrix.init.calls", "count", (WIDE,)),
    ("intmat.Matrix.init.self_s", "s", (WIDE,)),
    ("intmat.matmul.calls", "count", (WIDE,)),
    ("intmat.matmul.self_s", "s", (WIDE,)),
    ("intmat.inverse.calls", "count", (GEO,)),
    ("intmat.inverse.self_s", "s", (GEO,)),
    ("intmat.solve_integer.calls", "count", (GEO,)),
    ("intmat.solve_integer.self_s", "s", (GEO,)),
    ("intmat.smith_normal_form.calls", "count", (GEO,)),
    ("intmat.smith_normal_form.self_s", "s", (GEO,)),
    ("intmat.kernel_basis.self_s", "s", (GEO,)),
    ("intmat.hermite_row_basis.self_s", "s", (GEO,)),
    ("intmat.det.self_s", "s", (GEO,)),
    ("rank2.symmetric_form.calls", "count", (GEO,)),
    ("rank2.symmetric_form.self_s", "s", (GEO,)),
    ("rank2.invariance_check.calls", "count", (GEO,)),
    ("rank2.invariance_check.self_s", "s", (GEO,)),
    ("rank2.complete_smooth_fan.self_s", "s", (GEO,)),
    ("rank2.blowup_surface.self_s", "s", (GEO,)),
    ("rank2.inertia.self_s", "s", (GEO,)),
    ("cli.main.self_s", "s", (GEO,)),
    ("cli.load_seed_file.self_s", "s", (GEO,)),
    ("seeds.Seed.init.calls", "count", (GEO,)),
    ("seeds.Seed.init.self_s", "s", (GEO,)),
    ("seeds.picard_invariants.self_s", "s", (GEO,)),
    ("trace.overhead_ratio", "ratio", (DEEP, WIDE, VERIFY, GEO)),
)


def silent_counters(workload, metrics):
    """Reported metrics that read zero on a workload where they should move."""
    return [
        name for name, _, moves in REPORTED
        if workload in moves and name in metrics and metrics[name]["value"] == 0
    ]


def _package_modules():
    return [m for name, m in sys.modules.items()
            if (name == "cluster_geom" or name.startswith("cluster_geom.")) and m]


class Tracer:
    """Spans kept in memory as parallel arrays; written out by `write`."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job = -1
        self.counts = defaultdict(int)
        self._undo = []

    def _wrap(self, name, fn, counter):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.start)
            stack = tracer.stack
            tracer.span_name.append(idx)
            tracer.span_job.append(tracer.job)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            tracer.counts[f"{name}.calls"] += 1
            if counter is not None:
                counter(tracer.counts, name, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        import cluster_geom.cli  # noqa: F401  (loads every module)

        modules = _package_modules()
        try:
            for name, module, attr, counter in LAYERS:
                owner = sys.modules[f"cluster_geom.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self._wrap(name, original, counter)
                    for alias, value in list(cls.__dict__.items()):
                        if value is original:  # e.g. __rmul__ = __mul__
                            self._set(cls, alias, wrapper)
                else:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(name, original, counter)
                    for mod in modules:
                        for alias, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, alias, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(self._undo):
                setattr(owner, attr, value)
            self._undo.clear()

    def self_times(self):
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        totals = {}
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            totals[name] = totals.get(name, 0.0) + (
                self.end[sid] - self.start[sid] - child[sid])
        return totals

    def metrics(self):
        values = dict(self.counts)
        for name, total in self.self_times().items():
            values[f"{name}.self_s"] = total
        steps = values.get("explore.step.calls", 0)
        values["explore.dedup_new_ratio"] = (
            values.get("explore.explore.new_nodes", 0) / steps if steps else 0.0)
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in REPORTED if name != "trace.overhead_ratio"
        }

    def write(self, path, job_ids):
        """All spans as JSON: names, job ids and one row per span
        [name index, job index, parent span, start, end], streamed."""
        with open(path, "w") as fh:
            fh.write(f'{{"names": {json.dumps(self.names)}, '
                     f'"jobs": {json.dumps(job_ids)}, "spans": [\n')
            for i in range(len(self.start)):
                sep = ",\n" if i else ""
                fh.write(f"{sep}[{self.span_name[i]},{self.span_job[i]},"
                         f"{self.parent[i]},{self.start[i]!r},{self.end[i]!r}]")
            fh.write("\n]}\n")
