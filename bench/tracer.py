"""Per-layer tracing of qf2 from outside the package.

`Tracer.install()` wraps the public functions of each layer (a `qf2` module)
and rebinds every name under which a `qf2.*` module holds them: `from .witt
import decide_isotropy` copies the binding into clifford, pfister, chow and
cli, so patching `qf2.witt` alone would miss those callers.  `FieldElem`'s
operators (with the `__sub__` alias) and `GramInput.polar` are patched on
their classes.  `uninstall()` puts every original back.

A span has a name, a start, an end and a parent; a layer's self time is its
spans' time minus the time covered by their child spans.  Spans of the
fieldtower operators are aggregated as they close, because a run makes
millions of them; spans of the other layers are also kept, and `dump_spans`
writes them out.  The tracer records nothing while `active` is false, which
is how the benchmark keeps its own output checks out of the counts.
"""

import json
import sys
from time import perf_counter_ns

from qf2 import chow, clifford, cli, fieldtower, forms, pfister, witt
from qf2.errors import BudgetExceeded, DegreeOverflow

OPS = (("__add__", "add"), ("__sub__", "add"), ("__mul__", "mul"),
       ("__truediv__", "div"), ("inverse", "inverse"), ("__pow__", "pow"))
LEVELED = ("add", "mul", "div")

# (module, function, span name, distinct-argument tracking)
FUNCTIONS = (
    (fieldtower, "wp_reduce", "fieldtower.wp_reduce", False),
    (fieldtower, "is_square", "fieldtower.is_square", False),
    (forms, "normal_form_trace", "forms.normal_form", False),
    (witt, "decide_isotropy", "witt.decide_isotropy", True),
    (witt, "witt_decompose", "witt.witt_decompose", True),
    (witt, "brute_force_search", "witt.brute_force_search", False),
    (clifford, "splitting_index", "clifford.splitting_index", False),
    (clifford, "even_clifford_class", "clifford.even_clifford_class", False),
    (clifford, "build_clifford", "clifford.build_clifford", False),
    (clifford, "center_and_idempotents", "clifford.center_and_idempotents",
     False),
    (pfister, "neighbor_dim5", "pfister.neighbor", False),
    (pfister, "neighbor_dim6", "pfister.neighbor", False),
    (pfister, "neighbor_high", "pfister.neighbor", False),
    (chow, "chow2_torsion", "chow.chow2_torsion", False),
    (chow, "chow3_torsion", "chow.chow3_torsion", False),
    (cli, "parse_job", "cli.parse_job", False),
    (cli, "run_report", "cli.run_report", False),
)

# Counters kept beside the per-span call counts.  These and the call counts
# are deterministic: two traced runs of the same inputs must agree on them.
COUNTS = (
    "fieldtower.ops", "fieldtower.overflows", "forms.polar.calls",
    "witt.decide_isotropy.distinct", "witt.witt_decompose.distinct",
    "witt.brute_force_search.found",
    "witt.brute_force_search.budget_exhausted",
    "pfister.neighbor.decompose",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []          # open frames: [name, child_ns, span id,
        #                          fieldtower layer?]
        self.calls = {}          # span name -> calls
        self.self_ns = {}        # span name -> self time
        self.outer_ns = {}       # span name -> time of outermost calls
        self.outer_calls = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans = []          # (id, parent id, name, start ns, end ns)
        self.seen = {}           # span name -> argument forms in this scope
        self._patched = []

    # -- recording ---------------------------------------------------------
    def _close(self, name, frame, t0, t1):
        dt = t1 - t0
        self.stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dt - frame[1]
        if self.stack:
            self.stack[-1][1] += dt
        return dt

    def _op_wrapper(self, fn, kind):
        tracer = self
        counts = self.counts

        names = {level: f"fieldtower.{kind}" + (
            f".L{level}" if kind in LEVELED else "") for level in range(5)}

        def wrapper(x, *args):
            if not tracer.active:
                return fn(x, *args)
            name = names[x.field.level]
            stack = tracer.stack
            outer = not stack or not stack[-1][3]
            frame = [name, 0, None, True]
            stack.append(frame)
            counts["fieldtower.ops"] += 1
            t0 = perf_counter_ns()
            try:
                return fn(x, *args)
            except DegreeOverflow:
                if outer:
                    counts["fieldtower.overflows"] += 1
                raise
            finally:
                tracer._close(name, frame, t0, perf_counter_ns())
        return wrapper

    def _fn_wrapper(self, fn, name, distinct):
        tracer = self
        counts = self.counts
        in_fieldtower = name.startswith("fieldtower.")

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            outer = all(f[0] != name for f in stack)
            outside_fieldtower = not stack or not stack[-1][3]
            parent = next((f[2] for f in reversed(stack) if f[2] is not None),
                          None)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [name, 0, span_id, in_fieldtower]
            if distinct:
                tracer.seen.setdefault(name, set()).add(args[0])
            if name == "witt.witt_decompose" and any(
                    f[0] == "pfister.neighbor" for f in stack):
                counts["pfister.neighbor.decompose"] += 1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                if name == "witt.brute_force_search":
                    counts["witt.brute_force_search.budget_exhausted"] += 1
                raise
            except DegreeOverflow:
                if in_fieldtower and outside_fieldtower:
                    counts["fieldtower.overflows"] += 1
                raise
            else:
                if name == "witt.brute_force_search" and result is not None:
                    counts["witt.brute_force_search.found"] += 1
                return result
            finally:
                t1 = perf_counter_ns()
                dt = tracer._close(name, frame, t0, t1)
                tracer.spans[span_id] = (span_id, parent, name, t0, t1)
                if outer:
                    tracer.outer_ns[name] = tracer.outer_ns.get(name, 0) + dt
                    tracer.outer_calls[name] = \
                        tracer.outer_calls.get(name, 0) + 1
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _polar_wrapper(self, fn):
        tracer = self
        counts = self.counts

        def polar(g, v, w):
            if tracer.active:
                counts["forms.polar.calls"] += 1
            return fn(g, v, w)
        return polar

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer function and operator (tracing still off)."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qf2" or n.startswith("qf2."))]
        for mod, attr, name, distinct in FUNCTIONS:
            fn = getattr(mod, attr)
            wrapped = self._fn_wrapper(fn, name, distinct)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapped)
        elem = fieldtower.FieldElem
        for attr, kind in OPS:
            self._patch(elem, attr,
                        self._op_wrapper(getattr(elem, attr), kind))
        self._patch(forms.GramInput, "polar",
                    self._polar_wrapper(forms.GramInput.polar))

    def uninstall(self):
        self.active = False
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- scopes and results -------------------------------------------------
    def end_scope(self):
        """Close one item (engine, kernel) or one job (cli): distinct
        argument forms are counted per scope, which is the reach of a
        per-report memo."""
        for name, forms_seen in self.seen.items():
            self.counts[f"{name}.distinct"] += len(forms_seen)
        self.seen = {}

    def snapshot(self):
        """Plain-data totals, mergeable across processes."""
        self.end_scope()
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "outer_ns": dict(self.outer_ns),
                "outer_calls": dict(self.outer_calls),
                "counts": dict(self.counts)}

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def merge(snapshots):
    out = {"calls": {}, "self_ns": {}, "outer_ns": {}, "outer_calls": {},
           "counts": dict.fromkeys(COUNTS, 0)}
    for snap in snapshots:
        for key, table in snap.items():
            for name, value in table.items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def layer_metrics(snap):
    """The per-layer metrics of BENCHMARK.json from merged totals."""
    calls, self_ns, counts = snap["calls"], snap["self_ns"], snap["counts"]
    outer_ns, outer_calls = snap["outer_ns"], snap["outer_calls"]

    def ms(name):
        return self_ns.get(name, 0) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_us(name, table_ns, table_calls):
        return ratio(table_ns.get(name, 0), table_calls.get(name, 0)) / 1e3

    m = {"fieldtower.ops": counts["fieldtower.ops"],
         "fieldtower.self_ms": sum(v for k, v in self_ns.items()
                                   if k.startswith("fieldtower.")) / 1e6,
         "fieldtower.overflows": counts["fieldtower.overflows"]}
    for kind in LEVELED:
        for level in (1, 2, 3):
            m[f"fieldtower.{kind}_us.L{level}"] = mean_us(
                f"fieldtower.{kind}.L{level}", self_ns, calls)
    for name in ("wp_reduce", "is_square"):
        m[f"fieldtower.{name}_us"] = mean_us(f"fieldtower.{name}", outer_ns,
                                             outer_calls)
    m["forms.normal_form.calls"] = calls.get("forms.normal_form", 0)
    m["forms.normal_form.self_ms"] = ms("forms.normal_form")
    m["forms.polar.calls"] = counts["forms.polar.calls"]
    for name in ("witt.decide_isotropy", "witt.witt_decompose"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = ms(name)
        m[f"{name}.distinct_frac"] = ratio(counts[f"{name}.distinct"],
                                           calls.get(name, 0))
    bf = "witt.brute_force_search"
    m[f"{bf}.calls"] = calls.get(bf, 0)
    m[f"{bf}.self_ms"] = ms(bf)
    m[f"{bf}.found_frac"] = ratio(counts[f"{bf}.found"], calls.get(bf, 0))
    m[f"{bf}.budget_exhausted"] = counts[f"{bf}.budget_exhausted"]
    m["clifford.splitting_index.calls"] = calls.get(
        "clifford.splitting_index", 0)
    for name in ("clifford.splitting_index", "clifford.even_clifford_class",
                 "clifford.build_clifford", "clifford.center_and_idempotents",
                 "chow.chow2_torsion", "chow.chow3_torsion",
                 "cli.parse_job", "cli.run_report"):
        m[f"{name}.self_ms"] = ms(name)
    m["pfister.neighbor.calls"] = calls.get("pfister.neighbor", 0)
    m["pfister.neighbor.self_ms"] = ms("pfister.neighbor")
    m["pfister.neighbor.decompose_per_call"] = ratio(
        counts["pfister.neighbor.decompose"], calls.get("pfister.neighbor", 0))
    return m


def count_mismatches(a, b):
    """Names of the deterministic counts (counters and per-span call counts)
    that differ between two runs."""
    return sorted(
        [n for n in COUNTS if a["counts"].get(n) != b["counts"].get(n)] +
        [f"{n}.calls" for n in set(a["calls"]) | set(b["calls"])
         if a["calls"].get(n) != b["calls"].get(n)])
