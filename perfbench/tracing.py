"""Per-layer tracing of the qgrass package, installed from outside.

``traced(tracer)`` wraps every public function and method of the layer
modules in each namespace that holds it (module globals, class bodies,
the campaign registry), and puts the originals back on exit.  Each call
is a span; the tracer folds spans into totals as they close instead of
keeping them, because a census pass makes millions of calls.  What it
keeps per span name is calls, inclusive time and self time (inclusive
time minus the time of child spans), and per (parent, child) pair the
calls and inclusive time, which is the parentage of every span.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

LAYERS = ("field", "linalg", "grassmann", "schubert", "group", "verify", "cli")

# dunder methods that do work worth a span; the rest (__eq__, __hash__,
# __repr__) run so often that wrapping them mostly measures the wrapper
WRAPPED_DUNDERS = frozenset({"__init__", "__call__", "__and__", "__add__", "__mul__"})

FIELD_OPS = frozenset({"add", "sub", "neg", "mul", "inv", "div", "power", "frobenius", "dot"})

# brute-force ground truth, timed where a campaign or census calls it
ORACLES = frozenset(
    {
        "schubert.equal_oracle",
        "schubert.SchubertVariety.point_set",
        "group.is_automorphism_oracle",
        "group.SemilinearMap.__call__",
    }
)

WITNESS = "schubert.equality_witness"


class Tracer:
    """Aggregates nested spans by name as they close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, child time, marked]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edge_calls = Counter()
        self.edge_time = defaultdict(float)
        self.counters = Counter()

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0, False])

    def exit(self):
        name, start, child, marked = self.stack.pop()
        duration = self.clock() - start
        parent = None
        if self.stack:
            parent = self.stack[-1][0]
            self.stack[-1][2] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.edge_calls[parent, name] += 1
        self.edge_time[parent, name] += duration
        if marked:
            self.counters[name + ".marked"] += 1

    def mark(self, name):
        """Flag the innermost open span with this name, if there is one."""
        for frame in reversed(self.stack):
            if frame[0] == name:
                frame[3] = True
                return

    def span(self, name, fn, pre=None, post=None):
        """fn wrapped so each call (each resumption, for a generator) is a span."""
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(self, args)
                return self._resumptions(name, fn(*args, **kwargs))

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if post is not None:
                post(self, result)
            return result

        return wrapper

    def _resumptions(self, name, it):
        yields = name + ".yields"
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            self.counters[yields] += 1
            yield item

    # -- sums over names --------------------------------------------------

    def _sum(self, table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def calls_of(self, prefix):
        return self._sum(self.calls, prefix)

    def self_of(self, prefix):
        return self._sum(self.self_time, prefix)


# -- hooks that count what a layer did -----------------------------------------


def _untabled(tracer, args):
    gf = args[0]
    if gf.e > 1 and gf._tables is None:
        tracer.counters["field.untabled_calls"] += 1


def _point_set_reuse(tracer, args):
    if args[0]._point_set is not None:
        tracer.counters["schubert.point_set.reused"] += 1


def _scan(tracer, args):
    tracer.mark(WITNESS)


def _campaign_cases(tracer, report):
    tracer.counters["verify.cases"] += report.cases_tested


def _census_cases(tracer, report):
    tracer.counters["verify.cases"] += report.tested
    tracer.counters["group.census_oracle_calls"] += report.oracle_checked


HOOKS = {
    "grassmann.enumerate_grassmannian": (_scan, None),
    "schubert.SchubertVariety.point_set": (_point_set_reuse, None),
    "verify.stabilizer_census": (None, _census_cases),
}


def _hooks(layer, span_name, fn):
    if span_name in HOOKS:
        return HOOKS[span_name]
    if layer == "field" and span_name.startswith("field.GF.") and fn.__name__ in FIELD_OPS:
        return _untabled, None
    if layer == "verify" and fn.__name__.startswith("verify_"):
        return None, _campaign_cases
    return None, None


# -- installing and removing the wrappers --------------------------------------


def _namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "qgrass" or name.startswith("qgrass.")]


def _targets():
    """(span name, layer, function, holders) for each function to wrap.

    A holder is (container, key, value in container); the value is the
    function itself, or the classmethod object that holds it.
    """
    for layer in LAYERS:
        importlib.import_module(f"qgrass.{layer}")
    namespaces = _namespaces()
    # public dicts of functions, such as the campaign registry the CLI uses
    registries = {
        id(v): v
        for m in namespaces
        for k, v in vars(m).items()
        if isinstance(v, dict) and not k.startswith("_")
    }
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"qgrass.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.setdefault(id(obj), (f"{layer}.{obj.__name__}", layer, obj, []))
            elif inspect.isclass(obj):
                for key, value in vars(obj).items():
                    fn = value.__func__ if isinstance(value, classmethod) else value
                    if not inspect.isfunction(fn):
                        continue
                    if key.startswith("_") and key not in WRAPPED_DUNDERS:
                        continue
                    entry = found.setdefault(id(fn), (f"{layer}.{obj.__name__}.{fn.__name__}", layer, fn, []))
                    entry[3].append((obj, key, value))
    for entry in found.values():
        fn = entry[2]
        for container in namespaces + list(registries.values()):
            table = container if isinstance(container, dict) else vars(container)
            for key, value in list(table.items()):
                if value is fn:
                    entry[3].append((container, key, value))
    return [entry for entry in found.values() if entry[3]]


def _put(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


@contextmanager
def traced(tracer):
    """Wrap the layers for the duration of the block; yields the patch list."""
    patches = []
    try:
        for name, layer, fn, holders in _targets():
            pre, post = _hooks(layer, name, fn)
            wrapper = tracer.span(name, fn, pre, post)
            for container, key, original in holders:
                replacement = classmethod(wrapper) if isinstance(original, classmethod) else wrapper
                _put(container, key, replacement)
                patches.append((container, key, original))
        yield patches
    finally:
        for container, key, original in reversed(patches):
            _put(container, key, original)


# -- the per-layer metrics ------------------------------------------------------

# name, unit, better, the end-to-end metric it should move (on which workload)
LAYER_METRICS = [
    ("field.calls", "count", "lower", "items_per_s and task_tail_ms on fields"),
    ("field.self_s", "s", "lower", "items_per_s and task_tail_ms on fields"),
    ("field.untabled_calls", "count", "lower", "task_tail_ms and items_per_s on fields; setup_s on fields"),
    ("linalg.rref.calls", "count", "lower", "items_per_s on campaigns (contains) and census (from_rows)"),
    ("linalg.rref.self_s", "s", "lower", "items_per_s on campaigns and census"),
    ("linalg.rref.us_per_call", "us", "lower", "items_per_s on campaigns and census"),
    ("linalg.kernel.calls", "count", "lower", "items_per_s on campaigns"),
    ("linalg.intersect.calls", "count", "lower", "items_per_s on campaigns"),
    ("linalg.intersect.self_s", "s", "lower", "items_per_s on campaigns"),
    ("linalg.matmul.calls", "count", "lower", "items_per_s on census"),
    ("linalg.subspaces_built", "count", "lower", "items_per_s on campaigns and census; peak_rss_mb on fields"),
    ("linalg.self_s", "s", "lower", "items_per_s on campaigns and census"),
    ("grassmann.points_yielded", "count", "lower", "items_per_s on campaigns; peak_rss_mb on fields"),
    ("grassmann.self_s", "s", "lower", "items_per_s on campaigns; peak_rss_mb on fields"),
    ("grassmann.random_flag.calls", "count", "lower", "items_per_s on campaigns"),
    ("schubert.contains.calls", "count", "lower", "items_per_s on campaigns and fields, flat on census"),
    ("schubert.contains.self_s", "s", "lower", "items_per_s on campaigns and fields, flat on census"),
    ("schubert.point_set.calls", "count", "lower", "items_per_s on campaigns and fields"),
    ("schubert.point_set.reuse_ratio", "ratio", "higher", "items_per_s on campaigns and fields"),
    ("schubert.witness.calls", "count", "lower", "task_tail_ms on campaigns"),
    ("schubert.witness.scan_ratio", "ratio", "lower", "task_tail_ms on campaigns"),
    ("group.apply.calls", "count", "lower", "items_per_s on census; small on campaigns"),
    ("group.apply.self_s", "s", "lower", "items_per_s on census; small on campaigns"),
    ("group.maps_enumerated", "count", "lower", "items_per_s on census"),
    ("group.fast.calls", "count", "lower", "items_per_s on census"),
    ("group.oracle.calls", "count", "lower", "items_per_s on census; small on campaigns"),
    ("group.self_s", "s", "lower", "items_per_s on census; small on campaigns"),
    ("verify.cases", "count", "higher", "items_per_s on campaigns"),
    ("verify.self_s", "s", "lower", "items_per_s on campaigns"),
    ("verify.oracle_share", "ratio", "lower", "items_per_s on campaigns"),
    ("cli.calls", "count", "higher", "task_p50_ms on fields"),
    ("cli.self_s", "s", "lower", "task_p50_ms on fields"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("setup.fields_s", "s", "lower", "setup_s on every workload"),
    ("setup.inputs_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead", "ratio", "lower", "none: read traced times with it"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    """Per-layer figures of one traced pass, from the tracer's totals."""
    rref = "linalg.rref"
    campaign_time = sum(
        t for (p, c), t in tr.edge_time.items() if c.startswith("verify.") and not (p or "").startswith("verify.")
    )
    oracle_time = sum(t for (p, c), t in tr.edge_time.items() if c in ORACLES and (p or "").startswith("verify."))
    point_sets = tr.calls["schubert.SchubertVariety.point_set"]
    witnesses = tr.calls[WITNESS]
    return {
        "field.calls": tr.calls_of("field"),
        "field.self_s": tr.self_of("field"),
        "field.untabled_calls": tr.counters["field.untabled_calls"],
        "linalg.rref.calls": tr.calls[rref],
        "linalg.rref.self_s": tr.self_time[rref],
        "linalg.rref.us_per_call": 1e6 * _ratio(tr.total[rref], tr.calls[rref]),
        "linalg.kernel.calls": tr.calls["linalg.kernel"],
        "linalg.intersect.calls": tr.calls["linalg.Subspace.intersect"],
        "linalg.intersect.self_s": tr.self_time["linalg.Subspace.intersect"],
        "linalg.matmul.calls": tr.calls["linalg.matmul"],
        "linalg.subspaces_built": tr.calls["linalg.Subspace.__init__"],
        "linalg.self_s": tr.self_of("linalg"),
        "grassmann.points_yielded": tr.counters["grassmann.enumerate_grassmannian.yields"],
        "grassmann.self_s": tr.self_of("grassmann"),
        "grassmann.random_flag.calls": tr.calls["grassmann.random_flag"],
        "schubert.contains.calls": tr.calls["schubert.SchubertVariety.contains"],
        "schubert.contains.self_s": tr.self_time["schubert.SchubertVariety.contains"],
        "schubert.point_set.calls": point_sets,
        "schubert.point_set.reuse_ratio": _ratio(tr.counters["schubert.point_set.reused"], point_sets),
        "schubert.witness.calls": witnesses,
        "schubert.witness.scan_ratio": _ratio(tr.counters[WITNESS + ".marked"], witnesses),
        "group.apply.calls": tr.calls["group.SemilinearMap.__call__"],
        "group.apply.self_s": tr.self_time["group.SemilinearMap.__call__"],
        "group.maps_enumerated": tr.counters["group.enumerate_invertible.yields"],
        "group.fast.calls": tr.calls["group.is_automorphism_fast"],
        "group.oracle.calls": tr.calls["group.is_automorphism_oracle"] + tr.counters["group.census_oracle_calls"],
        "group.self_s": tr.self_of("group"),
        "verify.cases": tr.counters["verify.cases"],
        "verify.self_s": tr.self_of("verify"),
        "verify.oracle_share": _ratio(oracle_time, campaign_time),
        "cli.calls": tr.calls["cli.main"],
        "cli.self_s": tr.self_of("cli"),
    }


def median_metrics(passes):
    """Median of each figure over several traced passes."""
    return {name: median(p[name] for p in passes) for name in passes[0]}
