"""Layer tracer for one hexsaw CLI job, installed from outside the package.

`Tracer.install()` replaces a fixed list of hexsaw functions and
`Cyclo48` operators with timing wrappers, in every hexsaw module
namespace that binds them.  The package itself is not edited.

Two kinds of record keep a traced job bounded:

* coarse public calls (checks, solves, enumerations) each get a span
  (name, start, end, parent) and aggregated counters;
* hot per-call layers (`Cyclo48` operators, `classify_walk`,
  `diamond_points`, `stickbreak`, `is_irreducible`, and every `next()`
  of the walk generators) only get aggregated counters.

Counters are `[calls, inclusive seconds, self seconds]` per metric name.
Self time is inclusive time minus the time of directly nested wrapped
calls, so each second of a job is charged to exactly one wrapped layer
or to the job's root span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

_clock = time.perf_counter

SPAN, AGG, GEN = "span", "agg", "gen"

# (module, attribute, metric name, kind).  Layer names are the hexsaw
# module names; several attributes may feed one metric.
TARGETS = (
    ("lattice", "classify_walk", "lattice.classify_walk", AGG),
    ("domains", "build_trapezoid", "domains.build", SPAN),
    ("domains", "build_rectangle", "domains.build", SPAN),
    ("domains", "build_strip_prefix", "domains.build", SPAN),
    ("enumeration", "build_tables", "enumeration.build_tables", SPAN),
    ("enumeration", "class_histogram", "enumeration.class_histogram", SPAN),
    ("enumeration", "iter_saws", "enumeration.iter_saws", GEN),
    ("enumeration", "enumerate_loops", "enumeration.enumerate_loops", SPAN),
    ("enumeration", "boundary_tallies", "enumeration.boundary_tallies", SPAN),
    ("enumeration", "evaluate_tally", "enumeration.evaluate_tally", SPAN),
    ("enumeration", "observable_f", "enumeration.observable_f", SPAN),
    ("enumeration", "half_plane_counts", "enumeration.half_plane_counts", SPAN),
    ("identity", "check_local", "identity.check_local", SPAN),
    ("identity", "check_global_trapezoid", "identity.check_global", SPAN),
    ("identity", "check_global_rectangle", "identity.check_global", SPAN),
    ("strip", "build_transfer", "strip.build_transfer", SPAN),
    ("strip", "series_counts", "strip.series_counts", SPAN),
    ("strip", "strip_gf", "strip.strip_gf", SPAN),
    ("strip", "growth_mu", "strip.growth_mu", SPAN),
    ("strip", "solve_yT", "strip.solve_yT", SPAN),
    ("strip", "check_strip_identity", "strip.check_strip_identity", SPAN),
    ("strip", "check_bounds", "strip.check_bounds", SPAN),
    ("bridges", "iter_half_plane_walks", "bridges.half_plane_walks", GEN),
    ("bridges", "iter_bridges", "bridges.iter_bridges", GEN),
    ("bridges", "is_irreducible", "bridges.is_irreducible", AGG),
    ("bridges", "bridge_height_length_counts", "bridges.bridge_counts", SPAN),
    ("bridges", "kesten_partial", "bridges.kesten_partial", SPAN),
    ("bridges", "diamond_points", "bridges.diamond_points", AGG),
    ("bridges", "stickbreak", "bridges.stickbreak", AGG),
    ("bridges", "sample_renewal", "bridges.sample_renewal", SPAN),
)

# Cyclo48 operator -> metric; reflected operators share their metric.
# __bool__, __eq__ and __hash__ stay unwrapped: elimination calls them
# per matrix entry, so their cost is charged to the caller's self time.
CYCLO_OPS = {
    "__add__": "cyclo.add", "__radd__": "cyclo.add",
    "__sub__": "cyclo.sub", "__rsub__": "cyclo.sub",
    "__neg__": "cyclo.neg",
    "__mul__": "cyclo.mul", "__rmul__": "cyclo.mul",
    "__truediv__": "cyclo.div", "__rtruediv__": "cyclo.div",
    "inverse": "cyclo.inverse",
    "__pow__": "cyclo.pow",
    "conjugate": "cyclo.conjugate",
    "sign": "cyclo.sign",
}


def _hexsaw_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hexsaw" or name.startswith("hexsaw."))]


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, list] = {}    # metric -> [calls, incl_s, self_s]
        self.counts: dict[str, int] = {}    # metric -> quantity
        self.spans: list[list] = []         # [name, start, end, parent]
        self._stack: list[list] = []        # [child_s, span index, name]
        self._ops: dict[int, object] = {}   # id -> transfer operator built
        self._saw_keys: dict[str, set] = {}
        self.caches_at_start: dict[str, int] = {}
        self._caches: dict[str, object] = {}

    # -- installation ---------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        mods = _hexsaw_modules()
        for mod in mods:
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    key = f"{mod.__name__.removeprefix('hexsaw.')}.{attr}"
                    tracer._caches[key] = obj
                    tracer.caches_at_start[key] = obj.cache_info().currsize
        for modname, attr, metric, kind in TARGETS:
            orig = getattr(sys.modules[f"hexsaw.{modname}"], attr)
            span_name = f"{modname}.{attr}"
            if kind == GEN:
                wrapped = tracer._wrap_gen(orig, metric)
            else:
                wrapped = tracer._wrap_call(orig, metric, span_name if kind == SPAN else None)
            for mod in mods:
                for name, obj in list(vars(mod).items()):
                    if obj is orig:
                        setattr(mod, name, wrapped)
        cyclo = sys.modules["hexsaw.cyclo"].Cyclo48
        for attr, metric in CYCLO_OPS.items():
            setattr(cyclo, attr, tracer._wrap_call(cyclo.__dict__[attr], metric, None))
        return tracer

    def _stat(self, metric):
        return self.stats.setdefault(metric, [0, 0.0, 0.0])

    def _wrap_call(self, fn, metric, span_name):
        stat = self._stat(metric)
        stack = self._stack
        spans = self.spans
        hook = _HOOKS.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span_name is None:
                frame = [0.0, parent, metric]
            else:
                frame = [0.0, len(spans), metric]
                spans.append([span_name, 0.0, 0.0, parent])
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += own
                if stack:
                    stack[-1][0] += dt
                if span_name is not None:
                    spans[frame[1]][1:3] = [t0, t1]
            if hook is not None:
                hook(self, args, kwargs, result, dt, own)
            return result

        return wrapper

    def _wrap_gen(self, fn, metric):
        """Time each next() of the generator; count the items it yields."""
        stat = self._stat(metric)
        items = f"{metric}.items"
        self.counts.setdefault(items, 0)
        stack = self._stack
        saw_keys = self._saw_keys if metric == "enumeration.iter_saws" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][2] if stack else "cli"
            keys = None if saw_keys is None else saw_keys.setdefault(caller, set())
            stat[0] += 1
            gen = fn(*args, **kwargs)
            n = 0
            try:
                while True:
                    parent = stack[-1][1] if stack else None
                    frame = [0.0, parent, metric]
                    stack.append(frame)
                    t0 = _clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = _clock() - t0
                        stack.pop()
                        stat[1] += dt
                        stat[2] += dt - frame[0]
                        if stack:
                            stack[-1][0] += dt
                    n += 1
                    if keys is not None:
                        keys.add((item.end, item.prev, item.length, item.contacts,
                                  item.winding))
                    yield item
            finally:
                self.counts[items] += n
                if keys is not None:
                    self._count(f"{metric}.{caller}.items", n)
                gen.close()

        return wrapper

    def _count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- output -----------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name):
        """The job's root span (the CLI subcommand)."""
        frame = [0.0, len(self.spans), name]
        span = [name, _clock(), 0.0, None]
        self.spans.append(span)
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = _clock()
            stat = self._stat(name)
            stat[0] += 1
            stat[1] += span[2] - span[1]
            stat[2] += span[2] - span[1] - frame[0]

    def finish(self) -> dict:
        for caller, keys in self._saw_keys.items():
            self._count(f"enumeration.iter_saws.{caller}.keys", len(keys))
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses,
                           "start_size": self.caches_at_start[key]}
        return {"stats": self.stats, "counts": self.counts, "spans": self.spans,
                "caches": caches}


# -- per-metric quantities, computed from a call's arguments and result ----

def _class_histogram(tr, args, kwargs, hist, dt, own):
    tr._count("enumeration.class_histogram.walks", int(hist.sum()))
    tr._count("enumeration.class_histogram.keys", int((hist != 0).sum()))


def _evaluate_tally(tr, args, kwargs, result, dt, own):
    tally = args[0] if args else kwargs["tally"]
    tr._count("enumeration.evaluate_tally.keys", len(tally))


def _enumerate_loops(tr, args, kwargs, loops, dt, own):
    tr._count("enumeration.enumerate_loops.loops", len(loops))


def _build_transfer(tr, args, kwargs, op, dt, own):
    # lru_cache returns the same object on a hit: count each build once
    if id(op) not in tr._ops:
        tr._ops[id(op)] = op
        tr._count("strip.transfer.states", len(op.states))
        tr._count("strip.transfer.transitions", len(op.transitions))


def _strip_gf(tr, args, kwargs, value, dt, own):
    stat = tr._stat(f"strip.strip_gf.{value.mode}")
    stat[0] += 1
    stat[1] += dt
    stat[2] += own


def _check_bounds(tr, args, kwargs, rep, dt, own):
    tr._count("strip.check_bounds.checks", len(rep["checks"]))


def _is_irreducible(tr, args, kwargs, result, dt, own):
    if result:
        tr._count("bridges.irreducible", 1)


_HOOKS = {
    "enumeration.class_histogram": _class_histogram,
    "enumeration.evaluate_tally": _evaluate_tally,
    "enumeration.enumerate_loops": _enumerate_loops,
    "strip.build_transfer": _build_transfer,
    "strip.strip_gf": _strip_gf,
    "strip.check_bounds": _check_bounds,
    "bridges.is_irreducible": _is_irreducible,
}
