"""Span tracing installed from outside the package, and the per-layer numbers
computed from the spans.

``Tracer.install()`` replaces each public layer function by a wrapper in
every ``poisson_kam`` module namespace that binds it (names are bound by
``from ... import``, so patching the defining module alone would miss most
callers) and the series ring operations on the class.  ``uninstall()`` puts
every original back.  A wrapper records one span (name, id, parent, start,
end, thread) per call; parents are tracked per thread.  A span opened on a
thread with nothing open (a persistence-pool worker) takes the innermost
span open on the main thread as its parent: that call is blocked on the
pool, so the worker runs on its behalf.  Spans stay in per-thread buffers
until ``save()`` writes them out.

Nothing here is imported by the package; the parent benchmark process only
uses the pure functions at the bottom (``self_times``, ``layer_metrics``).
"""

import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array

import numpy as np

# (module, attribute) of each module-level function that gets a span; the
# wrapper replaces it in every poisson_kam namespace that binds it
SPAN_FUNCTIONS = [
    ("series", "weighted_norm"),
    ("bracket", "poisson_bracket"),
    ("bracket", "lie_transform"),
    ("bracket", "lie_coordinate_displacement"),
    ("bracket", "lie_contraction"),
    ("homological", "solve_scalar"),
    ("homological", "diophantine_profile"),
    ("kolmogorov", "init_from_problem"),
    ("kolmogorov", "normalization_step"),
    ("kolmogorov", "run"),
    ("kolmogorov", "compose_map"),
    ("dynamics", "integrate"),
    ("dynamics", "torus_persistence_report"),
    ("dynamics", "write_trajectory"),
    ("jsonio", "dumps"),
    ("jsonio", "loads"),
]

# FourierTaylorSeries methods wrapped on the class, with their span names
SERIES_METHODS = [
    ("__mul__", "series.mul"),
    ("__add__", "series.add"),
    ("__radd__", "series.add"),
    ("evaluate", "series.evaluate"),
]

TOP_LEVEL_VERIFY = ("kolmogorov.compose_map", "dynamics.integrate")

# counters merged by minimum instead of sum
MINIMUM_COUNTERS = ("homological.solve_scalar.min_divisor",)


def _now():
    return time.perf_counter()


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {}
        self.minima = {}

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def low(self, name, value):
        self.minima[name] = min(self.minima.get(name, value), value)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count()
        self._names = []
        self._name_index = {}
        self._main = None
        self._undo = []

    # ---- recording ------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
            if threading.current_thread() is threading.main_thread():
                self._main = st
        return st

    def _name_id(self, name):
        with self._lock:
            if name not in self._name_index:
                self._name_index[name] = len(self._names)
                self._names.append(name)
            return self._name_index[name]

    def count(self, name, value):
        self._state().count(name, value)

    def wrap(self, name, fn, hook=None):
        """A wrapper of ``fn`` that records a span named ``name`` per call and
        then calls ``hook(state, args, kwargs, result)`` to record counters
        with ``state.count`` (summed) and ``state.low`` (minimum)."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if st.stack:
                parent = st.stack[-1]
            else:
                main = tracer._main
                parent = main.stack[-1] if main is not None and main is not st and main.stack else -1
            sid = next(tracer._ids)
            st.stack.append(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                st.stack.pop()
                st.ids.append(sid)
                st.parents.append(parent)
                st.names.append(name_id)
                st.starts.append(start)
                st.ends.append(end)
            if hook is not None:
                hook(st, args, kwargs, result)
            return result

        return traced

    # ---- installing -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "poisson_kam" or modname.startswith("poisson_kam.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_on_class(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        """Install every wrapper; call ``uninstall()`` to restore."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import importlib

        import poisson_kam  # noqa: F401  (binds every submodule)
        from poisson_kam import dynamics, problems, series

        self._state()
        hooks = _hooks()
        for modname, attr in SPAN_FUNCTIONS:
            module = importlib.import_module("poisson_kam." + modname)
            original = getattr(module, attr)
            name = "%s.%s" % (modname, attr)
            self._replace_everywhere(original, self.wrap(name, original, hooks.get(name)))
        cls = series.FourierTaylorSeries
        wrapped = {}
        for attr, name in SERIES_METHODS:
            original = cls.__dict__[attr]
            if original not in wrapped:
                wrapped[original] = self.wrap(name, original, hooks.get(name))
            self._replace_on_class(cls, attr, wrapped[original])
        load = problems.Problem.__dict__["load"]
        self._replace_on_class(
            problems.Problem, "load", classmethod(self.wrap("problems.Problem.load", load.__func__))
        )
        self._replace_everywhere(dynamics.solve_ivp, _counting_solve_ivp(dynamics.solve_ivp, self))
        tracker = series.discard_tracker
        self._discard_start = (tracker.total_mass, tracker.events)

    def uninstall(self):
        """Restore every original binding, newest first."""
        from poisson_kam import series

        tracker = series.discard_tracker
        if self._undo:
            mass0, events0 = self._discard_start
            self.count("series.discarded_mass", tracker.total_mass - mass0)
            self.count("series.discard_events", tracker.events - events0)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- output ---------------------------------------------------------

    def arrays(self):
        """All spans as numpy arrays plus the merged counters."""
        states = list(self._states)

        def cat(parts, dtype):
            return np.concatenate([np.asarray(p, dtype=dtype) for p in parts] or [np.zeros(0, dtype)])

        counters = {}
        for s in states:
            for k, v in s.counters.items():
                counters[k] = counters.get(k, 0) + v
            for k, v in s.minima.items():
                counters[k] = min(counters.get(k, v), v)
        spans = {
            "id": cat([s.ids for s in states], np.int64),
            "parent": cat([s.parents for s in states], np.int64),
            "name": cat([s.names for s in states], np.int32),
            "start": cat([s.starts for s in states], np.float64),
            "end": cat([s.ends for s in states], np.float64),
            "thread": cat([[s.index] * len(s.ids) for s in states], np.int32),
        }
        return list(self._names), spans, counters

    def save(self, path):
        names, spans, counters = self.arrays()
        meta = {"names": names, "counters": counters}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **spans)


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "thread")


def load(path):
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        spans = {k: data[k] for k in SPAN_FIELDS}
    return meta, spans


def combine(parts):
    """Merge the (meta, spans) of several traced processes into one: names
    are unified, span ids and threads made distinct per process, counters
    summed (minima kept as minima)."""
    names, counters = [], {}
    merged = {k: [] for k in SPAN_FIELDS}
    id_base = thread_base = 0
    for meta, spans in parts:
        for name in meta["names"]:
            if name not in names:
                names.append(name)
        remap = np.array([names.index(n) for n in meta["names"]], dtype=np.int32)
        merged["name"].append(remap[spans["name"]] if len(spans["name"]) else spans["name"])
        merged["id"].append(spans["id"] + id_base)
        merged["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + id_base, -1))
        merged["thread"].append(spans["thread"] + thread_base)
        merged["start"].append(spans["start"])
        merged["end"].append(spans["end"])
        id_base += int(spans["id"].max()) + 1 if len(spans["id"]) else 0
        thread_base += int(spans["thread"].max()) + 1 if len(spans["thread"]) else 0
        for k, v in meta["counters"].items():
            if k in MINIMUM_COUNTERS:
                counters[k] = min(counters.get(k, v), v)
            else:
                counters[k] = counters.get(k, 0) + v
    spans = {k: np.concatenate(v) for k, v in merged.items()}
    return {"names": names, "counters": counters}, spans


# ---- counters recorded at the wrapped boundaries ---------------------------------


def _hooks():
    from poisson_kam.series import FourierTaylorSeries

    def mul(st, args, kwargs, result):
        f, g = args
        if isinstance(g, FourierTaylorSeries):
            st.count("series.mul.pairs", f.num_terms * g.num_terms)
            st.count("series.mul.terms_out", result.num_terms)

    def lie_terms(name):
        def hook(st, args, kwargs, result):
            st.count(name + ".terms", result[1].s_stop)

        return hook

    def solve_scalar(st, args, kwargs, result):
        st.low(MINIMUM_COUNTERS[0], float(result.min_divisor))

    def run(st, args, kwargs, result):
        st.count("kolmogorov.h_terms", result.normal_form.full.num_terms)
        st.count("kolmogorov.chi_terms", sum(rec.chi.num_terms for rec in result.chi_records))

    def write_trajectory(st, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        st.count("dynamics.write_trajectory.bytes", os.path.getsize(path))

    def dumps(st, args, kwargs, result):
        st.count("jsonio.dumps.bytes", len(result))

    return {
        "series.mul": mul,
        "bracket.lie_transform": lie_terms("bracket.lie_transform"),
        "bracket.lie_coordinate_displacement": lie_terms("bracket.lie_coordinate_displacement"),
        "homological.solve_scalar": solve_scalar,
        "kolmogorov.run": run,
        "dynamics.write_trajectory": write_trajectory,
        "jsonio.dumps": dumps,
    }


def _counting_solve_ivp(solve_ivp, tracer):
    """Counter-only wrapper: no span, so integrate keeps the solver's time as
    its own self time and the evaluate spans stay its children."""

    @functools.wraps(solve_ivp)
    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        tracer.count("dynamics.integrate.rhs_evals", int(sol.nfev))
        tracer.count("dynamics.integrate.accepted_steps", len(sol.t) - 1)
        return sol

    return counted


# ---- analysis (parent process) ----------------------------------------------


def self_times(spans):
    """Self time per span: its duration minus the union of the intervals its
    child spans cover, clipped to the span.  Children on the span's own
    thread never overlap each other, so they are summed; a span with children
    on other threads gets an exact interval union."""
    ids, parents = spans["id"], spans["parent"]
    start, end, thread = spans["start"], spans["end"], spans["thread"]
    dur = end - start
    n = len(ids)
    if n == 0:
        return dur
    order = np.argsort(ids)
    has_parent = parents >= 0
    pos = np.searchsorted(ids, parents[has_parent], sorter=order)
    pidx = order[np.minimum(pos, n - 1)]
    known = ids[pidx] == parents[has_parent]
    child = np.flatnonzero(has_parent)[known]
    pidx = pidx[known]
    cross = thread[child] != thread[pidx]
    covered = np.bincount(pidx[~cross], weights=dur[child[~cross]], minlength=n)
    for p in np.unique(pidx[cross]):
        kids = child[pidx == p]
        lo = np.clip(start[kids], start[p], end[p])
        hi = np.clip(end[kids], start[p], end[p])
        covered[p] = _union_length(lo, hi)
    return dur - covered


def _union_length(lo, hi):
    total, reach = 0.0, -np.inf
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


# per-layer metric name -> (span name, statistic); counters are listed below
_SPAN_STATS = {
    "series.mul": ("calls", "self_s", "p50_us", "p99_us"),
    "series.add": ("calls", "self_s"),
    "series.weighted_norm": ("calls", "self_s"),
    "series.evaluate": ("calls", "self_s", "p50_us"),
    "bracket.poisson_bracket": ("calls", "self_s"),
    "bracket.lie_transform": ("calls", "self_s"),
    "bracket.lie_coordinate_displacement": ("calls", "self_s"),
    "bracket.lie_contraction": ("calls", "self_s"),
    "homological.solve_scalar": ("calls", "self_s"),
    "homological.diophantine_profile": ("calls", "self_s"),
    "kolmogorov.init_from_problem": ("self_s",),
    "kolmogorov.normalization_step": ("calls", "self_s"),
    "kolmogorov.compose_map": ("calls", "self_s", "total_s"),
    "dynamics.integrate": ("calls", "self_s", "total_s"),
    "dynamics.torus_persistence_report": ("self_s",),
    "dynamics.write_trajectory": ("calls", "self_s"),
    "jsonio.dumps": ("calls", "self_s"),
    "jsonio.loads": ("calls", "self_s"),
    "problems.Problem.load": ("self_s",),
}

_COUNTERS = [
    "series.mul.pairs",
    "series.mul.terms_out",
    "series.discarded_mass",
    "series.discard_events",
    "bracket.lie_transform.terms",
    "bracket.lie_coordinate_displacement.terms",
    "kolmogorov.h_terms",
    "kolmogorov.chi_terms",
    "dynamics.integrate.accepted_steps",
    "dynamics.integrate.rhs_evals",
    "dynamics.write_trajectory.bytes",
    "jsonio.dumps.bytes",
    "cli.import_s",
]


def layer_metrics(meta, spans):
    """Per-layer numbers of one traced process, keyed by metric name."""
    names = meta["names"]
    counters = meta["counters"]
    self_s = self_times(spans)
    dur = spans["end"] - spans["start"]
    out = {}
    for span_name, stats in _SPAN_STATS.items():
        mask = (
            spans["name"] == names.index(span_name)
            if span_name in names
            else np.zeros(len(dur), dtype=bool)
        )
        d = dur[mask]
        for stat in stats:
            if stat == "calls":
                value = int(mask.sum())
            elif stat == "self_s":
                value = float(self_s[mask].sum())
            elif stat == "total_s":
                value = float(_top_level_total(spans, mask))
            else:
                q = {"p50_us": 50, "p99_us": 99}[stat]
                value = float(np.percentile(d, q) * 1e6) if len(d) else 0.0
            out["%s.%s" % (span_name, stat)] = value
    for name in _COUNTERS:
        out[name] = counters.get(name, 0)
    pairs = out["series.mul.pairs"]
    out["series.mul.keep_ratio"] = out["series.mul.terms_out"] / pairs if pairs else 0.0
    for name in MINIMUM_COUNTERS:
        out[name] = counters.get(name, 0.0)
    out["dynamics.torus_persistence_report.pool_overlap"] = pool_overlap(names, spans)
    return out


def _top_level_total(spans, mask):
    """Wall time of the spans in ``mask`` that are not nested in another
    span of the same name (a recursive call is not counted twice)."""
    ids = spans["id"][mask]
    inner = np.isin(spans["parent"][mask], ids)
    return float((spans["end"][mask] - spans["start"][mask])[~inner].sum())


def pool_overlap(names, spans):
    """Busy time of the compose_map and integrate spans that the persistence
    report ran directly (on any thread), divided by the report's wall time;
    0 when no report ran."""
    if "dynamics.torus_persistence_report" not in names:
        return 0.0
    report = spans["name"] == names.index("dynamics.torus_persistence_report")
    wall = float((spans["end"][report] - spans["start"][report]).sum())
    busy_names = [names.index(n) for n in TOP_LEVEL_VERIFY if n in names]
    busy = np.isin(spans["name"], busy_names) & np.isin(spans["parent"], spans["id"][report])
    return float((spans["end"][busy] - spans["start"][busy]).sum()) / wall if wall > 0 else 0.0
