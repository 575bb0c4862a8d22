"""Span tracer that times calls into georisk from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``georisk.geometry`` ... ``georisk.cli``) with a timing wrapper, in every
``georisk.*`` namespace that binds it, so calls between modules and calls
within one module both pass through the wrapper. Three methods are wrapped
on their classes as well. ``Tracer.uninstall`` puts every original back.

Spans stay in memory until ``write_jsonl``. The tracer is meant for
single-threaded runs (the benchmark runs georisk with ``--threads 1``):
one stack of open spans gives each span its parent.

Peak memory per top-level span comes from a thread that samples the
process's resident set size every ``RSS_INTERVAL_S``. tracemalloc would
count allocations exactly, but it tripled the wall time of a simulation
study (measured overhead 199%), which would distort every layer time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "geometry", "numerics", "trend", "variogram", "kriging",
    "bootstrap", "simulation", "io", "cli",
)

# (layer, class, method, span name)
METHODS = (
    ("bootstrap", "BootstrapEngine", "replicate_values", "bootstrap.replicate_values"),
    ("variogram", "VariogramModel", "semivariance", "variogram.semivariance"),
    ("simulation", "ExponentialVariogram", "semivariance", "variogram.semivariance"),
)

TREND_SCORES = ("cv_score", "gcv_score", "cgcv_score", "mase_score")

RSS_INTERVAL_S = 0.002
_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss() -> int:
    """Resident set size of this process in bytes (Linux)."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE


class RssSampler:
    """Background thread keeping the highest RSS seen since ``reset``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._peak = 0
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            rss = current_rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)

    def reset(self) -> int:
        """Restart the peak at the current RSS and return that RSS."""
        rss = current_rss()
        with self._lock:
            self._peak = rss
        return rss

    def peak(self) -> int:
        rss = current_rss()
        with self._lock:
            return max(self._peak, rss)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rep", "peak_mb", "extra")

    def __init__(self, id_, name, start, parent, rep):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rep = rep
        self.peak_mb = None
        self.extra = None

    def as_dict(self):
        out = {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "rep": self.rep,
        }
        if self.peak_mb is not None:
            out["peak_alloc_mb"] = self.peak_mb
        return out


class Tracer:
    """Records one span per wrapped call.

    With ``memory=True`` every span opened directly under the root span
    (a top-level span) also records its peak RSS above the RSS at its
    start, in MB.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.replicate = None
        self._stack: list[Span] = []
        self._patches: list = []
        self._t0 = time.perf_counter()
        self._mem_base: dict = {}
        self._sampler = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter() - self._t0, parent, self.replicate)
        self.spans.append(span)
        self._stack.append(span)
        if self._sampler is not None and len(self._stack) == 2:
            self._mem_base[span.id] = self._sampler.reset()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter() - self._t0
        if self._sampler is not None and len(self._stack) == 2:
            span.peak_mb = (self._sampler.peak() - self._mem_base.pop(span.id)) / 2**20
        self._stack.pop()

    def parent_of(self, span: Span):
        return None if span.parent is None else self.spans[span.parent]

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if name == "simulation.simulate_field":
                tracer.replicate = span.rep = int(_arg(fn, args, kwargs, "replicate_index"))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, span, fn, args, kwargs, result)
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"georisk.{layer}") for layer in LAYERS}
        # keyed by id: module namespaces also hold unhashable values
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "georisk" or name.startswith("georisk.")):
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth, span_name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original))
        if self.memory:
            self._sampler = RssSampler()
            self._sampler.start()
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


@functools.lru_cache(maxsize=None)
def _param_index(fn, name) -> int:
    return list(inspect.signature(fn).parameters).index(name)


def _arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call of ``fn``, or None."""
    if name in kwargs:
        return kwargs[name]
    k = _param_index(fn, name)
    return args[k] if k < len(args) else None


# -- counters recorded at layer boundaries ----------------------------------


def _count_replicates(tracer, span, fn, args, kwargs, result):
    tracer.counts["bootstrap.replicates"] += len(_arg(fn, args, kwargs, "idx"))


def _count_cholesky(tracer, span, fn, args, kwargs, result):
    tracer.counts["numerics.cholesky.ridged"] += int(result.ridge > 0.0)


def _note_default_grid(key):
    def hook(tracer, span, fn, args, kwargs, result):
        parent = tracer.parent_of(span)
        if parent is not None:
            parent.extra = {key: len(result)}
    return hook


def _count_trend_search(tracer, span, fn, args, kwargs, result):
    grid = _arg(fn, args, kwargs, "search_grid")
    offered = len(grid) if hasattr(grid, "__len__") else (span.extra or {}).get("offered", 0)
    tracer.counts["trend.candidates_offered"] += offered


def _count_trend_score(tracer, span, fn, args, kwargs, result):
    parent = tracer.parent_of(span)
    if parent is not None and parent.name == "trend.select_bandwidth":
        tracer.counts["trend.candidates_scored"] += 1


def _count_lag_search(tracer, span, fn, args, kwargs, result):
    n = len(_arg(fn, args, kwargs, "residuals"))
    cands = _arg(fn, args, kwargs, "candidates")
    k = len(cands) if hasattr(cands, "__len__") else (span.extra or {}).get("candidates", 0)
    tracer.counts["variogram.loo_pairs"] += n * (n - 1) // 2 * k


_HOOKS = {
    "bootstrap.replicate_values": _count_replicates,
    "numerics.cholesky": _count_cholesky,
    "trend.default_bandwidth_grid": _note_default_grid("offered"),
    "trend.select_bandwidth": _count_trend_search,
    "variogram.default_lag_bandwidths": _note_default_grid("candidates"),
    "variogram.select_lag_bandwidth": _count_lag_search,
    **{f"trend.{score}": _count_trend_score for score in TREND_SCORES},
}


# -- summaries ---------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _union_length(children.get(s.id, ())) for s in spans
    ]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive seconds count only the outermost span of a name, so a
    function that reaches itself through another name (``risk_map`` calls
    ``risk_maps``) is not counted twice.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, self_s in zip(spans, selfs):
        entry = out[s.name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        p = s.parent
        nested = False
        while p is not None:
            if by_id[p].name == s.name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            entry["s"] += s.end - s.start
    return dict(out)


def root_coverage(spans) -> float:
    """Share of the root span's time covered by its direct children."""
    roots = [s for s in spans if s.parent is None]
    if not roots:
        return 0.0
    root = roots[0]
    kids = [(s.start, s.end) for s in spans if s.parent == root.id]
    duration = root.end - root.start
    return _union_length(kids) / duration if duration > 0 else 0.0


def replicate_times(spans) -> list:
    """Replicate durations from the starts of successive simulate_field
    calls; the last replicate ends with its run_scenario span. A second
    call for the same replicate (the shared lag-bandwidth tuning draws
    replicate 0 first) restarts that replicate's clock."""
    out = []
    by_id = {s.id: s for s in spans}
    runs = [s for s in spans if s.name == "simulation.run_scenario"]
    for run in runs:
        fields = []
        for s in spans:
            if s.name != "simulation.simulate_field" or not (run.start <= s.start <= run.end):
                continue
            p = s.parent
            while p is not None and p != run.id:
                p = by_id[p].parent
            if p == run.id:
                fields.append(s)
        for a, b in zip(fields, fields[1:] + [None]):
            if b is not None and b.rep == a.rep:
                continue
            out.append((b.start if b is not None else run.end) - a.start)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values``; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q)) - 1])
