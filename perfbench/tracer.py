"""In-memory span tracer and the layer instrumentation of putpricer.

`instrument` wraps putpricer's public functions at the names their callers
use: a function that `cli` imported from `exact_pricing` is wrapped in
`cli`'s namespace, and the `hpm_series` functions, which callers reach
through the module object, are wrapped in `hpm_series` itself.  Each wrapper
opens a span named `<layer>.<function>`, where the layer is the module that
defines the function.  A call made while a span of the same layer is the
innermost open span opens no span of its own, so every span marks a layer
boundary and the per-layer call counts are boundary crossings.

Nothing under `src/` is changed; the wrappers are installed on the imported
modules of the benchmark process only and `instrument` returns a function
that removes them again.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import threading
import time

# modules whose public functions and classes are wrapped, in import order
LAYERS = ("special_functions", "transforms", "config", "exact_pricing",
          "hpm_series", "pde_oracle", "surface")
# modules that only call into the layers above; their own functions are the
# benchmark's entry points, timed by spans the benchmark opens itself
CALLERS = ("cli", "validation")
SPEC_CLASSES = ("VanillaOptionSpec", "BasketSpec", "QuantoSpec")
TERM_FUNCTIONS = ("phi_term", "single_asset_term", "basket_term_literal")


class Span:
    """A timed call: wall-clock `start`/`end` and CPU-time `cpu_start`/`cpu_end`."""

    __slots__ = ("name", "layer", "parent", "start", "end", "cpu_start", "cpu_end")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.cpu_start = 0.0
        self.end = self.cpu_end = None


class Tracer:
    """Spans with a per-thread parent stack, plus named counters.

    A thread whose stack is empty parents its spans on `root`, the outermost
    span the benchmark opened with `span(..., root=True)`, so work handed to
    a thread pool is attributed to the operation that submitted it.

    Besides wall time every span records CPU time: its own thread's
    (`thread_cpu`) for a layer span, the whole process's (`process_cpu`) for
    a root span, which covers the pool threads working for it.  Threads that
    wait for the GIL or for each other accrue no CPU time, so CPU self times
    of concurrent spans add up to the work done, not to the threads' waits.
    """

    def __init__(self, clock=time.perf_counter, thread_cpu=time.thread_time,
                 process_cpu=time.process_time):
        self.clock = clock
        self.thread_cpu = thread_cpu
        self.process_cpu = process_cpu
        self.spans = []
        self.enabled = True
        self.root = None
        self._local = threading.local()
        self._thread_counts = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = {}
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def innermost(self):
        stack = self._state().stack
        return stack[-1] if stack else self.root

    def open(self, name, layer, root=False):
        state = self._state()
        parent = state.stack[-1] if state.stack else self.root
        span = Span(name, layer, parent)
        state.stack.append(span)
        self.spans.append(span)
        if root:
            self.root = span
        span.cpu_start = (self.process_cpu if root else self.thread_cpu)()
        span.start = self.clock()
        return span

    def close(self, span):
        span.end = self.clock()
        span.cpu_end = (self.process_cpu if span is self.root else self.thread_cpu)()
        popped = self._state().stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name, layer=None, root=False):
        opened = self.open(name, layer or name.split(".")[0], root)
        try:
            yield opened
        finally:
            self.close(opened)
            if root:
                self.root = None

    def count(self, key, amount=1):
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + amount

    def counters(self):
        total = {}
        with self._lock:
            for counts in self._thread_counts:
                for key, value in counts.items():
                    total[key] = total.get(key, 0) + value
        return total

    @contextlib.contextmanager
    def suspended(self):
        """Let wrapped calls through untraced, e.g. while outputs are checked."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write(self, path):
        """Write every closed span as one CSV line: id, name, parent id, start, end, CPU time."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,parent,start_s,end_s,cpu_s\n")
            for i, span in enumerate(self.spans):
                if span.end is None:
                    continue
                parent = ids.get(id(span.parent), "") if span.parent else ""
                handle.write(f"{i},{span.name},{parent},{span.start:.9f},{span.end:.9f},"
                             f"{span.cpu_end - span.cpu_start:.9f}\n")


def self_times(spans):
    """Map each closed span to its CPU time minus its children's CPU time.

    A layer span's children run on its own thread, inside its thread CPU
    time; a root span's children may run on pool threads, inside the
    process CPU time the root records.  Either way the children's CPU time
    is part of the parent's, so it is subtracted whole.
    """
    out = {id(span): span.cpu_end - span.cpu_start for span in spans if span.end is not None}
    for span in spans:
        if span.parent is not None and span.end is not None and id(span.parent) in out:
            out[id(span.parent)] -= span.cpu_end - span.cpu_start
    return out


# ---------------------------------------------------------------------------
# instrumentation of putpricer
# ---------------------------------------------------------------------------


def _size(value):
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_extra(tracer, layer, func, args, kwargs, boundary):
    """Layer-specific work counters; `boundary` is False for nested calls."""
    if layer == "hpm_series" and func in TERM_FUNCTIONS:
        tracer.count("hpm_series.term_evals")
        tracer.count("hpm_series.term_elems", _size(_arg(args, kwargs, 1, "xi")))
    if not boundary:
        return
    if layer == "special_functions":
        tracer.count("special_functions.elems", _size(args[0] if args else 1))
    elif layer == "transforms" and func in SPEC_CLASSES:
        tracer.count("transforms.spec_builds")
    elif layer == "pde_oracle" and func == "cn_solve":
        grid = _arg(args, kwargs, 2, "grid")
        tracer.count("pde_oracle.solves")
        tracer.count("pde_oracle.node_steps", grid.ny * grid.n_steps)
    elif layer == "pde_oracle" and func in ("fd_residual", "richardson_residual"):
        tracer.count("pde_oracle.residual_calls")


def _wrap(tracer, fn, layer, func):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        inner = tracer.innermost()
        boundary = inner is None or inner.layer != layer
        _count_extra(tracer, layer, func, args, kwargs, boundary)
        if not boundary:
            return fn(*args, **kwargs)
        span = tracer.open(f"{layer}.{func}", layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return traced


def _wrap_write_csv(tracer, fn):
    @functools.wraps(fn)
    def traced(surface, path):
        if not tracer.enabled:
            return fn(surface, path)
        span = tracer.open("surface.write_csv", "surface")
        try:
            fn(surface, path)
        finally:
            tracer.close(span)
        tracer.count("surface.rows_written", surface.n_rows)
        tracer.count("surface.bytes_written", os.path.getsize(path))
    return traced


def instrument(tracer):
    """Install the wrappers; returns a function that restores the originals."""
    modules = {name: importlib.import_module(f"putpricer.{name}")
               for name in LAYERS + CALLERS}
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer in LAYERS:
                replace(module, attr, _wrap(tracer, obj, layer, attr))

    # constructors: every transforms dataclass, the config object and its methods
    for name, obj in vars(modules["transforms"]).items():
        if inspect.isclass(obj) and obj.__module__ == "putpricer.transforms":
            replace(obj, "__init__", _wrap(tracer, obj.__init__, "transforms", name))
    config_cls = modules["config"].ExperimentConfig
    for attr, obj in list(vars(config_cls).items()):
        if isinstance(obj, classmethod):
            replace(config_cls, attr,
                    classmethod(_wrap(tracer, obj.__func__, "config", attr)))
        elif inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
            replace(config_cls, attr, _wrap(tracer, obj, "config", attr))

    surface_cls = modules["surface"].PriceSurface
    replace(surface_cls, "write_csv", _wrap_write_csv(tracer, surface_cls.write_csv))

    validation = modules["validation"]
    checks = tuple(_wrap_check(tracer, check) for check in validation.ALL_CHECKS)
    replace(validation, "ALL_CHECKS", checks)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _wrap_check(tracer, check):
    name = f"validation.{check.__name__.removeprefix('check_')}"

    @functools.wraps(check)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return check(*args, **kwargs)
        with tracer.span(name, "validation", root=True):
            return check(*args, **kwargs)
    return traced
