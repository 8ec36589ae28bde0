"""Span recording around barenheat's functions, installed from outside.

The program binds many functions under several names: ``stepper`` does
``from .grids import solve_shifted``, the package re-exports everything, and
``cli`` keeps its subcommands in a dict.  Patching only the defining module
would miss those copies, so ``Patcher`` replaces a function object wherever
a barenheat module or one of its module-level dicts holds it, and puts the
originals back on ``restore``.

``Tracer`` wraps every public function and public method of every barenheat
module, plus the CSV/JSON writers of ``cli`` and the ``cg`` name that
``grids`` imports from scipy.  Each call becomes a span
``(id, name, start, end, parent, thread)`` kept in memory; ``summarize``
turns the spans of one command into calls, total and self time per name.
``Probe`` is the untraced run's only hook: it wraps ``run_additive`` and
``mc_expectation`` to timestamp the end of set-up and keep the last
trajectory.
"""

import collections
import itertools
import os
import sys
import threading
import time
import types

PACKAGE = "barenheat"


def _modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patcher:
    """Replaces function objects at every binding site in the package."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, original))

    def replace_method(self, cls, attr, wrapper):
        self._undo.append((setattr, cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()


def public_callables():
    """(name, owner, attr, function) for every public function and method."""
    found = []
    for module in _modules():
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, types.FunctionType):
                found.append((f"{short}.{attr}", None, attr, value))
            elif isinstance(value, type):
                for method, func in vars(value).items():
                    if not method.startswith("_") and isinstance(func, types.FunctionType):
                        found.append((f"{short}.{attr}.{method}", value, method, func))
    return found


class Tracer:
    """In-memory span recorder for one command at a time."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patcher = Patcher()

    def reset(self):
        self.spans = []
        self.counts = collections.Counter()

    def add(self, counter, amount=1):
        with self._lock:
            self.counts[counter] += amount

    def call(self, name, func, args, kwargs, parent=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def current_span(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _wrapper(self, name, func, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, func, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the package; counters and special cases are listed here."""
        special = {
            "stepper.step": lambda args, result: self.add(
                "stepper.inner_iterations", result[1].inner_iterations),
        }
        for name, owner, attr, func in public_callables():
            if name == "diagnostics.mc_expectation":
                wrapper = self._mc_wrapper(func)
            else:
                wrapper = self._wrapper(name, func, special.get(name))
            if owner is None:
                self._patcher.replace(func, wrapper)
            else:
                self._patcher.replace_method(owner, attr, wrapper)
        from barenheat import cli, grids

        def count_bytes(args, result):
            self.add("cli.write.bytes", os.path.getsize(args[0]))

        for writer in (cli._write_csv, cli._write_json):
            self._patcher.replace(writer, self._wrapper("cli.write", writer, count_bytes))
        self._patcher.replace(grids.cg, self._cg_wrapper(grids.cg))

    def restore(self):
        self._patcher.restore()

    def _mc_wrapper(self, func):
        """Monte Carlo samples run on pool threads; parent them explicitly."""
        tracer = self

        def wrapper(sample, *args, **kwargs):
            def body(*body_args, **body_kwargs):
                owner = tracer.current_span()

                def traced_sample(*sample_args):
                    return tracer.call("diagnostics.mc_sample", sample, sample_args, {},
                                       parent=owner)

                return func(traced_sample, *body_args, **body_kwargs)

            return tracer.call("diagnostics.mc_expectation", body, args, kwargs)

        return wrapper

    def _cg_wrapper(self, cg):
        tracer = self

        def wrapper(*args, callback=None, **kwargs):
            def counted(xk):
                tracer.add("grids.cg.iterations")
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=counted, **kwargs)

        return wrapper

    def write(self, path):
        """Write the spans as CSV: id, name, start, end, parent, thread."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start_s,end_s,parent,thread\n")
            for span_id, name, start, end, parent, thread in sorted(self.spans):
                handle.write(f"{span_id},{name},{start!r},{end!r},{parent or ''},{thread}\n")


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time subtracts the children that ran on the span's own thread; a
    Monte Carlo sample on a pool thread does not reduce its caller's time.
    """
    thread_of = {span[0]: span[5] for span in spans}
    child_time = collections.Counter()
    for _, _, start, end, parent, thread in spans:
        if parent is not None and thread_of.get(parent) == thread:
            child_time[parent] += end - start
    table = {}
    for span_id, name, start, end, _, _ in spans:
        entry = table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[span_id]
    return table


def count_under(spans, name, ancestor):
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    by_id = {span[0]: span for span in spans}
    total = 0
    for span in spans:
        if span[1] != name:
            continue
        parent = span[4]
        while parent is not None:
            above = by_id[parent]
            if above[1] == ancestor:
                total += 1
                break
            parent = above[4]
    return total


class Probe:
    """Marks the end of set-up and keeps the last trajectory.

    Set-up ends at the first call of ``mc_expectation`` (Monte Carlo
    commands, on the calling thread before any pool thread starts) or of
    ``run_additive`` (single-path commands), whichever comes first.
    """

    def __init__(self):
        self.first_step = None
        self.last = None
        self._patcher = Patcher()

    def reset(self):
        self.first_step = None
        self.last = None

    def _mark(self):
        if self.first_step is None:
            self.first_step = time.perf_counter()

    def install(self):
        from barenheat import diagnostics, stepper

        run_additive, mc_expectation = stepper.run_additive, diagnostics.mc_expectation
        probe = self

        def run_wrapper(*args, **kwargs):
            probe._mark()
            probe.last = run_additive(*args, **kwargs)
            return probe.last

        def mc_wrapper(*args, **kwargs):
            probe._mark()
            return mc_expectation(*args, **kwargs)

        self._patcher.replace(run_additive, run_wrapper)
        self._patcher.replace(mc_expectation, mc_wrapper)

    def restore(self):
        self._patcher.restore()
