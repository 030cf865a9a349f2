"""Per-module tracing of one opconv pass, done from outside the program.

`Tracer.install()` wraps the public functions and methods of opconv's
modules in place and `uninstall()` puts the originals back; the program's
files are never edited.  Each wrapped call is a span at a module boundary:

* Module self time.  Every thread keeps a stack of the modules of its open
  wrapped calls, and the thread CPU time between two span events is charged
  to the module on top.  Code that is not wrapped (smcore's step loop, the
  cache listeners smcore registers) is charged to the nearest wrapped caller.
  CPU time rather than wall time, because on the two-thread workload a
  thread waiting for the interpreter lock would otherwise be charged too.
* Per-function calls from another module and their inclusive CPU time.  A
  call from a module into itself is passed straight through, so for example
  `MemoryImage.dot` counts the simulator's calls and not the reference
  convolution's.
* Wall-clock spans of the cli entry points, kept in memory, from which cli's
  self time is found by interval coverage.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import threading
import time
import types
from collections import defaultdict

# Modules whose public functions and methods are wrapped.
WHOLE_MODULES = ("workload", "oracle", "cachehier", "intra", "inter", "metrics")

# Public helpers that only their own module calls.  A call from a module
# into itself crosses no boundary and adds nothing to the figures, and these
# run several times per simulated op, so they are left unwrapped.
INTERNAL = {
    "NocModel.coords", "NocModel.hops", "NocModel.flits", "NocModel.latency",
    "LruCache.touch", "LruCache.install", "LruCache.access",
    "MemoryHierarchy.home_mc", "MemoryHierarchy.miss_path_latency",
    "MemoryImage.input_vec", "MemoryImage.weight_vec",
}

# Entry points wrapped where cli looks them up, with the layer they belong
# to.  smcore's own helpers run on every simulated step, and wrapping them
# would only split smcore's self time, so smcore is entered through
# run_simulation alone.
CLI_ENTRIES = {
    "run_experiment": "cli",
    "build_layers": "cli",
    "LayerRun": "cli",
    "run_one": "cli",
    "run_simulation": "smcore",
}


class _ThreadState:
    __slots__ = ("stack", "mark", "self_s", "calls", "incl_s")

    def __init__(self):
        self.stack = []                    # modules of the open wrapped calls
        self.mark = 0.0                    # thread CPU time of the last event
        self.self_s = defaultdict(float)   # module -> CPU seconds
        self.calls = defaultdict(int)      # qualname -> calls from other modules
        self.incl_s = defaultdict(float)   # qualname -> CPU seconds of those calls


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []   # (owner, attribute, original), in patch order
        self.spans = []      # (qualname, wall start, wall end) of cli entries

    # ---- recording -------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def _wrap(self, original, module, qualname, span):
        fn = original
        if inspect.isgeneratorfunction(original):
            # consume inside the span, or the span would end before the work
            def fn(*args, **kwargs):
                return iter(list(original(*args, **kwargs)))

        clock = time.thread_time
        wall = time.perf_counter
        state = self._state
        spans = self.spans

        def traced(*args, **kwargs):
            t = state()
            stack = t.stack
            if not span and stack and stack[-1] == module:
                # a module's call into itself crosses no boundary
                return fn(*args, **kwargs)
            start = clock()
            if stack:
                t.self_s[stack[-1]] += start - t.mark
            stack.append(module)
            t.mark = start
            if span:
                wall_start = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t.self_s[module] += end - t.mark
                t.mark = end
                t.incl_s[qualname] += end - start
                t.calls[qualname] += 1
                if span:
                    spans.append((qualname, wall_start, wall()))

        return functools.wraps(original)(traced)

    # ---- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, module, span=False, only_init=False):
        for attr, member in list(vars(cls).items()):
            if not isinstance(member, types.FunctionType):
                continue
            # a dataclass's generated __init__ only stores fields
            is_init = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if only_init and not is_init:
                continue
            if attr.startswith("_") and not is_init:
                continue
            qualname = cls.__name__ if only_init else f"{cls.__name__}.{attr}"
            if qualname not in INTERNAL:
                self._patch(cls, attr, self._wrap(member, module, qualname, span))

    def install(self):
        package = importlib.import_module("opconv")
        modules = {name: importlib.import_module(f"opconv.{name}")
                   for name in WHOLE_MODULES + ("smcore", "cli")}
        namespaces = [package] + list(modules.values())
        for name in WHOLE_MODULES:
            mod = modules[name]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, name)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(obj, name, attr, span=False)
                    # `from .oracle import compare` binds the function in
                    # other modules too; patch every binding
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, bound, wrapped)
        cli = modules["cli"]
        for attr, layer in CLI_ENTRIES.items():
            obj = getattr(cli, attr)
            if inspect.isclass(obj):
                self._wrap_class(obj, layer, span=True, only_init=True)
            else:
                self._patch(cli, attr, self._wrap(obj, layer, attr, span=layer == "cli"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- results ---------------------------------------------------------

    def totals(self):
        """(module self seconds, calls, inclusive seconds), summed over threads.

        calls and inclusive seconds count calls from another module, by
        qualified name."""
        self_s, calls, incl_s = defaultdict(float), defaultdict(int), defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            for k, v in t.self_s.items():
                self_s[k] += v
            for k, v in t.calls.items():
                calls[k] += v
            for k, v in t.incl_s.items():
                incl_s[k] += v
        return self_s, calls, incl_s
