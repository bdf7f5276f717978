"""Outside-in tracer: spans around calls into hopfib's public functions.

``install`` replaces every public module-level function of every hopfib
module with a wrapper that records a span. Replacement matches on function
identity across all module dicts, so names bound by ``from .x import y``
are wrapped too. Spans are kept in memory as tuples
``(name, start_ns, end_ns, parent, op)`` where ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the operation id.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.probes = {}  # span name -> fn(tracer, args, kwargs, result)
        self._stack: list[int] = []
        self.op = -1

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        idx = len(self.spans)
        self.spans.append(None)  # reserve the slot so children see their parent
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
        probe = self.probes.get(name)
        if probe is not None:
            probe(self, args, kwargs, result)
        return result

    def install(self, package) -> int:
        """Wrap the public functions of every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)].__wrapped__ is obj:
                    setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper


def aggregate(spans) -> dict[str, float]:
    """Per-function calls and inclusive seconds, and per-layer self seconds.

    ``<fn>.calls`` counts every span; ``<fn>.s`` sums only spans with no
    ancestor of the same name, so recursion is not counted twice.
    ``<layer>.self_s`` sums, over the layer's spans, each span's duration
    minus the durations of its direct children. Spans named ``op.*`` are
    roots and belong to no layer.
    """
    out: dict[str, float] = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, _op) in enumerate(spans):
        out[name + ".calls"] += 1
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            out[name + ".s"] += (end - start) / 1e9
        layer = name.partition(".")[0]
        if layer != "op":
            out[layer + ".self_s"] += (end - start - child_ns[i]) / 1e9
    return dict(out)
