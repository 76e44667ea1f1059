"""In-memory span tracer that wraps gridplan's layer functions in place.

Each wrapped function is replaced under every name its callers look it up
by: its own module's attribute and every gridplan module that imported it
with ``from .x import name``. Methods are replaced on their class. A span
records (name, start, end, parent, request, thread, count); spans stay in
a list until the run ends and are only written out on request.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None
    thread: int
    count: int | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self, package_modules):
        self.modules = list(package_modules)
        self.spans: list[Span] = []
        self.request: int | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, original, name, namer, counter, keep=None):
        spans, clock = self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(namer(args, kwargs) if namer else name, 0, 0,
                        stack[-1] if stack else None, self.request,
                        threading.get_ident())
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if counter is not None:
                span.count = counter(result)
            if keep is not None:
                keep(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_function(self, module, attr, name=None, namer=None, counter=None, keep=None):
        """Trace module.attr under every module-level name bound to it.

        `keep(args, kwargs, result)`, if given, sees every call's result.
        """
        original = getattr(module, attr)
        traced = self._wrapper(original, name or f"{module.__name__.split('.')[-1]}.{attr}",
                               namer, counter, keep)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr, name, counter=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, None, counter))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ---- reading spans ----------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def median_seconds(self, name: str) -> float:
        spans = self.named(name)
        return statistics.median(s.seconds for s in spans) if spans else 0.0

    def total_count(self, *names: str) -> int:
        return sum(s.count or 0 for s in self.spans if s.name in names)

    def us_per_count(self, *names: str) -> float:
        """Microseconds of the named spans per unit of their counts."""
        count = self.total_count(*names)
        busy = sum(s.seconds for s in self.spans if s.name in names)
        return 1e6 * busy / count if count else 0.0

    def covered_seconds(self, index: int, names=None) -> float:
        """Time inside span `index` covered by other spans, on any thread.

        With `names`, only spans of those names count.
        """
        outer = self.spans[index]
        inner = sorted((s.start_ns, s.end_ns) for i, s in enumerate(self.spans)
                       if i != index and outer.start_ns <= s.start_ns
                       and s.end_ns <= outer.end_ns
                       and (names is None or s.name in names))
        covered, reach = 0, outer.start_ns
        for lo, hi in inner:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered / 1e9

    def self_seconds(self, name: str, names=None) -> list[float]:
        """Per span of `name`, its duration less what (named) spans inside cover."""
        return [s.seconds - self.covered_seconds(i, names)
                for i, s in enumerate(self.spans) if s.name == name]

    def write(self, fh, phase: str) -> None:
        """One JSON object per span; `id` and `parent` index this tracer's spans."""
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({"phase": phase, "id": i, "name": s.name,
                                 "parent": s.parent, "request": s.request,
                                 "thread": s.thread, "start_ns": s.start_ns,
                                 "end_ns": s.end_ns, "count": s.count}) + "\n")
