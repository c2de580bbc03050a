"""In-memory span tracer that wraps module attributes from outside.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made directly inside it (on the
same thread), so the self times of all spans add up to the time covered by
the outermost spans.  Nothing in the traced package is modified on disk:
``Tracer.patch`` replaces module attributes for the length of a ``with``
block and always puts the originals back.
"""
from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` as span ``name``; ``count(counts, args, kwargs,
    result)`` may add to the tracer's named counters after each call."""

    module: object
    attr: str
    name: str
    count: Callable | None = None

    @property
    def path(self) -> str:
        return f"{self.module.__name__.rpartition('.')[2]}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        #: span name -> why it could not be wrapped
        self.missing = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
                self.calls[name] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def patch(self, targets):
        """Wrap every target that exists; record the others in ``missing``."""
        saved = []
        try:
            for target in targets:
                original = getattr(target.module, target.attr, None)
                if original is None:
                    self.missing[target.name] = f"{target.path} does not exist"
                    continue
                saved.append((target, original))
                setattr(target.module, target.attr,
                        self.wrap(target.name, original, target.count))
            yield self
        finally:
            for target, original in reversed(saved):
                setattr(target.module, target.attr, original)

    def covered(self) -> float:
        """Time inside outermost spans: the sum of all self times."""
        return sum(self.self_time.values())
