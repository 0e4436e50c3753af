"""Span recorder that wraps layer entry points from outside the program.

The benchmark never edits ``src/``: it replaces module or class attributes
that the engines look up by name with wrappers that time the call, and
puts the originals back afterwards. Per span name a wrapper records
calls, inclusive time and self time (inclusive time minus the time its
child spans cover), and may run a hook that adds counts measured at the
same boundary, such as tuples scanned or FLOPs issued.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

now = time.perf_counter


class Tracer:
    """In-memory span statistics keyed by span name."""

    def __init__(self) -> None:
        self._rec: dict[str, list] = {}
        self._child_s: list[float] = []  # child time of each open span
        self.counts: dict[str, float] = defaultdict(float)

    def record(self, name: str) -> list:
        """``[calls, inclusive s, self s, open spans]`` of span ``name``."""
        return self._rec.setdefault(name, [0, 0.0, 0.0, 0])

    def calls(self, name: str) -> int:
        return self.record(name)[0]

    def incl_s(self, name: str) -> float:
        return self.record(name)[1]

    def self_s(self, name: str) -> float:
        return self.record(name)[2]

    def total_self_s(self) -> float:
        return sum(r[2] for r in self._rec.values())

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``hook(args, result)`` adds counts."""
        rec, stack = self.record(name), self._child_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            rec[3] += 1
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = now() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                rec[3] -= 1
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class Patches:
    """A set of attribute replacements that can be switched on and off.

    ``add(owner, attr, name, hook)`` wraps ``owner.attr`` (a module or a
    class) as span ``name``. The originals are captured once, so toggling
    between traced and untraced units of one run is cheap.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._items: list[tuple[object, str, Callable, Callable]] = []

    def add(self, owner: object, attr: str, name: str, hook: Callable | None = None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._items.append((owner, attr, orig, self.tracer.wrap(name, orig, hook)))

    def install(self) -> None:
        for owner, attr, _, traced in self._items:
            setattr(owner, attr, traced)

    def remove(self) -> None:
        for owner, attr, orig, _ in self._items:
            setattr(owner, attr, orig)
