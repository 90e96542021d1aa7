"""Span tracer that wraps the package's public functions from outside.

Each wrapped callable records, per span name, its call count and its self
time: the wall time of the call minus the wall time of the traced calls made
inside it.  Open spans sit on a stack, so a parent is never credited with a
traced child's time.

A module-level function is often bound under several module attributes (for
example ``count_covers`` is imported into ``online``, ``adversary`` and
``cli``).  ``Tracer.install`` replaces every attribute of every loaded
``dscp`` module that is the original function, so no binding site keeps
calling it untraced; methods are replaced once on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStat:
    """Totals for one span name over one traced phase."""

    calls: int = 0
    self_s: float = 0.0
    # extra counters filled by a span's observer (edges, kept elements...)
    counts: dict[str, int] = field(default_factory=dict)
    # per-call wall times, kept only for spans that report percentiles
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Collects spans in memory; ``snapshot`` hands them out and resets."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[float] = []
        self.stats: dict[str, SpanStat] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None, keep_durations=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(stat, args, result)`` may update ``stat.counts`` after
        each successful call; it runs outside the span's timing.
        """
        clock = self._clock
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = SpanStat()
                stat.calls += 1
                stat.self_s += elapsed - children
                if keep_durations:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(stat, args, result)
            return result

        traced.__wrapped_span__ = name
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(name, owner, attr, observe, keep_durations)`` target.

        ``owner`` is a module or a class.  For a module, every ``dscp``
        module attribute bound to the same function object is replaced.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dscp" or n.startswith("dscp."))]
        for name, owner, attr, observe, keep in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, observe, keep)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, SpanStat]:
        """Return the stats gathered since the last snapshot and reset."""
        if self._stack:
            raise RuntimeError("snapshot taken inside an open span")
        out = dict(self.stats)
        self.stats.clear()
        return out
