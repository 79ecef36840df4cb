"""In-memory span recorder and the wrappers that feed it.

A traced run wraps the public entry points of each layer from outside the
program: methods are replaced on their classes, and a module function is
replaced under every module attribute that holds it, because a name bound
with ``from module import name`` is a separate reference.  Every wrapped
call records one span ``(name, start, end, parent)``; the parent is the
innermost span open when the call began, so the spans form a tree per
thread.  Spans stay in memory and are written out once, at the end.

Counts ride on the same wrappers: a wrapper may carry a function that
turns the call's arguments and result into a number added to a named
counter (traces produced, bytes appended, alerts seen).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: packages whose module-level names are patched by a function hook
PATCHED_PACKAGES = ("repro", "perfbench")

__all__ = ["Span", "SpanRecorder", "Hook", "Count", "install", "paused",
           "self_times", "covered_seconds", "ancestors_named", "aggregate"]


@dataclass(frozen=True)
class Span:
    """One recorded call: ``parent`` indexes the enclosing span or is -1."""

    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and counters while enabled; inert otherwise."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             counts: Tuple["Count", ...] = ()):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # reserve the slot now so children (appended later) keep their
        # parent index valid
        self.spans.append(None)
        self._stack.append(index)
        before = [count.before(args) if count.before else None
                  for count in counts]
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)
        for count, token in zip(counts, before):
            self.counters[count.name] += count.value(args, result, token)
        return result

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent]) + "\n")


@contextlib.contextmanager
def paused(recorder: Optional[SpanRecorder]):
    """Record nothing inside the body (checks re-run layer code that must
    not count as the workload's); accepts ``None`` for untraced runs."""
    if recorder is None:
        yield
        return
    was, recorder.enabled = recorder.enabled, False
    try:
        yield
    finally:
        recorder.enabled = was


@dataclass(frozen=True)
class Count:
    """A counter fed by a wrapped call.

    ``value(args, result, token)`` gives the amount to add; ``before``,
    when set, runs before the call and its return value is the token.
    """

    name: str
    value: Callable
    before: Optional[Callable] = None


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` (a class or a module) under span ``span``."""

    owner: object
    attr: str
    span: str
    counts: Tuple[Count, ...] = ()


def _wrap(recorder: SpanRecorder, hook: Hook, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(hook.span, fn, args, kwargs, hook.counts)
    return wrapper


def install(recorder: SpanRecorder,
            hooks: Iterable[Hook]) -> Callable[[], None]:
    """Install *hooks*; returns a function that restores the originals.

    A hook on a module function patches that function under every
    attribute of every loaded module that refers to it.  A hook on a
    class method patches the class dictionary (classmethods are rewrapped
    as classmethods).
    """
    undo: List[Tuple[object, str, object]] = []
    for hook in hooks:
        if isinstance(hook.owner, type):
            raw = hook.owner.__dict__[hook.attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(recorder, hook, raw.__func__))
            else:
                new = _wrap(recorder, hook, raw)
            undo.append((hook.owner, hook.attr, raw))
            setattr(hook.owner, hook.attr, new)
            continue
        original = getattr(hook.owner, hook.attr)
        new = _wrap(recorder, hook, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(module, "__name__", "").startswith(
                    PATCHED_PACKAGES):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, new)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# ----------------------------------------------------------------------
# arithmetic over a span tree
# ----------------------------------------------------------------------

def covered_seconds(interval: Tuple[float, float],
                    parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of *interval* that the union of *parts* covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in parts
                     if min(hi, b) > max(lo, a))
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered_seconds((span.start, span.end),
                                            children.get(i, ()))
            for i, span in enumerate(spans)]


def ancestors_named(spans: List[Span], name: str) -> List[bool]:
    """Whether each span has an ancestor called *name*."""
    flags: List[bool] = []
    for span in spans:
        parent = span.parent
        # parents precede children, so their flags are already known
        flags.append(parent >= 0 and (spans[parent].name == name
                                      or flags[parent]))
    return flags


def aggregate(spans: List[Span],
              exclude_under: Optional[str] = None
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: total seconds, self seconds and number of calls.

    Spans that lie under a span named *exclude_under* are left out.
    """
    selfs = self_times(spans)
    skip = (ancestors_named(spans, exclude_under) if exclude_under
            else [False] * len(spans))
    out: Dict[str, Dict[str, float]] = {}
    for span, own, skipped in zip(spans, selfs, skip):
        if skipped:
            continue
        entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0,
                                           "calls": 0})
        entry["s"] += span.duration
        entry["self_s"] += own
        entry["calls"] += 1
    return out
