"""In-memory spans recorded around calls into the program's layers.

The traced run replaces public functions and methods of the layers with
wrappers that record a span per call (name, start, end, parent and the
root span that caused it) and hand the call through unchanged.  Nothing
in the program is edited: :meth:`Recorder.install` swaps module and
class attributes, :meth:`Recorder.uninstall` puts the originals back.

Parents come from a per-thread stack of open spans, so nesting is
exact for calls on one thread.  Coroutines interleave on the event-loop
thread, so a wrapped coroutine function records a root span and leaves
the stack alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call; ``info`` holds what the call's note extracted."""

    __slots__ = ("name", "start", "end", "parent", "phase", "info")

    def __init__(self, name: str, parent: Optional["Span"], phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.info: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


#: ``note(args, kwargs, result) -> dict`` extracts counts from one call.
Note = Callable[[tuple, dict, object], dict]


class Recorder:
    """Collects spans while :attr:`enabled`; wrappers stay cheap when off."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        #: Tag copied into every span, so set-up and the measured window
        #: can be told apart afterwards.
        self.phase = "setup"
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note: Optional[Note] = None):
        """A wrapper that records ``name`` around every call of ``fn``."""
        recorder = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await fn(*args, **kwargs)
                span = Span(name, None, recorder.phase)
                span.start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    recorder.spans.append(span)
                if note is not None:
                    span.info = note(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span = Span(name, stack[-1] if stack else None, recorder.phase)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap each ``(owner, attribute, span name[, note])`` target."""
        for target in targets:
            owner, attribute, name = target[:3]
            note = target[3] if len(target) > 3 else None
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, note))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines, parents by span id."""
        spans = sorted(self.spans, key=lambda span: span.start)
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "trace": ids.get(id(span.root)),
                    "phase": span.phase,
                }
                if span.info:
                    record["info"] = span.info
                handle.write(json.dumps(record) + "\n")


def covered_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Keyed by ``id(span)``.  Children are clipped to the parent's
    interval, and overlapping children count once.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    result = {}
    for span in spans:
        inside = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(id(span), ())
        ]
        result[id(span)] = span.duration - covered_length(inside)
    return result


def self_time_by_root(
    spans: Sequence[Span],
) -> Dict[str, List[float]]:
    """Per span name: for each root containing it, that name's self time.

    A layer called several times under one root (the row groups of a
    drain, or a planner that calls a second planner) contributes one
    summed sample per root, so each sample is one operation's worth.
    """
    own = self_times(spans)
    per_root: Dict[Tuple[int, str], float] = defaultdict(float)
    order: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    for span in spans:
        key = (id(span.root), span.name)
        if key not in per_root:
            order[span.name].append(key)
        per_root[key] += own[id(span)]
    return {
        name: [per_root[key] for key in keys] for name, keys in order.items()
    }
