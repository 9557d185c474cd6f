"""In-memory spans around the calls one fracheat module makes into the next.

A ``Tracer`` replaces public names in the fracheat modules with wrappers that
record one span per call: (id, parent id, thread id, name, start ns, end ns,
work).  Nothing under ``src/`` changes; the wrappers live only in the traced
interpreter.  The span name is ``<module>.<function>`` of the wrapped
function, so the module a span's time belongs to is the text before the
first dot.

Self time is a span's duration minus the union of its children's intervals.
Children can overlap when the estimator runs chunks on two threads, so their
summed durations would over-subtract.  Self time is then busy time per
thread: the self times of a tree add up to the root's duration plus the
overlap among siblings (``tiled_ns``).  Every span lies inside its parent,
because each wrapper returns only after the calls it caused, so the module
self times of a call always account for its whole duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

ID, PARENT, THREAD, NAME, START, END, WORK = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        # a pool thread starts with an empty stack; its work was caused by the
        # innermost span open on the thread that created the tracer
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name: str, work=None):
        """fn with one span per call; work(args, kwargs, result) gives its work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, threading.get_ident(), name, start, end, 0))
                raise
            end = time.perf_counter_ns()
            stack.pop()
            amount = work(args, kwargs, result) if work is not None else 0
            self.spans.append((sid, parent, threading.get_ident(), name, start, end, amount))
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a root span called name."""
        return self.wrap(fn, name)(*args)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals [start, end)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> tuple[dict[int, int], dict[int, int]]:
    """Per span id: self time (ns), and the overlap among its children (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    own: dict[int, int] = {}
    overlap: dict[int, int] = {}
    for s in spans:
        # only the part of a child inside its parent covers the parent
        kids = [(max(b, s[START]), min(e, s[END])) for b, e in children.get(s[ID], ())]
        kids = [(b, e) for b, e in kids if e > b]
        covered = _union_ns(kids)
        own[s[ID]] = (s[END] - s[START]) - covered
        overlap[s[ID]] = sum(e - b for b, e in kids) - covered
    return own, overlap


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def tiled_ns(spans) -> int:
    """Sum of the self times of spans, less the overlap among siblings.

    For the spans of one call tree, each lying inside its parent, this is the
    root's duration.
    """
    own, overlap = self_times(spans)
    return sum(own.values()) - sum(overlap.values())


def summarize(spans) -> dict:
    """Per name: calls, inclusive ns, work total and max; per module: self ns."""
    own, _ = self_times(spans)
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "work": 0, "work_max": 0})
    modules: dict[str, int] = defaultdict(int)
    for s in spans:
        rec = names[s[NAME]]
        rec["calls"] += 1
        rec["ns"] += s[END] - s[START]
        rec["work"] += s[WORK]
        rec["work_max"] = max(rec["work_max"], s[WORK])
        modules[module_of(s[NAME])] += own[s[ID]]
    return {"names": dict(names), "module_self_ns": dict(modules)}
