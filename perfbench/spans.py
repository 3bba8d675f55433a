"""Span recorder for the traced benchmark run.

The recorder wraps module attributes of pgclass from the outside: the
program's own files are not touched.  A wrapped function records a span
(name, start, end, parent, item, thread) per call; a per-thread stack
gives each span its parent, so spans stay correctly nested under the
census and suite thread pools.  Functions called hundreds of thousands of
times (group multiplication arrays, cyclotomic constructors) are counted
and timed in aggregate instead, so the trace stays small.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    item: str = ""


class Recorder:
    """Collects spans and counters from every thread that calls a wrapper."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # metric names the installed wrappers can produce (span seconds and
        # calls, tally calls and seconds), so that an uncalled one reads 0
        self.declared: set[str] = set()

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def set_item(self, item: str) -> None:
        """Item id given to root spans of the calling thread."""
        self._state().item = item

    def count(self, name: str, n: float = 1) -> None:
        c = self._state().counters
        c[name] = c.get(name, 0) + n

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, item_of=None, after=None):
        """Wrap fn so that every call records a span called name.

        item_of(args, kwargs) names the item of a root span; child spans
        inherit their parent's item.  after(recorder, args, kwargs, result)
        may record counters derived from the call."""
        self.declared.update((name + "_s", name + "_calls"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else None
            if parent is not None:
                item = parent.item
            elif item_of is not None:
                item = item_of(args, kwargs)
            else:
                item = st.item
            s = Span(next(self._ids), name, 0.0, 0.0,
                     parent.id if parent is not None else None,
                     item, threading.current_thread().name)
            st.stack.append(s)
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                st.stack.pop()
                st.spans.append(s)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def tally(self, name, fn, timed=False):
        """Wrap fn so that calls are counted (and timed, if asked) in aggregate."""
        calls = name + "_calls"
        secs = name + "_s"
        self.declared.update((calls, secs) if timed else (calls,))

        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    c = self._state().counters
                    c[calls] = c.get(calls, 0) + 1
                    c[secs] = c.get(secs, 0.0) + (perf_counter() - t0)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                c = self._state().counters
                c[calls] = c.get(calls, 0) + 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper, modules=()) -> None:
        """Replace owner.attr by make_wrapper(original).

        The same function object is also replaced wherever one of the
        given modules imported it by name, so that calls through either
        name are seen.  A missing attribute raises AttributeError: a
        renamed or dropped function must not read as a zero."""
        space = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in space:
            raise AttributeError(f"trace: {getattr(owner, '__name__', owner)}.{attr} "
                                 "not found; perfbench/layers.py must follow the rename")
        orig = space[attr]
        if isinstance(orig, functools.cached_property):
            new = functools.cached_property(make_wrapper(orig.func))
            new.__set_name__(owner, attr)
        else:
            new = make_wrapper(orig)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is orig and mod is not owner:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> list[Span]:
        out = [s for st in self._states for s in st.spans]
        out.sort(key=lambda s: s.id)
        return out

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for k, v in st.counters.items():
                out[k] = out.get(k, 0) + v
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans():
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item, "thread": s.thread,
                }) + "\n")


# ---------------------------------------------------------------------------
# arithmetic on finished spans


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    """Name -> summed duration, not counting a span nested in a span of the
    same name (so recursion and shared names are not counted twice)."""
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}
    for s in spans:
        p = s.parent
        nested = False
        while p is not None:
            ps = by_id[p]
            if ps.name == s.name:
                nested = True
                break
            p = ps.parent
        if not nested:
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def call_counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


def pool_usage(spans: list[Span], main_thread: str) -> tuple[float, float]:
    """(busy, wall) of the root spans run on worker threads: summed
    durations, and the time from the first start to the last end."""
    roots = [s for s in spans if s.parent is None and s.thread != main_thread]
    if not roots:
        return 0.0, 0.0
    busy = sum(s.duration for s in roots)
    wall = max(s.end for s in roots) - min(s.start for s in roots)
    return busy, wall


def self_time_report(spans: list[Span], out=sys.stdout, top_items: int = 40) -> None:
    """Per span name: calls, inclusive seconds and self seconds; then, if
    there are at most top_items items, each item's three largest self times."""
    st = self_times(spans)
    incl = inclusive_times(spans)
    calls = call_counts(spans)
    selfsum: dict[str, float] = {}
    for s in spans:
        selfsum[s.name] = selfsum.get(s.name, 0.0) + st[s.id]
    out.write(f"{'span':34s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}\n")
    for name in sorted(selfsum, key=lambda n: -selfsum[n]):
        out.write(f"{name:34s} {calls[name]:8d} {incl[name]:10.4f} {selfsum[name]:10.4f}\n")
    by_item: dict[str, dict[str, float]] = {}
    for s in spans:
        d = by_item.setdefault(s.item, {})
        d[s.name] = d.get(s.name, 0.0) + st[s.id]
    if len(by_item) <= top_items:
        for item in sorted(by_item):
            top = sorted(by_item[item].items(), key=lambda kv: -kv[1])[:3]
            total = sum(by_item[item].values())
            out.write(f"item {item}: self {total:.4f} s; "
                      + ", ".join(f"{n} {t:.4f}" for n, t in top) + "\n")
