"""Failure accounting and spans around the benchmark's calls into the library.

Every library call the workloads make goes through a wrapper from this
module.  The untraced wrapper (`guard`) only turns an exception into a
`Raised` value, so one failing op never aborts a run.  The traced wrapper
(`Tracer.wrap`) does the same and also records a span: name, parent span,
start and end.  Spans stay in memory and are folded into per-layer
totals between timed chunks (`Tracer.fold`), so memory stays flat however
long the run is.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter_ns


class Raised:
    """Stands in for the result of a call that raised."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"Raised({type(self.exc).__name__}: {self.exc})"


def guard(fn):
    """fn, with any exception returned as Raised instead of propagating."""
    def call(*args):
        try:
            return fn(*args)
        except Exception as exc:
            return Raised(exc)
    return call


class LayerStats:
    __slots__ = ("calls", "busy_ns", "self_ns", "hits", "elems", "bytes", "flops")

    def __init__(self):
        self.calls = self.busy_ns = self.self_ns = self.hits = 0
        self.elems = self.bytes = self.flops = 0


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.  spans are (id, parent, name, start,
    end) tuples; returns {id: self_ns}."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0
        edge = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, edge), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[sid] = (end - start) - covered
    return out


class Tracer:
    """Records a span around every wrapped call; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.stats: dict = defaultdict(LayerStats)
        self._stack: list = []
        self._next = 0
        self._hit: dict = {}
        self._size: dict = {}

    def wrap(self, name: str, fn, hit=None, size=None):
        """Traced twin of guard(fn).  hit(result) marks results to count
        (such as poles); size(args, result) gives (elements, bytes, flops)
        computed from the shapes of a kernel's arrays."""
        spans, stack = self.spans, self._stack
        if hit is not None:
            self._hit[name] = hit
        if size is not None:
            self._size[name] = size

        def call(*args):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter_ns()
            try:
                out = fn(*args)
            except Exception as exc:
                out = Raised(exc)
            end = perf_counter_ns()
            stack.pop()
            spans.append((sid, parent, name, start, end, args, out))
            return out
        return call

    def fold(self) -> None:
        """Add the recorded spans to the per-layer totals and drop them."""
        plain = [s[:5] for s in self.spans]
        selfs = self_times(plain)
        for sid, _, name, start, end, args, out in self.spans:
            st = self.stats[name]
            st.calls += 1
            st.busy_ns += end - start
            st.self_ns += selfs[sid]
            hit = self._hit.get(name)
            if hit is not None and hit(out):
                st.hits += 1
            size = self._size.get(name)
            if size is not None and not isinstance(out, Raised):
                e, b, f = size(args, out)
                st.elems += e
                st.bytes += b
                st.flops += f
        self.spans.clear()


class Tally:
    """Ops attempted, failed and missed, per layer.

    Each op is checked on an interior input or on a hard slice.  On an
    interior input the library's own bounds apply: an op fails when it
    raises where no error is correct or when its output misses its
    reference check, and a failure means the program or the benchmark is
    wrong.  On a hard slice the bound is c*eps*cond, and a miss is one of
    the library's known defects (ROADMAP items 2 and 5): it is counted
    apart, in hard_missed, so that the defects stay in view without making
    the run's failure count depend on how many items a run completes."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.hard_attempted: Counter = Counter()
        self.hard_missed: Counter = Counter()
        self.examples: list = []
        self.worst: dict = {}

    def check(self, layer: str, ok: bool, hard: bool = False, what: str = "") -> None:
        self.count(layer, 1, 0 if ok else 1, hard, what)

    def count(self, layer: str, attempted: int, failed: int, hard: bool = False,
              what: str = "") -> None:
        self.attempted[layer] += attempted
        if hard:
            self.hard_attempted[layer] += attempted
            if failed:
                self.hard_missed[layer] += failed
        elif failed:
            self.failed[layer] += failed
            if len(self.examples) < 5:
                self.examples.append(f"{layer}: {what}")

    def note_worst(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, 0.0), value)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def hard_miss_ratio(self) -> float:
        """Known-defect misses over hard-slice ops attempted."""
        return sum(self.hard_missed.values()) / max(sum(self.hard_attempted.values()), 1)
