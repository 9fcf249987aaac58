"""Per-layer self time from a Chrome trace.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children are the spans nested directly inside it on the
same thread, plus the top-level spans of every thread that was spawned and
joined inside it: a thread whose whole lifetime lies within a span of the
longest-running thread that contains it (the caller of a scoped thread
pool) is attributed to the innermost such span. Parallel children are
merged as a union, so a caller waiting on two workers has no self time
while both run. Long-lived threads that outlive every span (a service's
executor) stay roots. Self times are thread time: on a parallel run the
layers sum to more than the wall clock.
"""

import bisect

# Span categories that differ from the layer (crate) they time; every other
# category names its layer. The benchmark's own spans use the category of
# the layer they call into, and "bench" for its glue.
LAYER_OF_CATEGORY = {"pipeline": "core", "fork": "replay"}

# Chrome traces carry microseconds with three decimals.
EPS_US = 0.002


class Span:
    __slots__ = ("name", "cat", "tid", "start", "end", "children")

    def __init__(self, name, cat, tid, start, end):
        self.name, self.cat, self.tid = name, cat, tid
        self.start, self.end = start, end
        self.children = []

    def contains(self, start, end):
        return self.start - EPS_US <= start and end <= self.end + EPS_US


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def build_tree(events):
    """Parents every complete (`ph == "X"`) event; returns all spans."""
    spans = [
        Span(e["name"], e.get("cat", ""), e["tid"], e["ts"], e["ts"] + e["dur"])
        for e in events
        if e.get("ph") == "X"
    ]
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    roots = {}
    for tid, mine in by_tid.items():
        mine.sort(key=lambda s: (s.start, -s.end))
        stack, tops = [], []
        for s in mine:
            while stack and not stack[-1].contains(s.start, s.end):
                stack.pop()
            (stack[-1].children if stack else tops).append(s)
            stack.append(s)
        roots[tid] = tops
    life = {
        tid: (min(s.start for s in mine), max(s.end for s in mine))
        for tid, mine in by_tid.items()
    }
    starts = {tid: [s.start for s in mine] for tid, mine in by_tid.items()}
    for tid, tops in roots.items():
        start, end = life[tid]
        hosts = [
            other
            for other in by_tid
            if other != tid
            and life[other][0] <= start
            and end <= life[other][1]
            and (life[other][1] - life[other][0]) > (end - start)
        ]
        if not hosts:
            continue
        # The longest-lived enclosing thread is the one that spawned it.
        host = max(hosts, key=lambda t: (life[t][1] - life[t][0], -t))
        # Spans of one thread that contain a point form a chain; the
        # innermost one is the containing span that starts last.
        i = bisect.bisect_right(starts[host], start + EPS_US) - 1
        while i >= 0 and not by_tid[host][i].contains(start, end):
            i -= 1
        if i >= 0:
            by_tid[host][i].children.extend(tops)
    return spans


def self_time_us(span):
    covered = _union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in span.children
    )
    return max(0.0, (span.end - span.start) - covered)


def layer_self_times(events):
    """Self time per layer, in seconds, over every span of the trace."""
    out = {}
    for s in build_tree(events):
        layer = LAYER_OF_CATEGORY.get(s.cat, s.cat)
        out[layer] = out.get(layer, 0.0) + self_time_us(s) / 1e6
    return out
