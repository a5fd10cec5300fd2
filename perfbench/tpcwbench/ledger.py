"""Span trees and self time: the layer ledger of a traced run.

Spans on the client thread nest through their recorded parents.  A span
that opens a stack on another thread (a server handler executing a
request, a coordinator fan-out thread) has no recorded parent; it is
charged to the innermost span on another thread that was blocked waiting
for it and whose interval contains it.  With a single closed-loop client
that waiting span is unambiguous.  Spans that fit under no waiting span
are left out of the ledger and counted as unattributed.

A span's self time is its duration minus the union of its children's
intervals, clipped to the span.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterable

#: How far back from a span's start the waiting-span search looks.
_SCAN_LIMIT = 256


def _waits_for(parent, child) -> bool:
    """Whether ``parent`` blocks on ``child``'s thread: a request's wait
    covers the server side; a coordinator statement covers the fan-out
    threads it joins."""
    if child.layer == "netclient":
        return parent.layer == "sharding"
    return parent.name == "server.wait"


def union_length(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        start = max(start, low)
        end = min(end, high)
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


class Ledger:
    """Parents, children and self times of one set of spans."""

    def __init__(self, spans: list, client_thread: int) -> None:
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.parent_of: dict[int, int] = {}
        self.unattributed: list = []
        waiting = sorted(
            (s for s in spans if s.name == "server.wait" or s.layer == "sharding"),
            key=lambda s: s.start,
        )
        starts = [s.start for s in waiting]
        for span in spans:
            if span.parent:
                self.parent_of[span.id] = span.parent
                continue
            if span.thread == client_thread:
                continue
            index = bisect.bisect_right(starts, span.start)
            for candidate in reversed(waiting[max(0, index - _SCAN_LIMIT):index]):
                if (
                    candidate.thread != span.thread
                    and candidate.end >= span.end
                    and _waits_for(candidate, span)
                ):
                    self.parent_of[span.id] = candidate.id
                    break
            else:
                self.unattributed.append(span)
        self.children: dict[int, list] = defaultdict(list)
        for child_id, parent_id in self.parent_of.items():
            self.children[parent_id].append(self.by_id[child_id])
        self.self_time = {
            span.id: (span.end - span.start)
            - union_length(
                ((c.start, c.end) for c in self.children.get(span.id, ())),
                span.start,
                span.end,
            )
            for span in spans
        }

    def root_of(self, span) -> object:
        while span.id in self.parent_of:
            span = self.by_id[self.parent_of[span.id]]
        return span

    def ancestors(self, span) -> Iterable:
        while span.id in self.parent_of:
            span = self.by_id[self.parent_of[span.id]]
            yield span

    def layer_self_time(self, roots: set[int]) -> dict[str, float]:
        """Seconds of self time per layer over the trees under ``roots``."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if self.root_of(span).id in roots:
                totals[span.layer] += self.self_time[span.id]
        return dict(totals)
