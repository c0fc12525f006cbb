"""In-memory spans for the traced replay.

A span records one call into a layer: its name, start and end
(``time.perf_counter`` seconds), the id of the span that caused it, and the
trial it belongs to.  Spans stay in memory while the replay runs and are
written out once, as JSON lines, when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, trial)
        # next() on an itertools.count and list.append are single C calls, so
        # pool threads get distinct ids and no span is lost without a lock.
        self._ids = itertools.count(1)

    def call(self, name, parent, trial, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        sid = next(self._ids)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((sid, name, start, time.perf_counter(), parent, trial))
        return out

    @contextmanager
    def span(self, name, parent=None, trial=None):
        """Span around a block; yields the span id for the block's children."""
        sid = next(self._ids)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, name, start, time.perf_counter(), parent, trial))

    def totals(self):
        """``name -> (count, total seconds)`` over every recorded span."""
        out = defaultdict(lambda: [0, 0.0])
        for _, name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {name: tuple(v) for name, v in out.items()}

    def durations(self, name):
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_time(self, sid):
        """Duration of span ``sid`` minus the part of it its child spans cover.

        Children run on pool threads can overlap, so the covered part is the
        length of the union of their intervals.
        """
        (start, end), = [(s, e) for i, _, s, e, _, _ in self.spans if i == sid]
        kids = sorted((s, e) for _, _, s, e, p, _ in self.spans if p == sid)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in kids:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return (end - start) - covered

    def write(self, path, workload):
        """Write every span as one JSON object per line, times relative to the first span."""
        t0 = min((s for _, _, s, _, _, _ in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, trial in sorted(self.spans, key=lambda sp: sp[2]):
                fh.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "id": sid,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                            "parent": parent,
                            "trial": trial,
                        }
                    )
                    + "\n"
                )
