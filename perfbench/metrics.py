"""Metric arithmetic used by the benchmark: tail percentile and span self time."""

from __future__ import annotations

import numpy as np

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one slow op cannot set it alone.
TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Highest percentile of ``samples`` with at least ``beyond`` samples above it.

    Returns ``(percentile, value, count)``. In ascending order the sample at
    position ``n - beyond - 1`` has exactly ``beyond`` samples after it, and
    ``100 * (n - beyond) / n`` percent of the samples are at or below it.
    Failed ops enter as ``inf``, so more than ``beyond`` failures make the
    tail infinite. With ``n <= beyond`` no percentile qualifies; the maximum
    is returned as percentile 100 and the caller reports the short count.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = int(x.size)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    if n <= beyond:
        return 100.0, float(x[-1]), n
    return 100.0 * (n - beyond) / n, float(x[n - beyond - 1]), n


def self_times(start, end, parent):
    """Self time of every span: its duration minus its children's durations.

    ``parent[i]`` is the index of span i's enclosing span, or -1 for a root.
    Spans come from one thread of synchronous calls, so the children of a
    span never overlap and the part of its interval they cover is the sum
    of their durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered
