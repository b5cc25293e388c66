"""The benchmark's arithmetic: percentiles, span self time, freshness, disk ratio.

Pure functions over plain numbers so ``test_stats.py`` can pin them down.
"""

from __future__ import annotations

import math
import os
import statistics
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(RuntimeError):
    """A run has too few samples for the percentile it reports."""


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the *q*-th percentile of *n* samples."""
    return max(1, math.ceil(q / 100.0 * n))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly after the *q*-th percentile's rank."""
    return n - rank(n, q)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the *q*-th percentile leaves *beyond* past it."""
    n = beyond + 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def percentile(values: Sequence[float], q: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank *q*-th percentile; raises unless *beyond* samples lie past it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {samples_beyond(n, q) if n else 0} "
            f"beyond it; at least {beyond} are needed ({min_samples(q, beyond)} samples)"
        )
    return sorted(values)[rank(n, q) - 1]


def window_rates(
    times_ns: Iterable[int], start_ns: int, end_ns: int, window_ns: int
) -> List[float]:
    """Events per second in each full *window_ns* window of ``[start_ns, end_ns)``.

    A part-window at the end is dropped, so every rate covers the same
    length of time; events outside the interval are not counted.
    """
    windows = max(0, (end_ns - start_ns) // window_ns)
    counts = [0] * windows
    for t in times_ns:
        k = (t - start_ns) // window_ns
        if 0 <= k < windows:
            counts[k] += 1
    return [count * 1e9 / window_ns for count in counts]


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


# -- spans -----------------------------------------------------------------------


def covered(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of *children* intervals.

    Children may overlap each other (threads of one fan-out) or stick out
    of the parent; each instant is counted once and only inside the parent.
    """
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    )
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(
    spans: Sequence[Tuple[int, int, int, int]],
) -> Tuple[Dict[int, int], int]:
    """Self times of ``(span id, parent id, start, end)`` records, and overlap.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Pool threads of one fan-out run side by side, so their
    self times add up to more wall time than they cover; the second
    value is that excess.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _span_id, parent, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    selfs: Dict[int, int] = {}
    excess = 0
    for span_id, _parent, start, end in spans:
        kids = children.get(span_id, ())
        cover = covered(start, end, kids)
        selfs[span_id] = (end - start) - cover
        excess += sum(max(0, min(end, e) - max(start, s)) for s, e in kids) - cover
    return selfs, excess


# -- freshness -------------------------------------------------------------------


def freshness_lags(
    rewrites: Sequence[Tuple[float, int, int]],
    responses: Sequence[Tuple[float, Sequence[int]]],
) -> List[Optional[float]]:
    """Lag of each rewrite until a response first shows it.

    *rewrites* are ``(replaced at, shard, generation that includes it)``;
    *responses* are ``(received at, generation vector)`` from every
    connection.  A rewrite is visible in the first response received
    after the replacement whose vector has reached the required
    generation on the rewrite's shard.  ``None`` marks a rewrite no
    response ever showed.
    """
    ordered = sorted(responses, key=lambda item: item[0])
    times = [t for t, _ in ordered]
    lags: List[Optional[float]] = []
    for replaced_at, shard, needed in rewrites:
        lag = None
        for t, vector in ordered[bisect_left(times, replaced_at):]:
            if vector[shard] >= needed:
                lag = t - replaced_at
                break
        lags.append(lag)
    return lags


def required_generations(
    start: Sequence[int], shards: Sequence[int]
) -> List[int]:
    """Generation each rewrite needs when every rewrite commits once on its shard."""
    current = list(start)
    needed = []
    for shard in shards:
        current[shard] += 1
        needed.append(current[shard])
    return needed


# -- storage ---------------------------------------------------------------------


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under *root* (links are not followed)."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            if os.path.isfile(path) and not os.path.islink(path):
                total += os.path.getsize(path)
    return total


def full_sidecar_bytes(sidecar_bytes: int, entries: int, capacity: int) -> float:
    """Bytes a result sidecar holding *entries* would take at *capacity*
    entries of the same mean size."""
    if entries <= 0:
        raise ValueError("the sidecar stored no entries")
    return sidecar_bytes / entries * capacity


def disk_ratio(stored_bytes: int, input_bytes: int) -> float:
    """Bytes the program keeps per byte of input CSV."""
    if input_bytes <= 0:
        raise ValueError("input has no bytes")
    return stored_bytes / input_bytes
