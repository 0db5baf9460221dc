"""The harness's own arithmetic: percentiles, counter deltas and span self time.

Everything here is pure (no I/O, no server) so ``test_stats.py`` can pin it.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

#: a tail percentile is reported only when this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile to report it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    The value is reported only if at least :data:`MIN_SAMPLES_BEYOND`
    samples lie strictly beyond its rank, so a p90 needs 100 samples and a
    median 20; otherwise :class:`InsufficientSamples` is raised.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})"
        )
    return sorted(samples)[rank - 1]


# -- Prometheus counters -------------------------------------------------------------


Series = tuple[str, frozenset]


def parse_exposition(text: str) -> dict[Series, float]:
    """Samples of a Prometheus text exposition keyed by (name, label set).

    Callers validate the text first (``repro.obs.metrics.validate_exposition``);
    comment and blank lines are skipped here.
    """
    samples: dict[Series, float] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line.strip())
        if match is None:
            raise ValueError(f"malformed sample line {line!r}")
        labels = frozenset(_LABEL_RE.findall(match.group("labels") or ""))
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples


def counter_delta(
    before: Mapping[Series, float],
    after: Mapping[Series, float],
    name: str,
    **labels: str,
) -> float:
    """Increase of one series between two scrapes (absent counts as 0)."""
    key = (name, frozenset(labels.items()))
    return after.get(key, 0.0) - before.get(key, 0.0)


def hit_rate(hits: float, misses: float) -> float:
    """Hits over lookups; 0.0 when the cache saw no lookups."""
    lookups = hits + misses
    return hits / lookups if lookups > 0 else 0.0


# -- spans ---------------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Mapping]) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    Each span is a mapping with ``id``, ``start``, ``end`` and ``parent``
    (the parent's id, or ``None`` for a root).  Overlapping children (a
    parent waiting on parallel work) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
