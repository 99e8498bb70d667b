"""Temporal histograms — the paper's key hardware-counter structure.

Section III-B2: *"Each bin of the histogram stores the number of cycles
that the structure has a particular usage (e.g., 100 cycles with 16
entries used, 200 cycles with 32 entries used)."*  The same structure also
serves the distance counters (stack distance, reuse distances), where each
bin counts *accesses* at a particular distance.

Two binnings are provided:

* :class:`TemporalHistogram` with **linear** bins — occupancies and port
  usage (bounded, small ranges);
* :class:`TemporalHistogram` with **log2** bins — distances (unbounded,
  heavy-tailed), plus a dedicated *cold* bin for first touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TemporalHistogram", "log2_histogram"]


@dataclass
class TemporalHistogram:
    """A histogram over cycles (or accesses).

    Attributes:
        edges: bin upper bounds, ascending; a value ``v`` lands in the
            first bin whose edge satisfies ``v <= edge``.  Values above
            the last edge land in the last bin.
        counts: per-bin event counts.
        cold: count of "no previous occurrence" events (distance -1).
    """

    edges: tuple[float, ...]
    counts: np.ndarray
    cold: int = 0

    @classmethod
    def linear(cls, maximum: int, bins: int) -> "TemporalHistogram":
        """Evenly spaced bins covering ``[0, maximum]``."""
        if bins < 1 or maximum < 1:
            raise ValueError("need at least one bin and a positive maximum")
        edges = tuple(maximum * (b + 1) / bins for b in range(bins))
        return cls(edges=edges, counts=np.zeros(bins, dtype=np.int64))

    @classmethod
    def log2(cls, maximum: int) -> "TemporalHistogram":
        """Power-of-two bins: (<=1), (<=2), (<=4) ... (<=maximum)."""
        if maximum < 2:
            raise ValueError("maximum must be at least 2")
        n = int(math.ceil(math.log2(maximum))) + 1
        edges = tuple(float(2**b) for b in range(n))
        return cls(edges=edges, counts=np.zeros(n, dtype=np.int64))

    @property
    def bins(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.cold

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` events at ``value`` (-1 records cold events)."""
        if value < 0:
            self.cold += count
            return
        index = int(np.searchsorted(self.edges, value, side="left"))
        if index >= len(self.counts):
            index = len(self.counts) - 1
        self.counts[index] += count

    def add_many(self, values: np.ndarray) -> None:
        """Vectorised :meth:`add` for an array of values."""
        values = np.asarray(values)
        self.cold += int((values < 0).sum())
        positive = values[values >= 0]
        if len(positive) == 0:
            return
        indices = np.searchsorted(self.edges, positive, side="left")
        indices = np.minimum(indices, len(self.counts) - 1)
        self.counts += np.bincount(indices, minlength=len(self.counts)).astype(
            np.int64
        )

    def add_counts(self, counts) -> None:
        """Record ``counts[v]`` events at each value ``v = 0, 1, ...``.

        The weighted ``bincount`` sums in float64, which is exact for
        totals below 2**53.
        """
        counts = np.asarray(counts, dtype=np.int64)
        indices = np.searchsorted(self.edges, np.arange(len(counts)),
                                  side="left")
        indices = np.minimum(indices, len(self.counts) - 1)
        self.counts += np.bincount(indices, weights=counts,
                                   minlength=len(self.counts)).astype(np.int64)

    def normalized(self, include_cold: bool = False) -> np.ndarray:
        """Bin fractions (feature representation); zeros if empty."""
        counts = self.counts.astype(np.float64)
        if include_cold:
            counts = np.concatenate([counts, [float(self.cold)]])
        total = counts.sum()
        if total == 0:
            return counts
        return counts / total

    def mean(self) -> float:
        """Approximate mean of the recorded values (bin upper bounds)."""
        total = int(self.counts.sum())
        if total == 0:
            return 0.0
        return float(np.dot(self.counts, np.asarray(self.edges)) / total)

    def quantile_edge(self, q: float) -> float:
        """Smallest bin edge covering at least fraction ``q`` of events."""
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        total = int(self.counts.sum())
        if total == 0:
            return 0.0
        cum = np.cumsum(self.counts)
        index = int(np.searchsorted(cum, q * total, side="left"))
        index = min(index, len(self.edges) - 1)
        return float(self.edges[index])


def log2_histogram(values: np.ndarray, maximum: int) -> TemporalHistogram:
    """Convenience: build a log2 histogram from an array of distances."""
    histogram = TemporalHistogram.log2(maximum)
    histogram.add_many(np.asarray(values))
    return histogram
