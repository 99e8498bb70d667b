"""Branch prediction: gshare direction predictor and a direct-mapped BTB.

Both structures follow the Table I design space: the gshare pattern table
varies from 1K to 32K two-bit counters (history length tracks the index
width) and the BTB from 1K to 4K entries.  A fetched branch is considered
*mispredicted* when the predicted direction is wrong, or when it is taken
but misses in the BTB (no target to redirect to).

Besides the stateful predictor used by the cycle-level core, this module
provides vectorised batch simulators of the same gshare and BTB over a
resolved branch stream, used by the trace characterisation of
:mod:`repro.timing.characterize` (mispredict rate as a function of
predictor size).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GshareBTB",
    "btb_misses",
    "gshare_mispredicts",
    "simulate_btb",
    "simulate_gshare",
]


class GshareBTB:
    """A gshare direction predictor fused with a direct-mapped BTB.

    Args:
        gshare_entries: pattern-history-table size (power of two).
        btb_entries: BTB entry count (power of two).
    """

    def __init__(self, gshare_entries: int, btb_entries: int) -> None:
        if gshare_entries & (gshare_entries - 1) or gshare_entries <= 0:
            raise ValueError("gshare_entries must be a power of two")
        if btb_entries & (btb_entries - 1) or btb_entries <= 0:
            raise ValueError("btb_entries must be a power of two")
        self.gshare_entries = gshare_entries
        self.btb_entries = btb_entries
        self._pht = np.full(gshare_entries, 2, dtype=np.int8)  # weakly taken
        self._pht_mask = gshare_entries - 1
        self._history_bits = int(gshare_entries).bit_length() - 1
        self._history = 0
        self._btb_tag = np.full(btb_entries, -1, dtype=np.int64)
        self._btb_mask = btb_entries - 1
        self.lookups = 0
        self.updates = 0
        self.direction_mispredicts = 0
        self.btb_misses = 0

    def _pht_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._pht_mask

    def predict(self, pc: int) -> tuple[bool, bool]:
        """Predict branch at ``pc``.

        Returns:
            ``(predicted_taken, btb_hit)``.
        """
        self.lookups += 1
        taken = self._pht[self._pht_index(pc)] >= 2
        btb_hit = self._btb_tag[(pc >> 2) & self._btb_mask] == pc
        return bool(taken), bool(btb_hit)

    def is_mispredict(self, predicted_taken: bool, btb_hit: bool,
                      actual_taken: bool) -> bool:
        """Apply the misprediction rule (direction wrong, or taken+BTB miss)."""
        if predicted_taken != actual_taken:
            return True
        return actual_taken and not btb_hit

    def update(self, pc: int, actual_taken: bool) -> None:
        """Train direction counter, global history and BTB with the outcome."""
        self.updates += 1
        index = self._pht_index(pc)
        if actual_taken:
            self._pht[index] = min(3, self._pht[index] + 1)
        else:
            self._pht[index] = max(0, self._pht[index] - 1)
        self._history = ((self._history << 1) | int(actual_taken)) & (
            (1 << self._history_bits) - 1 if self._history_bits else 0
        )
        if actual_taken:
            self._btb_tag[(pc >> 2) & self._btb_mask] = pc

    def predict_and_update(self, pc: int, actual_taken: bool) -> bool:
        """Trace-driven one-shot: predict, train, return mispredict flag."""
        predicted, btb_hit = self.predict(pc)
        mispredict = self.is_mispredict(predicted, btb_hit, actual_taken)
        if mispredict:
            self.direction_mispredicts += int(predicted != actual_taken)
            self.btb_misses += int(predicted == actual_taken)
        self.update(pc, actual_taken)
        return mispredict


# A map on the four states of a two-bit counter, packed in one byte: bits
# 2s..2s+1 hold the image of state s.  _COMPOSE[g, f] packs "g after f".
_STATE_SHIFTS = 2 * np.arange(4, dtype=np.uint8)
_IMAGES = (np.arange(256, dtype=np.uint8)[:, None] >> _STATE_SHIFTS) & 3
_COMPOSE = (_IMAGES[:, _IMAGES] << _STATE_SHIFTS).sum(axis=2).astype(np.uint8)
_INCREMENT = 0b11_11_10_01  # saturating: 0, 1, 2, 3 -> 1, 2, 3, 3
_DECREMENT = 0b10_01_00_00  # saturating: 0, 1, 2, 3 -> 0, 0, 1, 2


def gshare_mispredicts(
    pcs: np.ndarray, taken: np.ndarray, entries: int
) -> np.ndarray:
    """Per-branch direction-mispredict flags of a gshare of ``entries``
    two-bit counters (weakly taken at reset) trained on ``taken``.

    The global history is built from resolved outcomes, so every PHT
    index is known up front.  Each counter's update is then one of two
    maps on its four states (saturating increment or decrement), and the
    counter value before each access is a prefix composition of those
    maps over the accesses to its entry: a segmented Hillis-Steele scan
    on the accesses sorted by entry.
    """
    if len(pcs) != len(taken):
        raise ValueError("pcs and taken must have equal length")
    outcome = np.asarray(taken).astype(bool)
    n = len(outcome)
    mask = entries - 1
    # Only the low run of ones in the mask survives the shift-and-mask
    # history update, so history bit k holds outcome i-1-k.
    history_mask = ((mask + 1) & ~mask) - 1
    history = np.zeros(n, dtype=np.int64)
    bits = outcome.astype(np.int64)
    for k in range(min(max(history_mask, 0).bit_length(), n - 1)):
        history[k + 1:] |= bits[:n - k - 1] << k
    index = ((np.asarray(pcs).astype(np.int64) >> 2) ^ history) & mask

    order = np.argsort(index, kind="stable")
    seg_start = np.ones(n, dtype=bool)
    seg_start[1:] = index[order[1:]] != index[order[:-1]]
    positions = np.arange(n)
    starts = np.flatnonzero(seg_start)
    longest = int(np.diff(starts, append=n).max()) if n else 0
    # first[j]: sorted position of the first access to j's entry.
    first = np.maximum.accumulate(np.where(seg_start, positions, 0))
    # Inclusive scan: scan[j] maps a counter's reset-time state to its
    # state after its entry's accesses up to sorted position j.
    scan = np.where(outcome[order], _INCREMENT, _DECREMENT).astype(np.uint8)
    span = 1
    while span < longest:
        live = np.flatnonzero(positions - span >= first)
        scan[live] = _COMPOSE[scan[live], scan[live - span]]
        span *= 2
    # Bits 4-5 of a map hold the image of state 2, the reset state.
    counter = np.where(seg_start, 2, (np.roll(scan, 1) >> 4) & 3)
    wrong = np.empty(n, dtype=bool)
    wrong[order] = (counter >= 2) != outcome[order]
    return wrong


def simulate_gshare(
    pcs: np.ndarray, taken: np.ndarray, entries: int
) -> float:
    """Direction mispredict *rate* of a gshare of ``entries`` counters over
    a branch stream (0.0 for an empty stream)."""
    wrong = gshare_mispredicts(pcs, taken, entries)
    if len(wrong) == 0:
        return 0.0
    return int(wrong.sum()) / len(wrong)


def btb_misses(pcs: np.ndarray, taken: np.ndarray, entries: int) -> np.ndarray:
    """Per-branch miss flags of a direct-mapped BTB of ``entries`` entries
    (False for not-taken branches, which neither look up nor install).

    A taken branch hits iff the previous taken branch mapping to the same
    entry had the same PC, found with a stable sort by entry.
    """
    if len(pcs) != len(taken):
        raise ValueError("pcs and taken must have equal length")
    is_taken = np.asarray(taken).astype(bool)
    taken_pcs = np.asarray(pcs).astype(np.int64)[is_taken]
    index = (taken_pcs >> 2) & (entries - 1)
    order = np.argsort(index, kind="stable")
    miss = np.ones(len(order), dtype=bool)
    miss[1:] = (index[order[1:]] != index[order[:-1]]) | (
        taken_pcs[order[1:]] != taken_pcs[order[:-1]])
    out = np.zeros(len(is_taken), dtype=bool)
    out[np.flatnonzero(is_taken)[order]] = miss
    return out


def simulate_btb(pcs: np.ndarray, taken: np.ndarray, entries: int) -> float:
    """Fraction of *taken* branches missing a direct-mapped BTB of
    ``entries`` entries (0.0 if the stream has no taken branches)."""
    misses = int(btb_misses(pcs, taken, entries).sum())
    taken_count = int(np.count_nonzero(taken))
    if taken_count == 0:
        return 0.0
    return misses / taken_count
