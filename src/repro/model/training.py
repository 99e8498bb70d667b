"""Training-set assembly: good configurations and per-parameter labels.

Section IV-D: the model is trained not on the single best configuration of
each phase but on the set of *good* configurations — "those that are
within 5% of the best empirical performance".  Each good configuration of
each training phase contributes one training sample per microarchitectural
parameter: (phase counters ``x``, parameter value index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.config.parameters import Parameter

__all__ = [
    "good_configurations",
    "build_parameter_dataset",
    "build_full_datasets",
    "TrainingSet",
]

#: The paper's goodness threshold: within 5% of the best.
GOOD_THRESHOLD = 0.05


def good_configurations(
    evaluations: Mapping[MicroarchConfig, float],
    threshold: float = GOOD_THRESHOLD,
) -> list[MicroarchConfig]:
    """Configurations within ``threshold`` of the best efficiency.

    Args:
        evaluations: configuration -> efficiency (higher is better).
        threshold: relative slack below the maximum (paper: 0.05).

    Raises:
        ValueError: if ``evaluations`` is empty.
    """
    if not evaluations:
        raise ValueError("no evaluations supplied")
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")
    best = max(evaluations.values())
    cut = best * (1.0 - threshold)
    return [config for config, value in evaluations.items() if value >= cut]


@dataclass(frozen=True)
class TrainingSet:
    """Weighted feature matrix and labels for one parameter.

    Rows are compressed: a phase whose good set contains the same
    parameter value ``m`` times contributes one row of weight ``m``
    (mathematically identical to ``m`` duplicated rows in eq. 5, but far
    cheaper to train on).
    """

    parameter: Parameter
    x: np.ndarray  # N x D
    labels: np.ndarray  # N integer value indices
    weights: np.ndarray  # N sample multiplicities
    phase_ids: tuple[int, ...]  # which input phase produced each row

    @property
    def n_samples(self) -> int:
        """Uncompressed sample count (sum of weights)."""
        return int(self.weights.sum())

    @property
    def n_phases(self) -> int:
        """Number of distinct input phases contributing rows."""
        return len(set(self.phase_ids))

    def restrict(self, keep_phases: np.ndarray) -> "TrainingSet":
        """The rows contributed by the phases where ``keep_phases`` is true.

        This is the incremental-assembly primitive of the fast
        cross-validation engine: a leave-one-out fold's training set is a
        row mask over the full-suite dataset, not a fresh
        :func:`build_parameter_dataset` run.  The masked arrays are
        bit-identical to those a fresh build over the kept phases would
        produce (same rows, same order, same float64 values), and
        ``phase_ids`` are renumbered to the kept phases' local indices —
        exactly what the fresh build would have assigned.
        """
        keep_phases = np.asarray(keep_phases, dtype=bool)
        phase_ids = np.asarray(self.phase_ids, dtype=np.int64)
        if phase_ids.size and int(phase_ids.max()) >= len(keep_phases):
            raise ValueError("keep_phases shorter than the phase id range")
        keep_rows = keep_phases[phase_ids]
        if not keep_rows.any():
            raise ValueError("row mask removes every training row")
        local = np.cumsum(keep_phases) - 1
        return TrainingSet(
            parameter=self.parameter,
            x=self.x[keep_rows],
            labels=self.labels[keep_rows],
            weights=self.weights[keep_rows],
            phase_ids=tuple(int(i) for i in local[phase_ids[keep_rows]]),
        )


def build_parameter_dataset(
    parameter: Parameter,
    features: Sequence[np.ndarray],
    good_sets: Sequence[Sequence[MicroarchConfig]],
) -> TrainingSet:
    """Assemble the eq. 4/5 training set for one parameter.

    Args:
        parameter: the Table I parameter to label by.
        features: one counter vector per training phase.
        good_sets: the good configurations of each phase (aligned).
    """
    if len(features) != len(good_sets):
        raise ValueError("features and good_sets must align")
    rows: list[np.ndarray] = []
    labels: list[int] = []
    weights: list[int] = []
    phase_ids: list[int] = []
    for phase_id, (x, goods) in enumerate(zip(features, good_sets)):
        counts: dict[int, int] = {}
        for config in goods:
            label = parameter.index_of(config[parameter.name])
            counts[label] = counts.get(label, 0) + 1
        for label, count in sorted(counts.items()):
            rows.append(x)
            labels.append(label)
            weights.append(count)
            phase_ids.append(phase_id)
    if not rows:
        raise ValueError("no good configurations supplied")
    return TrainingSet(
        parameter=parameter,
        x=np.vstack(rows),
        labels=np.asarray(labels, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
        phase_ids=tuple(phase_ids),
    )


def build_full_datasets(
    parameters: Sequence[Parameter],
    features: Sequence[np.ndarray],
    good_sets: Sequence[Sequence[MicroarchConfig]],
) -> dict[str, TrainingSet]:
    """One full-suite :class:`TrainingSet` per parameter, built once.

    Cross-validation folds are then materialised with
    :meth:`TrainingSet.restrict` instead of re-running the per-phase
    label-count assembly once per fold and parameter.
    """
    return {
        parameter.name: build_parameter_dataset(parameter, features,
                                                good_sets)
        for parameter in parameters
    }
