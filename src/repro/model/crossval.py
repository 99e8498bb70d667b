"""Leave-one-program-out cross-validation (section V-D).

"We built our model and evaluated it using leave-one-out cross-validation
...  when we present results for a specific program, our model has never
been trained with it."  The unit of holdout is the *program*: all ten
phases of the held-out benchmark are predicted by a model trained on the
other 25 benchmarks' phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.config.parameters import TABLE1_PARAMETERS, Parameter
from repro.model.predictor import ConfigurationPredictor

__all__ = ["PhaseRecord", "leave_one_program_out"]


@dataclass
class PhaseRecord:
    """One phase's training/evaluation material."""

    program: str
    phase_id: int
    features: np.ndarray
    evaluations: dict[MicroarchConfig, float]

    @property
    def key(self) -> tuple[str, int]:
        return (self.program, self.phase_id)

    @property
    def best(self) -> tuple[MicroarchConfig, float]:
        """The highest-efficiency configuration, ties broken by config.

        Efficiency ties are resolved by the configurations' value tuples
        rather than dict insertion order, so the answer is a function of
        the evaluations alone — not of the order a sweep happened to
        produce them in.
        """
        config = min(
            self.evaluations,
            key=lambda c: (-self.evaluations[c], c.as_tuple()),
        )
        return config, self.evaluations[config]


def leave_one_program_out(
    records: Sequence[PhaseRecord],
    parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS,
    regularization: float = 0.5,
    threshold: float = 0.05,
    max_iterations: int = 200,
) -> dict[tuple[str, int], MicroarchConfig]:
    """Predict a configuration for every phase, never training on its
    own program.

    This is the straightforward reference implementation: folds run
    serially and each fold re-selects good sets and re-builds every
    parameter dataset from scratch.  Production sweeps use
    :class:`repro.model.fastcv.FastCrossValidator`, which produces
    identical predictions from shared, incrementally assembled
    training material.

    Returns:
        phase key -> predicted configuration.
    """
    if not records:
        raise ValueError("no phase records supplied")
    programs = sorted({r.program for r in records})
    if len(programs) < 2:
        raise ValueError("leave-one-out needs at least two programs")
    predictions: dict[tuple[str, int], MicroarchConfig] = {}
    for held_out in programs:
        train = [r for r in records if r.program != held_out]
        test = [r for r in records if r.program == held_out]
        predictor = ConfigurationPredictor(
            parameters=parameters,
            regularization=regularization,
            max_iterations=max_iterations,
        )
        predictor.fit_evaluations(
            [r.features for r in train],
            [r.evaluations for r in train],
            threshold=threshold,
        )
        for record in test:
            predictions[record.key] = predictor.predict(record.features)
    return predictions
