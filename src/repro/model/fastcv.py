"""Fast leave-one-program-out cross-validation (the training hot path).

:func:`~repro.model.crossval.leave_one_program_out` is the faithful
reference: for each of the 26 folds it re-selects every phase's good
configurations, re-assembles all 14 per-parameter training sets from
scratch, and runs every conjugate-gradient fit serially from the all-ones
initialisation — even though adjacent folds share 25/26 of their data.
This module is the production engine that removes the redundancy without
changing the answers:

* **incremental assembly** — good sets and the per-parameter label-count
  rows are computed *once* over the full suite; each fold's
  :class:`~repro.model.training.TrainingSet` is a row mask over the
  shared matrices (:meth:`~repro.model.training.TrainingSet.restrict`),
  bit-identical to a fresh per-fold build;
* **fold fan-out** — the 26 x 14 independent (fold, parameter) fits run
  through the :class:`~repro.experiments.runner.PhaseRunner` robustness
  layer, inheriting retries, per-item timeouts, pool rebuilds and
  journalling; shared training material travels to the workers through
  the :class:`~repro.experiments.datastore.DataStore` once per process;
* **fold-weight memoisation** — trained weight matrices are cached under
  a content fingerprint (features + good sets + hyper-parameters), so
  ablation sweeps that revisit a fold reuse its fit and an interrupted
  sweep resumes where it stopped.

Every fit is the paper's: all-ones initialisation and conjugate gradients
on the reference objective, so each fold's optimisation trajectory — and
therefore every prediction — is bit-identical to the serial reference
(gated by ``scripts/bench_train.py``).

Held-out programs are scored with
:meth:`~repro.model.predictor.ConfigurationPredictor.predict_batch`: one
``N x D @ D x K`` product per parameter for all of a program's phases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Hashable, Sequence, cast

import numpy as np

from repro import obs
from repro.config.configuration import MicroarchConfig
from repro.config.parameters import TABLE1_PARAMETERS, Parameter
from repro.experiments.datastore import DataStore
from repro.experiments.journal import RunJournal
from repro.experiments.runner import PhaseRunner
from repro.model.crossval import PhaseRecord
from repro.model.predictor import ConfigurationPredictor
from repro.model.softmax import SoftmaxClassifier
from repro.model.training import (
    TrainingSet,
    build_full_datasets,
    good_configurations,
)

__all__ = ["FastCrossValidator"]

#: One unit of fan-out work: (held-out program, parameter name).
FoldKey = tuple[str, str]

PhaseKey = tuple[str, int]


@dataclass(frozen=True)
class _FoldMaterial:
    """Everything needed to train any (fold, parameter) fit.

    Built once by the coordinator and shipped to worker processes through
    the store (loaded once per process, see :func:`_load_material`), so
    each of the 364 work items pickles only its :data:`FoldKey`.
    """

    regularization: float
    max_iterations: int
    datasets: dict[str, TrainingSet]
    program_of_phase: tuple[str, ...]


# -- cache keys (RPL-C001: all built through DataStore.versioned_key) -------


def _material_key(store: DataStore, fingerprint: str) -> str:
    return store.versioned_key("fastcv", "material", fingerprint)


def _fold_key(store: DataStore, fingerprint: str, held_out: str,
              parameter_name: str) -> str:
    return store.versioned_key("fastcv", "fold", fingerprint, held_out,
                               parameter_name)


# -- worker side ------------------------------------------------------------

#: Per-process memo of the loaded material, keyed by (store dir,
#: fingerprint): pool workers are reused across the 364 items, so the
#: (large) shared material deserialises once per process, not per item.
_WORKER_MATERIAL: tuple[str, str, _FoldMaterial] | None = None


def _load_material(store: DataStore, fingerprint: str) -> _FoldMaterial:
    """Load (and per-process memoise) the shared training material."""
    global _WORKER_MATERIAL
    state = (str(store.directory), fingerprint)
    if _WORKER_MATERIAL is None or _WORKER_MATERIAL[:2] != state:
        material = cast(_FoldMaterial,
                        store.get(_material_key(store, fingerprint)))
        _WORKER_MATERIAL = (state[0], state[1], material)
    return _WORKER_MATERIAL[2]


def _preload_material(store_dir: str, fingerprint: str) -> None:
    """Pool initializer: load the material as the worker starts, so the
    first work item does not pay the deserialisation."""
    _load_material(DataStore(store_dir), fingerprint)


def _train_fold(material: _FoldMaterial, held_out: str,
                parameter_name: str) -> np.ndarray:
    """Train one fold's classifier for one parameter; returns D x K weights.

    The fold's training set is the full-suite dataset restricted to the
    phases of every program but ``held_out`` — bit-identical to the
    arrays a from-scratch per-fold build would produce, so the CG
    trajectory (and the returned weights) match the serial reference
    exactly.
    """
    with obs.span("cv.fold", held_out=held_out, parameter=parameter_name):
        dataset = material.datasets[parameter_name]
        keep = np.asarray(
            [program != held_out for program in material.program_of_phase],
            dtype=bool)
        fold = dataset.restrict(keep)
        classifier = SoftmaxClassifier(
            n_classes=dataset.parameter.cardinality,
            regularization=material.regularization,
            max_iterations=material.max_iterations,
        )
        classifier.fit(fold.x, fold.labels, sample_weight=fold.weights)
        weights = classifier.weights
        assert weights is not None
        obs.inc("cv.folds_trained")
        return weights


def _fold_worker_task(store_dir: str, fingerprint: str,
                      key: FoldKey) -> FoldKey:
    """Pool task: train one (fold, parameter) fit, writing the weights
    through the store's atomic, checksummed ``put``."""
    held_out, parameter_name = key
    store = DataStore(store_dir)
    material = _load_material(store, fingerprint)
    store.get_or_compute(
        _fold_key(store, fingerprint, held_out, parameter_name),
        partial(_train_fold, material, held_out, parameter_name),
    )
    # Terminated pool workers skip atexit hooks; flush per completed fit.
    obs.flush()
    return key


def _describe_fold(key: Hashable) -> str:
    held_out, parameter_name = cast(FoldKey, key)
    return f"fastcv/{held_out}/{parameter_name}"


# -- coordinator ------------------------------------------------------------


class FastCrossValidator:
    """Leave-one-program-out cross-validation over shared training material.

    Args:
        records: one :class:`~repro.model.crossval.PhaseRecord` per phase.
        parameters: parameters to predict (defaults to Table I).
        regularization: lambda of eq. 6 (paper: 0.5).
        threshold: good-configuration slack (paper: 0.05).
        max_iterations: CG budget per parameter model.
        workers: process count for the fold fan-out; ``<= 1`` trains
            in-process.  More than one worker requires a ``store`` (fold
            results travel through it).
        store: optional :class:`DataStore`; when given, trained fold
            weights are memoised under a content fingerprint, so repeated
            runs and ablation sweeps that revisit a fold reuse its fit.
        cache_tag: extra fingerprint component (e.g. the scale tag) to
            keep cache entries from different experiment scales apart.
        journal: optional run journal for the fan-out's attempt log;
            the fan-out's retry budget and per-fit timeout come from
            ``REPRO_MAX_RETRIES`` and ``REPRO_PHASE_TIMEOUT``.
        log: optional progress sink (e.g. ``print``).
    """

    def __init__(
        self,
        records: Sequence[PhaseRecord],
        parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS,
        regularization: float = 0.5,
        threshold: float = 0.05,
        max_iterations: int = 200,
        *,
        workers: int | None = None,
        store: DataStore | None = None,
        cache_tag: str = "",
        journal: RunJournal | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if not records:
            raise ValueError("no phase records supplied")
        self.records = list(records)
        self.parameters = parameters
        self.regularization = regularization
        self.threshold = threshold
        self.max_iterations = max_iterations
        self.workers = 1 if workers is None else max(1, workers)
        self.store = store
        self.cache_tag = cache_tag
        self.journal = journal
        self._log: Callable[[str], None] = log or (lambda message: None)
        self.programs = sorted({record.program for record in self.records})
        if len(self.programs) < 2:
            raise ValueError("leave-one-out needs at least two programs")
        if self.workers > 1 and self.store is None:
            raise ValueError(
                "fold fan-out needs a DataStore: worker results travel "
                "through it")

    # -- shared material (computed once) -----------------------------------

    @cached_property
    def good_sets(self) -> list[list[MicroarchConfig]]:
        """Each phase's good configurations, selected once."""
        return [good_configurations(record.evaluations, self.threshold)
                for record in self.records]

    @cached_property
    def datasets(self) -> dict[str, TrainingSet]:
        """The full-suite per-parameter training sets, assembled once."""
        return build_full_datasets(
            self.parameters,
            [record.features for record in self.records],
            self.good_sets,
        )

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of everything a fold fit depends on.

        Covers the training inputs (features and good sets), the
        hyper-parameters, the parameter list and the cache tag, so
        cached fold weights are reused exactly when they would be
        recomputed identically.
        """
        digest = hashlib.sha256()
        digest.update(repr((self.regularization, self.threshold,
                            self.max_iterations, self.cache_tag)).encode())
        for parameter in self.parameters:
            digest.update(parameter.name.encode())
        for record, goods in zip(self.records, self.good_sets):
            digest.update(f"|{record.program}/{record.phase_id}|".encode())
            features = np.ascontiguousarray(
                np.asarray(record.features, dtype=np.float64))
            digest.update(features.tobytes())
            # Good-set order never reaches the training rows
            # (build_parameter_dataset counts labels per phase), so the
            # fingerprint is canonicalised the same way.
            for indices in sorted(config.as_indices() for config in goods):
                digest.update(bytes(indices))
        return digest.hexdigest()[:32]

    @cached_property
    def material(self) -> _FoldMaterial:
        return _FoldMaterial(
            regularization=self.regularization,
            max_iterations=self.max_iterations,
            datasets=self.datasets,
            program_of_phase=tuple(record.program
                                   for record in self.records),
        )

    # -- training -----------------------------------------------------------

    def fold_weights(self) -> dict[str, dict[str, np.ndarray]]:
        """Train (or fetch) every fold: held-out program -> parameter ->
        D x K weight matrix.

        With a store and more than one worker, missing fits fan out over
        a :class:`PhaseRunner`; anything the fan-out could not complete
        (quarantined items) is then trained in-process, so the result is
        always complete.
        """
        material = self.material
        items: list[FoldKey] = [
            (held_out, parameter.name)
            for held_out in self.programs
            for parameter in self.parameters
        ]
        store = self.store
        if store is not None and self.workers > 1:
            missing = [
                item for item in items
                if not store.contains(_fold_key(store, self.fingerprint,
                                                *item))
            ]
            if len(missing) > 1:
                self._fan_out(store, missing)
        weights: dict[str, dict[str, np.ndarray]] = {
            held_out: {} for held_out in self.programs
        }
        for held_out, name in items:
            if store is None:
                weights[held_out][name] = _train_fold(material, held_out,
                                                      name)
            else:
                weights[held_out][name] = store.get_or_compute(
                    _fold_key(store, self.fingerprint, held_out, name),
                    partial(_train_fold, material, held_out, name),
                )
        return weights

    def _fan_out(self, store: DataStore, missing: list[FoldKey]) -> None:
        store.put(_material_key(store, self.fingerprint), self.material)
        store_dir = str(store.directory)
        workers = min(self.workers, len(missing))
        self._log(f"training {len(missing)} cross-validation fits on "
                  f"{workers} workers")
        runner = PhaseRunner(
            partial(_fold_worker_task, store_dir, self.fingerprint),
            workers=workers,
            journal=self.journal,
            verify=self._fold_cached,
            invalidate=self._invalidate_fold,
            describe=_describe_fold,
            log=self._log,
            initializer=_preload_material,
            initargs=(store_dir, self.fingerprint),
        )
        runner.run(missing)

    def _fold_cached(self, key: Hashable) -> bool:
        held_out, name = cast(FoldKey, key)
        assert self.store is not None
        return self.store.contains(
            _fold_key(self.store, self.fingerprint, held_out, name))

    def _invalidate_fold(self, key: Hashable) -> None:
        held_out, name = cast(FoldKey, key)
        assert self.store is not None
        self.store.delete(
            _fold_key(self.store, self.fingerprint, held_out, name))

    # -- prediction ---------------------------------------------------------

    def run(self) -> dict[PhaseKey, MicroarchConfig]:
        """Predict a configuration for every phase, never training on its
        own program (same contract as
        :func:`~repro.model.crossval.leave_one_program_out`)."""
        fold_weights = self.fold_weights()
        features = np.vstack([
            np.asarray(record.features, dtype=np.float64).ravel()
            for record in self.records
        ])
        predictions: dict[PhaseKey, MicroarchConfig] = {}
        for held_out in self.programs:
            predictor = ConfigurationPredictor.from_weights(
                fold_weights[held_out],
                parameters=self.parameters,
                regularization=self.regularization,
            )
            rows = [row for row, record in enumerate(self.records)
                    if record.program == held_out]
            configs = predictor.predict_batch(features[rows])
            for row, config in zip(rows, configs):
                predictions[self.records[row].key] = config
        return predictions

