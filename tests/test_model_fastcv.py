"""Tests for the fast leave-one-program-out cross-validation engine."""

import numpy as np
import pytest

from repro.config import DesignSpace, TABLE1_PARAMETERS
from repro.experiments.datastore import DataStore
from repro.model import FastCrossValidator, PhaseRecord, leave_one_program_out


def records_for(programs, phases_per_program=3, seed=0):
    """Simple learnable suite (same shape as the crossval tests)."""
    rng = np.random.default_rng(seed)
    space = DesignSpace(seed=seed)
    pool = space.random_sample(10)
    records = []
    for program in programs:
        for phase in range(phases_per_program):
            knob = rng.random()
            x = np.array([knob, 1.0])
            best = pool[0].with_value("width", 8 if knob > 0.5 else 2)
            evaluations = {c: 10.0 for c in pool}
            evaluations[best] = 100.0
            records.append(PhaseRecord(program=program, phase_id=phase,
                                       features=x, evaluations=evaluations))
    return records


def structured_records(n_programs=6, phases_per_program=4, n_features=8,
                       pool_size=40, seed=0):
    """A suite whose ideal configuration is a shared function of the
    features, so leave-one-out folds genuinely generalise."""
    rng = np.random.default_rng(seed)
    pool = DesignSpace(seed=seed + 1).random_sample(pool_size)
    parameters = TABLE1_PARAMETERS
    projection = rng.normal(size=(len(parameters), n_features))
    projection /= np.sqrt(n_features)
    fractions = np.array([
        [parameter.index_of(config[parameter.name])
         / max(1, parameter.cardinality - 1)
         for parameter in parameters]
        for config in pool
    ])
    records = []
    for program_index in range(n_programs):
        for phase_id in range(phases_per_program):
            z = rng.normal(size=n_features)
            ideal = 0.5 + 0.5 * np.tanh(projection @ z)
            distance = np.mean(np.abs(fractions - ideal), axis=1)
            noise = rng.normal(scale=0.004, size=len(pool))
            scores = 1.0 - 0.8 * distance + noise
            records.append(PhaseRecord(
                program=f"prog{program_index}", phase_id=phase_id,
                features=z,
                evaluations={config: float(score)
                             for config, score in zip(pool, scores)},
            ))
    return records


def _shift_feature(records):
    records[0].features = records[0].features + np.array([0.25, 0.0])


def _grow_good_set(records):
    evaluations = records[0].evaluations
    runner_up = next(config for config, value in evaluations.items()
                     if value < 100.0)
    evaluations[runner_up] = 100.0


#: One change per fingerprinted input: (constructor overrides, record
#: mutation).
PERTURBATIONS = {
    "regularization": ({"regularization": 0.25}, None),
    "threshold": ({"threshold": 0.1}, None),
    "max_iterations": ({"max_iterations": 31}, None),
    "cache_tag": ({"cache_tag": "quick"}, None),
    "parameters": ({"parameters": TABLE1_PARAMETERS[:-1]}, None),
    "feature_value": ({}, _shift_feature),
    "good_set": ({}, _grow_good_set),
}


class TestDefaultModeParity:
    def test_identical_to_serial_reference(self):
        """The headline contract: incremental assembly changes nothing."""
        records = records_for(["a", "b", "c", "d"], phases_per_program=4)
        serial = leave_one_program_out(records, max_iterations=40)
        fast = FastCrossValidator(records, max_iterations=40).run()
        assert fast == serial

    def test_identical_on_structured_suite(self):
        records = structured_records(n_programs=4, phases_per_program=3)
        serial = leave_one_program_out(records, max_iterations=60)
        fast = FastCrossValidator(records, max_iterations=60).run()
        assert fast == serial

    def test_workers_parity(self, tmp_path):
        """The fold fan-out lands on the same predictions as serial."""
        records = records_for(["a", "b", "c"], phases_per_program=3)
        serial = leave_one_program_out(records, max_iterations=30)
        fast = FastCrossValidator(records, max_iterations=30, workers=2,
                                  store=DataStore(tmp_path)).run()
        assert fast == serial


class TestFoldCaching:
    def test_second_run_reuses_fold_weights(self, tmp_path):
        records = records_for(["a", "b", "c"], phases_per_program=2)
        store = DataStore(tmp_path)
        first = FastCrossValidator(records, max_iterations=30,
                                   store=store).run()
        misses = store.misses
        assert misses > 0
        hits_before = store.hits
        second = FastCrossValidator(records, max_iterations=30,
                                    store=store).run()
        assert second == first
        assert store.misses == misses  # nothing retrained
        # one hit per (fold, parameter)
        assert store.hits - hits_before == 3 * len(TABLE1_PARAMETERS)

    @pytest.mark.parametrize("change", sorted(PERTURBATIONS))
    def test_fingerprint_tracks_each_input(self, change):
        overrides, mutate = PERTURBATIONS[change]
        base = FastCrossValidator(records_for(["a", "b", "c"]),
                                  max_iterations=30)
        # Same inputs -> same fingerprint (the cache is reusable) ...
        again = FastCrossValidator(records_for(["a", "b", "c"]),
                                   max_iterations=30)
        assert again.fingerprint == base.fingerprint
        # ... and any input a fold fit depends on changes it.
        records = records_for(["a", "b", "c"])
        if mutate is not None:
            mutate(records)
        changed = FastCrossValidator(
            records, **{"max_iterations": 30, **overrides})
        assert changed.fingerprint != base.fingerprint

    def test_quarantined_fits_fall_back_to_in_process(self, tmp_path,
                                                      monkeypatch):
        """Even if the fan-out completes nothing, run() still returns a
        complete prediction set (coordinator trains in-process)."""
        records = records_for(["a", "b", "c"], phases_per_program=2)
        validator = FastCrossValidator(records, max_iterations=30,
                                       workers=2,
                                       store=DataStore(tmp_path))
        monkeypatch.setattr(FastCrossValidator, "_fan_out",
                            lambda self, store, missing: None)
        predictions = validator.run()
        assert set(predictions) == {r.key for r in records}


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FastCrossValidator([])

    def test_needs_two_programs(self):
        with pytest.raises(ValueError):
            FastCrossValidator(records_for(["solo"]))

    def test_fan_out_requires_store(self):
        with pytest.raises(ValueError):
            FastCrossValidator(records_for(["a", "b"]), workers=2)
