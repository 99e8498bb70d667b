"""Tests for good-configuration selection and dataset assembly."""

import numpy as np
import pytest

from repro.config import DesignSpace, parameter_by_name
from repro.model import (
    build_full_datasets,
    build_parameter_dataset,
    good_configurations,
)


@pytest.fixture
def space():
    return DesignSpace(seed=0)


class TestGoodConfigurations:
    def test_within_5_percent(self, space):
        configs = space.random_sample(20)
        evaluations = {c: 100.0 - i for i, c in enumerate(configs)}
        goods = good_configurations(evaluations, threshold=0.05)
        # best = 100; cut = 95: configs with value >= 95 are indices 0..5.
        assert len(goods) == 6
        assert all(evaluations[c] >= 95.0 for c in goods)

    def test_best_always_included(self, space):
        configs = space.random_sample(10)
        evaluations = {c: float(i) + 1 for i, c in enumerate(configs)}
        goods = good_configurations(evaluations)
        assert configs[-1] in goods

    def test_zero_threshold_keeps_only_best(self, space):
        configs = space.random_sample(10)
        evaluations = {c: float(i) for i, c in enumerate(configs)}
        goods = good_configurations(evaluations, threshold=0.0)
        assert goods == [configs[-1]]

    def test_validation(self, space):
        with pytest.raises(ValueError):
            good_configurations({})
        configs = space.random_sample(2)
        with pytest.raises(ValueError):
            good_configurations({configs[0]: 1.0}, threshold=1.0)


class TestBuildDataset:
    def test_labels_are_value_indices(self, space):
        parameter = parameter_by_name("width")
        features = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        goods = [
            [space.random_configuration().with_value("width", 4)],
            [space.random_configuration().with_value("width", 8)],
        ]
        dataset = build_parameter_dataset(parameter, features, goods)
        assert dataset.labels.tolist() == [1, 3]  # indices of 4 and 8

    def test_compression_by_weight(self, space):
        """Duplicate (phase, value) pairs compress into one weighted row."""
        parameter = parameter_by_name("width")
        base = space.random_configuration()
        goods = [[base.with_value("width", 4),
                  base.with_value("width", 4).with_value("rob_size", 32),
                  base.with_value("width", 8)]]
        features = [np.array([1.0])]
        dataset = build_parameter_dataset(parameter, features, goods)
        assert len(dataset.labels) == 2  # width=4 (x2) and width=8
        assert dataset.n_samples == 3
        by_label = dict(zip(dataset.labels.tolist(),
                            dataset.weights.tolist()))
        assert by_label[parameter.index_of(4)] == 2.0
        assert by_label[parameter.index_of(8)] == 1.0

    def test_phase_ids_track_source(self, space):
        parameter = parameter_by_name("width")
        features = [np.zeros(2), np.ones(2)]
        goods = [[space.random_configuration()],
                 [space.random_configuration()]]
        dataset = build_parameter_dataset(parameter, features, goods)
        assert set(dataset.phase_ids) == {0, 1}

    def test_rows_repeat_phase_features(self, space):
        parameter = parameter_by_name("iq_size")
        features = [np.array([7.0, 8.0])]
        goods = [[space.random_configuration(),
                  space.random_configuration()]]
        dataset = build_parameter_dataset(parameter, features, goods)
        assert (dataset.x == features[0]).all()

    def test_misaligned_inputs_rejected(self, space):
        parameter = parameter_by_name("width")
        with pytest.raises(ValueError):
            build_parameter_dataset(parameter, [np.zeros(2)], [])

    def test_empty_goods_rejected(self, space):
        parameter = parameter_by_name("width")
        with pytest.raises(ValueError):
            build_parameter_dataset(parameter, [np.zeros(2)], [[]])


def suite_inputs(space, n_phases=5, goods_per_phase=4, seed=0):
    rng = np.random.default_rng(seed)
    features = [rng.normal(size=3) for _ in range(n_phases)]
    good_sets = [space.random_sample(goods_per_phase)
                 for _ in range(n_phases)]
    return features, good_sets


class TestRestrict:
    def test_bitwise_equals_fresh_build(self, space):
        """The fast-CV contract: masking the full-suite dataset produces
        byte-for-byte the arrays a fresh build over the kept phases would."""
        parameter = parameter_by_name("width")
        features, good_sets = suite_inputs(space)
        full = build_parameter_dataset(parameter, features, good_sets)
        keep = np.array([True, False, True, True, False])
        masked = full.restrict(keep)
        fresh = build_parameter_dataset(
            parameter,
            [f for f, k in zip(features, keep) if k],
            [g for g, k in zip(good_sets, keep) if k],
        )
        assert masked.x.tobytes() == fresh.x.tobytes()
        assert masked.labels.tobytes() == fresh.labels.tobytes()
        assert masked.weights.tobytes() == fresh.weights.tobytes()
        assert masked.phase_ids == fresh.phase_ids

    def test_renumbers_phase_ids_to_local_indices(self, space):
        parameter = parameter_by_name("width")
        features, good_sets = suite_inputs(space, n_phases=4)
        full = build_parameter_dataset(parameter, features, good_sets)
        masked = full.restrict(np.array([False, True, False, True]))
        assert set(masked.phase_ids) == {0, 1}
        assert masked.n_phases == 2

    def test_empty_result_rejected(self, space):
        parameter = parameter_by_name("width")
        features, good_sets = suite_inputs(space, n_phases=3)
        full = build_parameter_dataset(parameter, features, good_sets)
        with pytest.raises(ValueError):
            full.restrict(np.zeros(3, dtype=bool))

    def test_short_mask_rejected(self, space):
        parameter = parameter_by_name("width")
        features, good_sets = suite_inputs(space, n_phases=3)
        full = build_parameter_dataset(parameter, features, good_sets)
        with pytest.raises(ValueError):
            full.restrict(np.array([True, True]))


class TestBuildFullDatasets:
    def test_one_dataset_per_parameter(self, space):
        parameters = [parameter_by_name("width"),
                      parameter_by_name("rob_size")]
        features, good_sets = suite_inputs(space)
        datasets = build_full_datasets(parameters, features, good_sets)
        assert set(datasets) == {"width", "rob_size"}
        for parameter in parameters:
            expected = build_parameter_dataset(parameter, features,
                                               good_sets)
            dataset = datasets[parameter.name]
            assert dataset.x.tobytes() == expected.x.tobytes()
            assert dataset.labels.tolist() == expected.labels.tolist()
