"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    DesignSpace,
    MicroarchConfig,
    PARAMETER_NAMES,
    TABLE1_PARAMETERS,
    parameter_by_name,
)
from repro.counters import TemporalHistogram
from repro.model import SoftmaxClassifier, good_configurations
from repro.model.predictor import ConfigurationPredictor
from repro.model.quantize import QuantizedPredictor
from repro.timing import (
    block_reuse_distances,
    miss_ratio_curve,
    set_reuse_distances,
    stack_distances,
)
from repro.timing.caches import smoothed_miss_curve


# -- strategies --------------------------------------------------------------

def config_strategy():
    return st.builds(
        MicroarchConfig.from_indices,
        st.tuples(*[st.integers(0, p.cardinality - 1)
                    for p in TABLE1_PARAMETERS]),
    )


block_streams = st.lists(st.integers(0, 200), min_size=1, max_size=300).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


# -- design space -------------------------------------------------------------

class TestConfigProperties:
    @given(config_strategy())
    def test_indices_roundtrip(self, config):
        assert MicroarchConfig.from_indices(config.as_indices()) == config

    @given(config_strategy())
    def test_dict_roundtrip(self, config):
        assert MicroarchConfig.from_dict(config.as_dict()) == config

    @given(config_strategy(), st.sampled_from(PARAMETER_NAMES))
    def test_with_value_changes_only_target(self, config, name):
        parameter = parameter_by_name(name)
        for value in parameter.values:
            changed = config.with_value(name, value)
            assert changed[name] == value
            for other in PARAMETER_NAMES:
                if other != name:
                    assert changed[other] == config[other]

    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    @settings(max_examples=20)
    def test_one_at_a_time_always_97(self, seed, count):
        space = DesignSpace(seed=seed)
        centre = space.random_configuration()
        assert len(space.one_at_a_time(centre)) == 97


# -- locality distances ---------------------------------------------------------

class TestDistanceProperties:
    @given(block_streams)
    def test_stack_distance_bounds(self, blocks):
        distances = stack_distances(blocks)
        n_distinct = len(np.unique(blocks))
        warm = distances[distances >= 0]
        assert (warm < n_distinct).all()
        # First occurrence of every block is cold.
        assert (distances < 0).sum() == n_distinct

    @given(block_streams)
    def test_stack_at_most_reuse_distance(self, blocks):
        """Distinct blocks in a window never exceed total accesses."""
        stack = stack_distances(blocks)
        reuse = block_reuse_distances(blocks)
        warm = stack >= 0
        assert (stack[warm] <= reuse[warm]).all()

    @given(block_streams)
    def test_mattson_inclusion(self, blocks):
        """Bigger LRU caches never miss more (stack-distance monotone)."""
        distances = stack_distances(blocks)
        curve = miss_ratio_curve(distances, [1, 2, 4, 8, 16, 64])
        values = [curve[c] for c in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(block_streams)
    def test_smoothed_curve_bounded_monotone(self, blocks):
        distances = stack_distances(blocks)
        curve = smoothed_miss_curve(distances, [1, 4, 16, 64, 256])
        values = [curve[c] for c in sorted(curve)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(block_streams, st.sampled_from([1, 2, 4, 8, 32]))
    def test_set_reuse_not_longer_than_block_reuse(self, blocks, n_sets):
        """A set is touched at least as often as any one of its blocks."""
        block_reuse = block_reuse_distances(blocks)
        set_reuse = set_reuse_distances(blocks, n_sets)
        warm = (block_reuse >= 0) & (set_reuse >= 0)
        assert (set_reuse[warm] <= block_reuse[warm]).all()


# -- temporal histograms ----------------------------------------------------------

class TestHistogramProperties:
    @given(st.lists(st.integers(-1, 1000), min_size=0, max_size=200))
    def test_total_counts_everything(self, values):
        histogram = TemporalHistogram.log2(256)
        for v in values:
            histogram.add(v)
        assert histogram.total == len(values)

    @given(st.lists(st.integers(-1, 1000), min_size=1, max_size=200))
    def test_add_many_equals_add(self, values):
        a = TemporalHistogram.log2(256)
        b = TemporalHistogram.log2(256)
        for v in values:
            a.add(v)
        b.add_many(np.asarray(values))
        assert (a.counts == b.counts).all() and a.cold == b.cold

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    def test_normalized_is_distribution(self, values):
        histogram = TemporalHistogram.linear(100, 10)
        for v in values:
            histogram.add(v)
        normalized = histogram.normalized()
        assert normalized.sum() == np.float64(1.0) or abs(
            normalized.sum() - 1.0) < 1e-9
        assert (normalized >= 0).all()

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100),
           st.floats(0.05, 1.0))
    def test_quantile_edge_covers_fraction(self, values, q):
        histogram = TemporalHistogram.linear(100, 10)
        for v in values:
            histogram.add(v)
        edge = histogram.quantile_edge(q)
        covered = sum(1 for v in values if v <= edge)
        assert covered >= q * len(values) - 1e-9


# -- model -------------------------------------------------------------------------

class TestModelProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_softmax_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        clf = SoftmaxClassifier(n_classes=3, max_iterations=15).fit(x, y)
        probs = clf.predict_proba(x)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    @given(st.integers(0, 10_000),
           st.floats(0.0, 0.5))
    @settings(max_examples=20)
    def test_good_configurations_invariants(self, seed, threshold):
        space = DesignSpace(seed=seed)
        configs = space.random_sample(12)
        rng = np.random.default_rng(seed)
        evaluations = {c: float(v)
                       for c, v in zip(configs, 1 + rng.random(len(configs)))}
        goods = good_configurations(evaluations, threshold=threshold)
        best_config = max(evaluations, key=evaluations.get)
        best = evaluations[best_config]
        assert best_config in goods
        assert all(evaluations[c] >= best * (1 - threshold) - 1e-12
                   for c in goods)
        # Widening the threshold never removes a good configuration.
        wider = good_configurations(evaluations,
                                    threshold=min(0.9, threshold + 0.1))
        assert set(goods) <= set(wider)


# -- quantised inference ------------------------------------------------------------

# predict() assembles a full MicroarchConfig, so the predictor must
# cover every Table I parameter.
_QUANT_PARAMETERS = TABLE1_PARAMETERS
_QUANT_FEATURES = 6


def _quantized(weights):
    return QuantizedPredictor(ConfigurationPredictor.from_weights(
        weights, parameters=_QUANT_PARAMETERS))


class TestQuantizedProperties:
    """Docstring claim of :class:`QuantizedPredictor`: "a per-matrix
    positive scale never changes the decision"."""

    @given(seed=st.integers(0, 2**32 - 1),
           log2_scales=st.lists(st.integers(-6, 6),
                                min_size=len(_QUANT_PARAMETERS),
                                max_size=len(_QUANT_PARAMETERS)))
    @settings(max_examples=50, deadline=None)
    def test_argmax_invariant_under_positive_scaling(self, seed,
                                                     log2_scales):
        """Power-of-two scales make ``centred * s`` and ``peak * s``
        float-exact, so the quantised int8 matrices — not just the
        predictions — must be bit-identical."""
        rng = np.random.default_rng(seed)
        weights = {
            parameter.name: rng.normal(
                scale=float(10.0 ** rng.integers(-2, 3)),
                size=(_QUANT_FEATURES, parameter.cardinality))
            for parameter in _QUANT_PARAMETERS
        }
        scaled = {
            parameter.name: weights[parameter.name] * 2.0 ** exponent
            for parameter, exponent in zip(_QUANT_PARAMETERS, log2_scales)
        }
        reference = _quantized(weights)
        rescaled = _quantized(scaled)
        for parameter in _QUANT_PARAMETERS:
            np.testing.assert_array_equal(
                rescaled._matrices[parameter.name].weights,
                reference._matrices[parameter.name].weights)
        for x in rng.normal(size=(5, _QUANT_FEATURES)):
            assert rescaled.predict(x) == reference.predict(x)
