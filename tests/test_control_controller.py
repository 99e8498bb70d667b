"""Tests for the adaptive controller (the figure 2 loop)."""

import os

import numpy as np
import pytest

from repro import obs
from repro.config import DesignSpace, PROFILING_CONFIG
from repro.control import AdaptiveController, CycleIntervalRunner
from repro.counters import BasicFeatureExtractor
from repro.model import ConfigurationPredictor
from repro.obs.shards import read_records, shard_path
from repro.workloads import PhaseSpec, Program


@pytest.fixture(scope="module")
def trained_predictor():
    """A predictor trained on synthetic targets (content irrelevant —
    controller mechanics are under test)."""
    rng = np.random.default_rng(0)
    space = DesignSpace(seed=0)
    features = []
    goods = []
    dim = BasicFeatureExtractor().dimension
    for _ in range(12):
        features.append(np.concatenate([rng.random(dim - 1), [1.0]]))
        goods.append([space.random_configuration() for _ in range(2)])
    return ConfigurationPredictor(max_iterations=20).fit(features, goods)


@pytest.fixture(scope="module")
def program():
    specs = (
        PhaseSpec(name="ctl-a", code_blocks=24, footprint_blocks=128),
        PhaseSpec(name="ctl-b", code_blocks=180, footprint_blocks=2048,
                  fp_frac=0.5, branch_frac=0.08),
    )
    return Program(name="ctl", phase_specs=specs,
                   schedule=(0,) * 5 + (1,) * 5 + (0,) * 5,
                   interval_length=3000, seed=4)


def make_controller(trained_predictor, **kwargs):
    return AdaptiveController(
        trained_predictor, BasicFeatureExtractor(), **kwargs
    )


class TestAdaptiveRun:
    def test_runs_all_intervals(self, trained_predictor, program):
        report = make_controller(trained_predictor).run(program)
        assert report.intervals == program.n_intervals
        assert report.time_ns > 0 and report.energy_pj > 0

    def test_profiles_each_new_phase_once(self, trained_predictor, program):
        report = make_controller(trained_predictor).run(program)
        # Two distinct phases: two profiling intervals (recurrence
        # reuses); an occasional mid-phase false split adds at most one.
        assert 2 <= report.profiling_intervals <= 3

    def test_reconfigures_sparsely(self, trained_predictor, program):
        report = make_controller(trained_predictor).run(program)
        assert report.reconfiguration_rate <= 0.5
        assert report.reconfigurations >= 2

    def test_profiling_interval_runs_profiling_config(self, trained_predictor,
                                                      program):
        report = make_controller(trained_predictor).run(program)
        for record in report.records:
            if record.profiled:
                assert record.config == PROFILING_CONFIG

    def test_recurring_phase_reuses_prediction(self, trained_predictor,
                                               program):
        report = make_controller(trained_predictor).run(program)
        configs = {}
        for record in report.records:
            if not record.profiled and record.phase_id >= 0:
                configs.setdefault(record.phase_id, set()).add(record.config)
        for phase_id, used in configs.items():
            assert len(used) == 1

    def test_max_intervals(self, trained_predictor, program):
        report = make_controller(trained_predictor).run(program,
                                                        max_intervals=4)
        assert report.intervals == 4

    def test_overheads_accounted(self, trained_predictor, program):
        with_overheads = make_controller(
            trained_predictor, overheads_enabled=True).run(program)
        without = make_controller(
            trained_predictor, overheads_enabled=False).run(program)
        assert with_overheads.overhead_time_ns > 0
        assert without.overhead_time_ns == 0
        assert with_overheads.time_ns > without.time_ns

    def test_overheads_are_small(self, trained_predictor, program):
        """Paper section VIII: overheads amortise to a few percent."""
        with_overheads = make_controller(
            trained_predictor, overheads_enabled=True).run(program)
        without = make_controller(
            trained_predictor, overheads_enabled=False).run(program)
        assert with_overheads.time_ns / without.time_ns < 1.15

    def test_untrained_predictor_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveController(ConfigurationPredictor(),
                               BasicFeatureExtractor())


class TestObservability:
    def test_run_records_loop_span_and_counters(self, trained_predictor,
                                                program, tmp_path):
        obs.configure(enabled=True, directory=str(tmp_path))
        try:
            report = make_controller(trained_predictor).run(program)
            counters = obs.snapshot()["counters"]
            spans = [record for record in
                     read_records(shard_path(tmp_path, os.getpid()))
                     if record["name"] == "control.loop"]
        finally:
            obs.reset_from_env()
        assert [span["attrs"] for span in spans] == [
            {"policy": "softmax", "program": "ctl"}]
        assert counters["control.runs"] == 1
        assert counters["control.intervals"] == report.intervals
        assert counters["control.reconfigurations"] == report.reconfigurations
        assert (counters["control.profiled_intervals"]
                == report.profiling_intervals)


class TestStaticRun:
    def test_static_never_reconfigures(self, trained_predictor, program,
                                       baseline_config):
        report = make_controller(trained_predictor).run_static(
            program, baseline_config)
        assert report.reconfigurations == 0
        assert report.profiling_intervals == 0
        assert all(r.config == baseline_config for r in report.records)

    def test_efficiency_computable(self, trained_predictor, program,
                                   baseline_config):
        report = make_controller(trained_predictor).run_static(
            program, baseline_config, max_intervals=3)
        total = 3 * program.interval_length
        assert report.efficiency(total) > 0


class TestCycleRunner:
    def test_cycle_runner_agrees_roughly(self, baseline_config, small_trace):
        from repro.control import FastIntervalRunner
        cycle = CycleIntervalRunner().run(small_trace, baseline_config)
        fast = FastIntervalRunner().run(small_trace, baseline_config)
        assert cycle.ipc > 0 and fast.ipc > 0
        assert 0.3 < fast.ipc / cycle.ipc < 3.0
