"""Tests for the end-to-end experiment pipeline (quick scale)."""

import pytest

from repro.config import MicroarchConfig
from repro.experiments import ReproScale


class TestScale:
    def test_default_is_full_suite(self):
        scale = ReproScale.default()
        assert scale.benchmarks is None
        assert scale.n_phases == 10

    def test_quick_is_small(self):
        scale = ReproScale.quick()
        assert len(scale.benchmarks) < 10
        assert scale.phase_trace_length < 10_000

    def test_paper_matches_protocol(self):
        scale = ReproScale.paper()
        assert scale.pool_size == 1000
        assert scale.neighbour_count == 200

    def test_tag_distinguishes_scales(self):
        assert ReproScale.quick().tag != ReproScale.default().tag
        assert ReproScale.quick().tag != ReproScale.quick().with_(
            seed=5).tag

    def test_with_overrides(self):
        scale = ReproScale.quick().with_(n_phases=7)
        assert scale.n_phases == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ReproScale(n_phases=0)
        with pytest.raises(ValueError):
            ReproScale(pool_size=1)


class TestPipeline:
    def test_phase_data_complete(self, quick_pipeline):
        data = quick_pipeline.all_phase_data
        scale = quick_pipeline.scale
        assert len(data) == len(scale.benchmarks) * scale.n_phases
        sample = next(iter(data.values()))
        assert "advanced" in sample.features and "basic" in sample.features
        assert len(sample.evaluations) > scale.pool_size

    def test_pool_shared_across_phases(self, quick_pipeline):
        for data in quick_pipeline.all_phase_data.values():
            for config in quick_pipeline.pool:
                assert config in data.evaluations

    def test_baseline_is_pool_member(self, quick_pipeline):
        assert quick_pipeline.baseline_config in quick_pipeline.pool

    def test_oracle_at_least_baseline_per_phase(self, quick_pipeline):
        for key in quick_pipeline.phase_keys:
            oracle_eff = quick_pipeline.evaluate(
                key, quick_pipeline.oracle[key]).efficiency
            base_eff = quick_pipeline.evaluate(
                key, quick_pipeline.baseline_config).efficiency
            assert oracle_eff >= base_eff

    def test_per_program_static_between_baseline_and_oracle(
            self, quick_pipeline):
        from repro.experiments import geomean
        perprog = quick_pipeline.suite_ratios(
            quick_pipeline.per_program_assignment())
        oracle = quick_pipeline.suite_ratios(quick_pipeline.oracle)
        assert geomean(list(perprog.values())) >= 1.0 - 1e-9
        assert geomean(list(oracle.values())) >= geomean(
            list(perprog.values())) - 1e-9

    def test_predictions_cover_every_phase(self, quick_pipeline):
        predictions = quick_pipeline.predictions("advanced")
        assert set(predictions) == set(quick_pipeline.phase_keys)
        for config in predictions.values():
            assert isinstance(config, MicroarchConfig)

    def test_evaluate_memoises_new_configs(self, quick_pipeline):
        key = quick_pipeline.phase_keys[0]
        config = quick_pipeline.pool[0].with_value("width", 6)
        first = quick_pipeline.evaluate(key, config)
        second = quick_pipeline.evaluate(key, config)
        assert first is second

    def test_phase_ratio_of_baseline_is_one(self, quick_pipeline):
        key = quick_pipeline.phase_keys[0]
        assert quick_pipeline.phase_ratio(
            key, quick_pipeline.baseline_config) == pytest.approx(1.0)

    def test_unknown_feature_set_rejected(self, quick_pipeline):
        with pytest.raises(KeyError):
            quick_pipeline.predictions("imaginary")

    def test_cache_hits_on_second_pipeline(self, quick_pipeline):
        from repro.experiments import ExperimentPipeline
        clone = ExperimentPipeline(quick_pipeline.scale,
                                   store=quick_pipeline.store)
        clone.all_phase_data  # must come from cache
        assert clone.store.hits > 0

    def test_full_predictor_trains(self, quick_pipeline):
        predictor = quick_pipeline.full_predictor("advanced")
        assert predictor.is_trained
        key = quick_pipeline.phase_keys[0]
        features = quick_pipeline.all_phase_data[key].features["advanced"]
        assert isinstance(predictor.predict(features), MicroarchConfig)


#: One change per input the trained-model cache keys must cover.
MODEL_KEY_INPUTS = {
    "threshold": {"threshold": 0.1},
    "regularization": {"regularization": 0.25},
    "max_iterations": {"max_iterations": 41},
    "dse": {},
}


class TestModelCacheKeys:
    """Prediction and full-predictor entries are keyed on every input
    that changes them, not only on the scale tag."""

    @pytest.mark.parametrize("field", sorted(MODEL_KEY_INPUTS))
    def test_keys_cover_each_input(self, field, tmp_path):
        from repro.dse import DseSettings
        from repro.experiments import DataStore, ExperimentPipeline
        store = DataStore(tmp_path)
        scale = ReproScale.quick()
        base = ExperimentPipeline(scale, store=store)
        changed = ExperimentPipeline(
            scale.with_(**MODEL_KEY_INPUTS[field]), store=store,
            dse=DseSettings(pool_size=2000) if field == "dse" else None)
        assert changed.scale.tag == base.scale.tag
        for feature_set in ("advanced", "basic"):
            assert (changed._prediction_key(feature_set)
                    != base._prediction_key(feature_set))
            assert (changed._full_predictor_key(feature_set)
                    != base._full_predictor_key(feature_set))
        if field != "dse":  # phase data does not depend on the model
            assert (changed._phase_cache_key("mcf", 0)
                    == base._phase_cache_key("mcf", 0))

    def test_changed_regularization_is_a_store_miss(self, quick_pipeline,
                                                    tmp_path):
        """A run with another lambda retrains instead of being served the
        predictions cached under the same scale tag."""
        from repro.experiments import DataStore, ExperimentPipeline
        store = DataStore(tmp_path)
        for key in quick_pipeline.phase_keys:  # share the phase data only
            store.put(quick_pipeline._phase_cache_key(*key),
                      quick_pipeline.phase_data(*key))
        scale = quick_pipeline.scale
        first = ExperimentPipeline(scale, store=store).predictions()
        misses = store.misses
        again = ExperimentPipeline(scale, store=store).predictions()
        assert again == first and store.misses == misses
        ExperimentPipeline(scale.with_(regularization=0.25),
                           store=store).predictions()
        assert store.misses > misses


class TestPrefetch:
    """Process fan-out: workers write through the store, parent re-reads."""

    @pytest.fixture
    def tiny_scale(self):
        return ReproScale.quick().with_(
            benchmarks=("mcf", "swim"), n_phases=2, phase_trace_length=1000,
            pool_size=8, neighbour_count=4)

    def test_workers_env_var(self, monkeypatch, tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        monkeypatch.setenv("REPRO_WORKERS", "3")
        pipe = ExperimentPipeline(ReproScale.quick(),
                                  store=DataStore(tmp_path))
        assert pipe.workers == 3
        assert ExperimentPipeline(ReproScale.quick(),
                                  store=DataStore(tmp_path),
                                  workers=1).workers == 1

    def test_prefetch_serial(self, tiny_scale, tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path))
        computed = pipe.prefetch_phases()
        assert sorted(computed) == sorted(pipe.phase_keys)
        assert pipe.prefetch_phases() == []  # everything cached now

    def test_prefetch_multiprocess_writes_through_store(
            self, tiny_scale, tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path),
                                  workers=2)
        computed = pipe.prefetch_phases()
        assert sorted(computed) == sorted(pipe.phase_keys)
        # The parent's reads are now pure cache hits.
        data = pipe.all_phase_data
        assert len(data) == len(pipe.phase_keys)
        assert pipe.store.misses == 0
        assert pipe.store.hits >= len(pipe.phase_keys)

    def test_multiprocess_matches_serial(self, tiny_scale, tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        serial = ExperimentPipeline(tiny_scale,
                                    store=DataStore(tmp_path / "serial"))
        fanned = ExperimentPipeline(tiny_scale,
                                    store=DataStore(tmp_path / "fanout"),
                                    workers=2)
        a = serial.all_phase_data
        b = fanned.all_phase_data
        assert set(a) == set(b)
        for key in a:
            assert a[key].evaluations == b[key].evaluations
            assert a[key].best[0] == b[key].best[0]

    def test_prefetch_subset(self, tiny_scale, tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path))
        subset = pipe.phase_keys[:1]
        assert pipe.prefetch_phases(keys=subset) == subset
        remaining = pipe.prefetch_phases()
        assert sorted(remaining) == sorted(pipe.phase_keys[1:])


class TestWorkerReuse:
    """Reused worker processes must rebuild their cached pipeline when
    the scale or the store directory changes between tasks."""

    @pytest.fixture
    def tiny_scale(self):
        return ReproScale.quick().with_(
            benchmarks=("mcf", "swim"), n_phases=2, phase_trace_length=1000,
            pool_size=8, neighbour_count=4)

    def test_rebuilds_on_scale_and_store_change(self, tiny_scale, tmp_path):
        import repro.experiments.pipeline as P
        from repro.experiments import DataStore, ExperimentPipeline
        store_a, store_b = str(tmp_path / "a"), str(tmp_path / "b")
        try:
            P._phase_worker(tiny_scale, store_a, None, "mcf", 0)
            first = P._WORKER_PIPELINE
            assert str(first.store.directory) == store_a
            # Same scale + store: the pipeline (suite, pool) is reused.
            P._phase_worker(tiny_scale, store_a, None, "mcf", 1)
            assert P._WORKER_PIPELINE is first
            # A different scale must not be served from the stale pipeline.
            other_scale = tiny_scale.with_(seed=1)
            P._phase_worker(other_scale, store_a, None, "mcf", 0)
            assert P._WORKER_PIPELINE is not first
            assert P._WORKER_PIPELINE.scale == other_scale
            second = P._WORKER_PIPELINE
            # A different store directory must not leak writes to the old one.
            P._phase_worker(other_scale, store_b, None, "swim", 0)
            assert P._WORKER_PIPELINE is not second
            assert str(P._WORKER_PIPELINE.store.directory) == store_b
        finally:
            P._WORKER_PIPELINE = None
        # Every call wrote through the store it was given.
        probe_a = ExperimentPipeline(tiny_scale, store=DataStore(store_a))
        assert probe_a.store.contains(probe_a._phase_cache_key("mcf", 0))
        probe_a2 = ExperimentPipeline(tiny_scale.with_(seed=1),
                                      store=DataStore(store_a))
        assert probe_a2.store.contains(probe_a2._phase_cache_key("mcf", 0))
        probe_b = ExperimentPipeline(tiny_scale.with_(seed=1),
                                     store=DataStore(store_b))
        assert probe_b.store.contains(probe_b._phase_cache_key("swim", 0))
        # The seed-0 entry was never written to store_b.
        probe_b0 = ExperimentPipeline(tiny_scale, store=DataStore(store_b))
        assert not probe_b0.store.contains(
            probe_b0._phase_cache_key("mcf", 0))


class TestFaultTolerance:
    """Injected faults mid-prefetch must not change any result."""

    @pytest.fixture
    def tiny_scale(self):
        return ReproScale.quick().with_(
            benchmarks=("mcf", "swim"), n_phases=2, phase_trace_length=1000,
            pool_size=8, neighbour_count=4)

    @pytest.fixture(autouse=True)
    def _fault_env(self, monkeypatch, tmp_path):
        from repro.testing import faults
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "fault-slots"))
        faults._LOCAL_COUNTS.clear()

    def test_two_worker_crashes_recover_bit_for_bit(
            self, tiny_scale, tmp_path, monkeypatch):
        """Acceptance: crash 2 workers mid-prefetch; the cache still
        completes, checksum-valid, with journalled retries, and every
        figure input matches a fault-free run exactly."""
        from repro.experiments import DataStore, ExperimentPipeline
        clean = ExperimentPipeline(tiny_scale,
                                   store=DataStore(tmp_path / "clean"),
                                   workers=2)
        clean.prefetch_phases()
        reference = clean.all_phase_data
        reference_ratios = clean.suite_ratios(clean.oracle)

        keys = clean.phase_keys
        crash_1 = f"{keys[0][0]}/{keys[0][1]}"
        crash_2 = f"{keys[-1][0]}/{keys[-1][1]}"
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"crash@worker:{crash_1}*1;crash@worker:{crash_2}*1")
        faulted = ExperimentPipeline(tiny_scale,
                                     store=DataStore(tmp_path / "faulted"),
                                     workers=2)
        computed = faulted.prefetch_phases()
        assert sorted(computed) == sorted(faulted.phase_keys)
        monkeypatch.delenv("REPRO_FAULTS")

        # The cache is complete and every entry passes its checksum.
        for key in faulted.phase_keys:
            assert faulted.store.contains(faulted._phase_cache_key(*key))
        # The journal recorded the crashes and recoveries.
        summary = faulted.journal.summary()
        assert summary["failures"] >= 2
        assert summary["pool_rebuilds"] >= 1
        assert summary["quarantined"] == 0
        assert faulted.journal.attempts(crash_1) >= 2
        assert faulted.journal.attempts(crash_2) >= 2

        # Results are bit-for-bit identical to the fault-free run.
        data = faulted.all_phase_data
        assert set(data) == set(reference)
        for key, ref in reference.items():
            assert data[key].evaluations == ref.evaluations
            for feature_set in ("advanced", "basic"):
                assert (data[key].features[feature_set]
                        == ref.features[feature_set]).all()
        assert faulted.suite_ratios(faulted.oracle) == reference_ratios

    def test_corrupt_entry_recomputed_in_fanout(self, tiny_scale, tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path / "c"),
                                  workers=2)
        pipe.prefetch_phases()
        key = pipe.phase_keys[0]
        cache_key = pipe._phase_cache_key(*key)
        path = pipe.store._path(cache_key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        # contains() sees through the corruption, so the prefetch
        # fan-out reschedules exactly the damaged phase.
        assert not pipe.store.contains(cache_key)
        assert pipe.prefetch_phases() == [key]
        assert pipe.store.contains(cache_key)

    def test_transient_compute_fault_retried(self, tiny_scale, tmp_path,
                                             monkeypatch):
        from repro.experiments import DataStore, ExperimentPipeline
        key = "mcf/0"
        monkeypatch.setenv("REPRO_FAULTS", f"transient@compute:{key}*1")
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path / "t"))
        computed = pipe.prefetch_phases()
        assert sorted(computed) == sorted(pipe.phase_keys)
        summary = pipe.journal.summary()
        assert summary["failures"] == 1
        assert summary["quarantined"] == 0
        assert pipe.journal.attempts(key) == 2

    def test_fatal_fault_quarantines_without_blocking(
            self, tiny_scale, tmp_path, monkeypatch):
        from repro.experiments import (
            DataStore,
            ExperimentPipeline,
            QuarantinedPhaseError,
        )
        bad = "mcf/0"
        monkeypatch.setenv("REPRO_FAULTS", f"fatal@compute:{bad}*inf")
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path / "q"))
        with pytest.raises(QuarantinedPhaseError) as excinfo:
            pipe.prefetch_phases()
        assert excinfo.value.keys == [bad]
        # Every other phase was still computed and cached.
        for key in pipe.phase_keys:
            cached = pipe.store.contains(pipe._phase_cache_key(*key))
            assert cached == (f"{key[0]}/{key[1]}" != bad)
        assert pipe.journal.quarantined() == [bad]
        # Resume: the quarantined phase is skipped, not retried forever.
        with pytest.raises(QuarantinedPhaseError):
            pipe.prefetch_phases()
        # After clearing the quarantine (fault gone), the run completes.
        monkeypatch.delenv("REPRO_FAULTS")
        pipe.journal.clear_quarantine(bad)
        assert pipe.prefetch_phases() == [("mcf", 0)]
        assert pipe.prefetch_phases() == []


class TestDsePath:
    """The opt-in surrogate-screening path through the pipeline."""

    @pytest.fixture
    def tiny_scale(self):
        return ReproScale.quick().with_(
            benchmarks=("mcf", "swim"), n_phases=2, phase_trace_length=1000,
            pool_size=8, neighbour_count=4)

    @pytest.fixture
    def settings(self):
        from repro.dse import DseSettings
        return DseSettings(pool_size=2000)

    def test_screening_enriches_every_phase(self, tiny_scale, settings,
                                            tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        base = ExperimentPipeline(tiny_scale,
                                  store=DataStore(tmp_path / "base"))
        dse = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path / "d"),
                                 dse=settings)
        for key in dse.phase_keys:
            base_sweep = base.phase_data(*key)
            sweep = dse.phase_data(*key)
            stats = dse.dse_stats(*key)
            assert stats is not None
            assert stats.pool_size == settings.pool_size
            assert stats.exact_evaluations < settings.pool_size
            # The screened survivors join the evaluation set (the
            # polish stages then explore *around* the screened best, so
            # the two paths' final bests are not comparable in general).
            assert len(sweep.evaluations) > len(base_sweep.evaluations)
            screen = dse.store.get(dse._dse_screen_key(*key))
            chosen = screen.chosen_config()
            assert chosen in sweep.evaluations
            assert (sweep.best[1].efficiency
                    >= sweep.evaluations[chosen].efficiency)
        assert base.dse_stats(*base.phase_keys[0]) is None

    def test_cache_namespaces_are_separate(self, tiny_scale, settings,
                                           tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        store = DataStore(tmp_path)
        dse = ExperimentPipeline(tiny_scale, store=store, dse=settings)
        dse.phase_data("mcf", 0)
        # The DSE build wrote its own namespace, not the exact one.
        base = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path))
        assert dse._phase_cache_key("mcf", 0) != base._phase_cache_key(
            "mcf", 0)
        assert store.contains(dse._phase_cache_key("mcf", 0))
        assert not store.contains(base._phase_cache_key("mcf", 0))

    def test_env_var_opt_in(self, tiny_scale, tmp_path, monkeypatch):
        from repro.dse import DseSettings
        from repro.experiments import DataStore, ExperimentPipeline
        monkeypatch.setenv("REPRO_DSE_POOL", "2000")
        pipe = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path))
        assert pipe.dse == DseSettings(pool_size=2000)
        # An explicit constructor argument beats the environment.
        override = ExperimentPipeline(tiny_scale, store=DataStore(tmp_path),
                                      dse=DseSettings(pool_size=500))
        assert override.dse == DseSettings(pool_size=500)
        monkeypatch.delenv("REPRO_DSE_POOL")
        assert ExperimentPipeline(tiny_scale,
                                  store=DataStore(tmp_path)).dse is None

    def test_worker_fanout_matches_serial(self, tiny_scale, settings,
                                          tmp_path):
        from repro.experiments import DataStore, ExperimentPipeline
        serial = ExperimentPipeline(tiny_scale,
                                    store=DataStore(tmp_path / "s"),
                                    dse=settings)
        serial.prefetch_phases()
        fanned = ExperimentPipeline(tiny_scale,
                                    store=DataStore(tmp_path / "w"),
                                    dse=settings, workers=2)
        assert sorted(fanned.prefetch_phases()) == sorted(fanned.phase_keys)
        for key in serial.phase_keys:
            ours, theirs = serial.phase_data(*key), fanned.phase_data(*key)
            assert ours.best[0] == theirs.best[0]
            mine, other = serial.dse_stats(*key), fanned.dse_stats(*key)
            # Wall-clock fields legitimately differ; everything the
            # screen *decided* must be bit-identical across processes.
            assert mine.rung_sizes == other.rung_sizes
            assert mine.exact_evaluations == other.exact_evaluations
            assert mine.surrogate_r2 == other.surrogate_r2
            assert len(ours.evaluations) == len(theirs.evaluations)
