"""The four benchmark workloads.

Each workload is a slice of ``scripts/generate_report.py`` at default
scale, driven through the package's public API:

* ``profile-cold`` — :meth:`ExperimentPipeline.phase_data` from an empty
  store (profile → characterise → sweep, the cold report's hot path);
* ``cycle-sweep`` — :class:`CycleSimulator` runs, with power accounting
  and the interval model on the same (phase, configuration) pairs (the
  report's ``validation`` job);
* ``control-loop`` — :meth:`AdaptiveController.run` with overheads on
  (the report's ``section8`` job);
* ``model-train`` — leave-one-program-out CV for both feature sets plus
  the full predictor over all 26 programs (``cv.predictions``).

A workload sets itself up with :meth:`Workload.setup` and then runs
items, one :meth:`Workload.run` call each.  An item holds one or more
*ops*, the unit the end-to-end metrics count: a profiled phase, a
simulation, a controller interval or a CV round.  Every op's output is
digested for comparison with the recorded references, and checked
against invariants that hold for any seed.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import (
    PROFILING_CONFIG,
    AdaptiveController,
    AdvancedFeatureExtractor,
    CycleSimulator,
    ExperimentPipeline,
    IntervalEvaluator,
    ReproScale,
    characterize,
)
from repro.config.parameters import TABLE1_PARAMETERS
from repro.control.controller import FastIntervalRunner
from repro.experiments.baselines import geomean
from repro.experiments.datastore import DataStore
from repro.phases.detector import PhaseDetector
from repro.power import wattch

from perfbench.tracer import TimedDetector, TimedPredictor, TimedStore, Tracer

__all__ = ["Item", "Workload", "WORKLOADS", "make_workload"]

#: Memory-bound (mcf, art, swim) and branchy (gcc, crafty, eon) programs.
PROGRAM_MIX = ("mcf", "art", "swim", "gcc", "crafty", "eon")
#: The report's section8 job: three programs, 25 intervals each.
CONTROL_PROGRAMS = ("mcf", "gcc", "swim")
CONTROL_INTERVALS = 25
#: Programs the controller's predictor is trained on during set-up.
CONTROL_TRAINING = ("gzip", "vpr", "gcc", "mcf", "crafty", "swim", "art",
                    "equake")
#: Pool configurations each cycle-sweep phase is simulated on.
SWEEP_CONFIGS = 8
#: CG budget per parameter model in model-train (ReproScale.quick's).
TRAIN_CG_BUDGET = 40


@dataclass
class Item:
    """One timed unit of work and what came out of it."""

    index: int
    ops: int
    op_seconds: list[float]
    #: Reference key and output per op, digested after timing.
    outputs: list[tuple[str, object]]
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: ``setup(rep)`` then ``run(index)`` repeatedly."""

    name = ""
    #: Set-ups the measuring pass runs; only the first is timed.
    setup_reps = 1
    #: Items that cover the workload's mix once.  A timed pass stops
    #: only after whole rotations, so that every run has the same mix.
    rotation = 1

    def __init__(self, seed: int, workdir: Path,
                 tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self._dirs = 0

    def fresh_store(self, label: str) -> DataStore:
        """An empty store in a directory no earlier call used."""
        self._dirs += 1
        directory = self.workdir / f"{label}-{self._dirs}"
        if self.tracer is None:
            return DataStore(directory)
        return TimedStore(directory, self.tracer)

    @contextlib.contextmanager
    def timed(self, layer: str | None = None) -> Iterator[list[float]]:
        """Time one op; yields a list that receives its seconds.

        When traced, the op is the tracer's root span and ``layer``, if
        given, the span the benchmark's own call opens.
        """
        watch: list[float] = []
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(self.tracer.op())
                if layer is not None:
                    stack.enter_context(self.tracer.span(layer))
            start = time.perf_counter()
            yield watch
            watch.append(time.perf_counter() - start)

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def run(self, index: int) -> Item:
        raise NotImplementedError


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


class ProfileCold(Workload):
    """``phase_data`` for (program, phase) pairs from an empty store.

    Every op gets a fresh pipeline, as a first visit to a phase would,
    so memos of earlier ops neither speed it up nor hold memory.
    """

    name = "profile-cold"
    rotation = len(PROGRAM_MIX)

    def setup(self, rep: int) -> None:
        self.scale = ReproScale.default().with_(benchmarks=PROGRAM_MIX,
                                                seed=self.seed)
        self.store = self.fresh_store("profile")
        self.pipeline = self.new_pipeline()

    def new_pipeline(self) -> ExperimentPipeline:
        pipeline = ExperimentPipeline(self.scale, store=self.store,
                                      workers=1, train_workers=1)
        pipeline.programs
        pipeline.pool
        return pipeline

    def pair(self, index: int) -> tuple[str, int]:
        """Programs round-robin, then the next phase of each."""
        local = index % (len(PROGRAM_MIX) * self.scale.n_phases)
        return (PROGRAM_MIX[local % len(PROGRAM_MIX)],
                local // len(PROGRAM_MIX))

    def run(self, index: int) -> Item:
        if index and self.pair(index) == self.pair(0):
            self.store = self.fresh_store("profile")  # all done: cold again
        if index:
            self.pipeline = self.new_pipeline()
        program, phase = self.pair(index)
        store = self.store
        hits, misses = store.hits, store.misses
        with self.timed() as watch:
            data = self.pipeline.phase_data(program, phase)
        problems = []
        if store.hits != hits:
            problems.append("store hit on a cold run")
        if store.misses != misses + 1:
            problems.append("phase was not computed")
        if data.counters.instructions != self.scale.phase_trace_length:
            problems.append("profiled instruction count differs from trace")
        if not data.evaluations or not all(
                _finite_positive(r.efficiency)
                for r in data.evaluations.values()):
            problems.append("missing or non-positive evaluations")
        return Item(index, 1, watch, [(f"{program}/{phase}", data)],
                    problems)


def resource_score(config) -> float:
    """Where ``config`` sits between the smallest and largest core."""
    return sum(p.values.index(getattr(config, p.name)) / (len(p.values) - 1)
               for p in TABLE1_PARAMETERS)


class CycleSweep(Workload):
    """Cycle-model runs across a small-to-large configuration sample.

    Consecutive ops pair one phase with a small and a large
    configuration, and phases rotate over the program mix, so a run
    averages over many phases instead of dwelling on one.
    """

    name = "cycle-sweep"
    rotation = 2 * len(PROGRAM_MIX)
    #: Configuration slot per op: each pair spans small and large.
    SLOTS = (0, 7, 2, 5, 4, 3, 6, 1)

    def setup(self, rep: int) -> None:
        scale = ReproScale.default().with_(benchmarks=PROGRAM_MIX,
                                           seed=self.seed)
        self.pipeline = ExperimentPipeline(
            scale, store=self.fresh_store("sweep"), workers=1,
            train_workers=1)
        # The middle of each of SWEEP_CONFIGS equal strata by size.
        ranked = sorted(self.pipeline.pool, key=resource_score)
        strata = 2 * SWEEP_CONFIGS
        self.configs = [ranked[(2 * i + 1) * len(ranked) // strata]
                        for i in range(SWEEP_CONFIGS)]
        self._phase: tuple[int, object, object] | None = None

    def phase(self, index: int) -> tuple[str, int]:
        pair = index // 2
        return (PROGRAM_MIX[pair % len(PROGRAM_MIX)],
                (pair // len(PROGRAM_MIX)) % self.pipeline.scale.n_phases)

    def run(self, index: int) -> Item:
        program, phase = self.phase(index)
        if self._phase is None or self._phase[0] != index // 2:
            # Untimed: the trace and the interval model's input.
            trace = self.pipeline.phase_trace(program, phase)
            self._phase = (index // 2, trace, characterize(trace))
        _, trace, char = self._phase
        slot = self.SLOTS[index % len(self.SLOTS)]
        config = self.configs[slot]
        evaluator = IntervalEvaluator()
        with self.timed() as watch:
            simulator = CycleSimulator(config)
            result = simulator.run(trace)
            power = wattch.account(result.activity, simulator.params,
                                   result.cycles)
            fast = evaluator.evaluate(char, config)

        problems = []
        if result.instructions != len(trace):
            problems.append("simulated instruction count differs from trace")
        if result.cycles * config.width < result.instructions:
            problems.append("IPC above the issue width")
        if not (_finite_positive(power.total_pj)
                and _finite_positive(fast.efficiency)):
            problems.append("non-positive energy or efficiency")
        extra = {"cycle_efficiency": result.ips**3 / power.power_watts,
                 "fast_efficiency": fast.efficiency}
        return Item(index, 1, watch,
                    [(f"{program}.p{phase}/{slot}",
                      (result, power.total_pj, fast))], problems, extra)


class _TimedRunner:
    """Interval runner that stamps when each interval finishes."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.finished: list[float] = []

    def run(self, trace, config):
        result = self.runner.run(trace, config)
        self.finished.append(time.perf_counter())
        return result


class ControlLoop(Workload):
    """The detect → profile → predict → charge loop, overheads on."""

    name = "control-loop"
    rotation = len(CONTROL_PROGRAMS)

    def setup(self, rep: int) -> None:
        training = ReproScale.default().with_(
            benchmarks=CONTROL_TRAINING, n_phases=2, phase_trace_length=1000,
            seed=self.seed)
        trainer = ExperimentPipeline(training, store=self.fresh_store("ctl"),
                                     workers=1, train_workers=1)
        self.predictor = trainer.full_predictor("advanced")
        self.initial_config = trainer.baseline_config
        scale = ReproScale.default().with_(benchmarks=CONTROL_PROGRAMS,
                                           seed=self.seed)
        self.pipeline = ExperimentPipeline(
            scale, store=self.fresh_store("ctl"), workers=1, train_workers=1)
        self.pipeline.programs

    def run(self, index: int) -> Item:
        name = CONTROL_PROGRAMS[index % len(CONTROL_PROGRAMS)]
        program = self.pipeline.programs[name]
        runner = _TimedRunner(FastIntervalRunner())
        predictor = self.predictor
        detector = PhaseDetector()
        if self.tracer is not None:
            predictor = TimedPredictor(predictor, self.tracer)
            detector = TimedDetector(self.tracer)
        controller = AdaptiveController(
            predictor, AdvancedFeatureExtractor(), detector=detector,
            runner=runner, overheads_enabled=True,
            initial_config=self.initial_config)
        start = time.perf_counter()
        with self.timed("control"):
            report = controller.run(program, max_intervals=CONTROL_INTERVALS)
        stamps = [start] + runner.finished
        op_seconds = [b - a for a, b in zip(stamps, stamps[1:])]

        problems = []
        expected = min(CONTROL_INTERVALS, program.n_intervals)
        if len(report.records) != expected or len(op_seconds) != expected:
            problems.append("controller skipped intervals")
        for record in report.records:
            if record.profiled and record.config != PROFILING_CONFIG:
                problems.append("profiled interval off the profiling config")
            if not (_finite_positive(record.time_ns)
                    and _finite_positive(record.energy_pj)):
                problems.append("non-positive interval time or energy")
        outputs = [(f"{name}/{record.interval}", record)
                   for record in report.records]
        extra = {"profiled": float(report.profiling_intervals),
                 "reconfigurations": float(report.reconfigurations)}
        return Item(index, len(report.records), op_seconds, outputs,
                    problems, extra)


class ModelTrain(Workload):
    """Leave-one-program-out CV plus the full predictor, 26 programs.

    Each set-up repetition builds the phase store of one dataset (its
    own seed derived from the workload seed).  Rounds then alternate
    between the datasets, each on a fresh copy of its store, so the
    fold cache is empty and every phase read is a hit.
    """

    name = "model-train"
    setup_reps = rotation = 2  # one dataset per set-up

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.datasets: list[tuple[ReproScale, Path]] = []

    def setup(self, rep: int) -> None:
        scale = ReproScale.default().with_(
            n_phases=1, phase_trace_length=1000,
            max_iterations=TRAIN_CG_BUDGET,
            seed=self.seed * self.setup_reps + rep)
        store = self.fresh_store("train")
        ExperimentPipeline(scale, store=store, workers=1,
                           train_workers=1).all_phase_data
        self.datasets.append((scale, store.directory))

    def run(self, index: int) -> Item:
        dataset = index % len(self.datasets)
        scale, source = self.datasets[dataset]
        store = self.fresh_store("round")
        for entry in source.glob("*.pkl"):  # untimed: copy the phase store
            shutil.copyfile(entry, store.directory / entry.name)
        with self.timed("model") as watch:
            pipeline = ExperimentPipeline(scale, store=store, workers=1,
                                          train_workers=1)
            advanced = pipeline.predictions("advanced")
            basic = pipeline.predictions("basic")
            predictor = pipeline.full_predictor("advanced")

        records = pipeline.phase_records("advanced")
        full = dict(zip(((r.program, r.phase_id) for r in records),
                        predictor.predict_batch(
                            np.stack([r.features for r in records]))))
        problems = []
        keys = set(pipeline.phase_keys)
        if set(advanced) != keys or set(basic) != keys:
            problems.append("CV did not predict every phase")
        if store.hits < len(keys):
            problems.append("phase records were recomputed, not read")
        ratio = geomean(list(pipeline.suite_ratios(advanced).values()))
        if not _finite_positive(ratio):
            problems.append("non-positive advanced-vs-static ratio")
        shutil.rmtree(store.directory, ignore_errors=True)
        return Item(index, 1, watch,
                    [(f"dataset{dataset}", (advanced, basic, full, ratio))],
                    problems, {"advanced_vs_static": ratio})


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ProfileCold, CycleSweep, ControlLoop,
                              ModelTrain)
}


def make_workload(name: str, seed: int, workdir: Path,
                  tracer: Tracer | None = None) -> Workload:
    return WORKLOADS[name](seed, workdir, tracer)
