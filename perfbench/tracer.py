"""Outside-in layer timing for the traced benchmark run.

The program has spans for only a few layers, so the traced run times
the rest from outside: it wraps calls into each layer of ``src/repro``
and keeps, per layer, the call count, the inclusive busy time, the
self time (busy time minus the time of nested layer calls) and
work counts such as simulated instructions.

Three kinds of wrapper are used, all installed by the benchmark and
none inside the program:

* objects passed through public constructor arguments:
  :class:`TimedStore` for ``store=``, :class:`TimedDetector` for
  ``detector=`` and :class:`TimedPredictor` as the controller's
  predictor;
* spans the benchmark opens around the calls it makes itself;
* :meth:`Tracer.patch`, which replaces a public function or method at
  the place the program looks it up, for layers reached only through
  other layers (the cycle model inside ``collect_counters``, for
  instance).  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

from repro.experiments.datastore import DataStore
from repro.phases.detector import Observation, PhaseDetector
from repro.workloads.trace import Trace

__all__ = ["OP", "Tracer", "TimedStore", "TimedDetector", "TimedPredictor",
           "install_layer_patches"]

#: Root span of one timed op (see :meth:`Tracer.op`).
OP = "op"

CountFn = Callable[..., dict[str, float]]


class Tracer:
    """Per-layer calls, busy time, self time and work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [layer, start, nested seconds]

    def op(self) -> contextlib.AbstractContextManager[None]:
        """Open one timed op of the workload.

        Layer time is recorded only inside an op, so set-up and the
        untimed preparation between ops stay out of the layer figures;
        the op's own self time is the time no layer claimed.
        """
        return self.span(OP)

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Attribute the enclosed time to ``layer`` (inside an op)."""
        if not self._stack and layer != OP:
            yield
            return
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.clock() - frame[1]
            self._stack.pop()
            self.calls[layer] += 1
            self.self_s[layer] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            # A layer re-entered through another layer is busy once.
            if all(outer[0] != layer for outer in self._stack):
                self.busy_s[layer] += duration

    def add(self, counts: dict[str, float]) -> None:
        """Add work counts (inside an op only, like layer time)."""
        if not self._stack:
            return
        for name, value in counts.items():
            self.counts[name] += value

    def wrap(self, layer: str, function: Callable,
             count: CountFn | None = None) -> Callable:
        """``function`` timed as ``layer``; ``count(result, *args)``
        returns work counts to add after each call."""
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(layer):
                result = function(*args, **kwargs)
            if count is not None:
                tracer.add(count(result, *args, **kwargs))
            return result

        return timed

    def patch(self, owner: object, attribute: str, layer: str,
              count: CountFn | None = None) -> None:
        """Replace ``owner.attribute`` with a timed wrapper."""
        original = vars(owner)[attribute]  # the class's own, not inherited
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(layer, original, count))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {"calls": dict(self.calls), "busy_s": dict(self.busy_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


def install_layer_patches(tracer: Tracer) -> None:
    """Wrap the layers that are reached only through other layers."""
    import repro.control.controller as controller
    import repro.counters.features as features
    import repro.experiments.pipeline as pipeline
    import repro.power.wattch as wattch
    import repro.timing.batch as batch
    import repro.timing.cycle as cycle
    import repro.timing.interval as interval
    import repro.workloads.generator as generator

    def generated(trace, *args, **kwargs):
        return {"workloads.insts": len(trace)}

    def simulated(result, *args, **kwargs):
        return {"timing.cycle.insts": result.instructions,
                "timing.cycle.cycles": result.cycles}

    def profiled(counters, *args, **kwargs):
        return {"counters.insts": counters.instructions,
                "counters.profiles": 1}

    def characterised(char, trace, *args, **kwargs):
        return {"timing.characterize.insts": len(trace)}

    def swept(sweep, *args, **kwargs):
        return {"experiments.sweeps.configs": len(sweep.evaluations)}

    tracer.patch(generator.TraceGenerator, "__init__", "workloads")
    tracer.patch(generator.TraceGenerator, "generate", "workloads", generated)
    tracer.patch(cycle.CycleSimulator, "run", "timing.cycle", simulated)
    tracer.patch(features.FeatureExtractor, "extract", "counters")
    tracer.patch(interval.IntervalEvaluator, "evaluate", "timing.interval")
    tracer.patch(interval, "account", "power")
    tracer.patch(wattch, "account", "power")
    tracer.patch(controller, "account", "power")
    tracer.patch(batch, "account_batch", "power")
    tracer.patch(pipeline, "run_phase_sweep", "experiments.sweeps", swept)
    for module in (pipeline, controller):
        tracer.patch(module, "collect_counters", "counters", profiled)
        tracer.patch(module, "characterize", "timing.characterize",
                     characterised)


class TimedStore(DataStore):
    """A :class:`DataStore` that times its reads and writes as
    ``experiments.datastore`` and counts puts and bytes."""

    def __init__(self, directory: str | Path, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def _load(self, path: Path) -> object:
        with self.tracer.span("experiments.datastore"):
            value = super()._load(path)
        self.tracer.add({"experiments.datastore.bytes_read":
                         path.stat().st_size})
        return value

    def put(self, key: str, value: object) -> None:
        with self.tracer.span("experiments.datastore"):
            super().put(key, value)
        self.tracer.add({"experiments.datastore.puts": 1,
                         "experiments.datastore.bytes_written":
                         self._path(key).stat().st_size})

    def get_or_compute(self, key, compute):
        # Not a span: ``compute`` belongs to the caller's layers.
        before = (self.hits, self.misses, self.corruptions)
        value = super().get_or_compute(key, compute)
        self.tracer.add({
            f"experiments.datastore.{name}": now - then
            for name, now, then in zip(
                ("hits", "misses", "corruptions"),
                (self.hits, self.misses, self.corruptions), before)})
        return value

    def contains(self, key: str, verify: bool = True) -> bool:
        with self.tracer.span("experiments.datastore"):
            return super().contains(key, verify)


class TimedDetector(PhaseDetector):
    """A :class:`PhaseDetector` timed as ``phases``."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def observe(self, trace: Trace) -> Observation:
        with self.tracer.span("phases"):
            observation = super().observe(trace)
        self.tracer.add({"phases.new_phases": int(observation.is_new_phase)})
        return observation


class TimedPredictor:
    """Delegates to a trained predictor, timing ``predict`` as ``model``."""

    def __init__(self, predictor, tracer: Tracer) -> None:
        self.predictor = predictor
        self.tracer = tracer

    @property
    def is_trained(self) -> bool:
        return self.predictor.is_trained

    def predict(self, x):
        start = self.tracer.clock()
        with self.tracer.span("model"):
            config = self.predictor.predict(x)
        self.tracer.add({"model.predict_calls": 1,
                         "model.predict_busy_s": self.tracer.clock() - start})
        return config
