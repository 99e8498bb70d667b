"""The runtime adaptivity controller — the figure 2 loop.

Ties every substrate together, exactly as the paper describes:

1. **Detect** (stage 1): an online :class:`~repro.phases.detector.PhaseDetector`
   watches each interval's working-set signature for phase changes.
2. **Profile** (stage 2): on entering an *unseen* phase, the interval runs
   on the profiling configuration while Table II counters are gathered.
3. **Predict & reconfigure** (stage 3): the counters feed the trained
   soft-max :class:`~repro.model.predictor.ConfigurationPredictor`; the
   hardware pays the Table V reconfiguration cost and continues on the
   predicted configuration.  Recognised phases skip profiling and reuse
   their stored prediction — which is why reconfiguration happens only
   once every ~10 intervals on average.

The loop itself is :func:`run_policy_loop`: detect → decide → execute →
charge, with the decision delegated to an :class:`AdaptivityPolicy`.
The paper's strategy is :class:`SoftmaxPolicy`;
:class:`AdaptiveController` runs it over its own detector and interval
runner, and the policy arena (:mod:`repro.control.arena`) runs every
competing policy through the same loop over memoised hooks.

The loop accounts profiling and reconfiguration overheads explicitly
(they can be disabled to measure their impact, section VIII).
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.control.accounting import ReconfigurationCharge, charge_reconfiguration
from repro.control.reconfiguration import ReconfigurationModel
from repro.counters.collector import collect_counters
from repro.counters.features import FeatureExtractor
from repro.model.predictor import ConfigurationPredictor
from repro.phases.detector import Observation, PhaseDetector, signature_of
from repro.power.metrics import EfficiencyResult, energy_efficiency
from repro.power.wattch import account
from repro.timing.characterize import characterize
from repro.timing.cycle import CycleSimulator
from repro.timing.interval import IntervalEvaluator
from repro.workloads.program import Program
from repro.workloads.trace import Trace

__all__ = ["AdaptiveController", "AdaptivityPolicy", "ArenaRewardError",
           "ControllerReport", "CycleIntervalRunner", "FastIntervalRunner",
           "IntervalRecord", "PolicyDecision", "PolicyFeedback", "PolicyView",
           "SoftmaxPolicy", "interval_reward", "predictor_digest",
           "run_policy_loop"]


class FastIntervalRunner:
    """Evaluates intervals with the interval-analysis model (default)."""

    def __init__(self) -> None:
        self._evaluator = IntervalEvaluator()

    def run(self, trace: Trace, config: MicroarchConfig) -> EfficiencyResult:
        return self._evaluator.evaluate(characterize(trace), config)


class CycleIntervalRunner:
    """Evaluates intervals with the cycle-level core (slow, reference)."""

    def run(self, trace: Trace, config: MicroarchConfig) -> EfficiencyResult:
        simulator = CycleSimulator(config)
        result = simulator.run(trace)
        report = account(result.activity, simulator.params, result.cycles)
        return EfficiencyResult(
            instructions=result.instructions,
            cycles=result.cycles,
            time_ns=result.time_ns,
            energy_pj=report.total_pj,
        )


@dataclass
class IntervalRecord:
    """What happened during one interval."""

    interval: int
    phase_id: int
    config: MicroarchConfig
    profiled: bool
    reconfigured: bool
    time_ns: float
    energy_pj: float
    stall_ns: float = 0.0
    reconfig_energy_pj: float = 0.0


@dataclass
class ControllerReport:
    """Aggregate outcome of one adaptive run."""

    records: list[IntervalRecord] = field(default_factory=list)

    @property
    def intervals(self) -> int:
        return len(self.records)

    @property
    def time_ns(self) -> float:
        return sum(r.time_ns + r.stall_ns for r in self.records)

    @property
    def energy_pj(self) -> float:
        return sum(r.energy_pj + r.reconfig_energy_pj for r in self.records)

    @property
    def profiling_intervals(self) -> int:
        return sum(1 for r in self.records if r.profiled)

    @property
    def reconfigurations(self) -> int:
        return sum(1 for r in self.records if r.reconfigured)

    @property
    def reconfiguration_rate(self) -> float:
        """Reconfigurations per interval (paper: ~1 in 10)."""
        return self.reconfigurations / max(self.intervals, 1)

    def efficiency(self, total_instructions: int) -> float:
        """ips^3/W over the whole run."""
        ips = total_instructions / (self.time_ns * 1e-9)
        watts = self.energy_pj / self.time_ns * 1e-3
        return energy_efficiency(ips, watts)

    @property
    def overhead_time_ns(self) -> float:
        return sum(r.stall_ns for r in self.records)

    @property
    def overhead_energy_pj(self) -> float:
        return sum(r.reconfig_energy_pj for r in self.records)


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


class ArenaRewardError(ValueError):
    """An interval produced a reward the league cannot score.

    Raised when an interval's accounted time or energy is non-positive
    or its log-efficiency is not finite — a corrupted evaluation would
    otherwise poison every downstream comparison silently.
    """


def interval_reward(time_ns: float, energy_pj: float,
                    instructions: int) -> float:
    """Log ips³/W of one interval from its accounted time and energy.

    Raises:
        ArenaRewardError: non-positive time/energy or non-finite result
            (the negative-reward guard).
    """
    if time_ns <= 0 or energy_pj <= 0:
        raise ArenaRewardError(
            f"interval has non-positive accounting: time_ns={time_ns!r} "
            f"energy_pj={energy_pj!r}")
    ips = instructions / (time_ns * 1e-9)
    watts = energy_pj / time_ns * 1e-3
    efficiency = energy_efficiency(ips, watts)
    if not (efficiency > 0 and math.isfinite(efficiency)):
        raise ArenaRewardError(f"unscorable efficiency {efficiency!r}")
    return math.log(efficiency)


def _record_reward(record: IntervalRecord, instructions: int) -> float:
    return interval_reward(record.time_ns + record.stall_ns,
                           record.energy_pj + record.reconfig_energy_pj,
                           instructions)


# ---------------------------------------------------------------------------
# The policy protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyDecision:
    """One interval's choice.

    Attributes:
        config: the configuration to adopt (the machine switches to it,
            paying the reconfiguration charge, if it differs from the
            currently-running one).
        profile: the interval is spent on the profiling configuration
            gathering Table II counters; the switch to ``config`` is
            charged at the end of the interval (section III-B1).
    """

    config: MicroarchConfig
    profile: bool = False


@dataclass
class PolicyView:
    """What a policy may observe before deciding an interval.

    ``features``/``signature`` are lazy closures over the loop's hooks —
    calling them is free of side effects on the accounting (the
    *decision's* ``profile`` flag is what bills the profiling interval).
    """

    interval: int
    observation: Observation
    interval_length: int
    _features: Callable[[str], np.ndarray] = field(repr=False)
    _signature: Callable[[], np.ndarray] = field(repr=False)

    def features(self, feature_set: str = "advanced") -> np.ndarray:
        """Counter features of this interval on the profiling config."""
        return self._features(feature_set)

    def signature(self) -> np.ndarray:
        """Working-set signature of this interval (detector-level, free)."""
        return self._signature()


@dataclass(frozen=True)
class PolicyFeedback:
    """Realized outcome of one interval, fed back after execution.

    Attributes:
        interval: interval index.
        observation: the detector verdict the decision was made under.
        decision: the policy's own decision.
        record: full accounting record (config executed, stall, energy).
        reward: the interval's net reward — log energy-efficiency
            *including* any reconfiguration charge.
        overhead_penalty: reward lost to the charge alone
            (``reward_without_charge - reward``); 0.0 on intervals that
            paid nothing.  Overhead-aware policies learn from this.
    """

    interval: int
    observation: Observation
    decision: PolicyDecision
    record: IntervalRecord
    reward: float
    overhead_penalty: float


class AdaptivityPolicy(ABC):
    """A runtime adaptivity strategy: the *decide* step of the loop.

    Policies are run one program at a time; :meth:`reset` starts a
    fresh program and must wipe all learned state so runs are
    independent, cacheable and order-insensitive.
    """

    #: Display name (league-table row); unique within one arena run.
    name: str = "policy"

    def reset(self, program: str) -> None:
        """Forget everything; the next :meth:`decide` starts ``program``.

        Seeded policies must derive their stream from ``program`` (via
        :func:`repro.util.seeded_rng`) so a run's trajectory is a pure
        function of (policy, program) — identical across processes and
        independent of the order programs are run in.
        """

    @abstractmethod
    def decide(self, view: PolicyView) -> PolicyDecision:
        """Choose this interval's configuration."""

    def update(self, feedback: PolicyFeedback) -> None:
        """Receive the realized reward (optional online learning hook)."""

    def cache_token(self) -> tuple[object, ...]:
        """Identity of this policy's behaviour for ``DataStore`` keys.

        Two policies with equal tokens must produce identical runs; any
        knob that changes decisions (hyperparameters, model weights,
        seeds) must be folded in.
        """
        return (self.name,)


def predictor_digest(predictor: ConfigurationPredictor) -> str:
    """A short stable digest of a trained predictor's weights.

    Folded into policy cache tokens so a retrained model never reuses a
    stale :class:`DataStore` run.
    """
    digest = hashlib.sha256()
    for name, weights in predictor.weights_state().items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(weights,
                                           dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


class SoftmaxPolicy(AdaptivityPolicy):
    """The paper's strategy: profile every unseen phase, predict once.

    An unseen phase is profiled and its counters fed to the trained
    soft-max model; the stored prediction is reused whenever the phase
    recurs.  With ``feature_set="basic"`` and a basic-feature predictor
    it doubles as the counters-only ablation.
    """

    def __init__(self, predictor: ConfigurationPredictor, *,
                 feature_set: str = "advanced", name: str = "softmax") -> None:
        if not predictor.is_trained:
            raise ValueError(f"{name} needs a trained predictor")
        self.predictor = predictor
        self.feature_set = feature_set
        self.name = name
        self._phase_configs: dict[int, MicroarchConfig] = {}
        self._current: MicroarchConfig | None = None

    def reset(self, program: str) -> None:
        self._phase_configs = {}
        self._current = None

    def decide(self, view: PolicyView) -> PolicyDecision:
        observation = view.observation
        if observation.phase_changed:
            stored = self._phase_configs.get(observation.phase_id)
            if stored is None:
                target = self.predictor.predict(
                    view.features(self.feature_set))
                self._phase_configs[observation.phase_id] = target
                self._current = target
                return PolicyDecision(target, profile=True)
            self._current = stored
            return PolicyDecision(stored)
        if self._current is None:  # pragma: no cover - detector contract:
            # the first observation of a run always reports a phase change.
            raise RuntimeError("stable interval before any phase change")
        return PolicyDecision(self._current)

    def cache_token(self) -> tuple[object, ...]:
        return (self.name, self.feature_set, predictor_digest(self.predictor))


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def run_policy_loop(
    policy: AdaptivityPolicy,
    program: str,
    n_intervals: int,
    detector: PhaseDetector,
    *,
    profiling_config: MicroarchConfig,
    interval_length: int,
    trace: Callable[[int], Trace],
    execute: Callable[[int, Trace, MicroarchConfig], EfficiencyResult],
    features: Callable[[int, Trace, str], np.ndarray],
    signature: Callable[[int, Trace], np.ndarray],
    charge: Callable[[MicroarchConfig, MicroarchConfig],
                     ReconfigurationCharge | None],
) -> tuple[list[IntervalRecord], list[float], list[MicroarchConfig]]:
    """Detect → decide → execute → charge, once per interval in order.

    Hooks (each gets the interval index and its trace):

    * ``execute`` prices the interval on a configuration, exactly once
      per interval;
    * ``features``/``signature`` back the policy's lazy
      :class:`PolicyView`;
    * ``charge(source, target)`` prices a switch, or returns ``None``
      when overheads are disabled (the switch is still recorded).

    Charging conventions: the first interval is free (the machine boots
    in the chosen configuration), a profile interval runs on
    ``profiling_config`` and is billed the switch *into its target*
    (section III-B1), and any other switch is billed source → target.

    Returns the interval records, their net rewards and the
    configuration *adopted* each interval (the executed one except on
    profile intervals).
    """
    detector.reset()
    policy.reset(program)
    records: list[IntervalRecord] = []
    rewards: list[float] = []
    decisions: list[MicroarchConfig] = []
    current: MicroarchConfig | None = None
    with obs.span("control.loop", policy=policy.name, program=program):
        for interval in range(n_intervals):
            interval_trace = trace(interval)
            observation = detector.observe(interval_trace)
            decision = policy.decide(PolicyView(
                interval=interval,
                observation=observation,
                interval_length=interval_length,
                _features=lambda fs, i=interval, t=interval_trace: features(
                    i, t, fs),
                _signature=lambda i=interval, t=interval_trace: signature(
                    i, t),
            ))
            executed = (profiling_config if decision.profile
                        else decision.config)
            result = execute(interval, interval_trace, executed)
            record = IntervalRecord(
                interval=interval,
                phase_id=observation.phase_id,
                config=executed,
                profiled=decision.profile,
                reconfigured=False,
                time_ns=result.time_ns,
                energy_pj=result.energy_pj * 1e12,
            )
            source = profiling_config if decision.profile else current
            if source is not None and (decision.profile
                                       or decision.config != current):
                record.reconfigured = True
                billed = charge(source, decision.config)
                if billed is not None:
                    record.stall_ns = billed.stall_ns
                    record.reconfig_energy_pj = billed.energy_pj
            current = decision.config
            reward = _record_reward(record, result.instructions)
            penalty = 0.0
            if record.stall_ns or record.reconfig_energy_pj:
                free = interval_reward(record.time_ns, record.energy_pj,
                                       result.instructions)
                penalty = free - reward
            records.append(record)
            rewards.append(reward)
            decisions.append(decision.config)
            policy.update(PolicyFeedback(
                interval=interval,
                observation=observation,
                decision=decision,
                record=record,
                reward=reward,
                overhead_penalty=penalty,
            ))
        obs.inc("control.intervals", len(records))
        obs.inc("control.reconfigurations",
                sum(1 for r in records if r.reconfigured))
        obs.inc("control.profiled_intervals",
                sum(1 for r in records if r.profiled))
        obs.inc("control.runs")
    return records, rewards, decisions


class AdaptiveController:
    """Drives a program through the detect → profile → predict loop:
    :class:`SoftmaxPolicy` over this controller's predictor, detector
    and interval runner."""

    def __init__(
        self,
        predictor: ConfigurationPredictor,
        feature_extractor: FeatureExtractor,
        detector: PhaseDetector | None = None,
        runner: FastIntervalRunner | CycleIntervalRunner | None = None,
        reconfiguration: ReconfigurationModel | None = None,
        profiling_config: MicroarchConfig = PROFILING_CONFIG,
        initial_config: MicroarchConfig | None = None,
        overheads_enabled: bool = True,
        paper_interval_instructions: int = 10_000_000,
    ) -> None:
        """Args other than the obvious:

        initial_config: accepted for compatibility; it never reaches a
            record.  Every detector reports ``phase_changed=True`` on
            the first ``observe()`` after ``reset()``, so the first
            interval is always profiled and the machine boots into the
            profiling configuration.
        paper_interval_instructions: the adaptation interval the overhead
            model is calibrated against (the paper's SimPoint interval is
            10M instructions).  Synthetic intervals are far shorter, so
            absolute reconfiguration stalls are scaled by
            ``interval_length / paper_interval_instructions`` to preserve
            the paper's *relative* overhead; set to 0 to disable scaling.
        """
        if not predictor.is_trained:
            raise ValueError("controller needs a trained predictor")
        self.predictor = predictor
        self.feature_extractor = feature_extractor
        self.detector = detector or PhaseDetector()
        self.runner = runner or FastIntervalRunner()
        self.reconfiguration = reconfiguration or ReconfigurationModel()
        self.profiling_config = profiling_config
        self.initial_config = initial_config or profiling_config
        self.overheads_enabled = overheads_enabled
        self.paper_interval_instructions = paper_interval_instructions

    def run(self, program: Program,
            max_intervals: int | None = None) -> ControllerReport:
        """Execute ``program`` adaptively; returns the accounting report."""
        n_intervals = program.n_intervals
        if max_intervals is not None:
            n_intervals = min(n_intervals, max_intervals)

        def charge(source: MicroarchConfig,
                   target: MicroarchConfig) -> ReconfigurationCharge | None:
            if not self.overheads_enabled:
                return None
            return charge_reconfiguration(
                self.reconfiguration.cost(source, target), target,
                program.interval_length, self.paper_interval_instructions)

        records, _, _ = run_policy_loop(
            SoftmaxPolicy(self.predictor), program.name, n_intervals,
            self.detector,
            profiling_config=self.profiling_config,
            interval_length=program.interval_length,
            trace=program.interval_trace,
            execute=lambda _, trace, config: self.runner.run(trace, config),
            features=lambda _, trace, __: self.feature_extractor.extract(
                collect_counters(trace, self.profiling_config)),
            signature=lambda _, trace: signature_of(trace),
            charge=charge,
        )
        return ControllerReport(records=records)

    def run_static(self, program: Program, config: MicroarchConfig,
                   max_intervals: int | None = None) -> ControllerReport:
        """Reference run: one fixed configuration, no adaptation."""
        report = ControllerReport()
        n_intervals = program.n_intervals
        if max_intervals is not None:
            n_intervals = min(n_intervals, max_intervals)
        for interval in range(n_intervals):
            trace = program.interval_trace(interval)
            result = self.runner.run(trace, config)
            report.records.append(IntervalRecord(
                interval=interval,
                phase_id=-1,
                config=config,
                profiled=False,
                reconfigured=False,
                time_ns=result.time_ns,
                energy_pj=result.energy_pj * 1e12,
            ))
        return report
