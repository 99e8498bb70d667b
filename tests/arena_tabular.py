"""Tabular arena: the exactly-solvable substrate for property tests.

The full arena prices intervals through the timing and power models, so
its invariants can only be checked empirically.  This module restates
the same game in tabular form — a phase sequence, a reward table
``rewards[phase][arm]`` and a switch-cost matrix — where the invariants
the property suite hammers are *provable*:

* :func:`tabular_oracle` solves the game by dynamic programming, so it
  dominates every policy (every switch is charged here — there is no
  free profiling transition muddying the argument like in the full
  arena);
* scaling the overhead multiplier up can only lower a fixed decision
  sequence's net reward (each switch subtracts a larger charge);
* a policy that always answers arm ``a`` accumulates exactly
  :func:`static_score` — the identical left-to-right float summation.

Everything here is plain Python floats and tuples: no numpy summation
reordering, so "exactly" means bit-exact.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.util import seeded_rng

__all__ = [
    "TabularForced",
    "TabularGreedy",
    "TabularPolicy",
    "TabularRandom",
    "TabularRun",
    "TabularScenario",
    "TabularStatic",
    "TabularSticky",
    "run_tabular",
    "static_score",
    "tabular_oracle",
]


@dataclass(frozen=True)
class TabularScenario:
    """A finite adaptation game.

    Attributes:
        phase_sequence: phase index observed at each step.
        rewards: ``rewards[phase][arm]`` — per-step reward of running
            arm ``arm`` during phase ``phase``.  Must be finite (the
            tabular negative-reward guard: NaN/inf rewards are rejected
            at construction, mirroring the full arena's
            :class:`~repro.control.controller.ArenaRewardError`).
        switch_cost: ``switch_cost[a][b]`` — charge for switching arm
            ``a`` → ``b``; non-negative, zero diagonal.
        overhead_multiplier: scales every charge (the scenario knob).
    """

    phase_sequence: tuple[int, ...]
    rewards: tuple[tuple[float, ...], ...]
    switch_cost: tuple[tuple[float, ...], ...]
    overhead_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.phase_sequence:
            raise ValueError("phase sequence must be non-empty")
        if not self.rewards or not self.rewards[0]:
            raise ValueError("reward table must be non-empty")
        arms = len(self.rewards[0])
        for row in self.rewards:
            if len(row) != arms:
                raise ValueError("ragged reward table")
            for value in row:
                if not math.isfinite(value):
                    raise ValueError(f"unscorable reward {value!r}")
        if max(self.phase_sequence) >= len(self.rewards):
            raise ValueError("phase sequence indexes a missing reward row")
        if min(self.phase_sequence) < 0:
            raise ValueError("negative phase index")
        if len(self.switch_cost) != arms:
            raise ValueError("switch-cost matrix must be arms x arms")
        for source, row in enumerate(self.switch_cost):
            if len(row) != arms:
                raise ValueError("switch-cost matrix must be arms x arms")
            for target, value in enumerate(row):
                if not value >= 0.0:  # catches NaN too
                    raise ValueError(f"invalid switch cost {value!r}")
                if source == target and value > 0.0:
                    raise ValueError("staying put must be free")
        if not self.overhead_multiplier >= 0.0:
            raise ValueError("overhead multiplier must be >= 0")

    @property
    def n_arms(self) -> int:
        return len(self.rewards[0])

    @property
    def n_steps(self) -> int:
        return len(self.phase_sequence)

    def charge(self, previous: int | None, arm: int) -> float:
        """The overhead billed for adopting ``arm`` after ``previous``."""
        if previous is None or previous == arm:
            return 0.0
        return self.overhead_multiplier * self.switch_cost[previous][arm]

    def with_multiplier(self, multiplier: float) -> "TabularScenario":
        return TabularScenario(self.phase_sequence, self.rewards,
                               self.switch_cost, multiplier)


class TabularPolicy(ABC):
    """A strategy over the tabular game."""

    def reset(self) -> None:
        """Forget everything before a run."""

    @abstractmethod
    def choose(self, step: int, phase: int) -> int:
        """Pick this step's arm."""

    def update(self, step: int, phase: int, arm: int, reward: float) -> None:
        """Observe the realized (charged) reward."""


@dataclass(frozen=True)
class TabularRun:
    """Outcome of one tabular run."""

    choices: tuple[int, ...]
    rewards: tuple[float, ...]
    net_reward: float
    switches: int


def run_tabular(policy: TabularPolicy, scenario: TabularScenario) -> TabularRun:
    """Drive ``policy`` through ``scenario`` with switch charges.

    The net reward is accumulated left-to-right with plain float adds —
    the same operation order as :func:`static_score`, which is what makes
    the static-equality property exact rather than approximate.
    """
    policy.reset()
    previous: int | None = None
    total = 0.0
    choices: list[int] = []
    rewards: list[float] = []
    switches = 0
    for step, phase in enumerate(scenario.phase_sequence):
        arm = policy.choose(step, phase)
        if not 0 <= arm < scenario.n_arms:
            raise ValueError(f"policy chose unknown arm {arm!r}")
        reward = scenario.rewards[phase][arm]
        if previous is not None and arm != previous:
            reward = reward - scenario.charge(previous, arm)
            switches += 1
        policy.update(step, phase, arm, reward)
        total += reward
        choices.append(arm)
        rewards.append(reward)
        previous = arm
    return TabularRun(choices=tuple(choices), rewards=tuple(rewards),
                      net_reward=total, switches=switches)


def static_score(scenario: TabularScenario, arm: int) -> float:
    """Net reward of always playing ``arm`` (never charged)."""
    total = 0.0
    for phase in scenario.phase_sequence:
        total += scenario.rewards[phase][arm]
    return total


def tabular_oracle(scenario: TabularScenario) -> TabularRun:
    """The charge-aware optimal arm sequence, by dynamic programming.

    The optimal path is *replayed* through :func:`run_tabular` (via
    :class:`TabularForced`) so its net reward is computed with exactly
    the same float operations as any competing policy's — dominance
    comparisons stay apples-to-apples down to summation order.
    """
    arms = range(scenario.n_arms)
    best = [scenario.rewards[scenario.phase_sequence[0]][arm] for arm in arms]
    back: list[list[int]] = []
    for step in range(1, scenario.n_steps):
        phase = scenario.phase_sequence[step]
        step_back: list[int] = []
        step_best: list[float] = []
        for arm in arms:
            scores = [best[source] + scenario.rewards[phase][arm]
                      - scenario.charge(source, arm) for source in arms]
            source = max(arms, key=scores.__getitem__)  # first max wins
            step_back.append(source)
            step_best.append(scores[source])
        back.append(step_back)
        best = step_best
    path = [max(arms, key=best.__getitem__)]
    for step_back in reversed(back):
        path.append(step_back[path[-1]])
    path.reverse()
    return run_tabular(TabularForced(tuple(path)), scenario)


class TabularStatic(TabularPolicy):
    """Always the same arm."""

    def __init__(self, arm: int) -> None:
        self.arm = arm

    def choose(self, step: int, phase: int) -> int:
        return self.arm


class TabularForced(TabularPolicy):
    """Replays a fixed decision sequence (oracle paths, counterfactuals)."""

    def __init__(self, choices: Sequence[int]) -> None:
        self.choices = tuple(choices)

    def choose(self, step: int, phase: int) -> int:
        return self.choices[step]


class TabularGreedy(TabularPolicy):
    """Myopically best arm for the current phase, charges ignored."""

    def __init__(self, scenario: TabularScenario) -> None:
        self.scenario = scenario

    def choose(self, step: int, phase: int) -> int:
        row = self.scenario.rewards[phase]
        return max(range(len(row)), key=row.__getitem__)


class TabularSticky(TabularPolicy):
    """Greedy with hysteresis: switch only when the myopic gain over the
    held arm exceeds the charge — the tabular cousin of
    :class:`~repro.control.arena.policies.PhaseDistancePolicy`."""

    def __init__(self, scenario: TabularScenario) -> None:
        self.scenario = scenario
        self.reset()

    def reset(self) -> None:
        self._held: int | None = None

    def choose(self, step: int, phase: int) -> int:
        row = self.scenario.rewards[phase]
        greedy = max(range(len(row)), key=row.__getitem__)
        if self._held is None:
            self._held = greedy
        elif row[greedy] - row[self._held] > self.scenario.charge(
                self._held, greedy):
            self._held = greedy
        return self._held


class TabularRandom(TabularPolicy):
    """Uniform random arm each phase change (seeded, reproducible)."""

    def __init__(self, n_arms: int, seed: int = 0) -> None:
        self.n_arms = n_arms
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = seeded_rng("arena-tabular-random", self.seed)
        self._held: int | None = None
        self._phase: int | None = None

    def choose(self, step: int, phase: int) -> int:
        if self._held is None or phase != self._phase:
            self._held = int(self._rng.integers(self.n_arms))
            self._phase = phase
        return self._held
