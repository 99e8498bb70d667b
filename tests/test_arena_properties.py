"""Property-based tests (hypothesis) for the arena's core invariants.

Run on the tabular substrate (:mod:`tests.arena_tabular`), where
the invariants are provable rather than empirical:

* the DP oracle dominates every policy under every overhead regime;
* charging *more* overhead never increases a fixed decision sequence's
  net reward (and never changes a never-switching policy's at all);
* a policy that always picks one arm scores exactly the static
  baseline — bit-exact, same float summation.
"""

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.arena_tabular import (
    TabularForced,
    TabularGreedy,
    TabularRandom,
    TabularScenario,
    TabularStatic,
    TabularSticky,
    run_tabular,
    static_score,
    tabular_oracle,
)

#: Dominance comparisons replay the oracle path through the same
#: accumulation loop as every policy, but the DP argmax itself sums in a
#: different association order, so allow float-level slack.
DOMINANCE_TOL = 1e-9

finite_rewards = st.floats(min_value=-8.0, max_value=8.0,
                           allow_nan=False, allow_infinity=False, width=32)
costs = st.floats(min_value=0.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False, width=32)


@st.composite
def scenarios(draw):
    n_arms = draw(st.integers(min_value=1, max_value=4))
    n_phases = draw(st.integers(min_value=1, max_value=3))
    sequence = tuple(draw(st.lists(
        st.integers(min_value=0, max_value=n_phases - 1),
        min_size=1, max_size=10)))
    rewards = tuple(
        tuple(draw(finite_rewards) for _ in range(n_arms))
        for _ in range(n_phases))
    switch_cost = tuple(
        tuple(0.0 if i == j else draw(costs) for j in range(n_arms))
        for i in range(n_arms))
    multiplier = draw(st.floats(min_value=0.0, max_value=5.0,
                                allow_nan=False, allow_infinity=False,
                                width=32))
    return TabularScenario(phase_sequence=sequence, rewards=rewards,
                           switch_cost=switch_cost,
                           overhead_multiplier=multiplier)


def roster(scenario: TabularScenario):
    policies = [TabularGreedy(scenario), TabularSticky(scenario),
                TabularRandom(scenario.n_arms, seed=1)]
    policies.extend(TabularStatic(arm) for arm in range(scenario.n_arms))
    return policies


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_oracle_dominates_every_policy(scenario):
    """ISSUE 10 property 1: no policy beats the charge-aware DP bound."""
    bound = tabular_oracle(scenario).net_reward
    for policy in roster(scenario):
        achieved = run_tabular(policy, scenario).net_reward
        assert achieved <= bound + DOMINANCE_TOL


@settings(max_examples=120, deadline=None)
@given(scenarios(), st.floats(min_value=0.0, max_value=5.0,
                              allow_nan=False, allow_infinity=False,
                              width=32))
def test_overhead_never_increases_net_reward(scenario, extra):
    """ISSUE 10 property 2: replaying the same decisions under a larger
    overhead multiplier can only lower the net reward."""
    cheaper = scenario
    dearer = scenario.with_multiplier(scenario.overhead_multiplier + extra)
    for policy in roster(cheaper):
        choices = run_tabular(policy, cheaper).choices
        base = run_tabular(TabularForced(choices), cheaper).net_reward
        charged = run_tabular(TabularForced(choices), dearer).net_reward
        assert charged <= base + DOMINANCE_TOL


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_static_policy_scores_static_baseline_exactly(scenario):
    """ISSUE 10 property 3: an always-one-arm policy is charge-free and
    accumulates exactly the static baseline — no tolerance."""
    for arm in range(scenario.n_arms):
        run = run_tabular(TabularStatic(arm), scenario)
        assert run.net_reward == static_score(scenario, arm)
        assert run.switches == 0


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_oracle_weakly_improves_as_overheads_drop(scenario):
    """Freeing the switches can only raise the attainable optimum."""
    charged = tabular_oracle(scenario).net_reward
    free = tabular_oracle(scenario.with_multiplier(0.0)).net_reward
    assert charged <= free + DOMINANCE_TOL


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_oracle_path_replay_is_consistent(scenario):
    """The oracle's reported net reward is its own path's replayed net
    reward — the dominance comparison is apples-to-apples."""
    oracle = tabular_oracle(scenario)
    replay = run_tabular(TabularForced(oracle.choices), scenario)
    assert replay.net_reward == oracle.net_reward
    assert replay.choices == oracle.choices
