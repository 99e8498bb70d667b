"""Tests for the tabular arena (the exactly-solvable property substrate)."""

import pytest

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


def scenario(**overrides) -> TabularScenario:
    base = dict(
        phase_sequence=(0, 1, 0, 1, 1),
        rewards=((1.0, 0.5), (0.2, 0.9)),
        switch_cost=((0.0, 0.3), (0.3, 0.0)),
        overhead_multiplier=1.0,
    )
    base.update(overrides)
    return TabularScenario(**base)


class TestScenarioValidation:
    def test_valid_scenario_builds(self):
        s = scenario()
        assert s.n_arms == 2 and s.n_steps == 5

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            scenario(phase_sequence=())

    def test_nan_reward_rejected(self):
        """The tabular negative-reward guard: unscorable rewards are
        refused at construction, like ArenaRewardError in the harness."""
        with pytest.raises(ValueError, match="unscorable"):
            scenario(rewards=((1.0, float("nan")), (0.2, 0.9)))

    def test_infinite_reward_rejected(self):
        with pytest.raises(ValueError, match="unscorable"):
            scenario(rewards=((1.0, float("inf")), (0.2, 0.9)))

    def test_negative_switch_cost_rejected(self):
        with pytest.raises(ValueError):
            scenario(switch_cost=((0.0, -0.1), (0.3, 0.0)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="staying put"):
            scenario(switch_cost=((0.5, 0.3), (0.3, 0.0)))

    def test_ragged_rewards_rejected(self):
        with pytest.raises(ValueError):
            scenario(rewards=((1.0, 0.5), (0.2,)))

    def test_sequence_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scenario(phase_sequence=(0, 2))

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            scenario(overhead_multiplier=-1.0)

    def test_single_step_scenario_allowed(self):
        """Single-phase/single-step games are legal edge cases."""
        s = scenario(phase_sequence=(0,))
        run = run_tabular(TabularStatic(1), s)
        assert run.switches == 0
        assert run.net_reward == s.rewards[0][1]


class TestRunMechanics:
    def test_charges_subtracted_on_switch(self):
        s = scenario(phase_sequence=(0, 1))
        run = run_tabular(TabularForced((0, 1)), s)
        assert run.switches == 1
        assert run.rewards[1] == pytest.approx(0.9 - 0.3)

    def test_first_step_never_charged(self):
        s = scenario(phase_sequence=(0,), overhead_multiplier=100.0)
        run = run_tabular(TabularForced((1,)), s)
        assert run.switches == 0
        assert run.net_reward == s.rewards[0][1]

    def test_multiplier_scales_charges(self):
        s1 = scenario(phase_sequence=(0, 1))
        s2 = s1.with_multiplier(2.0)
        r1 = run_tabular(TabularForced((0, 1)), s1)
        r2 = run_tabular(TabularForced((0, 1)), s2)
        assert r1.net_reward - r2.net_reward == pytest.approx(0.3)

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arm"):
            run_tabular(TabularForced((7,) * 5), scenario())

    def test_static_policy_scores_static_score_exactly(self):
        s = scenario()
        for arm in range(s.n_arms):
            run = run_tabular(TabularStatic(arm), s)
            # Bit-exact: identical left-to-right float summation.
            assert run.net_reward == static_score(s, arm)
            assert run.switches == 0


class TestOracle:
    def test_known_optimum(self):
        """Hand-checkable: with a 0.3 switch cost the oracle commits to
        arm 1 at the first 0->1 phase flip and stays."""
        s = scenario()
        oracle = tabular_oracle(s)
        assert oracle.choices == (0, 1, 1, 1, 1)
        assert oracle.net_reward == pytest.approx(1.0 + 0.6 + 0.5 + 0.9 + 0.9)

    def test_punitive_overheads_make_oracle_static(self):
        """When every switch costs more than any gain, the optimal
        sequence is a static one — the stay-put limit."""
        s = scenario(overhead_multiplier=50.0)
        oracle = tabular_oracle(s)
        assert oracle.switches == 0
        best_static = max(static_score(s, arm) for arm in range(s.n_arms))
        assert oracle.net_reward == pytest.approx(best_static)

    def test_free_switching_tracks_greedy(self):
        s = scenario(overhead_multiplier=0.0)
        oracle = tabular_oracle(s)
        greedy = run_tabular(TabularGreedy(s), s)
        assert oracle.net_reward == pytest.approx(greedy.net_reward)

    def test_dominates_fixed_policies(self):
        s = scenario()
        oracle = tabular_oracle(s)
        rivals = [TabularGreedy(s), TabularSticky(s), TabularStatic(0),
                  TabularStatic(1), TabularRandom(s.n_arms, seed=3)]
        for rival in rivals:
            assert oracle.net_reward >= run_tabular(rival, s).net_reward


class TestPolicies:
    def test_sticky_stays_put_when_cost_exceeds_gain(self):
        """Hysteresis edge case: overhead larger than any achievable
        gain means the sticky policy never switches."""
        s = scenario(overhead_multiplier=50.0)
        run = run_tabular(TabularSticky(s), s)
        assert run.switches == 0

    def test_sticky_switches_when_gain_justifies(self):
        s = scenario(overhead_multiplier=0.1)
        run = run_tabular(TabularSticky(s), s)
        assert run.switches >= 1

    def test_random_is_reproducible(self):
        s = scenario()
        first = run_tabular(TabularRandom(s.n_arms, seed=9), s)
        second = run_tabular(TabularRandom(s.n_arms, seed=9), s)
        assert first == second
