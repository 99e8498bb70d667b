"""The policy arena: pluggable adaptivity controllers, head-to-head.

The policy interface and the paper's :class:`SoftmaxPolicy` live with
the loop in :mod:`repro.control.controller`; see
:mod:`repro.control.arena.harness` for the league machinery and
``docs/arena.md`` for the guide.
"""

from repro.control.arena.bandit import EpsilonGreedyPolicy, LinUCBPolicy
from repro.control.arena.harness import (
    DEFAULT_SCENARIOS,
    ORACLE_NAME,
    Arena,
    ArenaScenario,
    LeagueRow,
    LeagueTable,
    PolicyRunReport,
)
from repro.control.arena.policies import PhaseDistancePolicy, StaticPolicy
from repro.control.controller import (
    AdaptivityPolicy,
    ArenaRewardError,
    PolicyDecision,
    PolicyFeedback,
    PolicyView,
    SoftmaxPolicy,
    interval_reward,
    predictor_digest,
)

__all__ = [
    "AdaptivityPolicy",
    "Arena",
    "ArenaRewardError",
    "ArenaScenario",
    "DEFAULT_SCENARIOS",
    "EpsilonGreedyPolicy",
    "LeagueRow",
    "LeagueTable",
    "LinUCBPolicy",
    "ORACLE_NAME",
    "PhaseDistancePolicy",
    "PolicyDecision",
    "PolicyFeedback",
    "PolicyRunReport",
    "PolicyView",
    "SoftmaxPolicy",
    "StaticPolicy",
    "interval_reward",
    "predictor_digest",
]
