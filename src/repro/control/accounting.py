"""Reconfiguration-overhead accounting.

One formula for every reconfiguration the repository bills: the
switches of the control loop (:func:`~repro.control.controller.run_policy_loop`,
for the controller and every arena policy) and the policy arena's
hindsight oracle (:mod:`repro.control.arena`).

The charge for switching from ``source`` to ``target`` at an interval is

* a visible pipeline stall — ``stall_cycles * period_ns``, scaled down by
  ``interval_length / paper_interval_instructions`` (synthetic intervals
  are far shorter than the paper's 10M-instruction SimPoints, so absolute
  stalls are scaled to preserve the paper's *relative* overhead);
* the gate-switching energy plus the idle energy burnt during the stall
  (leakage + clock tree at the target configuration's operating point).

``multiplier`` scales the whole charge; arena scenarios use it to study
overhead regimes (free / paper / punitive).  ``multiplier=1.0`` is exact:
IEEE multiplication by 1.0 preserves every bit, so the arena's paper
regime charges exactly what :class:`~repro.control.AdaptiveController`
charges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.configuration import MicroarchConfig
from repro.control.reconfiguration import ReconfigurationCost
from repro.timing.resources import derive_machine_params

__all__ = ["ReconfigurationCharge", "overhead_scale", "charge_reconfiguration"]


@dataclass(frozen=True)
class ReconfigurationCharge:
    """The overhead actually billed to one interval."""

    stall_ns: float
    energy_pj: float


def overhead_scale(interval_length: int,
                   paper_interval_instructions: int) -> float:
    """The stall-scaling factor for a synthetic interval length.

    ``paper_interval_instructions=0`` disables scaling (factor 1.0).
    """
    if not paper_interval_instructions:
        return 1.0
    return min(1.0, interval_length / paper_interval_instructions)


def charge_reconfiguration(
    cost: ReconfigurationCost,
    target: MicroarchConfig,
    interval_length: int,
    paper_interval_instructions: int = 10_000_000,
    multiplier: float = 1.0,
) -> ReconfigurationCharge:
    """Price one transition's visible stall and energy.

    Args:
        cost: the :class:`ReconfigurationModel` transition cost.
        target: the configuration being switched *to* (its machine
            parameters set the clock period and idle power).
        interval_length: dynamic instructions per interval.
        paper_interval_instructions: the adaptation interval the overhead
            model is calibrated against (0 disables stall scaling).
        multiplier: scenario overhead regime; 1.0 (the controller's)
            leaves the charge bit-exact.
    """
    scale = overhead_scale(interval_length, paper_interval_instructions)
    params = derive_machine_params(target)
    stall_ns = cost.stall_cycles * params.period_ns * scale * multiplier
    idle_power_mw = (
        params.total_leakage_mw
        + params.clock_energy_pj_per_cycle / params.period_ns
    )
    energy_pj = cost.energy_pj * scale * multiplier + idle_power_mw * stall_ns
    return ReconfigurationCharge(stall_ns=stall_ns, energy_pj=energy_pj)
