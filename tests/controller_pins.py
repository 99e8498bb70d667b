"""Golden pins of :class:`~repro.control.AdaptiveController` records.

The pins in ``controller_pins.json`` were captured from the controller
before it was rebuilt on the policy loop, and guard that loop's
semantics: configurations, ``phase_id`` and both flags must match
exactly, floats to 9 significant digits (the rounding ``perfbench``
digests use), so the pins hold across Python versions.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

PINS_PATH = Path(__file__).with_name("controller_pins.json")

FLOAT_FIELDS = ("time_ns", "energy_pj", "stall_ns", "reconfig_energy_pj")


def pin(records) -> list[dict[str, object]]:
    """The pinned form of a run's interval records."""
    return [
        {
            "interval": record.interval,
            "phase_id": record.phase_id,
            "config": list(dataclasses.astuple(record.config)),
            "profiled": record.profiled,
            "reconfigured": record.reconfigured,
            **{name: format(getattr(record, name), ".9g")
               for name in FLOAT_FIELDS},
        }
        for record in records
    ]


def load_pins() -> dict[str, list[dict[str, object]]]:
    return json.loads(PINS_PATH.read_text())
