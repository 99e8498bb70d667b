"""Record reference digests into ``perfbench/references.json``.

Usage, from the repository root::

    python3 -m perfbench.record --seeds 0-9 [--workloads profile-cold,...]

For every (workload, seed) it runs one untraced pass over a fixed number
of items (enough to cover every output key a run on this machine
reaches, twice over) and stores each op's digest under its key.  An
item that raised or broke an invariant is not recorded.  Re-record only
when a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time

from perfbench.digest import SIGNIFICANT_DIGITS
from perfbench.run import (
    DEADLINE_S,
    REFERENCES,
    ROOT,
    WORKLOADS,
    run_worker,
)

#: Items per recording pass: four phases of each profile-cold program,
#: 24 cycle-sweep phases on two configurations each, every interval of
#: the three control-loop runs and both model-train datasets.
ITEMS = {"profile-cold": 24, "cycle-sweep": 48, "control-loop": 3,
         "model-train": 2}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload: str, seed: int) -> dict[str, str]:
    workdir = ROOT / ".perfbench" / f"record-{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_worker(
            {"workload": workload, "seed": seed, "traced": False,
             "items": ITEMS[workload]},
            workdir, time.monotonic() + 10 * DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            workdir.parent.rmdir()
    digests: dict[str, str] = {}
    for item in result["items"]:
        if item["problems"]:
            print(f"{workload} seed {seed} item {item['index']} not "
                  f"recorded: {item['problems']}", file=sys.stderr)
            continue
        digests.update(item["digests"])
    return digests


def store(workload: str, seed: int, digests: dict[str, str]) -> None:
    """Merge one pass into the file, re-read first so that recorders of
    different workloads can run side by side."""
    table = (json.loads(REFERENCES.read_text()) if REFERENCES.is_file()
             else {"digits": SIGNIFICANT_DIGITS, "workloads": {}})
    table["workloads"].setdefault(workload, {})[str(seed)] = dict(
        sorted(digests.items()))
    temporary = REFERENCES.with_name(f"references.{os.getpid()}.tmp")
    temporary.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    os.replace(temporary, REFERENCES)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 0,1")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            digests = record(workload, seed)
            store(workload, seed, digests)
            print(f"{workload} seed {seed}: {len(digests)} digests in "
                  f"{time.monotonic() - start:.0f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
