"""One benchmark pass in a fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.worker SPEC.json RESULT.json

``SPEC.json`` names the workload, seed, work directory, whether the pass
is traced, and either a time budget (``seconds``) or a fixed item count
(``items``).  The worker sets the workload up ``setup_reps`` times,
runs whole rotations of items until the budget is spent, digests
every output and writes the raw measurements to ``RESULT.json`` for
:mod:`perfbench.run` to check and summarise.  A ``setup_only`` pass
stops after the first set-up.  A fresh process per pass keeps the
program's in-process memos from warming a later pass, and lets set-up
time include importing the program.
"""

from __future__ import annotations

import time

#: Set-up is timed from here, before the program is imported, so that
#: import-time work counts as set-up.
STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import obs  # noqa: E402

from perfbench.digest import digest  # noqa: E402
from perfbench.tracer import Tracer, install_layer_patches  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402

#: Program counters (REPRO_OBS) the traced pass reports.
OBS_COUNTERS = ("cv.folds_trained", "cg.iterations")


def run_pass(spec: dict) -> dict:
    """One pass; its set-up time runs from :data:`STARTED` through the
    first set-up repetition."""
    workdir = Path(spec["workdir"])
    traced = bool(spec["traced"])
    tracer = Tracer() if traced else None
    workload = make_workload(spec["workload"], spec["seed"], workdir, tracer)
    workload.setup(0)
    setup_seconds = time.perf_counter() - STARTED
    if spec.get("setup_only"):
        return {"setup_seconds": setup_seconds}
    for rep in range(1, workload.setup_reps):
        workload.setup(rep)

    if traced:
        tracer.reset()
        install_layer_patches(tracer)
        obs.configure(enabled=True, directory=str(workdir / "obs"))
    items: list[dict] = []
    limit = spec.get("items")
    start = time.perf_counter()
    try:
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if limit is not None and index >= limit:
                break
            if (limit is None and index % workload.rotation == 0
                    and index and elapsed >= spec["seconds"]):
                break
            items.append(_run_item(workload, index))
            index += 1
        window = time.perf_counter() - start
    finally:
        if traced:
            tracer.restore()
            counters = obs.snapshot()["counters"]
            obs.configure(enabled=False)

    result = {
        "setup_seconds": setup_seconds,
        "window_seconds": window,
        "items": items,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["layers"] = tracer.snapshot()
        result["obs"] = {name: counters.get(name, 0.0)
                         for name in OBS_COUNTERS}
    return result


def _run_item(workload, index: int) -> dict:
    try:
        item = workload.run(index)
    except Exception as error:  # a failed op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return {"index": index, "ops": 1, "op_seconds": [],
                "digests": {}, "extra": {},
                "problems": [f"{type(error).__name__}: {error}"]}
    return {
        "index": item.index,
        "ops": item.ops,
        "op_seconds": item.op_seconds,
        "digests": {key: digest(output) for key, output in item.outputs},
        "problems": item.problems,
        "extra": item.extra,
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = run_pass(spec)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
