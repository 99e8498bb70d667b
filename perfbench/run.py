"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload profile-cold --seed 0 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, untraced and then traced over the
same items, and prints the per-layer metrics.  Every pass runs in a
fresh worker process (:mod:`perfbench.worker`) with the program's
``src`` on its path, no ``REPRO_*`` tuning variable and a cache
directory of its own under ``.perfbench/``, which is removed at exit.

Each metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs are checked against the digests in
``perfbench/references.json`` and against invariants (see
:mod:`perfbench.workloads`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.report import (  # noqa: E402
    check,
    end_to_end,
    layer_shares,
    per_layer,
)

REFERENCES = Path(__file__).resolve().parent / "references.json"
WORKLOADS = ("profile-cold", "cycle-sweep", "control-loop", "model-train")
#: Every run ends within this many seconds or is abandoned.
DEADLINE_S = 170.0
#: Fresh processes whose set-up time is measured; setup_s is the median.
SETUP_SAMPLES = 3


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def load_references(workload: str, seed: int) -> dict[str, str]:
    if not REFERENCES.is_file():
        return {}
    table = json.loads(REFERENCES.read_text())["workloads"]
    return table.get(workload, {}).get(str(seed), {})


def environment() -> dict[str, object]:
    """What the numbers were measured on."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        # Set by the caller; the workers run without them.
        "repro_vars_dropped": sorted(k for k in os.environ
                                     if k.startswith("REPRO_")),
    }


def run_worker(spec: dict, workdir: Path, deadline: float) -> dict:
    """Run one pass in a fresh process and return its raw result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {ROOT / 'src'}")
    tag = f"pass-{len(list(workdir.glob('spec-*.json')))}"
    spec_path = workdir / f"spec-{tag}.json"
    result_path = workdir / f"result-{tag}.json"
    spec = {**spec, "workdir": str(workdir / tag)}
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(workdir / tag / "default-cache")
    env["REPRO_OBS_DIR"] = str(workdir / tag / "obs")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("no time left for another pass")
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", str(spec_path),
             str(result_path)],
            cwd=ROOT, env=env, stdout=2, timeout=remaining)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"pass overran the {DEADLINE_S:.0f}s "
                             "deadline") from error
    if completed.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(f"worker exited with {completed.returncode}")
    return json.loads(result_path.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, deadline: float) -> tuple[dict, list[dict]]:
    """Run the passes for one benchmark run: (metrics, passes)."""
    base = {"workload": workload, "seed": seed}
    if not trace:
        result = run_worker({**base, "traced": False, "seconds": seconds},
                            workdir, deadline)
        setups = [result["setup_seconds"]] + [
            run_worker({**base, "traced": False, "setup_only": True},
                       workdir, deadline)["setup_seconds"]
            for _ in range(SETUP_SAMPLES - 1)]
        return end_to_end(result, setups), [result]
    untraced = run_worker({**base, "traced": False, "seconds": seconds / 2},
                          workdir, deadline)
    traced = run_worker({**base, "traced": True,
                         "items": len(untraced["items"])}, workdir, deadline)
    return per_layer(untraced, traced, workload), [untraced, traced]


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace)

    units = metric_units(trace)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, passes = measure(args.workload, args.seed, args.seconds,
                                  trace, workdir, deadline)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            workdir.parent.rmdir()

    references = load_references(args.workload, args.seed)
    checks = [check(result, references) for result in passes]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    for problem in (p for c in checks for p in c["problems"]):
        print(f"FAILED {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  {json.dumps(environment())}")
    print(f"ops attempted {attempted}, failed {failed}, "
          f"digest-verified {sum(c['verified'] for c in checks)}")
    if trace:
        for layer, share in layer_shares(passes[1]).items():
            print(f"share {layer} = {share:.3f}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
