"""Benchmark the fast leave-one-program-out training engine.

Times the serial reference (``leave_one_program_out``: per-fold dataset
rebuilds) against the fast engine (``FastCrossValidator``) on a
structured synthetic suite, and writes the results to
``BENCH_train.json`` so the training-perf trajectory is tracked from PR
to PR:

1. **serial** — the reference path, one CG fit per (fold, parameter)
   from a fresh per-fold dataset;
2. **fast** — shared good sets + incrementally assembled fold datasets,
   fold weights written to a fresh ``DataStore``.  Gated: predictions
   must be *identical* to serial (the fold weights are bit-identical by
   construction);
3. **fast cached** — the same run again against the populated fold
   cache, showing the ``DataStore`` memoisation an ablation sweep sees.
   Gated: it must return the same predictions.

The CG budget is set high enough that fits run to *convergence* (the
paper specifies no iteration cap).

Usage::

    PYTHONPATH=src python scripts/bench_train.py           # full scale
    PYTHONPATH=src python scripts/bench_train.py --smoke   # CI-sized

The script exits non-zero if the fast engine's predictions diverge from
serial (fold parity) or if the cached rerun changes them.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.config.parameters import TABLE1_PARAMETERS
from repro.config.space import DesignSpace
from repro.experiments.datastore import DataStore
from repro.model.crossval import PhaseRecord, leave_one_program_out
from repro.model.fastcv import FastCrossValidator


def make_records(
    n_programs: int,
    n_phases: int,
    n_features: int,
    pool_size: int,
    seed: int = 0,
) -> list[PhaseRecord]:
    """A structured synthetic suite with a learnable counters->config map.

    Each phase's ideal parameter settings are a fixed (tanh-squashed
    linear) function of its counter vector, shared across programs, and
    a configuration's efficiency decays with its distance from the
    ideal — so leave-one-out models genuinely generalise to the held-out
    program, as on the real pipeline data.  Mild noise keeps good sets
    plural (several configs within the 5% band per phase).
    """
    rng = np.random.default_rng(seed)
    pool = DesignSpace(seed=seed + 1).random_sample(pool_size)
    parameters = TABLE1_PARAMETERS
    projection = rng.normal(size=(len(parameters), n_features))
    projection /= np.sqrt(n_features)
    # Each pool config as per-parameter value fractions in [0, 1].
    fractions = np.array([
        [parameter.index_of(config[parameter.name])
         / max(1, parameter.cardinality - 1)
         for parameter in parameters]
        for config in pool
    ])
    records = []
    for program_index in range(n_programs):
        for phase_id in range(n_phases):
            z = rng.normal(size=n_features)
            ideal = 0.5 + 0.5 * np.tanh(projection @ z)
            distance = np.mean(np.abs(fractions - ideal), axis=1)
            noise = rng.normal(scale=0.004, size=len(pool))
            scores = 1.0 - 0.8 * distance + noise
            records.append(PhaseRecord(
                program=f"prog{program_index:02d}",
                phase_id=phase_id,
                features=z,
                evaluations={config: float(score)
                             for config, score in zip(pool, scores)},
            ))
    return records


def parity(reference: dict, candidate: dict) -> dict:
    identical = sum(reference[key] == candidate[key] for key in reference)
    return {
        "identical_phases": identical,
        "total_phases": len(reference),
        "exact": identical == len(reference),
    }


def bench(args: argparse.Namespace) -> dict:
    records = make_records(args.programs, args.phases, args.features,
                           args.pool_size, seed=args.seed)
    hyper = dict(regularization=0.5, threshold=0.05,
                 max_iterations=args.max_iterations)

    print(f"suite: {args.programs} programs x {args.phases} phases, "
          f"{args.features} features, pool {args.pool_size}, "
          f"CG budget {args.max_iterations}")

    t0 = time.perf_counter()
    serial = leave_one_program_out(records, **hyper)
    serial_seconds = time.perf_counter() - t0
    print(f"serial reference: {serial_seconds:.1f}s")

    with tempfile.TemporaryDirectory() as directory:
        store = DataStore(directory)
        t0 = time.perf_counter()
        fast = FastCrossValidator(records, **hyper, store=store,
                                  workers=args.workers).run()
        fast_seconds = time.perf_counter() - t0
        fast_parity = parity(serial, fast)
        print(f"fast:             {fast_seconds:.1f}s "
              f"({serial_seconds / fast_seconds:.2f}x), parity "
              f"{fast_parity['identical_phases']}/"
              f"{fast_parity['total_phases']}")

        t0 = time.perf_counter()
        fast_cached = FastCrossValidator(records, **hyper, store=store,
                                         workers=args.workers).run()
        cached_seconds = time.perf_counter() - t0
        cached_ok = fast_cached == fast
        print(f"fast cached:      {cached_seconds:.2f}s "
              f"(fold weights reused: {cached_ok})")

    return {
        "suite": {
            "programs": args.programs,
            "phases_per_program": args.phases,
            "features": args.features,
            "pool_size": args.pool_size,
            "max_iterations": args.max_iterations,
            "folds": args.programs,
            "fits": args.programs * len(TABLE1_PARAMETERS),
        },
        "workers": args.workers,
        "serial_seconds": serial_seconds,
        "fast_seconds": fast_seconds,
        "fast_cached_seconds": cached_seconds,
        "speedup": serial_seconds / fast_seconds,
        "parity": fast_parity,
        "cached_rerun_matches": cached_ok,
    }


def main(argv: list[str] | None = None) -> int:
    def positive(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=positive, default=26,
                        help="benchmark programs / leave-one-out folds")
    parser.add_argument("--phases", type=positive, default=10,
                        help="phases per program")
    parser.add_argument("--features", type=positive, default=32,
                        help="counter-vector dimensionality")
    parser.add_argument("--pool-size", type=positive, default=300,
                        help="evaluated configurations per phase")
    parser.add_argument("--max-iterations", type=positive, default=1500,
                        help="CG budget; the default is high enough that "
                             "every fit runs to convergence")
    parser.add_argument("--workers", type=positive, default=1,
                        help="fold fan-out processes for the fast engine")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small sizes (both gates still "
                             "enforced)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_train.json")
    args = parser.parse_args(argv)

    if args.smoke:
        args.programs = min(args.programs, 6)
        args.phases = min(args.phases, 3)
        args.features = min(args.features, 12)
        args.pool_size = min(args.pool_size, 80)
        args.max_iterations = min(args.max_iterations, 300)

    results = bench(args)
    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": args.smoke,
        **results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if obs.enabled():  # REPRO_OBS=1: merge worker shards and export
        paths = obs.export_all()
        print(obs.render_summary(obs.merge_records()))
        print(f"wrote {paths['trace']} (open in https://ui.perfetto.dev)")

    failures = []
    if not results["parity"]["exact"]:
        failures.append(
            "fold-parity divergence: fast predictions differ from the "
            "serial reference (expected bit-identical fold weights)")
    if not results["cached_rerun_matches"]:
        failures.append("cached fold-weight rerun changed the predictions")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
