"""Turn worker passes into checked, named metrics.

Pure functions over the JSON a :mod:`perfbench.worker` pass writes, so
the tests can exercise them on hand-made passes.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["check", "end_to_end", "layer_shares", "ops_per_s", "per_layer",
           "percentile", "spearman"]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _ranks(values: list[float]) -> list[float]:
    ranks = [0.0] * len(values)
    for rank, index in enumerate(sorted(range(len(values)),
                                        key=values.__getitem__)):
        ranks[index] = float(rank)
    return ranks


def spearman(a: list[float], b: list[float]) -> float:
    """Rank correlation of two equal-length series (0 when undefined)."""
    if len(a) < 2:
        return 0.0
    ra, rb = _ranks(a), _ranks(b)
    mean = (len(a) - 1) / 2
    cov = sum((x - mean) * (y - mean) for x, y in zip(ra, rb))
    var = sum((x - mean) ** 2 for x in ra)
    return cov / var


def check(result: dict, references: dict[str, str]) -> dict:
    """Count attempted and failed ops of one pass.

    An op fails when its item raised or broke an invariant, or when its
    output digest differs from the recorded reference.  Ops whose key
    has no reference (a seed nobody recorded) are checked by the
    invariants alone; ``verified`` counts those that had one.
    """
    attempted = failed = verified = 0
    problems: list[str] = []
    for item in result["items"]:
        attempted += item["ops"]
        if item["problems"]:
            failed += item["ops"]
            problems.extend(f"item {item['index']}: {text}"
                            for text in item["problems"])
            continue
        for key, value in item["digests"].items():
            expected = references.get(key)
            if expected is None:
                continue
            verified += 1
            if value != expected:
                failed += 1
                problems.append(f"{key}: digest {value} != reference "
                                f"{expected}")
    return {"attempted": attempted, "failed": failed, "verified": verified,
            "problems": problems}


def _op_seconds(result: dict) -> list[float]:
    return [s for item in result["items"] for s in item["op_seconds"]]


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """The untraced pass's end-to-end metrics; ``setups`` are the set-up
    times of fresh processes, this pass's among them."""
    seconds = _op_seconds(result)
    return {
        "op_ms_p50": statistics.median(seconds) * 1e3 if seconds else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def ops_per_s(result: dict) -> float:
    """Ops completed per second of op time (a mean, so the slowest ops
    weigh most)."""
    seconds = _op_seconds(result)
    ops = sum(item["ops"] for item in result["items"])
    return _ratio(ops, sum(seconds))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _extra(result: dict, name: str) -> list[float]:
    return [item["extra"][name] for item in result["items"]
            if name in item["extra"]]


def per_layer(untraced: dict, traced: dict, workload: str) -> dict[str, float]:
    """Per-layer metrics of a traced pass.

    ``untraced`` ran the same items with tracing off; the ratio of the
    two passes' op time is ``trace_overhead``.
    """
    layers = traced["layers"]
    calls, busy, own, counts = (layers[k] for k in
                                ("calls", "busy_s", "self_s", "counts"))
    op_time = sum(_op_seconds(traced))

    def get(table: dict, name: str) -> float:
        return float(table.get(name, 0.0))

    metrics: dict[str, float] = {}
    for layer in ("timing.cycle", "timing.characterize", "timing.interval",
                  "power", "phases"):
        metrics[f"{layer}.calls"] = get(calls, layer)
        metrics[f"{layer}.busy_s"] = get(busy, layer)
    metrics["timing.cycle.sim_kips"] = _ratio(
        get(counts, "timing.cycle.insts") / 1e3, get(busy, "timing.cycle"))
    metrics["timing.cycle.sim_cycles"] = get(counts, "timing.cycle.cycles")
    metrics["counters.calls"] = get(counts, "counters.profiles")
    metrics["counters.busy_s"] = get(busy, "counters")
    metrics["counters.sim_kips"] = _ratio(
        get(counts, "counters.insts") / 1e3, get(busy, "counters"))
    metrics["timing.characterize.insts_per_s"] = _ratio(
        get(counts, "timing.characterize.insts"),
        get(busy, "timing.characterize"))
    metrics["timing.interval.rank_corr"] = spearman(
        _extra(untraced, "cycle_efficiency"),
        _extra(untraced, "fast_efficiency"))
    metrics["experiments.sweeps.busy_s"] = get(busy, "experiments.sweeps")
    metrics["experiments.sweeps.configs_per_s"] = _ratio(
        get(counts, "experiments.sweeps.configs"),
        get(busy, "experiments.sweeps"))
    metrics["phases.new_phases"] = get(counts, "phases.new_phases")

    intervals = sum(item["ops"] for item in traced["items"]) \
        if workload == "control-loop" else 0
    metrics["control.intervals"] = float(intervals)
    metrics["control.profiled_share"] = _ratio(
        sum(_extra(traced, "profiled")), intervals)
    metrics["control.reconfig_rate"] = _ratio(
        sum(_extra(traced, "reconfigurations")), intervals)
    metrics["control.self_s"] = get(own, "control")
    metrics["control.interval_ms_p90"] = (
        percentile(_op_seconds(untraced), 0.9) * 1e3
        if workload == "control-loop" else 0.0)

    metrics["model.folds_trained"] = get(traced["obs"], "cv.folds_trained")
    metrics["model.cg_iterations"] = get(traced["obs"], "cg.iterations")
    metrics["model.busy_s"] = get(busy, "model")
    metrics["model.predict_calls"] = get(counts, "model.predict_calls")
    metrics["model.predict_busy_s"] = get(counts, "model.predict_busy_s")
    metrics["model.advanced_vs_static"] = (
        statistics.mean(_extra(untraced, "advanced_vs_static"))
        if _extra(untraced, "advanced_vs_static") else 0.0)

    store = "experiments.datastore"
    hits, misses = get(counts, f"{store}.hits"), get(counts, f"{store}.misses")
    metrics[f"{store}.hits"] = hits
    metrics[f"{store}.misses"] = misses
    metrics[f"{store}.hit_ratio"] = _ratio(hits, hits + misses)
    for name in ("puts", "bytes_read", "bytes_written", "corruptions"):
        metrics[f"{store}.{name}"] = get(counts, f"{store}.{name}")
    metrics[f"{store}.busy_s"] = get(busy, store)

    metrics["workloads.busy_s"] = get(busy, "workloads")
    metrics["workloads.insts_per_s"] = _ratio(
        get(counts, "workloads.insts"), get(busy, "workloads"))

    metrics["ops_per_s"] = ops_per_s(untraced)
    metrics["unattributed_share"] = _ratio(get(own, "op"), op_time)
    metrics["trace_overhead"] = _ratio(op_time,
                                       sum(_op_seconds(untraced))) - 1.0
    return metrics


def layer_shares(traced: dict) -> dict[str, float]:
    """Each layer's busy time as a share of the traced op time."""
    op_time = sum(_op_seconds(traced))
    return {layer: _ratio(seconds, op_time)
            for layer, seconds in sorted(traced["layers"]["busy_s"].items())
            if layer != "op"}
