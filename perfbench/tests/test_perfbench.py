"""The benchmark's own tests: a miniature of each workload, the metric
format, and the digest check.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ReproScale

import perfbench.workloads as workloads
from perfbench.digest import canonical, digest
from perfbench.report import check, per_layer, spearman
from perfbench.tracer import Tracer, install_layer_patches

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def perturb(value):
    """A copy of ``value`` with its first float nudged in the 6th digit."""
    done = []

    def walk(node):
        if done:
            return node
        if isinstance(node, float):
            done.append(True)
            return node * (1 + 1e-6) + 1e-12
        if isinstance(node, np.ndarray) and node.dtype.kind == "f" \
                and node.size:
            done.append(True)
            copy = node.copy()
            copy.flat[0] = copy.flat[0] * (1 + 1e-6) + 1e-12
            return copy
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            changes = {}
            for f in dataclasses.fields(node):
                new = walk(getattr(node, f.name))
                if done:
                    changes[f.name] = new
                    break
            return dataclasses.replace(node, **changes)
        if isinstance(node, dict):
            out = {}
            for key, item in node.items():
                out[key] = walk(item)
            return out
        if isinstance(node, (list, tuple)):
            return type(node)(walk(item) for item in node)
        return node

    result = walk(value)
    assert done, "no float to perturb"
    return result


# -- digests -----------------------------------------------------------------


def test_digest_ignores_order_and_last_bits():
    a = {"x": 1.0, "y": [np.arange(3.0), (2, "z")]}
    b = {"y": [np.arange(3.0), (2, "z")], "x": 1.0 + 1e-15}
    assert digest(a) == digest(b)
    assert digest(a) != digest({**a, "x": 1.0 + 1e-6})


def test_digest_refuses_unknown_types():
    with pytest.raises(TypeError):
        canonical(object())


def test_check_counts_a_perturbed_output_as_failed():
    output = {"config": (1, 2), "time_ns": 123.456}
    references = {"a": digest(output), "b": digest(output)}
    result = {"items": [
        {"index": 0, "ops": 1, "problems": [],
         "digests": {"a": digest(output)}},
        {"index": 1, "ops": 1, "problems": [],
         "digests": {"b": digest(perturb(output))}},
        {"index": 2, "ops": 1, "problems": [],
         "digests": {"unrecorded": digest(output)}},
    ]}
    outcome = check(result, references)
    assert (outcome["attempted"], outcome["failed"],
            outcome["verified"]) == (3, 1, 2)
    assert "b: digest" in outcome["problems"][0]


def test_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


# -- miniature workloads ---------------------------------------------------


class MiniScale(ReproScale):
    """Default scale shrunk so every workload runs in seconds."""

    @classmethod
    def default(cls):
        return cls(n_phases=2, phase_trace_length=1000, pool_size=24,
                   neighbour_count=8, max_iterations=10)


@pytest.fixture
def miniature(monkeypatch):
    monkeypatch.setattr(workloads, "ReproScale", MiniScale)
    monkeypatch.setattr(workloads, "CONTROL_INTERVALS", 4)
    monkeypatch.setattr(workloads, "TRAIN_CG_BUDGET", 5)


def _one_item(name, workdir, tracer=None):
    workload = workloads.make_workload(name, 0, workdir, tracer)
    workload.setup(0)
    if tracer is not None:
        tracer.reset()
        install_layer_patches(tracer)
    try:
        return workload.run(0)
    finally:
        if tracer is not None:
            tracer.restore()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_miniature_workload(name, miniature, tmp_path):
    plain = _one_item(name, tmp_path / "plain")
    assert plain.problems == []
    assert plain.ops == len(plain.op_seconds) == len(plain.outputs) >= 1
    assert all(s > 0 for s in plain.op_seconds)

    tracer = Tracer()
    traced = _one_item(name, tmp_path / "traced", tracer)
    # Tracing observes; it never changes what the program computes.
    assert [(k, digest(v)) for k, v in traced.outputs] == \
        [(k, digest(v)) for k, v in plain.outputs]

    key, output = plain.outputs[0]
    references = {key: digest(output)}
    result = {"items": [{"index": 0, "ops": 1, "problems": [],
                         "digests": {key: digest(perturb(output))}}]}
    assert check(result, references)["failed"] == 1

    busy = tracer.snapshot()["busy_s"]
    expected = {
        "profile-cold": {"counters", "timing.cycle", "timing.characterize",
                         "experiments.sweeps", "experiments.datastore",
                         "workloads"},
        "cycle-sweep": {"timing.cycle", "timing.interval", "power"},
        "control-loop": {"control", "phases", "timing.characterize",
                         "timing.interval", "counters", "model",
                         "workloads"},
        "model-train": {"model", "experiments.datastore"},
    }[name]
    assert expected <= {layer for layer, s in busy.items() if s > 0}
    if name == "model-train":
        assert busy.get("timing.cycle", 0.0) == 0.0


def test_profile_cold_counts_a_store_hit_as_failure(miniature, tmp_path):
    workload = workloads.make_workload("profile-cold", 0, tmp_path)
    workload.setup(0)
    workload.pipeline.phase_data(*workload.pair(0))  # warm the store
    assert "store hit on a cold run" in workload.run(0).problems


def test_tracer_self_time_excludes_nested_layers():
    # op 0..10, counters 1..4, timing.cycle 2..3
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outside"):  # not inside an op: ignored
        pass
    with tracer.op():
        with tracer.span("counters"):
            with tracer.span("timing.cycle"):
                pass
    snap = tracer.snapshot()
    assert "outside" not in snap["busy_s"]
    assert snap["busy_s"]["timing.cycle"] == 1.0
    assert snap["busy_s"]["counters"] == 3.0
    assert snap["self_s"]["counters"] == 2.0
    assert snap["self_s"]["op"] == 7.0


def test_per_layer_names_every_metric():
    empty = {"calls": {}, "busy_s": {}, "self_s": {}, "counts": {}}
    traced = {"items": [{"ops": 1, "op_seconds": [1.0], "extra": {}}],
              "layers": empty, "obs": {}}
    untraced = {"items": [{"ops": 1, "op_seconds": [1.0], "extra": {}}]}
    metrics = per_layer(untraced, traced, "cycle-sweep")
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}


# -- the command and its format --------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert {w["name"] for w in BENCHMARK["workloads"]} == \
        set(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]] + [w["name"]
                                          for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle-sweep",
         "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_its_unit(trace):
    completed = _run(ROOT, "--trace", trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"{name} = " in completed.stdout
    assert not (ROOT / ".perfbench").exists()


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--trace", "0")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
