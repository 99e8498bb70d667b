"""Exactness of the event-driven cycle core against the per-stage oracle.

:mod:`repro.timing.cycle` runs one inlined loop that jumps over idle
cycles and counts occupancy per value; ``tests/cycle_core_oracle.py``
keeps the per-stage core and the per-cycle hook collector it replaced.
Every check here is exact: ``SimResult`` equality, byte-equal pickles of
results, collectors and :class:`~repro.counters.PhaseCounters`, and the
same :class:`~repro.timing.SimulationError` message.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PROFILING_CONFIG, DesignSpace, MicroarchConfig
from repro.counters import OccupancyCollector, collect_counters
from repro.experiments.datastore import DataStore
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.scale import ReproScale
from repro.timing import CycleSimulator, OpClass, SimulationError
from repro.workloads import Trace
from repro.workloads.suite import SPEC2000_NAMES
from tests.cycle_core_oracle import OccupancyCollector as OracleCollector
from tests.cycle_core_oracle import OracleCycleSimulator, oracle_collect_counters
from tests.test_timing_cycle_edge import trace_of


def collected(collector) -> dict[str, object]:
    """A collector's public results (the oracle's raw samples excluded)."""
    return {name: value for name, value in vars(collector).items()
            if not name.startswith("_")}


def assert_same_run(config, trace, warm=True, warm_trace=None):
    """One run on each core, with and without a collector, is identical."""
    fast_collector = OccupancyCollector(config)
    oracle_collector = OracleCollector(config)
    fast = CycleSimulator(config).run(
        trace, collector=fast_collector, warm=warm, warm_trace=warm_trace)
    reference = OracleCycleSimulator(config).run(
        trace, collector=oracle_collector, warm=warm, warm_trace=warm_trace)
    assert fast == reference
    assert pickle.dumps(fast) == pickle.dumps(reference)
    assert (pickle.dumps(collected(fast_collector))
            == pickle.dumps(collected(oracle_collector)))
    plain = CycleSimulator(config).run(trace, warm=warm, warm_trace=warm_trace)
    assert pickle.dumps(plain) == pickle.dumps(reference)
    return fast


# -- realistic inputs: every program at quick scale ------------------------------

@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    """Quick-scale phases of all 26 programs, plus the smallest and the
    largest configuration of that scale's pool."""
    scale = ReproScale.quick().with_(benchmarks=None)
    pipeline = ExperimentPipeline(
        scale, store=DataStore(tmp_path_factory.mktemp("store")))
    by_size = sorted(pipeline.pool, key=lambda c: sum(c.as_indices()))
    return pipeline, (by_size[0], by_size[-1])


@pytest.mark.parametrize("index, name", enumerate(SPEC2000_NAMES))
def test_quick_scale_phase_identical(quick_suite, index, name):
    pipeline, pool_pair = quick_suite
    phase = index % pipeline.scale.n_phases
    trace = pipeline.phase_trace(name, phase)
    warm = pipeline.programs[name].phase_warm_trace(phase)
    fast = collect_counters(trace, warm_trace=warm)
    reference = oracle_collect_counters(trace, warm_trace=warm)
    assert pickle.dumps(fast) == pickle.dumps(reference)
    for config in (PROFILING_CONFIG, *pool_pair):
        assert_same_run(config, trace)


# -- adversarial streams -------------------------------------------------------------

#: The smallest design point, the profiling configuration and random points.
_CONFIGS = (
    MicroarchConfig.from_indices((0,) * len(PROFILING_CONFIG.as_indices())),
    PROFILING_CONFIG,
    *(DesignSpace(seed=seed).random_configuration() for seed in range(4)),
)

configs = st.sampled_from(_CONFIGS)


def _random_ops(rng, n, choices):
    return rng.choice(np.asarray(choices, dtype=np.uint8), size=n)


def _sources(rng, n, max_distance):
    return (rng.integers(0, max_distance + 1, size=n).astype(np.int32),
            rng.integers(0, max_distance + 1, size=n).astype(np.int32))


@st.composite
def streams(draw, kind):
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src1, src2 = _sources(rng, n, draw(st.sampled_from([0, 1, 4, 40])))
    index = np.arange(n, dtype=np.int64)
    if kind == "all-miss":
        # Every data access, and every fourth instruction, in a block of
        # its own, run on cold caches.
        ops = _random_ops(rng, n, [OpClass.LOAD, OpClass.STORE, OpClass.IALU,
                                   OpClass.FMUL])
        addr = (index + 1) * 64 * 999_983
        pc = 0x4000 + (index // 4) * 64
        taken = np.zeros(n, dtype=bool)
    elif kind == "all-hit":
        # One data block and one code block, warmed before the run.
        ops = _random_ops(rng, n, list(range(len(OpClass.NAMES))))
        addr = np.full(n, 0x1000, dtype=np.int64)
        pc = 0x4000 + (index % 16) * 4
        taken = np.zeros(n, dtype=bool)
    else:  # all-mispredict: taken branches that always miss the cold BTB
        ops = _random_ops(rng, n, [OpClass.BRANCH, OpClass.BRANCH,
                                   OpClass.IALU, OpClass.LOAD])
        addr = np.where(ops == OpClass.LOAD, 0x1000 + (index % 8) * 64, 0)
        pc = 0x4000 + index * 4
        taken = ops == OpClass.BRANCH
    trace = Trace(ops=ops, src1=src1, src2=src2, addr=addr.astype(np.int64),
                  pc=pc.astype(np.int64), taken=taken)
    return trace, draw(configs)


class TestAdversarialStreams:
    @given(streams("all-miss"))
    @settings(max_examples=25, deadline=None)
    def test_all_miss(self, case):
        trace, config = case
        result = assert_same_run(config, trace, warm=False)
        n_mem = int(trace.is_mem.sum())
        assert result.activity["dcache_miss"] == n_mem
        assert result.activity["icache_miss"] == (len(trace) + 3) // 4

    @given(streams("all-hit"))
    @settings(max_examples=25, deadline=None)
    def test_all_hit(self, case):
        trace, config = case
        result = assert_same_run(config, trace, warm=True)
        assert result.activity["dcache_miss"] == 0
        assert result.activity["icache_miss"] == 0

    @given(streams("all-mispredict"))
    @settings(max_examples=25, deadline=None)
    def test_all_branches_mispredict(self, case):
        trace, config = case
        result = assert_same_run(config, trace, warm=False)
        assert result.mispredicts == result.branches == int(
            trace.is_branch.sum())

    @given(st.sampled_from(range(len(OpClass.NAMES))), configs, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_single_instruction(self, op, config, warm):
        assert_same_run(config, trace_of([op]), warm=warm)

    @pytest.mark.parametrize("config", _CONFIGS[:2])
    def test_empty_trace(self, config):
        with pytest.raises(ValueError):
            trace_of([])
        # Trace refuses an empty stream; build one past that check to pin
        # the cores' n = 0 path as well.
        empty = object.__new__(Trace)
        for name in ("ops", "src1", "src2", "addr", "pc", "taken"):
            object.__setattr__(empty, name, np.zeros(0, dtype=np.int64))
        result = assert_same_run(config, empty)
        assert result.cycles == 0


def guard_messages(config, trace, max_cycles_per_instruction):
    messages = []
    for simulator in (CycleSimulator, OracleCycleSimulator):
        with pytest.raises(SimulationError) as error:
            simulator(config, max_cycles_per_instruction).run(
                trace, warm=False)
        messages.append(str(error.value))
    return messages


def test_progress_guard_message_identical(baseline_config):
    """The case of ``test_timing_cycle_edge``'s progress guard."""
    n = 64
    trace = trace_of([OpClass.LOAD] * n,
                     addr=np.arange(n, dtype=np.int64) * 64 * 999_983)
    fast, reference = guard_messages(baseline_config, trace, 1)
    assert fast == reference


def test_progress_guard_inside_idle_stretch(baseline_config):
    """A chain of missing loads leaves the core idle across the progress
    limit: the jump stops at the limit, so the error names the same cycle
    and commit count."""
    n = 40
    index = np.arange(n, dtype=np.int32)
    trace = trace_of([OpClass.LOAD] * n, src1=np.minimum(index, 1),
                     addr=(index.astype(np.int64) + 1) * 64 * 999_983)
    fast, reference = guard_messages(baseline_config, trace, 0)
    assert fast == reference
    assert fast.startswith("no forward progress after 1001 cycles")
