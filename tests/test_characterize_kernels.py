"""Exactness of the vectorised trace-characterisation kernels.

Each numpy kernel in :mod:`repro.timing` is checked against the per-element
Python loop it replaced, kept here as a test-only oracle: critical paths,
LRU stack distances (Fenwick tree), block/set reuse distances, gshare and
the BTB.  Equality is exact (``==`` on whole characterisations and
counters, ``array_equal`` on distances), because the kernels do the same
integer arithmetic and the same final float expressions as the loops.
"""

from __future__ import annotations

import importlib
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import parameter_by_name
from repro.counters import collect_counters
from repro.timing import (
    block_reuse_distances,
    characterize,
    set_reuse_distances,
    simulate_btb,
    simulate_gshare,
    stack_distances,
)
from repro.timing.resources import OpClass
from repro.workloads.suite import SPEC2000_NAMES, build_program, spec2000_suite
from repro.workloads.trace import Trace

# ``repro.timing`` re-exports the ``characterize`` function under the
# module's name, so import the module by path to swap its kernels.
characterize_module = importlib.import_module("repro.timing.characterize")
collector_module = importlib.import_module("repro.counters.collector")
_WINDOW_GRID = characterize_module.WINDOW_GRID
_NOMINAL_LOAD_WEIGHT = characterize_module._NOMINAL_LOAD_WEIGHT


# -- oracles: the per-element loops the kernels replaced ---------------------------

def oracle_critical_paths(trace):
    n = len(trace)
    is_load = (trace.ops == OpClass.LOAD)
    path_ops = []
    path_weighted = []
    src1_list = trace.src1.tolist()
    src2_list = trace.src2.tolist()
    load_list = is_load.tolist()
    for w in _WINDOW_GRID:
        total_ops = 0.0
        total_weighted = 0.0
        blocks = 0
        for start in range(0, n - w + 1, w):
            depth_ops = [0.0] * w
            depth_weighted = [0.0] * w
            max_ops = 0.0
            max_weighted = 0.0
            for j in range(w):
                i = start + j
                weight = _NOMINAL_LOAD_WEIGHT if load_list[i] else 1.0
                best_o = 0.0
                best_w = 0.0
                d1 = src1_list[i]
                if d1 and d1 <= j:
                    best_o = depth_ops[j - d1]
                    best_w = depth_weighted[j - d1]
                d2 = src2_list[i]
                if d2 and d2 <= j:
                    o = depth_ops[j - d2]
                    if o > best_o:
                        best_o = o
                    v = depth_weighted[j - d2]
                    if v > best_w:
                        best_w = v
                o = best_o + 1.0
                v = best_w + weight
                depth_ops[j] = o
                depth_weighted[j] = v
                if o > max_ops:
                    max_ops = o
                if v > max_weighted:
                    max_weighted = v
            total_ops += max_ops
            total_weighted += max_weighted
            blocks += 1
        path_ops.append(total_ops / max(blocks, 1))
        path_weighted.append(total_weighted / max(blocks, 1))
    return tuple(path_ops), tuple(path_weighted)


def oracle_stack_distances(blocks):
    n = len(blocks)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    tree = np.zeros(n + 1, dtype=np.int64)

    def tree_add(i, delta):
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def tree_sum(i):  # prefix sum of [0, i]
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    last_seen = {}
    for t in range(n):
        block = int(blocks[t])
        prev = last_seen.get(block)
        if prev is None:
            out[t] = -1
        else:
            out[t] = tree_sum(t - 1) - tree_sum(prev)
            tree_add(prev, -1)
        tree_add(t, 1)
        last_seen[block] = t
    return out


def oracle_block_reuse_distances(blocks):
    n = len(blocks)
    out = np.empty(n, dtype=np.int64)
    last_seen = {}
    for t in range(n):
        block = int(blocks[t])
        prev = last_seen.get(block)
        out[t] = -1 if prev is None else t - prev - 1
        last_seen[block] = t
    return out


def oracle_set_reuse_distances(blocks, n_sets):
    if n_sets <= 0:
        raise ValueError("n_sets must be positive")
    n = len(blocks)
    out = np.empty(n, dtype=np.int64)
    last_seen = {}
    for t in range(n):
        set_id = int(blocks[t]) % n_sets
        prev = last_seen.get(set_id)
        out[t] = -1 if prev is None else t - prev - 1
        last_seen[set_id] = t
    return out


def oracle_simulate_gshare(pcs, taken, entries):
    if len(pcs) != len(taken):
        raise ValueError("pcs and taken must have equal length")
    if len(pcs) == 0:
        return 0.0
    mask = entries - 1
    history_mask = mask
    pht = np.full(entries, 2, dtype=np.int8)
    history = 0
    wrong = 0
    shifted = (pcs.astype(np.int64) >> 2)
    for i in range(len(pcs)):
        index = (int(shifted[i]) ^ history) & mask
        counter = pht[index]
        outcome = bool(taken[i])
        if (counter >= 2) != outcome:
            wrong += 1
        if outcome:
            if counter < 3:
                pht[index] = counter + 1
        elif counter > 0:
            pht[index] = counter - 1
        history = ((history << 1) | int(outcome)) & history_mask
    return wrong / len(pcs)


def oracle_simulate_btb(pcs, taken, entries):
    if len(pcs) != len(taken):
        raise ValueError("pcs and taken must have equal length")
    mask = entries - 1
    tags = {}
    misses = 0
    taken_count = 0
    for i in range(len(pcs)):
        pc = int(pcs[i])
        if not taken[i]:
            continue
        taken_count += 1
        index = (pc >> 2) & mask
        if tags.get(index) != pc:
            misses += 1
        tags[index] = pc
    if taken_count == 0:
        return 0.0
    return misses / taken_count


def oracle_branch_tables(warm_pcs, warm_taken, pcs, taken):
    """Branch tables as the rate over the joint stream minus a second,
    separate simulation of the warm stream."""
    joint_pcs = np.concatenate([warm_pcs, pcs])
    joint_taken = np.concatenate([warm_taken, taken])
    n_measure = len(pcs)
    n_train = len(warm_pcs)
    gshare_mispredict = {}
    for size in parameter_by_name("gshare_size").values:
        if n_measure == 0:
            gshare_mispredict[size] = 0.0
            continue
        misses_joint = oracle_simulate_gshare(joint_pcs, joint_taken, size) * (
            n_train + n_measure
        )
        misses_train = oracle_simulate_gshare(warm_pcs, warm_taken, size) * n_train
        gshare_mispredict[size] = max(
            0.0, (misses_joint - misses_train) / n_measure
        )
    taken_measure = int(taken.sum())
    taken_train = int(warm_taken.sum())
    btb_taken_miss = {}
    for size in parameter_by_name("btb_size").values:
        if taken_measure == 0:
            btb_taken_miss[size] = 0.0
            continue
        misses_joint = oracle_simulate_btb(joint_pcs, joint_taken, size) * (
            taken_train + taken_measure
        )
        misses_train = oracle_simulate_btb(warm_pcs, warm_taken, size) * taken_train
        btb_taken_miss[size] = max(
            0.0, (misses_joint - misses_train) / taken_measure
        )
    return gshare_mispredict, btb_taken_miss


def _with_oracles(module, **oracles):
    stack = ExitStack()
    for name, oracle in oracles.items():
        stack.enter_context(mock.patch.object(module, name, oracle))
    return stack


def oracle_characterize(trace, warm_trace=None):
    with _with_oracles(characterize_module,
                       _critical_paths=oracle_critical_paths,
                       stack_distances=oracle_stack_distances,
                       _branch_tables=oracle_branch_tables):
        return characterize(trace, warm_trace=warm_trace)


def oracle_collect_counters(trace, warm_trace=None):
    with _with_oracles(collector_module,
                       stack_distances=oracle_stack_distances,
                       block_reuse_distances=oracle_block_reuse_distances,
                       set_reuse_distances=oracle_set_reuse_distances):
        return collect_counters(trace, warm_trace=warm_trace)


def assert_same_characterization(trace, warm_trace=None):
    fast = characterize(trace, warm_trace=warm_trace)
    reference = oracle_characterize(trace, warm_trace=warm_trace)
    assert fast == reference
    # Python floats throughout, as the cached pickles and digests see them.
    for curve in (fast.gshare_mispredict, fast.btb_taken_miss):
        assert all(type(v) is float for v in curve.values())
    assert all(type(v) is float for v in fast.path_ops + fast.path_weighted)


# -- realistic inputs ------------------------------------------------------------------

_INTERVALS = (0, 57)


@pytest.fixture(scope="module")
def suite_programs():
    return {profile.name: build_program(profile)
            for profile in spec2000_suite()}


class TestRealisticTraces:
    @pytest.mark.parametrize("name", SPEC2000_NAMES)
    def test_characterization_identical(self, suite_programs, name):
        program = suite_programs[name]
        for interval in _INTERVALS:
            trace = program.interval_trace(interval)
            warm = program.phase_warm_trace(program.true_phase_of(interval))
            assert_same_characterization(trace)
            assert_same_characterization(trace, warm_trace=warm)

    @pytest.mark.parametrize("name", ["mcf", "gcc"])
    def test_default_length_phase_trace_identical(self, suite_programs, name):
        program = suite_programs[name]
        trace = program.phase_trace(2, length=24_000)
        assert_same_characterization(
            trace, warm_trace=program.phase_warm_trace(2, length=24_000))

    @pytest.mark.parametrize("name", ["mcf", "gcc", "swim"])
    def test_collect_counters_identical(self, suite_programs, name):
        program = suite_programs[name]
        trace = program.phase_trace(1, length=2_000)
        warm = program.phase_warm_trace(1, length=2_000)
        fast = collect_counters(trace, warm_trace=warm)
        reference = oracle_collect_counters(trace, warm_trace=warm)
        for side in ("icache", "dcache", "l2"):
            a, b = getattr(fast, side), getattr(reference, side)
            for histogram in ("stack_distance", "block_reuse", "set_reuse",
                              "reduced_set_reuse"):
                ha, hb = getattr(a, histogram), getattr(b, histogram)
                assert np.array_equal(ha.counts, hb.counts)
                assert ha.cold == hb.cold
        assert np.array_equal(fast.btb_reuse.counts, reference.btb_reuse.counts)
        assert fast.btb_reuse.cold == reference.btb_reuse.cold


# -- adversarial inputs -----------------------------------------------------------------

def _blocks(values):
    return np.asarray(values, dtype=np.int64)


block_streams = st.one_of(
    st.just(_blocks([])),
    st.integers(-5, 5).map(lambda b: _blocks([b])),
    st.tuples(st.integers(0, 9), st.integers(1, 300)).map(
        lambda a: _blocks([a[0]] * a[1])),  # all the same block
    st.integers(1, 300).map(lambda n: _blocks(np.arange(n) * 7)),  # distinct
    st.tuples(st.integers(0, 3), st.integers(4, 7), st.integers(1, 300)).map(
        lambda a: _blocks(([a[0], a[1]] * a[2])[:a[2]])),  # alternating
    st.lists(st.integers(0, 12), max_size=400).map(_blocks),
    st.lists(st.integers(-1000, 1000), max_size=400).map(_blocks),
)


class TestDistanceKernels:
    @given(block_streams)
    @settings(max_examples=200, deadline=None)
    def test_stack_distances(self, blocks):
        assert np.array_equal(stack_distances(blocks),
                              oracle_stack_distances(blocks))

    @given(block_streams)
    @settings(max_examples=100, deadline=None)
    def test_block_reuse_distances(self, blocks):
        assert np.array_equal(block_reuse_distances(blocks),
                              oracle_block_reuse_distances(blocks))

    @given(block_streams, st.sampled_from([1, 2, 3, 8, 64]))
    @settings(max_examples=100, deadline=None)
    def test_set_reuse_distances(self, blocks, n_sets):
        assert np.array_equal(set_reuse_distances(blocks, n_sets),
                              oracle_set_reuse_distances(blocks, n_sets))

    def test_distances_are_int64(self):
        for kernel in (stack_distances, block_reuse_distances):
            assert kernel(_blocks([])).dtype == np.int64
            assert kernel(_blocks([3, 3])).dtype == np.int64


def _branch_stream(pcs, taken):
    return (np.asarray(pcs, dtype=np.int64), np.asarray(taken, dtype=bool))


branch_streams = st.one_of(
    st.just(_branch_stream([], [])),
    # Shorter than the 15-bit history of the largest gshare.
    st.lists(st.tuples(st.integers(0, 64), st.booleans()), max_size=14).map(
        lambda xs: _branch_stream([4 * p for p, _ in xs], [t for _, t in xs])),
    # One PC, never taken: the history stays 0, so every branch aliases
    # one PHT entry.
    st.integers(1, 300).map(lambda n: _branch_stream([0x4000] * n, [False] * n)),
    # One PC, any outcomes: one entry per distinct history.
    st.lists(st.booleans(), min_size=1, max_size=300).map(
        lambda ts: _branch_stream([0x4000] * len(ts), ts)),
    # No taken branches at all.
    st.lists(st.integers(0, 5000), min_size=1, max_size=300).map(
        lambda ps: _branch_stream([4 * p for p in ps], [False] * len(ps))),
    st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=400).map(
        lambda xs: _branch_stream([4 * p + 0x4000 for p, _ in xs],
                                  [t for _, t in xs])),
    st.lists(st.tuples(st.integers(-2**40, 2**40), st.booleans()),
             max_size=200).map(
        lambda xs: _branch_stream([p for p, _ in xs], [t for _, t in xs])),
)

_PREDICTOR_SIZES = st.sampled_from([1, 2, 16, 1024, 4096, 32 * 1024])


class TestBranchKernels:
    @given(branch_streams, _PREDICTOR_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_gshare(self, stream, entries):
        pcs, taken = stream
        rate = simulate_gshare(pcs, taken, entries)
        assert type(rate) is float
        assert rate == oracle_simulate_gshare(pcs, taken, entries)

    @given(branch_streams, _PREDICTOR_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_btb(self, stream, entries):
        pcs, taken = stream
        rate = simulate_btb(pcs, taken, entries)
        assert type(rate) is float
        assert rate == oracle_simulate_btb(pcs, taken, entries)

    def test_single_pht_entry_aliases_every_branch(self):
        rng = np.random.default_rng(3)
        pcs = rng.integers(0, 10_000, size=500) * 4
        taken = rng.random(500) < 0.7
        assert simulate_gshare(pcs, taken, 1) == oracle_simulate_gshare(
            pcs, taken, 1)

    @pytest.mark.parametrize("kernel", [simulate_gshare, simulate_btb])
    def test_length_mismatch_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool), 1024)


@st.composite
def traces(draw, min_size=1, max_size=300, branches=True):
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    codes = [c for c in range(len(OpClass.NAMES))
             if branches or c != OpClass.BRANCH]
    ops = rng.choice(codes, size=n).astype(np.uint8)
    max_distance = draw(st.sampled_from([1, 4, 40, 300]))
    src1 = rng.integers(0, max_distance + 1, size=n).astype(np.int32)
    src2 = rng.integers(0, max_distance + 1, size=n).astype(np.int32)
    footprint = draw(st.sampled_from([1, 8, 1000]))
    is_mem = (ops == OpClass.LOAD) | (ops == OpClass.STORE)
    addr = np.where(is_mem, rng.integers(0, footprint, size=n) * 64, 0)
    code = draw(st.sampled_from([1, 30, 2000]))
    pc = (rng.integers(0, code, size=n) * 4 + 0x4000).astype(np.int64)
    taken = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    return Trace(ops=ops, src1=src1, src2=src2, addr=addr.astype(np.int64),
                 pc=pc, taken=taken)


class TestCharacterizeAdversarial:
    @given(traces(max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_shorter_than_smallest_window(self, trace):
        assert_same_characterization(trace)

    @given(traces(max_size=223), traces(max_size=223))
    @settings(max_examples=40, deadline=None)
    def test_shorter_than_largest_window(self, trace, warm):
        assert_same_characterization(trace)
        assert_same_characterization(trace, warm_trace=warm)

    @given(traces(min_size=224, max_size=700),
           traces(max_size=100, branches=False))
    @settings(max_examples=25, deadline=None)
    def test_warm_trace_without_branches(self, trace, warm):
        assert_same_characterization(trace, warm_trace=warm)

    @given(traces(max_size=400, branches=False))
    @settings(max_examples=20, deadline=None)
    def test_trace_without_branches(self, trace):
        assert_same_characterization(trace)
