"""Exactness of the vectorised trace-characterisation kernels.

Each numpy kernel in :mod:`repro.timing` -- critical paths, LRU stack
distances, block/set reuse distances, gshare and the BTB -- is checked
against ``characterize_pins.json``: values recorded by running the
per-element Python loops the kernels replaced on the inputs below.
Equality is exact.  Whole characterisations are compared through a
SHA-256 of a canonical form that writes floats with ``float.hex``;
distances are integer lists; rates are floats, which JSON reads back
exactly.  Hypothesis properties that need no reference cover arbitrary
inputs on top of the pinned ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

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

PINS = json.loads(
    Path(__file__).with_name("characterize_pins.json").read_text())


def canonical(value):
    """A JSON form of ``value`` whose floats are exact (``float.hex``)."""
    if dataclasses.is_dataclass(value):
        return [canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [str(value.dtype), canonical(value.tolist())]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def assert_characterization(pin, trace, warm_trace=None):
    char = characterize(trace, warm_trace=warm_trace)
    assert digest(char) == pin
    # Python floats throughout, as the cached pickles and digests see them.
    for curve in (char.gshare_mispredict, char.btb_taken_miss):
        assert all(type(v) is float for v in curve.values())
    assert all(type(v) is float for v in char.path_ops + char.path_weighted)


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
        pins = PINS["characterization"]
        for interval in _INTERVALS:
            trace = program.interval_trace(interval)
            warm = program.phase_warm_trace(program.true_phase_of(interval))
            assert_characterization(pins[f"{name}/{interval}/self"], trace)
            assert_characterization(pins[f"{name}/{interval}/warm"], trace,
                                    warm_trace=warm)

    @pytest.mark.parametrize("name", ["mcf", "gcc"])
    def test_default_length_phase_trace_identical(self, suite_programs, name):
        program = suite_programs[name]
        trace = program.phase_trace(2, length=24_000)
        assert_characterization(
            PINS["characterization"][f"{name}/phase2/L24000/warm"], trace,
            warm_trace=program.phase_warm_trace(2, length=24_000))

    @pytest.mark.parametrize("name", ["mcf", "gcc", "swim"])
    def test_collect_counters_identical(self, suite_programs, name):
        program = suite_programs[name]
        trace = program.phase_trace(1, length=2_000)
        warm = program.phase_warm_trace(1, length=2_000)
        counters = collect_counters(trace, warm_trace=warm)
        histograms = {"btb_reuse": counters.btb_reuse}
        for side in ("icache", "dcache", "l2"):
            for histogram in ("stack_distance", "block_reuse", "set_reuse",
                              "reduced_set_reuse"):
                histograms[f"{side}.{histogram}"] = getattr(
                    getattr(counters, side), histogram)
        pins = PINS["collect_counters"][name]
        assert set(histograms) == set(pins)
        for key, histogram in histograms.items():
            assert histogram.counts.tolist() == pins[key]["counts"], key
            assert histogram.cold == pins[key]["cold"], key


# -- adversarial inputs -----------------------------------------------------------------

def _blocks(values):
    return np.asarray(values, dtype=np.int64)


def pinned_block_streams():
    rng = np.random.default_rng(11)
    return {
        "empty": _blocks([]),
        "one": _blocks([3]),
        "one-negative": _blocks([-5]),
        "all-same": _blocks([7] * 120),
        "distinct": _blocks(np.arange(150) * 7),
        "alternating": _blocks(([2, 5] * 60)[:101]),
        "small-alphabet": _blocks(rng.integers(0, 13, size=400)),
        "four-blocks": _blocks(rng.integers(0, 4, size=257)),
        "signed": _blocks(rng.integers(-1000, 1001, size=400)),
    }


_SET_COUNTS = (1, 2, 3, 8, 64)

block_streams = st.one_of(
    st.just(_blocks([])),
    st.integers(-5, 5).map(lambda b: _blocks([b])),
    st.tuples(st.integers(0, 9), st.integers(1, 300)).map(
        lambda a: _blocks([a[0]] * a[1])),  # all the same block
    st.integers(1, 300).map(lambda n: _blocks(np.arange(n) * 7)),  # distinct
    st.lists(st.integers(0, 12), max_size=400).map(_blocks),
    st.lists(st.integers(-1000, 1000), max_size=400).map(_blocks),
)


class TestDistanceKernels:
    def test_stack_distances(self):
        for label, blocks in pinned_block_streams().items():
            assert (stack_distances(blocks).tolist()
                    == PINS["distances"][label]["stack"]), label

    def test_block_reuse_distances(self):
        for label, blocks in pinned_block_streams().items():
            assert (block_reuse_distances(blocks).tolist()
                    == PINS["distances"][label]["block_reuse"]), label

    def test_set_reuse_distances(self):
        for label, blocks in pinned_block_streams().items():
            pins = PINS["distances"][label]["set_reuse"]
            for n_sets in _SET_COUNTS:
                assert (set_reuse_distances(blocks, n_sets).tolist()
                        == pins[str(n_sets)]), (label, n_sets)

    @given(block_streams, st.sampled_from(_SET_COUNTS))
    @settings(max_examples=150, deadline=None)
    def test_distance_properties(self, blocks, n_sets):
        """Orderings every correct kernel obeys: a first touch is cold in
        all three; between two touches of a block there are at least as
        many accesses as distinct blocks; a set recurs no later than any
        block mapped to it; one set recurs on every access."""
        stack = stack_distances(blocks)
        reuse = block_reuse_distances(blocks)
        sets = set_reuse_distances(blocks, n_sets)
        cold = reuse < 0
        assert np.array_equal(stack < 0, cold)
        assert (reuse[cold] == -1).all() and (stack[cold] == -1).all()
        assert ((0 <= stack[~cold]) & (stack[~cold] <= reuse[~cold])).all()
        assert (sets[~cold] >= 0).all() and (sets[~cold] <= reuse[~cold]).all()
        single = set_reuse_distances(blocks, 1)
        assert single.tolist() == [-1, *[0] * (len(blocks) - 1)][:len(blocks)]

    def test_distances_are_int64(self):
        for kernel in (stack_distances, block_reuse_distances):
            assert kernel(_blocks([])).dtype == np.int64
            assert kernel(_blocks([3, 3])).dtype == np.int64


def _branch_stream(pcs, taken):
    return (np.asarray(pcs, dtype=np.int64), np.asarray(taken, dtype=bool))


def pinned_branch_streams():
    rng = np.random.default_rng(12)
    return {
        "empty": _branch_stream([], []),
        # Shorter than the 15-bit history of the largest gshare.
        "shorter-than-history": _branch_stream(
            rng.integers(0, 65, size=14) * 4, rng.random(14) < 0.5),
        # One PC, never taken: every branch aliases one PHT entry.
        "one-pc-never-taken": _branch_stream([0x4000] * 300, [False] * 300),
        "one-pc": _branch_stream([0x4000] * 300, rng.random(300) < 0.5),
        "never-taken": _branch_stream(
            rng.integers(0, 5001, size=300) * 4, [False] * 300),
        "always-taken": _branch_stream(
            rng.integers(0, 41, size=300) * 4 + 0x4000, [True] * 300),
        "mixed": _branch_stream(
            rng.integers(0, 41, size=400) * 4 + 0x4000, rng.random(400) < 0.5),
        "wide-pcs": _branch_stream(
            rng.integers(-2**40, 2**40, size=200), rng.random(200) < 0.5),
        "biased": _branch_stream(
            rng.integers(0, 10_000, size=500) * 4, rng.random(500) < 0.7),
    }


_PREDICTOR_SIZES = (1, 2, 16, 1024, 4096, 32 * 1024)

branch_streams = st.one_of(
    st.just(_branch_stream([], [])),
    st.lists(st.tuples(st.integers(0, 64), st.booleans()), max_size=14).map(
        lambda xs: _branch_stream([4 * p for p, _ in xs], [t for _, t in xs])),
    st.lists(st.booleans(), min_size=1, max_size=300).map(
        lambda ts: _branch_stream([0x4000] * len(ts), ts)),
    st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=400).map(
        lambda xs: _branch_stream([4 * p + 0x4000 for p, _ in xs],
                                  [t for _, t in xs])),
    st.lists(st.tuples(st.integers(-2**40, 2**40), st.booleans()),
             max_size=200).map(
        lambda xs: _branch_stream([p for p, _ in xs], [t for _, t in xs])),
)


class TestBranchKernels:
    def _check(self, kernel, key):
        for label, (pcs, taken) in pinned_branch_streams().items():
            pins = PINS["branch_rates"][label][key]
            for entries in _PREDICTOR_SIZES:
                rate = kernel(pcs, taken, entries)
                assert type(rate) is float
                assert rate == pins[str(entries)], (label, entries)

    def test_gshare(self):
        self._check(simulate_gshare, "gshare")

    def test_btb(self):
        self._check(simulate_btb, "btb")

    def test_single_pht_entry_aliases_every_branch(self):
        pcs, taken = pinned_branch_streams()["biased"]
        assert simulate_gshare(pcs, taken, 1) == (
            PINS["branch_rates"]["biased"]["gshare"]["1"])

    @given(branch_streams, st.sampled_from(_PREDICTOR_SIZES))
    @settings(max_examples=150, deadline=None)
    def test_rate_properties(self, stream, entries):
        """Rates are Python floats in [0, 1].  With no taken branch the
        global history stays 0 and the BTB is never consulted, so each
        weakly-taken PHT entry mispredicts at most once and the BTB never
        misses."""
        pcs, taken = stream
        gshare = simulate_gshare(pcs, taken, entries)
        btb = simulate_btb(pcs, taken, entries)
        assert type(gshare) is float and type(btb) is float
        assert 0.0 <= gshare <= 1.0 and 0.0 <= btb <= 1.0
        if not taken.any():
            assert btb == 0.0
            assert round(gshare * len(pcs)) <= entries

    @pytest.mark.parametrize("kernel", [simulate_gshare, simulate_btb])
    def test_length_mismatch_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool), 1024)


def make_trace(n, seed, max_distance, footprint, code, taken_p, branches=True):
    rng = np.random.default_rng(seed)
    codes = [c for c in range(len(OpClass.NAMES))
             if branches or c != OpClass.BRANCH]
    ops = rng.choice(codes, size=n).astype(np.uint8)
    src1 = rng.integers(0, max_distance + 1, size=n).astype(np.int32)
    src2 = rng.integers(0, max_distance + 1, size=n).astype(np.int32)
    is_mem = (ops == OpClass.LOAD) | (ops == OpClass.STORE)
    addr = np.where(is_mem, rng.integers(0, footprint, size=n) * 64, 0)
    pc = (rng.integers(0, code, size=n) * 4 + 0x4000).astype(np.int64)
    taken = rng.random(n) < taken_p
    return Trace(ops=ops, src1=src1, src2=src2, addr=addr.astype(np.int64),
                 pc=pc, taken=taken)


#: name -> (trace arguments, warm-trace arguments or None) for
#: :func:`make_trace`: length, seed, dependence distance bound, data
#: footprint (blocks), code footprint (instructions), taken probability
#: and whether branches occur.
_ADVERSARIAL_TRACES = {
    "one": ((1, 1, 1, 1, 1, 0.5), None),
    "two": ((2, 2, 4, 8, 30, 1.0), None),
    "three": ((3, 3, 300, 1000, 2000, 0.0), None),
    "short-dense": ((57, 4, 1, 1, 1, 0.5), (31, 5, 4, 8, 30, 0.5)),
    "short-sparse": ((150, 6, 300, 1000, 2000, 1.0), (200, 7, 40, 1, 1, 0.0)),
    "largest-window-minus-one": ((223, 8, 40, 8, 30, 0.5),
                                 (223, 9, 4, 1000, 2000, 1.0)),
    "warm-without-branches": ((700, 10, 40, 1000, 30, 0.5),
                              (100, 11, 4, 8, 30, 0.5, False)),
    "long-warm-without-branches": ((224, 12, 300, 8, 1, 1.0),
                                   (64, 13, 1, 1000, 2000, 0.0, False)),
    "without-branches": ((400, 14, 4, 8, 2000, 0.5, False), None),
    "without-branches-deep": ((333, 15, 300, 1, 1, 0.0, False), None),
}


def assert_adversarial(label):
    args, warm_args = _ADVERSARIAL_TRACES[label]
    pins = PINS["adversarial_characterization"][label]
    trace = make_trace(*args)
    assert_characterization(pins["self"], trace)
    if warm_args is not None:
        assert_characterization(pins["warm"], trace,
                                warm_trace=make_trace(*warm_args))


@st.composite
def traces(draw, min_size=1, max_size=300):
    return make_trace(
        draw(st.integers(min_size, max_size)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([1, 4, 40, 300])),
        draw(st.sampled_from([1, 8, 1000])),
        draw(st.sampled_from([1, 30, 2000])),
        draw(st.sampled_from([0.0, 0.5, 1.0])),
        draw(st.booleans()),
    )


class TestCharacterizeAdversarial:
    def test_shorter_than_smallest_window(self):
        for label in ("one", "two", "three"):
            assert_adversarial(label)

    def test_shorter_than_largest_window(self):
        for label in ("short-dense", "short-sparse",
                      "largest-window-minus-one"):
            assert_adversarial(label)

    def test_warm_trace_without_branches(self):
        for label in ("warm-without-branches", "long-warm-without-branches"):
            assert_adversarial(label)

    def test_trace_without_branches(self):
        for label in ("without-branches", "without-branches-deep"):
            assert_adversarial(label)

    @given(traces(max_size=400), traces(max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_characterization_properties(self, trace, warm):
        """Paths count at least one instruction and at most the window,
        load weighting only lengthens them, and every rate is a Python
        float in [0, 1]."""
        char = characterize(trace, warm_trace=warm)
        for window, ops, weighted in zip(char.window_sizes, char.path_ops,
                                         char.path_weighted):
            assert type(ops) is float and type(weighted) is float
            if len(trace) >= window:
                assert 1.0 <= ops <= window
            assert ops <= weighted
        for curve in (char.gshare_mispredict, char.btb_taken_miss):
            assert all(type(v) is float and 0.0 <= v <= 1.0 + 1e-12
                       for v in curve.values())
