"""Tests for PhaseSpec validation and TraceGenerator behaviour."""

import hashlib

import numpy as np
import pytest

from repro.timing import CACHE_BLOCK_BYTES
from repro.workloads import PhaseSpec, TraceGenerator
from repro.workloads.suite import build_program, spec2000_suite


class TestPhaseSpecValidation:
    def test_defaults_valid(self):
        PhaseSpec(name="ok")

    def test_branch_frac_bounds(self):
        with pytest.raises(ValueError):
            PhaseSpec(name="x", branch_frac=0.0)
        with pytest.raises(ValueError):
            PhaseSpec(name="x", branch_frac=0.6)

    def test_mix_must_leave_compute(self):
        with pytest.raises(ValueError):
            PhaseSpec(name="x", load_frac=0.5, store_frac=0.4,
                      branch_frac=0.1)

    def test_fraction_fields_bounded(self):
        with pytest.raises(ValueError):
            PhaseSpec(name="x", streaming_frac=1.5)
        with pytest.raises(ValueError):
            PhaseSpec(name="x", scatter_frac=-0.1)

    def test_branch_bias_range(self):
        with pytest.raises(ValueError):
            PhaseSpec(name="x", branch_bias=0.4)

    def test_minimum_structures(self):
        with pytest.raises(ValueError):
            PhaseSpec(name="x", footprint_blocks=2)
        with pytest.raises(ValueError):
            PhaseSpec(name="x", code_blocks=1)
        with pytest.raises(ValueError):
            PhaseSpec(name="x", ilp_mean=0.5)

    def test_varied_overrides(self, int_spec):
        varied = int_spec.varied(ilp_mean=12.0)
        assert varied.ilp_mean == 12.0
        assert varied.footprint_blocks == int_spec.footprint_blocks

    def test_stable_seed_is_deterministic(self, int_spec):
        assert int_spec.stable_seed() == int_spec.stable_seed()

    def test_stable_seed_differs_across_specs(self, int_spec, fp_spec):
        assert int_spec.stable_seed() != fp_spec.stable_seed()


class TestGeneration:
    def test_exact_length(self, int_spec):
        trace = TraceGenerator(int_spec).generate(500)
        assert len(trace) == 500

    def test_minimum_length_enforced(self, int_spec):
        with pytest.raises(ValueError):
            TraceGenerator(int_spec).generate(4)

    def test_deterministic_per_seed(self, int_spec):
        a = TraceGenerator(int_spec).generate(300, stream_seed=1)
        b = TraceGenerator(int_spec).generate(300, stream_seed=1)
        assert (a.ops == b.ops).all()
        assert (a.addr == b.addr).all()
        assert (a.taken == b.taken).all()

    def test_streams_differ_per_seed(self, int_spec):
        a = TraceGenerator(int_spec).generate(300, stream_seed=1)
        b = TraceGenerator(int_spec).generate(300, stream_seed=2)
        assert not (a.taken == b.taken).all() or not (a.addr == b.addr).all()

    def test_same_static_code_across_streams(self, int_spec):
        """Different dynamic streams execute the same static program."""
        a = TraceGenerator(int_spec).generate(2000, stream_seed=1)
        b = TraceGenerator(int_spec).generate(2000, stream_seed=2)
        assert set(np.unique(a.pc)) <= set(np.unique(b.pc)) | set(np.unique(a.pc))
        # PCs come from one static pool:
        overlap = len(set(np.unique(a.pc)) & set(np.unique(b.pc)))
        assert overlap > 0.5 * len(np.unique(a.pc))

    def test_mix_roughly_matches_spec(self, int_spec):
        trace = TraceGenerator(int_spec).generate(8000)
        mix = trace.op_mix()
        assert mix["load"] == pytest.approx(int_spec.load_frac, abs=0.08)
        assert mix["store"] == pytest.approx(int_spec.store_frac, abs=0.06)
        assert 0.05 < mix["branch"] < 0.3

    def test_fp_spec_generates_fp_ops(self, fp_spec):
        trace = TraceGenerator(fp_spec).generate(4000)
        assert trace.is_fp.mean() > 0.15

    def test_int_spec_generates_no_fp(self):
        spec = PhaseSpec(name="pure-int", fp_frac=0.0)
        trace = TraceGenerator(spec).generate(2000)
        assert trace.is_fp.sum() == 0

    def test_addresses_only_on_mem_ops(self, int_spec):
        trace = TraceGenerator(int_spec).generate(2000)
        assert (trace.addr[~trace.is_mem] == 0).all()
        assert (trace.addr[trace.is_mem] > 0).all()

    def test_footprint_respected(self):
        spec = PhaseSpec(name="tiny-fp", footprint_blocks=16,
                         streaming_frac=0.0, scatter_frac=0.0,
                         hot_blocks=8)
        trace = TraceGenerator(spec).generate(4000)
        blocks = np.unique(trace.addr[trace.is_mem] // CACHE_BLOCK_BYTES)
        assert len(blocks) <= 16 + 8  # cold footprint + hot set

    def test_hot_set_concentrates_reuse(self):
        """High hot_frac funnels accesses into the top few blocks."""
        hot = PhaseSpec(name="hot", footprint_blocks=8192, hot_blocks=16,
                        hot_frac=0.8, scatter_frac=0.15, streaming_frac=0.0,
                        reuse_alpha=0.8)
        cold = hot.varied(name="cold", hot_frac=0.08)

        def top16_share(trace):
            blocks = trace.addr[trace.is_mem] // CACHE_BLOCK_BYTES
            _, counts = np.unique(blocks, return_counts=True)
            counts.sort()
            return counts[-16:].sum() / counts.sum()

        t_hot = TraceGenerator(hot).generate(6000)
        t_cold = TraceGenerator(cold).generate(6000)
        assert top16_share(t_hot) > top16_share(t_cold) + 0.3

    def test_scatter_widens_footprint(self):
        base = PhaseSpec(name="base", footprint_blocks=4096,
                         streaming_frac=0.0, scatter_frac=0.0,
                         reuse_alpha=2.0)
        scattered = base.varied(name="scat", scatter_frac=0.5)
        t_base = TraceGenerator(base).generate(6000)
        t_scat = TraceGenerator(scattered).generate(6000)
        unique_base = len(np.unique(t_base.addr[t_base.is_mem]))
        unique_scat = len(np.unique(t_scat.addr[t_scat.is_mem]))
        assert unique_scat > 2 * unique_base

    def test_higher_ilp_means_longer_dependences(self):
        serial = PhaseSpec(name="serial", ilp_mean=1.5, serial_frac=0.8)
        parallel = PhaseSpec(name="parallel", ilp_mean=32.0, serial_frac=0.02)
        t_serial = TraceGenerator(serial).generate(4000)
        t_parallel = TraceGenerator(parallel).generate(4000)
        mean_dist_serial = t_serial.src1[t_serial.src1 > 0].mean()
        mean_dist_parallel = t_parallel.src1[t_parallel.src1 > 0].mean()
        assert mean_dist_parallel > 3 * mean_dist_serial

    def test_predictable_branches(self):
        predictable = PhaseSpec(name="pred", branch_bias=0.99,
                                loop_branch_frac=0.9)
        trace = TraceGenerator(predictable).generate(4000)
        taken = trace.taken[trace.is_branch]
        # Loop-dominated: mostly taken.
        assert taken.mean() > 0.6

    def test_dependences_never_reach_before_start(self, int_spec):
        trace = TraceGenerator(int_spec).generate(1000)
        idx = np.arange(len(trace))
        assert (trace.src1 <= idx).all()
        assert (trace.src2 <= idx).all()

    @pytest.mark.parametrize("name, length, seed, pinned", [
        ("gcc", 8, 0, "8f12752890de3478f6f6520c4250c396"),
        ("gcc", 3001, 1, "d41320735b99d67db0ea91186ff6f98d"),
        ("swim", 24_000, 2, "48da1095820e53203b3169bc0ec4c0ca"),
        ("mcf", 3001, 1, "65ae3901ad315179b6dd802cdd399011"),
    ])
    def test_traces_match_pins(self, name, length, seed, pinned):
        """Every field's bytes and dtype, pinned from the generator that
        stored two arrays per static block: laying the static code out in
        one array must not move a single instruction."""
        (profile,) = spec2000_suite((name,))
        spec = build_program(profile).phase_specs[1]
        trace = TraceGenerator(spec).generate(length, stream_seed=seed)
        digest = hashlib.sha256()
        for field in ("ops", "src1", "src2", "addr", "pc", "taken"):
            array = getattr(trace, field)
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest()[:32] == pinned
