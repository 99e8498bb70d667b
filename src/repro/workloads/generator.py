"""Synthetic workload generation.

SPEC CPU 2000 binaries and reference inputs are not redistributable, so this
reproduction replaces them with parameterised stochastic program models (see
DESIGN.md, "Substitutions").  A :class:`PhaseSpec` fixes the behavioural
axes that the adaptive processor of the paper responds to:

* instruction-level parallelism (dependence-distance distribution) — drives
  width / ROB / IQ / RF requirements;
* memory footprint and temporal locality (a stack-distance process over a
  working set) — drives D-cache / L2 / LSQ requirements;
* static code footprint — drives I-cache requirements;
* branch predictability and density — drives speculation depth and
  predictor sizing;
* instruction mix (integer / floating point / memory) — drives functional
  unit and port demand.

:class:`TraceGenerator` turns a spec into a :class:`~repro.workloads.trace.Trace`
by building a static control-flow graph (so the *same code* really is
re-executed: I-cache, BTB, gshare and basic-block-vector behaviour all come
from genuine static-code reuse) and walking it, attaching dependences and a
move-to-front memory-reference stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.timing.resources import CACHE_BLOCK_BYTES, OpClass
from repro.workloads.trace import Trace

__all__ = ["PhaseSpec", "TraceGenerator"]


@dataclass(frozen=True)
class PhaseSpec:
    """Behavioural parameters of one program phase.

    All fractions are of the total instruction stream unless noted.
    """

    name: str

    # Instruction mix.  Remaining probability mass is integer ALU work.
    load_frac: float = 0.22
    store_frac: float = 0.10
    branch_frac: float = 0.12
    fp_frac: float = 0.0  # fraction of *compute* ops that are FP
    mul_frac: float = 0.08  # fraction of compute ops that are multiplies

    # Instruction-level parallelism.
    ilp_mean: float = 8.0  # mean register dependence distance
    serial_frac: float = 0.25  # sources forced to distance 1 (tight chains)
    two_source_frac: float = 0.55

    # Memory behaviour (64-byte block granularity).  Locality is bimodal:
    # a small *hot* working set (stack frames, accumulators) absorbs part
    # of the accesses, the rest walk a larger footprint.  Two phases can
    # share an aggregate miss rate yet need very different cache sizes —
    # the distribution's shape, which only the temporal-histogram counters
    # expose, decides.
    footprint_blocks: int = 512  # distinct data blocks touched
    reuse_alpha: float = 1.6  # Pareto shape of stack distances (big = tight)
    streaming_frac: float = 0.05  # accesses that always touch a fresh block
    scatter_frac: float = 0.0  # uniform random accesses over the footprint
    # (pointer chasing over a large structure, a la mcf)
    hot_blocks: int = 48  # size of the hot working set
    hot_frac: float = 0.45  # accesses served by the hot set

    # Static code behaviour.
    code_blocks: int = 64  # number of static basic blocks

    # Branch behaviour.
    branch_bias: float = 0.88  # mean max(p, 1-p) of conditional branches
    loop_branch_frac: float = 0.35  # perfectly-patterned loop-back branches
    loop_trip_mean: float = 12.0

    def __post_init__(self) -> None:
        if not 0 < self.branch_frac < 0.5:
            raise ValueError("branch_frac must be in (0, 0.5)")
        for field_name in ("load_frac", "store_frac", "fp_frac", "mul_frac",
                           "serial_frac", "two_source_frac", "streaming_frac",
                           "scatter_frac", "hot_frac", "loop_branch_frac"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.load_frac + self.store_frac + self.branch_frac >= 0.95:
            raise ValueError("mix leaves no room for compute ops")
        if not 0.5 <= self.branch_bias <= 1.0:
            raise ValueError("branch_bias must be in [0.5, 1.0]")
        if self.footprint_blocks < 4 or self.code_blocks < 2:
            raise ValueError("footprint_blocks >= 4 and code_blocks >= 2 required")
        if self.hot_blocks < 1:
            raise ValueError("hot_blocks must be positive")
        if self.ilp_mean < 1.0:
            raise ValueError("ilp_mean must be >= 1")
        if self.reuse_alpha <= 0.2:
            raise ValueError("reuse_alpha must exceed 0.2")

    def varied(self, **overrides: object) -> "PhaseSpec":
        """Copy with fields overridden (convenience for suite building)."""
        return replace(self, **overrides)

    def stable_seed(self) -> int:
        """Deterministic seed derived from the spec's identity."""
        digest = hashlib.sha256(repr(self).encode()).digest()
        return int.from_bytes(digest[:8], "little")


class _StaticBlock:
    """One static basic block: its slice ``[start, start + length)`` of the
    program's ops and PCs, and its branch behaviour."""

    __slots__ = ("start", "length", "is_loop", "taken_prob", "trip_count",
                 "taken_target", "fall_through")

    def __init__(self, start: int, length: int, is_loop: bool,
                 taken_prob: float, trip_count: int, taken_target: int,
                 fall_through: int) -> None:
        self.start = start
        self.length = length
        self.is_loop = is_loop
        self.taken_prob = taken_prob
        self.trip_count = trip_count
        self.taken_target = taken_target
        self.fall_through = fall_through


#: Code and data live in disjoint address regions.
CODE_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
STREAM_BASE = 0x4000_0000


class TraceGenerator:
    """Generates dynamic traces for one :class:`PhaseSpec`.

    The static code (basic blocks, their ops, branch behaviours, layout) is
    a deterministic function of the spec, so two generators for the same
    spec produce the *same program* executing different dynamic streams
    when given different ``stream_seed`` values — exactly the property the
    phase-detection and counter machinery relies on.
    """

    def __init__(self, spec: PhaseSpec) -> None:
        self.spec = spec
        self._blocks, self._ops = self._build_static_code()

    # -- static code -------------------------------------------------------

    def _build_static_code(self) -> tuple[list[_StaticBlock], np.ndarray]:
        """The basic blocks and the ops of all of them, laid out back to
        back from :data:`CODE_BASE` (4 bytes per instruction).  One array,
        not two per block: generators live as long as their program, and
        per-block arrays cost several times their data in headers."""
        spec = self.spec
        rng = np.random.default_rng(spec.stable_seed())
        mean_block = max(2.0, 1.0 / spec.branch_frac)
        # Op sampling distribution for non-branch slots.
        rest = 1.0 - spec.branch_frac
        p_load = spec.load_frac / rest
        p_store = spec.store_frac / rest
        p_compute = max(0.0, 1.0 - p_load - p_store)
        p_fp = p_compute * spec.fp_frac
        p_int = p_compute - p_fp
        probs = np.array([
            p_int * (1 - spec.mul_frac),  # IALU
            p_int * spec.mul_frac,        # IMUL
            p_fp * (1 - spec.mul_frac),   # FALU
            p_fp * spec.mul_frac,         # FMUL
            p_load,                       # LOAD
            p_store,                      # STORE
        ])
        probs = probs / probs.sum()

        blocks: list[_StaticBlock] = []
        code: list[np.ndarray] = []
        start = 0
        branch = np.array([OpClass.BRANCH], np.uint8)
        for b in range(spec.code_blocks):
            body_len = 1 + int(rng.geometric(1.0 / mean_block))
            body_len = min(body_len, 64)
            code.append(
                rng.choice(6, size=body_len - 1, p=probs).astype(np.uint8))
            code.append(branch)
            blocks.append(_StaticBlock(start, body_len, False, 0.5, 0, 0, 0))
            start += body_len

        for b, block in enumerate(blocks):
            block.fall_through = (b + 1) % spec.code_blocks
            if rng.random() < spec.loop_branch_frac:
                block.is_loop = True
                block.trip_count = max(2, int(rng.geometric(
                    1.0 / spec.loop_trip_mean)))
                block.taken_target = b  # loop back to self
            else:
                bias = min(1.0, max(0.5, rng.normal(spec.branch_bias, 0.06)))
                # Real code mostly falls through; a strongly-taken forward
                # branch is rarer.  Keeping most branches not-taken-biased
                # gives each phase a stable hot path (stable working set).
                taken_prob = 1.0 - bias if rng.random() < 0.7 else bias
                block.taken_prob = taken_prob
                # Jumps skip only a few blocks (spatial code locality);
                # occasional far jumps model calls into helpers.
                if rng.random() < 0.1:
                    offset = int(rng.integers(
                        1, max(2, spec.code_blocks // 4)))
                else:
                    offset = 1 + min(int(rng.geometric(0.5)),
                                     max(1, spec.code_blocks // 8))
                block.taken_target = (b + offset) % spec.code_blocks
        return blocks, np.concatenate(code)

    # -- dynamic walk --------------------------------------------------------

    def generate(
        self, length: int, stream_seed: int | tuple[int, ...] = 0
    ) -> Trace:
        """One dynamic trace of exactly ``length`` instructions."""
        if length < 8:
            raise ValueError("trace length must be at least 8")
        spec = self.spec
        seed_parts = (
            (stream_seed,) if isinstance(stream_seed, int) else tuple(stream_seed)
        )
        rng = np.random.default_rng((spec.stable_seed(),) + seed_parts)

        starts: list[int] = []
        takes: list[int] = []
        outcomes: list[bool] = []  # branch taken? (False if cut short)
        produced = 0
        # Every dynamic stream of a phase enters at the same hot-code root;
        # variation comes from branch outcomes and data streams.
        block_id = 0
        loop_remaining: dict[int, int] = {}
        while produced < length:
            block = self._blocks[block_id]
            take = min(block.length, length - produced)
            starts.append(block.start)
            takes.append(take)
            taken = False
            if take == block.length:
                if block.is_loop:
                    remaining = loop_remaining.get(block_id)
                    if remaining is None:
                        remaining = block.trip_count
                    remaining -= 1
                    if remaining > 0:
                        taken = True
                        loop_remaining[block_id] = remaining
                    else:
                        taken = False
                        loop_remaining.pop(block_id, None)
                else:
                    taken = bool(rng.random() < block.taken_prob)
                block_id = block.taken_target if taken else block.fall_through
            else:
                block_id = block.fall_through
            outcomes.append(taken)
            produced += take

        # Static position of every dynamic instruction.
        take_counts = np.asarray(takes, dtype=np.int64)
        ends = np.cumsum(take_counts)
        position = np.arange(length, dtype=np.int64) + np.repeat(
            np.asarray(starts, dtype=np.int64) - (ends - take_counts),
            take_counts)
        ops = self._ops[position]
        pcs = CODE_BASE + 4 * position
        taken = np.zeros(length, dtype=bool)
        taken[ends - 1] = outcomes

        src1, src2 = self._dependences(ops, rng)
        addr = self._addresses(ops, rng)
        return Trace(ops=ops, src1=src1, src2=src2, addr=addr, pc=pcs,
                     taken=taken)

    def _dependences(
        self, ops: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Register dependence distances per instruction (vectorised)."""
        spec = self.spec
        n = len(ops)
        geometric = rng.geometric(min(1.0, 1.0 / spec.ilp_mean), size=n)
        serial = rng.random(n) < spec.serial_frac
        src1 = np.where(serial, 1, geometric).astype(np.int32)
        src2_raw = rng.geometric(min(1.0, 1.0 / (spec.ilp_mean * 1.5)), size=n)
        has_src2 = rng.random(n) < spec.two_source_frac
        src2 = np.where(has_src2, src2_raw, 0).astype(np.int32)
        # Stores and branches read; they also depend on recent values.
        idx = np.arange(n, dtype=np.int32)
        src1 = np.minimum(src1, idx)
        src2 = np.minimum(src2, idx)
        return src1, src2

    def _addresses(self, ops: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Data addresses from a move-to-front stack-distance process."""
        spec = self.spec
        n = len(ops)
        addr = np.zeros(n, dtype=np.int64)
        mem_positions = np.flatnonzero(
            (ops == OpClass.LOAD) | (ops == OpClass.STORE)
        )
        m = len(mem_positions)
        if m == 0:
            return addr
        kind_draw = rng.random(m)
        streaming = kind_draw < spec.streaming_frac
        scatter = (~streaming) & (
            kind_draw < spec.streaming_frac + spec.scatter_frac
        )
        remaining = spec.streaming_frac + spec.scatter_frac
        hot = (~streaming) & (~scatter) & (
            kind_draw < remaining + (1.0 - remaining) * spec.hot_frac
        )
        scatter_blocks = rng.integers(spec.footprint_blocks, size=m)
        hot_blocks_drawn = rng.integers(spec.hot_blocks, size=m)
        # Pareto(alpha) stack distances, minimum 1.
        u = rng.random(m)
        distances = np.ceil(u ** (-1.0 / spec.reuse_alpha)).astype(np.int64)
        distances = np.minimum(distances, spec.footprint_blocks)

        stack: list[int] = list(range(min(32, spec.footprint_blocks)))
        next_fresh = len(stack)
        stream_block = 0
        blocks_out = np.empty(m, dtype=np.int64)
        for j in range(m):
            if streaming[j]:
                block = (spec.hot_blocks + spec.footprint_blocks
                         + (stream_block % (4 * spec.footprint_blocks)))
                stream_block += 1
                blocks_out[j] = block
                continue
            if scatter[j]:
                blocks_out[j] = spec.hot_blocks + scatter_blocks[j]
                continue
            if hot[j]:
                blocks_out[j] = hot_blocks_drawn[j]
                continue
            d = int(distances[j])
            if d <= len(stack):
                block = stack.pop(d - 1)
            elif next_fresh < spec.footprint_blocks:
                block = next_fresh
                next_fresh += 1
            else:
                block = stack.pop()  # deepest entry
            stack.insert(0, block)
            if len(stack) > spec.footprint_blocks:
                stack.pop()
            blocks_out[j] = spec.hot_blocks + block
        addr[mem_positions] = DATA_BASE + blocks_out * CACHE_BLOCK_BYTES
        return addr
