"""Configuration-independent trace characterisation.

The section V-C protocol needs each phase evaluated on hundreds to
thousands of configurations.  Rather than paying a full cycle-level
simulation per point, we characterise each trace *once* and let the fast
interval evaluator (:mod:`repro.timing.interval`) price any configuration
analytically.  The characterisation captures everything the Table I
parameters interact with:

* **ILP curves** — average dataflow critical-path length of w-instruction
  windows, both unit-weighted (ops) and load-weighted, for a grid of
  window sizes: window-limited IPC for any ROB/IQ/LSQ/RF/branch limit and
  any ALU/load latency follows by interpolation;
* **miss-ratio curves** — LRU stack-distance profiles of the data and
  instruction streams (Mattson: one pass serves all cache sizes);
* **branch tables** — trained gshare mispredict rate for each of the six
  predictor sizes and BTB taken-miss rate for each of the three BTB sizes;
* **mix statistics** — op fractions, source/destination densities, fetch
  run lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.parameters import parameter_by_name
from repro.timing.branch import btb_misses, gshare_mispredicts
from repro.timing.caches import smoothed_miss_curve, stack_distances
from repro.timing.resources import CACHE_BLOCK_BYTES, OpClass
from repro.workloads.trace import Trace

__all__ = ["TraceCharacterization", "characterize", "WINDOW_GRID"]

#: Window sizes for the ILP curves (covers the ROB range of Table I).
WINDOW_GRID: tuple[int, ...] = (4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 224)

#: Nominal load latency used for the load-weighted critical path.
_NOMINAL_LOAD_WEIGHT = 4.0


@dataclass(frozen=True)
class TraceCharacterization:
    """Everything the interval evaluator needs to price configurations."""

    instructions: int
    mem_frac: float
    load_frac: float
    store_frac: float
    branch_frac: float
    taken_branch_frac: float  # taken branches / instructions
    fp_frac: float
    int_dest_frac: float  # instructions writing the integer file
    fp_dest_frac: float
    int_src_density: float  # integer-file reads per instruction
    fp_src_density: float
    fetch_block_frac: float  # i-cache block transitions per instruction
    op_fracs: tuple[float, ...]  # fraction per OpClass code

    # ILP: mean critical-path depth of w-instruction windows.
    window_sizes: tuple[int, ...]
    path_ops: tuple[float, ...]  # unit-weighted depth
    path_weighted: tuple[float, ...]  # loads weighted _NOMINAL_LOAD_WEIGHT

    # Memory: fully-associative miss ratios per capacity (in blocks).
    dcache_miss: dict[int, float]
    icache_miss: dict[int, float]
    l2_data_miss: dict[int, float]
    l2_inst_miss: dict[int, float]

    # Branches.
    gshare_mispredict: dict[int, float]  # per gshare size, of branches
    btb_taken_miss: dict[int, float]  # per BTB size, of taken branches

    def ilp(self, window: float, alu_latency: float, load_latency: float) -> float:
        """Window-limited IPC for the given effective window and latencies.

        The unit-weighted and load-weighted critical paths let us separate
        the ALU and load contributions to the path:
        ``loads_on_path = (weighted - ops) / (nominal_load_weight - 1)``.
        """
        if window <= self.window_sizes[0]:
            window = self.window_sizes[0]
        w = min(window, self.window_sizes[-1])
        ops = float(np.interp(w, self.window_sizes, self.path_ops))
        weighted = float(np.interp(w, self.window_sizes, self.path_weighted))
        loads_on_path = max(0.0, (weighted - ops) / (_NOMINAL_LOAD_WEIGHT - 1.0))
        alu_on_path = max(1e-9, ops - loads_on_path)
        path_cycles = alu_on_path * alu_latency + loads_on_path * load_latency
        return w / max(path_cycles, 1e-9)

    @staticmethod
    def _lookup(curve: dict[int, float], capacity: int) -> float:
        if capacity in curve:
            return curve[capacity]
        keys = sorted(curve)
        values = [curve[k] for k in keys]
        return float(np.interp(capacity, keys, values))

    def dcache_miss_rate(self, size_bytes: int) -> float:
        return self._lookup(self.dcache_miss, size_bytes // CACHE_BLOCK_BYTES)

    def icache_miss_rate(self, size_bytes: int) -> float:
        return self._lookup(self.icache_miss, size_bytes // CACHE_BLOCK_BYTES)

    def l2_miss_rates(self, size_bytes: int) -> tuple[float, float]:
        """(data-side, instruction-side) L2 miss ratios, as fractions of the
        respective *L1 access* streams."""
        blocks = size_bytes // CACHE_BLOCK_BYTES
        return (
            self._lookup(self.l2_data_miss, blocks),
            self._lookup(self.l2_inst_miss, blocks),
        )


def _critical_paths(trace: Trace) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Mean critical-path depths of windows of each WINDOW_GRID size.

    The trace is cut into consecutive w-instruction blocks, and all blocks
    are walked at once, one position per step.  Step ``k`` fills row
    ``k + 1`` of a ``(w + 1, 2 * blocks)`` depth table: unit-weighted
    depths in the first ``blocks`` columns, load-weighted in the rest.
    Row 0 is a zero sentinel that absent sources and sources before the
    block read; the flat gather indices of every step are computed up
    front.  Depths are integer-valued, so the per-block sums are exact
    whatever the summation order.
    """
    n = len(trace)
    weight = np.where(trace.ops == OpClass.LOAD, _NOMINAL_LOAD_WEIGHT, 1.0)
    path_ops: list[float] = []
    path_weighted: list[float] = []
    for w in WINDOW_GRID:
        blocks = n // w
        if blocks == 0:
            path_ops.append(0.0)
            path_weighted.append(0.0)
            continue
        span = blocks * w
        step = np.arange(w, dtype=np.int32)[:, None]
        cols = np.arange(blocks, dtype=np.int32)
        gathers = []
        for src in (trace.src1, trace.src2):
            distance = src[:span].reshape(blocks, w).T
            inside = (distance > 0) & (distance <= step)
            ops_gather = np.where(
                inside, (step - distance + 1) * (2 * blocks) + cols, cols)
            gathers.append(np.hstack([ops_gather, ops_gather + blocks]))
        gather1, gather2 = gathers
        increment = np.hstack([
            np.ones((w, blocks)), weight[:span].reshape(blocks, w).T])
        depth = np.zeros((w + 1, 2 * blocks))
        flat = depth.reshape(-1)
        for k in range(w):
            np.maximum(flat.take(gather1[k]), flat.take(gather2[k]),
                       out=depth[k + 1])
            depth[k + 1] += increment[k]
        longest = depth.max(axis=0)
        path_ops.append(float(longest[:blocks].sum()) / blocks)
        path_weighted.append(float(longest[blocks:].sum()) / blocks)
    return tuple(path_ops), tuple(path_weighted)


def _branch_tables(
    warm_pcs: np.ndarray, warm_taken: np.ndarray,
    pcs: np.ndarray, taken: np.ndarray,
) -> tuple[dict[int, float], dict[int, float]]:
    """Gshare mispredict and BTB taken-miss rates per predictor size.

    Train on the warm stream, measure on the trace: one run over the
    concatenation, minus the misses of its warm prefix (which are the warm
    stream's own misses, as the predictor starts from reset either way).
    """
    joint_pcs = np.concatenate([warm_pcs, pcs])
    joint_taken = np.concatenate([warm_taken, taken])
    n_measure = len(pcs)
    n_train = len(warm_pcs)

    gshare_mispredict = {}
    for size in parameter_by_name("gshare_size").values:
        if n_measure == 0:
            gshare_mispredict[size] = 0.0
            continue
        wrong = gshare_mispredicts(joint_pcs, joint_taken, size)
        misses_joint = _rescaled(int(wrong.sum()), n_train + n_measure)
        misses_train = _rescaled(int(wrong[:n_train].sum()), n_train)
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
        miss = btb_misses(joint_pcs, joint_taken, size)
        misses_joint = _rescaled(
            int(miss.sum()), taken_train + taken_measure)
        misses_train = _rescaled(int(miss[:n_train].sum()), taken_train)
        btb_taken_miss[size] = max(
            0.0, (misses_joint - misses_train) / taken_measure
        )
    return gshare_mispredict, btb_taken_miss


def _rescaled(misses: int, count: int) -> float:
    """``misses`` recovered from its rate, ``(misses / count) * count``.

    Not simplified to ``misses``: the rate's rounding reaches the cached
    characterisations and golden numbers, which stay bit-identical.
    """
    return misses / count * count if count else 0.0


def characterize(
    trace: Trace, warm_trace: Trace | None = None
) -> TraceCharacterization:
    """Characterise ``trace`` (one pass per analysis; tens of milliseconds
    for a 24,000-instruction trace).

    Args:
        trace: the phase trace to characterise.
        warm_trace: sibling stream of the same phase used to *train* the
            branch predictor models before measuring on ``trace``.  Without
            one, the trace warms itself — which lets a long-history gshare
            memorise the exact outcome sequence and under-reports
            mispredictions for poorly-biased branch behaviour.
    """
    n = len(trace)
    ops = trace.ops
    is_load = trace.is_load
    is_store = trace.is_store
    is_mem = trace.is_mem
    is_branch = trace.is_branch
    is_fp = trace.is_fp

    # -- mix ---------------------------------------------------------------
    load_frac = float(is_load.mean())
    store_frac = float(is_store.mean())
    branch_frac = float(is_branch.mean())
    taken_branch_frac = float((is_branch & trace.taken).mean())
    fp_frac = float(is_fp.mean())
    int_dest = (ops == OpClass.IALU) | (ops == OpClass.IMUL) | is_load
    int_dest_frac = float(int_dest.mean())
    fp_dest_frac = float(is_fp.mean())
    srcs = (trace.src1 > 0).astype(np.int32) + (trace.src2 > 0).astype(np.int32)
    srcs_mem_adjusted = np.where(is_mem, np.maximum(srcs, 1), srcs)
    int_src_density = float(srcs_mem_adjusted[~is_fp].sum()) / n
    fp_src_density = float(srcs_mem_adjusted[is_fp].sum()) / n

    # -- ILP ----------------------------------------------------------------
    path_ops, path_weighted = _critical_paths(trace)

    # -- caches --------------------------------------------------------------
    data_blocks = trace.addr[is_mem] // CACHE_BLOCK_BYTES
    pc_blocks_all = trace.pc // CACHE_BLOCK_BYTES
    transitions = np.empty(n, dtype=bool)
    transitions[0] = True
    transitions[1:] = pc_blocks_all[1:] != pc_blocks_all[:-1]
    inst_blocks = pc_blocks_all[transitions]
    fetch_block_frac = float(transitions.mean())

    dcache_capacities = sorted(
        {v // CACHE_BLOCK_BYTES for v in parameter_by_name("dcache_size").values}
    )
    icache_capacities = sorted(
        {v // CACHE_BLOCK_BYTES for v in parameter_by_name("icache_size").values}
    )
    l2_capacities = sorted(
        {v // CACHE_BLOCK_BYTES for v in parameter_by_name("l2_size").values}
    )

    data_sd = stack_distances(data_blocks)
    inst_sd = stack_distances(inst_blocks)
    # A warmed cache sees repeat behaviour: treat cold (first-touch)
    # accesses as hits when the block would fit (the warm-up pass loaded
    # them), i.e. miss iff distance >= capacity.  Cold distances are set to
    # the stream's distinct-block count so tiny caches still miss them.
    data_sd = np.where(data_sd < 0, len(np.unique(data_blocks)), data_sd)
    inst_sd = np.where(inst_sd < 0, len(np.unique(inst_blocks)), inst_sd)

    dcache_miss = smoothed_miss_curve(data_sd, dcache_capacities)
    icache_miss = smoothed_miss_curve(inst_sd, icache_capacities)
    l2_data_miss = smoothed_miss_curve(data_sd, l2_capacities)
    l2_inst_miss = smoothed_miss_curve(inst_sd, l2_capacities)

    # -- branches ------------------------------------------------------------
    warm = warm_trace if warm_trace is not None else trace
    gshare_mispredict, btb_taken_miss = _branch_tables(
        warm.pc[warm.is_branch], warm.taken[warm.is_branch],
        trace.pc[is_branch], trace.taken[is_branch],
    )

    return TraceCharacterization(
        instructions=n,
        mem_frac=load_frac + store_frac,
        load_frac=load_frac,
        store_frac=store_frac,
        branch_frac=branch_frac,
        taken_branch_frac=taken_branch_frac,
        fp_frac=fp_frac,
        int_dest_frac=int_dest_frac,
        fp_dest_frac=fp_dest_frac,
        int_src_density=int_src_density,
        fp_src_density=fp_src_density,
        fetch_block_frac=fetch_block_frac,
        op_fracs=tuple(
            float((ops == code).mean()) for code in range(len(OpClass.NAMES))
        ),
        window_sizes=WINDOW_GRID,
        path_ops=path_ops,
        path_weighted=path_weighted,
        dcache_miss=dcache_miss,
        icache_miss=icache_miss,
        l2_data_miss=l2_data_miss,
        l2_inst_miss=l2_inst_miss,
        gshare_mispredict=gshare_mispredict,
        btb_taken_miss=btb_taken_miss,
    )
