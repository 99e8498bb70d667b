"""Cycle-level out-of-order superscalar core model.

This is the reproduction's stand-in for the paper's modified
Wattch/SimpleScalar simulator (RUU replaced by explicit ROB, issue queue
and register files).  It executes a committed-path
:class:`~repro.workloads.trace.Trace` on a
:class:`~repro.config.MicroarchConfig`, modelling every structure of the
Table I design space:

* width-limited fetch/dispatch/issue/commit;
* ROB, issue queue, LSQ and physical register file occupancy limits;
* register-file read/write *port* contention (per file, per cycle);
* functional-unit contention (integer ALUs, FP units, memory ports);
* gshare + BTB branch prediction with an in-flight-branch speculation
  limit and depth-dependent misprediction penalties;
* wrong-path pollution: fetch continues past a mispredicted branch (the
  pending correct-path instructions stand in for wrong-path work, the
  standard trace-driven approximation), occupying queues and issue slots
  until the branch resolves and squashes them;
* an L1I/L1D/L2 cache hierarchy with size-dependent (Cacti) latencies;
* activity accounting for the Wattch power model.

Each cycle runs completion, commit, issue and fetch/dispatch in that order,
inlined into one loop over local variables.  The loop is event-driven where
the pipeline is idle: a cycle that pops no completion event, commits,
issues and fetches nothing (and discards no stale ready-queue entry) leaves
the state unchanged, so every following cycle repeats it until the next
completion event or the end of a fetch stall.  The loop jumps straight
there.  (Nothing waits in the ready queue for time: an entry can issue
once pushed, and waits only for a functional unit, a port or an older
store, which an idle cycle does not change.)

A :class:`CycleSimulator` run with a *collector* (see
:mod:`repro.counters.collector`) also counts, per structure, the cycles
spent at each occupancy value -- a skipped stretch adds to the current
value in O(1) -- and hands those counts to ``collector.finish``, which
builds the paper's temporal-histogram hardware counters from them.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.timing.branch import GshareBTB
from repro.timing.caches import CacheHierarchy
from repro.timing.resources import (
    ARCH_REGS,
    CACHE_BLOCK_BYTES,
    MachineParams,
    OpClass,
    derive_machine_params,
)
from repro.workloads.trace import Trace

__all__ = ["CycleSimulator", "SimResult", "SimulationError"]

_DEST_NONE, _DEST_INT, _DEST_FP = 0, 1, 2

#: Destination register file per OpClass code.
_DEST_FILE = np.array([_DEST_INT, _DEST_INT, _DEST_FP, _DEST_FP, _DEST_INT,
                       _DEST_NONE, _DEST_NONE], dtype=np.int64)

_ACTIVITY_KEYS = (
    "icache_access", "icache_miss", "dcache_access", "dcache_miss",
    "l2_access", "l2_miss", "gshare_access", "btb_access",
    "rob_write", "rob_read", "iq_write", "iq_wakeup", "iq_select",
    "lsq_write", "lsq_search", "rf_read_int", "rf_read_fp",
    "rf_write_int", "rf_write_fp", "ialu_op", "imul_op",
    "falu_op", "fmul_op",
)


class SimulationError(RuntimeError):
    """Raised when the core fails to make forward progress."""


@dataclass
class SimResult:
    """Outcome of one cycle-level simulation."""

    instructions: int
    cycles: int
    frequency_ghz: float
    activity: dict[str, int] = field(default_factory=dict)
    branches: int = 0
    mispredicts: int = 0
    squashed: int = 0
    wrong_path_dispatched: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def time_ns(self) -> float:
        return self.cycles / self.frequency_ghz

    @property
    def ips(self) -> float:
        """Instructions per second."""
        return self.instructions / (self.time_ns * 1e-9) if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0


class CycleSimulator:
    """Executes traces on configurations, cycle by cycle."""

    def __init__(self, config: MicroarchConfig,
                 max_cycles_per_instruction: int = 500) -> None:
        self.config = config
        self.params: MachineParams = derive_machine_params(config)
        self.max_cycles_per_instruction = max_cycles_per_instruction

    # -- public API --------------------------------------------------------

    def run(self, trace: Trace, collector: object | None = None,
            warm: bool = True, warm_trace: Trace | None = None) -> SimResult:
        """Simulate ``trace`` to completion and return the result.

        Args:
            trace: committed-path instruction stream.
            collector: optional hardware-counter collector.  With one, the
                core counts the cycles spent at each occupancy value of
                every structure and then calls ``finish(core, result)``,
                which reads ``core.occupancy`` (structure name -> list of
                cycle counts indexed by value), ``core.speculative_sums``
                (``"rob"``/``"iq"``/``"lsq"`` -> per-cycle sum of the
                speculative entries) and ``core.dispatched``,
                ``core.dispatched_mem``, ``core.squashed`` and
                ``core.squashed_mem``.
            warm: pre-train caches and branch predictor with one functional
                pass before the timed run, standing in for the paper's
                10M-instruction warm-up (phases are stationary, so the
                phase's own distribution is the right warming stream).
            warm_trace: stream used to train the *branch predictor* during
                warm-up.  Pass a sibling stream of the same phase when one
                is available: warming gshare on the identical stream lets
                its global history memorise the exact future outcome
                sequence, deflating misprediction rates.  Caches warm on
                ``trace`` itself either way (re-touching the same blocks is
                exactly what steady-state loops do).
        """
        core = _CoreState(self.params, trace, collector)
        if warm:
            core.warm_state(warm_trace)
        result = core.execute(self.max_cycles_per_instruction)
        if collector is not None:
            collector.finish(core, result)
        return result


class _CoreState:
    """One run: the trace as Python lists, the warmed caches and branch
    predictor, and (after :meth:`execute` with a collector) the occupancy
    counts.  Everything else lives in :meth:`execute`'s locals."""

    def __init__(self, params: MachineParams, trace: Trace,
                 collector: object | None) -> None:
        self.params = params
        self.trace = trace
        self.collector = collector
        config = params.config

        self.n = len(trace)
        self.ops = trace.ops.tolist()
        self.src1 = trace.src1.tolist()
        self.src2 = trace.src2.tolist()
        self.addr = trace.addr.tolist()
        self.pc = trace.pc.tolist()
        self.taken = trace.taken.tolist()
        self.bp = GshareBTB(config.gshare_size, config.btb_size)
        self.hier = CacheHierarchy(params)
        self.activity: dict[str, int] = dict.fromkeys(_ACTIVITY_KEYS, 0)

    # -- warm-up ---------------------------------------------------------------

    def warm_state(self, warm_trace: Trace | None = None) -> None:
        """Functional pass training caches, gshare and BTB (no timing)."""
        hier = self.hier
        bp = self.bp
        last_block = -1
        for i in range(self.n):
            op = self.ops[i]
            block = self.pc[i] // CACHE_BLOCK_BYTES
            if block != last_block:
                hier.access_inst(self.pc[i])
                last_block = block
            if op == OpClass.LOAD or op == OpClass.STORE:
                hier.access_data(self.addr[i])
            elif warm_trace is None and op == OpClass.BRANCH:
                bp.update(self.pc[i], self.taken[i])
        if warm_trace is not None:
            branch = warm_trace.is_branch
            for pc, taken in zip(warm_trace.pc[branch].tolist(),
                                 warm_trace.taken[branch].tolist()):
                bp.update(pc, taken)
        hier.l1i.reset_stats()
        hier.l1d.reset_stats()
        hier.l2.reset_stats()
        bp.lookups = 0
        bp.updates = 0

    # -- main loop -----------------------------------------------------------

    def execute(self, max_cycles_per_instruction: int) -> SimResult:
        params = self.params
        config = params.config
        trace = self.trace
        n = self.n
        ops = self.ops
        src1 = self.src1
        src2 = self.src2
        addr = self.addr
        pc = self.pc
        taken = self.taken
        heappush = heapq.heappush
        heappop = heapq.heappop
        access_inst = self.hier.access_inst
        access_data = self.hier.access_data
        predict = self.bp.predict
        is_mispredict = self.bp.is_mispredict
        train = self.bp.update

        # Trace-level facts, computed once.
        dest_of = _DEST_FILE[trace.ops].tolist()
        is_mem = trace.is_mem.tolist()
        srcs_of = ((trace.src1 != 0).astype(np.int64)
                   + (trace.src2 != 0)).tolist()

        IALU, IMUL, FALU, FMUL = (OpClass.IALU, OpClass.IMUL, OpClass.FALU,
                                  OpClass.FMUL)
        LOAD, STORE, BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
        DEST_INT, DEST_FP = _DEST_INT, _DEST_FP

        width = config.width
        rob_capacity = config.rob_size
        iq_capacity = config.iq_size
        lsq_capacity = config.lsq_size
        branch_limit = config.branches
        rd_ports = config.rf_rd_ports
        wr_ports = config.rf_wr_ports
        int_alus = params.int_alus
        fp_units = params.fp_units
        mem_ports = params.mem_ports
        op_latency = params.op_latency
        mispredict_penalty = params.mispredict_penalty
        max_pops = 4 * width + 4
        regs = config.rf_size - ARCH_REGS
        limit = 1000 + max_cycles_per_instruction * n

        # Per-index instruction state (reset on (re)dispatch).
        gen = [0] * n
        in_flight = [False] * n
        issued = [False] * n
        completed = [False] * n
        speculative = [False] * n
        waiting = [0] * n
        wb_cycle = [0] * n

        rob: deque[int] = deque()
        ready_heap: list[int] = []
        events: list[tuple[int, int, int]] = []  # (cycle, idx, gen)
        dependents: dict[int, list[tuple[int, int]]] = {}
        unissued_stores: list[int] = []
        wb_counts: dict[int, int] = {}  # 3 * cycle + file -> writebacks

        iq_count = lsq_count = 0
        free_int_regs = free_fp_regs = regs
        branches_unresolved = rob_spec = iq_spec = lsq_spec = 0
        fetch_ptr = fetch_stall_until = 0
        last_iblock = -1
        squash_owner = -1  # the unresolved mispredicted branch, or -1

        cycle = committed_count = 0
        dispatched = dispatched_mem = wrong_path_dispatched = 0
        squashed = squashed_mem = branches_seen = mispredict_count = 0
        branch_fetches = 0
        issues_of = [0] * len(OpClass.NAMES)
        icache_access = icache_miss = dcache_miss = l2_access = l2_miss = 0
        iq_wakeup = rf_read_int = rf_read_fp = rf_write_int = rf_write_fp = 0

        # Cycles spent at each value, per structure (with a collector).
        collect = self.collector is not None
        alu_counts = [0] * (width + 1)
        mem_counts = [0] * (mem_ports + 1)
        rob_counts = [0] * (rob_capacity + 1)
        iq_counts = [0] * (iq_capacity + 1)
        lsq_counts = [0] * (lsq_capacity + 1)
        int_counts = [0] * (regs + 1)
        fp_counts = [0] * (regs + 1)
        rd_counts = [0] * (2 * rd_ports + 1)
        wr_counts = [0] * (2 * wr_ports + 1)
        rob_spec_sum = iq_spec_sum = lsq_spec_sum = 0

        while committed_count < n:
            cycle += 1
            if cycle > limit:
                raise SimulationError(
                    f"no forward progress after {cycle} cycles "
                    f"({committed_count}/{n} committed)"
                )
            busy = False
            writebacks = alu_used = mem_used = rd_used = 0

            # -- completions (writeback, wake-up, branch resolution) --------
            if events and events[0][0] <= cycle:
                busy = True
                while events and events[0][0] <= cycle:
                    _, i, g = heappop(events)
                    if gen[i] != g or not in_flight[i]:
                        continue  # squashed instance
                    completed[i] = True
                    dest = dest_of[i]
                    if dest == DEST_INT:
                        rf_write_int += 1
                        writebacks += 1
                    elif dest == DEST_FP:
                        rf_write_fp += 1
                        writebacks += 1
                    if ops[i] == BRANCH:
                        branches_unresolved -= 1
                    # Wake dependents (bypass: they may issue this cycle).
                    waiters = dependents.pop(i, None)
                    if waiters:
                        iq_wakeup += 1
                        for j, jgen in waiters:
                            if gen[j] != jgen or not in_flight[j]:
                                continue
                            waiting[j] -= 1
                            if waiting[j] == 0 and not issued[j]:
                                heappush(ready_heap, j)
                    if squash_owner != i:
                        continue
                    # Squash everything younger than the branch, redirect.
                    while rob and rob[-1] > i:
                        k = rob.pop()
                        in_flight[k] = False
                        gen[k] += 1  # invalidate pending events/wakeups
                        dest = dest_of[k]
                        if not issued[k]:
                            iq_count -= 1
                        elif not completed[k] and dest:
                            key = 3 * wb_cycle[k] + dest
                            count = wb_counts.get(key, 0)
                            if count > 1:
                                wb_counts[key] = count - 1
                            else:
                                wb_counts.pop(key, None)
                        if ops[k] == BRANCH and not completed[k]:
                            branches_unresolved -= 1
                        if dest == DEST_INT:
                            free_int_regs += 1
                        elif dest == DEST_FP:
                            free_fp_regs += 1
                        if is_mem[k]:
                            lsq_count -= 1
                            squashed_mem += 1
                            if speculative[k]:
                                lsq_spec -= 1
                        if speculative[k]:
                            rob_spec -= 1
                            if not issued[k]:
                                iq_spec -= 1
                        squashed += 1
                    squash_owner = -1
                    fetch_ptr = i + 1
                    fetch_stall_until = cycle + mispredict_penalty
                    last_iblock = -1

            # -- commit (in order, completed heads) --------------------------
            if rob and completed[rob[0]]:
                busy = True
                retired = 0
                while rob and retired < width:
                    i = rob[0]
                    if not completed[i]:
                        break
                    rob.popleft()
                    retired += 1
                    in_flight[i] = False
                    dest = dest_of[i]
                    if dest == DEST_INT:
                        free_int_regs += 1
                    elif dest == DEST_FP:
                        free_fp_regs += 1
                    if speculative[i]:
                        rob_spec -= 1
                        if is_mem[i]:
                            lsq_spec -= 1
                    if is_mem[i]:
                        lsq_count -= 1
                committed_count += retired

            # -- issue (oldest ready first, structural hazards) --------------
            # Every live heap entry can issue now: wake-up pushes it during
            # this cycle's completions, dispatch during an earlier cycle.
            if ready_heap:
                deferred = []
                issued_now = pops = 0
                alus = int_alus
                fpus = fp_units
                mports = mem_ports
                rd_int = rd_fp = rd_ports
                while ready_heap and issued_now < width and pops < max_pops:
                    i = heappop(ready_heap)
                    pops += 1
                    if not in_flight[i] or issued[i] or waiting[i]:
                        busy = True  # a stale entry is dropped
                        continue
                    op = ops[i]
                    srcs = srcs_of[i]
                    if op == FALU or op == FMUL:
                        if fpus == 0 or rd_fp < srcs:
                            deferred.append(i)
                            continue
                        fpus -= 1
                        rd_fp -= srcs
                        rf_read_fp += srcs
                        latency = op_latency[op]
                    elif op == LOAD or op == STORE:
                        ports = srcs or 1
                        if mports == 0 or rd_int < ports:
                            deferred.append(i)
                            continue
                        if op == LOAD:
                            # Loads wait until every older store has issued.
                            blocked = False
                            while unissued_stores:
                                s = unissued_stores[0]
                                if issued[s] or not in_flight[s]:
                                    heappop(unissued_stores)
                                    continue
                                blocked = s < i
                                break
                            if blocked:
                                deferred.append(i)
                                continue
                        mports -= 1
                        rd_int -= ports
                        rf_read_int += ports
                        result = access_data(addr[i])
                        if not result.l1_hit:
                            dcache_miss += 1
                            l2_access += 1
                            if not result.l2_hit:
                                l2_miss += 1
                        # Stores retire through the write buffer.
                        latency = result.latency if op == LOAD else 1
                    else:
                        if alus == 0 or rd_int < srcs:
                            deferred.append(i)
                            continue
                        alus -= 1
                        rd_int -= srcs
                        rf_read_int += srcs
                        latency = op_latency[op]
                    issued[i] = True
                    if speculative[i]:
                        iq_spec -= 1
                    issues_of[op] += 1
                    issued_now += 1
                    complete = cycle + latency
                    dest = dest_of[i]
                    if dest:
                        key = 3 * complete + dest
                        count = wb_counts.get(key, 0)
                        while count >= wr_ports:
                            complete += 1
                            key += 3
                            count = wb_counts.get(key, 0)
                        wb_counts[key] = count + 1
                        wb_cycle[i] = complete
                    heappush(events, (complete, i, gen[i]))
                for i in deferred:
                    heappush(ready_heap, i)
                if issued_now:
                    busy = True
                    iq_count -= issued_now
                    mem_used = mem_ports - mports
                    alu_used = issued_now - mem_used
                    rd_used = 2 * rd_ports - rd_int - rd_fp

            # -- fetch / dispatch ----------------------------------------------
            if cycle >= fetch_stall_until:
                fetched = 0
                while fetched < width and fetch_ptr < n:
                    i = fetch_ptr
                    # Back-pressure checks.
                    if len(rob) >= rob_capacity or iq_count >= iq_capacity:
                        break
                    mem = is_mem[i]
                    if mem and lsq_count >= lsq_capacity:
                        break
                    dest = dest_of[i]
                    if dest == DEST_INT:
                        if free_int_regs == 0:
                            break
                    elif dest == DEST_FP and free_fp_regs == 0:
                        break
                    op = ops[i]
                    if op == BRANCH and branches_unresolved >= branch_limit:
                        break
                    # Instruction cache.
                    block = pc[i] // CACHE_BLOCK_BYTES
                    if block != last_iblock:
                        icache_access += 1
                        result = access_inst(pc[i])
                        last_iblock = block
                        if not result.l1_hit:
                            icache_miss += 1
                            l2_access += 1
                            if not result.l2_hit:
                                l2_miss += 1
                            fetch_stall_until = cycle + result.latency
                            busy = True
                            break
                    stop_after = False
                    if op == BRANCH:
                        branch_fetches += 1
                        predicted, btb_hit = predict(pc[i])
                        if squash_owner >= 0:
                            # Wrong-path branches neither train nor redirect.
                            stop_after = predicted and btb_hit
                        else:
                            branches_seen += 1
                            actual = taken[i]
                            mispredict = is_mispredict(predicted, btb_hit,
                                                       actual)
                            train(pc[i], actual)
                            if mispredict:
                                mispredict_count += 1
                                squash_owner = i
                                stop_after = predicted and btb_hit
                            else:
                                stop_after = actual
                    # Dispatch.
                    if squash_owner >= 0 and i != squash_owner:
                        wrong_path_dispatched += 1
                    spec = branches_unresolved > 0
                    g = gen[i] + 1
                    gen[i] = g
                    in_flight[i] = True
                    issued[i] = False
                    completed[i] = False
                    speculative[i] = spec
                    rob.append(i)
                    iq_count += 1
                    if spec:
                        rob_spec += 1
                        iq_spec += 1
                    if dest == DEST_INT:
                        free_int_regs -= 1
                    elif dest == DEST_FP:
                        free_fp_regs -= 1
                    if mem:
                        lsq_count += 1
                        dispatched_mem += 1
                        if spec:
                            lsq_spec += 1
                        if op == STORE:
                            heappush(unissued_stores, i)
                    elif op == BRANCH:
                        branches_unresolved += 1
                    # A source still executing makes this one wait.  A
                    # source outside the ROB has committed, or belongs to a
                    # squashed, not-yet-refetched range whose value
                    # architecturally exists: both count as ready.
                    pending = 0
                    dist = src1[i]
                    if dist:
                        src = i - dist
                        if src >= 0 and in_flight[src] and not completed[src]:
                            dependents.setdefault(src, []).append((i, g))
                            pending += 1
                    dist = src2[i]
                    if dist:
                        src = i - dist
                        if src >= 0 and in_flight[src] and not completed[src]:
                            dependents.setdefault(src, []).append((i, g))
                            pending += 1
                    waiting[i] = pending
                    if pending == 0:
                        heappush(ready_heap, i)
                    fetched += 1
                    fetch_ptr += 1
                    if stop_after:
                        break
                if fetched:
                    busy = True
                    dispatched += fetched

            # -- idle skip: repeat this cycle up to the next wake-up time ----
            weight = 1
            if not busy:
                wake = events[0][0] if events else limit + 1
                if cycle < fetch_stall_until < wake:
                    wake = fetch_stall_until
                target = wake - 1 if wake <= limit else limit
                if target > cycle:
                    weight += target - cycle
                    cycle = target

            if collect:
                alu_counts[alu_used] += weight
                mem_counts[mem_used] += weight
                rob_counts[len(rob)] += weight
                iq_counts[iq_count] += weight
                lsq_counts[lsq_count] += weight
                int_counts[regs - free_int_regs] += weight
                fp_counts[regs - free_fp_regs] += weight
                rd_counts[rd_used] += weight
                wr_counts[writebacks] += weight
                rob_spec_sum += weight * rob_spec
                iq_spec_sum += weight * iq_spec
                lsq_spec_sum += weight * lsq_spec

        activity = self.activity
        for key, value in (
            ("icache_access", icache_access), ("icache_miss", icache_miss),
            ("dcache_access", issues_of[LOAD] + issues_of[STORE]),
            ("dcache_miss", dcache_miss), ("l2_access", l2_access),
            ("l2_miss", l2_miss), ("gshare_access", branch_fetches),
            ("btb_access", branch_fetches), ("rob_write", dispatched),
            ("rob_read", committed_count), ("iq_write", dispatched),
            ("iq_wakeup", iq_wakeup), ("iq_select", sum(issues_of)),
            ("lsq_write", dispatched_mem), ("lsq_search", issues_of[LOAD]),
            ("rf_read_int", rf_read_int), ("rf_read_fp", rf_read_fp),
            ("rf_write_int", rf_write_int), ("rf_write_fp", rf_write_fp),
            ("ialu_op", issues_of[IALU] + issues_of[BRANCH]),
            ("imul_op", issues_of[IMUL]), ("falu_op", issues_of[FALU]),
            ("fmul_op", issues_of[FMUL]),
        ):
            activity[key] += value
        if collect:
            self.occupancy = {
                "alu": alu_counts, "memport": mem_counts, "rob": rob_counts,
                "iq": iq_counts, "lsq": lsq_counts, "intreg": int_counts,
                "fpreg": fp_counts, "rdport": rd_counts, "wrport": wr_counts,
            }
            self.speculative_sums = {"rob": rob_spec_sum, "iq": iq_spec_sum,
                                     "lsq": lsq_spec_sum}
            self.dispatched = dispatched
            self.dispatched_mem = dispatched_mem
            self.squashed = squashed
            self.squashed_mem = squashed_mem
        return SimResult(
            instructions=n,
            cycles=cycle,
            frequency_ghz=params.frequency_ghz,
            activity=dict(activity),
            branches=branches_seen,
            mispredicts=mispredict_count,
            squashed=squashed,
            wrong_path_dispatched=wrong_path_dispatched,
        )
