"""Test-only oracle: the per-stage cycle core and the hook-based collector.

:mod:`repro.timing.cycle` runs one inlined, event-driven loop that skips
idle cycles and counts occupancy per value.  This module keeps the core it
replaced -- one method per pipeline stage, a collector hook per cycle and
per event -- verbatim, so that ``tests/test_cycle_core_exactness.py`` can
check the fast core against it bit for bit.  It is kept for one change
after the rewrite and then deleted.
"""

from __future__ import annotations

import heapq
from collections import deque
from unittest import mock

import numpy as np

from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.counters import collector as collector_module
from repro.counters.collector import PhaseCounters, collect_counters
from repro.counters.histograms import TemporalHistogram
from repro.timing.branch import GshareBTB
from repro.timing.caches import CacheHierarchy
from repro.timing.cycle import CycleSimulator, SimResult, SimulationError
from repro.timing.resources import (
    ARCH_REGS,
    CACHE_BLOCK_BYTES,
    MachineParams,
    OpClass,
)
from repro.workloads.trace import Trace

__all__ = ["OracleCycleSimulator", "OccupancyCollector",
           "oracle_collect_counters"]

_DEST_NONE, _DEST_INT, _DEST_FP = 0, 1, 2

_DEST_FILE = {
    OpClass.IALU: _DEST_INT,
    OpClass.IMUL: _DEST_INT,
    OpClass.FALU: _DEST_FP,
    OpClass.FMUL: _DEST_FP,
    OpClass.LOAD: _DEST_INT,
    OpClass.STORE: _DEST_NONE,
    OpClass.BRANCH: _DEST_NONE,
}

_FP_OPS = (OpClass.FALU, OpClass.FMUL)


class OracleCycleSimulator(CycleSimulator):
    """:class:`CycleSimulator` on the per-stage core."""

    def run(self, trace: Trace, collector: object | None = None,
            warm: bool = True, warm_trace: Trace | None = None) -> SimResult:
        core = _CoreState(self.params, trace, collector)
        if warm:
            core.warm_state(warm_trace)
        result = core.execute(self.max_cycles_per_instruction)
        if collector is not None:
            collector.finish(core, result)
        return result


def oracle_collect_counters(
    trace: Trace,
    config: MicroarchConfig = PROFILING_CONFIG,
    warm_trace: Trace | None = None,
) -> PhaseCounters:
    """:func:`collect_counters` on the per-stage core and hook collector."""
    with mock.patch.object(collector_module, "CycleSimulator",
                           OracleCycleSimulator), \
            mock.patch.object(collector_module, "OccupancyCollector",
                              OccupancyCollector):
        return collect_counters(trace, config, warm_trace=warm_trace)


class _CoreState:
    """Mutable simulation state (one per run)."""

    def __init__(self, params: MachineParams, trace: Trace,
                 collector: object | None) -> None:
        self.params = params
        self.trace = trace
        self.collector = collector
        config = params.config

        n = len(trace)
        self.n = n
        # Hot-loop copies of the trace as plain Python lists.
        self.ops = trace.ops.tolist()
        self.src1 = trace.src1.tolist()
        self.src2 = trace.src2.tolist()
        self.addr = trace.addr.tolist()
        self.pc = trace.pc.tolist()
        self.taken = trace.taken.tolist()

        # Per-index instruction state (reset on (re)dispatch).
        self.gen = [0] * n
        self.in_flight = [False] * n
        self.issued = [False] * n
        self.completed = [False] * n
        self.committed = [False] * n
        self.wrong_path = [False] * n
        self.speculative = [False] * n
        self.waiting = [0] * n
        self.ready_at = [0] * n
        self.wb_cycle = [0] * n
        self.complete_cycle = [0] * n
        self.mispredicted = [False] * n

        # Machinery.
        self.rob: deque[int] = deque()
        self.ready_heap: list[int] = []
        self.events: list[tuple[int, int, int]] = []  # (cycle, idx, gen)
        self.dependents: dict[int, list[tuple[int, int]]] = {}
        self.unissued_stores: list[int] = []
        self.wb_counts: dict[tuple[int, int], int] = {}

        # Resources.
        self.iq_count = 0
        self.lsq_count = 0
        self.free_int_regs = config.rf_size - ARCH_REGS
        self.free_fp_regs = config.rf_size - ARCH_REGS
        self.branches_unresolved = 0
        self.rob_spec = 0
        self.iq_spec = 0
        self.lsq_spec = 0

        # Front end.
        self.fetch_ptr = 0
        self.fetch_stall_until = 0
        self.last_iblock = -1
        self.squash_owner: int | None = None
        self.bp = GshareBTB(config.gshare_size, config.btb_size)
        self.hier = CacheHierarchy(params)

        # Per-cycle observation (read by collectors).
        self.cycle = 0
        self.issued_by_class = [0] * len(OpClass.NAMES)
        self.mem_ports_used = 0
        self.rd_ports_int_used = 0
        self.rd_ports_fp_used = 0
        self.wb_int_this_cycle = 0
        self.wb_fp_this_cycle = 0

        # Statistics.
        self.committed_count = 0
        self.dispatched_count = 0
        self.wrong_path_dispatched = 0
        self.branches_seen = 0
        self.mispredict_count = 0
        self.squashed_count = 0
        self.activity: dict[str, int] = {
            key: 0
            for key in (
                "icache_access", "icache_miss", "dcache_access", "dcache_miss",
                "l2_access", "l2_miss", "gshare_access", "btb_access",
                "rob_write", "rob_read", "iq_write", "iq_wakeup", "iq_select",
                "lsq_write", "lsq_search", "rf_read_int", "rf_read_fp",
                "rf_write_int", "rf_write_fp", "ialu_op", "imul_op",
                "falu_op", "fmul_op",
            )
        }

    # -- derived observations (collector surface) ---------------------------

    @property
    def rob_count(self) -> int:
        return len(self.rob)

    @property
    def int_regs_used(self) -> int:
        return self.params.config.rf_size - ARCH_REGS - self.free_int_regs

    @property
    def fp_regs_used(self) -> int:
        return self.params.config.rf_size - ARCH_REGS - self.free_fp_regs

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
        if self.collector is not None:
            self.collector.begin(self)
        limit = 1000 + max_cycles_per_instruction * self.n
        while self.committed_count < self.n:
            self.cycle += 1
            if self.cycle > limit:
                raise SimulationError(
                    f"no forward progress after {self.cycle} cycles "
                    f"({self.committed_count}/{self.n} committed)"
                )
            self.issued_by_class = [0] * len(OpClass.NAMES)
            self.mem_ports_used = 0
            self.rd_ports_int_used = 0
            self.rd_ports_fp_used = 0
            self.wb_int_this_cycle = 0
            self.wb_fp_this_cycle = 0

            self._process_completions()
            self._commit()
            self._issue()
            self._fetch_dispatch()
            if self.collector is not None:
                self.collector.on_cycle(self)

        return SimResult(
            instructions=self.n,
            cycles=self.cycle,
            frequency_ghz=self.params.frequency_ghz,
            activity=dict(self.activity),
            branches=self.branches_seen,
            mispredicts=self.mispredict_count,
            squashed=self.squashed_count,
            wrong_path_dispatched=self.wrong_path_dispatched,
        )

    # -- pipeline stages ------------------------------------------------------

    def _process_completions(self) -> None:
        events = self.events
        cycle = self.cycle
        while events and events[0][0] <= cycle:
            _, i, gen = heapq.heappop(events)
            if self.gen[i] != gen or not self.in_flight[i]:
                continue  # squashed instance
            self.completed[i] = True
            self.complete_cycle[i] = cycle
            op = self.ops[i]
            dest = _DEST_FILE[op]
            if dest == _DEST_INT:
                self.activity["rf_write_int"] += 1
                self.wb_int_this_cycle += 1
            elif dest == _DEST_FP:
                self.activity["rf_write_fp"] += 1
                self.wb_fp_this_cycle += 1
            if op == OpClass.BRANCH:
                self.branches_unresolved -= 1
            # Wake dependents (bypass: dependents may issue this cycle).
            waiters = self.dependents.pop(i, None)
            if waiters:
                self.activity["iq_wakeup"] += 1
                for j, jgen in waiters:
                    if self.gen[j] != jgen or not self.in_flight[j]:
                        continue
                    self.waiting[j] -= 1
                    if self.waiting[j] == 0 and not self.issued[j]:
                        self.ready_at[j] = cycle
                        heapq.heappush(self.ready_heap, j)
            if self.squash_owner == i:
                self._squash_after(i)

    def _commit(self) -> None:
        width = self.params.config.width
        rob = self.rob
        committed = 0
        while rob and committed < width:
            i = rob[0]
            if not self.completed[i] or self.complete_cycle[i] > self.cycle:
                break
            rob.popleft()
            committed += 1
            self.committed[i] = True
            self.in_flight[i] = False
            self.committed_count += 1
            self.activity["rob_read"] += 1
            self._release(i)
            if self.collector is not None:
                self.collector.on_commit(self, i)

    def _release(self, i: int) -> None:
        """Free the resources held by a committing or squashed instruction."""
        op = self.ops[i]
        dest = _DEST_FILE[op]
        if dest == _DEST_INT:
            self.free_int_regs += 1
        elif dest == _DEST_FP:
            self.free_fp_regs += 1
        if op == OpClass.LOAD or op == OpClass.STORE:
            self.lsq_count -= 1
            if self.speculative[i]:
                self.lsq_spec -= 1
        if self.speculative[i]:
            self.rob_spec -= 1
            if not self.issued[i]:
                self.iq_spec -= 1

    def _issue(self) -> None:
        params = self.params
        width = params.config.width
        heap = self.ready_heap
        cycle = self.cycle
        pools = {
            "ialu": params.int_alus,
            "fp": params.fp_units,
            "mem": params.mem_ports,
        }
        rd_int = params.config.rf_rd_ports
        rd_fp = params.config.rf_rd_ports
        deferred: list[int] = []
        issued = 0
        pops = 0
        max_pops = 4 * width + 4
        while heap and issued < width and pops < max_pops:
            i = heapq.heappop(heap)
            pops += 1
            if not self.in_flight[i] or self.issued[i] or self.waiting[i]:
                continue
            if self.ready_at[i] > cycle:
                deferred.append(i)
                continue
            op = self.ops[i]
            srcs = (1 if self.src1[i] else 0) + (1 if self.src2[i] else 0)
            is_fp = op in _FP_OPS
            # Structural hazards.
            if is_fp:
                if pools["fp"] == 0 or rd_fp < srcs:
                    deferred.append(i)
                    continue
            elif op == OpClass.LOAD or op == OpClass.STORE:
                if pools["mem"] == 0 or rd_int < max(1, srcs):
                    deferred.append(i)
                    continue
                if op == OpClass.LOAD and not self._older_stores_issued(i):
                    deferred.append(i)
                    continue
            else:
                if pools["ialu"] == 0 or rd_int < srcs:
                    deferred.append(i)
                    continue
            # Issue.
            if is_fp:
                pools["fp"] -= 1
                rd_fp -= srcs
                self.rd_ports_fp_used += srcs
            elif op == OpClass.LOAD or op == OpClass.STORE:
                pools["mem"] -= 1
                ports = max(1, srcs)
                rd_int -= ports
                self.rd_ports_int_used += ports
                self.mem_ports_used += 1
            else:
                pools["ialu"] -= 1
                rd_int -= srcs
                self.rd_ports_int_used += srcs
            self._do_issue(i, op, srcs)
            issued += 1
        for i in deferred:
            heapq.heappush(heap, i)

    def _older_stores_issued(self, load_idx: int) -> bool:
        """Loads wait until every older store has issued (address known)."""
        stores = self.unissued_stores
        while stores:
            s = stores[0]
            if self.issued[s] or not self.in_flight[s]:
                heapq.heappop(stores)
                continue
            return s > load_idx
        return True

    def _do_issue(self, i: int, op: int, srcs: int) -> None:
        params = self.params
        cycle = self.cycle
        self.issued[i] = True
        if self.speculative[i]:
            self.iq_spec -= 1
        self.iq_count -= 1
        self.activity["iq_select"] += 1
        self.activity["rf_read_fp" if op in _FP_OPS else "rf_read_int"] += max(
            srcs, 1 if op in (OpClass.LOAD, OpClass.STORE) else srcs
        )
        if op == OpClass.LOAD:
            self.activity["dcache_access"] += 1
            self.activity["lsq_search"] += 1
            result = self.hier.access_data(self.addr[i])
            if not result.l1_hit:
                self.activity["dcache_miss"] += 1
                self.activity["l2_access"] += 1
                if not result.l2_hit:
                    self.activity["l2_miss"] += 1
            latency = result.latency
        elif op == OpClass.STORE:
            self.activity["dcache_access"] += 1
            result = self.hier.access_data(self.addr[i])
            if not result.l1_hit:
                self.activity["dcache_miss"] += 1
                self.activity["l2_access"] += 1
                if not result.l2_hit:
                    self.activity["l2_miss"] += 1
            latency = 1  # retires through the write buffer
        else:
            latency = params.op_latency[op]
            self.activity[
                ("ialu" if op == OpClass.BRANCH else OpClass.name(op)) + "_op"
            ] += 1
        dest = _DEST_FILE[op]
        complete = cycle + latency
        if dest != _DEST_NONE:
            wr_ports = params.config.rf_wr_ports
            while self.wb_counts.get((complete, dest), 0) >= wr_ports:
                complete += 1
            self.wb_counts[(complete, dest)] = (
                self.wb_counts.get((complete, dest), 0) + 1
            )
            self.wb_cycle[i] = complete
        heapq.heappush(self.events, (complete, i, self.gen[i]))
        if self.collector is not None:
            self.collector.on_issue(self, i)
        self.issued_by_class[op] += 1

    # -- fetch / dispatch ------------------------------------------------------

    def _fetch_dispatch(self) -> None:
        params = self.params
        config = params.config
        cycle = self.cycle
        if cycle < self.fetch_stall_until:
            return
        width = config.width
        rob_capacity = config.rob_size
        iq_capacity = config.iq_size
        lsq_capacity = config.lsq_size
        fetched = 0
        while fetched < width and self.fetch_ptr < self.n:
            i = self.fetch_ptr
            op = self.ops[i]
            # Back-pressure checks.
            if len(self.rob) >= rob_capacity or self.iq_count >= iq_capacity:
                break
            if (op == OpClass.LOAD or op == OpClass.STORE) and (
                self.lsq_count >= lsq_capacity
            ):
                break
            dest = _DEST_FILE[op]
            if dest == _DEST_INT and self.free_int_regs == 0:
                break
            if dest == _DEST_FP and self.free_fp_regs == 0:
                break
            if op == OpClass.BRANCH and (
                self.branches_unresolved >= config.branches
            ):
                break
            # Instruction cache.
            block = self.pc[i] // CACHE_BLOCK_BYTES
            if block != self.last_iblock:
                self.activity["icache_access"] += 1
                result = self.hier.access_inst(self.pc[i])
                self.last_iblock = block
                if not result.l1_hit:
                    self.activity["icache_miss"] += 1
                    self.activity["l2_access"] += 1
                    if not result.l2_hit:
                        self.activity["l2_miss"] += 1
                    self.fetch_stall_until = cycle + result.latency
                    break
            stop_after = False
            if op == OpClass.BRANCH:
                stop_after = self._fetch_branch(i)
            self._dispatch(i, op, dest)
            fetched += 1
            self.fetch_ptr += 1
            if stop_after:
                break

    def _fetch_branch(self, i: int) -> bool:
        """Handle prediction for branch ``i``; returns True if the fetch
        group must stop (predicted-taken redirect)."""
        wrong_path = self.squash_owner is not None
        pc = self.pc[i]
        actual = self.taken[i]
        self.activity["gshare_access"] += 1
        self.activity["btb_access"] += 1
        predicted, btb_hit = self.bp.predict(pc)
        if wrong_path:
            # Wrong-path branches neither train nor redirect.
            return bool(predicted and btb_hit)
        self.branches_seen += 1
        mispredict = self.bp.is_mispredict(predicted, btb_hit, actual)
        self.bp.update(pc, actual)
        if mispredict:
            self.mispredict_count += 1
            self.mispredicted[i] = True
            self.squash_owner = i
        return bool(actual if not mispredict else (predicted and btb_hit))

    def _dispatch(self, i: int, op: int, dest: int) -> None:
        wrong_path = self.squash_owner is not None and i != self.squash_owner
        speculative = self.branches_unresolved > 0
        self.gen[i] += 1
        gen = self.gen[i]
        self.in_flight[i] = True
        self.issued[i] = False
        self.completed[i] = False
        self.wrong_path[i] = wrong_path
        self.speculative[i] = speculative
        self.mispredicted[i] = self.mispredicted[i] and not wrong_path

        self.rob.append(i)
        self.iq_count += 1
        self.activity["rob_write"] += 1
        self.activity["iq_write"] += 1
        self.dispatched_count += 1
        if wrong_path:
            self.wrong_path_dispatched += 1
        if speculative:
            self.rob_spec += 1
            self.iq_spec += 1

        if dest == _DEST_INT:
            self.free_int_regs -= 1
        elif dest == _DEST_FP:
            self.free_fp_regs -= 1
        if op == OpClass.LOAD or op == OpClass.STORE:
            self.lsq_count += 1
            self.activity["lsq_write"] += 1
            if speculative:
                self.lsq_spec += 1
            if op == OpClass.STORE:
                heapq.heappush(self.unissued_stores, i)
        if op == OpClass.BRANCH:
            self.branches_unresolved += 1

        waiting = 0
        for dist in (self.src1[i], self.src2[i]):
            if not dist:
                continue
            src = i - dist
            if src < 0 or self.committed[src]:
                continue
            if self.in_flight[src] and self.completed[src]:
                continue
            if not self.in_flight[src]:
                # Source belongs to a squashed, not-yet-refetched range;
                # treat as ready (its value architecturally exists).
                continue
            self.dependents.setdefault(src, []).append((i, gen))
            waiting += 1
        self.waiting[i] = waiting
        if waiting == 0:
            self.ready_at[i] = self.cycle + 1
            heapq.heappush(self.ready_heap, i)
        if self.collector is not None:
            self.collector.on_dispatch(self, i, speculative, wrong_path)

    # -- squash -----------------------------------------------------------------

    def _squash_after(self, branch_idx: int) -> None:
        """Flush every instruction younger than ``branch_idx`` and redirect."""
        rob = self.rob
        while rob and rob[-1] > branch_idx:
            i = rob.pop()
            self.in_flight[i] = False
            self.gen[i] += 1  # invalidate pending events/wakeups
            op = self.ops[i]
            if not self.issued[i]:
                self.iq_count -= 1
            elif not self.completed[i] and _DEST_FILE[op] != _DEST_NONE:
                key = (self.wb_cycle[i], _DEST_FILE[op])
                count = self.wb_counts.get(key, 0)
                if count > 1:
                    self.wb_counts[key] = count - 1
                else:
                    self.wb_counts.pop(key, None)
            if op == OpClass.BRANCH and not self.completed[i]:
                self.branches_unresolved -= 1
            self._release(i)
            self.squashed_count += 1
            if self.collector is not None:
                self.collector.on_squash(self, i)
        self.squash_owner = None
        self.fetch_ptr = branch_idx + 1
        self.fetch_stall_until = self.cycle + self.params.mispredict_penalty
        self.last_iblock = -1


class OccupancyCollector:
    """Cycle-simulator hook recording per-cycle structure usage."""

    def __init__(self, config: MicroarchConfig) -> None:
        self.config = config
        regs = config.rf_size - ARCH_REGS
        self.alu_usage = TemporalHistogram.linear(config.width, config.width + 1)
        self.mem_port_usage = TemporalHistogram.linear(
            max(1, config.width // 2), max(1, config.width // 2) + 1
        )
        self.rob_usage = TemporalHistogram.linear(config.rob_size, 16)
        self.iq_usage = TemporalHistogram.linear(config.iq_size, 10)
        self.lsq_usage = TemporalHistogram.linear(config.lsq_size, 10)
        self.int_reg_usage = TemporalHistogram.linear(regs, 16)
        self.fp_reg_usage = TemporalHistogram.linear(regs, 16)
        self.rd_port_usage = TemporalHistogram.linear(
            2 * config.rf_rd_ports, 2 * config.rf_rd_ports + 1
        )
        self.wr_port_usage = TemporalHistogram.linear(
            2 * config.rf_wr_ports, 2 * config.rf_wr_ports + 1
        )
        self.cycles = 0
        self.rob_spec_sum = 0
        self.iq_spec_sum = 0
        self.lsq_spec_sum = 0
        self.rob_occ_sum = 0
        self.iq_occ_sum = 0
        self.lsq_occ_sum = 0
        self.int_reg_sum = 0
        self.fp_reg_sum = 0
        self.dispatched = 0
        self.dispatched_mem = 0
        self.squashed = 0
        self.squashed_mem = 0
        # Raw per-cycle samples; histogram construction happens once in
        # finish() (building per cycle would dominate simulation time).
        self._samples: dict[str, list[int]] = {
            name: []
            for name in ("alu", "memport", "rob", "iq", "lsq", "intreg",
                         "fpreg", "rdport", "wrport")
        }

    # -- simulator hooks -----------------------------------------------------

    def begin(self, core: object) -> None:  # noqa: D401 - hook
        """Called once before the first cycle."""

    def on_cycle(self, core) -> None:
        self.cycles += 1
        issued = core.issued_by_class
        samples = self._samples
        samples["alu"].append(
            issued[OpClass.IALU] + issued[OpClass.IMUL]
            + issued[OpClass.FALU] + issued[OpClass.FMUL]
            + issued[OpClass.BRANCH]
        )
        samples["memport"].append(core.mem_ports_used)
        rob_count = len(core.rob)
        samples["rob"].append(rob_count)
        samples["iq"].append(core.iq_count)
        samples["lsq"].append(core.lsq_count)
        int_regs = core.int_regs_used
        fp_regs = core.fp_regs_used
        samples["intreg"].append(int_regs)
        samples["fpreg"].append(fp_regs)
        samples["rdport"].append(
            core.rd_ports_int_used + core.rd_ports_fp_used
        )
        samples["wrport"].append(
            core.wb_int_this_cycle + core.wb_fp_this_cycle
        )
        self.rob_spec_sum += core.rob_spec
        self.iq_spec_sum += core.iq_spec
        self.lsq_spec_sum += core.lsq_spec
        self.rob_occ_sum += rob_count
        self.iq_occ_sum += core.iq_count
        self.lsq_occ_sum += core.lsq_count
        self.int_reg_sum += int_regs
        self.fp_reg_sum += fp_regs

    def on_dispatch(self, core, i: int, speculative: bool,
                    wrong_path: bool) -> None:
        self.dispatched += 1
        op = core.ops[i]
        if op == OpClass.LOAD or op == OpClass.STORE:
            self.dispatched_mem += 1

    def on_issue(self, core, i: int) -> None:  # noqa: D401 - hook
        """Per-issue hook (port usage is read per cycle instead)."""

    def on_commit(self, core, i: int) -> None:  # noqa: D401 - hook
        """Per-commit hook."""

    def on_squash(self, core, i: int) -> None:
        self.squashed += 1
        op = core.ops[i]
        if op == OpClass.LOAD or op == OpClass.STORE:
            self.squashed_mem += 1

    def finish(self, core, result: SimResult) -> None:
        """Build the occupancy histograms from the per-cycle samples."""
        targets = {
            "alu": self.alu_usage, "memport": self.mem_port_usage,
            "rob": self.rob_usage, "iq": self.iq_usage,
            "lsq": self.lsq_usage, "intreg": self.int_reg_usage,
            "fpreg": self.fp_reg_usage, "rdport": self.rd_port_usage,
            "wrport": self.wr_port_usage,
        }
        for name, histogram in targets.items():
            histogram.add_many(np.asarray(self._samples[name], dtype=np.int64))

    # -- summaries -------------------------------------------------------------

    def speculative_frac(self, queue: str) -> float:
        occ = {"rob": self.rob_occ_sum, "iq": self.iq_occ_sum,
               "lsq": self.lsq_occ_sum}[queue]
        spec = {"rob": self.rob_spec_sum, "iq": self.iq_spec_sum,
                "lsq": self.lsq_spec_sum}[queue]
        return spec / occ if occ else 0.0

    def misspeculated_frac(self, queue: str) -> float:
        if queue == "lsq":
            return (self.squashed_mem / self.dispatched_mem
                    if self.dispatched_mem else 0.0)
        return self.squashed / self.dispatched if self.dispatched else 0.0
