"""Set-partitioned, vectorised simulation engine.

The scalar engine (:mod:`repro.system.memory_system` driven by
:func:`repro.system.simulator.simulate`) walks the trace one reference at
a time through live cache objects — flexible, but ~30 Python operations
per reference.  This module prices the same run as a handful of numpy
array passes plus a short Python replay that only touches misses, by
exploiting the same per-set independence the paper's MCT does: in a
set-indexed cache, references to different sets never interact except
through *timing* (bus, MSHRs, the retirement window).

The engine is exact, not approximate: for every eligible run its
:class:`~repro.cache.stats.SystemStats` is byte-identical to the scalar
engine's (``as_dict()`` compares equal, and serialises to the same JSON
bytes).  Eligibility is the bufferless hierarchy — see
:func:`vector_supported`; buffered policies keep cross-set
fully-associative state and stay on the scalar reference engine.  Any
power-of-two L1 associativity is eligible.

Pass structure
--------------

1. **L1 + MCT** — the classify-before-fill kernel
   (:func:`repro.core.kernel.l1_pass`): trace-order hit, eviction,
   writeback and MCT-conflict flags over the full trace (warmup
   included — the caches and MCT warm up exactly as in the scalar
   engine; the measured window is sliced afterwards).

2. **L2** — the L1 miss stream, stably sorted by L2 set index, priced
   with the exact Mattson stack distances of :mod:`repro.mrc.stack`
   (set-LRU of associativity A hits ⇔ stack distance ≤ A).

3. **Timing replay** — the cross-set sequence (bus, MSHRs, ROB window)
   is inherently serial in trace order, so it is replayed in
   trace order over the *measured* window only — but only misses take
   the slow path; hit runs with an empty pipeline fast-forward through
   one ``np.add.accumulate`` (sequential by definition, so the float
   result is bit-identical to repeated ``+=``).

4. **Emission** — heartbeats and ``sim_tick`` fault-site hits are
   walked over the same boundary schedule the scalar measured loop
   uses (:func:`repro.system.simulator.measure_boundaries`), with
   counter snapshots read off prefix sums, so ``events.jsonl`` carries
   the same events in the same order and ``obs.validate --reconcile``
   holds for either engine.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import SystemStats, TimingStats
from repro.core.kernel import l1_pass
from repro.mrc.stack import set_lru_flags
from repro.obs.heartbeat import sim_ticker
from repro.system.config import MachineConfig, PAPER_MACHINE, TimingConfig
from repro.system.policies import AssistConfig
from repro.system.simulator import measure_boundaries
from repro.workloads.trace import Trace


def vector_ineligibility(
    policy: AssistConfig, machine: MachineConfig
) -> Optional[str]:
    """Why this cell cannot run on the vector engine, or ``None``.

    The one remaining disqualifier is an assist buffer: it is fully
    associative *across* sets (probes, swaps, bypasses and prefetches
    couple the sets together), so its per-reference state is inherently
    sequential.  The returned reason names the enabled buffer features,
    so a caller that *demanded* the vector engine learns which knob to
    blame rather than a generic refusal.  Cache geometry never
    disqualifies: :class:`~repro.cache.geometry.CacheGeometry` already
    enforces power-of-two sizes and associativity at construction, and
    any power-of-two L1 associativity is vectorised
    (:func:`repro.core.kernel.l1_pass`).
    """
    if policy.buffer_entries > 0:
        features = []
        if policy.victim_fills:
            features.append("victim fills")
        if policy.prefetch:
            features.append("next-line prefetch")
        if policy.exclusion is not None:
            features.append(f"{policy.exclusion} exclusion")
        detail = " + ".join(features) if features else "a raw assist buffer"
        return (
            f"policy {policy.name!r} drives {detail} through its "
            f"{policy.buffer_entries}-entry assist buffer, whose "
            "fully-associative cross-set state must be replayed "
            "per reference"
        )
    return None


def vector_supported(policy: AssistConfig, machine: MachineConfig) -> bool:
    """True when the set-partitioned engine can reproduce this run exactly.

    The vector engine models the bufferless hierarchy at any
    power-of-two L1 associativity; buffered policies stay on the scalar
    reference engine (see :func:`vector_ineligibility` for the reason
    text).  ``AssistConfig`` validation guarantees a policy with
    ``buffer_entries == 0`` has no victim/prefetch/exclusion behaviour.
    """
    return vector_ineligibility(policy, machine) is None


# ----------------------------------------------------------------------
# Pass 2: the set-associative L2 over the L1 miss stream
# ----------------------------------------------------------------------
def _l2_pass(
    blocks: "np.ndarray", l1_miss: "np.ndarray", geometry: CacheGeometry
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-reference (L2 hit, L2 eviction) flags, in trace order.

    Both arrays are full-trace sized but only ever True at L1-miss
    positions (the only references that reach the L2).  The set-LRU
    algebra lives in :func:`repro.mrc.stack.set_lru_flags`; this
    wrapper sorts the miss stream by L2 set and scatters the flags back
    through both permutations (sort order, then miss positions).
    """
    n = int(len(blocks))
    stream = np.flatnonzero(l1_miss)
    hit_at = np.zeros(n, dtype=bool)
    evict_at = np.zeros(n, dtype=bool)
    k = int(len(stream))
    if k == 0:
        return hit_at, evict_at
    mb = blocks[stream]
    sets = mb & (geometry.num_sets - 1)
    order = np.argsort(sets, kind="stable")
    hit_s, evict_s = set_lru_flags(mb[order], sets[order], geometry.assoc)

    hit_m = np.empty(k, dtype=bool)
    evict_m = np.empty(k, dtype=bool)
    hit_m[order] = hit_s
    evict_m[order] = evict_s
    hit_at[stream] = hit_m
    evict_at[stream] = evict_m
    return hit_at, evict_at


# ----------------------------------------------------------------------
# Pass 3: cross-set timing replay (measured window only)
# ----------------------------------------------------------------------
def _replay_timing(
    gaps: "np.ndarray",
    l1_miss: "np.ndarray",
    l2_hit: "np.ndarray",
    config: TimingConfig,
) -> TimingStats:
    """Replay :class:`~repro.system.timing.TimingModel` over the window.

    Bit-identical to driving the scalar model from a freshly reset
    measurement: same issue clock, same bus-then-MSHR acquisition order
    on misses, same ROB-window stall rule, same FIFO drain at the end.
    Only misses and references with operations in flight take the
    per-reference Python path; hit runs over an empty pipeline are
    fast-forwarded with one sequential ``np.add.accumulate`` (whose
    left-to-right definition reproduces repeated ``+=`` exactly —
    a plain ``sum`` would not).
    """
    m = int(len(gaps))
    issued = gaps.astype(np.int64) + 1
    incs_arr = issued.astype(np.float64) / config.issue_rate
    incs: List[float] = incs_arr.tolist()
    issued_list: List[int] = issued.tolist()
    issued_cum = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(issued))
    )
    latency = np.where(
        l2_hit, float(config.l2_latency), float(config.memory_latency)
    )
    latency_list: List[float] = latency.tolist()
    miss_list: List[bool] = l1_miss.tolist()
    # next_miss[i]: first miss position >= i (m when none) — lets the
    # empty-pipeline fast path jump whole hit runs at once.
    miss_idx = np.flatnonzero(l1_miss)
    next_miss = np.full(m + 1, m, dtype=np.int64)
    if len(miss_idx):
        ranks = np.searchsorted(miss_idx, np.arange(m), side="left")
        found = ranks < len(miss_idx)
        next_miss[:m][found] = miss_idx[ranks[found]]
    next_miss_list: List[int] = next_miss.tolist()

    stats = TimingStats()
    clock = 0.0
    instructions = 0
    stall = 0.0
    contention = 0.0
    bus_free = 0.0
    pending: Deque[Tuple[int, float]] = deque()
    window = config.rob_window
    mshrs = config.mshrs
    bus_cycles = config.bus_transfer_cycles
    i = 0
    while i < m:
        if not pending:
            nxt = next_miss_list[i]
            if nxt > i:
                # Hit run with nothing in flight: the scalar model only
                # advances the clock here, one += per reference.
                if nxt - i >= 32:
                    seg = np.concatenate(([clock], incs_arr[i:nxt]))
                    clock = float(np.add.accumulate(seg)[-1])
                else:
                    for j in range(i, nxt):
                        clock += incs[j]
                instructions += int(issued_cum[nxt] - issued_cum[i])
                i = nxt
                continue
        # step(): advance past the gap plus this reference, then retire.
        clock += incs[i]
        instructions += issued_list[i]
        while pending:
            issue_instr, completion = pending[0]
            if completion <= clock:
                pending.popleft()
            elif instructions - issue_instr > window:
                stall += completion - clock
                clock = completion
                pending.popleft()
            else:
                break
        if miss_list[i]:
            # _fetch_line: the bus is acquired at the current clock ...
            start = bus_free if bus_free > clock else clock
            wait = start - clock
            if wait > 0:
                contention += wait
            bus_free = start + bus_cycles
            # ... then issue_miss acquires an MSHR (stalling to the
            # earliest completion when all are busy, then sweeping every
            # completed operation) before the transfer begins.
            if len(pending) >= mshrs:
                earliest = min(entry[1] for entry in pending)
                if earliest > clock:
                    stall += earliest - clock
                    clock = earliest
                still: Deque[Tuple[int, float]] = deque()
                for entry in pending:
                    if entry[1] > clock:
                        still.append(entry)
                pending = still
            begin = start if start > clock else clock
            pending.append((instructions, begin + latency_list[i]))
        i += 1
    # finish(): FIFO-drain whatever is still in flight.
    while pending:
        _, completion = pending.popleft()
        if completion > clock:
            stall += completion - clock
            clock = completion
    stats.cycles = clock
    stats.instructions = instructions
    stats.memory_refs = m
    stats.stall_cycles = stall
    stats.contention_cycles = contention
    return stats


# ----------------------------------------------------------------------
# Pass 4: counter assembly + emission walk
# ----------------------------------------------------------------------
def _counter_prefixes(masks: Dict[str, "np.ndarray"]) -> Dict[str, "np.ndarray"]:
    """``pre[name][p]`` = count of True among the first ``p`` refs."""
    return {
        name: np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(mask.astype(np.int64)))
        )
        for name, mask in masks.items()
    }


def _stats_at(prefixes: Dict[str, "np.ndarray"], p: int) -> SystemStats:
    """The scalar engine's live counters after ``p`` measured refs.

    Timing and buffer stats stay zero: the scalar ``MemorySystem`` only
    publishes timing at ``finish()`` (mid-run heartbeat payloads carry
    the default-constructed zeros), and the vector engine only runs
    bufferless policies.
    """
    stats = SystemStats()
    l1 = stats.l1
    l1.accesses = p
    l1.hits = int(prefixes["l1_hit"][p])
    l1.misses = p - l1.hits
    l1.fills = l1.misses
    l1.evictions = int(prefixes["l1_evict"][p])
    l1.writebacks = int(prefixes["l1_wb"][p])
    l2 = stats.l2
    l2.accesses = l1.misses
    l2.hits = int(prefixes["l2_hit"][p])
    l2.misses = l2.accesses - l2.hits
    l2.fills = l2.misses
    l2.evictions = int(prefixes["l2_evict"][p])
    stats.memory_accesses = l2.misses
    stats.conflict_misses_predicted = int(prefixes["conflict"][p])
    stats.capacity_misses_predicted = (
        l1.misses - stats.conflict_misses_predicted
    )
    return stats


def _heartbeat_fields(stats: SystemStats) -> Dict[str, float]:
    """Mirror of :meth:`MemorySystem.heartbeat_snapshot`, same formulas."""
    classified = (
        stats.conflict_misses_predicted + stats.capacity_misses_predicted
    )
    return {
        "l1_hit_rate": round(stats.l1.hit_rate, 4),
        "buffer_hit_rate": round(stats.buffer.hit_rate_of_probes, 4),
        "total_hit_rate": round(stats.total_hit_rate, 4),
        "mct_conflict_share": round(
            100.0 * stats.conflict_misses_predicted / classified, 4
        )
        if classified
        else 0.0,
    }


def simulate_vector(
    trace: Trace,
    policy: AssistConfig,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
) -> SystemStats:
    """Vectorised run of one trace: byte-identical to the scalar engine.

    Callers normally go through :func:`repro.system.simulator.simulate`
    (whose ``engine="auto"`` falls back to the scalar engine for
    ineligible cells); this function requires an eligible policy and
    raises with the :func:`vector_ineligibility` reason otherwise.
    """
    n = len(trace)
    if not 0 <= warmup < n:
        raise ValueError(
            f"warmup {warmup} must lie in [0, {n}) so at least one "
            f"of the trace's {n} references is measured"
        )
    reason = vector_ineligibility(policy, machine)
    if reason is not None:
        raise ValueError(
            f"not vector-eligible: {reason} — use the scalar engine"
        )
    # The clock starts before the first pass, so sim_end.wall_s and the
    # heartbeat rates time the whole simulation, not just the emission.
    ticker = sim_ticker(
        bench=trace.name, policy=policy.name, refs=n, warmup=warmup
    )
    if ticker is not None:
        ticker.begin()

    geometry = machine.l1
    blocks = trace.addresses >> geometry.offset_bits
    writes = np.logical_not(trace.is_load)
    l1_hit, l1_evict, l1_wb, conflict = l1_pass(
        blocks, geometry, policy.mct_tag_bits, writes
    )
    l1_miss = np.logical_not(l1_hit)
    l2_hit_at, l2_evict_at = _l2_pass(blocks, l1_miss, machine.l2)

    m = n - warmup
    masks: Dict[str, "np.ndarray"] = {
        "l1_hit": l1_hit[warmup:],
        "l1_evict": l1_evict[warmup:],
        "l1_wb": l1_wb[warmup:],
        "l2_hit": l2_hit_at[warmup:],
        "l2_evict": l2_evict_at[warmup:],
        "conflict": conflict[warmup:],
    }
    timing = _replay_timing(
        trace.gaps[warmup:], l1_miss[warmup:], l2_hit_at[warmup:],
        machine.timing,
    )

    tick_every = faults.sim_tick_every()
    heartbeat_every = (
        ticker.every if ticker is not None and ticker.every > 0 else 0
    )

    prefixes = _counter_prefixes(masks)
    stats = _stats_at(prefixes, m)
    stats.timing = timing

    # Walk the same boundary schedule as the scalar measured loop so the
    # event stream (and any armed sim_tick fault — kills included) is
    # indistinguishable from a scalar run.
    if heartbeat_every or tick_every:
        for stop, fire, beat in measure_boundaries(
            m, heartbeat_every, tick_every
        ):
            if fire:
                faults.fire("sim_tick")
            if beat:
                assert ticker is not None
                snapshot = _stats_at(prefixes, stop)
                ticker.tick(
                    stop, snapshot.as_dict(), **_heartbeat_fields(snapshot)
                )
    if ticker is not None:
        ticker.finish(m, stats.as_dict())

    from repro.harness.invariants import maybe_check_system

    maybe_check_system(stats, issue_rate=machine.timing.issue_rate)
    return stats
