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
bytes).  Eligibility (see :func:`vector_ineligibility`) is any
power-of-two L1 associativity with either no assist buffer or a
*swap-always victim cache* (victim fills, optionally filtered, where
every buffer hit swaps back into L1), and on a direct-mapped L1 any
victim cache, whatever its swap rule.  A swap-always buffer never
changes L1 residency — a swap installs the missed line and evicts the
LRU line exactly as a fill from L2 would — so L1 hits, evictions and
MCT labels are those of the bufferless pass.  A buffer hit served
without a swap leaves L1 and the MCT untouched while the bufferless pass
installed the missed line, so that one set leaves the kernel's pass
until a fill evicts the same block the kernel's does; on a direct-mapped
L1 the engine walks only those sets reference by reference.  Policies
that prefetch or bypass L1 perturb residency everywhere and stay on the
scalar reference engine, as do no-swap policies on a set-associative L1.

Pass structure
--------------

1. **L1 + MCT** — the classify-before-fill kernel
   (:func:`repro.core.kernel.l1_pass`): trace-order hit, eviction,
   writeback and MCT-conflict flags over the full trace (warmup
   included — the caches and MCT warm up exactly as in the scalar
   engine; the measured window is sliced afterwards).  A buffered run
   also asks for each victim's fill position, and a no-swap run for
   each reference's next reference in its set.

2. **Assist buffer** (buffered runs only) — a Python loop over the L1
   misses alone, in trace order, drives a real
   :class:`~repro.buffers.assist.AssistBuffer`: a probe hit swaps, a
   probe miss may victim-fill.  Each line's conflict bit is its MCT
   label when filled from L2 or the bit it carried when filled by a
   swap; a victim is dirty if the kernel saw a write during its
   residency or it carried a dirty bit in.  A probe hit the no-swap
   rule serves marks its set *diverged*: the same loop then walks that
   set's references (linked by the kernel's ``next_in_set``, merged
   with the miss stream by a heap) over the set's own resident block,
   MCT entry and line bits, until the set *rejoins* at a fill that
   evicts the block the kernel's pass evicts there.  The run's L1
   flags are the kernel's, overwritten where the walk visited.  Buffer
   contents carry across warmup like the caches'.

3. **L2** — the full-miss stream (L1 misses the buffer did not serve),
   stably sorted by L2 set index, priced with the exact Mattson stack
   distances of :mod:`repro.mrc.stack` (set-LRU of associativity A hits
   ⇔ stack distance ≤ A).

4. **Timing replay** — the cross-set sequence (bus, MSHRs, bank and
   buffer ports, ROB window) is inherently serial in trace order, so it
   is replayed in trace order over the *measured* window only — but
   only misses take the slow path; hit runs with an empty pipeline
   fast-forward through one ``np.add.accumulate`` (sequential by
   definition, so the float result is bit-identical to repeated
   ``+=``).

5. **Emission** — heartbeats and ``sim_tick`` fault-site hits are
   walked over the same boundary schedule the scalar measured loop
   uses (:func:`repro.system.simulator.measure_boundaries`), with
   counter snapshots read off prefix sums, so ``events.jsonl`` carries
   the same events in the same order and ``obs.validate --reconcile``
   holds for either engine.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import faults
from repro.buffers.assist import AssistBuffer, BufferEntry
from repro.cache.geometry import CacheGeometry
from repro.cache.line import BufferRole
from repro.cache.stats import SystemStats, TimingStats
from repro.core.filters import ConflictFilter
from repro.core.kernel import L1Flags, l1_pass
from repro.mrc.stack import set_lru_flags
from repro.obs.heartbeat import sim_ticker
from repro.system.config import MachineConfig, PAPER_MACHINE, TimingConfig
from repro.system.policies import AssistConfig
from repro.system.simulator import measure_boundaries
from repro.workloads.trace import Trace


def _serves_without_swap(policy: AssistConfig) -> bool:
    """True when some victim-buffer hit of ``policy`` leaves L1 alone."""
    return policy.victim_fills and (
        not policy.victim_swap or policy.victim_no_swap_filter is not None
    )


def vector_ineligibility(
    policy: AssistConfig, machine: MachineConfig
) -> Optional[str]:
    """Why this cell cannot run on the vector engine, or ``None``.

    The engine runs every policy without an assist buffer, on any
    power-of-two L1 (:func:`repro.core.kernel.l1_pass`), and every victim
    cache: victim fills with or without a fill filter, under any swap
    rule.  A victim cache whose every hit swaps back into L1 never
    changes L1 residency, on any L1.  One that serves some hits without
    a swap (``victim_swap=False`` or a no-swap filter) knocks sets off
    the kernel's pass; on a direct-mapped L1 such a set rejoins the
    kernel at its first fill that evicts the kernel's block, but on a
    set-associative L1 rejoining would need the kernel's LRU stack, so
    there the associativity disqualifies.  A buffer that prefetches or
    bypasses L1 decides per reference what L1 holds, so its
    fully-associative cross-set state must be replayed by the scalar
    engine.  The returned reason names each such feature, so a caller
    that *demanded* the vector engine learns which knob to blame rather
    than a generic refusal.
    """
    if not policy.uses_buffer:
        return None
    features = []
    if policy.prefetch:
        features.append("next-line prefetch")
    if policy.exclusion is not None:
        features.append(f"{policy.exclusion.value} exclusion")
    if not features and not policy.victim_fills:
        features.append("a raw assist buffer")
    perturbs_residency = bool(features)
    set_assoc_no_swap = _serves_without_swap(policy) and machine.l1.assoc > 1
    if set_assoc_no_swap:
        if not policy.victim_swap:
            features.append("victim hits served without a swap (victim_swap=False)")
        elif policy.victim_no_swap_filter is not None:
            features.append(f"an {policy.victim_no_swap_filter.value} no-swap filter")
    if not features:
        return None
    reason = (
        f"policy {policy.name!r} drives {' + '.join(features)} through "
        f"its {policy.buffer_entries}-entry assist buffer"
    )
    if perturbs_residency:
        reason += (
            ", which changes L1 residency, so its fully-associative "
            "cross-set state must be replayed per reference"
        )
    if set_assoc_no_swap:
        reason += (
            f"; on a {machine.l1.assoc}-way L1 a set that a no-swap hit "
            "knocks off the kernel's pass could only rejoin it through the "
            "kernel's LRU stack, so it must be replayed per reference"
        )
    return reason


def vector_supported(policy: AssistConfig, machine: MachineConfig) -> bool:
    """True when the set-partitioned engine can reproduce this run exactly.

    See :func:`vector_ineligibility` for the rule and the reason text.
    """
    return vector_ineligibility(policy, machine) is None


# ----------------------------------------------------------------------
# Pass 2: the assist buffer over the L1 miss stream (buffered runs)
# ----------------------------------------------------------------------
#: What a measured-window L1 miss does in the timing replay
#: (:func:`_replay_timing`), as :func:`_buffer_stage` encodes it.
_MISS = 0  # full miss: bus, then MSHR
_MISS_FILL = 1  # full miss whose L1 victim then fills the buffer
_SERVE = 2  # buffer hit served without a swap: buffer read only
_SWAP = 3  # _SWAP + b: buffer hit, buffer read, then swap through bank b

#: Bits of a walked reference's code (:attr:`_BufferReplay.walked`);
#: a reference the walk never visited keeps code 0 and the kernel's flags.
_WALKED = 1
_W_MISS = 2  # L1 miss
_W_EVICT = 4  # L1 eviction
_W_WB = 8  # L1 writeback
_W_CONFLICT = 16  # the set's own MCT called the miss a conflict
_W_HIT = 32  # buffer hit
_W_SERVED = 64  # ... served without a swap
_W_FILL = 128  # buffer fill
_W_BUFFER_EVICT = 256  # ... that pushed the buffer's LRU entry out

#: Window mask name -> walk code bit (``l1_hit`` is the inverse of _W_MISS).
_WALK_BITS = (
    ("l1_evict", _W_EVICT),
    ("l1_wb", _W_WB),
    ("conflict", _W_CONFLICT),
    ("buffer_hit", _W_HIT),
    ("buffer_served", _W_SERVED),
    ("buffer_fill", _W_FILL),
    ("buffer_evict", _W_BUFFER_EVICT),
)


class _BufferReplay(NamedTuple):
    """Outcomes of :func:`_buffer_pass`.

    The first four are per kernel miss, in miss order, and hold only the
    misses handled on the kernel's pass; ``walked`` (no-swap policies
    only) holds one code per trace position for the references of sets
    walked off it.
    """

    hit: "np.ndarray"  # the probe hit, and the line swapped into L1
    fill: "np.ndarray"  # the L1 victim filled the buffer (probe missed)
    evict: "np.ndarray"  # that fill pushed the buffer's LRU entry out
    writeback: "np.ndarray"  # the L1 victim was dirty
    walked: Optional[memoryview]  # of uint16 codes


#: Misses converted to Python lists at a time by :func:`_buffer_pass`.
_CHUNK = 8192


def _filter_table(
    filt: Optional[ConflictFilter], default: bool
) -> List[bool]:
    """``table[2 * new_is_conflict + evicted_conflict_bit]``: the filter's
    verdict, or ``default`` for every event when there is no filter."""
    return [
        default
        if filt is None
        else filt.matches(new_is_conflict=new, evicted_conflict_bit=old)
        for new in (False, True)
        for old in (False, True)
    ]


def _buffer_pass(
    policy: AssistConfig,
    geometry: CacheGeometry,
    miss_pos: "np.ndarray",
    blocks: "np.ndarray",
    stores: "np.ndarray",
    conflict: "np.ndarray",
    victim: "np.ndarray",
    kernel_wb: "np.ndarray",
    trace_blocks: "np.ndarray",
    writes: "np.ndarray",
    next_in_set: "Optional[np.ndarray]",
) -> _BufferReplay:
    """Replay the victim buffer over the L1 misses.

    ``miss_pos`` through ``kernel_wb`` are miss-indexed: the position,
    missing block, whether it is a store, its MCT label, the miss index
    of the fill that installed the line it evicts (``-1`` when it evicts
    nothing) and the kernel's writeback flag; the last three are
    trace-indexed.  Mirrors :meth:`MemorySystem._victim_hit` and
    :meth:`MemorySystem._maybe_victim_fill` on the same buffer class.
    The miss-indexed inputs become Python lists one chunk at a time, and
    the walk reads single references with ``ndarray.item``, so the
    loop's memory stays near that of the numpy arrays it reads.

    A buffer hit the no-swap rule serves leaves L1 and the MCT alone,
    while the kernel's pass installed the missed line: that set has
    *diverged*.  Its references, linked by ``next_in_set``, are then
    walked one by one in trace order (a heap merges them with the miss
    stream) over the set's own resident block, MCT entry and the line's
    conflict and dirty bits.  The set *rejoins* the kernel's pass at its
    first fill that lands on a kernel miss evicting the same block:
    resident line and MCT entry are the kernel's again from there on.
    Without ``next_in_set`` (a swap-always policy) no set diverges.
    """
    k = len(blocks)
    buffer = AssistBuffer(entries=policy.buffer_entries)
    peek, remove, insert, touch = (
        buffer.peek, buffer.remove, buffer.insert, buffer.touch
    )
    victim_role = BufferRole.VICTIM
    allowed = _filter_table(policy.victim_fill_filter, True)
    swap = [
        policy.victim_swap and not serve
        for serve in _filter_table(policy.victim_no_swap_filter, False)
    ]
    victim_blocks = blocks[np.maximum(victim, 0)]
    # Per fill: the line's conflict bit, and a dirty bit it carried in
    # from the buffer (a swap) that the kernel's write scan cannot see.
    line_bit = [False] * k
    carried_dirty = [False] * k
    hit = bytearray(k)
    fill = bytearray(k)
    evict = bytearray(k)
    writeback = bytearray(k)

    # Walk state: one pending position per diverged set with references
    # left, and per set its own resident block, MCT entry (-1 = invalid)
    # and line bits.
    walked = memoryview(b"")
    pending: List[int] = []
    num_sets = geometry.num_sets
    set_mask = num_sets - 1
    index_bits = geometry.index_bits
    tag_bits = policy.mct_tag_bits
    tag_mask = -1 if tag_bits is None else (1 << tag_bits) - 1
    diverged = [False] * num_sets
    own_block = [-1] * num_sets
    own_mct = [-1] * num_sets
    own_bit = [False] * num_sets
    own_dirty = [False] * num_sets
    if next_in_set is not None:
        walked = memoryview(bytearray(2 * len(trace_blocks))).cast("H")
        block_at, write_at, next_at = (
            trace_blocks.item, writes.item, next_in_set.item
        )
        miss_block_at, victim_at = blocks.item, victim.item

    def walk(pos: int, j: int, kernel_victim: int) -> None:
        """Replay reference ``pos`` of a diverged set; ``j`` is its miss
        index when the kernel missed there evicting ``kernel_victim``
        (``-1`` for nothing), else ``-1``."""
        block = block_at(pos)
        s = block & set_mask
        resident = own_block[s]
        if block == resident:
            walked[pos] = _WALKED
            if write_at(pos):
                own_dirty[s] = True
        else:
            store = write_at(pos)
            new = own_mct[s] == ((block >> index_bits) & tag_mask)
            old = own_bit[s]
            code = _WALKED | _W_MISS | (_W_CONFLICT if new else 0)
            entry = peek(block)
            if entry is not None and store:
                entry.dirty = True
            if entry is not None and not swap[2 * new + old]:
                touch(block)
                walked[pos] = code | _W_HIT | _W_SERVED
            else:
                if entry is not None:
                    code |= _W_HIT
                    remove(block)
                    bit, dirty = entry.conflict_bit, entry.dirty
                    if resident >= 0:
                        insert(BufferEntry(resident, victim_role, old, own_dirty[s]))
                else:
                    bit, dirty = new, store
                    if resident >= 0 and allowed[2 * new + old]:
                        code |= _W_FILL
                        if insert(
                            BufferEntry(resident, victim_role, old, own_dirty[s])
                        ) is not None:
                            code |= _W_BUFFER_EVICT
                if resident >= 0:
                    code |= _W_EVICT
                    if own_dirty[s]:
                        code |= _W_WB
                    own_mct[s] = (resident >> index_bits) & tag_mask
                walked[pos] = code
                if j >= 0 and kernel_victim == resident:
                    # Same fill, same victim: the kernel's pass again.
                    diverged[s] = False
                    line_bit[j] = bit
                    carried_dirty[j] = dirty
                    return
                own_block[s] = block
                own_bit[s] = bit
                own_dirty[s] = dirty
        nxt = next_at(pos)
        if nxt >= 0:
            heappush(pending, nxt)

    for c0 in range(0, k, _CHUNK):
        c1 = min(c0 + _CHUNK, k)
        chunk_pos: List[int] = miss_pos[c0:c1].tolist()
        chunk_blocks: List[int] = blocks[c0:c1].tolist()
        chunk_stores: List[bool] = stores[c0:c1].tolist()
        chunk_conflict: List[bool] = conflict[c0:c1].tolist()
        chunk_victim: List[int] = victim[c0:c1].tolist()
        chunk_vblocks: List[int] = victim_blocks[c0:c1].tolist()
        chunk_wb: List[bool] = kernel_wb[c0:c1].tolist()
        for c in range(c1 - c0):
            j = c0 + c
            v = chunk_victim[c]
            block = chunk_blocks[c]
            if pending:
                pos = chunk_pos[c]
                while pending and pending[0] < pos:
                    walk(heappop(pending), -1, -1)
                if diverged[block & set_mask]:
                    heappop(pending)
                    walk(pos, j, chunk_vblocks[c] if v >= 0 else -1)
                    continue
            new = chunk_conflict[c]
            old = line_bit[v] if v >= 0 else False
            entry = peek(block)
            if entry is not None and not swap[2 * new + old]:
                # Diverge: the walk starts from the kernel's state here.
                s = block & set_mask
                diverged[s] = True
                own_block[s] = chunk_vblocks[c] if v >= 0 else -1
                own_bit[s] = old
                own_dirty[s] = v >= 0 and (chunk_wb[c] or carried_dirty[v])
                # The MCT holds the victim of the set's previous fill.
                u = victim_at(v) if v >= 0 else -1
                own_mct[s] = (
                    (miss_block_at(u) >> index_bits) & tag_mask if u >= 0 else -1
                )
                walk(chunk_pos[c], j, -1)
                continue
            dirty = False
            if v >= 0:
                dirty = chunk_wb[c] or carried_dirty[v]
                if dirty:
                    writeback[j] = 1
            if entry is not None:
                hit[j] = 1
                if chunk_stores[c]:
                    entry.dirty = True
                remove(block)
                line_bit[j] = entry.conflict_bit
                carried_dirty[j] = entry.dirty
                if v >= 0:
                    insert(BufferEntry(chunk_vblocks[c], victim_role, old, dirty))
            else:
                line_bit[j] = new
                if v >= 0 and allowed[2 * new + old]:
                    fill[j] = 1
                    if insert(
                        BufferEntry(chunk_vblocks[c], victim_role, old, dirty)
                    ) is not None:
                        evict[j] = 1
    while pending:
        walk(heappop(pending), -1, -1)
    return _BufferReplay(
        *(np.frombuffer(flags, dtype=np.bool_) for flags in (hit, fill, evict, writeback)),
        walked if next_in_set is not None else None,
    )


def _buffer_stage(
    policy: AssistConfig,
    machine: MachineConfig,
    blocks: "np.ndarray",
    writes: "np.ndarray",
    flags: L1Flags,
    masks: Dict[str, "np.ndarray"],
    warmup: int,
) -> Tuple["np.ndarray", "np.ndarray", List[int]]:
    """Run :func:`_buffer_pass` over the kernel's L1 misses.

    Overwrites the measured window's ``masks`` (the kernel's flags) with
    the run's own: the walk's L1 flags where it visited, the L1
    writebacks, and buffer hit/fill/evict (plus served-without-swap for
    a no-swap policy).  Returns the run's L1 miss and full-miss (L1 misses the
    buffer did not serve) masks over the whole trace, and each window
    miss's timing event (``_MISS``, ``_MISS_FILL``, ``_SERVE`` or
    ``_SWAP + bank``).  Only miss-indexed arrays are built on the
    kernel's pass: the buffer never sees an L1 hit.
    """
    l1_miss = np.logical_not(flags.hit)
    miss_pos = np.flatnonzero(l1_miss)
    assert flags.victim_fill is not None
    fill_pos = flags.victim_fill[miss_pos]
    victim = np.where(fill_pos >= 0, np.searchsorted(miss_pos, fill_pos), -1)
    del fill_pos
    replay = _buffer_pass(
        policy,
        machine.l1,
        miss_pos,
        blocks[miss_pos],
        writes[miss_pos],
        flags.conflict[miss_pos],
        victim,
        flags.writeback[miss_pos],
        blocks,
        writes,
        flags.next_in_set,
    )
    del victim
    full_miss = l1_miss.copy()
    full_miss[miss_pos[replay.hit]] = False
    measured = miss_pos >= warmup
    window_pos = miss_pos[measured] - warmup
    m = len(l1_miss) - warmup
    for name, per_miss in (
        ("l1_wb", replay.writeback),
        ("buffer_hit", replay.hit),
        ("buffer_fill", replay.fill),
        ("buffer_evict", replay.evict),
    ):
        mask = np.zeros(m, dtype=bool)
        mask[window_pos] = per_miss[measured]
        masks[name] = mask
    del miss_pos, measured, window_pos
    if replay.walked is not None:
        codes = np.frombuffer(replay.walked, dtype=np.uint16)
        visited = codes != 0
        l1_miss = np.where(visited, (codes & _W_MISS) != 0, l1_miss)
        full_miss = np.where(
            visited, (codes & (_W_MISS | _W_HIT)) == _W_MISS, full_miss
        )
        window = codes[warmup:]
        seen = visited[warmup:]
        masks["l1_hit"] = np.logical_not(l1_miss[warmup:])
        masks["buffer_served"] = np.zeros(m, dtype=bool)
        for name, bit in _WALK_BITS:
            masks[name] = np.where(seen, (window & bit) != 0, masks[name])
        del codes, visited, window, seen
    window_miss = np.flatnonzero(l1_miss[warmup:])
    events = masks["buffer_fill"][window_miss].astype(np.int64) * _MISS_FILL
    swapped = masks["buffer_hit"][window_miss]
    if "buffer_served" in masks:
        served = masks["buffer_served"][window_miss]
        events[served] = _SERVE
        swapped &= ~served
    events[swapped] = _SWAP + (
        (blocks[warmup + window_miss[swapped]] & (machine.l1.num_sets - 1))
        % machine.timing.n_banks
    )
    return l1_miss, full_miss, events.tolist()


# ----------------------------------------------------------------------
# Pass 3: the set-associative L2 over the full-miss stream
# ----------------------------------------------------------------------
def _l2_pass(
    blocks: "np.ndarray", full_miss: "np.ndarray", geometry: CacheGeometry
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-reference (L2 hit, L2 eviction) flags, in trace order.

    Both arrays are full-trace sized but only ever True at full-miss
    positions: the L1 misses the assist buffer did not serve, the only
    references that reach the L2.  The set-LRU algebra lives in
    :func:`repro.mrc.stack.set_lru_flags`; this wrapper sorts the miss
    stream by L2 set and scatters the flags back through both
    permutations (sort order, then miss positions).
    """
    n = int(len(blocks))
    stream = np.flatnonzero(full_miss)
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
# Pass 4: cross-set timing replay (measured window only)
# ----------------------------------------------------------------------
def _replay_timing(
    gaps: "np.ndarray",
    l1_miss: "np.ndarray",
    l2_hit: "np.ndarray",
    config: TimingConfig,
    events: Optional[List[int]] = None,
) -> TimingStats:
    """Replay :class:`~repro.system.timing.TimingModel` over the window.

    Bit-identical to driving the scalar model from a freshly reset
    measurement: same issue clock, same bus-then-MSHR acquisition order
    on full misses, same bank and buffer-port occupancy on buffer hits,
    swaps and victim fills, same ROB-window stall rule, same FIFO drain
    at the end.  ``events`` gives each window miss's ``_MISS`` /
    ``_MISS_FILL`` / ``_SERVE`` / ``_SWAP + bank`` event, in miss order
    (without it every miss is a plain ``_MISS``).  Only misses and
    references with operations in flight take the per-reference Python
    path; hit runs over an empty pipeline are
    fast-forwarded with one sequential ``np.add.accumulate`` (whose
    left-to-right definition reproduces repeated ``+=`` exactly — a
    plain ``sum`` would not).
    """
    m = int(len(gaps))
    issued = gaps.astype(np.int64) + 1
    incs_arr = issued.astype(np.float64) / config.issue_rate
    # The clock increment depends only on the issue count, so a table of
    # the distinct counts' increments stands in for a per-reference
    # float list.
    issued_list: List[int] = issued.tolist()
    distinct = np.unique(issued)
    incs: Dict[int, float] = dict(
        zip(distinct.tolist(), (distinct.astype(np.float64) / config.issue_rate).tolist())
    )
    issued_cum = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(issued))
    )
    # The miss positions, then m: ``nxt = miss_list[q]`` is always the
    # first miss at or after ``i``, so the empty-pipeline fast path can
    # jump a whole hit run at once.  Every list here but the issue
    # counts is miss-indexed, consumed in order through ``q``.
    miss_idx = np.flatnonzero(l1_miss)
    miss_list: List[int] = miss_idx.tolist()
    miss_list.append(m)
    latency_list: List[float] = np.where(
        l2_hit[miss_idx], float(config.l2_latency), float(config.memory_latency)
    ).tolist()
    event_list = events if events is not None else [_MISS] * len(miss_idx)

    stats = TimingStats()
    clock = 0.0
    instructions = 0
    stall = 0.0
    contention = 0.0
    bus_free = 0.0
    buffer_free = 0.0
    bank_free = [0.0] * config.n_banks
    # (instructions at issue, completion, holds an MSHR); buffer hits
    # ride the window rule without holding an MSHR.
    pending: Deque[Tuple[int, float, bool]] = deque()
    mshrs_in_use = 0
    window = config.rob_window
    mshrs = config.mshrs
    bus_cycles = config.bus_transfer_cycles
    buffer_busy = config.buffer_busy_cycles
    buffer_latency = config.buffer_latency
    swap_busy = config.swap_busy_cycles
    q = 0
    nxt = miss_list[0]
    i = 0
    while i < m:
        if not pending and nxt > i:
            # Hit run with nothing in flight: the scalar model only
            # advances the clock here, one += per reference.
            if nxt - i >= 32:
                seg = np.concatenate(([clock], incs_arr[i:nxt]))
                clock = float(np.add.accumulate(seg)[-1])
            else:
                for j in range(i, nxt):
                    clock += incs[issued_list[j]]
            instructions += int(issued_cum[nxt] - issued_cum[i])
            i = nxt
            continue
        # step(): advance past the gap plus this reference, then retire.
        count = issued_list[i]
        clock += incs[count]
        instructions += count
        while pending:
            issue_instr, completion, holds = pending[0]
            if completion <= clock:
                pending.popleft()
            elif instructions - issue_instr > window:
                stall += completion - clock
                clock = completion
                pending.popleft()
            else:
                break
            if holds:
                mshrs_in_use -= 1
        if i == nxt:
            event = event_list[q]
            if event >= _SERVE:
                # _buffer_hit: occupy_buffer for the read, then
                # note_short_op (no victim entry is ever still in flight,
                # so the data is ready after the buffer latency) ...
                start = buffer_free if buffer_free > clock else clock
                wait = start - clock
                if wait > 0:
                    contention += wait
                buffer_free = start + buffer_busy
                ready = start + buffer_latency
                if ready > clock:
                    pending.append((instructions, ready, False))
                if event >= _SWAP:
                    # ... then _victim_hit's swap holds the bank, then
                    # the buffer ports.
                    bank = event - _SWAP
                    start = bank_free[bank]
                    if start < clock:
                        start = clock
                    wait = start - clock
                    if wait > 0:
                        contention += wait
                    bank_free[bank] = start + swap_busy
                    start = buffer_free if buffer_free > clock else clock
                    wait = start - clock
                    if wait > 0:
                        contention += wait
                    buffer_free = start + swap_busy
            else:
                # _fetch_line: the bus is acquired at the current clock ...
                start = bus_free if bus_free > clock else clock
                wait = start - clock
                if wait > 0:
                    contention += wait
                bus_free = start + bus_cycles
                # ... then issue_miss acquires an MSHR (stalling to the
                # earliest MSHR-holding completion when all are busy,
                # then sweeping every completed operation) before the
                # transfer begins.
                if mshrs_in_use >= mshrs:
                    earliest = min(entry[1] for entry in pending if entry[2])
                    if earliest > clock:
                        stall += earliest - clock
                        clock = earliest
                    still: Deque[Tuple[int, float, bool]] = deque()
                    for entry in pending:
                        if entry[1] > clock:
                            still.append(entry)
                        elif entry[2]:
                            mshrs_in_use -= 1
                    pending = still
                begin = start if start > clock else clock
                pending.append((instructions, begin + latency_list[q], True))
                mshrs_in_use += 1
                if event == _MISS_FILL:
                    # _maybe_victim_fill, at the post-stall clock.
                    start = buffer_free if buffer_free > clock else clock
                    wait = start - clock
                    if wait > 0:
                        contention += wait
                    buffer_free = start + swap_busy
            q += 1
            nxt = miss_list[q]
        i += 1
    # finish(): FIFO-drain whatever is still in flight.
    while pending:
        _, completion, _ = pending.popleft()
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
# Pass 5: counter assembly + emission walk
# ----------------------------------------------------------------------
def _counter_prefixes(masks: Dict[str, "np.ndarray"]) -> Dict[str, "np.ndarray"]:
    """``pre[name][p]`` = count of True among the first ``p`` refs."""
    return {
        name: np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(mask.astype(np.int64)))
        )
        for name, mask in masks.items()
    }


def _stats_at(counts: Dict[str, int], p: int) -> SystemStats:
    """The scalar engine's live counters after ``p`` measured refs.

    ``counts[name]`` is the number of flagged references among those
    ``p`` (a prefix sum, or the whole mask's count at the end).  Timing
    stays zero: the scalar ``MemorySystem`` only publishes timing at
    ``finish()`` (mid-run heartbeat payloads carry the
    default-constructed zeros).  Buffer counters exist only for a
    buffered run, whose every L1 miss probes the buffer; a buffer hit
    served without a swap fills nothing into L1.
    """
    served = counts.get("buffer_served", 0)
    stats = SystemStats()
    l1 = stats.l1
    l1.accesses = p
    l1.hits = counts["l1_hit"]
    l1.misses = p - l1.hits
    l1.fills = l1.misses - served
    l1.evictions = counts["l1_evict"]
    l1.writebacks = counts["l1_wb"]
    buffer = stats.buffer
    if "buffer_hit" in counts:
        buffer.probes = l1.misses
        buffer.hits = counts["buffer_hit"]
        buffer.victim_hits = buffer.hits
        buffer.swaps = buffer.hits - served
        buffer.fills = counts["buffer_fill"]
        buffer.evictions = counts["buffer_evict"]
    l2 = stats.l2
    l2.accesses = l1.misses - buffer.hits
    l2.hits = counts["l2_hit"]
    l2.misses = l2.accesses - l2.hits
    l2.fills = l2.misses
    l2.evictions = counts["l2_evict"]
    stats.memory_accesses = l2.misses
    stats.conflict_misses_predicted = counts["conflict"]
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
    flags = l1_pass(
        blocks, geometry, policy.mct_tag_bits, writes,
        victim_fills=policy.uses_buffer,
        next_in_set=_serves_without_swap(policy),
    )
    m = n - warmup
    masks: Dict[str, "np.ndarray"] = {
        "l1_hit": flags.hit[warmup:],
        "l1_evict": flags.evict[warmup:],
        "l1_wb": flags.writeback[warmup:],
        "conflict": flags.conflict[warmup:],
    }
    events = None
    if policy.uses_buffer:
        l1_miss, full_miss, events = _buffer_stage(
            policy, machine, blocks, writes, flags, masks, warmup
        )
    else:
        l1_miss = full_miss = np.logical_not(flags.hit)
    del flags
    l2_hit_at, l2_evict_at = _l2_pass(blocks, full_miss, machine.l2)
    del full_miss
    masks["l2_hit"] = l2_hit_at[warmup:]
    masks["l2_evict"] = l2_evict_at[warmup:]
    timing = _replay_timing(
        trace.gaps[warmup:], l1_miss[warmup:], l2_hit_at[warmup:],
        machine.timing, events,
    )

    tick_every = faults.sim_tick_every()
    heartbeat_every = (
        ticker.every if ticker is not None and ticker.every > 0 else 0
    )

    stats = _stats_at(
        {name: int(np.count_nonzero(mask)) for name, mask in masks.items()}, m
    )
    stats.timing = timing

    # Walk the same boundary schedule as the scalar measured loop so the
    # event stream (and any armed sim_tick fault — kills included) is
    # indistinguishable from a scalar run.
    if heartbeat_every or tick_every:
        prefixes = _counter_prefixes(masks) if heartbeat_every else {}
        for stop, fire, beat in measure_boundaries(
            m, heartbeat_every, tick_every
        ):
            if fire:
                faults.fire("sim_tick")
            if beat:
                assert ticker is not None
                snapshot = _stats_at(
                    {name: int(pre[stop]) for name, pre in prefixes.items()},
                    stop,
                )
                ticker.tick(
                    stop, snapshot.as_dict(), **_heartbeat_fields(snapshot)
                )
    if ticker is not None:
        ticker.finish(m, stats.as_dict())

    from repro.harness.invariants import maybe_check_system

    maybe_check_system(stats, issue_rate=machine.timing.issue_rate)
    return stats
