"""The classify-before-fill kernel: L1 lookup → MCT classify → fill.

For a cache geometry and an MCT stored-tag width, one pass over a
block-number stream returns trace-order hit, eviction, writeback and
MCT-conflict flags — exactly what :class:`~repro.cache.set_assoc.SetAssociativeCache`
with an attached :class:`~repro.core.mct.MissClassificationTable`
produces reference by reference (the scalar reference,
:class:`~repro.system.memory_system.MemorySystem`, is that pairing).
The vector engine, the accuracy harness, the co-scheduling advisor and
the service pipeline are each a reduction over these flags.

Both passes rest on the per-set independence the MCT itself relies on:
one stable argsort by set index makes each set's references a
contiguous, in-order segment, so per-set state becomes shifted compares
and prefix sums within segments.

Direct-mapped (:func:`direct_mapped_pass`): a reference hits iff it
repeats the block its set holds (the previous reference of its segment,
or the line carried in at the segment's start); a miss evicts iff that
block is valid; a writeback is an eviction whose victim saw a write
since its fill.  For the MCT, read a set's fills as the chain
``[stored tag, resident line, miss 1, miss 2, ...]``: at classify time
of miss k the table holds the victim of miss k-1, the chain entry two
fills back.  The pass is resumable — it reads and updates per-set
arrays of the resident block and the stored tag (``-1`` = invalid), so
chunked feeding gives the same flags as one-shot feeding.

Set-associative (:func:`set_assoc_pass`): hits and evictions come from
the set-LRU pass (:func:`repro.mrc.stack.set_lru_flags`), victims from
the deaths-FIFO pairing.  An occurrence is a **death** when it is the
last touch of one residency of its block (its next occurrence
re-misses, or never comes).  In set-LRU the victim of a segment's k-th
eviction is the segment's k-th death in position order: a victim is
necessarily dead, LRU picks the oldest last-touch among residents, and
a live resident older than the oldest pending death would itself have
to be evicted, hence dead.  At ``assoc == 1`` this equals the
direct-mapped pass flag for flag (pinned by a test); the shift-compare
pass stays the dispatch choice there because it needs no stack pass.

On request (``victim_fills=True``) either pass also reports, at every
evicting miss, the trace position of the fill that installed its victim:
the set's previous miss on a direct-mapped L1, the fill anchor of the
deaths-FIFO victim's residency otherwise.  A hybrid engine that replays
only the miss stream through an assist buffer reads each victim's
conflict and dirty bits off that fill.  Asked for ``next_in_set``,
either pass also links each reference to the next one in its set (the
set sort read as a linked list), so a caller can replay chosen sets
reference by reference without a sort of its own.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.mrc.stack import set_lru_flags


class L1Flags(NamedTuple):
    """Trace-order per-reference flags of one L1 pass.

    ``victim_fill`` and ``next_in_set`` are set only when the pass was
    asked for them, both int64: the trace position of the victim's fill
    at each evicting miss, and the position of the next reference to the
    same set; ``-1`` where there is none.
    """

    hit: "np.ndarray"
    evict: "np.ndarray"
    writeback: "np.ndarray"
    conflict: "np.ndarray"
    victim_fill: "Optional[np.ndarray]" = None
    next_in_set: "Optional[np.ndarray]" = None


def check_tag_bits(tag_bits: Optional[int]) -> None:
    """Refuse an MCT stored-tag width below one bit."""
    if tag_bits is not None and tag_bits < 1:
        raise ValueError(f"tag_bits must be >= 1 or None, got {tag_bits}")


def block_numbers(addresses: object, geometry: CacheGeometry) -> "np.ndarray":
    """Int64 block numbers of byte addresses in [0, 2**64).

    The shift happens in uint64, so addresses at or above 2**63 keep
    their high bits; only 1-byte lines can leave a block beyond int64.
    """
    shifted = np.asarray(addresses, dtype=np.uint64) >> np.uint64(
        geometry.offset_bits
    )
    if geometry.offset_bits == 0 and shifted.size and int(shifted.max()) >> 63:
        raise ValueError("block numbers of 1-byte lines must stay below 2**63")
    return shifted.astype(np.int64)


def _tags(
    blocks: "np.ndarray", geometry: CacheGeometry, tag_bits: Optional[int]
) -> "np.ndarray":
    """The MCT's stored tags of freshly gathered ``blocks``, in place: the
    low ``tag_bits`` bits (63 or more cannot truncate a non-negative int64)."""
    blocks >>= geometry.index_bits
    if tag_bits is not None and tag_bits < 63:
        blocks &= (1 << tag_bits) - 1
    return blocks


def _partition(
    blocks: "np.ndarray", geometry: CacheGeometry
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Stable sort by set: (order, sorted blocks, sorted sets, seg starts)."""
    sets = blocks & (geometry.num_sets - 1)
    order = np.argsort(sets, kind="stable")
    s = sets[order]
    seg_start = np.empty(len(s), dtype=bool)
    seg_start[:1] = True
    np.not_equal(s[1:], s[:-1], out=seg_start[1:])
    return order, blocks[order], s, seg_start


#: Set-sorted (evicting positions, their victims' fill positions).
_VictimFills = Tuple["np.ndarray", "np.ndarray"]

_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False
_NO_VICTIMS: _VictimFills = (_NONE, _NONE)


def _trace_order(
    order: "np.ndarray",
    hit: "np.ndarray",
    evict: "np.ndarray",
    writeback: "np.ndarray",
    conflict: "np.ndarray",
    victim_fills: "Optional[_VictimFills]",
    seg_start: "Optional[np.ndarray]" = None,
) -> L1Flags:
    """Scatter the set-sorted flags back, the set-sorted victim fill
    pairs into a trace-order ``victim_fill`` array and, given the segment
    starts, each reference's successor in its segment into
    ``next_in_set``."""
    out = np.empty((4, len(order)), dtype=bool)
    for row, sorted_flags in zip(out, (hit, evict, writeback, conflict)):
        row[order] = sorted_flags
    fill_at = None
    if victim_fills is not None:
        evicting, filled = victim_fills
        fill_at = np.full(len(order), -1, dtype=np.int64)
        fill_at[order[evicting]] = order[filled]
    next_at = None
    if seg_start is not None:
        next_at = np.full(len(order), -1, dtype=np.int64)
        next_at[order[:-1]] = order[1:]
        next_at[order[np.flatnonzero(seg_start[1:])]] = -1
    return L1Flags(out[0], out[1], out[2], out[3], fill_at, next_at)


def l1_pass(
    blocks: "np.ndarray",
    geometry: CacheGeometry,
    tag_bits: Optional[int] = None,
    writes: "Optional[np.ndarray]" = None,
    *,
    victim_fills: bool = False,
    next_in_set: bool = False,
) -> L1Flags:
    """The kernel for any LRU geometry over int64 ``blocks``.

    ``writes`` flags the stores; without it no writeback is flagged.
    ``victim_fills`` and ``next_in_set`` ask for the
    :class:`L1Flags` fields of those names.
    """
    pass_ = direct_mapped_pass if geometry.assoc == 1 else set_assoc_pass
    return pass_(
        blocks, geometry, tag_bits, writes,
        victim_fills=victim_fills, next_in_set=next_in_set,
    )


def direct_mapped_pass(
    blocks: "np.ndarray",
    geometry: CacheGeometry,
    tag_bits: Optional[int] = None,
    writes: "Optional[np.ndarray]" = None,
    *,
    resident: "Optional[np.ndarray]" = None,
    stored: "Optional[np.ndarray]" = None,
    victim_fills: bool = False,
    next_in_set: bool = False,
) -> L1Flags:
    """The direct-mapped pass, resumable through ``resident``/``stored``.

    Both are per-set int64 arrays (``-1`` = invalid), updated in place
    to the state after the last reference.  The carried state holds no
    dirty bits or fill positions, so ``writes`` and ``victim_fills``
    need one-shot feeding.
    """
    check_tag_bits(tag_bits)
    if resident is None or stored is None:
        if resident is not None or stored is not None:
            raise ValueError("resident and stored state come together")
        resident = np.full(geometry.num_sets, -1, dtype=np.int64)
        stored = np.full(geometry.num_sets, -1, dtype=np.int64)
    elif writes is not None or victim_fills:
        raise ValueError("writebacks and victim fills need one-shot feeding")
    n = int(len(blocks))
    order, b, s, seg_start = _partition(blocks, geometry)

    before = np.empty(n, dtype=np.int64)  # the block the set holds
    before[1:] = b[:-1]
    before[seg_start] = resident[s[seg_start]]
    hit_s = b == before
    miss_s = ~hit_s
    evict_s = miss_s & (before >= 0)
    del before

    # The victim of the eviction at sorted position i was filled at the
    # previous miss f of the segment, and [f, i-1] all touch it, so it
    # is dirty iff any write flag in [f, i-1] is set.
    wb_s = np.zeros(n, dtype=bool)
    fill_s = _NO_VICTIMS if victim_fills else None
    if (writes is not None or victim_fills) and n > 1:
        positions = np.arange(n, dtype=np.int64)
        fills = np.maximum.accumulate(np.where(miss_s, positions, -1))[:-1]
        del positions
        if writes is not None:
            w64 = writes[order].astype(np.int64)
            wcum = np.cumsum(w64)
            wb_s[1:] = (wcum[:-1] - wcum[fills] + w64[fills]) > 0
            wb_s &= evict_s
            del w64, wcum
        if victim_fills:
            evicting = np.flatnonzero(evict_s)
            fill_s = (evicting, fills[evicting - 1])
        del fills

    # A set's misses are contiguous in the miss subsequence, so the
    # chain entry two fills back is a shifted read, patched at each
    # set's first miss (stored tag) and second miss (carried-in line).
    miss_pos = np.flatnonzero(miss_s)
    tags = _tags(b[miss_pos], geometry, tag_bits)
    msets = s[miss_pos]
    first = np.ones(len(tags), dtype=bool)
    np.not_equal(msets[1:], msets[:-1], out=first[1:])
    second = np.zeros(len(tags), dtype=bool)
    second[1:] = first[:-1] & ~first[1:]
    carried = np.where(resident >= 0, _tags(resident.copy(), geometry, tag_bits), -1)
    entry = np.empty(len(tags), dtype=np.int64)
    entry[2:] = tags[:-2]
    entry[first] = stored[msets[first]]
    entry[second] = carried[msets[second]]
    conflict_s = np.zeros(n, dtype=bool)
    conflict_s[miss_pos] = entry == tags

    # Carry the state out: a set's last miss leaves its victim (one fill
    # back; -1 only where nothing was ever evicted, so the stored tag is
    # invalid too) in the MCT, and its last reference stays resident.
    victim = np.empty(len(tags), dtype=np.int64)
    victim[1:] = tags[:-1]
    victim[first] = carried[msets[first]]
    last = np.ones(len(tags), dtype=bool)
    last[:-1] = first[1:]
    stored[msets[last]] = victim[last]
    seg_end = np.ones(n, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    resident[s[seg_end]] = b[seg_end]
    del miss_pos, tags, msets, entry, victim, b, s

    return _trace_order(
        order, hit_s, evict_s, wb_s, conflict_s, fill_s,
        seg_start if next_in_set else None,
    )


def set_assoc_pass(
    blocks: "np.ndarray",
    geometry: CacheGeometry,
    tag_bits: Optional[int] = None,
    writes: "Optional[np.ndarray]" = None,
    *,
    victim_fills: bool = False,
    next_in_set: bool = False,
) -> L1Flags:
    """The set-associative pass: set-LRU flags plus deaths-FIFO victims."""
    check_tag_bits(tag_bits)
    n = int(len(blocks))
    order, b, s, seg_start = _partition(blocks, geometry)
    hit_s, evict_s = set_lru_flags(b, s, geometry.assoc)
    del s
    miss_s = ~hit_s

    # A stable argsort by block chains each occurrence to its block's
    # next touch (a block lives in one segment); an occurrence is a death
    # when that touch re-misses or never comes.
    run_order = np.argsort(b, kind="stable")
    run_b = b[run_order]
    ends = np.ones(n, dtype=bool)
    ends[:-1] = (run_b[1:] != run_b[:-1]) | miss_s[run_order[1:]]
    del run_b
    dead = np.empty(n, dtype=bool)
    dead[run_order] = ends
    del ends

    wb_s = np.zeros(n, dtype=bool)
    conflict_s = np.zeros(n, dtype=bool)
    fill_s = _NO_VICTIMS if victim_fills else None
    evict_pos = np.flatnonzero(evict_s)
    if len(evict_pos):
        starts = np.flatnonzero(seg_start)
        evict_before = np.cumsum(evict_s, dtype=np.int64)
        evict_before -= evict_s
        # The k-th eviction of a segment evicts its k-th death: a global
        # death index offset by the deaths before the segment.
        first = starts[np.searchsorted(starts, evict_pos, side="right") - 1]
        rank = evict_before[evict_pos] - evict_before[first]
        deaths_before = np.cumsum(dead, dtype=np.int64)[first] - dead[first]
        victim_pos = np.flatnonzero(dead)[deaths_before + rank]
        del first, rank, deaths_before, dead

        if writes is not None or victim_fills:
            # Every run opens with a cold miss, so the fill anchor of a
            # residency never leaks across a run boundary.
            anchor = np.maximum.accumulate(
                np.where(miss_s[run_order], np.arange(n, dtype=np.int64), -1)
            )
        if writes is not None:
            # Dirty ⇔ a write between the residency's fill and its death.
            w_run = writes[order[run_order]].astype(np.int64)
            wcum_run = np.cumsum(w_run)
            dirty_at = np.empty(n, dtype=bool)
            dirty_at[run_order] = (wcum_run - wcum_run[anchor] + w_run[anchor]) > 0
            del w_run, wcum_run
            wb_s[evict_pos] = dirty_at[victim_pos]
            del dirty_at
        if victim_fills:
            fill_of = np.empty(n, dtype=np.int64)
            fill_of[run_order] = run_order[anchor]
            del anchor
            fill_s = (evict_pos, fill_of[victim_pos])
            del fill_of

        # A miss's MCT entry is the victim tag of the segment's latest
        # earlier eviction — global eviction number evict_before[i],
        # provided that eviction lies in the same segment.
        victim_tags = _tags(b[victim_pos], geometry, tag_bits)
        miss_pos = np.flatnonzero(miss_s)
        probe_tags = _tags(b[miss_pos], geometry, tag_bits)
        prior = evict_before[miss_pos]
        first = starts[np.searchsorted(starts, miss_pos, side="right") - 1]
        has_entry = prior - evict_before[first] > 0
        match = np.zeros(len(miss_pos), dtype=bool)
        match[has_entry] = victim_tags[prior[has_entry] - 1] == probe_tags[has_entry]
        conflict_s[miss_pos[match]] = True
        del victim_tags, miss_pos, probe_tags, prior, first, evict_before
    del run_order, b

    return _trace_order(
        order, hit_s, evict_s, wb_s, conflict_s, fill_s,
        seg_start if next_in_set else None,
    )
