"""The classify-before-fill kernel and the reductions built on it.

:mod:`repro.core.kernel` replaced per-reference loops in the accuracy
harness, the co-scheduling advisor and the service pipeline.  Each test
here keeps the deleted loop alive as a straight-line reference —
:class:`~repro.cache.set_assoc.SetAssociativeCache` with an attached
:class:`~repro.core.mct.MissClassificationTable`, plus
:class:`~repro.core.ground_truth.GroundTruthClassifier` for Hill's labels
— and demands equal results, count for count and tick for tick.
"""

from __future__ import annotations

from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.accuracy import AccuracyResult, measure_accuracy
from repro.core.classification import MissClass
from repro.core.ground_truth import GroundTruthClassifier
from repro.core.kernel import block_numbers, direct_mapped_pass, l1_pass
from repro.core.mct import MissClassificationTable
from repro.extensions.coscheduling import CoScheduleAdvisor, PairingReport
from repro.mrc.stack import compute_profile
from repro.workloads.trace import Trace, merge_round_robin

LINE = 64
#: 16 lines; every associativity below keeps a power-of-two set count.
CAPACITY = 16 * LINE

#: Block ids from a universe of 4x the cache, so short streams mix hits,
#: conflict misses and capacity misses.
block_ids = st.lists(st.integers(min_value=0, max_value=63), max_size=300)
assocs = st.sampled_from([1, 2, 4, 8])
tag_widths = st.sampled_from([1, 3, 8, None])


def reference_flags(addresses, geometry, tag_bits):
    """(hit, evict, conflict) per reference from the scalar objects."""
    mct = MissClassificationTable(geometry, tag_bits=tag_bits)
    cache = SetAssociativeCache(geometry, on_evict=mct.on_evict)
    hit, evict, conflict = [], [], []
    for addr in addresses:
        outcome = cache.lookup(addr)
        hit.append(outcome.hit)
        conflict.append(not outcome.hit and mct.classify_is_conflict(addr))
        evictions = cache.stats.evictions
        if not outcome.hit:
            cache.fill(addr)
        evict.append(cache.stats.evictions > evictions)
    return hit, evict, conflict


def reference_victim_fills(addresses, geometry):
    """Per reference: the position that filled the line it evicts, or -1."""
    cache = SetAssociativeCache(geometry)
    filled_at = {}
    out = []
    for position, addr in enumerate(addresses):
        if cache.lookup(addr).hit:
            out.append(-1)
            continue
        evicted = cache.fill(addr).evicted
        if evicted is None:
            out.append(-1)
        else:
            victim = geometry.compose(evicted.tag, geometry.set_index(addr))
            out.append(filled_at.pop(geometry.block_number(victim)))
        filled_at[geometry.block_number(addr)] = position
    return out


class RecordingTicker:
    """Stands in for a ``SimTicker``; records every call in order."""

    def __init__(self, every):
        self.every = every
        self.calls = []

    def begin(self):
        self.calls.append(("begin",))

    def tick(self, refs_done, counters, **fields):
        self.calls.append(("tick", refs_done, counters, fields))

    def finish(self, refs, counters):
        self.calls.append(("finish", refs, counters))


def _counters(result):
    return {
        "classification": asdict(result.classification),
        "cache": asdict(result.cache),
        "compulsory_misses": result.compulsory_misses,
    }


def reference_accuracy(addresses, geometry, tag_bits, every):
    """The lockstep accuracy loop the kernel replaced, with its ticks."""
    mct = MissClassificationTable(geometry, tag_bits=tag_bits)
    cache = SetAssociativeCache(geometry, on_evict=mct.on_evict)
    oracle = GroundTruthClassifier(geometry)
    result = AccuracyResult(geometry=geometry, tag_bits=tag_bits)
    calls = [("begin",)]
    for processed, addr in enumerate(addresses, start=1):
        if not cache.lookup(addr).hit:
            predicted = mct.classify(addr)
            actual = oracle.classify_miss(addr)
            result.classification.record(
                predicted_conflict=predicted.is_conflict,
                actual_conflict=actual.is_conflict,
            )
            if actual is MissClass.COMPULSORY:
                result.compulsory_misses += 1
            cache.fill(addr)
        oracle.observe(addr)
        if every and processed % every == 0:
            fields = {
                "overall_accuracy": round(result.overall_accuracy, 4),
                "conflict_accuracy": round(result.conflict_accuracy, 4),
                "capacity_accuracy": round(result.capacity_accuracy, 4),
                "miss_rate": round(cache.stats.miss_rate, 4),
            }
            calls.append(("tick", processed, _counters(result), fields))
    result.cache.merge(cache.stats)
    calls.append(("finish", len(addresses), _counters(result)))
    return result, calls


class TestAccuracy:
    @settings(max_examples=150, deadline=None)
    @given(
        blocks=block_ids,
        assoc=assocs,
        tag_bits=tag_widths,
        shared_profile=st.booleans(),
        every=st.sampled_from([0, 1, 7, 50]),
    )
    def test_equals_reference_loop_tick_for_tick(
        self, blocks, assoc, tag_bits, shared_profile, every
    ):
        geometry = CacheGeometry(size=CAPACITY, assoc=assoc, line_size=LINE)
        addresses = [b * LINE + (b % 5) for b in blocks]
        expected, expected_calls = reference_accuracy(
            addresses, geometry, tag_bits, every
        )
        profile = compute_profile(addresses, LINE) if shared_profile else None
        ticker = RecordingTicker(every)
        opened = []

        def fake_sim_ticker(**kwargs):
            opened.append(kwargs)
            return ticker

        with mock.patch("repro.core.accuracy.sim_ticker", fake_sim_ticker):
            result = measure_accuracy(
                addresses, geometry, tag_bits=tag_bits, profile=profile
            )
        assert result == expected
        assert ticker.calls == expected_calls
        assert opened == [
            {
                "bench": "accuracy",
                "policy": f"mct[{'full' if tag_bits is None else tag_bits}b]",
                "refs": len(addresses),
                "warmup": 0,
            }
        ]

    def test_reuse_at_exactly_capacity_is_conflict(self):
        # 16 distinct blocks cycled: every reuse has stack distance 16,
        # which a 16-line FA cache still holds.  Blocks 0 and 16 share a
        # direct-mapped set, so after the cold cycle each cycle has two
        # real misses, both true conflicts.
        geometry = CacheGeometry(size=CAPACITY, assoc=1, line_size=LINE)
        addresses = [b * LINE for b in [0, *range(1, 15), 16] * 4]
        expected, _ = reference_accuracy(addresses, geometry, None, 0)
        result = measure_accuracy(addresses, geometry)
        assert result == expected
        assert result.classification.true_conflicts == 6

    def test_accepts_any_iterable(self):
        geometry = CacheGeometry(size=CAPACITY, assoc=2, line_size=LINE)
        addresses = [b * LINE for b in (1, 17, 33, 1, 17, 33, 2)]
        expected = measure_accuracy(addresses, geometry)
        assert measure_accuracy(iter(addresses), geometry) == expected
        assert measure_accuracy(np.asarray(addresses), geometry) == expected


class TestDirectMappedKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        refs=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
            max_size=300,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
        tag_bits=st.sampled_from([1, 3, 8, 63, 64, None]),
    )
    def test_chunked_equals_one_shot_and_scalar(self, refs, cuts, tag_bits):
        # The high bit puts half the addresses at or above 2**63.
        addresses = [(high << 63) | (b * LINE) for high, b in refs]
        geometry = CacheGeometry(size=CAPACITY, assoc=1, line_size=LINE)
        blocks = block_numbers(addresses, geometry)

        one = direct_mapped_pass(blocks, geometry, tag_bits)
        # Random cut points, then the extreme split: one reference per call.
        bounds = [0, *sorted(min(c, len(blocks)) for c in cuts), len(blocks)]
        for splits in (zip(bounds, bounds[1:]), ((i, i + 1) for i in range(len(blocks)))):
            resident = np.full(geometry.num_sets, -1, dtype=np.int64)
            stored = np.full(geometry.num_sets, -1, dtype=np.int64)
            parts = [
                direct_mapped_pass(
                    blocks[start:stop],
                    geometry,
                    tag_bits,
                    resident=resident,
                    stored=stored,
                )
                for start, stop in splits
            ]
            for name in ("hit", "evict", "writeback", "conflict"):
                chunked = np.concatenate([getattr(p, name) for p in parts] or [[]])
                assert np.array_equal(chunked, getattr(one, name)), name

        hit, evict, conflict = reference_flags(addresses, geometry, tag_bits)
        assert one.hit.tolist() == hit
        assert one.evict.tolist() == evict
        assert one.conflict.tolist() == conflict

    def test_carried_state_refuses_writes(self):
        geometry = CacheGeometry(size=CAPACITY, assoc=1, line_size=LINE)
        state = np.full(geometry.num_sets, -1, dtype=np.int64)
        blocks = np.arange(4, dtype=np.int64)
        with pytest.raises(ValueError, match="one-shot"):
            direct_mapped_pass(
                blocks,
                geometry,
                writes=np.ones(4, dtype=bool),
                resident=state,
                stored=state.copy(),
            )

    def test_carried_state_refuses_victim_fills(self):
        geometry = CacheGeometry(size=CAPACITY, assoc=1, line_size=LINE)
        state = np.full(geometry.num_sets, -1, dtype=np.int64)
        with pytest.raises(ValueError, match="one-shot"):
            direct_mapped_pass(
                np.arange(4, dtype=np.int64),
                geometry,
                resident=state,
                stored=state.copy(),
                victim_fills=True,
            )

    @settings(max_examples=80, deadline=None)
    @given(
        blocks=block_ids,
        assoc=assocs,
        writes=st.lists(st.booleans(), min_size=300, max_size=300),
    )
    def test_victim_fill_positions_equal_scalar(self, blocks, assoc, writes):
        # The hybrid buffered engine reads each victim's conflict and
        # dirty bits off the fill that installed it.
        geometry = CacheGeometry(size=CAPACITY, assoc=assoc, line_size=LINE)
        addresses = [b * LINE for b in blocks]
        expected = reference_victim_fills(addresses, geometry)
        numbers = block_numbers(addresses, geometry)
        stores = np.array(writes[: len(blocks)], dtype=bool)
        for store_flags in (None, stores):
            flags = l1_pass(
                numbers, geometry, 3, store_flags, victim_fills=True
            )
            assert flags.victim_fill is not None
            assert flags.victim_fill.tolist() == expected
            # Opting in changes none of the other flags.
            plain = l1_pass(numbers, geometry, 3, store_flags)
            assert plain.victim_fill is None
            for name in ("hit", "evict", "writeback", "conflict"):
                assert np.array_equal(getattr(flags, name), getattr(plain, name))

    @settings(max_examples=60, deadline=None)
    @given(blocks=block_ids, assoc=assocs)
    def test_next_in_set_links_each_set_in_order(self, blocks, assoc):
        # The hybrid engine walks a set knocked off the kernel's pass
        # along these links, one reference at a time.
        geometry = CacheGeometry(size=CAPACITY, assoc=assoc, line_size=LINE)
        numbers = block_numbers([b * LINE for b in blocks], geometry)
        sets = [b % geometry.num_sets for b in blocks]
        expected = [
            next((j for j in range(i + 1, len(sets)) if sets[j] == sets[i]), -1)
            for i in range(len(sets))
        ]
        flags = l1_pass(numbers, geometry, 3, next_in_set=True)
        assert flags.next_in_set is not None
        assert flags.next_in_set.tolist() == expected
        plain = l1_pass(numbers, geometry, 3)
        assert plain.next_in_set is None
        for name in ("hit", "evict", "writeback", "conflict"):
            assert np.array_equal(getattr(flags, name), getattr(plain, name))

    def test_block_numbers_refuse_what_int64_cannot_hold(self):
        # Only 1-byte lines leave a 64-bit address's block beyond int64.
        byte_lines = CacheGeometry(size=CAPACITY, assoc=1, line_size=1)
        assert block_numbers([2**63 - 1], byte_lines).tolist() == [2**63 - 1]
        with pytest.raises(ValueError, match="2\\*\\*63"):
            block_numbers([2**63], byte_lines)
        wide = CacheGeometry(size=CAPACITY, assoc=1, line_size=LINE)
        assert block_numbers([2**64 - 1], wide).tolist() == [(2**64 - 1) >> 6]

    @settings(max_examples=60, deadline=None)
    @given(blocks=block_ids, assoc=assocs, tag_bits=tag_widths)
    def test_set_associative_kernel_equals_scalar(self, blocks, assoc, tag_bits):
        geometry = CacheGeometry(size=CAPACITY, assoc=assoc, line_size=LINE)
        addresses = [b * LINE for b in blocks]
        flags = l1_pass(block_numbers(addresses, geometry), geometry, tag_bits)
        hit, evict, conflict = reference_flags(addresses, geometry, tag_bits)
        assert flags.hit.tolist() == hit
        assert flags.evict.tolist() == evict
        assert flags.conflict.tolist() == conflict


class TestCoScheduling:
    @staticmethod
    def reference_pair(geometry, a, b):
        """The per-reference loop ``measure_pair`` replaced."""
        merged = merge_round_robin([a, b])
        mct = MissClassificationTable(geometry)
        cache = SetAssociativeCache(geometry, on_evict=mct.on_evict)
        conflicts = 0
        for addr in merged.addresses.tolist():
            if not cache.lookup(addr).hit:
                if mct.classify_is_conflict(addr):
                    conflicts += 1
                cache.fill(addr)
        n = cache.stats.accesses
        return PairingReport(
            jobs=(a.name, b.name),
            miss_rate=cache.stats.miss_rate,
            conflict_miss_rate=100.0 * conflicts / n if n else 0.0,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        first=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=150),
        second=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=150),
        assoc=st.sampled_from([1, 2, 4]),
    )
    def test_measure_pair_equals_reference_loop(self, first, second, assoc):
        geometry = CacheGeometry(size=CAPACITY, assoc=assoc, line_size=LINE)
        a = Trace([b * LINE for b in first], name="a")
        b = Trace([b * LINE for b in second], name="b")
        report = CoScheduleAdvisor(geometry).measure_pair(a, b)
        assert report == self.reference_pair(geometry, a, b)
