"""Classification-accuracy measurement harness (Figures 1 and 2).

Checks the MCT against Hill's definition over one reference stream:

1. the classify-before-fill kernel (:func:`repro.core.kernel.l1_pass`)
   runs the real set-associative LRU cache with the MCT attached to its
   eviction stream, and flags each reference's hit and MCT verdict;
2. one stack-distance pass (:func:`repro.mrc.stack.stack_distances`)
   labels every miss the way a fully-associative LRU cache of equal
   capacity would: by LRU inclusion, a miss is a **conflict** miss iff
   its stack distance is at most the capacity in lines, and a first
   touch is **compulsory**.

Every real-cache miss lands in a :class:`~repro.cache.stats.ClassificationStats`
confusion matrix (MCT prediction × true class), from which the paper's
*conflict accuracy* and *capacity accuracy* bars are read directly.
The result is count-for-count the same as stepping
:class:`~repro.cache.set_assoc.SetAssociativeCache`, the MCT and
:class:`~repro.core.ground_truth.GroundTruthClassifier` in lockstep.

The paper's grouping is honoured: compulsory misses count as capacity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats, ClassificationStats
from repro.core.kernel import block_numbers, l1_pass
from repro.mrc.stack import COLD, StackProfile, compute_profile, stack_distances
from repro.obs.heartbeat import sim_ticker


@dataclass
class AccuracyResult:
    """Everything one accuracy run produces."""

    geometry: CacheGeometry
    tag_bits: Optional[int]
    classification: ClassificationStats = field(default_factory=ClassificationStats)
    cache: CacheStats = field(default_factory=CacheStats)
    compulsory_misses: int = 0

    @property
    def conflict_accuracy(self) -> float:
        return self.classification.conflict_accuracy

    @property
    def capacity_accuracy(self) -> float:
        return self.classification.capacity_accuracy

    @property
    def overall_accuracy(self) -> float:
        return self.classification.overall_accuracy

    @property
    def miss_rate(self) -> float:
        return self.cache.miss_rate

    @property
    def conflict_fraction(self) -> float:
        """True conflict misses as a share of all misses, in percent."""
        total = self.classification.total
        return 100.0 * self.classification.true_conflicts / total if total else 0.0


def _accuracy_counters(result: AccuracyResult) -> dict:
    """Counter snapshot of an accuracy run, in the obs metrics shape.

    ``result.cache`` is only populated at the end of the run, so
    mid-run deltas carry the classification counters and the closing
    delta carries the cache counters — the replay still reconciles
    exactly against the final snapshot.
    """
    return {
        "classification": asdict(result.classification),
        "cache": asdict(result.cache),
        "compulsory_misses": result.compulsory_misses,
    }


def measure_accuracy(
    addresses: Iterable[int],
    geometry: CacheGeometry,
    *,
    tag_bits: Optional[int] = None,
    profile: Optional[StackProfile] = None,
) -> AccuracyResult:
    """Measure MCT classification accuracy over a reference stream.

    Parameters
    ----------
    addresses:
        Byte addresses of the data references, in program order.
    geometry:
        The cache configuration under study (Figure 1 sweeps four of
        these; Figure 2 fixes 16KB direct-mapped).
    tag_bits:
        Stored-tag width for the MCT; None stores the complete tag.
    profile:
        The stack profile of exactly this stream at the geometry's line
        size (:func:`repro.mrc.stack.compute_profile`).  Hill's labels
        depend on the capacity only through a threshold, so sweeps over
        tag widths or associativities pass one profile to every cell
        instead of paying for the stack pass per cell.  Computed here
        when omitted.

    Returns
    -------
    AccuracyResult
        Confusion matrix plus cache-level statistics.
    """
    refs = len(addresses) if hasattr(addresses, "__len__") else None
    ticker = sim_ticker(
        bench="accuracy",
        policy=f"mct[{'full' if tag_bits is None else tag_bits}b]",
        refs=refs,
        warmup=0,
    )
    if ticker is not None:
        ticker.begin()

    if refs is None:
        addresses = list(addresses)
    blocks = block_numbers(addresses, geometry)
    n = int(len(blocks))
    if profile is None:
        distances = stack_distances(blocks)
    elif profile.line_size != geometry.line_size or profile.total_refs != n:
        raise ValueError(
            f"profile of {profile.total_refs} refs at {profile.line_size}B "
            f"lines does not describe this stream ({n} refs, "
            f"{geometry.line_size}B lines)"
        )
    else:
        distances = profile.distances
    flags = l1_pass(blocks, geometry, tag_bits)

    miss = ~flags.hit
    cold = distances == COLD
    actual = miss & ~cold & (distances <= geometry.num_lines)
    capacity = miss & ~actual
    # One row per counter: the confusion matrix in ClassificationStats
    # field order, then compulsory misses, then all misses.
    rows = np.stack(
        (
            actual & flags.conflict,
            actual & ~flags.conflict,
            capacity & ~flags.conflict,
            capacity & flags.conflict,
            miss & cold,
            miss,
        )
    )
    every = ticker.every if ticker is not None else 0
    if ticker is not None and every > 0:
        # Accuracy-so-far at each heartbeat, read off prefix sums.  The
        # cache counters publish only at the end, as the scalar loop did.
        at_ticks = np.cumsum(rows, axis=1, dtype=np.int64)[:, every - 1 :: every]
        for done, counts in zip(range(every, n + 1, every), at_ticks.T.tolist()):
            partial = _result_at(geometry, tag_bits, counts)
            ticker.tick(
                done,
                _accuracy_counters(partial),
                overall_accuracy=round(partial.overall_accuracy, 4),
                conflict_accuracy=round(partial.conflict_accuracy, 4),
                capacity_accuracy=round(partial.capacity_accuracy, 4),
                miss_rate=round(CacheStats(accesses=done, misses=counts[-1]).miss_rate, 4),
            )

    result = _result_at(geometry, tag_bits, np.count_nonzero(rows, axis=1).tolist())
    misses = result.classification.total
    result.cache = CacheStats(
        accesses=n,
        hits=n - misses,
        misses=misses,
        fills=misses,
        evictions=int(np.count_nonzero(flags.evict)),
    )
    if ticker is not None:
        ticker.finish(n, _accuracy_counters(result))
    # Harness debug flag: validate that misses partition exactly into
    # conflict + capacity (compulsory inside capacity) before the numbers
    # can reach any table.
    from repro.harness.invariants import maybe_check_accuracy

    maybe_check_accuracy(result)
    return result


def _result_at(
    geometry: CacheGeometry, tag_bits: Optional[int], counts: list[int]
) -> AccuracyResult:
    """An :class:`AccuracyResult` from one column of the counter rows."""
    *matrix, compulsory, _ = counts
    return AccuracyResult(
        geometry, tag_bits, ClassificationStats(*matrix), compulsory_misses=compulsory
    )


def sweep_tag_bits(
    addresses: list[int],
    geometry: CacheGeometry,
    bit_widths: Iterable[Optional[int]],
) -> list[AccuracyResult]:
    """Run :func:`measure_accuracy` once per stored-tag width (Figure 2).

    One stack profile of ``addresses`` serves every width.
    """
    profile = compute_profile(addresses, geometry.line_size)
    return [
        measure_accuracy(addresses, geometry, tag_bits=bits, profile=profile)
        for bits in bit_widths
    ]
