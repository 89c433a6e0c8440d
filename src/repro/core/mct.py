"""The Miss Classification Table — the paper's central mechanism.

The MCT has **one entry per cache set** (direct-mapped regardless of the
cache's associativity).  Each entry stores all or part of the tag of the
line most recently evicted from that set.  On a cache miss, the missing
address's tag is compared with the stored tag; a match identifies the miss
as a **conflict miss** — the line was recently here and was pushed out by a
set conflict, so a slightly more associative cache would have kept it.

Two knobs shape the classification (Section 3):

* **Partial tags** (``tag_bits``): storing only the low ``k`` bits of the
  evicted tag shrinks the table at the cost of false conflict matches.
  Figure 2 shows ~8-10 bits retains nearly full accuracy; fewer bits bias
  the classifier toward conflict, which some applications exploit.
* **Update policy**: by default only evictions update the table.  The
  cache-exclusion application additionally *installs* the tags of bypassed
  lines (:meth:`MissClassificationTable.install`) so lines living in the
  bypass buffer can later be recognised as conflict misses (§5.3).

The table is accessed only on cache misses and sits off the critical path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.line import EvictedLine
from repro.core.classification import MissClass
from repro.core.kernel import check_tag_bits


class MissClassificationTable:
    """Per-set evicted-tag store with optional partial tags.

    Parameters
    ----------
    geometry:
        Geometry of the cache this MCT serves (supplies num_sets and the
        tag extraction).
    tag_bits:
        How many low-order tag bits to store and compare.  ``None`` (the
        default, used by all of Section 5) stores the complete tag.

    Examples
    --------
    >>> from repro.cache.geometry import CacheGeometry
    >>> g = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
    >>> mct = MissClassificationTable(g)
    >>> a, b = 0x10000, 0x20000          # same set, different tags
    >>> mct.classify(a) is MissClass.CAPACITY
    True
    >>> mct.record_eviction(g.set_index(a), g.tag(a))
    >>> mct.classify(a) is MissClass.CONFLICT
    True
    >>> mct.classify(b) is MissClass.CAPACITY
    True
    """

    def __init__(
        self, geometry: CacheGeometry, tag_bits: Optional[int] = None
    ) -> None:
        check_tag_bits(tag_bits)
        self.geometry = geometry
        self.tag_bits = tag_bits
        self._mask = None if tag_bits is None else (1 << tag_bits) - 1
        self._entries: List[Optional[int]] = [None] * geometry.num_sets
        self.classifications = 0
        self.conflict_hits = 0

    # ------------------------------------------------------------------
    # The two hardware operations
    # ------------------------------------------------------------------
    def classify(self, addr: int) -> MissClass:
        """Classify a miss to ``addr`` (compare against the stored tag).

        Call this *before* the miss's own fill updates the table.  The MCT
        can only answer CONFLICT or CAPACITY; compulsory misses fail the
        match and come out as CAPACITY, matching the paper's grouping.
        """
        self.classifications += 1
        stored = self._entries[self.geometry.set_index(addr)]
        if stored is not None and stored == self._store(self.geometry.tag(addr)):
            self.conflict_hits += 1
            return MissClass.CONFLICT
        return MissClass.CAPACITY

    def record_eviction(self, set_index: int, tag: int) -> None:
        """Remember the tag of the line just evicted from ``set_index``.

        Overwrites the previous entry — the table keeps only the *most
        recently* evicted tag per set.
        """
        self._entries[set_index] = self._store(tag)

    # ------------------------------------------------------------------
    # Convenience wiring
    # ------------------------------------------------------------------
    def on_evict(self, set_index: int, evicted: EvictedLine) -> None:
        """Adapter matching :class:`SetAssociativeCache`'s eviction hook."""
        self.record_eviction(set_index, evicted.tag)

    def install(self, addr: int) -> None:
        """Install ``addr``'s tag as if it had just been evicted.

        Used by cache exclusion (§5.3): a line routed into the bypass
        buffer never enters the cache, so it could never later match as a
        conflict miss.  Installing its tag at the set it *would* have
        occupied restores that opportunity.
        """
        self.record_eviction(self.geometry.set_index(addr), self.geometry.tag(addr))

    def classify_is_conflict(self, addr: int) -> bool:
        """Shorthand: ``classify(addr).is_conflict``."""
        return self.classify(addr).is_conflict

    def peek(self, set_index: int) -> Optional[int]:
        """The stored (possibly truncated) tag for a set, or None."""
        return self._entries[set_index]

    def clear(self) -> None:
        """Invalidate every entry (cold MCT)."""
        self._entries = [None] * self.geometry.num_sets

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def storage_bits(self, *, valid_bit: bool = True) -> int:
        """Total MCT storage in bits.

        With 10-bit entries and a 64KB direct-mapped cache (1024 sets) this
        is 1.25KB, the figure quoted in Section 3.  ``valid_bit`` adds one
        bit per entry when the stored-tag width alone cannot encode
        emptiness; the paper's 1.25KB figure counts tag bits only, so pass
        ``valid_bit=False`` to reproduce it exactly.
        """
        if self.tag_bits is None:
            # Assume a 44-bit physical address (Alpha 21264-class), minus
            # offset and index bits.
            width = max(
                44 - self.geometry.offset_bits - self.geometry.index_bits, 1
            )
        else:
            width = self.tag_bits
        if valid_bit:
            width += 1
        return width * self.geometry.num_sets

    def _store(self, tag: int) -> int:
        return tag if self._mask is None else tag & self._mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = "full" if self.tag_bits is None else f"{self.tag_bits}-bit"
        return (
            f"<MissClassificationTable {self.geometry.num_sets} sets, "
            f"{bits} tags>"
        )
