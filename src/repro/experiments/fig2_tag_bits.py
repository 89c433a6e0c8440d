"""Figure 2 — accuracy versus the number of stored tag bits.

Section 3: "Figure 2 shows the impact of saving only the lower bits of the
evicted tag.  This shows that very little accuracy is lost with only 8
bits stored... With fewer bits stored, more misses are classified as
conflict misses, which is why conflict accuracy starts out artificially
high and capacity accuracy starts low.  This graph shows that even a
single bit per cache set could be effective."

The sweep runs on the 16KB direct-mapped cache and reports the
suite-average conflict and capacity accuracy per stored-tag width.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.core.accuracy import measure_accuracy
from repro.experiments.base import (
    DEFAULT_PARAMS,
    ExperimentParams,
    ExperimentResult,
    FULL_SUITE,
)
from repro.mrc.stack import compute_profile
from repro.workloads.spec_analogs import build

#: The x-axis of Figure 2 (None = full tag).
FIG2_BIT_WIDTHS: Sequence[Optional[int]] = (1, 2, 3, 4, 6, 8, 10, 12, 16, None)

FIG2_GEOMETRY = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)


def run(params: ExperimentParams = DEFAULT_PARAMS) -> ExperimentResult:
    suite = params.bench_suite(FULL_SUITE)
    result = ExperimentResult(
        experiment_id="fig2",
        title="Accuracy vs stored tag bits (16KB DM, suite average)",
        headers=["tag bits", "conflict acc %", "capacity acc %", "overall acc %"],
        paper_reference="Figure 2: ~8 bits retains nearly full accuracy; "
        "fewer bits bias toward conflict",
    )

    traces = {name: build(name, params.n_refs, params.seed) for name in suite}
    # One stack pass per trace labels the misses at every width.
    profiles = {
        name: compute_profile(trace.addresses, FIG2_GEOMETRY.line_size)
        for name, trace in traces.items()
    }
    for bits in FIG2_BIT_WIDTHS:
        cf_ok = cf_all = cp_ok = cp_all = 0
        for name, trace in traces.items():
            acc = measure_accuracy(
                trace.addresses, FIG2_GEOMETRY, tag_bits=bits, profile=profiles[name]
            )
            c = acc.classification
            cf_ok += c.conflict_as_conflict
            cf_all += c.true_conflicts
            cp_ok += c.capacity_as_capacity
            cp_all += c.true_capacities
        conflict = 100.0 * cf_ok / cf_all if cf_all else 0.0
        capacity = 100.0 * cp_ok / cp_all if cp_all else 0.0
        overall = (
            100.0 * (cf_ok + cp_ok) / (cf_all + cp_all) if cf_all + cp_all else 0.0
        )
        result.add_row("full" if bits is None else bits, conflict, capacity, overall)
    return result


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments.base import format_result

    print(format_result(run()))
