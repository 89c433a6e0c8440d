"""The two simulation workloads: ``campaign`` and ``long_trace``.

Both run in the benchmark's own process and call the program's public
functions through their modules (``system.simulate``, not a name bound
here), so a traced run's rebinding reaches these calls too.  Each pass
returns ``{operation: output}``; an operation that raised has no output,
so the comparison with the pinned scalar reference (:func:`reference`)
counts it as failed.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Dict, List

from repro.buffers.victim import figure3_policies
from repro.cache.geometry import CacheGeometry
from repro.experiments.base import DEFAULT_PARAMS, ExperimentParams
from repro.experiments.fig1_accuracy import FIG1_CONFIGS
from repro import mrc, system, workloads
from repro.harness import cells
from repro.mrc import brute_force_fa_misses, default_size_ladder
from repro.system import BASELINE, ENGINE_ENV_VAR, PAPER_MACHINE, MachineConfig
from repro.workloads import Trace

#: A conflict-heavy trace (~38% 16KB-DM miss rate) and an irregular one
#: (~16%): the two behaviours the paper's evaluation separates.
SUITE = ("tomcatv", "gcc")

#: The real experiment cells: the accuracy loop (fig1, four geometries)
#: and buffered scalar simulations (fig3, victim-cache policies).
CAMPAIGN_CELLS = ("fig1", "fig3")

#: Bufferless L1s for ``long_trace``: the DM pass and the set-LRU pass.
LONG_MACHINES = {
    "dm": PAPER_MACHINE,
    "4way": MachineConfig(l1=CacheGeometry(size=16 * 1024, assoc=4, line_size=64)),
}
LINE_SIZE = 64
MRC_SIZES = default_size_ladder(LINE_SIZE)


@dataclass(frozen=True)
class SimSize:
    campaign_refs: int
    campaign_warmup: int
    long_refs: int
    long_warmup: int


SIZES = {
    # The campaign's default ExperimentParams; >=1M-ref long traces so
    # the O(N log^2 N) passes show their superlinear terms.
    "full": SimSize(DEFAULT_PARAMS.n_refs, DEFAULT_PARAMS.warmup, 1_000_000, 100_000),
    "tiny": SimSize(4_000, 1_000, 20_000, 2_000),
}

Outputs = Dict[str, object]


def campaign_params(size: str, seed: int) -> ExperimentParams:
    s = SIZES[size]
    return ExperimentParams(
        n_refs=s.campaign_refs, warmup=s.campaign_warmup, seed=seed, suite=list(SUITE)
    )


def campaign_refs_per_pass(params: ExperimentParams) -> int:
    """References simulated by one pass: fig1 runs every geometry over
    each trace, fig3 the no-buffer baseline plus every policy."""
    sims = len(FIG1_CONFIGS) + 1 + len(figure3_policies())
    return params.n_refs * len(SUITE) * sims


def campaign_pass(params: ExperimentParams) -> Outputs:
    """Run the campaign cells; returns their tables by cell id."""
    outputs: Outputs = {}
    for spec in cells.expand_cells(list(CAMPAIGN_CELLS)):
        try:
            outputs[spec.cell_id] = cells.run_cell(spec, params).to_dict()
        except Exception:  # a raised cell is a counted failure, not an abort
            traceback.print_exc()
    return outputs


def long_traces(size: str, seed: int) -> List[Trace]:
    return [workloads.build(name, SIZES[size].long_refs, seed) for name in SUITE]


def long_refs_per_pass(traces: List[Trace]) -> int:
    return sum(len(t) for t in traces) * (len(LONG_MACHINES) + 1)


def long_pass(traces: List[Trace], warmup: int) -> Outputs:
    """Bufferless simulations on both L1s plus the exact MRC, per trace."""
    outputs: Outputs = {}
    for trace in traces:
        for label, machine in LONG_MACHINES.items():
            try:
                stats = system.simulate(trace, BASELINE, machine, warmup=warmup)
                outputs[f"{trace.name}.{label}"] = stats.as_dict()
            except Exception:
                traceback.print_exc()
        try:
            curve = mrc.compute_mrc(trace.addresses, LINE_SIZE, MRC_SIZES)
            outputs[f"{trace.name}.mrc"] = list(curve.misses)
        except Exception:
            traceback.print_exc()
    return outputs


def reference(workload: str, size: str, seed: int) -> Outputs:
    """The pinned scalar reference for one workload, size and seed.

    ``campaign`` reruns its cells with the scalar engine forced;
    ``long_trace`` runs ``simulate(engine="scalar")`` and, for the MRC,
    one brute-force fully-associative LRU simulation per probed size.
    """
    if workload == "campaign":
        previous = os.environ.get(ENGINE_ENV_VAR)
        os.environ[ENGINE_ENV_VAR] = "scalar"
        try:
            outputs = campaign_pass(campaign_params(size, seed))
        finally:
            if previous is None:
                del os.environ[ENGINE_ENV_VAR]
            else:
                os.environ[ENGINE_ENV_VAR] = previous
        if len(outputs) != len(cells.expand_cells(list(CAMPAIGN_CELLS))):
            raise RuntimeError("a campaign cell raised under the scalar engine")
        return outputs
    if workload == "long_trace":
        outputs = {}
        warmup = SIZES[size].long_warmup
        for trace in long_traces(size, seed):
            for label, machine in LONG_MACHINES.items():
                stats = system.simulate(trace, BASELINE, machine, warmup=warmup, engine="scalar")
                outputs[f"{trace.name}.{label}"] = stats.as_dict()
            addresses = trace.addresses.tolist()
            outputs[f"{trace.name}.mrc"] = [
                brute_force_fa_misses(addresses, LINE_SIZE, lines) for lines in MRC_SIZES
            ]
        return outputs
    raise ValueError(f"no recorded reference for workload {workload!r}")
