"""Trace-driven simulation runner.

Thin orchestration: feed a :class:`~repro.workloads.trace.Trace` through
an engine and return the final :class:`~repro.cache.stats.SystemStats`.
Two engines produce byte-identical statistics:

* ``scalar`` — the pinned reference: every reference walks through a
  live :class:`~repro.system.memory_system.MemorySystem`.
* ``vector`` — the set-partitioned numpy engine
  (:mod:`repro.system.vector`), an order of magnitude faster for the
  policies it supports: bufferless ones, swap-always victim caches, and
  on a direct-mapped L1 every victim cache (no-swap rules included).

``engine="auto"`` (the default) picks the vector engine whenever the
run is eligible and can be overridden per process with the
``REPRO_SIM_ENGINE`` environment variable (how ``--engine`` reaches
harness workers).  Also provides the speedup helpers the figures are
built from (IPC relative to a baseline policy on the same trace) and the
geometric/arithmetic means the paper averages with.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro import faults
from repro.cache.stats import SystemStats
from repro.obs import events as obs_events
from repro.obs.heartbeat import SimTicker, sim_ticker
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.memory_system import MemorySystem
from repro.system.policies import AssistConfig
from repro.workloads.trace import Trace

#: Environment override consulted by ``engine="auto"`` — set by the
#: experiment runner's ``--engine`` flag so worker processes inherit it.
ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"

_ENGINES = ("auto", "scalar", "vector")


def validate_engine_env() -> Optional[str]:
    """Fail fast on an invalid :data:`ENGINE_ENV_VAR` value.

    Supervisors (the experiment runner, the bench harness) call this at
    spawn time, *before* any worker inherits the environment: a typo
    like ``REPRO_SIM_ENGINE=vecotr`` must abort the campaign up front
    with the valid choices, not surface as one ``ValueError`` per cell
    deep inside worker processes.  Returns the (valid) value, or
    ``None`` when the variable is unset.
    """
    value = os.environ.get(ENGINE_ENV_VAR)
    if value is not None and value not in _ENGINES:
        raise ValueError(
            f"${ENGINE_ENV_VAR}={value!r} is not a valid simulation "
            f"engine: expected one of {', '.join(_ENGINES)}"
        )
    return value

#: One (address, is_load, gap) triple per reference.
_Ref = Tuple[int, bool, int]


def simulate(
    trace: Trace,
    policy: AssistConfig,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
    engine: str = "auto",
) -> SystemStats:
    """Run one trace through one policy on one machine.

    ``warmup`` references are simulated first to warm the caches, buffer
    and MCT; statistics and the cycle clock are then reset before the
    remaining references are measured (the stand-in for the paper's
    billion-instruction fast-forward).

    ``warmup`` must leave at least one reference to measure: a run whose
    entire trace is warmup would report all-zero statistics, and every
    derived rate (IPC, speedup, hit rates) downstream would silently
    divide by zero or read 0.0.

    ``engine`` selects the implementation: ``"scalar"`` always uses the
    reference per-reference loop, ``"vector"`` *demands* the
    set-partitioned engine, and ``"auto"`` (the default, further
    overridable via :data:`ENGINE_ENV_VAR`) uses the vector engine when
    the run is eligible: no assist buffer, a victim cache whose every
    hit swaps back into L1, or any victim cache on a direct-mapped L1.
    For an ineligible cell (prefetch or exclusion, or victim hits served
    without a swap on a set-associative L1 — see
    :func:`repro.system.vector.vector_ineligibility`) ``"auto"`` falls
    back to the scalar engine, recording an ``engine_fallback`` event
    with the reason when metrics are active, while ``"vector"`` raises
    the reason — a demand that cannot be honoured must not silently
    time the wrong engine.  The engines are byte-identical, so auto's
    fallback never changes results.
    """
    if not 0 <= warmup < len(trace):
        raise ValueError(
            f"warmup {warmup} must lie in [0, {len(trace)}) so at least one "
            f"of the trace's {len(trace)} references is measured"
        )
    resolved = engine
    if resolved == "auto":
        resolved = os.environ.get(ENGINE_ENV_VAR, "auto")
    if resolved not in _ENGINES:
        raise ValueError(
            f"unknown engine {resolved!r} (from engine={engine!r} / "
            f"${ENGINE_ENV_VAR}): expected one of {', '.join(_ENGINES)}"
        )
    if resolved != "scalar":
        from repro.system import vector

        reason = vector.vector_ineligibility(policy, machine)
        if reason is None:
            return vector.simulate_vector(trace, policy, machine, warmup=warmup)
        if resolved == "vector":
            raise ValueError(
                f"engine='vector' cannot run this cell: {reason} — "
                "use engine='auto' (scalar fallback) or engine='scalar'"
            )
        # auto: fall back to the scalar reference, leaving a trace in the
        # event stream so an instrumented campaign can tell "vector ran"
        # from "vector silently declined".
        log = obs_events.active_log()
        if log is not None:
            log.emit(
                "engine_fallback",
                bench=trace.name,
                policy=policy.name,
                reason=reason,
            )

    system = MemorySystem(policy, machine)
    access = system.access
    # Convert the trace's numpy arrays to native lists once: indexing a
    # numpy array boxes a fresh scalar object per element, which costs
    # more than the cache lookup it feeds on short references.  A single
    # zip iterator is then shared by the warmup and measured loops —
    # islice() consumes it in place, so neither loop copies the lists
    # again (slicing them per loop used to triple peak trace memory).
    refs: Iterator[_Ref] = zip(
        trace.addresses.tolist(), trace.is_load.tolist(), trace.gaps.tolist()
    )
    for addr, load, gap in islice(refs, warmup):
        access(addr, is_load=load, gap=gap)
    if warmup:
        system.reset_measurement()
    ticker = sim_ticker(
        bench=trace.name, policy=policy.name, refs=len(trace), warmup=warmup
    )
    # Consulted once per simulate(), never per reference: 0 unless a
    # fault plan arming the sim_tick site is active in this process.
    tick_every = faults.sim_tick_every()
    if ticker is None and tick_every == 0:
        # Metrics disabled (the default): the measured loop is exactly
        # the warmup loop — no per-chunk bookkeeping, no overhead.
        for addr, load, gap in refs:
            access(addr, is_load=load, gap=gap)
        return system.finish()
    return _measure(system, refs, len(trace) - warmup, ticker, tick_every)


def measure_boundaries(
    total: int, heartbeat_every: int, tick_every: int
) -> Iterator[Tuple[int, bool, bool]]:
    """Chunk boundaries of a measured window of ``total`` references.

    Yields ``(stop, fire, beat)`` triples covering ``(0, total]``: the
    union of the heartbeat cadence and the ``sim_tick`` fault-site
    cadence (each 0 when inactive).  ``fire`` marks every multiple of
    ``tick_every`` plus the end of the window (so a fault plan always
    gets its shot even on short windows); ``beat`` marks multiples of
    ``heartbeat_every`` strictly inside the window (no heartbeat for the
    final boundary: ``sim_end`` immediately follows with the complete
    snapshot).  Both engines walk this one schedule, so the event stream
    and fault-site hit counts are engine-independent.
    """
    position = 0
    while position < total:
        stop = total
        if heartbeat_every:
            stop = min(stop, (position // heartbeat_every + 1) * heartbeat_every)
        if tick_every:
            stop = min(stop, (position // tick_every + 1) * tick_every)
        fire = bool(tick_every) and (stop % tick_every == 0 or stop == total)
        beat = bool(heartbeat_every) and stop % heartbeat_every == 0 and stop < total
        yield stop, fire, beat
        position = stop


def _measure(
    system: MemorySystem,
    refs: Iterator[_Ref],
    total: int,
    ticker: Optional[SimTicker],
    tick_every: int,
) -> SystemStats:
    """The measured loop with metrics and/or fault injection enabled.

    Simulates exactly the same references in the same order as the plain
    loop — statistics are bit-identical either way — but in chunks at
    the :func:`measure_boundaries` schedule, honouring *both* cadences
    when a heartbeat ticker and an armed ``sim_tick`` fault plan are
    active at once (they need not agree; each keeps its own cadence).
    """
    access = system.access
    heartbeat_every = ticker.every if ticker is not None and ticker.every > 0 else 0
    if ticker is not None:
        ticker.begin()
    position = 0
    for stop, fire, beat in measure_boundaries(total, heartbeat_every, tick_every):
        for addr, load, gap in islice(refs, stop - position):
            access(addr, is_load=load, gap=gap)
        position = stop
        if fire:
            faults.fire("sim_tick")
        if beat:
            assert ticker is not None
            ticker.tick(
                stop, system.stats.as_dict(), **system.heartbeat_snapshot()
            )
    stats = system.finish()
    if ticker is not None:
        ticker.finish(total, stats.as_dict())
    return stats


def simulate_policies(
    trace: Trace,
    policies: Sequence[AssistConfig],
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
    engine: str = "auto",
) -> Dict[str, SystemStats]:
    """Run the same trace through several policies (fresh system each).

    Policy names must be unique: the results are keyed by name, and a
    duplicate would silently overwrite an earlier policy's statistics.
    """
    names = [p.name for p in policies]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate policy name(s) {', '.join(map(repr, duplicates))}: "
            "results are keyed by name, so one run would silently "
            "overwrite the other (use AssistConfig.renamed())"
        )
    return {
        p.name: simulate(trace, p, machine, warmup=warmup, engine=engine)
        for p in policies
    }


def speedup(stats: SystemStats, baseline: SystemStats) -> float:
    """IPC ratio versus a baseline run of the same trace."""
    base_ipc = baseline.timing.ipc
    if base_ipc == 0:
        raise ValueError("baseline run has no cycles — was finish() called?")
    if stats.timing.ipc == 0:
        raise ValueError(
            "measured run has no instructions or no cycles (IPC is 0) — "
            "was finish() called?"
        )
    return stats.timing.ipc / base_ipc


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (the paper's 'average speedup' bars)."""
    values = list(values)
    if not values:
        raise ValueError(
            "mean of no values — an empty average usually means a figure's "
            "per-benchmark results were filtered down to nothing"
        )
    return sum(values) / len(values)


def geomean(
    values: Iterable[float], names: Optional[Sequence[str]] = None
) -> float:
    """Geometric mean, for readers who prefer it for speedup ratios.

    ``names`` optionally labels each value (benchmark names, typically):
    a non-positive value then aborts the average with an error naming
    the offending benchmark instead of leaving the caller to bisect a
    whole figure's worth of cells.
    """
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if names is not None and len(names) != len(values):
        raise ValueError(
            f"geomean got {len(values)} values but {len(names)} names"
        )
    product = 1.0
    for index, value in enumerate(values):
        if value <= 0:
            label = names[index] if names is not None else f"value #{index}"
            raise ValueError(
                f"geomean requires positive values: {label} contributed "
                f"{value!r} (a zero-IPC cell upstream? its run likely never "
                "called finish())"
            )
        product *= value
    return product ** (1.0 / len(values))
