"""The vectorised engine is a byte-identical drop-in for the scalar loop.

The vector engine (:mod:`repro.system.vector`) re-derives every counter
of :class:`~repro.cache.stats.SystemStats` with set-partitioned numpy
algebra instead of a per-reference Python loop.  Nothing here tolerates
approximation: every test compares ``json.dumps(..., sort_keys=True)``
of the full ``as_dict()`` tree, so a single off-by-one in any counter —
or a float that differs in the last ulp of the timing replay — fails.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import amb, victim
from repro.core.filters import ALL_FILTERS, ConflictFilter
from repro.obs import events as obs_events
from repro.obs.config import ObsConfig
from repro.obs.validate import main as validate_main
from repro.obs.validate import reconcile_events, validate_lines
from repro.system.config import MachineConfig, PAPER_MACHINE, SLOW_BUS_MACHINE
from repro.system.policies import AssistConfig, BASELINE, ExclusionMode
from repro.system.simulator import ENGINE_ENV_VAR, simulate
from repro.system.vector import (
    simulate_vector,
    vector_ineligibility,
    vector_supported,
)
from repro.workloads.spec_analogs import EVAL_SUITE, build
from repro.workloads.trace import Trace


def canon(stats) -> str:
    """Canonical byte string for equality: sorted-keys JSON of as_dict."""
    return json.dumps(stats.as_dict(), sort_keys=True)


def machine_with_assoc(assoc: int, base: MachineConfig = PAPER_MACHINE):
    """The base machine with its L1 widened to ``assoc`` ways."""
    return replace(base, l1=replace(base.l1, assoc=assoc))


#: References as (block, is_load, gap) so the random traces exercise the
#: writeback algebra and the issue-gap timing replay, not just hits.
sim_refs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1023),
        st.booleans(),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=400,
)


def make_trace(refs) -> Trace:
    return Trace(
        [b * 64 for b, _, _ in refs],
        is_load=[ld for _, ld, _ in refs],
        gaps=[g for _, _, g in refs],
        name="prop",
    )


class TestByteIdentity:
    """vector == scalar, byte for byte, over random and suite traces."""

    @settings(max_examples=40, deadline=None)
    @given(refs=sim_refs, data=st.data())
    def test_random_traces_random_warmup(self, refs, data):
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) - 1))
        trace = make_trace(refs)
        scalar = simulate(trace, BASELINE, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, BASELINE, warmup=warmup)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=40, deadline=None)
    @given(refs=sim_refs, data=st.data())
    def test_random_traces_random_assoc(self, refs, data):
        # The general set-associative pass (deaths-FIFO victims) against
        # the scalar per-way LRU replay, over every supported width.
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) - 1))
        assoc = data.draw(st.sampled_from([1, 2, 4, 8]))
        machine = machine_with_assoc(assoc)
        trace = make_trace(refs)
        scalar = simulate(trace, BASELINE, machine, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, BASELINE, machine, warmup=warmup)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=15, deadline=None)
    @given(refs=sim_refs, data=st.data())
    def test_random_traces_partial_tags_assoc(self, refs, data):
        # Partial MCT tags bias classification toward conflict — the
        # stress case for the victim-tag masking in the associative pass.
        bits = data.draw(st.sampled_from([1, 4, 8, 63]))
        policy = AssistConfig(name=f"tag{bits}", mct_tag_bits=bits)
        machine = machine_with_assoc(data.draw(st.sampled_from([2, 4])))
        trace = make_trace(refs)
        scalar = simulate(trace, policy, machine, warmup=0, engine="scalar")
        vector = simulate_vector(trace, policy, machine, warmup=0)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=10, deadline=None)
    @given(refs=sim_refs)
    def test_random_traces_slow_bus(self, refs):
        trace = make_trace(refs)
        scalar = simulate(
            trace, BASELINE, SLOW_BUS_MACHINE, warmup=0, engine="scalar"
        )
        vector = simulate_vector(trace, BASELINE, SLOW_BUS_MACHINE, warmup=0)
        assert canon(vector) == canon(scalar)

    @settings(max_examples=10, deadline=None)
    @given(refs=sim_refs)
    def test_random_traces_slow_bus_assoc(self, refs):
        machine = machine_with_assoc(4, SLOW_BUS_MACHINE)
        trace = make_trace(refs)
        scalar = simulate(trace, BASELINE, machine, warmup=0, engine="scalar")
        vector = simulate_vector(trace, BASELINE, machine, warmup=0)
        assert canon(vector) == canon(scalar)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    @pytest.mark.parametrize("warmup", [0, 1, 1500])
    def test_suite_benchmarks(self, bench, warmup):
        trace = build(bench, 6_000, 0)
        scalar = simulate(trace, BASELINE, warmup=warmup, engine="scalar")
        vector = simulate(trace, BASELINE, warmup=warmup, engine="vector")
        assert canon(vector) == canon(scalar)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    @pytest.mark.parametrize("assoc", [2, 4, 8])
    def test_suite_benchmarks_assoc(self, bench, assoc):
        machine = machine_with_assoc(assoc)
        trace = build(bench, 6_000, 0)
        scalar = simulate(trace, BASELINE, machine, warmup=500, engine="scalar")
        vector = simulate(trace, BASELINE, machine, warmup=500, engine="vector")
        assert canon(vector) == canon(scalar)

    def test_general_pass_subsumes_direct_mapped(self):
        # At assoc == 1 the kernel's deaths-FIFO pass and its
        # shift-compare fast path must produce identical flag arrays —
        # the dispatch choice between them is purely a performance
        # decision.
        import numpy as np

        from repro.core.kernel import direct_mapped_pass, set_assoc_pass

        trace = build("gcc", 5_000, 1)
        blocks = trace.addresses >> PAPER_MACHINE.l1.offset_bits
        writes = np.logical_not(trace.is_load)
        for tag_bits in (None, 3):
            dm = direct_mapped_pass(
                blocks, PAPER_MACHINE.l1, tag_bits, writes,
                victim_fills=True, next_in_set=True,
            )
            general = set_assoc_pass(
                blocks, PAPER_MACHINE.l1, tag_bits, writes,
                victim_fills=True, next_in_set=True,
            )
            for name, a, b in zip(dm._fields, dm, general):
                assert np.array_equal(a, b), (name, tag_bits)


#: Mostly blocks that crowd a few L1 sets (every 32nd block), so lines
#: bounce between L1 and the victim buffer, swaps sit next to full
#: misses, and the buffer fills and evicts constantly.
hybrid_refs = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=47).map(lambda b: b * 32),
            st.integers(min_value=0, max_value=1023),
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=400,
)

#: Longer traces where a dozen blocks crowd three L1 sets, so lines come
#: back from the victim buffer often and no-swap hits knock sets off the
#: kernel's pass, rejoin and diverge again within one example.
no_swap_refs = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=11).map(
                lambda b: (b % 3) * 64 + (b // 3) * 256
            ),
            st.integers(min_value=0, max_value=1023),
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=30,
    max_size=400,
)

#: One MSHR: buffer hits ride the window rule without holding one, so a
#: full miss behind a swap must stall on the earlier full miss only.
TIGHT_MSHR_MACHINE = replace(
    PAPER_MACHINE, timing=replace(PAPER_MACHINE.timing, mshrs=1)
)


class TestHybridByteIdentity:
    """Swap-always victim caches: kernel L1 + miss-stream buffer replay.

    The buffer stage only ever sees L1 misses, so these tests lean on
    store-heavy random traces (dirty bits carried through swaps), tiny
    buffers (constant LRU eviction), partial MCT tags (conflict bits
    that steer the fill filter) and scarce MSHRs, against the scalar
    reference.
    """

    @settings(max_examples=60, deadline=None)
    @given(refs=hybrid_refs, data=st.data())
    def test_random_traces(self, refs, data):
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) - 1))
        base = data.draw(
            st.sampled_from([PAPER_MACHINE, SLOW_BUS_MACHINE, TIGHT_MSHR_MACHINE])
        )
        machine = machine_with_assoc(data.draw(st.sampled_from([1, 2, 4, 8])), base)
        policy = AssistConfig(
            name="hybrid",
            buffer_entries=data.draw(st.sampled_from([1, 2, 8])),
            victim_fills=True,
            victim_fill_filter=data.draw(
                st.sampled_from([None, ConflictFilter.OR_CONFLICT])
            ),
            mct_tag_bits=data.draw(st.sampled_from([1, 3, None])),
        )
        assert vector_supported(policy, machine)
        trace = make_trace(refs)
        scalar = simulate(trace, policy, machine, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, policy, machine, warmup=warmup)
        assert canon(vector) == canon(scalar)

    def test_buffer_hit_holds_no_mshr(self):
        # A (miss), B (miss, evicts A to the buffer), A (swap), C (miss):
        # with one MSHR, C must wait for B's completion — the swap's
        # buffer read is in flight too, but holds no MSHR.
        trace = make_trace([(0, True, 0), (256, True, 0), (0, True, 0), (5000, True, 0)])
        policy = victim.traditional()
        scalar = simulate(trace, policy, TIGHT_MSHR_MACHINE, engine="scalar")
        vector = simulate_vector(trace, policy, TIGHT_MSHR_MACHINE)
        assert scalar.buffer.swaps == 1
        assert canon(vector) == canon(scalar)

    @pytest.mark.parametrize("bench", EVAL_SUITE)
    @pytest.mark.parametrize(
        "policy", victim.figure3_policies() + [amb.vict()], ids=lambda p: p.name
    )
    def test_suite_fig3_policies(self, bench, policy):
        # All four bars of Figure 3 and the AMB's Vict run on the vector
        # engine under auto and must come out as the scalar engine's.
        assert vector_supported(policy, PAPER_MACHINE)
        trace = build(bench, 4_000, 0)
        scalar = simulate(trace, policy, warmup=1_000, engine="scalar")
        auto = simulate(trace, policy, warmup=1_000, engine="auto")
        assert canon(auto) == canon(scalar)

    def test_experiment_tables(self, monkeypatch):
        # The Figure 3, Table 1 and Figure 6 tables the campaign
        # publishes, end to end through the experiment code, under both
        # engines (Figure 6 mixes vector Vict with scalar prefetch and
        # exclusion cells).
        from repro.experiments import fig3_victim, fig6_amb, table1_victim
        from repro.experiments.base import ExperimentParams

        params = ExperimentParams(
            n_refs=5_000, warmup=1_500, seed=2, suite=["tomcatv", "gcc"]
        )

        def tables(engine):
            monkeypatch.setenv(ENGINE_ENV_VAR, engine)
            return [
                json.dumps(module.run(params).to_dict(), sort_keys=True)
                for module in (fig3_victim, table1_victim, fig6_amb)
            ]

        assert tables("auto") == tables("scalar")


class TestNoSwapByteIdentity:
    """No-swap victim caches: sets knocked off the kernel are walked.

    A buffer hit served without a swap leaves the set holding its old
    line while the kernel's pass installed the missed one; the engine
    walks that set reference by reference until a fill evicts the
    kernel's block.  Crowded sets, stores, tiny buffers, partial tags
    and every swap and fill rule stress the diverge/rejoin bookkeeping
    against the scalar reference.
    """

    @settings(max_examples=80, deadline=None)
    @given(refs=no_swap_refs, data=st.data())
    def test_random_traces(self, refs, data):
        warmup = data.draw(st.integers(min_value=0, max_value=len(refs) // 2))
        machine = data.draw(
            st.sampled_from([PAPER_MACHINE, SLOW_BUS_MACHINE, TIGHT_MSHR_MACHINE])
        )
        swap_rule = data.draw(st.sampled_from(ALL_FILTERS + ("never",)))
        policy = AssistConfig(
            name="no-swap",
            buffer_entries=data.draw(st.sampled_from([1, 2, 8])),
            victim_fills=True,
            victim_fill_filter=data.draw(st.sampled_from((None,) + ALL_FILTERS)),
            victim_swap=swap_rule != "never",
            victim_no_swap_filter=None if swap_rule == "never" else swap_rule,
            mct_tag_bits=data.draw(st.sampled_from([1, 3, None])),
        )
        assert vector_supported(policy, machine)
        trace = make_trace(refs)
        scalar = simulate(trace, policy, machine, warmup=warmup, engine="scalar")
        vector = simulate_vector(trace, policy, machine, warmup=warmup)
        assert canon(vector) == canon(scalar)

    def test_diverge_rejoin_diverge(self):
        # Blocks A..D share set 0 of the 256-set L1; nothing ever swaps.
        a, b, c, d = 0, 256, 512, 768
        trace = make_trace(
            [
                (a, True, 1),
                (b, True, 2),  # A -> buffer
                (a, True, 0),  # served from the buffer: set 0 diverges
                (b, False, 3),  # store: an L1 hit here, a kernel miss
                (a, True, 1),  # served again; the kernel evicts B here
                (c, True, 0),  # evicts the dirty B: the store's writeback
                (d, True, 2),  # evicts C as the kernel does: rejoin
                (c, True, 0),  # served from the buffer: diverges again
                (d, True, 1),
                (1, False, 0),  # another set, on the kernel's pass
            ]
        )
        policy = AssistConfig(
            name="never swap", buffer_entries=8, victim_fills=True, victim_swap=False
        )
        scalar = simulate(trace, policy, engine="scalar")
        assert scalar.buffer.hits == 3 and scalar.buffer.swaps == 0
        assert scalar.l1.hits == 2 and scalar.l1.writebacks == 1
        assert canon(simulate_vector(trace, policy)) == canon(scalar)



#: Policies whose victim hits are (sometimes) served without a swap.
NO_SWAP_PRESETS = (victim.filter_swaps(), victim.filter_both(), amb.vict())


class TestEngineDispatch:
    def test_vector_supported_gating(self):
        assert vector_supported(BASELINE, PAPER_MACHINE)
        # A swap-always victim cache leaves L1 residency to the kernel,
        # so the hybrid engine runs it on DM and set-associative L1s ...
        for machine in (PAPER_MACHINE, machine_with_assoc(4)):
            assert vector_supported(victim.traditional(), machine)
            assert vector_supported(victim.filter_fills(), machine)
        # ... a no-swap rule knocks sets off the kernel, which a
        # direct-mapped set rejoins but an LRU stack could not.
        four_way = machine_with_assoc(4)
        for policy in NO_SWAP_PRESETS:
            assert vector_supported(policy, PAPER_MACHINE)
            assert not vector_supported(policy, four_way)
            reason = vector_ineligibility(policy, four_way)
            assert reason is not None and "4-way" in reason
        # Prefetch, exclusion and raw buffers stay scalar on any L1.
        for policy in (amb.pref(), amb.excl(), amb.vict_pref()):
            for machine in (PAPER_MACHINE, four_way):
                assert not vector_supported(policy, machine)
        raw = AssistConfig(name="raw", buffer_entries=4)
        assert not vector_supported(raw, PAPER_MACHINE)
        # A set-associative L1 never disqualifies a bufferless run: the
        # general pass replays per-set LRU with stack distances.
        l2ish = replace(PAPER_MACHINE, l1=PAPER_MACHINE.l2)
        assert vector_supported(BASELINE, l2ish)
        assert vector_supported(BASELINE, machine_with_assoc(8))

    @pytest.mark.parametrize(
        ("policy_kwargs", "expect"),
        [
            (
                {
                    "victim_fills": True,
                    "victim_no_swap_filter": ConflictFilter.OR_CONFLICT,
                },
                "or-conflict no-swap filter",
            ),
            ({"victim_fills": True, "victim_swap": False}, "victim_swap=False"),
            ({"prefetch": True}, "next-line prefetch"),
            ({"exclusion": ExclusionMode.CAPACITY}, "capacity exclusion"),
            ({}, "raw assist buffer"),
        ],
        ids=["no-swap-filter", "no-swap", "prefetch", "exclusion", "raw-buffer"],
    )
    def test_ineligibility_blames_the_feature(self, policy_kwargs, expect):
        # On a 2-way L1, where a no-swap rule disqualifies as well.
        policy = AssistConfig(name="culprit", buffer_entries=4, **policy_kwargs)
        reason = vector_ineligibility(policy, machine_with_assoc(2))
        assert reason is not None
        assert expect in reason
        assert "'culprit'" in reason

    def test_ineligibility_names_every_feature(self):
        policy = AssistConfig(
            name="kitchen-sink",
            buffer_entries=8,
            victim_fills=True,
            victim_no_swap_filter=ConflictFilter.IN_CONFLICT,
            prefetch=True,
            exclusion=ExclusionMode.CONFLICT,
        )
        reason = vector_ineligibility(policy, machine_with_assoc(2))
        assert reason is not None
        for feature in (
            "in-conflict no-swap filter",
            "next-line prefetch",
            "conflict exclusion",
        ):
            assert feature in reason

    def test_eligible_policy_has_no_ineligibility_reason(self):
        for machine in (PAPER_MACHINE, machine_with_assoc(4)):
            assert vector_ineligibility(BASELINE, machine) is None
            assert vector_ineligibility(victim.traditional(), machine) is None
            assert vector_ineligibility(victim.filter_fills(), machine) is None
        never_swap = AssistConfig(
            name="never swap", buffer_entries=4, victim_fills=True, victim_swap=False
        )
        for policy in NO_SWAP_PRESETS + (never_swap,):
            assert vector_ineligibility(policy, PAPER_MACHINE) is None

    def test_unknown_engine_rejected(self):
        trace = build("gcc", 100, 0)
        with pytest.raises(ValueError, match="bogus"):
            simulate(trace, BASELINE, engine="bogus")

    def test_vector_demand_raises_with_blame(self):
        # engine="vector" is a demand, not a preference: an ineligible
        # cell must fail loudly and say which feature forced scalar.
        trace = build("gcc", 2_000, 0)
        two_way = machine_with_assoc(2)
        with pytest.raises(ValueError, match="assist buffer") as excinfo:
            simulate(
                trace, victim.filter_both(), two_way, warmup=100, engine="vector"
            )
        assert "engine='auto'" in str(excinfo.value)
        assert "2-way" in str(excinfo.value)

    def test_simulate_vector_raises_with_blame(self):
        trace = build("gcc", 500, 0)
        with pytest.raises(ValueError, match="not vector-eligible"):
            simulate_vector(
                trace, victim.filter_both(), machine_with_assoc(2), warmup=0
            )

    def test_auto_falls_back_for_unsupported_policy(self):
        trace = build("gcc", 2_000, 0)
        policy = victim.filter_both()
        two_way = machine_with_assoc(2)
        auto = simulate(trace, policy, two_way, warmup=100, engine="auto")
        scalar = simulate(trace, policy, two_way, warmup=100, engine="scalar")
        assert canon(auto) == canon(scalar)

    def test_env_var_steers_auto_but_not_explicit(self, monkeypatch):
        trace = build("swim", 2_000, 0)
        monkeypatch.setenv(ENGINE_ENV_VAR, "scalar")
        via_env = simulate(trace, BASELINE, warmup=100)
        scalar = simulate(trace, BASELINE, warmup=100, engine="scalar")
        assert canon(via_env) == canon(scalar)
        # Explicit engine= wins over the environment.
        monkeypatch.setenv(ENGINE_ENV_VAR, "vector")
        explicit = simulate(trace, BASELINE, warmup=100, engine="scalar")
        assert canon(explicit) == canon(scalar)

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            simulate(build("gcc", 100, 0), BASELINE)


class TestInstrumentedCampaign:
    """A metrics-on vector run emits the same event stream contract."""

    def _run(
        self,
        tmp_path,
        engine,
        heartbeat_every=512,
        machine=PAPER_MACHINE,
        policy=BASELINE,
        tag="",
    ):
        path = tmp_path / f"events_{engine}{tag}.jsonl"
        trace = build("gcc", 4_000, 3)
        obs_events.activate(
            ObsConfig(events_path=str(path), heartbeat_every=heartbeat_every),
            cell="vector-test",
        )
        try:
            stats = simulate(trace, policy, machine, warmup=500, engine=engine)
        finally:
            obs_events.deactivate()
        return path, stats

    @staticmethod
    def _canonical_events(path):
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        volatile = {"ts", "pid", "sim", "wall_s", "refs_per_sec"}
        return [
            {k: v for k, v in e.items() if k not in volatile} for e in events
        ]

    def test_event_streams_identical(self, tmp_path):
        vec_path, vec_stats = self._run(tmp_path, "vector")
        sc_path, sc_stats = self._run(tmp_path, "scalar")
        assert canon(vec_stats) == canon(sc_stats)
        assert self._canonical_events(vec_path) == self._canonical_events(
            sc_path
        )

    def test_event_streams_identical_assoc(self, tmp_path):
        # Same contract on a 2-way L1, where the general set-associative
        # pass (not the shift-compare fast path) feeds the replay.
        machine = machine_with_assoc(2)
        vec_path, vec_stats = self._run(tmp_path, "vector", machine=machine)
        sc_path, sc_stats = self._run(tmp_path, "scalar", machine=machine)
        assert canon(vec_stats) == canon(sc_stats)
        assert self._canonical_events(vec_path) == self._canonical_events(
            sc_path
        )

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_event_streams_identical_victim_cache(self, tmp_path, assoc):
        # The hybrid buffered engine: heartbeats carry live buffer
        # counters (buffer_hit_rate included), read off prefix sums.
        machine = machine_with_assoc(assoc)
        policy = victim.traditional()
        vec_path, vec_stats = self._run(
            tmp_path, "vector", machine=machine, policy=policy
        )
        sc_path, sc_stats = self._run(
            tmp_path, "scalar", machine=machine, policy=policy
        )
        assert canon(vec_stats) == canon(sc_stats)
        vec_events = self._canonical_events(vec_path)
        assert vec_events == self._canonical_events(sc_path)
        beats = [e for e in vec_events if e["type"] == "heartbeat"]
        assert beats and any(b["buffer_hit_rate"] > 0 for b in beats)
        events, _ = validate_lines(vec_path.read_text().splitlines())
        assert reconcile_events(events) == (1, [])

    def test_event_streams_identical_no_swap(self, tmp_path):
        # filter both on DM: walked sets feed the heartbeats' buffer and
        # L1 counters too.
        policy = victim.filter_both()
        vec_path, vec_stats = self._run(tmp_path, "vector", policy=policy)
        sc_path, sc_stats = self._run(tmp_path, "scalar", policy=policy)
        assert canon(vec_stats) == canon(sc_stats)
        assert sc_stats.buffer.swaps < sc_stats.buffer.hits
        vec_events = self._canonical_events(vec_path)
        assert vec_events == self._canonical_events(sc_path)
        beats = [e for e in vec_events if e["type"] == "heartbeat"]
        assert beats and any(b["buffer_hit_rate"] > 0 for b in beats)
        events, _ = validate_lines(vec_path.read_text().splitlines())
        assert reconcile_events(events) == (1, [])

    def test_auto_fallback_emits_blame_event(self, tmp_path):
        policy = victim.filter_both()
        path, _ = self._run(
            tmp_path, "auto", machine=machine_with_assoc(2), policy=policy,
            tag="_fallback",
        )
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        falls = [e for e in events if e["type"] == "engine_fallback"]
        assert len(falls) == 1
        assert falls[0]["policy"] == policy.name
        assert "assist buffer" in falls[0]["reason"]
        # The extra event must not break stream reconciliation.
        assert reconcile_events(events) == (1, [])

    def test_eligible_auto_run_emits_no_fallback_event(self, tmp_path):
        path, _ = self._run(tmp_path, "auto", tag="_eligible")
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        assert [e for e in events if e["type"] == "engine_fallback"] == []

    def test_validate_reconcile_cli_passes(self, tmp_path, capsys):
        path, _ = self._run(tmp_path, "vector")
        assert validate_main([str(path), "--reconcile"]) == 0
        events, _ = validate_lines(path.read_text().splitlines())
        assert reconcile_events(events) == (1, [])

    def test_wall_time_covers_the_passes(self, tmp_path):
        # sim_end.wall_s must time the simulation, not just the emission
        # walk after the passes: the ticker starts before the L1 pass.
        import time

        path = tmp_path / "events_wall.jsonl"
        trace = build("tomcatv", 200_000, 3)
        obs_events.activate(
            ObsConfig(events_path=str(path), heartbeat_every=50_000),
            cell="vector-wall",
        )
        try:
            start = time.perf_counter()
            simulate(trace, BASELINE, warmup=1_000, engine="vector")
            elapsed = time.perf_counter() - start
        finally:
            obs_events.deactivate()
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        (end,) = [e for e in events if e["type"] == "sim_end"]
        assert end["wall_s"] >= 0.5 * elapsed

    def test_heartbeat_cadence_preserved(self, tmp_path):
        path, _ = self._run(tmp_path, "vector", heartbeat_every=700)
        events, problems = validate_lines(path.read_text().splitlines())
        assert problems == []
        beats = [e for e in events if e["type"] == "heartbeat"]
        # 3500 measured refs at a 700 cadence: beats at 700..2800 (the
        # 3500 boundary is the end of the run, which emits sim_end, not
        # a heartbeat) — the vector engine replays the same contract.
        assert [b["refs_done"] for b in beats] == [700, 1400, 2100, 2800]
