"""Tests for the streaming session runtime (clock → source → stages)."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.core.pipeline import (
    EavesdropAttack,
    run_sessions,
    simulate_credential_entry,
)
from repro.core.service import MonitoringService
from repro.faults import FaultPlan
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import (
    DEFAULT_INTERVAL_S,
    PerfCounterSampler,
    ReadBatch,
    nonzero_deltas_vectorized,
)
from repro.runtime import (
    RuntimeTrace,
    SamplerDeltaSource,
    Session,
    SessionRuntime,
    VirtualClock,
)
from tests.oracles import IterableSource, nonzero_deltas, sample_range

CID = pc.RAS_8X4_TILES.counter_id


def timeline_with_frames(times, amount=4000, render_time=0.0005):
    timeline = RenderTimeline()
    for t in times:
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, amount)
        timeline.add_render(
            t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time)
        )
    return timeline


def make_sampler(timeline, seed=0, interval=DEFAULT_INTERVAL_S):
    dev = open_kgsl(timeline, clock=DeviceClock())
    return PerfCounterSampler(dev, interval_s=interval, rng=np.random.default_rng(seed))


class TestVirtualClock:
    def test_advance_to_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(1.5)
        assert clock.now == 1.5

    def test_advance_to_clamps_backwards(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        clock.advance_to(1.0)
        assert clock.now == 2.0

    def test_device_clock_compatible(self):
        clock = VirtualClock()
        clock.set(0.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(0.75)
        with pytest.raises(ValueError):
            clock.set(0.1)
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestRuntimeTrace:
    def test_counters_and_selection(self):
        trace = RuntimeTrace()
        trace.emit(0.1, "s1", "engine", "key", char="a")
        trace.emit(0.2, "s1", "engine", "key", char="b")
        trace.emit(0.3, "s2", "engine", "noise")
        assert trace.count(kind="key") == 2
        assert trace.count() == 3
        assert [
            e.detail["char"] for e in trace.events if e.kind == "key" and e.session == "s1"
        ] == ["a", "b"]
        assert {k: n for (s, k), n in trace.counters.items() if s == "engine"} == {
            "key": 2,
            "noise": 1,
        }
        assert trace.summary() == {"engine.key": 2, "engine.noise": 1}

    def test_ring_capacity_bounds_events_not_counters(self):
        trace = RuntimeTrace(capacity=3)
        for i in range(10):
            trace.emit(float(i), "s", "stage", "tick")
        assert len(trace) == 3
        assert trace.events_dropped == 7
        assert trace.count(kind="tick") == 10
        assert [e.t for e in trace.events] == [7.0, 8.0, 9.0]


def read_batch(times, values):
    """A batch of reads of one counter (``CID``), every other counter 0."""
    rows = np.zeros((len(times), len(COUNTER_ORDER)), dtype=np.int64)
    rows[:, COUNTER_ORDER.index(CID)] = values
    times = np.asarray(times, dtype=float)
    return ReadBatch(times, times, rows, np.zeros(rows.shape, dtype=bool))


class TestVectorizedExtraction:
    def test_matches_scalar_path(self):
        samples = sample_range(
            make_sampler(timeline_with_frames([0.1, 0.3, 0.5]), seed=11), 0.0, 1.0
        )
        sampler = make_sampler(timeline_with_frames([0.1, 0.3, 0.5]), seed=11)
        [batch] = sampler.iter_batches(0.0, 1.0, chunk=len(samples))
        assert nonzero_deltas_vectorized(batch) == nonzero_deltas(samples)

    def test_chunk_boundary_with_prev(self):
        samples = sample_range(make_sampler(timeline_with_frames([0.1, 0.3]), seed=12), 0.0, 0.6)
        expected = nonzero_deltas(samples)
        sampler = make_sampler(timeline_with_frames([0.1, 0.3]), seed=12)
        first, second = sampler.iter_batches(0.0, 0.6, chunk=len(samples) // 2 + 1)
        got = nonzero_deltas_vectorized(first) + nonzero_deltas_vectorized(second, prev=first)
        assert got == expected

    def test_masked_counters_match_scalar_path(self):
        # reclaimed registers mask counters mid-run: a delta leaves a
        # counter masked at either end out of its values, like the
        # scalar masked_delta oracle
        plan = FaultPlan(reclaim_rate_hz=8.0, reclaim_window_s=0.05)

        def sampler():
            timeline = RenderTimeline()
            for i in range(1, 40):
                inc = pc.CounterIncrement()
                for spec in pc.SELECTED_COUNTERS:
                    inc.add(spec, 100 * i)
                timeline.add_render(
                    0.025 * i, FrameStats(increment=inc, pixels_touched=1, render_time_s=0.003)
                )
            dev = open_kgsl(timeline, clock=DeviceClock(), interposers=(plan.injector(),))
            return PerfCounterSampler(dev, rng=np.random.default_rng(13))

        expected = nonzero_deltas(sample_range(sampler(), 0.0, 1.0))
        assert any(delta.missing for delta in expected)
        got, prev = [], None
        for batch in sampler().iter_batches(0.0, 1.0, chunk=7):
            got += nonzero_deltas_vectorized(batch, prev=prev)
            prev = batch
        assert got == expected

    def test_wraparound_handled(self):
        wrap = pc.WRAP
        [delta] = nonzero_deltas_vectorized(read_batch([0.0, 0.008], [wrap - 5, 3]))
        assert delta.values[CID] == 8

    def test_short_inputs(self):
        assert nonzero_deltas_vectorized(read_batch([], [])) == []
        assert nonzero_deltas_vectorized(read_batch([0.0], [1])) == []


class TestSamplerDeltaSource:
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_equivalent_to_batch_sampling(self, chunk):
        timeline = timeline_with_frames([0.1, 0.25, 0.4, 0.7])
        reference = make_sampler(timeline, seed=5)
        expected = nonzero_deltas(sample_range(reference, 0.0, 1.0))

        streamed_sampler = make_sampler(timeline_with_frames([0.1, 0.25, 0.4, 0.7]), seed=5)
        source = SamplerDeltaSource(streamed_sampler, 0.0, 1.0, chunk=chunk)
        got = [payload for _, payload in source.events()]
        assert got == expected
        assert source.deltas_emitted == len(expected)
        assert source.reads_issued == reference.reads_issued

    def test_lazy_pull_stops_sampling(self):
        sampler = make_sampler(timeline_with_frames([0.1, 0.9]), seed=6)
        source = SamplerDeltaSource(sampler, 0.0, 2.0, chunk=1)
        stream = source.events()
        next(stream)  # first nonzero delta, around t=0.1
        assert sampler.reads_issued < 30, "reads beyond the first event not issued"

    def test_abandoned_batch_counts_only_yielded_deltas(self, monkeypatch):
        """The source stamps a whole batch's gap flags before yielding
        it; a mode switch that abandons the batch part way must still
        leave the tallies counting only the deltas actually yielded."""
        sampler = make_sampler(timeline_with_frames(np.arange(0.05, 0.9, 0.004)), seed=8)
        monkeypatch.setattr(SamplerDeltaSource, "GAP_FACTOR", 1.02)
        source = SamplerDeltaSource(sampler, 0.0, 1.0, chunk=64)
        limit = source.GAP_FACTOR * sampler.interval_s
        stream = source.events()
        yielded = [next(stream)[1] for _ in range(10)]
        stream.close()
        rest = source.batch[source.cursor + 1 :]
        assert any(d.t - d.prev_t > limit for d in rest), "the abandoned tail holds gaps"
        assert source.deltas_emitted == 10
        assert source.gaps_detected == sum(d.t - d.prev_t > limit for d in yielded)
        assert all(d.gap for d in yielded if d.t - d.prev_t > limit)

    def test_chunk_validation(self):
        sampler = make_sampler(timeline_with_frames([]))
        with pytest.raises(ValueError):
            SamplerDeltaSource(sampler, 0.0, 1.0, chunk=0)


class _Collect:
    """Terminal stage: records every event it sees."""

    name = "collect"

    def __init__(self):
        self.seen = []
        self.ended_at = None

    def on_event(self, session, t, payload):
        self.seen.append((session.id, t, payload))

    def on_end(self, session, t):
        self.ended_at = t
        session.result = [p for (_, _, p) in self.seen]


class TestSessionRuntime:
    def test_single_session_dispatch_and_result(self):
        collect = _Collect()
        runtime = SessionRuntime()
        session = runtime.add_session(
            Session("s", IterableSource([(0.1, "a"), (0.2, "b")]), collect)
        )
        trace = runtime.run()
        assert session.finished
        assert session.result == ["a", "b"]
        assert collect.ended_at == 0.2
        assert runtime.clock.now == pytest.approx(0.2)
        assert trace.count(kind="session_start") == 1
        assert trace.count(kind="session_end") == 1

    def test_sessions_interleave_in_time_order(self):
        order = []

        class Record:
            name = "record"

            def on_event(self, session, t, payload):
                order.append((session.id, t))

            def on_end(self, session, t):
                pass

        runtime = SessionRuntime()
        runtime.add_session(
            Session("slow", IterableSource([(0.5, 1), (1.5, 2)]), Record())
        )
        runtime.add_session(
            Session("fast", IterableSource([(0.1, 1), (0.2, 2), (0.3, 3)]), Record())
        )
        runtime.run()
        # the scheduler always advances the session furthest behind, so
        # all of fast's early events land before slow's second one
        assert order.index(("fast", 0.3)) < order.index(("slow", 1.5))
        assert runtime.clock.now == pytest.approx(1.5)

    def test_mode_switch_replaces_source_and_stages(self):
        collect = _Collect()

        class Escalate:
            name = "escalate"

            def on_event(self, session, t, payload):
                if payload == "go":
                    session.switch_mode(
                        IterableSource([(t + 1.0, "after1"), (t + 2.0, "after2")]),
                        collect,
                    )

            def on_end(self, session, t):
                pass

        runtime = SessionRuntime()
        session = runtime.add_session(
            Session(
                "svc",
                IterableSource([(0.1, "idle"), (0.2, "go"), (0.3, "abandoned")]),
                Escalate(),
            )
        )
        trace = runtime.run()
        assert session.result == ["after1", "after2"]
        assert session.mode_switches == 1
        assert trace.count(kind="mode_switch") == 1
        # the pre-switch tail is never consumed
        assert all(p != "abandoned" for (_, _, p) in collect.seen)

    def test_empty_source_still_finishes(self):
        collect = _Collect()
        runtime = SessionRuntime()
        session = runtime.add_session(Session("s", IterableSource([]), collect))
        runtime.run()
        assert session.finished
        assert session.result == []

    def test_mode_switch_from_on_end_raises(self):
        class EscalateAtEnd(_Collect):
            def on_end(self, session, t):
                session.switch_mode(IterableSource([(t + 1.0, "late")]), _Collect())

        runtime = SessionRuntime()
        runtime.add_session(Session("s", IterableSource([(0.1, "a")]), EscalateAtEnd()))
        with pytest.raises(RuntimeError, match="switch_mode called from on_end"):
            runtime.run()


class TestFeedBatchParity:
    """`feed()`-driven inference must equal batch `feed_many()` exactly."""

    @pytest.mark.parametrize(
        "text,seed",
        [
            ("secretpw1", 101),
            ("Tr0ub4dor&3", 202),
            ("aa..bb!!", 303),
        ],
    )
    def test_feed_equals_process(self, chase_model, config, text, seed):
        from repro.core.online import OnlineEngine

        trace = simulate_credential_entry(config, app("chase"), text, seed=seed)
        kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(seed + 1))
        stream = nonzero_deltas(sample_range(sampler, 0.0, trace.end_time_s))

        batch_engine = OnlineEngine(chase_model)
        batch_engine.feed_many(stream)
        batch = batch_engine.finish()

        streaming_engine = OnlineEngine(chase_model)
        streaming_engine.begin()
        for delta in stream:
            streaming_engine.feed(delta)
        streamed = streaming_engine.finish()

        assert streamed.keys == batch.keys
        assert streamed.stats == batch.stats
        assert streamed.text == batch.text
        assert streamed.latency.count == batch.latency.count

    def test_feed_with_ambient_load_parity(self, chase_model, config):
        from repro.core.online import OnlineEngine

        trace = simulate_credential_entry(
            config, app("chase"), "noisy1pw", seed=404, gpu_utilization=0.4
        )
        kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(405))
        stream = nonzero_deltas(sample_range(sampler, 0.0, trace.end_time_s))

        batch_engine = OnlineEngine(chase_model)
        batch_engine.feed_many(stream)
        batch = batch_engine.finish()
        engine = OnlineEngine(chase_model)
        for delta in stream:
            engine.feed(delta)
        streamed = engine.finish()
        assert streamed.keys == batch.keys
        assert streamed.stats == batch.stats


class TestPipelineOnRuntime:
    def test_run_on_trace_records_decisions(self, chase_store, config):
        attack = EavesdropAttack(chase_store, recognize_device=False)
        trace = simulate_credential_entry(config, app("chase"), "secretpw1", seed=21)
        log = RuntimeTrace()
        result = attack.run_on_trace(trace, seed=22, runtime_trace=log)
        assert result.text == "secretpw1"
        assert log.counters[("engine", "key")] >= len("secretpw1")
        assert log.count(kind="session_end") == 1

    def test_batch_matches_individual_runs(self, chase_store, config):
        attack = EavesdropAttack(chase_store, recognize_device=False)
        texts = ["secretpw1", "hunter2ab", "passw0rd!"]
        traces = [
            simulate_credential_entry(config, app("chase"), text, seed=30 + i)
            for i, text in enumerate(texts)
        ]
        batched = run_sessions(attack, traces, seed=60)
        individual = [
            attack.run_on_trace(
                simulate_credential_entry(config, app("chase"), text, seed=30 + i),
                seed=60 + i,
            )
            for i, text in enumerate(texts)
        ]
        for got, want in zip(batched, individual):
            assert got.text == want.text
            assert got.online.keys == want.online.keys
            assert got.online.stats == want.online.stats
            assert got.reads_issued == want.reads_issued
            assert got.reads_dropped == want.reads_dropped

    def test_service_trace_shows_mode_switch(self, chase_store, config):
        from repro.android.device import VictimDevice
        from repro.android.events import KeyPress

        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(31))
        events = [KeyPress(t=3.0 + 0.45 * i, char=c) for i, c in enumerate("secret12")]
        trace = device.compile(events, end_time_s=9.0, launch_at_s=1.2)
        log = RuntimeTrace()
        service = MonitoringService(EavesdropAttack(chase_store))
        report = service.run(trace, seed=77, runtime_trace=log)
        assert report.text == "secret12"
        assert log.count(kind="mode_switch") == 1
        assert log.counters[("launch-watch", "launch_detected")] == 1
        assert log.counters[("engine", "key")] >= len("secret12")
