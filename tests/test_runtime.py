"""Tests for the streaming session runtime (clock → source → stages)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apps import app
from repro.core.model_store import ModelStore
from repro.core.pipeline import (
    AttackStage,
    EavesdropAttack,
    run_sessions,
    simulate_credential_entry,
    train_model,
)
from repro.core.service import MonitoringService
from repro.faults import FaultPlan
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.interpose import open_sampler
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
from repro.runtime.source import ATTACK_SOURCE_CHUNK
from tests.oracles import (
    IterableSource,
    Rows,
    batch_deltas,
    batch_samples,
    feed_deltas,
    nonzero_deltas,
    sample_range,
)

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
        assert batch_deltas(nonzero_deltas_vectorized(batch)) == nonzero_deltas(samples)

    def test_chunk_boundary_with_prev(self):
        samples = sample_range(make_sampler(timeline_with_frames([0.1, 0.3]), seed=12), 0.0, 0.6)
        expected = nonzero_deltas(samples)
        sampler = make_sampler(timeline_with_frames([0.1, 0.3]), seed=12)
        first, second = sampler.iter_batches(0.0, 0.6, chunk=len(samples) // 2 + 1)
        got = batch_deltas(nonzero_deltas_vectorized(first)) + batch_deltas(
            nonzero_deltas_vectorized(second, prev=first)
        )
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
            got += batch_deltas(nonzero_deltas_vectorized(batch, prev=prev))
            prev = batch
        assert got == expected

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.floats(0.0, 0.6),
        st.integers(1, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_core_matches_scalar_path_on_masked_batches(self, seed, n, masked, chunk):
        # few distinct values, some at the wrap, so pairs stand still,
        # wrap and meet masks at either end
        rng = np.random.default_rng(seed)
        values = np.array([0, 1, 2, pc.WRAP - 2, pc.WRAP - 1], dtype=np.int64)
        shape = (n, len(COUNTER_ORDER))
        rows = values[rng.integers(0, len(values), shape)]
        mask = rng.random(shape) < masked
        rows[mask] = 0
        times = np.cumsum(rng.uniform(0.001, 0.02, n))
        whole = ReadBatch(times, times, rows, mask)
        expected = nonzero_deltas(batch_samples(whole))
        batches = [
            ReadBatch(*(column[i : i + chunk] for column in whole)) for i in range(0, n, chunk)
        ]
        parts = [nonzero_deltas_vectorized(b, prev) for prev, b in zip([None] + batches, batches)]
        parts = parts or [nonzero_deltas_vectorized(whole)]
        prev_t, t, diffs, unknown = (
            np.concatenate([getattr(part, name) for part in parts])
            for name in ("prev_t", "t", "rows", "unknown")
        )
        assert prev_t.tolist() == [d.prev_t for d in expected]
        assert t.tolist() == [d.t for d in expected]
        assert unknown.tolist() == [[cid in d.missing for cid in COUNTER_ORDER] for d in expected]
        assert diffs.tolist() == [[d.values.get(cid, 0) for cid in COUNTER_ORDER] for d in expected]

    def test_wraparound_handled(self):
        wrap = pc.WRAP
        [delta] = batch_deltas(nonzero_deltas_vectorized(read_batch([0.0, 0.008], [wrap - 5, 3])))
        assert delta.values[CID] == 8

    def test_short_inputs(self):
        assert len(nonzero_deltas_vectorized(read_batch([], []))) == 0
        assert len(nonzero_deltas_vectorized(read_batch([0.0], [1]))) == 0


class TestSamplerDeltaSource:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1024])
    def test_equivalent_to_batch_sampling(self, chunk):
        timeline = timeline_with_frames([0.1, 0.25, 0.4, 0.7])
        reference = make_sampler(timeline, seed=5)
        expected = nonzero_deltas(sample_range(reference, 0.0, 1.0))

        streamed_sampler = make_sampler(timeline_with_frames([0.1, 0.25, 0.4, 0.7]), seed=5)
        source = SamplerDeltaSource(streamed_sampler, 0.0, 1.0, chunk=chunk)
        events = list(source.events())
        got = [delta for _, (batch, lo, hi) in events for delta in batch_deltas(batch)[lo:hi]]
        assert got == expected
        assert all(lo == 0 and hi == len(batch) > 0 for _, (batch, lo, hi) in events)
        assert [t for t, _ in events] == [float(batch.t[0]) for _, (batch, _, _) in events]
        assert source.deltas_emitted == len(expected)
        assert source.reads_issued == reference.reads_issued

    def test_lazy_pull_stops_sampling(self):
        sampler = make_sampler(timeline_with_frames([0.1, 0.9]), seed=6)
        source = SamplerDeltaSource(sampler, 0.0, 2.0, chunk=1)
        stream = source.events()
        next(stream)  # first nonzero delta, around t=0.1
        assert sampler.reads_issued < 30, "reads beyond the first event not issued"

    def test_abandoned_batch_counts_only_yielded_deltas(self, monkeypatch):
        """The source yields a whole batch with its gap flags stamped; a
        mode switch that abandons the batch part way must still leave the
        tallies counting only the deltas the runtime delivered."""
        sampler = make_sampler(timeline_with_frames(np.arange(0.05, 0.9, 0.004)), seed=8)
        monkeypatch.setattr(SamplerDeltaSource, "GAP_FACTOR", 1.02)
        source = SamplerDeltaSource(sampler, 0.0, 1.0, chunk=64)
        limit = source.GAP_FACTOR * sampler.interval_s

        class SwitchAtTenth:
            name = "switch"
            delivered = []

            def on_event(self, session, t, rows):
                batch, lo, hi = rows
                for row in range(lo, hi):
                    self.delivered.append((batch, row))
                    if len(self.delivered) == 10:
                        session.switch_mode(IterableSource([]), _Collect())
                        return row + 1
                return None

            def on_end(self, session, t):
                pass

        stage = SwitchAtTenth()
        runtime = SessionRuntime()
        session = runtime.add_session(Session("s", source, stage))
        runtime.run()
        assert session.events_dispatched == 10
        batch, last = stage.delivered[-1]
        assert all(b is batch for b, _ in stage.delivered), "the ten deltas share one batch"
        span = batch.t - batch.prev_t
        assert (span[last + 1 :] > limit).any(), "the abandoned tail holds gaps"
        assert source.deltas_emitted == 10
        assert source.gaps_detected == int((span[: last + 1] > limit).sum())
        assert batch.gap.tolist() == (span > limit).tolist()

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

    def on_event(self, session, t, rows):
        batch, lo, hi = rows
        for row in range(lo, hi):
            self.seen.append((session.id, float(batch.t[row]), batch.items[row]))

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

            def on_event(self, session, t, rows):
                batch, lo, hi = rows
                order.extend((session.id, t) for t in batch.t[lo:hi].tolist())

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

            def on_event(self, session, t, rows):
                batch, lo, _ = rows
                if batch.items[lo] == "go":
                    session.switch_mode(
                        IterableSource([(t + 1.0, "after1"), (t + 2.0, "after2")]),
                        collect,
                    )
                    return lo + 1
                return None

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

    def test_switch_that_leaves_its_slice_open_raises(self):
        """A stage that switches modes part way through a multi-row slice
        must return the row after the switch; returning ``None`` would
        hand the rest of the slice to the old stage unreported."""

        class SwitchWithoutStop(_Collect):
            def on_event(self, session, t, rows):
                session.switch_mode(IterableSource([]), _Collect())

        class OneBatch:
            def events(self):
                yield (0.1, (Rows([0.1, 0.2, 0.3], ["a", "b", "c"]), 0, 3))

        runtime = SessionRuntime()
        runtime.add_session(Session("s", OneBatch(), SwitchWithoutStop()))
        with pytest.raises(RuntimeError, match="without ending the slice"):
            runtime.run()


class TestFeedBatchParity:
    """Feeding a stream as batches of one must infer exactly what feeding
    it as one batch infers."""

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
        feed_deltas(batch_engine, stream)
        batch = batch_engine.finish()

        streaming_engine = OnlineEngine(chase_model)
        feed_deltas(streaming_engine, stream, chunk=1)
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
        feed_deltas(batch_engine, stream)
        batch = batch_engine.finish()
        engine = OnlineEngine(chase_model)
        feed_deltas(engine, stream, chunk=1)
        streamed = engine.finish()
        assert streamed.keys == batch.keys
        assert streamed.stats == batch.stats


class _ReplayProbe(AttackStage):
    """The attack stage, keeping the buffered events it replays once
    recognition resolves the model."""

    replayed = ()

    def _resolve(self, session, t):
        self.replayed = list(self._pending)
        super()._resolve(session, t)


class TestRecognitionReplay:
    """With more than one stored model the attack stage buffers deltas
    until recognition resolves, then replays them into the engine; at
    ``ATTACK_SOURCE_CHUNK`` the buffer spans read batches and resolves
    part way into one.  Whatever the chunking, the session infers what
    it infers delta by delta."""

    @pytest.fixture(scope="class")
    def two_model_store(self, chase_model, config):
        store = ModelStore()
        store.add(chase_model)
        store.add(train_model(config, app("amex"), seed=8))
        return store

    def run(self, store, trace, chunk):
        attack = EavesdropAttack(store, fault_plan=None)
        sampler = open_sampler(trace, attack.interval_s, np.random.default_rng(12))
        source = SamplerDeltaSource(sampler, 0.0, trace.end_time_s, chunk=chunk)
        stage = _ReplayProbe(attack, source)
        log = RuntimeTrace()
        runtime = SessionRuntime(trace=log)
        session = runtime.add_session(Session("attack", source, stage))
        runtime.run()
        events = [(e.t, e.kind, dict(e.detail)) for e in log.events if e.stage == "engine"]
        return session.result, events, stage.replayed

    def test_replay_across_batches_infers_what_batches_of_one_infer(
        self, two_model_store, chase_model, config
    ):
        trace = simulate_credential_entry(config, app("chase"), "hunter2secret", seed=11)
        one, one_events, _ = self.run(two_model_store, trace, chunk=1)
        got, got_events, replayed = self.run(two_model_store, trace, ATTACK_SOURCE_CHUNK)
        batches = list(dict.fromkeys(batch for batch, _, _ in replayed))
        last_batch, _, last_end = replayed[-1]
        assert len(batches) >= 2, "the buffer must span read batches"
        assert last_end < len(last_batch), "recognition must resolve mid-batch"
        assert got.model_key == one.model_key == chase_model.model_key
        assert got.keys == one.keys
        assert got.stats == one.stats
        assert got_events == one_events
        assert got.text == "hunter2secret"


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
