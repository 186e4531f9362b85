"""Tests for the observability layer (:mod:`repro.obs`).

Covers the instrument primitives, span nesting, the run-manifest
export, and — most importantly — the parity contract: running with the
default no-op registry must be byte-identical to running uninstrumented,
and an *enabled* registry must observe a run without changing it
(mirrors the fault subsystem's disabled-plan contract in
``test_faults.py``).
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apps import app
from repro.api import attack, monitor, run_sessions, simulate
from repro.core.pipeline import SessionBatch
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    NULL_REGISTRY,
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    RunManifest,
    new_latency_histogram,
    resolve_registry,
)
from repro.obs.manifest import SCHEMA
from repro.api import AttackConfig
from repro.faults import FAULT_PROFILE_ENV

CREDENTIAL = "hunter2secret"


@pytest.fixture(scope="module")
def cfg():
    return AttackConfig(recognize_device=False, fault_plan=None)


@pytest.fixture(scope="module")
def trace(config, cfg):
    return simulate(config, app("chase"), CREDENTIAL, seed=11, config=cfg)


def key_sequence(result):
    return [(k.t, k.char, k.deleted) for k in result.online.keys]


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="counters only go up"):
            Counter("x").inc(-1)


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("x")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_bucketing_counts_and_overflow(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # bisect_left: values equal to a bound land in that bound's bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(sum((0.5, 1.0, 1.5, 3.0, 100.0)) / 5)

    def test_fraction_below(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert h.fraction_below(2.0) == pytest.approx(0.5)
        assert h.fraction_below(4.0) == pytest.approx(0.75)
        assert Histogram("empty", buckets=(1.0,)).fraction_below(1.0) == 0.0

    def test_samples_kept_only_on_request(self):
        plain = Histogram("h", buckets=(1.0,))
        plain.observe(0.5)
        assert plain.samples is None
        keeper = new_latency_histogram()
        keeper.observe(1e-5)
        keeper.observe(2e-5)
        assert keeper.samples == [1e-5, 2e-5]
        assert keeper.buckets == DEFAULT_LATENCY_BUCKETS_S

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_to_dict_is_json_ready(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        data = h.to_dict()
        json.dumps(data)
        assert data["count"] == 1 and data["counts"] == [1, 0, 0]


def _bits(value):
    """A float's exact bit pattern (None stays None)."""
    return None if value is None else struct.pack("<d", value)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)


class TestObserveMany:
    @given(
        before=st.lists(FLOATS, max_size=5),
        values=st.lists(FLOATS, max_size=40),
        keep_samples=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_observing_each_value_in_order(self, before, values, keep_samples):
        one, many = (Histogram("h", keep_samples=keep_samples) for _ in range(2))
        for histogram in (one, many):
            for value in before:
                histogram.observe(value)
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert many.counts == one.counts
        assert many.count == one.count
        assert _bits(many.sum) == _bits(one.sum)
        assert _bits(many.min) == _bits(one.min)
        assert _bits(many.max) == _bits(one.max)
        if keep_samples:
            assert [_bits(x) for x in many.samples] == [_bits(x) for x in one.samples]
        else:
            assert many.samples is None

    @given(
        before=st.lists(FLOATS, max_size=3),
        calls=st.lists(
            st.lists(
                st.one_of(st.sampled_from(DEFAULT_LATENCY_BUCKETS_S), FLOATS).flatmap(
                    lambda value: st.lists(st.just(value), min_size=1, max_size=6)
                ),
                max_size=8,
            ).map(lambda runs: [value for run in runs for value in run]),
            max_size=4,
        ),
        keep_samples=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_runs_on_bucket_bounds_equal_observing_each(self, before, calls, keep_samples):
        # the engine hands over runs of one per-lookup share; a value on a
        # bound belongs to that bound's bucket; a call may be empty
        one, many = (Histogram("h", keep_samples=keep_samples) for _ in range(2))
        for histogram in (one, many):
            for value in before:
                histogram.observe(value)
        for values in calls:
            for value in values:
                one.observe(value)
            many.observe_many(values)
        assert many.counts == one.counts
        assert many.count == one.count
        assert _bits(many.sum) == _bits(one.sum)
        assert _bits(many.min) == _bits(one.min)
        assert _bits(many.max) == _bits(one.max)
        if keep_samples:
            assert [_bits(x) for x in many.samples] == [_bits(x) for x in one.samples]
        else:
            assert many.samples is None

    @pytest.mark.parametrize("n", [1, 29, 30, 31, 64])
    def test_both_binning_paths_equal_observing_each(self, n):
        # short calls bin with a bisect per value, long ones in one numpy
        # pass; either way bounds, NaN and infinities land as observe files them
        pool = [*DEFAULT_LATENCY_BUCKETS_S, float("nan"), float("inf"), -float("inf"), 3e-5]
        values = [pool[(7 * k) % len(pool)] for k in range(n)]
        one, many = Histogram("h"), Histogram("h")
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert many.counts == one.counts
        assert _bits(many.sum) == _bits(one.sum)
        assert (_bits(many.min), _bits(many.max)) == (_bits(one.min), _bits(one.max))

    def test_empty_list_is_a_no_op(self):
        h = new_latency_histogram()
        h.observe(2e-5)
        before = (h.to_dict(), list(h.samples))
        h.observe_many([])
        assert (h.to_dict(), h.samples) == before

    def test_null_instrument_swallows_a_batch(self):
        null = NULL_REGISTRY.histogram("x")
        null.observe_many([1e-5, 2e-5])
        assert null.count == 0 and null.sum == 0.0


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert reg.enabled

    def test_snapshot_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc(2)
        reg.counter("a.first").inc(1)
        reg.gauge("mid").set(0.5)
        reg.histogram("lat").observe(1e-5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        assert snap["gauges"] == {"mid": 0.5}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_span_nesting_builds_slash_paths(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
            with reg.span("inner"):
                pass
        spans = reg.spans
        assert set(spans) == {"outer", "outer/inner"}
        assert spans["outer"].count == 1
        assert spans["outer/inner"].count == 2
        assert spans["outer"].total_s >= 0.0

    def test_span_with_injected_clock(self):
        class FakeClock:
            now = 0.0

        clock = FakeClock()
        reg = MetricsRegistry()
        with reg.span("timed", clock=clock):
            clock.now = 2.5
        assert reg.spans["timed"].total_s == pytest.approx(2.5)
        assert reg.spans["timed"].max_s == pytest.approx(2.5)


class TestNullRegistry:
    def test_disabled_and_shared_instruments(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.gauge("a") is NULL_REGISTRY.histogram("b")
        assert NULL_REGISTRY.span("s") is NULL_SPAN

    def test_null_instruments_swallow_everything(self):
        c = NULL_REGISTRY.counter("x")
        c.inc(10)
        c.set(5.0)
        c.observe(1.0)
        assert c.value == 0
        with NULL_REGISTRY.span("s"):
            pass
        assert NULL_REGISTRY.spans == {}
        assert NULL_REGISTRY.snapshot()["counters"] == {}

    def test_resolve_registry(self):
        assert resolve_registry(None) is NULL_REGISTRY
        reg = MetricsRegistry()
        assert resolve_registry(reg) is reg
        null = NullRegistry()
        assert resolve_registry(null) is null
        with pytest.raises(TypeError, match="MetricsRegistry or None"):
            resolve_registry({"not": "a registry"})


class TestRunManifest:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("sampler.reads_issued").inc(7)
        reg.gauge("runtime.wall_s").set(1.25)
        reg.histogram("engine.inference_latency_s").observe(5e-5)
        with reg.span("runtime.run"):
            pass
        return reg

    def test_to_dict_shape(self):
        manifest = self.make_registry().manifest(
            config={"interval_s": 0.008}, command="test", sessions=3
        )
        data = manifest.to_dict()
        assert data["schema"] == SCHEMA == "repro.obs/1"
        assert data["meta"] == {"command": "test", "sessions": 3}
        assert data["config"] == {"interval_s": 0.008}
        assert data["metrics"]["counters"]["sampler.reads_issued"] == 7
        assert data["metrics"]["gauges"]["runtime.wall_s"] == 1.25
        assert data["metrics"]["histograms"]["engine.inference_latency_s"]["count"] == 1
        assert data["spans"]["runtime.run"]["count"] == 1

    def test_accessor_properties(self):
        manifest = self.make_registry().manifest()
        assert manifest.counters["sampler.reads_issued"] == 7
        assert manifest.gauges["runtime.wall_s"] == 1.25
        assert manifest.histograms["engine.inference_latency_s"]["count"] == 1

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = self.make_registry().manifest(command="round-trip")
        manifest.write(path)
        text = path.read_text()
        assert text.endswith("\n")
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_from_dict_rejects_wrong_schema(self):
        data = self.make_registry().manifest().to_dict()
        data["schema"] = "repro.obs/999"
        with pytest.raises(ValueError, match="schema"):
            RunManifest.from_dict(data)


class TestParity:
    """An observed run must be indistinguishable from an unobserved one."""

    def test_enabled_registry_does_not_change_the_attack(
        self, chase_store, trace, cfg, monkeypatch
    ):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        plain = attack(chase_store, trace, seed=101, config=cfg)
        nulled = attack(
            chase_store, trace, seed=101, config=cfg, metrics=NullRegistry()
        )
        observed = attack(
            chase_store, trace, seed=101, config=cfg, metrics=MetricsRegistry()
        )
        for other in (nulled, observed):
            assert other.text == plain.text
            assert key_sequence(other) == key_sequence(plain)
            assert other.reads_issued == plain.reads_issued
            assert other.reads_dropped == plain.reads_dropped
            assert other.stats == plain.stats

    def test_manifest_absent_without_metrics(self, chase_store, trace, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        result = attack(chase_store, trace, seed=101, config=cfg)
        assert result.manifest is None
        batch = run_sessions(chase_store, [trace], seed=101, config=cfg)
        assert batch.manifest is None


class TestManifestIntegration:
    """The facade returns the run manifest with the promised contents."""

    def test_attack_manifest(self, chase_store, trace, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        registry = MetricsRegistry()
        result = attack(chase_store, trace, seed=101, config=cfg, metrics=registry)
        manifest = result.manifest
        assert isinstance(manifest, RunManifest)
        counters = manifest.counters
        assert counters["sampler.reads_issued"] == result.reads_issued > 0
        assert counters["source.deltas_emitted"] > 0
        assert counters["runtime.sessions_completed"] == 1
        assert counters["engine.keys_inferred"] == result.stats.keys_inferred
        hist = manifest.histograms["engine.inference_latency_s"]
        assert hist["count"] == result.latency.count > 0
        assert "runtime.run" in manifest.to_dict()["spans"]
        assert manifest.meta["command"] == "attack"
        assert manifest.config["interval_s"] == cfg.interval_s

    def test_run_sessions_manifest(self, chase_store, config, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        traces = [
            simulate(config, app("chase"), CREDENTIAL, seed=21 + i, config=cfg)
            for i in range(2)
        ]
        registry = MetricsRegistry()
        batch = run_sessions(
            chase_store, traces, seed=55, config=cfg, metrics=registry
        )
        assert isinstance(batch, SessionBatch) and len(batch) == 2
        manifest = batch.manifest
        assert manifest.meta == {"command": "run_sessions", "sessions": 2}
        assert manifest.counters["runtime.sessions_completed"] == 2
        assert manifest.counters["sampler.reads_issued"] == sum(
            r.reads_issued for r in batch
        )
        assert manifest.gauges["runtime.sessions_per_s"] > 0

    def test_monitor_manifest(self, chase_store, config, monkeypatch):
        import numpy as np

        from repro import api

        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        device = api.VictimDevice(config, app("chase"), rng=np.random.default_rng(31))
        events = [api.KeyPress(t=3.0 + 0.45 * i, char=c) for i, c in enumerate("secret12")]
        session = device.compile(events, end_time_s=9.0, launch_at_s=1.2)
        registry = MetricsRegistry()
        report = monitor(chase_store, session, seed=77, metrics=registry)
        manifest = report.manifest
        assert isinstance(manifest, RunManifest)
        counters = manifest.counters
        assert counters["service.runs"] == 1
        assert counters["service.idle_reads"] == report.idle_reads > 0
        assert counters["service.attack_reads"] == report.attack_reads > 0
        assert counters["service.launches_detected"] == 1
        assert manifest.gauges["service.launch_detected_at_s"] == pytest.approx(
            report.launch_detected_at
        )
        assert manifest.meta["command"] == "monitor"
