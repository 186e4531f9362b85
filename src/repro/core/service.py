"""The background monitoring service: the full Fig 4 online pipeline.

The attack application "will spawn a monitoring process, which runs as an
Android service in background" (Section 3.2).  The service is one
runtime session with two modes:

* **idle watch** — a cheap slow poll (4 Hz) of the counters, enough for
  :class:`~repro.core.launch.LaunchDetector` to spot the target app's
  launch, and practically free in power (Fig 26's negligible overhead
  while the victim is elsewhere);
* **attack** — once the launch is confirmed, the
  :class:`~repro.core.launch.LaunchWatchStage` switches the session onto
  the full 8 ms sampling source and the
  :class:`~repro.core.pipeline.AttackStage` (device recognition plus the
  Algorithm 1 engine), for as long as the login screen is expected to be
  in use.

Both modes are scheduled by the shared
:class:`~repro.runtime.session.SessionRuntime` — the service owns no
sampling loop of its own, and because the runtime pulls reads lazily,
escalation really does stop the idle poll on the confirming read.

Only the inference results leave the device ("Only the results of
eavesdropping are sent back to the attacker"), which the
:class:`ServiceReport` reflects: it carries the inferred text and
timestamps, never raw counter traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import faults as faults_mod
from repro.android.device import SessionTrace
from repro.core.launch import (
    IDLE_POLL_INTERVAL_S,
    LaunchDetector,
    LaunchEvent,
    LaunchWatchStage,
)
from repro.core.online import EngineStats, InferredKey
from repro.core.pipeline import AttackResult, EavesdropAttack
from repro.kgsl.interpose import build_chain, open_sampler
from repro.kgsl.sampler import DEFAULT_INTERVAL_S, IDLE, SystemLoad
from repro.obs import RunManifest
from repro.runtime import RuntimeTrace, SamplerDeltaSource, Session, SessionRuntime

#: How long the service stays in attack mode after a launch.
ATTACK_WINDOW_S = 60.0


@dataclass
class ServiceReport:
    """What the service sends back — results only, never raw traces.

    Satisfies the :class:`~repro.core.results.SessionResult` protocol
    (``keys`` / ``text`` / ``stats`` / ``trace``).
    """

    launch_detected_at: Optional[float]
    text: str
    key_times: List[float] = field(default_factory=list)
    deletions_detected: int = 0
    model_key: str = ""
    idle_reads: int = 0
    attack_reads: int = 0
    keys: List[InferredKey] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    trace: Optional[RuntimeTrace] = None
    faults: Optional[faults_mod.FaultStats] = None
    degraded: bool = False
    manifest: Optional[RunManifest] = None

    @property
    def reads_saved_vs_always_on(self) -> float:
        """Fraction of reads the idle watch avoided compared to sampling
        at the attack cadence from boot."""
        total_if_always_on = self.attack_reads + self.idle_reads * (
            IDLE_POLL_INTERVAL_S / DEFAULT_INTERVAL_S
        )
        taken = self.attack_reads + self.idle_reads
        if total_if_always_on <= 0:
            return 0.0
        return 1.0 - taken / total_if_always_on


class MonitoringService:
    """Composes launch detection and the eavesdropping attack.

    Args:
        attack: the attack the service escalates into.  Its interposer
            specs also build the idle watch's chain, and its
            calibration state spans every run of this service.

    The idle watch polls every ``IDLE_POLL_INTERVAL_S`` and attack mode
    lasts ``ATTACK_WINDOW_S`` after a launch.
    """

    def __init__(self, attack: EavesdropAttack) -> None:
        self.attack = attack
        self.metrics = attack.metrics

    def run(
        self,
        trace: SessionTrace,
        load: SystemLoad = IDLE,
        seed: int = 1234,
        watch_model_key: Optional[str] = None,
        runtime_trace: Optional[RuntimeTrace] = None,
    ) -> ServiceReport:
        """Run the service over a victim session from boot to end.

        Args:
            trace: the compiled victim session (launch happens at t=0's
                initial render in :meth:`VictimDevice.compile`).
            load: concurrent system load during the session.
            seed: scheduling randomness.
            watch_model_key: model used by the launch detector (defaults
                to the first stored model; any target's model works since
                detection keys on the generic launch-burst + field shape).
            runtime_trace: optional shared event log to record the idle
                polls, the mode switch and every engine decision in.
        """
        # --- idle watch: slow polls until the launch is confirmed -------
        # the interposer chain is a property of the victim device, not of
        # a mode: the idle watch carries the attack's chain too
        attack = self.attack
        watcher = open_sampler(
            trace,
            IDLE_POLL_INTERVAL_S,
            np.random.default_rng(seed),
            build_chain(attack.fault_plan, attack.mitigation, attack.drift_plan, seed),
        )
        idle_fd = watcher.device_file
        idle_injector = idle_fd.interposer(faults_mod.FaultInjector)
        watch_key = watch_model_key or attack.store.keys()[0]
        detector = LaunchDetector(attack.store.get(watch_key))

        launch_info = {"event": None, "idle_reads": 0}

        def escalate(session: Session, event: LaunchEvent) -> None:
            """Idle watch → attack mode: swap the session's source and
            stage; the rest of the slow poll is abandoned unread."""
            launch_info["event"] = event
            launch_info["idle_reads"] = watcher.reads_issued
            window = _window(trace, event.t, ATTACK_WINDOW_S)
            # a fresh fd and clock: the attack samples the remaining window
            source, stage = attack.session_spec(window, load=load, seed=seed + 1)
            session.switch_mode(source, stage)

        # the idle watch streams read-by-read (chunk=1) so the mode
        # switch lands exactly on the confirming poll
        source = SamplerDeltaSource(
            watcher, 0.0, trace.end_time_s, load=load, chunk=1,
            metrics=self.metrics,
        )
        stage = LaunchWatchStage(detector, on_launch=escalate)

        runtime = SessionRuntime(trace=runtime_trace, metrics=self.metrics)
        session = runtime.add_session(Session("service", source, stage))
        runtime.run()

        # the idle watcher's tallies join the run-wide rollup (the attack
        # fd's are flushed by its stage at session end)
        watcher.flush_metrics(self.metrics)

        launch: Optional[LaunchEvent] = launch_info["event"]
        if launch is None:
            report = ServiceReport(
                launch_detected_at=None,
                text="",
                idle_reads=watcher.reads_issued,
                trace=runtime.trace,
                faults=idle_injector.stats if idle_injector is not None else None,
                degraded=session.degraded,
            )
            self._flush_report(report)
            return report
        attack_result: AttackResult = session.result
        faults = attack_result.faults
        if idle_injector is not None and faults is not None:
            # the report covers the whole service run: both fds' tallies
            faults = faults_mod.FaultStats(
                **{
                    name: value + idle_injector.stats.as_dict()[name]
                    for name, value in faults.as_dict().items()
                }
            )
        elif idle_injector is not None:
            faults = idle_injector.stats
        report = ServiceReport(
            launch_detected_at=launch.t,
            text=attack_result.text,
            key_times=attack_result.online.key_times(),
            deletions_detected=attack_result.online.stats.deletions_detected,
            model_key=attack_result.model_key,
            idle_reads=launch_info["idle_reads"],
            attack_reads=attack_result.reads_issued,
            keys=attack_result.keys,
            stats=attack_result.stats,
            trace=runtime.trace,
            faults=faults,
            degraded=session.degraded or attack_result.degraded,
        )
        self._flush_report(report)
        return report

    def _flush_report(self, report: ServiceReport) -> None:
        """Service-level rollup: what one full watch-and-attack pass
        produced, plus the run manifest attached to the report."""
        if not self.metrics.enabled:
            return
        metrics = self.metrics
        metrics.counter("service.runs").inc()
        metrics.counter("service.idle_reads").inc(report.idle_reads)
        metrics.counter("service.attack_reads").inc(report.attack_reads)
        metrics.counter("service.keys_inferred").inc(len(report.keys))
        metrics.counter("service.deletions_detected").inc(report.deletions_detected)
        if report.launch_detected_at is not None:
            metrics.counter("service.launches_detected").inc()
            metrics.gauge("service.launch_detected_at_s").set(report.launch_detected_at)
        if report.degraded:
            metrics.counter("service.degraded_runs").inc()
        metrics.gauge("service.reads_saved_vs_always_on").set(
            report.reads_saved_vs_always_on
        )
        report.manifest = metrics.manifest(command="monitor")


def _window(trace: SessionTrace, start_s: float, duration_s: float) -> SessionTrace:
    """A view of the session limited to the attack window.

    The timeline is shared (counters are cumulative hardware state); only
    the sampling end changes.
    """
    end = min(trace.end_time_s, start_s + duration_s)
    return SessionTrace(
        timeline=trace.timeline,
        config=trace.config,
        app=trace.app,
        presses=trace.presses,
        backspaces=trace.backspaces,
        switch_intervals=trace.switch_intervals,
        end_time_s=end,
    )
