"""Periodic GPU performance-counter sampling (paper Section 4).

The attacking application's background service reads the selected counters
"every 8 ms by default" — equal to or slightly below half the 60 Hz screen
refresh interval so every rendered frame is covered by at least one read.
This module implements that monitoring service against the simulated KGSL
device file, including the scheduling realities the paper measures:

* **CPU contention** (Fig 22a): under load, the service is preempted, so
  reads land late or are skipped entirely, which both splits counter
  deltas and merges consecutive changes;
* **GPU contention** (Fig 22b) is modeled upstream — background rendering
  adds frames and stretches render times — the sampler just observes it;
* **power** (Fig 26): each ioctl read and each inference costs energy; the
  analytic battery model lives here because it is a property of the
  sampling duty cycle.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu import counters as pc
from repro.kgsl.device_file import KgslDeviceFile
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_READ,
    IoctlError,
    KgslPerfcounterGet,
    KgslPerfcounterRead,
    KgslPerfcounterReadGroup,
)

#: Default sampling interval: 8 ms (Section 4 / Section 7.4).
DEFAULT_INTERVAL_S = 0.008

#: ioctl failures worth retrying: the driver was busy, not broken.
_TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.EBUSY})
_EINVAL = errno.EINVAL

#: Baseline scheduling jitter of an idle Android system.
_BASE_JITTER_S = 250e-6
#: Probability that Android timer coalescing defers a wakeup noticeably.
_COALESCE_PROB = 0.08
#: Mean extra delay when a wakeup is coalesced.
_COALESCE_DELAY_S = 5e-3
#: Mean preemption delay when the service loses the CPU.
_PREEMPT_DELAY_S = 2.2e-3


@dataclass(frozen=True)
class SystemLoad:
    """Concurrent workload on the victim device (Section 7.3)."""

    cpu_utilization: float = 0.0
    gpu_utilization: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cpu_utilization", "gpu_utilization"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


IDLE = SystemLoad()


@dataclass(frozen=True)
class PcSample:
    """One read of the currently-available selected counters.

    ``missing`` lists configured counters whose registers were not held
    at read time (reclaimed by another client, re-registration pending);
    their values are *unknown*, not zero.
    """

    nominal_t: float
    t: float
    values: Dict[pc.CounterId, int]
    missing: Tuple[pc.CounterId, ...] = ()


@dataclass(frozen=True)
class PcDelta:
    """Per-counter change between two consecutive samples.

    ``missing`` carries counters whose change over this interval is
    unknown (absent from at least one endpoint sample) — downstream
    classification must mask those dimensions rather than read them as
    zero.  ``gap`` marks a delta spanning noticeably more than one
    nominal sampling interval (dropped or deferred reads in between).
    """

    t: float
    prev_t: float
    values: Dict[pc.CounterId, int]
    missing: Tuple[pc.CounterId, ...] = ()
    gap: bool = False

    @property
    def total(self) -> int:
        return sum(self.values.values())

    @property
    def degraded(self) -> bool:
        return bool(self.missing) or self.gap

    def get(self, spec: pc.CounterSpec, default: Optional[int] = None) -> int:
        """Change of one counter over this interval.

        A counter listed in :attr:`missing` has an *unknown* change —
        reading it silently as 0 is exactly the error downstream masking
        exists to prevent — so a masked counter raises :class:`KeyError`
        unless an explicit ``default`` is supplied.  A counter that was
        simply never selected (absent from both ``values`` and
        ``missing``) still reads as zero change, or ``default`` when one
        is given.
        """
        counter_id = spec.counter_id
        if counter_id in self.values:
            return self.values[counter_id]
        if counter_id in self.missing:
            if default is None:
                raise KeyError(
                    f"counter {spec.name} is masked over "
                    f"[{self.prev_t:.4f}, {self.t:.4f}] — its change is "
                    "unknown, not zero; pass an explicit default= or "
                    "check `missing` first"
                )
            return default
        return 0 if default is None else default

    def __bool__(self) -> bool:
        return any(self.values.values())

    def merge(self, other: "PcDelta") -> "PcDelta":
        """Combine with an *earlier* delta (Algorithm 1's split recovery).

        ``other`` must cover an interval no later than this one; equal
        timestamps are allowed so :meth:`split` parts recombine.  A
        swapped call would fabricate a delta whose ``prev_t`` postdates
        its ``t``, so ordering is validated rather than trusted.
        """
        if other.t > self.t or other.prev_t > self.prev_t:
            raise ValueError(
                "merge() expects the earlier delta as its argument: other "
                f"covers [{other.prev_t:.4f}, {other.t:.4f}], which does not "
                f"precede [{self.prev_t:.4f}, {self.t:.4f}]"
            )
        merged = dict(other.values)
        for counter_id, value in self.values.items():
            merged[counter_id] = merged.get(counter_id, 0) + value
        missing = (
            tuple(sorted(set(self.missing) | set(other.missing)))
            if (self.missing or other.missing)
            else ()
        )
        return PcDelta(
            t=self.t,
            prev_t=other.prev_t,
            values=merged,
            missing=missing,
            gap=self.gap or other.gap,
        )

    def scaled(self, factor: float) -> "PcDelta":
        """Delta scaled by ``factor`` (duplication-halving heuristic).

        Values are floored deterministically: round-half-to-even would
        lose or invent events when a halved delta is later re-merged,
        breaking the :meth:`split` round trip.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return PcDelta(
            t=self.t,
            prev_t=self.prev_t,
            values={cid: int(v * factor) for cid, v in self.values.items()},
            missing=self.missing,
            gap=self.gap,
        )

    def split(self, factor: float = 0.5) -> Tuple["PcDelta", "PcDelta"]:
        """Split into ``(part, remainder)`` that merge back exactly.

        ``part`` is :meth:`scaled` by ``factor``; ``remainder`` carries
        every event the floor dropped, so
        ``remainder.merge(part).values == self.values`` — the
        duplication-halving round trip the old round-half-to-even
        scaling silently broke.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("split factor must be in [0, 1]")
        part = self.scaled(factor)
        remainder = PcDelta(
            t=self.t,
            prev_t=self.prev_t,
            values={
                cid: v - part.values[cid] for cid, v in self.values.items()
            },
            missing=self.missing,
            gap=self.gap,
        )
        return part, remainder


class PerfCounterSampler:
    """The attacking service's counter-reading loop.

    The loop is *resilient*: transient ioctl failures (``EIO``/``EBUSY``)
    are retried with backoff in device time; a counter register reclaimed
    by another client is detected via the resulting ``EINVAL``, dropped
    from the active read set, and automatically re-registered with
    exponential backoff once the other client releases it.  Everything
    the resilience layer does is recorded in :attr:`fault_log` so the
    runtime stage can surface degraded-mode events in the shared
    :class:`~repro.runtime.trace.RuntimeTrace`.

    Access-policy denials are a separate, *permanent* failure class: a
    counter denied with ``EACCES`` (Section 9.2's RBAC; see
    ``docs/defenses.md``) is masked for the rest of the session and never
    re-registered — unlike contention losses, a policy won't change its
    mind, and retrying would only feed the audit log.  A fully denied
    sampler runs blind (empty reads, every delta masked) rather than
    crashing the service.

    Each wakeup also asks the fd's interposer chain whether it is dropped
    or delayed.  On an fd whose ioctls never fail none of these paths
    execute and the loop is byte-identical to the infallible original.
    """

    #: Transient-read retries before the failure is considered permanent.
    MAX_READ_RETRIES = 4
    #: Device-time backoff per retry attempt (multiplied by attempt #).
    RETRY_BACKOFF_S = 0.0004
    #: Cap on the re-registration backoff (in reads).
    MAX_REREGISTER_BACKOFF = 64

    def __init__(
        self,
        device_file: KgslDeviceFile,
        counters: Sequence[pc.CounterSpec] = tuple(pc.SELECTED_COUNTERS),
        interval_s: float = DEFAULT_INTERVAL_S,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.device_file = device_file
        self.counters = list(counters)
        self.interval_s = interval_s
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.reads_issued = 0
        self.reads_dropped = 0
        # -- resilience bookkeeping ------------------------------------
        self.retries = 0
        self.reregistrations = 0
        self.counters_lost = 0
        self.counters_denied = 0
        self.fault_log: List[Tuple[str, Dict[str, object]]] = []
        self._read_index = 0
        #: lost spec -> (read index of next re-registration attempt, failures)
        self._lost: Dict[pc.CounterSpec, Tuple[int, int]] = {}
        #: specs an access policy denied with EACCES — permanent, never
        #: revived (a policy denial is not contention; see docs/defenses.md)
        self._denied: set = set()
        self._active: List[pc.CounterSpec] = []
        self._reserve_counters()

    @property
    def degraded(self) -> bool:
        """Whether the resilience layer has had to intervene at all."""
        return bool(
            self.retries
            or self.reregistrations
            or self.counters_lost
            or self.counters_denied
            or self._lost
        )

    def drain_fault_log(self) -> List[Tuple[str, Dict[str, object]]]:
        """Hand pending resilience events to the caller (runtime stage)."""
        out, self.fault_log = self.fault_log, []
        return out

    def flush_metrics(self, metrics) -> None:
        """Publish the loop's cumulative tallies into a metrics registry.

        Called once at a stage boundary (session end, mode escalation) —
        never per read — so the 8 ms sampling loop carries no registry
        traffic.  ``metrics`` is any :class:`repro.obs.MetricsRegistry`;
        the no-op default makes this a single attribute check.
        """
        if not metrics.enabled:
            return
        metrics.counter("sampler.reads_issued").inc(self.reads_issued)
        metrics.counter("sampler.reads_dropped").inc(self.reads_dropped)
        metrics.counter("sampler.retries").inc(self.retries)
        metrics.counter("sampler.reregistrations").inc(self.reregistrations)
        metrics.counter("sampler.counters_lost").inc(self.counters_lost)
        metrics.counter("sampler.counters_denied").inc(self.counters_denied)

    def _note(self, kind: str, **detail: object) -> None:
        self.fault_log.append((kind, detail))

    def _reserve_counters(self) -> None:
        """PERFCOUNTER_GET for every selected counter (paper Fig 10)."""
        for spec in self.counters:
            if self._try_reserve(spec):
                self._active.append(spec)
            elif spec not in self._denied:
                self._lose(spec)

    def _try_reserve(self, spec: pc.CounterSpec) -> bool:
        """One reservation attempt (with transient-error retries)."""
        attempt = 0
        while True:
            get = KgslPerfcounterGet(groupid=int(spec.group), countable=spec.countable)
            try:
                self.device_file.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, get)
                return True
            except IoctlError as exc:
                if exc.errno == errno.EACCES:
                    # an access policy said no — that is enforcement, not
                    # contention: mask the counter permanently, never retry
                    self._deny(spec)
                    return False
                if exc.errno not in _TRANSIENT_ERRNOS:
                    raise
                if attempt >= self.MAX_READ_RETRIES:
                    return False
                attempt += 1
                self.retries += 1
                self._backoff(attempt)

    def _lose(self, spec: pc.CounterSpec) -> None:
        """Mark a counter unavailable; schedule re-registration."""
        if spec in self._lost:
            return
        self._lost[spec] = (self._read_index + 1, 0)
        self.counters_lost += 1
        self._note("counter_lost", counter=spec.name)

    def _deny(self, spec: pc.CounterSpec) -> None:
        """An access policy denied this counter: masked for good.

        Unlike :meth:`_lose`, denial schedules no re-registration — a
        policy denial is deterministic, and hammering the driver with
        doomed ``PERFCOUNTER_GET`` retries is exactly the auditd noise a
        real attack service would avoid.  The session continues blind;
        downstream deltas carry the counter in ``missing``.
        """
        if spec in self._denied:
            return
        self._denied.add(spec)
        self._lost.pop(spec, None)
        self.counters_denied += 1
        self._note("counter_denied", counter=spec.name)

    def _backoff(self, attempt: int) -> None:
        """Transient-failure backoff, charged in device time."""
        self.device_file.clock.advance(self.RETRY_BACKOFF_S * attempt)

    def _revive_due_counters(self) -> None:
        """Retry PERFCOUNTER_GET for lost counters whose backoff expired."""
        if not self._lost:
            return
        for spec in list(self._lost):
            due, failures = self._lost[spec]
            if self._read_index < due:
                continue
            if self._try_reserve(spec):
                del self._lost[spec]
                self._rebuild_active()
                self.reregistrations += 1
                self._note("counter_restored", counter=spec.name)
            elif spec in self._denied:
                continue  # _deny already pulled it out of the lost set
            else:
                failures += 1
                backoff = min(self.MAX_REREGISTER_BACKOFF, 2 ** failures)
                self._lost[spec] = (self._read_index + backoff, failures)

    def _resync_after_einval(self) -> bool:
        """A read hit ``EINVAL``: some register was reclaimed under us.

        Re-reserves every active counter; those that fail move to the
        lost set.  Returns True when the active set changed (so the read
        can be retried against the surviving registers).
        """
        changed = False
        for spec in list(self._active):
            if not self._try_reserve(spec):
                if spec not in self._denied:
                    self._lose(spec)
                changed = True
        if changed:
            self._rebuild_active()
        return changed

    def _rebuild_active(self) -> None:
        self._active = [
            c for c in self.counters if c not in self._lost and c not in self._denied
        ]

    # ------------------------------------------------------------------

    def read_once(self) -> Optional[Dict[pc.CounterId, int]]:
        """Blockread the available selected counters at the device clock.

        Resilient form: retries transient failures with backoff and
        resynchronizes the reservation set when a register has been
        reclaimed.  Counters currently lost are simply absent from the
        returned mapping (the caller records them as *missing*, not 0).
        Returns ``None`` when even the retries could not complete the
        read — the wakeup is abandoned, equivalent to a dropped sample.
        """
        self._read_index += 1
        attempt = 0
        while True:
            self._revive_due_counters()
            active = self._active
            if not active:
                # every register is held elsewhere: a read of nothing
                return {}
            read = KgslPerfcounterRead(
                reads=[
                    KgslPerfcounterReadGroup(groupid=int(s.group), countable=s.countable)
                    for s in active
                ]
            )
            try:
                self.device_file.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, read)
            except IoctlError as exc:
                if exc.errno == errno.EACCES:
                    # access revoked mid-session (a policy now denies the
                    # read path): every active register is policy-masked
                    # and the service continues blind
                    for spec in active:
                        self._deny(spec)
                    self._rebuild_active()
                    self._note("read_denied", errno=exc.errno)
                    return None
                if exc.errno in _TRANSIENT_ERRNOS:
                    if attempt < self.MAX_READ_RETRIES:
                        attempt += 1
                        self.retries += 1
                        self._note("read_retry", errno=exc.errno, attempt=attempt)
                        self._backoff(attempt)
                        continue
                    # persistently busy: abandon this wakeup, keep going
                    self._note("read_abandoned", errno=exc.errno)
                    return None
                if exc.errno == _EINVAL:
                    if self._resync_after_einval():
                        continue
                    if attempt < self.MAX_READ_RETRIES:
                        # every register came back: the other client's
                        # hold expired during the re-registration backoff
                        attempt += 1
                        continue
                    # every register is ours again, but earlier retries
                    # spent the budget: abandon this wakeup
                    self._note("read_abandoned", errno=exc.errno)
                    return None
                raise
            return {
                (pc.CounterGroup(slot.groupid), slot.countable): slot.value
                for slot in read.reads
            }

    def _missing_now(self) -> Tuple[pc.CounterId, ...]:
        if not self._lost and not self._denied:
            return ()
        return tuple(
            sorted(
                {spec.counter_id for spec in self._lost}
                | {spec.counter_id for spec in self._denied}
            )
        )

    def _scheduling_delay(self, load: SystemLoad) -> Optional[float]:
        """Actual-minus-nominal read latency; None if the read is skipped.

        With n busy threads per core the service's chance of running on
        time falls; past ~50 % CPU utilization preemptions dominate and at
        very high load entire reads are lost — the mechanism behind the
        accuracy cliff of Fig 22a.
        """
        cpu = load.cpu_utilization
        delay = float(self.rng.exponential(_BASE_JITTER_S))
        if self.rng.random() < _COALESCE_PROB:
            delay += float(self.rng.exponential(_COALESCE_DELAY_S))
        if cpu > 0 and self.rng.random() < cpu * 0.75:
            contention = cpu * cpu
            delay += float(self.rng.exponential(_PREEMPT_DELAY_S * (0.2 + 2.0 * contention)))
        drop_prob = max(0.0, cpu - 0.45) ** 2 * 0.55
        if self.rng.random() < drop_prob:
            return None
        return delay

    def iter_samples(
        self, t0: float, t1: float, load: SystemLoad = IDLE
    ) -> Iterator[PcSample]:
        """The sampling loop over ``[t0, t1)``, one read at a time.

        This is the streaming form consumed by the session runtime: each
        ``next()`` issues (at most) one counter read, so a downstream
        stage that stops early — a launch detector escalating to attack
        mode, say — really does stop the polling, exactly like the
        Android service it models.
        """
        # a wakeup is a request like any ioctl: it visits the chain outer
        # to inner, and any stage may drop or defer it
        wakeup_chain = self.device_file.interposers[::-1]
        nominal = t0
        last_t = -1.0
        while nominal < t1:
            delay = self._scheduling_delay(load)
            for stage in wakeup_chain:
                if delay is None:
                    break
                extra = stage.on_wakeup()
                if extra is None:
                    delay = None
                    self._note("sample_dropped", nominal_t=nominal)
                elif extra:
                    delay += extra
                    self._note("clock_jitter", nominal_t=nominal, jitter_s=extra)
            if delay is None:
                self.reads_dropped += 1
            else:
                # reads are issued by one thread, so they stay monotone even
                # when a coalesced wakeup overshoots the next nominal tick
                read_t = max(nominal + delay, last_t + 1e-5)
                self.device_file.clock.set(max(self.device_file.clock.now, read_t))
                values = self.read_once()
                if values is None:
                    # retries exhausted: the wakeup produced no data
                    self.reads_dropped += 1
                    nominal += self.interval_s
                    continue
                self.reads_issued += 1
                if self.device_file.clock.now > read_t:
                    # retry backoff consumed device time: the observation
                    # really happened when the read finally succeeded
                    read_t = self.device_file.clock.now
                last_t = read_t
                yield PcSample(
                    nominal_t=nominal,
                    t=read_t,
                    values=values,
                    missing=self._missing_now(),
                )
            nominal += self.interval_s

    def sample_range(
        self, t0: float, t1: float, load: SystemLoad = IDLE
    ) -> List[PcSample]:
        """Run the whole sampling loop over ``[t0, t1)`` and materialize it."""
        return list(self.iter_samples(t0, t1, load=load))


def _masked_delta(prev: PcSample, cur: PcSample) -> PcDelta:
    """Difference two samples whose counter sets may disagree.

    Only counters present in *both* endpoints are differenced — a counter
    re-registered after a reclamation window would otherwise produce a
    bogus delta equal to its whole cumulative value.  Counters absent
    from either endpoint are reported in ``missing``.
    """
    common = prev.values.keys() & cur.values.keys()
    diff = pc.delta(
        {cid: prev.values[cid] for cid in common},
        {cid: cur.values[cid] for cid in common},
    )
    missing = set(prev.missing) | set(cur.missing)
    missing.update(cid for cid in prev.values.keys() ^ cur.values.keys())
    return PcDelta(
        t=cur.t,
        prev_t=prev.t,
        values=diff,
        missing=tuple(sorted(missing)),
    )


def deltas(samples: Sequence[PcSample]) -> List[PcDelta]:
    """Consecutive-sample differences, one pair at a time.

    A scalar reference only: production code gets its deltas from
    :class:`~repro.runtime.source.SamplerDeltaSource`, which runs
    :func:`nonzero_deltas_vectorized`.  This loop is the oracle the
    extractor's parity tests compare it against.
    """
    out: List[PcDelta] = []
    for prev, cur in zip(samples, samples[1:]):
        if prev.missing or cur.missing or prev.values.keys() != cur.values.keys():
            out.append(_masked_delta(prev, cur))
            continue
        diff = pc.delta(prev.values, cur.values)
        out.append(PcDelta(t=cur.t, prev_t=prev.t, values=diff))
    return out


def nonzero_deltas(samples: Sequence[PcSample]) -> List[PcDelta]:
    """The scalar reference for :func:`nonzero_deltas_vectorized`: only
    the deltas where some counter moved (screen changed)."""
    return [d for d in deltas(samples) if d]


def nonzero_deltas_vectorized(
    samples: Sequence[PcSample], prev: Optional[PcSample] = None
) -> List[PcDelta]:
    """The nonzero-delta extractor: one numpy diff over the batch.

    Produces the same :class:`PcDelta` objects as the scalar
    :func:`nonzero_deltas` reference (same counter order, same wraparound
    handling as :func:`repro.gpu.counters.delta`) but differences and
    filters all samples in one pass, which is what keeps
    a 100-session batch runtime out of per-pair Python loops.  ``prev``
    optionally supplies the sample preceding ``samples[0]`` so chunked
    callers can difference across chunk boundaries.
    """
    chain: List[PcSample] = ([prev] if prev is not None else []) + list(samples)
    if len(chain) < 2:
        return []
    counter_ids = list(chain[0].values.keys())
    if any(s.missing for s in chain) or any(
        s.values.keys() != chain[0].values.keys() for s in chain[1:]
    ):
        # heterogeneous counter sets (reclamation in the window): fall
        # back to pairwise masked differencing — correctness over speed
        return [d for pr, cu in zip(chain, chain[1:]) for d in [_masked_delta(pr, cu)] if d]
    matrix = np.array(
        [[s.values[cid] for cid in counter_ids] for s in chain], dtype=np.int64
    )
    diffs = np.diff(matrix, axis=0)
    np.add(diffs, pc.CounterBank.WRAP, out=diffs, where=diffs < 0)
    keep = np.flatnonzero(diffs.any(axis=1))
    out: List[PcDelta] = []
    for row in keep:
        values = {
            cid: int(v) for cid, v in zip(counter_ids, diffs[row])
        }
        out.append(PcDelta(t=chain[row + 1].t, prev_t=chain[row].t, values=values))
    return out


@dataclass(frozen=True)
class PowerModel:
    """Analytic battery-overhead model for the attack service (Fig 26).

    Energy = per-ioctl cost x read rate + per-inference cost x typing rate,
    plus keeping one little core awake a fraction of the time.  Reported
    as percent of a typical smartphone battery per elapsed time.
    """

    battery_mwh: float = 17000.0  # ~4500 mAh at 3.85 V
    ioctl_energy_uj: float = 22.0
    inference_energy_uj: float = 60.0
    wakeup_power_mw: float = 6.0

    def extra_consumption_percent(
        self,
        elapsed_s: float,
        interval_s: float = DEFAULT_INTERVAL_S,
        gpu_sample_power_mw: float = 8.5,
        inferences_per_s: float = 0.5,
    ) -> float:
        reads = elapsed_s / interval_s
        energy_mj = (
            reads * self.ioctl_energy_uj / 1000.0
            + elapsed_s * inferences_per_s * self.inference_energy_uj / 1000.0
        )
        energy_mwh = energy_mj / 3600.0
        standby_mwh = (self.wakeup_power_mw + gpu_sample_power_mw) * elapsed_s / 3600.0
        return 100.0 * (energy_mwh + standby_mwh) / self.battery_mwh
