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

Each wakeup runs the read's *request step* — scheduling, the interposer
chain's request hooks, retries, reservation repair — and each batch of
reads one *value step*, which serves every attempt's counter values as
one array (see :mod:`repro.kgsl.device_file`).
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER
from repro.kgsl.device_file import KgslDeviceFile
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IoctlError,
    KgslPerfcounterGet,
    KgslPerfcounterRead,
    KgslPerfcounterReadGroup,
)
from repro.kgsl.ziggurat import KE, WE

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
#: numpy's exponential ziggurat tables, as arrays (see ``_WakeupDraws``).
_WE = np.array(WE)
_KE = np.array(KE, dtype=np.uint64)
_COPY_SEED = np.random.SeedSequence(0)
#: The fewest words decoded at once, so that batches of a few reads, and
#: the interposed path's one-wakeup takes, share one decode.
_MIN_DECODE = 256
#: More words than a wakeup's draws read, bar ~60 ziggurat rejections in
#: a row: counting past it means the decode and numpy disagree.
_MAX_SLOW_WORDS = 64

#: Column of each selected counter in a read row (``COUNTER_ORDER``).
_COLUMN: Dict[pc.CounterSpec, int] = {spec: j for j, spec in enumerate(pc.SELECTED_COUNTERS)}
_N_COUNTERS = len(COUNTER_ORDER)
#: ``(groupid, countable)`` of every selected counter.
_KEYS = frozenset((int(spec.group), spec.countable) for spec in pc.SELECTED_COUNTERS)
#: The mask of a read that holds every selected counter.
_NOTHING_MISSING = np.zeros(_N_COUNTERS, dtype=bool)
_NOTHING_MISSING.flags.writeable = False


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


class ReadBatch(NamedTuple):
    """Consecutive completed reads of one sampler, in read order.

    ``rows[k]`` holds read ``k``'s cumulative counter values, columns in
    :data:`~repro.gpu.timeline.COUNTER_ORDER`.  ``mask[k, j]`` is set when
    counter ``j``'s register was not held at read ``k`` (reclaimed by
    another client, or denied by an access policy): its value is
    *unknown*, and the 0 stored in ``rows`` means nothing.
    """

    nominal: np.ndarray  #: float64[n], scheduled wakeup times
    t: np.ndarray  #: float64[n], times the reads completed
    rows: np.ndarray  #: int64[n, 11]
    mask: np.ndarray  #: bool[n, 11]


@dataclass(frozen=True, eq=False)
class DeltaBatch:
    """The nonzero counter deltas of consecutive reads, in read order.

    Delta ``k`` is the change over ``(prev_t[k], t[k]]``; ``rows[k]``
    holds its counter changes, columns in
    :data:`~repro.gpu.timeline.COUNTER_ORDER`.  ``unknown[k, j]`` is set
    when counter ``j`` was not held at one of the delta's two reads: its
    change is *unknown*, ``rows[k, j]`` is 0, and a consumer excludes the
    cell with the present mask ``~unknown`` rather than read it as no
    change.  ``gap[k]`` marks a delta spanning noticeably more than one
    nominal sampling interval (dropped or deferred reads in between).
    ``len()`` is the number of deltas.  Equality is identity: a consumer
    tells two batches apart by object.
    """

    prev_t: np.ndarray  #: float64[n]
    t: np.ndarray  #: float64[n]
    rows: np.ndarray  #: int64[n, 11]
    unknown: np.ndarray  #: bool[n, 11]
    gap: np.ndarray  #: bool[n]

    def __len__(self) -> int:
        return len(self.t)


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
    or delayed, then makes its read's request (:meth:`read_once`): the
    chain's request hooks run once per attempt, and every attempt is
    logged.  Each batch then serves every logged attempt's values in one
    :meth:`~repro.kgsl.device_file.KgslDeviceFile.perfcounter_read_many`
    call, where the chain rewrites them as arrays.  On an fd whose chain
    is empty, with every counter held, no request can fail or be delayed,
    so the loop skips the request step: a batch's wakeup times are built
    as arrays and the read tallies updated once per batch.

    Both paths take their wakeups from the one scheduling law
    (``_WakeupDraws``), which decodes each batch's draws from raw words
    of ``rng`` and then moves ``rng`` past exactly the words those
    wakeups read: the same draws, in the same order and bit for bit, as
    one scalar numpy call per variate.  ``rng`` must run on ``PCG64``,
    as ``default_rng`` does (``TypeError`` otherwise), and nothing else
    may draw from it while a batch is drawn (``RuntimeError`` at the
    batch's end otherwise).
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
        interval_s: float = DEFAULT_INTERVAL_S,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.device_file = device_file
        #: the counters every read names: the 11 the attack selects
        self.counters = list(pc.SELECTED_COUNTERS)
        self.interval_s = interval_s
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if not isinstance(self.rng.bit_generator, np.random.PCG64):
            # the wakeup draws are decoded from PCG64's raw words
            raise TypeError(
                f"the sampler draws from PCG64, not {type(self.rng.bit_generator).__name__}"
            )
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
        self._active_columns: List[int] = []
        #: read attempts (time, counters served, completed) whose values
        #: the next value step serves
        self._attempts: List[Tuple[float, np.ndarray, bool]] = []
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
            if not self._try_reserve(spec) and spec not in self._denied:
                self._lose(spec)
        self._rebuild_active()

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
        downstream deltas mark the counter ``unknown``.
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
        self._active_columns = [_COLUMN[c] for c in self._active]
        # the read request naming the active counters, and what it serves
        self._request = KgslPerfcounterRead(
            [KgslPerfcounterReadGroup(int(c.group), c.countable) for c in self._active]
        )
        self._served = ~self.missing_mask()

    # ------------------------------------------------------------------

    def read_once(self) -> Optional[np.ndarray]:
        """The request step of one wakeup: a ``PERFCOUNTER_READ`` request
        of the available selected counters at the device clock.

        Resilient form: retries transient failures with backoff and
        resynchronizes the reservation set when a register has been
        reclaimed.  Returns the counters the read serves, as a
        ``bool[11]`` row in ``COUNTER_ORDER``; counters currently lost or
        denied are not served and are set in :meth:`missing_mask`
        (*missing*, not 0).  Returns ``None`` when even the retries could
        not complete the read — the wakeup is abandoned, equivalent to a
        dropped sample.

        No value is read here.  Each attempt is logged with its time and
        the counters it served — a completed read all of them, one that
        failed part way its first slots — and the batch's value step
        serves them all at once.
        """
        self._read_index += 1
        device = self.device_file
        attempt = 0
        while True:
            self._revive_due_counters()
            active = self._active
            if not active:
                # every register is held elsewhere: a read of nothing
                return self._served
            now = device.clock.now
            try:
                device.perfcounter_request(self._request)
            except IoctlError as exc:
                if exc.served:
                    # the slots served before the failure still reach the
                    # value hooks, and the attempt's row is dropped
                    served = np.zeros(_N_COUNTERS, dtype=bool)
                    served[self._active_columns[: exc.served]] = True
                    self._attempts.append((now, served, False))
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
            self._attempts.append((now, self._served, True))
            return self._served

    def missing_mask(self) -> np.ndarray:
        """``bool[11]``: the counters lost or denied right now."""
        if not self._lost and not self._denied:
            return _NOTHING_MISSING
        mask = np.zeros(_N_COUNTERS, dtype=bool)
        mask[[_COLUMN[spec] for spec in (*self._lost, *self._denied)]] = True
        return mask

    def _skips_requests(self) -> bool:
        """Whether the next batch can skip the request step: an empty
        chain, every counter held, nothing to revive."""
        device = self.device_file
        return (
            not device.interposers
            and not self._lost
            and not self._denied
            and _KEYS.issubset(device.reserved_counters())
        )

    def _serve_attempts(self) -> np.ndarray:
        """The value step: every logged attempt's values in one call;
        returns the completed reads' rows, in request order."""
        attempts, self._attempts = self._attempts, []
        times, served, kept = zip(*attempts) if attempts else ((), (), ())
        return self.device_file.perfcounter_read_many(
            times, np.array(served, dtype=bool).reshape(-1, _N_COUNTERS), kept
        )

    def iter_batches(
        self, t0: float, t1: float, load: SystemLoad = IDLE, *, chunk: int
    ) -> Iterator[ReadBatch]:
        """The sampling loop over ``[t0, t1)``, ``chunk`` completed reads
        per :class:`ReadBatch` (the last batch may be shorter).

        This is the streaming form consumed by the session runtime: each
        ``next()`` issues the reads of one batch only, so a downstream
        stage that stops early — a launch detector escalating to attack
        mode, say — really does stop the polling, exactly like the
        Android service it models.  Which read path a batch takes is
        decided from the fd as the batch starts (see the class docstring).
        """
        device = self.device_file
        interval = self.interval_s
        draws = _WakeupDraws(self.rng, load)
        nominal = t0
        last_t = -1.0
        while nominal < t1:
            if self._attempts:
                # attempts of read_once calls made outside this loop
                self._serve_attempts()
            draws.begin()
            if self._skips_requests():
                # nothing can fail or delay a request: only the wakeup
                # times are drawn, as arrays.  Tick k is the k-th partial
                # sum of the interval, the same sequential adds as a
                # ``nominal += interval`` loop; the batch ends at its
                # chunk-th kept read or at the first tick past t1.
                ticks_left = (t1 - nominal) / interval
                delays = np.array(draws.take(chunk if ticks_left >= chunk else int(ticks_left) + 1))
                while True:
                    ticks = np.full(len(delays) + 1, interval)
                    ticks[0] = nominal
                    ticks = ticks.cumsum()
                    live = int(ticks.searchsorted(t1))  # the ticks before t1
                    kept = (delays == delays).nonzero()[0]  # NaN: dropped
                    if len(kept) >= chunk and kept[chunk - 1] < live:
                        kept = kept[:chunk]
                        wakeups = int(kept[-1]) + 1
                        break
                    if live <= len(delays):
                        kept = kept[: kept.searchsorted(live)]
                        wakeups = live
                        break
                    delays = np.concatenate((delays, draws.take(chunk - len(kept))))
                draws.commit(wakeups)
                self.reads_dropped += wakeups - len(kept)
                nominal = float(ticks[wakeups])
                if not len(kept):
                    return
                # the clock stands still until the value step below
                nominals = ticks[kept]
                times = _monotone(nominals + delays[kept], max(last_t + 1e-5, device.clock.now))
                self.reads_issued += len(times)
                self._read_index += len(times)
                last_t = float(times[-1])
                rows = device.perfcounter_read_many(times)
                mask = np.zeros(rows.shape, dtype=bool)
                yield ReadBatch(nominals, times, rows, mask)
                continue
            # a wakeup is a request like any ioctl: it visits the chain
            # outer to inner, and any stage may drop or defer it
            wakeup_chain = device.interposers[::-1]
            nominal_list: List[float] = []
            time_list: List[float] = []
            served: List[np.ndarray] = []
            wakeups = 0
            try:
                while nominal < t1 and len(time_list) < chunk:
                    [delay] = draws.take(1)
                    wakeups += 1
                    if delay != delay:
                        delay = None
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
                        nominal += interval
                        continue
                    # the monotone read time, as on the chain-free path
                    device.clock.set(max(nominal + delay, last_t + 1e-5, device.clock.now))
                    row = self.read_once()
                    if row is None:
                        # retries exhausted: the wakeup produced no data
                        self.reads_dropped += 1
                        nominal += interval
                        continue
                    served.append(row)
                    # retry backoff consumed device time: the observation
                    # really happened when the read finally succeeded
                    last_t = device.clock.now
                    self.reads_issued += 1
                    nominal_list.append(nominal)
                    time_list.append(last_t)
                    nominal += interval
            finally:
                draws.commit(wakeups)
            if not time_list:
                return
            mask = ~np.array(served)
            rows = np.zeros(mask.shape, dtype=np.int64)
            # a read of nothing made no request and serves no row
            rows[~mask.all(axis=1)] = self._serve_attempts()
            yield ReadBatch(np.array(nominal_list), np.array(time_list), rows, mask)


def _monotone(reads: np.ndarray, floor: float) -> np.ndarray:
    """Read times of one thread: each read no earlier than ``floor`` (the
    first) or 10 µs after the read before it.

    A coalesced or preempted wakeup can overshoot the next tick, so the
    next read waits for it.  One compare finds the reads that land early;
    only the runs those start are walked, each until a read lands on time
    again, with the sequential recurrence's own float adds.
    """
    early = ((reads[1:] < reads[:-1] + 1e-5).nonzero()[0] + 1).tolist()
    if reads[0] < floor:
        early.insert(0, 0)
    if not early:
        return reads
    out = reads.tolist()
    done = 0
    for k in early:
        if k < done:
            continue
        # the read before k is on time, so its own bound holds
        bound = out[k - 1] + 1e-5 if k else floor
        while k < len(out) and out[k] < bound:
            out[k] = bound
            bound += 1e-5
            k += 1
        done = k
    return np.array(out)


class _WakeupDraws:
    """The scheduling law: each wakeup's actual-minus-nominal read
    latency, NaN when the read is skipped, decoded from raw words of the
    sampler's generator.

    With n busy threads per core the service's chance of running on time
    falls; past ~50 % CPU utilization preemptions dominate and at very
    high load entire reads are lost — the mechanism behind the accuracy
    cliff of Fig 22a.  A wakeup draws, in order: a standard exponential
    (base jitter), a uniform (coalesced?) and, if coalesced, an
    exponential; under CPU load a uniform (preempted?) and, if
    preempted, an exponential; last a uniform (dropped?).  A wakeup
    draws only when it is taken, so the sampler can share its generator
    with other users between batches.

    The draws are decoded, not made one numpy call at a time.  For a raw
    64-bit word ``w`` numpy's ``random()`` is ``(w >> 11) * 2**-53`` and
    ``standard_exponential()`` is ``(w >> 11) * WE[(w >> 3) & 0xFF]``
    when ``w >> 11 < KE[...]`` (its ziggurat's fast path, see
    :mod:`repro.kgsl.ziggurat`).  A batch reads words ahead from a copy
    of the generator, decodes them as arrays and walks them in draw
    order with the scalar law's own float expressions.  A wakeup that
    meets a word off the fast path is drawn by the scalar law itself, on
    a second copy set to that word; comparing generator states counts
    the words it read.  :meth:`commit` then moves the generator past
    exactly the words the batch's wakeups read (``random_raw`` is the
    same state transition as the draws), so the stream is the one the
    scalar law would leave, bit for bit.
    """

    def __init__(self, rng: np.random.Generator, load: SystemLoad) -> None:
        self._shared = rng.bit_generator
        # private copies, seeded with a constant (cheaper than OS entropy)
        # as each batch sets their states: one reads words ahead of the
        # shared generator, one draws a slow wakeup by the scalar law and
        # one counts the words that wakeup read
        bit_generator = type(self._shared)
        self._ahead = bit_generator(_COPY_SEED)
        self._scalar_bits = bit_generator(_COPY_SEED)
        self._scalar = np.random.Generator(self._scalar_bits)
        self._count_bits = bit_generator(_COPY_SEED)
        cpu = load.cpu_utilization
        self._contended = cpu > 0
        self._preempt_prob = cpu * 0.75
        self._preempt_s = _PREEMPT_DELAY_S * (0.2 + 2.0 * (cpu * cpu))
        self._drop_prob = max(0.0, cpu - 0.45) ** 2 * 0.55
        #: the most words a wakeup reads on the fast path, and the least
        #: a wakeup with a slow exponential reads (its fallback reads one
        #: more word)
        self._span = 6 if self._contended else 4
        self._least_slow = 5 if self._contended else 4
        #: the generator's state after the last commit
        self._committed: Optional[Dict[str, object]] = None

    def begin(self) -> None:
        """Start a batch at the shared generator's position.

        When nothing has drawn from the generator since the last batch's
        :meth:`commit`, the words read ahead past it are kept."""
        state = self._shared.state
        if state == self._committed:
            del self._uniform[: self._at], self._exponential[: self._at]
        else:
            self._ahead.state = state
            #: each word as a uniform and as an exponential (NaN: slow path)
            self._uniform: List[float] = []
            self._exponential: List[float] = []
        self._start = state
        self._at = 0
        #: the words read by the end of each wakeup taken
        self._ends: List[int] = []
        #: where the scalar and counting copies stand (-1: not yet set)
        self._scalar_at = -1

    def _decode(self, words: int) -> None:
        raw = self._ahead.random_raw(words)
        ri = raw >> 11
        idx = (raw >> 3) & 0xFF
        value = ri.astype(np.float64)
        exponential = value * _WE[idx]
        exponential[ri >= _KE[idx]] = np.nan
        self._uniform += (value * 2.0**-53).tolist()
        self._exponential += exponential.tolist()

    def take(self, n: int) -> List[float]:
        """The next ``n`` wakeups' delays, NaN for a skipped read."""
        uniform, exponential = self._uniform, self._exponential
        span = self._span
        contended = self._contended
        preempt_prob, preempt_s, drop_prob = self._preempt_prob, self._preempt_s, self._drop_prob
        at = self._at
        # a fast-path wakeup reads at most ``span`` words: decode enough
        # for n of them, and again after a slow one
        if at + n * span > len(uniform):
            self._decode(max(at + n * span - len(uniform), _MIN_DECODE))
        out: List[float] = []
        append, end = out.append, self._ends.append
        for left in range(n - 1, -1, -1):
            delay = _BASE_JITTER_S * exponential[at]
            k = at + 1
            if uniform[k] < _COALESCE_PROB:
                delay += _COALESCE_DELAY_S * exponential[k + 1]
                k += 2
            else:
                k += 1
            if contended:
                if uniform[k] < preempt_prob:
                    delay += preempt_s * exponential[k + 1]
                    k += 2
                else:
                    k += 1
            if delay != delay:
                # an exponential word off the fast path
                delay, at = self._draw_scalar(at)
                if at + left * span > len(uniform):
                    self._decode(max(at + left * span - len(uniform), _MIN_DECODE))
            else:
                if uniform[k] < drop_prob:
                    delay = np.nan
                at = k + 1
            append(delay)
            end(at)
        self._at = at
        return out

    def _draw_scalar(self, at: int) -> Tuple[float, int]:
        """The wakeup at word ``at`` by the scalar law, and the word after
        it.  Wakeups come in word order, so the copies only move forward."""
        bits, count = self._scalar_bits, self._count_bits
        if self._scalar_at < 0:
            bits.state = count.state = self._start
            self._scalar_at = 0
        bits.random_raw(at - self._scalar_at)
        draw = self._scalar
        delay = _BASE_JITTER_S * draw.standard_exponential()
        if draw.random() < _COALESCE_PROB:
            delay += _COALESCE_DELAY_S * draw.standard_exponential()
        if self._contended and draw.random() < self._preempt_prob:
            delay += self._preempt_s * draw.standard_exponential()
        if draw.random() < self._drop_prob:
            delay = np.nan
        # the words read: step the counting copy until the states agree
        after = bits.state
        at += self._least_slow
        count.random_raw(at - self._scalar_at)
        for _ in range(_MAX_SLOW_WORDS):
            if count.state == after:
                self._scalar_at = at
                return delay, at
            count.random_raw()
            at += 1
        raise RuntimeError("a wakeup drawn by the scalar law read words the decode cannot place")

    def commit(self, wakeups: int) -> None:
        """Move the shared generator past the words of this batch's first
        ``wakeups`` wakeups, and no further.

        The words were read from where :meth:`begin` found the generator:
        if anything else drew from it since (an interposer's hook, say),
        they are no longer the words those wakeups would read."""
        if self._shared.state != self._start:
            raise RuntimeError("the sampler's generator was drawn from while a batch was drawn")
        self._at = self._ends[wakeups - 1] if wakeups else 0
        self._shared.random_raw(self._at)
        self._committed = self._shared.state


def nonzero_deltas_vectorized(
    batch: ReadBatch, prev: Optional[ReadBatch] = None
) -> DeltaBatch:
    """The nonzero-delta extractor: one numpy diff over a batch of reads.

    Returns the consecutive read pairs where some counter moved, as a
    :class:`DeltaBatch` whose ``gap`` flags are all clear (the caller
    knows the nominal interval).  A register that wrapped (at
    :data:`repro.gpu.counters.WRAP`) still reads as its true change.  A
    counter masked at either end of a pair is unknown over it and reads
    0, so a register re-reserved after a reclamation never reads as a
    change of its whole cumulative value.  ``prev`` optionally supplies
    the batch preceding ``batch``, to difference across chunk boundaries.
    """
    t, rows, mask = batch.t, batch.rows, batch.mask
    if prev is not None and len(prev.t):
        t = np.concatenate((prev.t[-1:], t))
        rows = np.concatenate((prev.rows[-1:], rows))
        mask = np.concatenate((prev.mask[-1:], mask))
    diffs = rows[1:] - rows[:-1]
    np.add(diffs, pc.WRAP, out=diffs, where=diffs < 0)
    unknown = mask[:-1] | mask[1:]
    if unknown.any():
        diffs[unknown] = 0
    keep = diffs.any(axis=1).nonzero()[0]
    return DeltaBatch(
        t[keep], t[1:][keep], diffs[keep], unknown[keep], np.zeros(len(keep), dtype=bool)
    )


#: Keystroke inferences per second the power model charges for.
INFERENCES_PER_S = 0.5
#: Energy of one counter-read ioctl, of one keystroke inference, and the
#: power of keeping one little core awake for the service.
IOCTL_ENERGY_UJ = 22.0
INFERENCE_ENERGY_UJ = 60.0
WAKEUP_POWER_MW = 6.0


@dataclass(frozen=True)
class PowerModel:
    """Analytic battery-overhead model for the attack service (Fig 26).

    Energy = per-ioctl cost x read rate + per-inference cost x typing rate,
    plus keeping one little core awake a fraction of the time.  Reported
    as percent of a typical smartphone battery per elapsed time.
    """

    battery_mwh: float = 17000.0  # ~4500 mAh at 3.85 V

    def extra_consumption_percent(
        self,
        elapsed_s: float,
        interval_s: float = DEFAULT_INTERVAL_S,
        gpu_sample_power_mw: float = 8.5,
    ) -> float:
        reads = elapsed_s / interval_s
        energy_mj = (
            reads * IOCTL_ENERGY_UJ / 1000.0
            + elapsed_s * INFERENCES_PER_S * INFERENCE_ENERGY_UJ / 1000.0
        )
        energy_mwh = energy_mj / 3600.0
        standby_mwh = (WAKEUP_POWER_MW + gpu_sample_power_mw) * elapsed_s / 3600.0
        return 100.0 * (energy_mwh + standby_mwh) / self.battery_mwh
