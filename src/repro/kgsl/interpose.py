"""The interposer chain at the KGSL boundary.

Everything that sits between the attacking service and the simulated
driver — measurement faults (:mod:`repro.faults`), access control and
value obfuscation (:mod:`repro.mitigations.policy`), and physical
signature drift (:mod:`repro.lifecycle.drift`) — is an
:class:`Interposer`.  A :class:`~repro.kgsl.device_file.KgslDeviceFile`
owns one ordered tuple of them, inner to outer:

    drift → policy → faults

A read runs through the chain in two steps.  The **request step** runs
once per request, *outer to inner*: the ioctl, the counters it names and
each sampling wakeup.  A measurement fault fires before the policy sees
the request, exactly where a flaky driver fails before its SELinux hook
runs, and a stage that fails a request hides it from every stage inside
it.  The **value step** runs once per batch of requested reads, *inner to
outer*, as array operations over the batch's ``int64[n, 11]`` rows: drift
rewrites what the GPU counted before any mitigation filters it, and
faults corrupt what the mitigation served.  No hook runs per counter slot.
``docs/architecture.md`` has the full story and how to add an
interposer.

:func:`build_chain` is the one place that order is written down, and
:func:`open_sampler` the one place an attack fd and its sampler are
built from (fault plan, mitigation, drift plan, seed).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kgsl.device_file import DeviceClock, ProcessContext, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler


class Interposer:
    """One stage of the KGSL chain; every hook defaults to a no-op.

    Request-step hooks run once per request and see no counter value;
    :meth:`on_rows` runs once per batch of reads and sees every value.
    """

    # -- request step: once per request, outer to inner ------------------

    def on_ioctl(self, device, request: int, arg) -> None:
        """Before the driver dispatches ``request``; may raise
        :class:`~repro.kgsl.ioctl.IoctlError`."""

    def on_counter(self, device, operation: str, keys: Sequence[Tuple[int, int]]) -> None:
        """For the ``(groupid, countable)`` counters a request names: the
        one of a ``PERFCOUNTER_GET``, and the slots of a
        ``PERFCOUNTER_READ`` up to the first one the fd does not hold.
        May raise :class:`~repro.kgsl.ioctl.IoctlError`, failing the
        request before any slot is served."""

    def after_read(self, device, keys: Sequence[Tuple[int, int]]) -> None:
        """Once per completed ``PERFCOUNTER_READ``, with every slot it
        named.  No value exists yet: a stage that rewrites values here
        decides *what* to do, and does it in :meth:`on_rows`.  Runs inner
        to outer."""

    def on_wakeup(self) -> Optional[float]:
        """Per sampling wakeup: extra delay in seconds, or ``None`` to
        drop the wakeup entirely."""
        return 0.0

    # -- value step: once per batch of reads, inner to outer -------------

    def on_rows(
        self,
        device,
        times: np.ndarray,
        rows: np.ndarray,
        served: np.ndarray,
        kept: np.ndarray,
    ) -> None:
        """Rewrite a batch of reads' cumulative values in place.

        Row ``k`` of ``rows`` (``int64[n, 11]``, columns in
        :data:`~repro.gpu.timeline.COUNTER_ORDER`) holds read ``k``'s
        values at ``times[k]``, in request order.  Only entries set in
        ``served`` were served; the rest read 0 and stay 0.  ``kept[k]``
        is False for a read that failed part way: it served its first
        slots, so their values advance every stage's state, but the
        reader never sees its row.
        """

    def flush_metrics(self, metrics) -> None:
        """Publish this stage's tallies (once per fd, at session end)."""


def build_chain(
    fault_plan=None,
    mitigation=None,
    drift=None,
    seed: int = 0,
    drift_seed: Optional[int] = None,
    time_offset: float = 0.0,
) -> Tuple[Interposer, ...]:
    """The interposers for one fd, inner to outer: drift → policy → faults.

    Each resolved spec builds its runtime seeded from ``seed``; a spec
    that cannot act there builds nothing, so an all-``None`` call is the
    empty chain and the undefended read path.  ``drift_seed`` and
    ``time_offset`` let successive fds of one device continue one drift
    trajectory (the lifecycle runner).
    """
    chain = []
    if drift is not None:
        chain.append(
            drift.injector(
                seed_offset=seed if drift_seed is None else drift_seed,
                time_offset=time_offset,
            )
        )
    if mitigation is not None:
        chain.append(mitigation.enforcer(seed=seed))
    if fault_plan is not None:
        chain.append(fault_plan.injector(seed_offset=seed))
    return tuple(stage for stage in chain if stage is not None)


def open_sampler(
    trace,
    interval_s: float,
    rng: np.random.Generator,
    interposers: Sequence[Interposer] = (),
) -> PerfCounterSampler:
    """Open a fresh KGSL fd on a victim session and start its sampler.

    The fd serves ``trace.timeline`` on its own clock, identifies as the
    session's GPU, and carries ``interposers`` (see :func:`build_chain`).
    """
    kgsl = open_kgsl(
        trace.timeline,
        clock=DeviceClock(),
        context=ProcessContext(),
        adreno_model=trace.config.gpu.model,
        interposers=interposers,
    )
    return PerfCounterSampler(kgsl, interval_s=interval_s, rng=rng)
