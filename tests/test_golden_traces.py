"""Golden-trace regression fixtures: byte parity against checked-in runs.

Unit tests assert *properties* of a run; these tests pin the *entire
deterministic output* — inferred keys, engine stats, fault tallies, and
every runtime-trace event — to fixtures under ``tests/golden/``.  Any
change to sampling, scheduling, Algorithm 1, or trace emission that
shifts even one timestamp or counter shows up as a byte-level diff here
before it silently shifts the paper's numbers.

The same serial fixture is asserted three ways, per the parity
guarantees the runtime documents:

* serial (``workers=1``) — the reference run;
* sharded (``workers=2``, inline context) — the merge must reproduce
  the serial bytes exactly;
* ``fault-profile=none`` — an armed-but-silent injector must not
  perturb the run.

Intentional behaviour changes regenerate fixtures with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import AttackConfig, FaultPlan, app, attack, run_sessions, simulate
from repro.parallel.sharded import ShardedRuntime
from repro.runtime.trace import RuntimeTrace

GOLDEN_DIR = Path(__file__).parent / "golden"

CREDENTIALS = ["Tr0ub4dor&3", "hunter2", "pw123456"]
SIM_SEED = 5
RUN_SEED = 99


def _native(value):
    """Recursively coerce numpy scalars so json output is type-stable."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


def canonicalize(batch, trace):
    """The deterministic projection of a run: everything seed-derived,
    nothing wall-clock-derived (manifests, latency histograms, spans)."""
    results = []
    for result in batch:
        faults = result.faults
        results.append(
            {
                "text": result.text,
                "model_key": result.model_key,
                "degraded": result.degraded,
                "reads_issued": result.reads_issued,
                "reads_dropped": result.reads_dropped,
                # no plan and an all-zero plan must read identically
                "faults": _native(vars(faults)) if faults is not None else {},
                "stats": _native(vars(result.stats)),
                # distance is rounded: sharded workers rebuild the model
                # from its dict form, which drifts classifier distances
                # by ~1e-8 (the documented parity contract covers keys,
                # text, trace order, counters - not raw distance floats)
                "keys": [
                    dict(_native(vars(key)), distance=round(float(key.distance), 6))
                    for key in result.keys
                ],
            }
        )
    return {
        "schema": "repro.golden/1",
        "results": results,
        "trace": {
            "emitted": trace.emitted,
            "summary": trace.summary(),
            "events": [
                {
                    "t": event.t,
                    "session": event.session,
                    "stage": event.stage,
                    "kind": event.kind,
                    "detail": _native(dict(event.detail)),
                }
                for event in trace.events
            ],
        },
    }


def golden_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def check_or_update(name: str, payload, update: bool) -> None:
    path = GOLDEN_DIR / name
    data = golden_bytes(payload)
    if update:
        path.write_bytes(data)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"{path} missing - run with --update-golden to create it"
    )
    if path.read_bytes() != data:
        # byte compare first (catches whitespace/key-order drift too),
        # then a structural diff for a readable failure message
        assert json.loads(path.read_text()) == payload, (
            f"run output diverged from {path.name}"
        )
        raise AssertionError(
            f"{path.name}: semantically equal but not byte-identical "
            "(serialization drift) - regenerate with --update-golden"
        )


@pytest.fixture(scope="module")
def golden_traces(config):
    return [
        simulate(config, app("chase"), credential, seed=SIM_SEED + i)
        for i, credential in enumerate(CREDENTIALS)
    ]


def _strip(faults_none=False):
    return AttackConfig(
        recognize_device=False,
        fault_plan=FaultPlan.from_profile("none", seed=1) if faults_none else None,
    )


class TestBatchGolden:
    """One 3-session batch, pinned once, reproduced three ways."""

    FIXTURE = "batch_chase_3_sessions.json"

    def test_serial_matches_golden(self, chase_store, golden_traces, update_golden):
        trace = RuntimeTrace()
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED, config=_strip(),
            runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)

    def test_workers2_matches_golden(self, chase_store, golden_traces, update_golden):
        trace = RuntimeTrace()
        batch = ShardedRuntime(
            chase_store, config=_strip(), workers=2, mp_context="inline"
        ).run_sessions(golden_traces, seed=RUN_SEED, runtime_trace=trace)
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)

    def test_fault_profile_none_matches_golden(
        self, chase_store, golden_traces, update_golden
    ):
        trace = RuntimeTrace()
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED,
            config=_strip(faults_none=True), runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)

    def test_mitigation_none_matches_golden(
        self, chase_store, golden_traces, update_golden
    ):
        # the undefended-pipeline contract: an explicit mitigation=None
        # installs no policy hook anywhere and stays byte-identical
        trace = RuntimeTrace()
        config = AttackConfig(
            recognize_device=False, fault_plan=None, mitigation=None
        )
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED, config=config,
            runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)

    def test_drift_none_matches_golden(
        self, chase_store, golden_traces, update_golden
    ):
        # the driftless contract: an explicit drift=None installs no
        # injector at the KGSL boundary and stays byte-identical
        trace = RuntimeTrace()
        config = AttackConfig(
            recognize_device=False, fault_plan=None, drift=None
        )
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED, config=config,
            runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)

    def test_calibration_none_matches_golden(
        self, chase_store, golden_traces, update_golden
    ):
        # frozen-model contract: calibration=None (the default) keeps
        # the engine out of evidence-collection mode and re-fits nothing
        trace = RuntimeTrace()
        config = AttackConfig(
            recognize_device=False, fault_plan=None, drift=None, calibration=None
        )
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED, config=config,
            runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)

    def test_mitigation_allow_all_matches_golden(
        self, chase_store, golden_traces, update_golden
    ):
        # allow-all enforces nothing at the KGSL boundary, so it must
        # reproduce the undefended bytes exactly (the baseline column
        # of the threat x mitigation matrix)
        trace = RuntimeTrace()
        config = AttackConfig(
            recognize_device=False, fault_plan=None, mitigation="allow-all"
        )
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED, config=config,
            runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize(batch, trace), update_golden)


#: Defended-chain fixtures: every KGSL interposer armed at once (mild
#: faults, thermal drift, one mitigation), keyed by the mitigation.
#: Obfuscation turns every delta into noise, so its fixture pins the
#: faults' timing and tallies but no served value; the rate limiter lets
#: keys through, so its fixture also pins the order the stages compose
#: in (drift, then policy, then faults) and the per-slot interleaving of
#: their state with the driver's reservation check.
DEFENDED_CHAINS = {
    "obfuscate-mild": "batch_chase_defended_chain.json",
    "rate-limit-30hz": "batch_chase_rate_limited_chain.json",
}


@pytest.mark.parametrize("policy", sorted(DEFENDED_CHAINS))
class TestDefendedChainGolden:
    """One 3-session batch per defended chain, serial and sharded.

    The ``thermal-mild`` profile throttles from 6 s on, past the end of
    these short sessions; its onset moves to 1 s so the drift stage
    rewrites values inside every session."""

    @staticmethod
    def _config(policy):
        from dataclasses import replace

        from repro.api import DriftPlan

        return AttackConfig(
            recognize_device=False,
            fault_plan="mild",
            drift=replace(DriftPlan.from_profile("thermal-mild"), thermal_onset_s=1.0),
            mitigation=policy,
        )

    def test_serial_matches_golden(
        self, chase_store, golden_traces, update_golden, policy
    ):
        trace = RuntimeTrace()
        batch = run_sessions(
            chase_store, golden_traces, seed=RUN_SEED, config=self._config(policy),
            runtime_trace=trace,
        )
        check_or_update(
            DEFENDED_CHAINS[policy], canonicalize(batch, trace), update_golden
        )

    def test_workers2_matches_golden(
        self, chase_store, golden_traces, update_golden, policy
    ):
        trace = RuntimeTrace()
        batch = ShardedRuntime(
            chase_store, config=self._config(policy), workers=2, mp_context="inline"
        ).run_sessions(golden_traces, seed=RUN_SEED, runtime_trace=trace)
        check_or_update(
            DEFENDED_CHAINS[policy], canonicalize(batch, trace), update_golden
        )


class TestAttackGolden:
    """Single-session attack under the mild fault profile: the injected
    faults themselves are seed-deterministic, so the degraded run is
    just as pinnable as the clean one."""

    FIXTURE = "attack_chase_mild_faults.json"

    def test_mild_fault_attack_matches_golden(
        self, chase_store, golden_traces, update_golden
    ):
        config = AttackConfig(
            recognize_device=False,
            fault_plan=FaultPlan.from_profile("mild", seed=21),
        )
        trace = RuntimeTrace()
        result = attack(
            chase_store, golden_traces[0], seed=RUN_SEED, config=config,
            runtime_trace=trace,
        )
        check_or_update(self.FIXTURE, canonicalize([result], trace), update_golden)


class TestLifecycleGolden:
    """The drift -> recalibrate -> recover arc, pinned as whole reports:
    the CLI's default arm (calibration on) and its frozen-model control
    arm, both over the CLI's six segments at seed 24."""

    FIXTURE = "lifecycle_thermal_harsh.json"

    def test_lifecycle_matches_golden(self, chase_store, update_golden):
        from repro.lifecycle import run_lifecycle

        payload = {
            arm: run_lifecycle(
                segments=6, seed=24, store=chase_store, calibration=calibration
            ).as_dict()
            for arm, calibration in (("calibrated", "default"), ("frozen", None))
        }
        check_or_update(self.FIXTURE, payload, update_golden)
