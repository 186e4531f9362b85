"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``steal``    — end-to-end attack demo on one configuration
* ``train``    — offline phase; writes a model store JSON
* ``attack``   — online phase against a simulated victim, using a store
* ``fleet``    — N simulated devices streaming into one collector
  service (backpressure, retries, dedup; see ``docs/collector.md``)
* ``lifecycle`` — drift → recalibrate → recover demo: one long runtime
  session under signature drift, with per-device re-fits and hot model
  swaps (see ``docs/lifecycle.md``)
* ``survey``   — per-key weak-spot report for a keyboard
* ``report``   — regenerate the evaluation figures into a directory
* ``devices``  — list registered phones, keyboards and apps
* ``scenarios`` — list / show / smoke-test the scenario registry
* ``defenses`` — list / show / smoke / sweep the mitigation registry
  (the threat × mitigation matrix; see ``docs/defenses.md``)

The CLI is a thin shell over the public API (``repro.api``); every
command maps onto one or two facade calls so it doubles as
documentation.  ``--phone`` / ``--keyboard`` / ``--app`` /
``--scenario`` / ``--mitigation`` names are validated against their
registries at argument-parse time, so a typo exits with a usage error
(and a closest-match suggestion) before any work starts.  ``steal`` and
``attack`` accept ``--fault-profile`` / ``--fault-seed`` to exercise
the resilient sampling path against an unreliable KGSL interface (see
``repro.faults``), and ``--mitigation`` to run the same attack against
a defended victim (default ``none``: the undefended pipeline).  Only
``--fault-profile auto`` reads the environment
(``REPRO_FAULT_PROFILE``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.api import (
    APP_REGISTRY,
    KEYBOARD_REGISTRY,
    MITIGATION_REGISTRY,
    PHONE_REGISTRY,
    SCENARIO_REGISTRY,
    AttackConfig,
    CandidateGenerator,
    DeviceConfig,
    FaultPlan,
    IoctlError,
    MetricsRegistry,
    MitigationPolicy,
    ProcessContext,
    UnknownNameError,
    app,
    attack,
    bar_chart,
    CALIBRATION_PROFILES,
    CollectorConfig,
    default_config,
    DRIFT_PROFILES,
    format_defense_matrix,
    generate_report,
    keyboard,
    mitigation,
    ModelStore,
    phone,
    run_defense_matrix,
    run_fleet,
    run_lifecycle,
    run_per_key_sweep,
    run_sessions,
    scenario,
    simulate,
    train,
)

_FAULT_CHOICES = ("auto", "none", "mild", "harsh")

_DEFAULT_PHONE = "oneplus8pro"
_DEFAULT_KEYBOARD = "gboard"
_DEFAULT_APP = "chase"


def _registry_name(registry):
    """An argparse ``type=`` validator: the name must exist in
    ``registry``.  Unknown names become a usage error (exit code 2)
    carrying the registry's known-set + did-you-mean message instead of
    a traceback deep inside the attack."""

    def check(value: str) -> str:
        try:
            registry.get(value)
        except UnknownNameError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return check


def _add_axis_flags(parser: argparse.ArgumentParser) -> None:
    """``--scenario`` plus per-axis overrides, all registry-validated.
    Axis precedence: explicit flag > scenario axis > workhorse default."""
    parser.add_argument(
        "--scenario",
        default=None,
        type=_registry_name(SCENARIO_REGISTRY),
        metavar="NAME",
        help="run a registered scenario (see 'repro scenarios'); "
        "--phone/--keyboard/--app override individual axes",
    )
    parser.add_argument(
        "--phone", default=None, type=_registry_name(PHONE_REGISTRY),
        metavar="NAME", help=f"phone model (default {_DEFAULT_PHONE})",
    )
    parser.add_argument(
        "--keyboard", default=None, type=_registry_name(KEYBOARD_REGISTRY),
        metavar="NAME", help=f"keyboard (default {_DEFAULT_KEYBOARD})",
    )
    parser.add_argument(
        "--app", default=None, type=_registry_name(APP_REGISTRY),
        metavar="NAME", help=f"target app (default {_DEFAULT_APP})",
    )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-profile",
        choices=_FAULT_CHOICES,
        default="auto",
        help="inject KGSL faults: none/mild/harsh, or 'auto' to honor "
        "the REPRO_FAULT_PROFILE environment variable (default)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault plan RNG (with --fault-profile)",
    )


def _add_mitigation_flag(parser: argparse.ArgumentParser) -> None:
    check_name = _registry_name(MITIGATION_REGISTRY)
    parser.add_argument(
        "--mitigation",
        default="none",
        type=lambda v: v if v == "none" else check_name(v),
        metavar="NAME",
        help="enforce a registered mitigation policy on the victim "
        "(see 'repro defenses'); the default 'none' runs the undefended "
        "pipeline",
    )


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the session batch across N worker processes "
        "(with --sessions > 1); output is byte-identical to --workers 1",
    )


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect run metrics (sampler/fault/latency/throughput) and "
        "write the JSON run manifest to PATH",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU side-channel keystroke inference (ASPLOS'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    steal = sub.add_parser("steal", help="train + attack one credential end to end")
    steal.add_argument("credential", nargs="?", default="Tr0ub4dor&3")
    _add_axis_flags(steal)
    steal.add_argument("--seed", type=int, default=42)
    steal.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="victim sessions to run concurrently on one session runtime",
    )
    _add_workers_flag(steal)
    _add_fault_flags(steal)
    _add_mitigation_flag(steal)
    _add_metrics_flag(steal)

    train_p = sub.add_parser("train", help="offline phase: train and save models")
    train_p.add_argument("output", help="model store JSON path")
    train_p.add_argument(
        "--scenario", action="append", default=[],
        type=_registry_name(SCENARIO_REGISTRY), metavar="NAME",
        help="train the (device, app) pair of a registered scenario "
        "(repeatable; combines with the --phone/--keyboard/--app grid)",
    )
    train_p.add_argument(
        "--phone", action="append", default=[],
        type=_registry_name(PHONE_REGISTRY), metavar="NAME",
    )
    train_p.add_argument(
        "--keyboard", action="append", default=[],
        type=_registry_name(KEYBOARD_REGISTRY), metavar="NAME",
    )
    train_p.add_argument(
        "--app", action="append", default=[],
        type=_registry_name(APP_REGISTRY), metavar="NAME",
    )

    attack_p = sub.add_parser("attack", help="online phase using a saved store")
    attack_p.add_argument("store", help="model store JSON path")
    attack_p.add_argument("credential")
    _add_axis_flags(attack_p)
    attack_p.add_argument("--seed", type=int, default=42)
    attack_p.add_argument("--guesses", type=int, default=10)
    attack_p.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="victim sessions to run concurrently on one session runtime",
    )
    _add_workers_flag(attack_p)
    _add_fault_flags(attack_p)
    _add_mitigation_flag(attack_p)
    _add_metrics_flag(attack_p)

    fleet = sub.add_parser(
        "fleet",
        help="train, then run N simulated devices streaming results "
        "into one collector service",
    )
    fleet.add_argument("credential", nargs="?", default="Tr0ub4dor&3")
    fleet.add_argument("--devices", type=int, default=3, help="simulated devices")
    fleet.add_argument(
        "--sessions",
        type=int,
        default=2,
        help="victim sessions each device runs and reports",
    )
    _add_axis_flags(fleet)
    fleet.add_argument("--seed", type=int, default=42)
    fleet.add_argument(
        "--transport",
        choices=("tcp", "unix"),
        default="tcp",
        help="collector transport (unix uses a socket in the cwd's tmp)",
    )
    fleet.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="collector in-flight queue bound (the backpressure knob)",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=1,
        help="collector processes; >1 stands up the sharded tier with a "
        "deterministic device router and per-shard write-ahead journals",
    )
    fleet.add_argument(
        "--journal-dir",
        default=None,
        help="directory for the per-shard write-ahead journals (default: "
        "a scratch directory deleted after the run)",
    )
    fleet.add_argument(
        "--kill-drill",
        action="store_true",
        help="SIGKILL one collector shard mid-run and restart it, proving "
        "the journal replay path end to end (requires --shards >= 2)",
    )
    _add_workers_flag(fleet)
    _add_fault_flags(fleet)
    _add_mitigation_flag(fleet)
    _add_metrics_flag(fleet)

    lifecycle_p = sub.add_parser(
        "lifecycle",
        help="drift -> recalibrate -> recover demo on one long runtime session",
    )
    lifecycle_p.add_argument("--credential", default="Tr0ub4dor&3")
    lifecycle_p.add_argument(
        "--segments", type=int, default=6,
        help="credential entries streamed through the one session (default 6)",
    )
    lifecycle_p.add_argument("--seed", type=int, default=24)
    lifecycle_p.add_argument(
        "--drift-profile", default="thermal-harsh",
        choices=sorted(DRIFT_PROFILES),
        help="signature drift reshaping the counter stream "
        "(default thermal-harsh)",
    )
    lifecycle_p.add_argument(
        "--calibration", default="default",
        choices=sorted(CALIBRATION_PROFILES),
        help="recalibration profile; 'off' runs the frozen-model "
        "control arm (default default)",
    )
    lifecycle_p.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persist every model generation (offline original + each "
        "re-fit) into a versioned, checksummed store under DIR",
    )
    _add_metrics_flag(lifecycle_p)

    survey = sub.add_parser("survey", help="per-key weak spots for a keyboard")
    survey.add_argument(
        "--keyboard", default=_DEFAULT_KEYBOARD,
        type=_registry_name(KEYBOARD_REGISTRY), metavar="NAME",
    )
    survey.add_argument("--repeats", type=int, default=6)

    report = sub.add_parser("report", help="regenerate the evaluation figures")
    report.add_argument("output_dir")
    report.add_argument("--scale", type=int, default=1)

    sub.add_parser("devices", help="list registered phones, keyboards and apps")

    scenarios_p = sub.add_parser(
        "scenarios",
        help="list, inspect, or smoke-test the scenario registry",
    )
    ssub = scenarios_p.add_subparsers(dest="scenarios_command")
    list_p = ssub.add_parser("list", help="list registered scenarios")
    list_p.add_argument(
        "--tag", default=None,
        help="only scenarios carrying this registry tag (paper, matrix, "
        "web, tier, extension, ...)",
    )
    show_p = ssub.add_parser("show", help="dump one scenario's spec")
    show_p.add_argument(
        "name", type=_registry_name(SCENARIO_REGISTRY), metavar="NAME"
    )
    smoke_p = ssub.add_parser(
        "smoke",
        help="run every registered scenario end to end, one short "
        "session each; any scenario error fails the run",
    )
    smoke_p.add_argument(
        "names", nargs="*", metavar="NAME",
        type=_registry_name(SCENARIO_REGISTRY),
        help="smoke only these scenarios (default: all registered)",
    )
    smoke_p.add_argument(
        "--sweep-repeats", type=int, default=1,
        help="training sweep repeats per model (default 1: fast smoke)",
    )

    defenses_p = sub.add_parser(
        "defenses",
        help="list, inspect, smoke-test, or sweep the mitigation registry",
    )
    dsub = defenses_p.add_subparsers(dest="defenses_command")
    dlist = dsub.add_parser("list", help="list registered mitigation policies")
    dlist.add_argument(
        "--tag", default=None,
        help="only policies carrying this registry tag (paper, "
        "access-control, obfuscation, sweep, composed, ...)",
    )
    dshow = dsub.add_parser("show", help="dump one policy's spec")
    dshow.add_argument(
        "name", type=_registry_name(MITIGATION_REGISTRY), metavar="NAME"
    )
    dsmoke = dsub.add_parser(
        "smoke",
        help="check every registered policy composes, enforces, and "
        "round-trips through its dict form; any failure fails the run",
    )
    dsmoke.add_argument(
        "names", nargs="*", metavar="NAME",
        type=_registry_name(MITIGATION_REGISTRY),
        help="smoke only these policies (default: all registered)",
    )
    dsweep = dsub.add_parser(
        "sweep",
        help="run the attack across scenarios x mitigations and print "
        "the threat x mitigation matrix (docs/defenses.md)",
    )
    dsweep.add_argument(
        "--scenario", action="append", default=[],
        type=_registry_name(SCENARIO_REGISTRY), metavar="NAME",
        help="victim scenario (repeatable; default: pinpad, gboard-chase)",
    )
    dsweep.add_argument(
        "--mitigation", action="append", default=[],
        type=_registry_name(MITIGATION_REGISTRY), metavar="NAME",
        help="policy column (repeatable; default: allow-all, rbac, "
        "rate-limit-30hz, obfuscate-strong, popup-disable)",
    )
    dsweep.add_argument(
        "--sessions", type=int, default=2,
        help="victim sessions per matrix cell (default 2)",
    )
    dsweep.add_argument("--length", type=int, default=8, help="credential length")
    dsweep.add_argument("--seed", type=int, default=7)
    dsweep.add_argument(
        "--fault-profile", choices=_FAULT_CHOICES, default="none",
        help="fault plan active during the sweep (default none)",
    )
    _add_workers_flag(dsweep)
    _add_metrics_flag(dsweep)
    return parser


def _config(phone_name: str, keyboard_name: str) -> DeviceConfig:
    return DeviceConfig(phone=phone(phone_name), keyboard=keyboard(keyboard_name))


def _resolve_axes(args):
    """Resolve ``(device_config, target, scenario_name)`` from the axis
    flags: explicit flag > scenario axis > workhorse default."""
    scn = scenario(args.scenario) if getattr(args, "scenario", None) else None
    phone_name = args.phone or (scn.phone if scn else _DEFAULT_PHONE)
    keyboard_name = args.keyboard or (scn.keyboard if scn else _DEFAULT_KEYBOARD)
    app_name = args.app or (scn.app if scn else _DEFAULT_APP)
    return (
        _config(phone_name, keyboard_name),
        app(app_name),
        scn.name if scn else None,
    )


def _attack_config(args, **overrides) -> AttackConfig:
    profile = getattr(args, "fault_profile", "auto")
    if profile == "auto":
        fault_plan = "auto"
    else:
        fault_plan = FaultPlan.from_profile(profile, seed=args.fault_seed)
    mitigation_name = getattr(args, "mitigation", "none")
    return AttackConfig(
        fault_plan=fault_plan,
        mitigation=None if mitigation_name == "none" else mitigation_name,
        **overrides,
    )


def _fault_summary(result) -> str:
    if result.faults is None or not result.faults.total:
        return ""
    return (
        f"faults   : {result.faults.total} injected "
        f"({result.faults.as_dict()}), degraded={result.degraded}"
    )


def _metrics_registry(args) -> Optional[MetricsRegistry]:
    return MetricsRegistry() if getattr(args, "metrics_out", None) else None


def _write_manifest(args, cfg, registry, command: str, sessions: int) -> None:
    """Snapshot the registry into the manifest file ``--metrics-out``
    names (taken last, so CLI-level rollups are included)."""
    if registry is None:
        return
    manifest = registry.manifest(
        config=cfg.to_dict(), command=command, sessions=sessions
    )
    manifest.write(args.metrics_out)
    print(f"metrics  : wrote run manifest to {args.metrics_out}")


def _run_batched(
    store, cfg, config, target, credential, seed, sessions, registry=None, workers=1
) -> int:
    """Run ``sessions`` concurrent victims — on one session runtime, or
    sharded over ``workers`` processes — and print per-session outcomes
    plus the aggregate accuracy."""
    traces = [
        simulate(config, target, credential, seed=seed + i, config=cfg)
        for i in range(sessions)
    ]
    started = time.perf_counter()
    results = run_sessions(
        store, traces, seed=seed + 1000, config=cfg, metrics=registry,
        workers=workers,
    )
    elapsed = time.perf_counter() - started
    exact = sum(1 for r in results if r.text == credential)
    for i, result in enumerate(results):
        marker = "EXACT" if result.text == credential else "partial"
        print(f"session {i:3d}: {result.text!r:24s} {marker}")
    print(f"typed          : {credential!r}")
    print(f"sessions       : {sessions}" + (f" (workers={workers})" if workers > 1 else ""))
    print(f"exact matches  : {exact}/{sessions} ({exact / sessions:.1%})")
    print(f"throughput     : {sessions / elapsed:.1f} sessions/s")
    if registry is not None:
        # batch-accuracy rollup joins the manifest before it is written
        registry.counter("accuracy.sessions").inc(sessions)
        registry.counter("accuracy.exact_matches").inc(exact)
        registry.gauge("accuracy.exact_rate").set(exact / sessions)
        registry.gauge("cli.wall_s").set(elapsed)
    return 0 if exact * 2 >= sessions else 1


def _cmd_steal(args) -> int:
    config, target, scenario_name = _resolve_axes(args)
    cfg = _attack_config(args, recognize_device=False, scenario=scenario_name)
    registry = _metrics_registry(args)
    print(f"training model for {config.config_key()} / {target.name} ...")
    store = train([(config, target)], config=cfg)
    if args.sessions > 1:
        code = _run_batched(
            store, cfg, config, target, args.credential, args.seed, args.sessions,
            registry=registry, workers=args.workers,
        )
        _write_manifest(args, cfg, registry, "steal", args.sessions)
        return code
    trace = simulate(config, target, args.credential, seed=args.seed, config=cfg)
    result = attack(store, trace, seed=args.seed + 1, config=cfg, metrics=registry)
    print(f"typed    : {args.credential!r}")
    print(f"inferred : {result.text!r}")
    print("outcome  : " + ("EXACT" if result.text == args.credential else "partial"))
    summary = _fault_summary(result)
    if summary:
        print(summary)
    _write_manifest(args, cfg, registry, "steal", 1)
    return 0 if result.text == args.credential else 1


def _cmd_train(args) -> int:
    pairs = []
    for name in args.scenario:
        scn = scenario(name)
        pairs.append((scn.device_config(), scn.app_spec()))
    if args.phone or args.keyboard or args.app or not pairs:
        phones = args.phone or [_DEFAULT_PHONE]
        keyboards = args.keyboard or [_DEFAULT_KEYBOARD]
        apps = args.app or [_DEFAULT_APP]
        pairs.extend(
            (_config(p, k), app(a))
            for p in phones for k in keyboards for a in apps
        )
    print(f"training {len(pairs)} model(s) ...")
    store = train(pairs)
    store.save(args.output)
    print(
        f"wrote {args.output}: {len(store)} models, "
        f"{store.total_size_bytes() / 1024:.1f} KB"
    )
    return 0


def _cmd_attack(args) -> int:
    store = ModelStore.load(args.store)
    config, target, scenario_name = _resolve_axes(args)
    cfg = _attack_config(args, scenario=scenario_name)
    registry = _metrics_registry(args)
    if args.sessions > 1:
        code = _run_batched(
            store, cfg, config, target, args.credential, args.seed, args.sessions,
            registry=registry, workers=args.workers,
        )
        _write_manifest(args, cfg, registry, "attack", args.sessions)
        return code
    trace = simulate(config, target, args.credential, seed=args.seed, config=cfg)
    result = attack(store, trace, seed=args.seed + 1, config=cfg, metrics=registry)
    print(f"recognized: {result.model_key}")
    print(f"typed     : {args.credential!r}")
    print(f"inferred  : {result.text!r}")
    summary = _fault_summary(result)
    if summary:
        print(summary)
    _write_manifest(args, cfg, registry, "attack", 1)
    if result.text != args.credential and args.guesses > 1:
        model = store.get(result.model_key)
        generator = CandidateGenerator(model)
        rank = generator.rank_of(result.online, args.credential, max_candidates=args.guesses)
        if rank is not None:
            print(f"recovered : guess #{rank} of {args.guesses}")
            return 0
        print(f"not recovered within {args.guesses} guesses")
        return 1
    return 0 if result.text == args.credential else 1


def _cmd_fleet(args) -> int:
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.kill_drill and args.shards < 2:
        print(
            "error: --kill-drill needs --shards >= 2 (the fleet must "
            "survive on the other shards while one is down)",
            file=sys.stderr,
        )
        return 2
    config, target, scenario_name = _resolve_axes(args)
    cfg = _attack_config(args, recognize_device=False, scenario=scenario_name)
    registry = _metrics_registry(args)
    unix_path = None
    tmpdir = None
    if args.transport == "unix" and args.shards == 1:
        # the sharded tier derives per-shard socket paths itself
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        unix_path = str(Path(tmpdir.name) / "collector.sock")
    print(f"training model for {config.config_key()} / {target.name} ...")
    store = train([(config, target)], config=cfg)
    try:
        from repro.collector.fleet import DRILL_RETRY, FLEET_RETRY, KillDrill

        collector_cfg = CollectorConfig(
            transport=args.transport,
            unix_path=unix_path,
            queue_size=args.queue_size,
            # a drill takes a shard down for ~a second of process
            # respawn; devices need the patient backoff to ride it out
            retry=DRILL_RETRY if args.kill_drill else FLEET_RETRY,
            shards=args.shards,
            journal_dir=args.journal_dir,
        )
        drill = KillDrill() if args.kill_drill else None
        report = run_fleet(
            store,
            config,
            target,
            args.credential,
            devices=args.devices,
            sessions_per_device=args.sessions,
            seed=args.seed,
            config=cfg,
            workers=args.workers,
            collector=collector_cfg,
            metrics=registry,
            drill=drill,
        )
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    print(
        f"fleet      : {report.devices} devices x {args.sessions} sessions "
        f"(transport={args.transport}, "
        f"shards={report.shards}, workers={args.workers})"
    )
    if report.shards > 1:
        drilled = " after a SIGKILL/restart drill" if args.kill_drill else ""
        print(
            f"tier       : {report.shards} collector processes, "
            f"{report.replayed} journal records replayed{drilled}"
        )
    print(
        f"ingested   : {report.ingested}/{report.sessions_total} results "
        f"({report.lost} lost, {report.duplicates_dropped} duplicate frames)"
    )
    print(
        f"delivery   : {report.retries} retries, {report.reconnects} reconnects"
    )
    print(
        f"exact      : {report.exact}/{report.sessions_total} "
        f"({report.exact_rate:.1%})"
    )
    print(f"throughput : {report.ingest_rate:.1f} sessions/s ingested")
    for outcome in report.outcomes:
        if outcome.error:
            print(f"device     : {outcome.device_id} FAILED ({outcome.error})")
    if args.metrics_out and report.manifest is not None:
        report.manifest.write(args.metrics_out)
        print(f"metrics    : wrote run manifest to {args.metrics_out}")
    return 0 if report.lost == 0 else 1


def _cmd_lifecycle(args) -> int:
    registry = _metrics_registry(args)
    report = run_lifecycle(
        credential=args.credential,
        segments=args.segments,
        seed=args.seed,
        drift=args.drift_profile,
        calibration=args.calibration,
        metrics=registry,
        model_dir=args.store_dir,
    )
    calibrating = args.calibration != "off"
    for seg in report.segments:
        state = "drift" if seg.drift_active else "clean"
        swap = "  [re-fit -> swap]" if seg.recalibrated else ""
        outcome = (
            "exact" if seg.exact else f"chars {seg.char_accuracy:.2f}"
        )
        print(
            f"  seg {seg.index}  gen {seg.model_version}  "
            f"thermal x{seg.thermal_factor:.2f}  {state:5s}  "
            f"{seg.inferred!r} ({outcome}){swap}"
        )
    print(f"recalibrations: {report.recalibrations} (model swaps: {report.model_swaps})")
    if args.store_dir:
        print(f"store versions: {report.store_versions} under {args.store_dir}")

    def fmt(value):
        return "n/a" if value is None else f"{value:.2f}"

    print(
        f"exact-credential accuracy: baseline {fmt(report.baseline_exact)}  "
        f"drifted {fmt(report.drifted_exact)}  "
        f"recovered {fmt(report.recovered_exact)}"
    )
    print(f"recovery ratio: {fmt(report.recovery_ratio)}")
    if registry is not None:
        manifest = registry.manifest(
            command="lifecycle",
            sessions=1,
            segments=args.segments,
            lifecycle=report.as_dict(),
        )
        manifest.write(args.metrics_out)
        print(f"metrics  : wrote run manifest to {args.metrics_out}")
    if calibrating and report.recovery_ratio is not None:
        return 0 if report.recovery_ratio >= 0.9 else 1
    return 0


def _cmd_survey(args) -> int:
    config = default_config(keyboard=keyboard(args.keyboard))
    stats = run_per_key_sweep(config, app(_DEFAULT_APP), repeats=args.repeats)
    accuracy = {c: correct / total for c, (correct, total) in stats.items() if total}
    worst = dict(sorted(accuracy.items(), key=lambda kv: kv[1])[:12])
    print(bar_chart(worst, title=f"weakest keys on {args.keyboard}", vmax=1.0))
    overall = sum(c for c, _ in stats.values()) / max(1, sum(t for _, t in stats.values()))
    print(f"overall per-key accuracy: {overall:.3f}")
    return 0


def _cmd_report(args) -> int:
    written = generate_report(args.output_dir, scale=args.scale)
    for name, path in written.items():
        print(f"wrote {path}")
    return 0


def _cmd_devices(args) -> int:
    print("phones:")
    for name in PHONE_REGISTRY.names():
        spec = phone(name)
        print(f"  {name:12s} {spec.display_name} ({spec.gpu.name}, Android {spec.android.version})")
    print("keyboards:")
    for name in KEYBOARD_REGISTRY.names():
        print(f"  {name:12s} {keyboard(name).display_name}")
    print("apps:")
    for name in APP_REGISTRY.names():
        spec = app(name)
        print(f"  {name:14s} {spec.display_name} ({spec.category})")
    print(
        f"scenarios: {len(SCENARIO_REGISTRY)} registered "
        "(see 'repro scenarios list')"
    )
    return 0


def _scenario_line(scn) -> str:
    tier = scn.speed_tier or "-"
    tags = ",".join(scn.tags) or "-"
    return (
        f"  {scn.name:22s} kb={scn.keyboard:10s} app={scn.app:12s} "
        f"phone={scn.phone:12s} tier={tier:7s} faults={scn.fault_profile:5s} "
        f"tags={tags}"
    )


def _smoke_credential(scn) -> str:
    """A deterministic 8-char credential drawn from the scenario's
    pool — stable across runs without reaching for an RNG."""
    pool = scn.credential_pool()
    return "".join(pool[(i * 7) % len(pool)] for i in range(8))


def _cmd_scenarios(args) -> int:
    command = getattr(args, "scenarios_command", None) or "list"
    if command == "list":
        names = SCENARIO_REGISTRY.names()
        if getattr(args, "tag", None):
            tagged = {s.name for s in SCENARIO_REGISTRY.tagged(args.tag)}
            names = [n for n in names if n in tagged]
        for name in names:
            print(_scenario_line(scenario(name)))
        print(f"{len(names)} scenario(s)")
        return 0
    if command == "show":
        scn = scenario(args.name)
        for key, value in scn.to_dict().items():
            print(f"{key:14s}: {value!r}")
        pool = scn.credential_pool()
        print(f"{'pool':14s}: {len(pool)} chars ({pool[:20]!r}{'...' if len(pool) > 20 else ''})")
        print(f"{'scene ops':14s}: {len(scn.compile_scene())}")
        return 0
    # smoke: every scenario must train, simulate and attack cleanly.
    names = args.names or SCENARIO_REGISTRY.names()
    failures = []
    for name in names:
        scn = scenario(name)
        credential = _smoke_credential(scn)
        started = time.perf_counter()
        try:
            cfg = AttackConfig(
                scenario=name,
                sweep_repeats=args.sweep_repeats,
                recognize_device=False,
                fault_plan=None,
            )
            store = train(config=cfg)
            trace = simulate(credential=credential, seed=11, config=cfg)
            result = attack(store, trace, seed=12, config=cfg)
        except Exception as exc:  # noqa: BLE001 - any error fails the smoke
            failures.append((name, exc))
            print(f"FAIL  {name:22s} {type(exc).__name__}: {exc}")
            continue
        marker = "exact" if result.text == credential else "partial"
        elapsed = time.perf_counter() - started
        print(f"ok    {name:22s} {marker:7s} ({elapsed:.1f}s)")
    print(f"{len(names) - len(failures)}/{len(names)} scenarios passed")
    return 1 if failures else 0


def _policy_layers(policy) -> str:
    layers = []
    if policy.rbac:
        layers.append("rbac")
    if policy.local_only:
        layers.append("local-only")
    if policy.rate_limit_hz:
        layers.append(f"rate<{policy.rate_limit_hz:g}Hz")
    if policy.quantize_step:
        layers.append(f"quantize%{policy.quantize_step}")
    if policy.noise_strength:
        layers.append(f"noise x{policy.noise_strength:g}")
    if policy.disable_popups:
        layers.append("no-popup")
    return "+".join(layers) or "(no-op)"


def _policy_line(policy) -> str:
    tags = ",".join(policy.tags) or "-"
    return f"  {policy.name:18s} {_policy_layers(policy):34s} tags={tags}"


def _smoke_policy(policy) -> None:
    """One policy's smoke: dict round-trip, order-invariant composition,
    and a live enforcement probe at the KGSL boundary contract."""
    restored = MitigationPolicy.from_dict(policy.to_dict())
    if restored != policy:
        raise AssertionError(f"{policy.name}: dict round-trip changed the spec")
    other = mitigation("defense-in-depth")
    if policy.compose(other) != other.compose(policy):
        raise AssertionError(f"{policy.name}: composition is order-sensitive")
    enforcer = policy.enforcer(seed=3)
    if enforcer is None:
        if policy.enforces_kgsl:
            raise AssertionError(f"{policy.name}: enforcing policy built no enforcer")
        return
    untrusted = ProcessContext()
    try:
        enforcer.check(untrusted, "read", [(11, 2)])
        denied = False
    except IoctlError:
        denied = True
    if denied != policy.rbac:
        raise AssertionError(
            f"{policy.name}: rbac={policy.rbac} but untrusted read "
            f"{'denied' if denied else 'allowed'}"
        )
    if not denied:
        rows = np.full((1, 11), 100_000, dtype=np.int64)
        enforcer.filter_value(untrusted, np.zeros(1), rows, np.ones(rows.shape, dtype=bool))
        if rows.dtype != np.int64 or (rows < 0).any():
            raise AssertionError(f"{policy.name}: filter_value served {rows.tolist()!r}")


def _cmd_defenses(args) -> int:
    command = getattr(args, "defenses_command", None) or "list"
    if command == "list":
        names = MITIGATION_REGISTRY.names()
        if getattr(args, "tag", None):
            tagged = {p.name for p in MITIGATION_REGISTRY.tagged(args.tag)}
            names = [n for n in names if n in tagged]
        for name in names:
            print(_policy_line(mitigation(name)))
        print(f"{len(names)} mitigation policy(ies)")
        return 0
    if command == "show":
        policy = mitigation(args.name)
        for key, value in policy.to_dict().items():
            print(f"{key:20s}: {value!r}")
        print(f"{'layers':20s}: {_policy_layers(policy)}")
        print(f"{'enforces kgsl':20s}: {policy.enforces_kgsl}")
        return 0
    if command == "smoke":
        names = args.names or MITIGATION_REGISTRY.names()
        failures = []
        for name in names:
            try:
                _smoke_policy(mitigation(name))
            except Exception as exc:  # noqa: BLE001 - any error fails the smoke
                failures.append((name, exc))
                print(f"FAIL  {name:18s} {type(exc).__name__}: {exc}")
                continue
            print(f"ok    {name}")
        print(f"{len(names) - len(failures)}/{len(names)} policies passed")
        return 1 if failures else 0
    # sweep: the threat x mitigation matrix over the live attack.
    scenarios = args.scenario or ["pinpad", "gboard-chase"]
    mitigations: List[Optional[str]] = list(
        args.mitigation
        or ["allow-all", "rbac", "rate-limit-30hz", "obfuscate-strong", "popup-disable"]
    )
    profile = args.fault_profile
    fault_plan = {"auto": "auto", "none": None}.get(profile, profile)
    registry = _metrics_registry(args)
    cells = run_defense_matrix(
        scenarios,
        mitigations,
        sessions=args.sessions,
        length=args.length,
        seed=args.seed,
        fault_plan=fault_plan,
        workers=args.workers,
        metrics=registry,
    )
    print(format_defense_matrix(cells))
    if registry is not None:
        manifest = registry.manifest(
            command="defenses-sweep", cells=len(cells), sessions=args.sessions
        )
        manifest.write(args.metrics_out)
        print(f"metrics: wrote run manifest to {args.metrics_out}")
    return 0


_COMMANDS = {
    "steal": _cmd_steal,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "fleet": _cmd_fleet,
    "lifecycle": _cmd_lifecycle,
    "survey": _cmd_survey,
    "report": _cmd_report,
    "devices": _cmd_devices,
    "scenarios": _cmd_scenarios,
    "defenses": _cmd_defenses,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
