"""Tests for the stable public facade (:mod:`repro.api`).

The facade is the supported surface for downstream users: typed
configuration, six entry points, a shared result protocol, a
guarantee that the examples and the CLI consume nothing else, and an
export list in which every name has a consumer.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.api import (
    AttackConfig,
    AttackResult,
    FaultPlan,
    ServiceReport,
    SessionResult,
    app,
    attack,
    monitor,
    run_sessions,
    simulate,
    train,
)
from repro.core.online import OnlineResult
from repro.core.pipeline import EavesdropAttack
from repro.faults import FAULT_PROFILE_ENV

REPO_ROOT = Path(__file__).resolve().parent.parent

FACADE = ("train", "attack", "run_sessions", "monitor", "simulate", "run_fleet")


def facade_imports(text):
    """Names a source or doc text takes from the facade, through
    ``from repro.api import ...`` or ``api.X`` (doctest prompts too)."""
    text = re.sub(r"^\s*(>>>|\.\.\.) ?", "", text, flags=re.M)
    names = set(re.findall(r"\bapi\.([A-Za-z_]\w*)", text))
    for match in re.finditer(r"from\s+repro\.api\s+import\s+(\([^)]*\)|[^\n]*)", text):
        for part in match.group(1).strip("()").split(","):
            name = part.split("#")[0].split(" as ")[0].strip()
            if name:
                names.add(name)
    return names


def annotation_names(annotations):
    """Every bare name in a mapping of (string) annotations."""
    return {
        node.id
        for annotation in annotations.values()
        for node in ast.walk(ast.parse(str(annotation)))
        if isinstance(node, ast.Name)
    }


def imported_modules(text):
    """Dotted names a Python source imports: each ``import`` target, and
    for ``from M import N`` both ``M`` and ``M.N`` (N may be a module)."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module)
            out |= {f"{node.module}.{alias.name}" for alias in node.names}
    return out


#: Folders whose code counts as a consumer of ``src/repro``.
NON_TEST_FOLDERS = ("src", "bench", "benchmarks", "examples", "tools")

#: A ``"pkg.mod:Qual.name"`` entry-point string (``bench/tracer.py``).
TRACER_TARGET = re.compile(r"^repro(?:\.\w+)*:([\w.]+)$")

#: Definitions no non-test code names, each with the consumer that
#: reaches it another way.
ALLOWED = {
    "repro.api:monitor": "facade entry point; the doctest in docs/api.md calls it",
    "repro.core.results:SessionResult": (
        "facade result protocol; the doctest in docs/api.md checks results against it"
    ),
    "repro.mitigations.policy:mitigation_names": (
        "the doctest in docs/api.md lists the mitigation registry through it"
    ),
    "repro.runtime.source:SamplerDeltaSource.start_t": (
        "Session.__init__ in runtime/session.py reads it through getattr"
    ),
    "repro.scenarios.spec:scenario_names": (
        "the repro package docstring's doctest lists the scenario registry through it"
    ),
}


def definitions(body, prefix=""):
    """``(qualname, node)`` of every non-dunder function, method and class
    in a module or class body, nested classes included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from definitions(node.body, f"{prefix}{node.name}.")


def name_uses(path, tree):
    """``(name, line)`` of every name a module uses: bare names, attribute
    names, imported names and, in ``bench/tracer.py``, the dotted parts of
    each entry-point string.  Re-exports are not uses: a package
    ``__init__`` imports nothing, and a module's ``__all__`` names are not
    imported."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    tracer = path.name == "tracer.py" and path.parent.name == "bench"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
            for alias in node.names:
                name = alias.name.rsplit(".", 1)[-1]
                if name not in exported:
                    yield name, node.lineno
        elif tracer and isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TRACER_TARGET.match(node.value)
            if match:
                for part in match.group(1).split("."):
                    yield part, node.lineno


def src_modules(root):
    """``(dotted name, path, AST)`` of every ``src/repro`` module."""
    src = root / "src"
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield module, path, ast.parse(path.read_text())


def unreferenced_definitions(root):
    """``module:qualname`` of each ``src/repro`` definition whose name no
    non-test code under ``root`` uses outside the definition's own body."""
    uses = {}
    for folder in NON_TEST_FOLDERS:
        for path in (root / folder).rglob("*.py"):
            for name, line in name_uses(path, ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line))
    out = set()
    for module, path, tree in src_modules(root):
        for qualname, node in definitions(tree.body):
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in uses.get(node.name, ())
            ):
                out.add(f"{module}:{qualname}")
    return out


#: Defaulted parameters and config fields that no non-test code sets,
#: each with the consumer or test that needs it to stay an option.
ALLOWED_OPTIONS = {
    "repro.api:simulate(speed_tier)": "facade parameter, documented in docs/api.md",
    "repro.api:attack(model_key)": "facade parameter, documented in docs/api.md",
    "repro.api:attack(runtime_trace)": "facade parameter, documented in docs/api.md",
    "repro.api:monitor(watch_model_key)": "facade parameter, documented in docs/api.md",
    "repro.api:monitor(runtime_trace)": "facade parameter, documented in docs/api.md",
    "repro.api:monitor(metrics)": "facade parameter, documented in docs/api.md",
    "repro.api:run_fleet(device_threads)": "facade parameter, documented in docs/api.md",
    "repro.parallel.sharded:ShardedRuntime.__init__(mp_context)": (
        "test seam: 'inline' runs the shards in-process, so tests substitute "
        "a failing run_shard without a process pool"
    ),
    "repro.collector.client:CollectorClient.__init__(sleep)": (
        "test seam: a no-op sleeper makes retry backoff schedules instantaneous"
    ),
    "repro.collector.server:CollectorServer.__init__(on_result)": (
        "test seam: a slow callback holds the aggregator, so the backpressure "
        "and drain tests can fill the bounded queue"
    ),
    # config fields
    "repro.api:AttackConfig.interval_s": (
        "facade field, documented in docs/api.md: the paper's sampling interval"
    ),
    "repro.api:AttackConfig.detect_switches": (
        "facade field, documented in docs/api.md: the Section 5.2 engine toggle"
    ),
    "repro.api:AttackConfig.track_corrections": (
        "facade field, documented in docs/api.md: the Section 5.3 engine toggle"
    ),
    "repro.api:AttackConfig.recover_collisions": (
        "facade field, documented in docs/api.md: the collision-recovery toggle"
    ),
    "repro.api:AttackConfig.cpu_utilization": (
        "facade field, documented in docs/api.md: Section 7.3 victim load"
    ),
    "repro.api:AttackConfig.gpu_utilization": (
        "facade field, documented in docs/api.md: Section 7.3 victim load"
    ),
    "repro.collector.config:CollectorConfig.host": "deployment setting",
    "repro.collector.config:CollectorConfig.port": (
        "deployment setting; the router also re-pins it for shard children"
    ),
    "repro.collector.config:CollectorConfig.read_timeout_s": "deployment setting",
    "repro.collector.config:CollectorConfig.drain_timeout_s": "deployment setting",
    "repro.collector.config:CollectorConfig.timeout_s": "deployment setting",
    "repro.scenarios.spec:Scenario.phone": "plugin field, documented in docs/scenarios.md",
    "repro.scenarios.spec:Scenario.fault_profile": (
        "plugin field, documented in docs/scenarios.md"
    ),
}

#: The only environment variables ``src/repro`` may read: the CI fault
#: matrix's profile and the scenario plugin path.
ENVIRONMENT = {"REPRO_FAULT_PROFILE", "REPRO_SCENARIO_MODULES"}


def doctest_source(text):
    """The code of every ``>>>``/``...`` line in a text, dedented."""
    return "\n".join(
        match.group(1) for match in re.finditer(r"^\s*(?:>>>|\.\.\.) ?(.*)$", text, flags=re.M)
    )


def callables(body, prefix=""):
    """``(qualname, node, is_method)`` of every function and method in a
    module body, nested classes included (not functions nested in
    functions)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node, bool(prefix)
        elif isinstance(node, ast.ClassDef):
            yield from callables(node.body, f"{prefix}{node.name}.")


def defaulted_parameters(node, is_method):
    """``(name, index)`` of each parameter with a default: ``index`` is
    its position in a call (``self``/``cls`` not counted), ``None`` for
    keyword-only parameters."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )
    bound = 1 if is_method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls(tree):
    """``(callee name, node)`` of every call in a module whose callee is a
    name or an attribute; ``import … as`` aliases resolve to the imported
    name."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield aliases.get(node.func.id, node.func.id), node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def kwargs_forwards(tree):
    """``(forwarder, call)`` of each call that passes its enclosing
    function's own ``**kwargs`` parameter on; an ``__init__`` forwards
    under its class name, the name its callers call it by."""
    inits = {
        fn: cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    }
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.args.kwarg:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and any(
                    k.arg is None and getattr(k.value, "id", None) == fn.args.kwarg.arg
                    for k in node.keywords
                ):
                    yield inits.get(fn, fn.name), node


def option_setters(sources):
    """Per callee name: the keywords that reach it (directly, or through
    functions forwarding their ``**kwargs`` into a call of it, as
    :func:`field_setters` resolves them), the most positional arguments
    one call passes, the first index a ``*args`` covers and whether a
    ``**mapping`` that is no forwarded ``**kwargs`` passes anything."""
    reach = field_setters(sources)
    setters = {}
    for text in sources:
        tree = ast.parse(text)
        forwarded = {node for _, node in kwargs_forwards(tree)}
        for name, node in calls(tree):
            entry = setters.setdefault(name, {"keywords": reach.get(name, set()), "positional": 0,
                                              "star": math.inf, "double_star": False})
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    entry["star"] = min(entry["star"], i)
                    break
                entry["positional"] = max(entry["positional"], i + 1)
            if node not in forwarded and any(k.arg is None for k in node.keywords):
                entry["double_star"] = True
    return setters


def non_test_sources(root):
    """The code of every non-test module and of the doctests in
    docs/api.md and the package docstring."""
    return [
        path.read_text()
        for folder in NON_TEST_FOLDERS
        for path in (root / folder).rglob("*.py")
    ] + [
        doctest_source((root / "docs" / "api.md").read_text()),
        doctest_source((root / "src" / "repro" / "__init__.py").read_text()),
    ]


def unset_options(root):
    """``module:Qual.name(param)`` of each defaulted parameter of a
    ``src/repro`` function or method that no call in non-test code (or in
    the doctests of docs/api.md and the package docstring) passes, by
    keyword (also through ``**kwargs`` forwarders), by position, through
    ``*args`` or through a ``**mapping``.  Calls match by callee name; an
    ``__init__`` is called by its class name."""
    setters = option_setters(non_test_sources(root))
    out = set()
    for module, _, tree in src_modules(root):
        for qualname, node, is_method in callables(tree.body):
            callee = qualname.split(".")[-2] if node.name == "__init__" else node.name
            entry = setters.get(callee)
            for param, index in defaulted_parameters(node, is_method):
                if entry is not None and (
                    param in entry["keywords"]
                    or entry["double_star"]
                    or (index is not None and not entry["positional"] <= index < entry["star"])
                ):
                    continue
                out.add(f"{module}:{qualname}({param})")
    return out


#: The frozen dataclasses whose defaulted init fields are options.
CONFIG_CLASS = re.compile(r"\w*(Config|Plan|Policy|Spec|Model|Drill)|Scenario")


def config_fields(node):
    """``(name, index, defaulted)`` of each init field of a frozen config
    dataclass, ``index`` its position in a constructor call; nothing for
    any other class."""
    frozen = any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in d.keywords
        )
        for d in node.decorator_list
    )
    if not (frozen and CONFIG_CLASS.fullmatch(node.name)):
        return
    index = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if isinstance(options.get("init"), ast.Constant) and not options["init"].value:
                continue
            defaulted = "default" in options or "default_factory" in options
        else:
            defaulted = value is not None
        yield stmt.target.id, index, defaulted
        index += 1


def field_setters(sources):
    """Per callee name: the keywords that reach it, directly or through
    functions that forward their ``**kwargs`` into a call of it (see
    :func:`kwargs_forwards`).  A ``cls(**data)`` whose mapping is no
    ``**kwargs`` parameter forwards nothing, so the spec codec's
    ``from_dict`` sets no field."""
    direct, forwards = {}, {}
    for text in sources:
        tree = ast.parse(text)
        callee = {}
        for name, node in calls(tree):
            callee[node] = name
            direct.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
        for forwarder, node in kwargs_forwards(tree):
            if node in callee:
                forwards.setdefault(forwarder, set()).add(callee[node])
    changed = True
    while changed:
        changed = False
        for forwarder, targets in forwards.items():
            passed = direct.get(forwarder, set())
            for target in targets:
                entry = direct.setdefault(target, set())
                if not passed <= entry:
                    entry |= passed
                    changed = True
    return direct


def unset_fields(root):
    """``module:Class.field`` of each defaulted init field of a frozen
    ``*Config``/``*Plan``/``*Policy``/``*Spec``/``*Model``/``*Drill``
    dataclass or ``Scenario`` in ``src/repro`` that no non-test call sets:
    by keyword or by position in a call of the class (a builtin profile or
    registry table is such a call), by keyword to ``dataclasses.replace``
    (which may copy any of them), or by keyword to a function forwarding
    its ``**kwargs`` into one of those."""
    sources = non_test_sources(root)
    reach = field_setters(sources)
    positional = option_setters(sources)
    out = set()
    for module, _, tree in src_modules(root):
        for _, node in definitions(tree.body):
            if not isinstance(node, ast.ClassDef):
                continue
            entry = positional.get(node.name, {"positional": 0, "star": math.inf})
            keywords = reach.get(node.name, set()) | reach.get("replace", set())
            for name, index, defaulted in config_fields(node):
                if defaulted and name not in keywords and (
                    entry["positional"] <= index < entry["star"]
                ):
                    out.add(f"{module}:{node.name}.{name}")
    return out


#: Methods whose signature an interface fixes, so a body may ignore some
#: of its parameters.
INTERFACE_METHODS = {
    "repro.faults:FaultInjector.after_read": "KGSL Interposer hook",
    "repro.faults:FaultInjector.on_rows": "KGSL Interposer hook",
    "repro.lifecycle.drift:DriftInjector.on_rows": "KGSL Interposer hook",
    "repro.mitigations.policy:PolicyEnforcer.on_rows": "KGSL Interposer hook",
    "repro.obs.registry:NullRegistry.counter": "MetricsRegistry method, null object",
    "repro.obs.registry:NullRegistry.gauge": "MetricsRegistry method, null object",
    "repro.obs.registry:NullRegistry.histogram": "MetricsRegistry method, null object",
    "repro.obs.registry:NullRegistry.span": "MetricsRegistry method, null object",
    "repro.cli:_cmd_devices": "CLI command handler: the dispatcher passes each one the parsed args",
    "repro.core.launch:LaunchWatchStage.on_event": "runtime Stage method: t is the slice's first row time",
}


def functions(node, prefix=""):
    """``(qualname, node)`` of every function, method and nested function
    under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from functions(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from functions(child, prefix)


def is_stub(node):
    """Whether a function body does nothing but document, pass or raise."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return all(
        isinstance(stmt, (ast.Pass, ast.Raise))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


def unread_parameters(root):
    """``module:qualname(param)`` of each parameter that the body of a
    non-stub, non-dunder function or method in ``src/repro`` never reads
    (``self``/``cls`` aside)."""
    out = set()
    for module, _, tree in src_modules(root):
        for qualname, node in functions(tree):
            if is_stub(node) or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            reads = {
                name.id
                for stmt in node.body
                for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            out |= {
                f"{module}:{qualname}({param})"
                for param in params
                if param not in reads and param not in ("self", "cls")
            }
    return out


def annotation_strings(tree):
    """Names used by the string annotations of a module (``"Cls"`` and
    ``Optional["Cls"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {
        name.id
        for annotation in annotations
        if annotation is not None
        for text in ast.walk(annotation)
        if isinstance(text, ast.Constant) and isinstance(text.value, str)
        for name in ast.walk(ast.parse(text.value, mode="eval"))
        if isinstance(name, ast.Name)
    }


def unused_imports(root):
    """``module:name`` of each name a non-package ``src/repro`` module
    imports and neither its code nor a string annotation uses
    (``__future__`` imports aside).  A name the module lists in
    ``__all__`` is a re-export, which is a use."""
    out = set()
    for module, path, tree in src_modules(root):
        if path.name == "__init__.py":
            continue
        imported, used = set(), annotation_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
        out |= {f"{module}:{name}" for name in imported - used}
    return out


def environment_reads(root):
    """Names of the environment variables ``src/repro`` reads through
    ``os.environ`` or ``os.getenv``.  A key that is a module constant
    resolves to its value; an attribute key resolves to every value some
    call passes for a keyword of that name; anything else reads as
    ``<unresolved>``."""
    trees = [ast.parse(p.read_text()) for p in (root / "src" / "repro").rglob("*.py")]
    constants, keyword_values, keys = {}, {}, []

    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    for tree in trees:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value.value
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    keyword_values.setdefault(keyword.arg, []).append(keyword.value)
                func = node.func
                if isinstance(func, ast.Attribute) and (
                    (func.attr == "get" and is_environ(func.value)) or func.attr == "getenv"
                ):
                    keys.append(node.args[0])
            elif isinstance(node, ast.Subscript) and is_environ(node.value):
                keys.append(node.slice)
            elif isinstance(node, ast.Compare) and any(map(is_environ, node.comparators)):
                keys.append(node.left)

    def resolve(key):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return {key.value}
        if isinstance(key, ast.Name) and key.id in constants:
            return {constants[key.id]}
        if isinstance(key, ast.Attribute) and key.attr in keyword_values:
            return set().union(*map(resolve, keyword_values[key.attr]))
        return {"<unresolved>"}

    return set().union(*map(resolve, keys))


CREDENTIAL = "secretpw1"


@pytest.fixture(scope="module")
def cfg():
    return AttackConfig(recognize_device=False)


@pytest.fixture(scope="module")
def trace(config, cfg):
    return simulate(config, app("chase"), CREDENTIAL, seed=3, config=cfg)


def launch_session(config, text="secret12"):
    """A victim session with an app-launch burst, for the service path."""
    device = api.VictimDevice(config, app("chase"), rng=np.random.default_rng(31))
    events = [api.KeyPress(t=3.0 + 0.45 * i, char=c) for i, c in enumerate(text)]
    return device.compile(events, end_time_s=9.0, launch_at_s=1.2)


class TestAttackConfig:
    def test_defaults_are_valid(self):
        cfg = AttackConfig()
        assert cfg.interval_s > 0
        assert cfg.fault_plan == "auto"
        assert cfg.load.cpu_utilization == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"interval_s": 0.0},
        {"interval_s": -0.008},
        {"cpu_utilization": -0.1},
        {"cpu_utilization": 1.5},
        {"gpu_utilization": -0.2},
        {"sweep_repeats": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AttackConfig().interval_s = 0.1  # type: ignore[misc]

    def test_dict_round_trip_with_defaults(self):
        cfg = AttackConfig()
        assert AttackConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_with_nested_fault_plan(self):
        cfg = AttackConfig(fault_plan=FaultPlan.from_profile("mild", seed=9))
        data = cfg.to_dict()
        assert isinstance(data["fault_plan"], dict)
        assert AttackConfig.from_dict(data) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown AttackConfig fields"):
            AttackConfig.from_dict({"interva1_s": 0.008})

    def test_resolved_fault_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        assert AttackConfig(fault_plan=None).resolved_fault_plan() is None
        assert AttackConfig().resolved_fault_plan() is None
        plan = AttackConfig(fault_plan="harsh").resolved_fault_plan()
        assert plan is not None and plan.profile == "harsh"

    def test_only_the_fault_profile_reads_the_environment(
        self, chase_store, trace, monkeypatch
    ):
        # the mitigation, drift and calibration defaults are None: setting
        # the variables an earlier release read changes nothing, and
        # "auto" is no name for those fields
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        plain = AttackConfig(recognize_device=False)
        unset = attack(chase_store, trace, seed=77, config=plain)
        monkeypatch.setenv("REPRO_MITIGATION", "rbac")
        monkeypatch.setenv("REPRO_DRIFT_PROFILE", "thermal-harsh")
        monkeypatch.setenv("REPRO_CALIBRATION", "eager")
        cfg = AttackConfig(recognize_device=False)
        assert cfg.resolved_mitigation() is None
        assert cfg.resolved_drift_plan() is None
        assert cfg.resolved_calibration() is None
        assert attack(chase_store, trace, seed=77, config=cfg).keys == unset.keys
        for field in ("mitigation", "drift", "calibration"):
            with pytest.raises((KeyError, ValueError)):
                AttackConfig(**{field: "auto"})


class TestFacade:
    def test_train_matches_pipeline_defaults(self, config, chase_model, cfg):
        store = train([(config, app("chase"))], config=cfg)
        assert store.keys() == [chase_model.model_key]
        assert store.get(store.keys()[0]).cth == chase_model.cth

    def test_attack_matches_direct_pipeline(self, chase_store, trace, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        via_facade = attack(chase_store, trace, seed=77, config=cfg)
        direct = EavesdropAttack(
            chase_store, recognize_device=False, fault_plan=None
        ).run_on_trace(trace, seed=77)
        assert via_facade.text == direct.text
        assert via_facade.reads_issued == direct.reads_issued

    def test_run_sessions_batches(self, chase_store, config, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        traces = [
            simulate(config, app("chase"), CREDENTIAL, seed=3 + i, config=cfg)
            for i in range(2)
        ]
        results = run_sessions(chase_store, traces, seed=55, config=cfg)
        assert len(results) == 2
        assert all(isinstance(r, AttackResult) for r in results)

    def test_monitor_runs_the_service(self, chase_store, config, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        report = monitor(chase_store, launch_session(config), seed=77)
        assert isinstance(report, ServiceReport)
        assert report.launch_detected_at is not None
        assert report.text == "secret12"

    def test_monitor_honours_the_engine_toggles(self, chase_store, config):
        # the service escalates into the attack the config describes, so
        # with correction tracking off it reports no deletions, as attack()
        session = api.VictimDevice(
            config, app("chase"), rng=np.random.default_rng(31)
        ).compile(
            [api.KeyPress(t=3.0 + 0.45 * i, char=c) for i, c in enumerate("secret1")]
            + [api.BackspacePress(t=6.6)],
            end_time_s=9.0,
            launch_at_s=1.2,
        )
        pinned = dict(fault_plan=None, mitigation=None, drift=None)
        tracking = AttackConfig(**pinned)
        assert monitor(chase_store, session, seed=77, config=tracking).deletions_detected
        off = AttackConfig(
            detect_switches=False,
            track_corrections=False,
            recover_collisions=False,
            **pinned,
        )
        assert attack(chase_store, session, seed=77, config=off).stats.deletions_detected == 0
        assert monitor(chase_store, session, seed=77, config=off).deletions_detected == 0

    def test_all_names_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []


class TestResultProtocol:
    """Every result type exposes keys / text / stats / trace."""

    def test_attack_result_satisfies_protocol(self, chase_store, trace, cfg):
        result = attack(chase_store, trace, seed=77, config=cfg)
        assert isinstance(result, SessionResult)
        assert result.text == "".join(k.char for k in result.keys if not k.deleted)
        assert result.stats is result.online.stats
        assert result.trace is not None

    def test_online_result_satisfies_protocol(self):
        assert isinstance(OnlineResult(), SessionResult)

    def test_service_report_satisfies_protocol(self, chase_store, config):
        report = monitor(chase_store, launch_session(config), seed=77)
        assert isinstance(report, SessionResult)


class TestConsumersUseOnlyTheFacade:
    """Meta-test: examples and the CLI must import repro.api only."""

    CONSUMERS = sorted(
        list((REPO_ROOT / "examples").glob("*.py"))
        + [REPO_ROOT / "src" / "repro" / "cli.py"]
    )

    @pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: p.name)
    def test_imports_only_repro_api(self, path):
        source = path.read_text()
        offenders = [
            line.strip()
            for line in source.splitlines()
            if re.match(r"^(from|import)\s+repro", line)
            and not re.match(r"^from\s+repro\.api\s+import\b", line)
        ]
        assert offenders == [], f"{path.name} bypasses repro.api: {offenders}"

    @pytest.mark.parametrize(
        "path", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_names_are_exported(self, path):
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api"
            for alias in node.names
        }
        assert sorted(imported - set(api.__all__)) == []

    def test_every_export_has_a_consumer(self):
        # keep-rule: a name is exported only if the examples, the CLI,
        # the package docstring, the benchmarks or the docs import it,
        # or it types a facade parameter, return value or config field
        src = REPO_ROOT / "src" / "repro"
        consumers = (
            list((REPO_ROOT / "examples").glob("*.py"))
            + [src / "cli.py", src / "__init__.py"]
            + list((REPO_ROOT / "bench").rglob("*.py"))
            + list((REPO_ROOT / "benchmarks").rglob("*.py"))
            + list((REPO_ROOT / "docs").glob("*.md"))
            + [REPO_ROOT / "README.md"]
        )
        used = set().union(*(facade_imports(p.read_text()) for p in consumers))
        for name in FACADE:
            used |= annotation_names(getattr(api, name).__annotations__)
        used |= annotation_names(AttackConfig.__annotations__)
        assert sorted(set(api.__all__) - used) == []

    def test_every_module_has_a_non_test_importer(self):
        src = REPO_ROOT / "src"
        modules = set()
        for path in (src / "repro").rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        importers = [
            path
            for folder in ("src", "examples", "bench", "benchmarks", "tools")
            for path in (REPO_ROOT / folder).rglob("*.py")
        ]
        imported = set().union(*(imported_modules(p.read_text()) for p in importers))
        # importing a module imports every package that encloses it
        reached = {
            name.rsplit(".", depth)[0]
            for name in imported
            for depth in range(name.count(".") + 1)
        }
        entry_points = {"repro.__main__", "repro.cli"}
        assert sorted(modules - reached - entry_points) == []

    def test_every_definition_has_a_non_test_caller(self):
        # keep-rule: production, the bench, the benchmarks, the examples
        # or the tools name every function, method and class; reference
        # implementations that only tests call live in tests/oracles.py.
        # The scan matches names only, so it can miss dead code whose name
        # something else shares, but it never misses a caller.
        unreferenced = unreferenced_definitions(REPO_ROOT)
        assert sorted(unreferenced - ALLOWED.keys()) == [], "no non-test caller"
        assert sorted(ALLOWED.keys() - unreferenced) == [], "stale ALLOWED entry"

    def test_every_option_has_a_non_test_setter(self):
        # keep-rule: a defaulted parameter or config field is an option
        # only if production, the bench, the benchmarks, the examples, the
        # tools or the doctests set it; a value only tests change is a
        # module or class constant they monkeypatch.  Matching by callee
        # name can keep an option that a same-named call passes, but it
        # never drops a used one.
        unset = unset_options(REPO_ROOT) | unset_fields(REPO_ROOT)
        assert sorted(unset - ALLOWED_OPTIONS.keys()) == [], "no non-test setter"
        assert sorted(ALLOWED_OPTIONS.keys() - unset) == [], "stale ALLOWED_OPTIONS entry"
        assert sorted(environment_reads(REPO_ROOT) - ENVIRONMENT) == [], (
            "src/repro reads an environment variable nothing sets"
        )

    def test_field_guard_counts_calls_replace_and_forwarders_only(self, tmp_path):
        # a field is set by a call of its class (positionally too), by
        # dataclasses.replace and by a **kwargs forwarder; a cls(**data)
        # codec sets none, and only frozen config-named classes count
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text("")
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "mod.py").write_text(
            "from dataclasses import dataclass, replace\n"
            "@dataclass(frozen=True)\n"
            "class FooConfig:\n"
            "    name: str\n"
            "    a: int = 1\n"
            "    b: int = 2\n"
            "    c: int = 3\n"
            "    d: int = 4\n"
            "    e: int = 5\n"
            "@dataclass\n"
            "class BarConfig:\n"
            "    z: int = 0\n"
            "def make(**overrides):\n"
            "    return FooConfig('x', **overrides)\n"
            "def load(cls, data):\n"
            "    return cls(**data)\n"
            "FOO = FooConfig('foo', 2)\n"
            "FOO_B = make(b=3)\n"
            "FOO_C = replace(FOO, c=4)\n"
            "LOADED = load(FooConfig, {'name': 'y', 'd': 5})\n"
        )
        for folder in NON_TEST_FOLDERS[1:]:
            (tmp_path / folder).mkdir()
        assert unset_fields(tmp_path) == {"repro.mod:FooConfig.d", "repro.mod:FooConfig.e"}

    def test_option_guard_resolves_kwargs_forwarders(self, tmp_path):
        # a **kwargs forwarder sets only the keywords its callers pass it,
        # an __init__ forwards under its class name, and a **mapping that
        # is no forwarded **kwargs may set any option
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text("")
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "mod.py").write_text(
            "class Server:\n"
            "    def __init__(self, a=1, b=2, c=3):\n"
            "        pass\n"
            "class Handle:\n"
            "    def __init__(self, **kwargs):\n"
            "        self.server = Server(**kwargs)\n"
            "def load(a=1, b=2):\n"
            "    pass\n"
            "HANDLE = Handle(a=5)\n"
            "OPTIONS = {'b': 1}\n"
            "LOADED = load(**OPTIONS)\n"
        )
        for folder in NON_TEST_FOLDERS[1:]:
            (tmp_path / folder).mkdir()
        assert unset_options(tmp_path) == {
            "repro.mod:Server.__init__(b)",
            "repro.mod:Server.__init__(c)",
        }

    def test_every_import_is_used(self):
        # keep-rule: a module imports only the names it uses; package
        # __init__ files re-export, so they are not scanned
        assert sorted(unused_imports(REPO_ROOT)) == [], "imported but never used"

    def test_import_guard_counts_code_annotations_and_reexports(self, tmp_path):
        # a name is used by code, by a string annotation or by __all__;
        # __future__ imports and package __init__ files are exempt
        (tmp_path / "src" / "repro" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("import os\n")
        (tmp_path / "src" / "repro" / "pkg" / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "pkg" / "mod.py").write_text(
            "from __future__ import annotations\n"
            "import os.path\n"
            "import json as codec\n"
            "from typing import List, Optional, Sequence\n"
            "from dataclasses import dataclass, field\n"
            "__all__ = ['List']\n"
            "@dataclass\n"
            "class Box:\n"
            "    items: 'Optional[Sequence]' = None\n"
            "def dump(box) -> 'Box':\n"
            "    return os.path.join(box)\n"
        )
        assert unused_imports(tmp_path) == {"repro.pkg.mod:codec", "repro.pkg.mod:field"}

    def test_every_parameter_is_read(self):
        # keep-rule: a function reads every parameter it takes, unless an
        # interface fixes its signature; stubs and dunders are not scanned
        unread = unread_parameters(REPO_ROOT)
        owners = {entry.split("(")[0] for entry in unread}
        assert sorted(e for e in unread if e.split("(")[0] not in INTERFACE_METHODS) == [], (
            "parameter never read"
        )
        assert sorted(INTERFACE_METHODS.keys() - owners) == [], "stale INTERFACE_METHODS entry"
