"""Public-surface audit: __all__ integrity, typing marker, facade exports.

The facade (:mod:`repro.api`) is the documented, typed entry point; this
suite keeps the advertised surface honest:

* every ``__all__`` name in every module resolves to a real attribute;
* every public module *has* an ``__all__`` (no accidental surface);
* the ``py.typed`` marker ships so checkers consume the annotations;
* the facade re-exports the documented spec/plan/session names;
* nothing is an island: every module and export is reached from what
  runs (the CLI, the facade, the examples, the benchmarks).
"""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).parent


@functools.cache
def package_sources() -> dict[str, tuple[str, ast.Module]]:
    """Every ``src/repro`` file's text and parse tree, keyed by its path
    under the package: the one parse every census below reads."""
    sources = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        text = path.read_text()
        sources[path.relative_to(PACKAGE_DIR).as_posix()] = (
            text, ast.parse(text))
    return sources


def iter_module_names():
    yield "repro"
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield mod.name


MODULES = sorted(iter_module_names())


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ has dupes"


@pytest.mark.parametrize(
    "name", [n for n in MODULES if not n.rsplit(".", 1)[-1].startswith("_")]
)
def test_public_modules_declare_all(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"


def test_py_typed_marker_ships():
    assert (PACKAGE_DIR / "py.typed").is_file()


def test_facade_exports_the_documented_surface():
    import repro.api as api

    documented = {
        "Experiment", "ExecutionPlan", "Session",
        "ModelSpec", "DataSpec", "ClusterSpec", "ParallelismSpec",
        "FaultToleranceSpec", "FTStrategy", "build_engine",
        "plan_workload", "demo_fleet_specs",
        "RecoveryPolicy", "register_recovery_policy",
        "get_recovery_policy", "recovery_policy_names",
    }
    assert documented <= set(api.__all__)


def test_top_level_reexports_facade():
    for name in ("Experiment", "Session", "ModelSpec", "DataSpec",
                 "ClusterSpec", "ParallelismSpec", "FaultToleranceSpec"):
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.api, name)


def test_one_run_path_constructor_census():
    """Trainers and engines are constructed in exactly one place each.

    ``Experiment -> ExecutionPlan -> build_engine -> SwiftTrainer`` is the
    only way ``src/repro`` builds a training run; a second hand-wired
    constructor call (the fork removed from ``jobs/spec.py`` and
    ``api/session.py``) fails here.
    """
    import ast

    home = {
        "SwiftTrainer": {"api/session.py"},
        "DataParallelEngine": {"api/engines.py"},
        "PipelineEngine": {"api/engines.py"},
        "FSDPEngine": {"api/engines.py"},
        "ShardedReplicationRecovery": {"core/policies.py"},
    }
    called = {name: set() for name in home}
    for where, (_, tree) in package_sources().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in home:
                called[name].add(where)
    # the replication policy picks its mechanism class and calls it
    # through a local, so that one has no direct call site
    assert not called.pop("ShardedReplicationRecovery") - {"core/policies.py"}
    assert called == {name: home[name] for name in called}


def test_one_pipeline_interpreter_census():
    """Pipeline instructions are executed in exactly one place.

    ``PipelineEngine`` dispatches on ``Instruction.op`` and drives the
    stages' forward/backward for the live step *and* for logging replay;
    a second, private interpreter (the hand-written replay loop removed
    from ``core/replay.py``) fails here.
    """
    import ast

    from repro.parallel import INSTRUCTION_OPS

    interpreter = "parallel/pipeline.py"
    # schedule generation, verification and pricing read ops, none executes
    reads_ops = {interpreter, "parallel/instructions.py",
                 "parallel/programs.py", "parallel/schedules.py"}
    stage_calls, op_dispatch = set(), set()
    for where, (_, tree) in package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) in ("forward_mb", "backward_mb"):
                stage_calls.add(where)
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in INSTRUCTION_OPS
                    for c in ast.walk(node)):
                op_dispatch.add(where)
    assert stage_calls == {interpreter}
    assert op_dispatch <= reads_ops
    replay = (PACKAGE_DIR / "core" / "replay.py").read_text()
    assert ".backward(" not in replay and "module(" not in replay
    # a backward restores its forward's stashed layer caches; it calls
    # no module (that would be the deleted second forward)
    [backward_mb] = [
        node for node in ast.walk(package_sources()[interpreter][1])
        if isinstance(node, ast.FunctionDef) and node.name == "backward_mb"]
    calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
             for node in ast.walk(backward_mb) if isinstance(node, ast.Call)}
    assert calls == {"pop", "restore_caches", "backward"}
    # the bans the second interpreter needed are gone with it, and so is
    # the 'auto' exception that kept interleaved pipelines off the log
    source = "".join(text for text, _ in package_sources().values())
    for banned in ("logging_interleaved", "cannot replay interleaved",
                   "contiguous stage", "'auto' keeps checkpoints there"):
        assert banned not in source, banned


def test_one_restore_contract_census():
    """State holders are built, engines told apart and the kind ->
    mechanisms rule stated in one place each.

    Every recovery mechanism, the elastic coordinator and the trainer go
    through the engines' ``state_holders`` / ``restore_shard`` /
    ``finish_restore``; a second construct-and-load copy, an engine-type
    fork or a private copy of the compatibility table fails here.
    """
    import ast

    holder_home = {
        "DPWorker": {"parallel/data_parallel.py"},
        "FSDPWorker": {"parallel/fsdp.py"},
        "PipelineStage": {"parallel/pipeline.py"},
    }
    engines = {"DataParallelEngine", "PipelineEngine", "FSDPEngine"}
    built = {name: set() for name in holder_home}
    type_forks = set()
    sources = {where: text for where, (text, _) in package_sources().items()}
    for where, (_, tree) in package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "is_pipeline":
                type_forks.add(where)
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None)
            if name in built:
                built[name].add(where)
            if name == "isinstance" and any(
                    getattr(n, "id", None) in engines
                    or getattr(n, "attr", None) in engines
                    for n in ast.walk(node.args[1])):
                type_forks.add(where)
    assert built == holder_home
    # the constructor dispatch reads ``plan.engine_kind`` and the
    # replication policy picks its mechanism by ``engine.kind``: nobody
    # asks an engine for its class
    assert not type_forks
    for name in ("_STRATEGY_KINDS", "_KIND_STRATEGIES"):
        assert not [w for w, text in sources.items() if name in text], name
    for where in ("core/strategy.py", "api/experiment.py", "plan/space.py",
                  "core/policies.py", "jobs/spec.py"):
        assert "MECHANISMS_BY_KIND" in sources[where], where


def test_one_pricer_census():
    """Iterations and crashes are priced by ``CostModel.pricing`` alone.

    The simulator, the chaos trace walk and the planner objective used
    to share module-level ``per_iteration_overhead`` / ``recovery_seconds``
    helpers that rebuilt a ``RecoveryTimes`` per crash; a second pricer,
    or a per-crash call to a ``recovery_*`` decomposition from the walk
    or the planner, fails here.
    """
    import ast

    from repro.sim import CostModel

    decompositions = {n for n in vars(CostModel) if n.startswith("recovery_")}
    assert decompositions  # the Figure 9/10 decompositions stay
    defined, decomposed = set(), set()
    for where, (_, tree) in package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.lstrip("_") in ("recovery_seconds",
                                                  "per_iteration_overhead"):
                defined.add(where)
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) in decompositions \
                    and where.split("/")[0] in ("chaos", "plan"):
                decomposed.add(f"{where}:{node.func.attr}")
    assert not defined
    assert not decomposed


def test_one_set_of_recovery_constants_census():
    """The paper's recovery constants are written once, the engines charge
    them and ``plan()`` prices through ``CostModel.pricing``.

    §6's detection lives in ``core/detector.py``; the 5 s replacement
    join, §7.1's 1 s logging init and §4's undo kernels in
    ``core/replication.py``.  Every default that names the join reads that
    definition, every update-undo charges ``UNDO_KERNEL_TIME``, the cost
    model reads detection and undo from the same definitions, nothing
    takes a knob for any of them (``detection_time`` is a field of the
    two reports only), and the private goodput model and the planner's
    copy of the candidate -> workload bridge (with its lazy
    ``repro.api.experiment`` import) stay deleted.
    """
    import ast

    constants = {"REPLACEMENT_JOIN_TIME", "LOGGING_INIT_TIME",
                 "UNDO_KERNEL_TIME", "DETECTION_TIME"}
    knobs = ("logging_init_time", "undo_kernel_time", "nccl_poll_interval",
             "kv_roundtrip", "abort_time", "poll_interval")
    resolvers = {"resolve_dp_consistency", "resolve_pipeline_consistency"}
    defined, join_defaults, deleted = [], set(), set()
    detection_fields, undo_charges = set(), {}
    for where, (source, tree) in package_sources().items():
        for knob in knobs:
            assert knob not in source, (where, knob)
        for node in ast.walk(tree):
            pairs = []
            if isinstance(node, ast.Assign):
                defined += [(where, t.id) for t in node.targets
                            if getattr(t, "id", None) in constants]
            elif isinstance(node, ast.AnnAssign):
                pairs.append((node.target, node.value))
            elif isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                pairs += zip(positional[len(positional)
                                        - len(node.defaults):],
                             node.defaults)
                pairs += zip(node.kwonlyargs, node.kw_defaults)
            elif isinstance(node, ast.FunctionDef) and node.name in (
                    "_expected_goodput", "_state_multiplier"):
                deleted.add(f"{where}:{node.name}")
            if isinstance(node, ast.FunctionDef) and resolvers & {
                    getattr(n.func, "id", None) for n in ast.walk(node)
                    if isinstance(n, ast.Call)}:
                charged = [n.value for n in ast.walk(node)
                           if isinstance(n, ast.Assign)
                           and [getattr(t, "id", None) for t in n.targets]
                           == ["undo_time"]]
                leaves = [n for value in charged for n in ast.walk(value)]
                # the constant is read and no other number is charged
                undo_charges[f"{where}:{node.name}"] = "UNDO_KERNEL_TIME" in {
                    getattr(n, "id", None) for n in leaves} and {
                    n.value for n in leaves
                    if isinstance(n, ast.Constant)} <= {0.0}
            for target, default in pairs:
                name = getattr(target, "id", None) or getattr(
                    target, "arg", None)
                if name == "replacement_join_time":
                    join_defaults.add((where, ast.unparse(default)))
                if name == "detection_time":
                    detection_fields.add(where)
    assert sorted(defined) == [("core/detector.py", "DETECTION_TIME"),
                               ("core/replication.py", "LOGGING_INIT_TIME"),
                               ("core/replication.py",
                                "REPLACEMENT_JOIN_TIME"),
                               ("core/replication.py", "UNDO_KERNEL_TIME")]
    assert {default for _, default in join_defaults} == {
        "REPLACEMENT_JOIN_TIME"}
    assert {"api/specs.py", "core/trainer.py", "sim/costmodel.py"} <= {
        where for where, _ in join_defaults}
    # DetectionReport and RecoveryReport: no config or engine sets it
    assert detection_fields == {"core/detector.py", "core/replication.py"}
    assert undo_charges == {
        "core/elastic.py:scale_in": True,
        "core/replay.py:recover": True,
        "core/replication.py:recover": True,
        "core/sharded_recovery.py:recover": True,
    }
    costmodel = package_sources()["sim/costmodel.py"][0]
    assert all(name in costmodel for name in constants)
    assert not deleted
    space = package_sources()["plan/space.py"][1]
    assert not [node.module for node in ast.walk(space)
                if isinstance(node, ast.ImportFrom)
                and node.module == "repro.api.experiment"]


def test_one_placement_core_census():
    """The fleet scheduler and the serve control plane place gangs through
    ``repro.jobs.placement`` alone, and the fleet logs its own WAL.

    The core is pure: it imports nothing from ``repro``, and
    ``repro.jobs`` imports nothing from ``repro.serve`` or ``repro.sim``.
    The spread's failure-count sort key and the preemption hand-out
    (``take = min(...)``, then ``need -= take``) are written once, in the
    core.  The priority queue, the WAL mirror,
    its slot-diffing and the spare pool's lease log for it stay deleted.
    """
    import ast

    def failure_key(node):
        return isinstance(node, ast.Lambda) and isinstance(
            node.body, ast.Tuple) and any(
            "fail" in str(getattr(n, "id", None) or getattr(n, "attr", None)
                          or getattr(n, "value", ""))
            for n in ast.walk(node.body))

    def hand_out(node):
        if not isinstance(node, ast.For):
            return False
        taken = {t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
                 and getattr(getattr(n.value, "func", None), "id", None)
                 == "min" for t in n.targets if isinstance(t, ast.Name)}
        return any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Sub)
                   and getattr(n.value, "id", None) in taken
                   for n in ast.walk(node))

    found = {"failure_key": set(), "hand_out": set()}
    for where, (source, tree) in package_sources().items():
        for name in ("JobQueue", "FleetWalMirror", "placement_diff",
                     "lease_log"):
            assert name not in source, (where, name)
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [("." * node.level) + (node.module or "")
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        if where == "jobs/placement.py":
            assert not [m for m in imported
                        if m.startswith((".", "repro"))], imported
        if where.startswith("jobs/"):
            assert not [m for m in imported
                        if m.startswith(("repro.serve", "repro.sim"))], where
        for node in ast.walk(tree):
            for kind, matches in (("failure_key", failure_key),
                                  ("hand_out", hand_out)):
                if matches(node):
                    found[kind].add(where)
    assert found == {kind: {"jobs/placement.py"} for kind in found}


def test_one_update_kernel_census():
    """Every optimizer update runs through ``Optimizer.step_flat``.

    Each rule is written once, as its flat kernel: the per-parameter copy
    (``_update``), its entry points (``step_param``, ``Optimizer.step``),
    the ``supports_flat`` probe and the switches that chose between the
    two paths (``ParallelismSpec.fused``, ``DataParallelEngine(fused=)``,
    ``PipelineStage.fused_updates``) stay deleted.  The per-parameter
    reference lives in ``tests/optim_oracle.py``.
    """
    banned = {"_update", "step_param", "supports_flat"}
    switches = {"fused", "fused_updates"}
    found = set()
    for where, (_, tree) in package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                    node.name in banned
                    or where.startswith("optim/") and node.name == "step"):
                found.add(f"{where}: def {node.name}")
            name = (getattr(node, "arg", None) or getattr(node, "attr", None)
                    or getattr(node, "id", None))
            if name in switches:
                found.add(f"{where}: {name}")
    assert not found


REPO_ROOT = Path(__file__).resolve().parent.parent

#: what runs the package besides its CLI and facade: CI runs every example
#: (``test_ci_runs_every_example``), and the paper benchmarks and the
#: end-to-end harness import it
CALLER_DIRS = ("examples", "benchmarks", "bench")

#: exported names that nothing but tests and doctests calls, and why each
#: stays
ALLOWED_TEST_ONLY = {
    "megatron_figure2_layout": "Figure 2's layout, the case choose_strategy "
                               "is tested on",
    "transformer_message_bytes": "the formula Table 2's boundary_bytes are "
                                 "checked against",
    "Dropout": "a layer whose backward reads forward-time state; the "
               "pipeline stash oracle runs it",
    "Identity": "an nn test fixture",
    "FailureSource": "the documented protocol the engines consume",
    "evaluate_trace": "a doctested repro.chaos entry point",
    "sample_paired_traces": "a doctested repro.chaos entry point",
    "register_searcher": "the extension point docs/autoplan.md documents",
    "fuzz_protocol": "the tier-1 protocol fuzz",
}


class _ImportGraph:
    """``src/repro`` parsed, with every import resolved to the module that
    defines the imported name: a package ``__init__`` re-export is
    followed to its source and never counts as a use of its own."""

    def __init__(self):
        self.trees, self.packages = {}, set()
        for where, (_, tree) in package_sources().items():
            parts = ("repro",) + Path(where).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.trees[".".join(parts)] = tree
        #: module -> {bound name: (source module, name there)}
        self.bindings = {
            module: {alias.asname or alias.name:
                     (self.source(node, module), alias.name)
                     for node in tree.body if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
            for module, tree in self.trees.items()
        }

    def source(self, node, here=None):
        """Absolute module name of a ``from ... import``."""
        if not node.level:
            return node.module or ""
        parts = here.split(".")
        base = parts[:len(parts) - node.level + (here in self.packages)]
        return ".".join(base + ([node.module] if node.module else []))

    def resolve(self, module, name):
        """``(defining module, name)``, or ``(submodule, None)``."""
        if f"{module}.{name}" in self.trees:
            return f"{module}.{name}", None
        source, original = self.bindings.get(module, {}).get(name, ("", ""))
        if source.split(".")[0] != "repro":
            return module, name
        return self.resolve(source, original)

    def scan(self, tree, here=None):
        """The modules a file imports and the (module, name)s it uses."""
        modules, used, aliases = set(), set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        modules.add(alias.name)
                        aliases[alias.asname or "repro"] = (
                            alias.name if alias.asname else "repro")
            elif isinstance(node, ast.ImportFrom):
                source = self.source(node, here)
                if source.split(".")[0] != "repro":
                    continue
                for alias in node.names:
                    module, name = self.resolve(source, alias.name)
                    modules.add(module)
                    if name is None:
                        aliases[alias.asname or alias.name] = module
                    else:
                        used.add((module, name))

        def module_of(expr):
            if isinstance(expr, ast.Name):
                return aliases.get(expr.id)
            if isinstance(expr, ast.Attribute):
                base = module_of(expr.value)
                if base is not None:
                    module, name = self.resolve(base, expr.attr)
                    return module if name is None else None
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = module_of(node.value)
                if base is not None:
                    module, name = self.resolve(base, node.attr)
                    modules.add(module)
                    if name is not None:
                        used.add((module, name))
        return modules, used

    def own_uses(self, module):
        """Names a module reads outside their own top-level definition."""
        return {(module, node.id) for top in self.trees[module].body
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id != getattr(top, "name", None)}

    def exported(self, module):
        for node in self.trees[module].body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                return ast.literal_eval(node.value)
        return []


def test_no_islands_census():
    """Every module runs and every export is used by something that runs.

    (a) Each module under ``src/repro`` is imported, transitively, from
    ``repro.cli``, ``repro.api`` or a file under ``examples/``,
    ``benchmarks/`` or ``bench/``, through modules that are not package
    ``__init__``s (a re-export alone reaches nothing).  (b) Each
    ``__all__`` name is used outside its own definition by such a module,
    one of those files or ``docs/build.py``, or is in
    ``ALLOWED_TEST_ONLY`` with its reason.  (c) The planner and the
    simulators never import the ``repro.api`` facade, eagerly or lazily.
    The operator-parallel layers, the LR schedulers and the test-only
    aliases and samplers deleted beside them fail here if they return.
    """
    graph = _ImportGraph()
    edges, used = {}, set()
    for module, tree in graph.trees.items():
        if module not in graph.packages:
            edges[module], names = graph.scan(tree, module)
            used |= names | graph.own_uses(module)
    roots = {"repro.cli"} | graph.scan(graph.trees["repro.api"], "repro.api")[0]
    callers = [path for d in CALLER_DIRS
               for path in sorted((REPO_ROOT / d).rglob("*.py"))]
    for path in callers:
        modules, names = graph.scan(ast.parse(path.read_text()))
        roots |= modules
        used |= names
    docs = ast.parse((REPO_ROOT / "docs" / "build.py").read_text())
    used |= graph.scan(docs)[1]

    reached, todo = set(), list(roots)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += edges.get(module, ())
    assert sorted(set(edges) - reached) == []

    unused = {}
    for module in graph.trees:
        for name in graph.exported(module):
            home, defined = graph.resolve(module, name)
            if defined and home not in graph.packages \
                    and (home, defined) not in used:
                unused[name] = home
    assert set(unused) == set(ALLOWED_TEST_ONLY), unused

    for module, tree in graph.trees.items():
        if module.split(".")[1:2] not in (["plan"], ["sim"]):
            continue
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [f"{graph.source(node, module)}.{alias.name}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names]
        assert not [path for path in imported if path == "repro.api"
                    or path.startswith("repro.api.")], module


@functools.cache
def names_used_by_tests() -> set[str]:
    """Every identifier, attribute and imported name under ``tests/``."""
    used = set()
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("name", sorted(ALLOWED_TEST_ONLY))
def test_allowed_test_only_names_are_tested(name):
    """A name kept for its tests alone must still have one; once none
    uses it, it is an island like any other and goes."""
    assert name in names_used_by_tests()


def test_ci_runs_every_example():
    """The census counts an example as a caller because CI runs it: the
    ``examples`` matrix of the CI workflow names exactly
    ``examples/*.py``."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = ci.split("        example:\n", 1)[1].split("    steps:", 1)[0]
    listed = [line.strip()[2:] for line in matrix.splitlines()
              if line.strip().startswith("- ")]
    assert sorted(listed) == sorted(
        path.stem for path in (REPO_ROOT / "examples").glob("*.py"))


def test_every_bench_smoke_gate_reports():
    """A failed gate does not hide the gates after it: every bench-smoke
    step after the first gate carries an ``if:``, and each later gate
    (a step running something under ``benchmarks/``) has an ``id`` and
    runs on ``success()`` or on the failure of any earlier gate."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = ci.split("\n  bench-smoke:\n", 1)[1]
    steps = job.split("\n      - ")[1:]
    first = next(i for i, step in enumerate(steps) if "benchmarks/" in step)
    earlier: list[str] = []
    for step in steps[first:]:
        name, *lines = step.splitlines()
        # the step's own keys, one indent level in (not nested values)
        keys = dict(line.strip().split(":", 1) for line in lines
                    if line[:8] == " " * 8 and line[8:9].isalpha())
        assert not earlier or "if" in keys, name
        if "benchmarks/" not in step:
            continue
        assert keys.get("id"), name
        for gate in earlier:
            assert f"steps.{gate}.outcome == 'failure'" in step, (name, gate)
        if earlier:
            assert "success()" in step, name
        earlier.append(keys["id"].strip())
