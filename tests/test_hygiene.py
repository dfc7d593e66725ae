"""Package-wide rules that no single module's tests would notice."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import tacgrip
from tacgrip.blobs import DetectorConfig
from tacgrip.control import CommandKind, ControlThresholds, McuCommand
from tacgrip.density import KdeConfig
from tacgrip.kinematics import dex_rot_chain, rot_joint
from tacgrip.perception import Calibration, FingerPipeline
from tacgrip.plant import PlantConfig
from tacgrip.scenario import StimulusEvent, static_scenario
from tacgrip.sensor_sim import ContactStimulus, SensorModel


def test_no_module_level_mutable_state():
    # A module-global dict, list or set outlives the run that filled it
    # and leaks between runs and tests in one process; state belongs to
    # the run or object that uses it. Upper-case names are constants.
    offenders = []
    for info in pkgutil.iter_modules(tacgrip.__path__):
        module = importlib.import_module(f"tacgrip.{info.name}")
        for name, value in vars(module).items():
            if (name.startswith("__") or name != name.lower()
                    or not isinstance(value, (dict, list, set))):
                continue
            offenders.append(f"tacgrip.{info.name}.{name}")
    assert offenders == []


def test_only_the_plant_keeps_a_timed_queue():
    # Every delay from a supervisor decision to a valve rides on the
    # plant's one valve queue; a second heap would be a second delay line
    # with its own order and tie-break.
    importers = set()
    for source, module in _package_sources():
        for node in ast.walk(ast.parse(source)):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            if "heapq" in names:
                importers.add(module)
    assert importers == {"tacgrip.plant"}


def _scoped_nodes(source, module):
    """Yield (scope, node) for every node of `source`, where scope is the
    qualified name of the innermost function or class around the node;
    module-level code is named by the module alone."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(source), module)


def _package_sources():
    for path in sorted(Path(tacgrip.__file__).parent.glob("*.py")):
        yield path.read_text(), f"tacgrip.{path.stem}"


_TRACK_FIELDS = {"timestamps", "centers", "displacements"}


def _track_growers(source, module):
    """Qualified names of the functions in `source` that call .append,
    .extend or .insert on an attribute named like a ContactTrack list, or
    assign to one or to an item of one; module-level code is named by the
    module alone."""
    growers = set()

    def is_track_field(node):
        return isinstance(node, ast.Attribute) and node.attr in _TRACK_FIELDS

    for scope, node in _scoped_nodes(source, module):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for part in ast.walk(target):
                if is_track_field(part) or (isinstance(part, ast.Subscript)
                                            and is_track_field(part.value)):
                    growers.add(scope)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "insert")
                and is_track_field(node.func.value)):
            growers.add(scope)
    return growers


def test_only_contact_track_append_grows_a_track():
    # ContactTrack.append checks alignment, finiteness and time order;
    # a second path that grows the lists would skip those checks.
    growers = set()
    for source, module in _package_sources():
        growers |= _track_growers(source, module)
    assert growers == {"tacgrip.tracking.ContactTrack.append"}


def test_the_track_rule_sees_each_way_to_grow_a_track():
    source = """
def by_append(track, t):
    track.timestamps.append(t)
def by_insert(prefix, c):
    prefix.centers.insert(0, c)
def by_assignment(track):
    track.displacements = []
def by_item(track):
    track.timestamps[-1] = 0.0
def by_unpacking(a, b):
    a.centers, b = [], 1
def reads_only(track, out):
    out.append(track.timestamps[-1])
"""
    assert _track_growers(source, "m") == {
        "m.by_append", "m.by_insert", "m.by_assignment", "m.by_item",
        "m.by_unpacking"}


def _phase_setters(source, module):
    """Qualified names of the functions in `source` that assign an
    attribute named `phase`, or an attribute or item of one: by
    assignment, augmented or annotated assignment, or setattr with a
    literal name; module-level code is named by the module alone."""
    setters = set()
    for scope, node in _scoped_nodes(source, module):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(part, ast.Attribute) and part.attr == "phase"
               for target in targets for part in ast.walk(target)):
            setters.add(scope)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "phase"):
            setters.add(scope)
    return setters


def test_only_the_supervisor_enters_a_phase():
    # GraspSupervisor._enter checks LEGAL_TRANSITIONS and records the
    # transition; a second path that sets the phase would change it
    # without a trace in the audit trail.
    setters = set()
    for source, module in _package_sources():
        setters |= _phase_setters(source, module)
    assert setters == {"tacgrip.control.GraspSupervisor.__init__",
                       "tacgrip.control.GraspSupervisor._enter"}


def test_the_phase_rule_sees_each_way_to_set_a_phase():
    source = """
def by_assignment(sup, p):
    sup.phase = p
def by_augmented(sup):
    sup.phase += 1
def by_setattr(sup, p):
    setattr(sup, "phase", p)
def by_field(sup):
    sup.phase.state = None
class Machine:
    def restart(self, p):
        self.phase, self.count = p, 0
def reads_only(sup, out):
    out.final_phase = sup.phase.state
    getattr(sup, "phase")
"""
    assert _phase_setters(source, "m") == {
        "m.by_assignment", "m.by_augmented", "m.by_setattr", "m.by_field",
        "m.Machine.restart"}


def _callers(source, module, callee):
    """Qualified names of the functions in `source` that call `callee`:
    by its name, as an attribute of a module, or under a name an import
    gave it."""
    names = {callee} | {
        alias.asname for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == callee and alias.asname}
    callers = set()
    for scope, node in _scoped_nodes(source, module):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in names
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == callee):
            callers.add(scope)
    return callers


def test_only_sensor_sim_stamps_coverage():
    # FrameStream keeps the one last-layout coverage cache; a module that
    # stamps coverage itself would grow a second cache beside it.
    stampers = set()
    for source, module in _package_sources():
        stampers |= _callers(source, module, "disk_coverage")
    assert {s for s in stampers if not s.startswith("tacgrip.sensor_sim.")} \
        == set()
    assert "tacgrip.sensor_sim.FrameStream.render" in stampers


def test_the_coverage_rule_sees_each_way_to_stamp():
    source = """
from .sensor_sim import disk_coverage as stamp
def by_name(m, model):
    return disk_coverage(m, model)
def by_attribute(m, model):
    return sensor_sim.disk_coverage(m, model)
def by_alias(m, model):
    return stamp(m, model)
class Cache:
    def fill(self, m):
        self.coverage = disk_coverage(m, self.model)
def names_only():
    return disk_coverage.__doc__
"""
    assert _callers(source, "m", "disk_coverage") == {
        "m.by_name", "m.by_attribute", "m.by_alias", "m.Cache.fill"}


def test_only_the_controller_and_the_track_tools_make_tracks():
    # run_grasp keeps both fingers' tracks and classifies them; the
    # pipeline reports a center and keeps none. A second owner of a
    # finger's track would be a second place to ask for its displacement.
    makers = set()
    for source, module in _package_sources():
        makers |= _callers(source, module, "ContactTrack")
    assert makers == {"tacgrip.episode.run_grasp", "tacgrip.cli._cmd_analyze",
                      "tacgrip.cli._cmd_replay",
                      "tacgrip.tracking.read_track_csv"}


def test_the_track_maker_rule_sees_each_way_to_make_a_track():
    source = """
from .tracking import ContactTrack as Track
def by_name(finger):
    return ContactTrack(finger_id=finger)
def by_attribute():
    return tracking.ContactTrack()
def by_alias():
    return Track()
class Pipeline:
    def __init__(self):
        self.tracks = {f: ContactTrack(finger_id=f) for f in (1, 2)}
def names_only(track):
    return isinstance(track, ContactTrack)
"""
    assert _callers(source, "m", "ContactTrack") == {
        "m.by_name", "m.by_attribute", "m.by_alias", "m.Pipeline.__init__"}


_PROCESS_MODULES = {"multiprocessing", "ctypes"}


def _process_importers(source, module):
    """Qualified names of the scopes in `source` that import
    multiprocessing or ctypes, or a submodule of either: by an import
    statement or by __import__ or importlib.import_module of a literal
    name; module-level code is named by the module alone."""
    def is_process_module(name):
        return name is not None and name.split(".")[0] in _PROCESS_MODULES

    importers = set()
    for scope, node in _scoped_nodes(source, module):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and (isinstance(node.func, ast.Name)
                   and node.func.id == "__import__"
                   or isinstance(node.func, ast.Attribute)
                   and node.func.attr == "import_module")):
            names = [node.args[0].value]
        if any(is_process_module(name) for name in names):
            importers.add(scope)
    return importers


def test_only_the_episode_runner_starts_processes_or_loads_libraries():
    # run_grasp's per-finger workers, with their fork start method and
    # their BLAS pin, are the package's one use of processes and of
    # native calls; a second would need its own orphan and thread rules.
    modules = set()
    for source, module in _package_sources():
        modules |= {scope.split(".")[1]
                    for scope in _process_importers(source, module)}
    assert modules == {"episode"}


def test_the_process_rule_sees_each_way_to_import():
    source = """
import multiprocessing
import ctypes as c
from multiprocessing.connection import wait
def by_from():
    from ctypes import CDLL
def by_dunder():
    return __import__("multiprocessing.pool")
class Loader:
    def load(self):
        return importlib.import_module("ctypes.util")
def relative_only():
    from . import ctypes
def other_modules():
    import multiprocessing_helpers, os.path
"""
    assert _process_importers(source, "m") == {
        "m", "m.by_from", "m.by_dunder", "m.Loader.load"}


def _raised_names(source):
    """Names of what `source` raises: `raise E(...)` or `raise E`, by its
    name or as an attribute of a module."""
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def test_every_package_error_is_raised_somewhere():
    # A class with no raise site is a name for callers to catch that
    # nothing throws; the fault it named is refused as a sibling error.
    errors = Path(tacgrip.__file__).parent / "errors.py"
    classes = {node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for source, _ in _package_sources():
        raised |= _raised_names(source)
    assert "ValidationError" in classes
    assert classes - raised == {"TacgripError"}


def test_the_raise_rule_sees_each_way_to_raise():
    source = """
def by_call(x):
    raise ValueError(f"bad {x}")
def by_name():
    raise KeyError
def by_attribute():
    raise errors.ParseError("line 1")
def chained():
    try:
        pass
    except OSError as exc:
        raise RuntimeError("x") from exc
def names_only():
    return StopIteration, ValidationError("not raised")
def re_raises():
    raise
"""
    assert _raised_names(source) == {"ValueError", "KeyError", "ParseError",
                                     "RuntimeError"}


def _package_dataclasses():
    """Every dataclass that a package module defines."""
    for info in pkgutil.iter_modules(tacgrip.__path__):
        module = importlib.import_module(f"tacgrip.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                yield value


def _frozen(cls):
    return cls.__dataclass_params__.frozen


def test_every_checked_dataclass_is_frozen():
    # __post_init__ checks a value once, when it is built; assigning a
    # field afterwards would skip every check. MarkerSet is the one
    # exception: it normalizes an array, which stays writable whatever
    # the dataclass.
    unfrozen = {cls.__name__ for cls in _package_dataclasses()
                if "__post_init__" in vars(cls) and not _frozen(cls)}
    assert unfrozen == {"MarkerSet"}


def test_assigning_a_field_of_a_frozen_dataclass_raises():
    examples = [SensorModel(), ContactStimulus(320.0, 240.0), KdeConfig(),
                DetectorConfig(), ControlThresholds(), PlantConfig(),
                rot_joint(), StimulusEvent(1.0, 1, 320.0, 240.0, 3.0, 40.0),
                static_scenario(), McuCommand(CommandKind.CLOSE_VALVES),
                dex_rot_chain(), FingerPipeline(1),
                Calibration(KdeConfig(), DetectorConfig(), (640, 480),
                            (150, 100, 490, 380), 1e-4, (120, 70, 520, 410))]
    assert {type(e).__name__ for e in examples} == {
        cls.__name__ for cls in _package_dataclasses() if _frozen(cls)}
    for example in examples:
        for field in dataclasses.fields(example):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(example, field.name, getattr(example, field.name))
