"""Package-wide rules that no single module's tests would notice."""

import ast
import importlib
import pkgutil
from pathlib import Path

import tacgrip


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
    for path in Path(tacgrip.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            if "heapq" in names:
                importers.add(f"tacgrip.{path.stem}")
    assert importers == {"tacgrip.plant"}
