"""Package-wide rules that no single module's tests would notice."""

import importlib
import pkgutil

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
