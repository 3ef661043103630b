"""Guard: every RTL process in ``repro.rtl`` has exactly one description.

A component's clocked process is its compile hook, registered with
``Component.clocked(clk, build[, name])``; the event kernel runs the
same hook through ``repro.hdl.EventContext``.  A hand-written event body
would show up as a ``.drive(`` call inside a component (the hooks write
through ``ctx.write``) or as a ``clocked`` call that passes a second
callable.  Both are rejected here, on the source.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro.rtl
from repro.rtl import Component

RTL_DIR = Path(repro.rtl.__file__).parent


def rtl_modules():
    for info in pkgutil.iter_modules([str(RTL_DIR)]):
        yield importlib.import_module(f"repro.rtl.{info.name}")


def component_classes(module):
    """``ast.ClassDef`` nodes of the Component subclasses *module*
    defines."""
    names = {name for name, cls in vars(module).items()
             if inspect.isclass(cls) and issubclass(cls, Component)
             and cls.__module__ == module.__name__}
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name in names]


def calls_to(node, attr):
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr]


def test_components_found():
    found = {cls.name for module in rtl_modules()
             for cls in component_classes(module)}
    assert {"Component", "Register", "CellReceiver", "AtmSwitchRtl",
            "RecordBusMonitor"} <= found


def test_no_component_method_drives_a_signal():
    offenders = [f"{module.__name__}.{cls.name}:{call.lineno}"
                 for module in rtl_modules()
                 for cls in component_classes(module)
                 for call in calls_to(cls, "drive")]
    assert offenders == [], (
        "RTL components write through ctx.write in their compile hook, "
        f"not Signal.drive: {offenders}")


def test_clocked_takes_clk_build_and_name_only():
    params = list(inspect.signature(Component.clocked).parameters)
    assert params == ["self", "clk", "build", "name"]
    sites = 0
    for module in rtl_modules():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for call in calls_to(tree, "clocked"):
            sites += 1
            where = f"{module.__name__}:{call.lineno}"
            keywords = [kw.arg for kw in call.keywords]
            assert not any(isinstance(arg, ast.Starred)
                           for arg in call.args), where
            assert set(keywords) <= {"name"}, where
            assert len(call.args) + len(keywords) in (2, 3), where
    assert sites >= 11
