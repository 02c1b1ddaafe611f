"""The benchmark's tracer (perfbench/tracer.py) wraps rfsearch functions by
name.  A refactor that renames or deletes one of them breaks every traced
benchmark run, so check here that each of its targets still resolves."""

import importlib
import inspect
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_in_rfsearch():
    # run_path compiles the source without writing bytecode next to it
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    unresolved = []
    for mod_name, attr, _ in targets:
        owner = importlib.import_module(mod_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the tracer replaces a method in its class's own __dict__
        found = (vars(owner).get(name) if inspect.isclass(owner)
                 else getattr(owner, name, None))
        if not callable(found):
            unresolved.append(f"{mod_name}:{attr}")
    assert not unresolved, f"perfbench/tracer.py targets missing from rfsearch: {unresolved}"
