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


def test_kernel_positional_parameters_match_the_tracer():
    # tracer.py::_kernel_work unpacks each kernel call's positional
    # arguments by these names; anything added to a kernel must be
    # keyword-only, or a traced call would pass it positionally.
    from rfsearch import _kernels

    expected = {
        "conv1d_forward": ("x", "w", "b", "offsets"),
        "conv1d_grad_input": ("grad_out", "w", "offsets"),
        "conv1d_grad_weights": ("grad_out", "x", "kernel_size", "offsets"),
    }
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, params in expected.items():
        signature = inspect.signature(getattr(_kernels, name)).parameters.values()
        assert tuple(p.name for p in signature if p.kind in positional) == params, name
        assert all(p.kind in positional or p.kind == inspect.Parameter.KEYWORD_ONLY
                   for p in signature), name
