"""Per-layer tracing of rfsearch from outside the package.

``install`` replaces the package's public functions and methods by wrappers
that record a span per call.  Spans are folded into per-name totals in
memory: call count, total time and self time (the span's duration minus the
time its child spans cover).  Kernel spans also add up the floating-point
operations and bytes their argument shapes imply.

A function imported by name (``from .tensorops import relu``) is bound in
several module namespaces; ``install`` rebinds every one of them and then
checks that no namespace of the package still holds an unwrapped original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

KERNEL_NAMES = ("conv1d_forward", "conv1d_grad_input", "conv1d_grad_weights")
MIXED_FORWARD = "localsearch.multi_dilated_forward"

# (module, attribute path, span name); "forward" of DilatedNet is split by
# its ``train`` flag at call time.
TARGETS = [
    *(("rfsearch._kernels", k, f"kernels.{k}") for k in KERNEL_NAMES),
    ("rfsearch.tensorops", "dilated_conv1d_forward", "tensorops.dilated_conv1d_forward"),
    ("rfsearch.tensorops", "dilated_conv1d_backward", "tensorops.dilated_conv1d_backward"),
    ("rfsearch.tensorops", "softmax_nll_loss", "tensorops.softmax_nll_loss"),
    ("rfsearch.tensorops", "relu", "tensorops.relu"),
    ("rfsearch.tensorops", "relu_backward", "tensorops.relu_backward"),
    ("rfsearch.tensorops", "Adam.step", "tensorops.Adam.step"),
    ("rfsearch.localsearch", "multi_dilated_forward", MIXED_FORWARD),
    ("rfsearch.localsearch", "multi_dilated_backward", "localsearch.multi_dilated_backward"),
    ("rfsearch.localsearch", "run_local_search", "localsearch.run_local_search"),
    ("rfsearch.localsearch", "pmf", "localsearch.pmf"),
    ("rfsearch.network", "DilatedNet.forward", "network.DilatedNet.forward"),
    ("rfsearch.network", "DilatedNet.backward", "network.DilatedNet.backward"),
    ("rfsearch.network", "Trainer.__call__", "network.Trainer.__call__"),
    ("rfsearch.network", "Trainer.train_structure", "network.Trainer.train_structure"),
    ("rfsearch.network", "LocalSession.train", "network.LocalSession.train"),
    ("rfsearch.network", "LocalSession.evaluate", "network.LocalSession.evaluate"),
    ("rfsearch.globalsearch", "evaluate", "globalsearch.evaluate"),
    ("rfsearch.globalsearch", "selection_probabilities", "globalsearch.selection_probabilities"),
    ("rfsearch.globalsearch", "crossover_segments", "globalsearch.crossover_segments"),
    ("rfsearch.globalsearch", "mutate", "globalsearch.mutate"),
    ("rfsearch.globalsearch", "_Logs.log_records", "globalsearch._Logs.log_records"),
    ("rfsearch.globalsearch", "_Logs.log_checkpoint", "globalsearch._Logs.log_checkpoint"),
    ("rfsearch.globalsearch", "_Logs.log_best", "globalsearch._Logs.log_best"),
    ("rfsearch.globalsearch", "run_global_search", "globalsearch.run_global_search"),
    ("rfsearch.genome", "DilationGenome.__init__", "genome.DilationGenome.__init__"),
    ("rfsearch.genome", "format_genome_string", "genome.format_genome_string"),
    ("rfsearch.seeding", "derive_seed", "seeding.derive_seed"),
    ("rfsearch.oracle", "SurrogateTrainer.__call__", "oracle.SurrogateTrainer.__call__"),
    ("rfsearch.tasks", "generate", "tasks.generate"),
    ("rfsearch.tasks", "framewise_accuracy", "tasks.framewise_accuracy"),
    ("rfsearch.cli", "load_config", "cli.load_config"),
]


def _valid_lengths(T: int, offsets) -> int:
    """Output frames summed over taps whose shifted read stays in range."""
    return sum(max(0, T - abs(int(o))) for o in offsets)


def _kernel_work(name: str, args) -> tuple[float, float]:
    """(flop, bytes) a conv kernel call implies from its argument shapes:
    two flops per multiply-add over the in-range taps, and every input read
    once plus the output written once, at 8 bytes per float64."""
    if name == "conv1d_forward":
        x, w, b, offsets = args
        (B, cin, T), cout = x.shape, w.shape[0]
        moved = x.size + w.size + b.size + B * cout * T
    elif name == "conv1d_grad_input":
        grad_out, w, offsets = args
        (B, cout, T), cin = grad_out.shape, w.shape[1]
        moved = grad_out.size + w.size + B * cin * T
    else:
        grad_out, x, kernel_size, offsets = args
        (B, cout, T), cin = grad_out.shape, x.shape[1]
        moved = grad_out.size + x.size + cout * cin * kernel_size
    return 2.0 * B * cout * cin * _valid_lengths(T, offsets), 8.0 * moved


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.work: dict[str, list] = {}  # kernel name -> [flop, bytes]
        self.kernels_under_mixed = 0
        self._stack: list[list] = []  # [name, child_s] per open span

    def _wrap(self, fn, name):
        tracer = self
        short = name.rsplit(".", 1)[-1]
        is_kernel = name.startswith("kernels.")
        is_forward = name == "network.DilatedNet.forward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if is_forward:
                train = kwargs.get("train", args[2] if len(args) > 2 else False)
                span = name + ("_train" if train else "_eval")
            elif is_kernel:
                flop, moved = _kernel_work(short, args)
                acc = tracer.work.setdefault(name, [0.0, 0.0])
                acc[0] += flop
                acc[1] += moved
                if short == "conv1d_forward" and any(
                    f[0] == MIXED_FORWARD for f in tracer._stack
                ):
                    tracer.kernels_under_mixed += 1
            frame = [span, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                st = tracer.stats.setdefault(span, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt

        return traced

    def install(self) -> None:
        """Wrap every target in every namespace of the package that binds it."""
        for mod_name, _, _ in TARGETS:
            importlib.import_module(mod_name)
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "rfsearch" or n.startswith("rfsearch.")]
        originals = []
        for mod_name, attr, name in TARGETS:
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(fn, name))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, name)
            originals.append(fn)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        for mod in package:
            for key, value in vars(mod).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} still binds an unwrapped function")

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": t - child}
                for name, (c, t, child) in self.stats.items()
            },
            "work": {name: {"flop": f, "bytes": b} for name, (f, b) in self.work.items()},
            "kernels_under_mixed": self.kernels_under_mixed,
        }
