"""Run one rfsearch CLI stage in this fresh interpreter and write a report.

    python3 perfbench/stage.py --report OUT.json [--mode MODE] -- ARGS...

ARGS go to ``rfsearch.cli.main`` unchanged.  The package is imported from
the ``src`` directory next to this one.  Modes:

* ``plain``: no instrumentation; reports the exit code and peak RSS.
* ``trace``: wraps the package's public functions (see tracer.py) and adds
  per-layer span totals to the report.
* ``probe``: stops at the first candidate evaluation or local-search
  training call and reports the monotonic clock at that moment, so the
  caller can time set-up from before it started this interpreter.
* ``provenance``: runs nothing; reports the kernel backend, numpy and its
  BLAS build, and the Python version.

Times are ``time.monotonic()`` readings, comparable across processes.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class _ProbeDone(BaseException):
    """Unwinds the CLI at the first unit of work; not an ``Exception`` so the
    CLI's catch-all does not turn it into exit code 3."""


def _install_probe(report: dict) -> None:
    from rfsearch import globalsearch, network

    def stop(*_args, **_kwargs):
        report["t_first_work"] = time.monotonic()
        raise _ProbeDone

    globalsearch.evaluate = stop
    network.LocalSession.train = stop


def _provenance() -> dict:
    import numpy as np

    from rfsearch import _kernels

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "kernel_backend": _kernels.backend(),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "probe", "provenance"),
                        default="plain")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import rfsearch
    from rfsearch import cli

    here = Path(rfsearch.__file__).resolve()
    if ROOT / "src" not in here.parents:
        print(f"stage: imported rfsearch from {here}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    report: dict = {"mode": args.mode}
    tracer = None
    if args.mode == "provenance":
        report["provenance"] = _provenance()
    else:
        if args.mode == "probe":
            _install_probe(report)
        elif args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        report["t_main_start"] = time.monotonic()
        try:
            report["exit_code"] = cli.main(cli_args)
        except _ProbeDone:
            report["exit_code"] = 0
        report["t_main_end"] = time.monotonic()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.report()
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
