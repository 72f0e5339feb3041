"""Run the christoffel command line in this interpreter, as its console script does.

    python3 perfbench/launcher.py [--trace-out FILE] [-- ARGS...]

It imports ``christoffel.cli`` from the ``src`` directory of the checkout
and calls ``main(ARGS)``.  Without ARGS it only imports, which is the
cli-session set-up probe.  With ``--trace-out`` it times the import, traces
the command and writes the spans to FILE as JSON.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, SRC)
    import christoffel.cli as cli
    import_s = time.perf_counter() - _START
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "christoffel"):
        raise SystemExit(f"imported christoffel from {cli.__file__}, not from {SRC}")
    if not argv:
        return 0
    if trace_out is None:
        return cli.main(argv)

    import json

    from tracer import Tracer  # found next to this script
    tracer = Tracer()
    tracer.import_s = import_s
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(trace_out, "w") as f:
            json.dump(tracer.export(), f)


if __name__ == "__main__":
    sys.exit(main())
