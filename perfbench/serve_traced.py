"""Launch ``scfi serve`` with the pipeline's layer boundaries traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py --trace-out TRACE.json serve --port 0 ...

Everything after ``--trace-out PATH`` is the ordinary ``scfi`` command line.
The launcher installs :mod:`layertrace` and then calls
:func:`repro.cli.main.main` in this same process, so the server keeps the
process layout of a plain ``scfi serve`` (fleet workers fork from it).  When
the server exits, the spans recorded in this process and the per-layer
figures they give are written to ``TRACE.json``.
"""

from __future__ import annotations

import sys

import layertrace


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_traced.py --trace-out PATH <scfi arguments>", file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    tracer = layertrace.install(layertrace.Tracer())
    from repro.cli.main import main as scfi_main

    try:
        return scfi_main(rest)
    finally:
        tracer.dump(out, layers=layertrace.layer_metrics(tracer, 1))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
