"""SCFI pipeline benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold-library --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``README.md`` in this directory).
Progress and check failures go to standard error; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program under test is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metric units; end-to-end metrics first, then the per-layer ones.
END_TO_END_UNITS = {
    "injections_per_s": "1/s",
    "specs_per_s": "1/s",
    "spec_ms_p50": "ms",
    "spec_ms_tail": "ms",
    "hit_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name == "store.bytes_written":
        return "B"
    if name.endswith("_ratio") or name == "service.polls_per_job":
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-library", "warm-sweep", "service-mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every stream (the benchmark's own tests)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.probe_setup:
        workloads.probe_setup(args.workload, Path(args.workdir))
        return 0

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = workloads.Context(ROOT, workdir, args.workload, args.seed, args.seconds, args.tiny)
    try:
        tally, metrics = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in tally.errors:
        print(f"[perfbench] CHECK FAILED: {error}", file=sys.stderr)
    print(f"[perfbench] {args.workload}: {tally.attempted} operations attempted, "
          f"{tally.failed} failed, {tally.rounds} rounds in {tally.wall_s:.2f} s",
          file=sys.stderr)
    print(f"[perfbench] round times (s): {[round(t, 2) for t in tally.round_s]}", file=sys.stderr)
    units = {name: END_TO_END_UNITS.get(name) or per_layer_unit(name) for name in metrics}
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
