"""Steadiness check: run every workload repeatedly and report the spread.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 [--workloads cold-library,warm-sweep]

Each pass runs every chosen workload once with a new seed, alternating the
workload order between passes.  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, next to that metric's bound in
``BENCHMARK.json`` -- the evidence the bounds were set from -- and the
spread the same runs show before the speed adjustment of :mod:`speed`.  A
spread below a third of the bound reads ``steady``.  Raw results are kept in
``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_PREFIX = "[perfbench] raw (unadjusted) metrics: "


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule takes them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    for line in out.stderr.splitlines():
        if line.startswith(RAW_PREFIX):
            pairs = (item.rsplit(" ", 1) for item in line[len(RAW_PREFIX):].split(", "))
            result["raw"] = {name.strip(): float(value) for name, value in pairs}
    return result


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results = {w: [] for w in chosen}
    for index in range(args.runs):
        order = chosen if index % 2 == 0 else chosen[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + index, args.seconds, args.trace)
            results[workload].append(result)
            print(f"{workload} seed {args.first_seed + index}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} in {result['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)

    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    worst = 0.0
    for workload in chosen:
        runs = results[workload]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed share(s): {shares}, run wall {max(r['wall_s'] for r in runs):.1f} s max")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'bound':>6} {'verdict':>7} {'raw iqr/med':>11}")
        for metric in runs[0]["metrics"]:
            median, q1, q3, share = spread([r["metrics"][metric]["value"] for r in runs])
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = "steady" if share < bound / 3 else ("within" if share <= bound else "WIDE")
                if metric != "setup_s":
                    worst = max(worst, share / bound)
            raw = ""
            if all(metric in r.get("raw", {}) for r in runs):
                raw = f"{spread([r['raw'][metric] for r in runs])[3]:.3f}"
            print(f"  {metric:<18} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {share:>8.3f} "
                  f"{bound if bound is not None else '':>6} {verdict:>7} {raw:>11}")
    print(f"\nworst spread / bound (setup_s aside): {worst:.2f}; raw results in "
          f"{out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
