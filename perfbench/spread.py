"""Run the benchmark over several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workload rack-failure --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one process each, one after another) and
prints, per end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of that median —
``statistics.quantiles(values, n=4)`` — next to the metric's bound from
``BENCHMARK.json``.  Each run is also appended to the run history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    status = 0
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ),
                flush=True,
            )
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = "" if bound is None else (
                "  ok" if share <= bound / 3 else ("  WIDE" if share <= bound else "  OVER")
            )
            print(
                f"  {m['name']:40s} median {med:12.6g} {m['unit']:6s} "
                f"iqr/median {share:7.4f}"
                + ("" if bound is None else f" bound {bound:.3g}{flag}")
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
