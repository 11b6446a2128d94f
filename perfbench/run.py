"""The serving benchmark: one workload, a fixed wall budget, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload steady-columnar --seed 1 --seconds 40 --trace 0

A run repeats *passes* of the workload until the next one would overrun
``--seconds``.  Each pass builds the deployment from scratch (set-up is
timed on its own), drives the seeded arrival schedule to the last answer,
and checks the answers: every request id answered exactly once, no error
responses, finite mean/spread/p95 on every ok answer, and one answer
digest shared by every pass of the run.  Wall-clock metrics are medians
over the passes, scaled to a reference machine speed by a fixed probe
timed beside the work (see ``speed.py``); simulated metrics are
deterministic per seed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``layers.py``), with a ranked layer report.

Quantile rule, for every quantile the benchmark reports: the
nearest-rank order statistic, ``sorted(x)[ceil(q * n) - 1]``.  The tail
of a per-pass series is the highest of ``bench.TAIL_LADDER`` that leaves
at least ten samples above it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run is also
appended to ``perfbench/out/history.jsonl`` with its seed, the git sha
and an environment fingerprint.  Exits 2 without a result when run
outside a full checkout (no ``src/repro`` or no ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"error: {ROOT} is not a full checkout (need src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
