"""Steadiness sweep: run the benchmark over several seeds, workloads interleaved.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1-10 [--seconds 60] [--workloads run.iii survey.i]

Runs ``perfbench/run.py`` once per (seed, workload), cycling through the
workloads within each seed so slow drift of the host spreads over all of
them instead of landing on one block.  Prints, per workload and
end-to-end metric, the median and the quartile spread
(Q3 − Q1) / median of ``statistics.quantiles(values, n=4)``, and appends
every result line to ``.perfbench_work/sweep.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: List[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in args.workloads}
    log = ROOT / ".perfbench_work" / "sweep.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for work in args.workloads:
            cmd = [*BENCHMARK["command"], "--workload", work, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if proc.returncode == 0 else {}
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": work, "seed": seed, **result}) + "\n")
            if not result.get("correct"):
                print(f"{work} seed {seed}: exit {proc.returncode}, result {result}",
                      file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values[work].setdefault(name, []).append(metric["value"])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{work:<9s} seed {seed:>3d}: {shown}", flush=True)

    print()
    for work, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) >= 2:
                print(f"{work:<9s} {name:<26s} n={len(vals):>2d} "
                      f"median={statistics.median(vals):.5g} spread={spread(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
