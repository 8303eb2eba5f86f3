"""Run-to-run spread of the end-to-end metrics, the basis of the bounds.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10]

Runs ``run.py`` once per seed (seeds 1..runs) for each workload, one run
at a time, for ``run_seconds`` from ``BENCHMARK.json``, and reports for
each metric the median and the distance between the first and third
quartile as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives them.  The table is written to ``perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    table: dict = {"run_seconds": bench["run_seconds"]}
    for wl in [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        records = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            table.setdefault("machine", json.loads(lines[-2])["record"]["machine"])
            records.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                            "attempted": result["attempted"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr)
        table[wl] = {
            "runs": records,
            "metrics": {
                name: {
                    "median": statistics.median(vals),
                    "iqr_over_median": spread(vals),
                    "bound": bounds.get(name),
                    "values": vals,
                }
                for name, vals in values.items()
            },
        }
        for name, row in table[wl]["metrics"].items():
            print(f"{wl:16s} {name:12s} median {row['median']:.5g}  spread {row['iqr_over_median']:.4f}  bound {row['bound']}")
    (HERE / "steadiness.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
