#!/usr/bin/env python3
"""Spread report: repeated benchmark runs, raw and normalized side by side.

Runs ``perfbench/run.py --trace 0`` once per seed for each workload, one
run at a time, and prints for every end-to-end metric its median, first
and third quartile and the quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``). Host-time metrics get two rows:
``raw`` (wall seconds as measured) and ``norm`` (divided by the
calibration slices, in reference seconds), so the host drift the
normalization removes is visible. Run from the root of a checkout::

    python3 perfbench/spread.py --workloads search,verify --seeds 1-10 --seconds 14

``--json FILE`` also writes every run's record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
HOST_TIME = ("setup_s", "wall_s", "warm_wall_s", "case_ms_p50", "case_ms_p90")


def seeds_of(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    records = [l for l in lines if l.startswith("perfbench-record ")]
    if done.returncode != 0 or not records:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{(lines[-1:] or [done.stderr.strip()[-400:]])[0]}"
        )
    return json.loads(records[-1][len("perfbench-record "):])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def report(workload: str, records) -> None:
    print(f"\n{workload}: {len(records)} runs, seeds "
          f"{records[0]['seed']}..{records[-1]['seed']}")
    print(f"  {'metric':<14} {'kind':<5} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for metric in records[0]["normalized"]:
        kinds = ("raw", "norm") if metric in HOST_TIME else ("norm",)
        for kind in kinds:
            key = "raw" if kind == "raw" else "normalized"
            median, q1, q3, spread = quartiles([r[key][metric] for r in records])
            print(f"  {metric:<14} {kind:<5} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="search,network,remote,verify")
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    everything = {}
    for workload in args.workloads.split(","):
        records = []
        for seed in seeds_of(args.seeds):
            records.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in records[-1]["normalized"].items()), flush=True)
        everything[workload] = records
        report(workload, records)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(everything, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
