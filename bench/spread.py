#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the reference figures in README.md.

    python3 bench/spread.py run --seeds 1-10 --out set1.jsonl
    python3 bench/spread.py report set1.jsonl [set2.jsonl]

``run`` runs the benchmark once per seed on every workload of BENCHMARK.json,
untraced and for its run_seconds, and appends each result line to --out.
``report`` prints, per workload and metric, the median, the quartiles
(statistics.quantiles, n=4), the spread (interquartile distance over the
median) and, given a second set, how far the second median is from the first
as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_set(args) -> int:
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    with open(args.out, "a") as sink:
        for name in (w["name"] for w in bench["workloads"]):
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", seconds, "--trace", "0"],
                    cwd=BENCH.parent, capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                sink.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
                sink.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    return 0


def load(path) -> dict:
    values: dict = {}
    for line in Path(path).read_text().splitlines():
        entry = json.loads(line)
        for metric, reading in entry["result"]["metrics"].items():
            values.setdefault((entry["workload"], metric), []).append(reading["value"])
    return values


def report(args) -> int:
    sets = [load(path) for path in args.sets]
    print("workload             metric        n  median       q1           q3           spread  second/first-1")
    for key in sets[0]:
        values = sets[0][key]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        line = (f"{key[0]:20s} {key[1]:12s} {len(values):2d}  {median:<12.6g} {q1:<12.6g} {q3:<12.6g} "
                f"{(q3 - q1) / median:6.3f}")
        if len(sets) > 1 and key in sets[1]:
            line += f"  {statistics.median(sets[1][key]) / median - 1.0:+.3f}"
        print(line)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run")
    run_parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    run_parser.add_argument("--out", required=True)
    report_parser = sub.add_parser("report")
    report_parser.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return run_set(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
