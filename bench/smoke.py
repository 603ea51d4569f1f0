#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/smoke.py

1. Runs every workload of BENCHMARK.json with --tiny, untraced and traced, and
   checks that the last line is the result object, with every end-to-end or
   per-layer metric printed under its name and unit.
2. Shows that each output check passes on real output and rejects a
   deliberately corrupted copy of it.

Exits 0 when all of this holds.  Not part of the repository's test suite.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from time import perf_counter

import run  # sets the thread environment before numpy loads
import checks
import workloads

import numpy as np

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def check_result_lines(bench: dict) -> None:
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(m["name"] for m in wanted), f"{label}: metric names")
            for metric in wanted:
                got = metrics.get(metric["name"], {})
                expect(got.get("unit") == metric["unit"] and math.isfinite(got.get("value", math.nan)),
                       f"{label}: {metric['name']} = {got.get('value')} {got.get('unit')}")


def gauss_corruptions() -> None:
    for name in ("gauss_sgldcv_small", "gauss_sgld_large"):
        spec = workloads.TINY[name]
        _, outputs = workloads.gauss_round(spec, seed=4)
        expect(workloads.gauss_check(spec, outputs) == [], f"{name}: real output passes")
        x = np.asarray(outputs["train"]["x"])
        _, post_var = checks.conjugate_posterior(x, workloads.PRIOR_VARIANCE)
        chain = outputs["chain"]
        shifted = dict(outputs, chain=chain + 3.0 * math.sqrt(post_var))
        expect(workloads.gauss_check(spec, shifted) != [],
               f"{name}: chain moved by 3 posterior sd is rejected")
        centre = chain[spec.warmup:].mean()
        narrow = dict(outputs, chain=centre + (chain - centre) * 0.7)
        expect(workloads.gauss_check(spec, narrow) != [],
               f"{name}: chain with half the variance is rejected")
        if spec.algorithm == "sgldcv":
            mode = outputs["start"]
            exact = float(np.sum(x)) - x.size * mode - mode / workloads.PRIOR_VARIANCE
            draws = chain[spec.warmup:]
            expect(checks.check_sgldcv(x, workloads.PRIOR_VARIANCE, spec.stepsize, draws, mode, exact) == [],
                   f"{name}: closed-form gradient passes")
            wrong = exact + 1e-6 * (abs(exact) + x.size)
            expect(checks.check_sgldcv(x, workloads.PRIOR_VARIANCE, spec.stepsize, draws, mode, wrong) != [],
                   f"{name}: full-data gradient off by 1e-6 per observation is rejected")


def bnn_corruptions() -> None:
    spec = workloads.TINY["cli_bnn_sghmc"]
    seed = 4
    start = workloads.bnn_start_params()
    scratch = run.WORK / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        data_dir = scratch / "data"
        x_test, y_test = workloads.write_bnn_data(spec, seed, data_dir)
        out = scratch / "out"
        code, _, _, _ = run.run_child(
            [sys.executable, "-m", "gradmc.cli", *workloads.cli_argv(spec, data_dir, out)],
            scratch / "log", perf_counter() + 120)
        expect(code == 0, "cli_bnn_sghmc: gradmc run exits 0")
        loss = workloads.read_trace(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def verdict(candidate):
        return checks.check_bnn_trace(candidate, spec.n_iters, workloads.THIN, workloads.BNN_CLASSES,
                                      x_test, y_test, start)

    expect(verdict(loss) == [], "cli_bnn_sghmc: real output passes")

    def corrupt(what, change):
        expect(verdict(change(copy.deepcopy(loss))) != [], f"cli_bnn_sghmc: {what} is rejected")

    def drop_last_row(t):
        return t[0][:-1], t[1][:-1]

    def set_value(row, value):
        def change(t):
            t[1][row] = value
            return t
        return change

    def nudge_row0(t):
        t[1][0] += 1e-6
        return t

    corrupt("a missing last row", drop_last_row)
    corrupt("a NaN value", set_value(1, math.nan))
    corrupt("a value above -ln 1e-12", set_value(1, 30.0))
    corrupt("row 0 off by 1e-6", nudge_row0)
    corrupt("a final row above ln 3", set_value(-1, math.log(3.0) + 0.1))
    corrupt("a missing trace file", lambda t: None)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_result_lines(bench)
    gauss_corruptions()
    bnn_corruptions()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
