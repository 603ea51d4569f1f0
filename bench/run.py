#!/usr/bin/env python3
"""gradmc benchmark: sampler throughput, time to first sample and memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Repeats whole rounds of the workload, each
in a fresh process, for about S seconds (at least three rounds), checks every
round's output, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one stored sampler
step.

--trace 0 reports the end-to-end metrics (medians over rounds) and installs
nothing in the library.  --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (medians) plus the tracing
overhead.  --tiny runs the smoke-test sizes.  Workloads, inputs and metrics
are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread per process: each workload runs one chain, so it uses one
# compute thread, below nproc (2) here.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import checks  # noqa: E402  (numpy must see the thread settings first)
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("steps_per_s", "1/s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
MIN_ROUNDS = 3
HARD_LIMIT_S = 165.0  # a run must end within 180 s whatever --seconds says
# How often run_child looks at a child: often enough to time the CLI's
# sampling phase to 0.5% of a round, rarely enough to leave the cores alone.
POLL_WATCHING_S = 0.005
POLL_S = 0.02


def run_child(cmd, log_path, deadline, watch=()):
    """Run cmd to its end; return (exit code, wall s, peak RSS MiB, {path: s after start}).

    Polls os.wait4, which also gives the child's own peak resident set, and
    notes when each path in ``watch`` first exists.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seen = {}
    with open(log_path, "w") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                now = perf_counter()
                for path in watch:
                    if path not in seen and path.exists():
                        seen[path] = now - start
                if pid:
                    break
                if now > deadline:
                    raise TimeoutError(f"{cmd[1:3]} still running at the run's time limit")
                sleep(POLL_WATCHING_S if watch else POLL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, now - start, usage.ru_maxrss / 1024.0, seen


def _log_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


class Bench:
    def __init__(self, args, run_dir: Path):
        self.args = args
        self.spec = workloads.spec_for(args.workload, args.tiny)
        self.run_dir = run_dir
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.is_cli = args.workload.startswith("cli_")
        if self.is_cli:
            self.data_dir = self.run_dir / "data"
            self.x_test, self.y_test = workloads.write_bnn_data(self.spec, args.seed, self.data_dir)
            self.start_params = workloads.bnn_start_params()

    def round(self, traced: bool, index: int, deadline: float) -> dict:
        return (self._cli_round if self.is_cli else self._api_round)(traced, index, deadline)

    def _api_round(self, traced, index, deadline):
        result_path = self.run_dir / f"round{index}.json"
        job = {"workload": self.args.workload, "tiny": self.args.tiny, "seed": self.args.seed,
               "traced": traced, "result": str(result_path)}
        log = self.run_dir / f"round{index}.log"
        code, _, _, _ = run_child(
            [sys.executable, str(BENCH / "worker.py"), "api", json.dumps(job)], log, deadline)
        if code != 0 or not result_path.is_file():
            attempted = self.spec.n_iters
            return {"attempted": attempted, "failed": attempted,
                    "failures": [f"worker exited {code}: {_log_tail(log)}"]}
        result = json.loads(result_path.read_text())
        if traced and "timing" in result:
            result["layers"] = tracing.layer_metrics(result["trace"])
        return result

    def _cli_round(self, traced, index, deadline):
        spec = self.spec
        out = self.run_dir / f"out{index}"
        argv = workloads.cli_argv(spec, self.data_dir, out)
        trace_path = self.run_dir / f"trace{index}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "worker.py"), "cli", str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "gradmc.cli", *argv]
        # `gradmc run` creates --out after loading the CSVs, building the model
        # and drawing the start, right before the chain starts; it writes the
        # trace file once the chain has ended.  Those two moments bound the
        # sampling phase without touching the process.
        loss_trace = out / workloads.TRACE_FILE
        log = self.run_dir / f"round{index}.log"
        code, wall, rss, seen = run_child(cmd, log, deadline, watch=(out, loss_trace))
        attempted = spec.n_iters
        if code != 0 or out not in seen or loss_trace not in seen:
            return {"attempted": attempted, "failed": attempted,
                    "failures": [f"gradmc run exited {code}: {_log_tail(log)}"]}
        loss = workloads.read_trace(out)
        result = {
            "attempted": attempted,
            "failed": 0,
            "timing": {
                "setup_s": seen[out],
                "steps_per_s": attempted / (seen[loss_trace] - seen[out]),
                "run_s": wall,
                "peak_rss_mb": rss,
            },
            "failures": checks.check_bnn_trace(
                loss, spec.n_iters, workloads.THIN, workloads.BNN_CLASSES, self.x_test, self.y_test,
                self.start_params),
        }
        if traced:
            rows = loss[0].size if loss is not None else 0
            trace = json.loads(trace_path.read_text())
            result["layers"] = tracing.layer_metrics(trace["raw"], rows, trace["main_end"])
        shutil.rmtree(out, ignore_errors=True)
        return result

    def run(self) -> list[dict]:
        """Whole rounds (pairs of untraced and traced rounds with --trace 1) for --seconds."""
        start = perf_counter()
        deadline = start + HARD_LIMIT_S
        modes = (False, True) if self.args.trace else (False,)
        rounds, unit_walls = [], []
        while True:
            unit_start = perf_counter()
            for traced in modes:
                result = self.round(traced, len(rounds), deadline)
                result["traced"] = traced
                rounds.append(result)
            unit_walls.append(perf_counter() - unit_start)
            elapsed = perf_counter() - start
            if len(unit_walls) >= MIN_ROUNDS and (
                elapsed + statistics.median(unit_walls) > self.args.seconds
                or elapsed + max(unit_walls) > HARD_LIMIT_S
            ):
                return rounds


def summarize(rounds: list[dict], trace: bool) -> dict | None:
    """The result object, or None when no round completed."""
    done = [r for r in rounds if "timing" in r]
    if not done:
        return None
    untraced = [r["timing"] for r in done if not r["traced"]]
    metrics = {}
    if trace:
        traced = [r for r in done if r["traced"]]
        if not traced or not untraced:
            return None
        for name, unit, _ in tracing.PER_LAYER[:-1]:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        slowed = statistics.median(r["timing"]["steps_per_s"] for r in traced)
        plain = statistics.median(t["steps_per_s"] for t in untraced)
        metrics["bench.trace_overhead_pct"] = {"value": 100.0 * (1.0 - slowed / plain), "unit": "%"}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(t[name] for t in untraced), "unit": unit}
    return {
        # A round that crashed has failures too, so it makes the run incorrect.
        "correct": all(not r["failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    package = SRC / "gradmc"
    if not (package / "__init__.py").is_file():
        print(f"error: no gradmc sources at {package}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gradmc

    if Path(gradmc.__file__).resolve().parent != package.resolve():
        print(f"error: imported gradmc from {gradmc.__file__}, not from {package}", file=sys.stderr)
        return 2

    run_dir = WORK / "runs" / str(os.getpid())
    try:
        rounds = Bench(args, run_dir).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for index, result in enumerate(rounds):
        for failure in result["failures"]:
            print(f"round {index}: {failure}", file=sys.stderr)
    result = summarize(rounds, args.trace)
    if result is None:
        print("error: no round completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
