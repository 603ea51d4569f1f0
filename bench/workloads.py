"""The three benchmark workloads: their inputs, how one round runs, and what it checks.

A round is one complete workload from a fresh process: set-up (data generation
or CSV load, model build, ``init()``), a fixed number of stored sampler steps,
and output.  The gaussian rounds run in ``worker.py`` through the public API;
the CLI round is a ``gradmc run`` process that ``run.py`` times from outside.
"""

from __future__ import annotations

import json
import math
import resource
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks


# Prior variance of theta in the gaussian mean model, the package's default.
PRIOR_VARIANCE = 10.0


@dataclass(frozen=True)
class GaussSpec:
    """Gaussian mean model x_i ~ N(theta, 1), theta ~ N(0, PRIOR_VARIANCE), via run_chain."""

    n: int
    batch: int
    algorithm: str
    stepsize: float
    n_iters: int
    warmup: int
    opt_stepsize: float | None = None
    opt_iters: int | None = None


@dataclass(frozen=True)
class BnnSpec:
    """``gradmc run`` on bayes_nn with sghmc and a log-loss trace.

    One chain: with two, the chains' threads overlap only in numpy calls that
    release the interpreter lock, and throughput swung by a factor 1.8 with
    the load on the machine's second core (README, "Workloads").
    """

    n: int
    n_test: int
    batch: int
    stepsize: float
    n_iters: int


# Stepsizes put eps * (N + 1/PRIOR_VARIANCE) at 0.5 on both gaussian workloads,
# so each chain is an AR(1) with coefficient 0.75 around the posterior mean.
WORKLOADS = {
    "gauss_sgldcv_small": GaussSpec(
        n=10_000, batch=100, algorithm="sgldcv", stepsize=5e-5, n_iters=5_000,
        warmup=500, opt_stepsize=1e-5, opt_iters=2_000,
    ),
    "gauss_sgld_large": GaussSpec(
        n=1_000_000, batch=10_000, algorithm="sgld", stepsize=5e-7, n_iters=2_000,
        warmup=200,
    ),
    "cli_bnn_sghmc": BnnSpec(
        n=60_000, n_test=12_000, batch=600, stepsize=1e-5, n_iters=200,
    ),
}

# The same workloads at sizes that run in about a second, for the smoke test.
TINY = {
    "gauss_sgldcv_small": GaussSpec(
        n=1_000, batch=10, algorithm="sgldcv", stepsize=5e-4, n_iters=4_000,
        warmup=200, opt_stepsize=1e-4, opt_iters=200,
    ),
    "gauss_sgld_large": GaussSpec(
        n=10_000, batch=100, algorithm="sgld", stepsize=5e-5, n_iters=4_000,
        warmup=200,
    ),
    "cli_bnn_sghmc": BnnSpec(
        n=3_000, n_test=600, batch=30, stepsize=2e-4, n_iters=60,
    ),
}


def spec_for(name: str, tiny: bool):
    return (TINY if tiny else WORKLOADS)[name]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Gaussian workloads (public API, run inside worker.py)
# ---------------------------------------------------------------------------

class StepClock:
    """run_chain hook: keeps theta and stamps the first, last-warm-up and last steps.

    The hook is the only way into run_chain's loop that the public API offers,
    so the timed run installs nothing in the library.
    """

    def __init__(self, warmup: int, n_iters: int):
        self.warmup = warmup
        self.n_iters = n_iters
        self.count = 0
        self.t_first = self.t_warm = self.t_last = None

    def __call__(self, params):
        self.count += 1
        if self.count == 1:
            self.t_first = perf_counter()
        if self.count == self.warmup:
            self.t_warm = perf_counter()
        if self.count == self.n_iters:
            self.t_last = perf_counter()
        return float(params["theta"])


def gauss_round(spec: GaussSpec, seed: int):
    """Run one gaussian round; return (timing, outputs).

    setup_s runs from the start of data generation to the start of the first
    step (the first hook call minus one mean step); steps_per_s counts the
    steps after warm-up; run_s ends once the chain is an array.
    """
    from gradmc import models, samplers
    from gradmc.data import Rng

    t0 = perf_counter()
    generated = models.gen_synth("gaussian", spec.n, Rng(seed))
    model = models.build_gaussian(PRIOR_VARIANCE)
    config = samplers.SamplerConfig(
        algorithm=spec.algorithm, stepsize=spec.stepsize, minibatch_size=spec.batch,
        n_iters=spec.n_iters, seed=seed, opt_stepsize=spec.opt_stepsize,
        opt_iters=spec.opt_iters,
    )
    clock = StepClock(spec.warmup, spec.n_iters)
    output = samplers.run_chain(model, generated.train, {"theta": 0.0}, config, hook=clock)
    chain = np.array(output.hook_values, dtype=np.float64)
    t_end = perf_counter()
    mean_step = (clock.t_last - clock.t_first) / (spec.n_iters - 1)
    timing = {
        "setup_s": clock.t_first - mean_step - t0,
        "steps_per_s": (spec.n_iters - spec.warmup) / (clock.t_last - clock.t_warm),
        "run_s": t_end - t0,
        "peak_rss_mb": peak_rss_mb(),
    }
    outputs = {
        "model": model,
        "train": generated.train,
        "chain": chain,
        "start": float(output.start_params["theta"]),
    }
    return timing, outputs


def gauss_check(spec: GaussSpec, outputs) -> list[str]:
    """Check a gaussian round against the conjugate posterior and SGLD's AR(1) law."""
    from gradmc import samplers

    x = np.asarray(outputs["train"]["x"], dtype=np.float64)
    chain = outputs["chain"][spec.warmup:]
    if len(outputs["chain"]) != spec.n_iters:
        return [f"chain has {len(outputs['chain'])} draws, expected {spec.n_iters}"]
    if spec.algorithm == "sgldcv":
        mode = np.asarray(outputs["start"])
        full = samplers.full_log_posterior_grad(outputs["model"], outputs["train"], {"theta": mode})
        return checks.check_sgldcv(
            x, PRIOR_VARIANCE, spec.stepsize, chain, float(mode), float(full["theta"])
        )
    return checks.check_sgld(x, PRIOR_VARIANCE, spec.stepsize, spec.batch, chain)


# ---------------------------------------------------------------------------
# CLI workload: inputs written by the benchmark, `gradmc run` timed from outside
# ---------------------------------------------------------------------------

# The network: inputs, hidden units and classes.
BNN_DIM, BNN_HIDDEN, BNN_CLASSES = 20, 10, 3
# `gradmc run --thin`: the log-loss trace keeps every THIN-th iteration.
THIN = 10
# Standard deviations of the teacher network's weights (the input layer's are
# divided by sqrt(BNN_DIM)) and biases.
TEACHER_WEIGHT_SD = 5.0
TEACHER_BIAS_SD = 0.5

# The sampler's --seed stays fixed while the data follow the benchmark seed:
# about 1% of sampler seeds draw a starting precision so close to 0 that the
# first sghmc update makes it negative and the run diverges at iteration 0
# (CHANGES.md, FOUND).  Seed 1 starts every precision above 0.29.  Once
# `_init_bayes_nn` is fixed, the sampler seed should follow the benchmark
# seed, and a diverging round then counts as failed.
SAMPLER_SEED = 1

# Where `gradmc run` writes the log-loss trace of its one chain.
TRACE_FILE = "logloss.csv"


def bnn_arrays(spec: BnnSpec, seed: int):
    """Features and labels from a random teacher network of the model's own form.

    Drawn with numpy's generator seeded by the benchmark seed, not with the
    program's streams, so the inputs do not change when the program does.
    Returns (x, y) with the first ``spec.n`` rows the training split.
    """
    rng = np.random.default_rng(seed)
    total = spec.n + spec.n_test
    x = rng.standard_normal((total, BNN_DIM))
    w_b = rng.standard_normal((BNN_DIM, BNN_HIDDEN)) * (TEACHER_WEIGHT_SD / math.sqrt(BNN_DIM))
    b_b = rng.standard_normal(BNN_HIDDEN) * TEACHER_BIAS_SD
    w_a = rng.standard_normal((BNN_HIDDEN, BNN_CLASSES)) * TEACHER_WEIGHT_SD
    b_a = rng.standard_normal(BNN_CLASSES) * TEACHER_BIAS_SD
    probs = checks.softmax(checks.softmax(x @ w_b + b_b) @ w_a + b_a)
    y = (probs.cumsum(axis=1) < rng.random(total)[:, None]).sum(axis=1)
    return x, np.minimum(y, BNN_CLASSES - 1)


def write_bnn_data(spec: BnnSpec, seed: int, directory: Path):
    """Write train.csv, test.csv and meta.json as `gradmc gen` lays them out; return (x_test, y_test)."""
    x, y = bnn_arrays(spec, seed)
    directory.mkdir(parents=True, exist_ok=True)
    header = ",".join([f"X.{j + 1}" for j in range(BNN_DIM)] + ["y"])
    for name, rows in (("train.csv", slice(0, spec.n)), ("test.csv", slice(spec.n, None))):
        table = np.column_stack([x[rows], y[rows].astype(np.float64)])
        np.savetxt(directory / name, table, fmt="%.17g", delimiter=",", header=header, comments="")
    meta = {
        "model": "bayes_nn",
        "n": spec.n,
        "n_test": spec.n_test,
        "seed": seed,
        "hyper": {"input_dim": BNN_DIM, "hidden": BNN_HIDDEN, "classes": BNN_CLASSES},
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return x[spec.n:], y[spec.n:]


def cli_argv(spec: BnnSpec, data_dir: Path, out_dir: Path) -> list[str]:
    return [
        "run", "--data", str(data_dir), "--out", str(out_dir),
        "--algorithm", "sghmc", "--stepsize", repr(spec.stepsize),
        "--minibatch-size", str(spec.batch), "--n-iters", str(spec.n_iters),
        "--seed", str(SAMPLER_SEED), "--test-function", "log-loss",
        "--thin", str(THIN), "--chains", "1",
    ]


def bnn_start_params() -> dict:
    """The chain's starting point, as `gradmc run` draws it from its seed."""
    from gradmc.data import Rng
    from gradmc.models import FAMILIES, build_bayes_nn

    model = build_bayes_nn(BNN_DIM, BNN_HIDDEN, BNN_CLASSES)
    return FAMILIES["bayes_nn"].init_params(model, Rng(SAMPLER_SEED))


def read_trace(out_dir: Path):
    """Parse the log-loss trace into (iters, values); None if it is missing or has no header."""
    path = out_dir / TRACE_FILE
    if not path.is_file():
        return None
    lines = path.read_text().splitlines()
    if lines[:1] != ["iter,log_loss"]:
        return None
    rows = [line.split(",") for line in lines[1:] if line]
    iters = np.array([int(r[0]) for r in rows], dtype=np.int64)
    values = np.array([float(r[1]) for r in rows], dtype=np.float64)
    return iters, values
