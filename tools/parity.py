"""Print SHA-256 digests of gradmc's numerical outputs, for comparing two checkouts bit for bit.

Run it in each checkout and diff the two outputs:

    PYTHONPATH=src python3 tools/parity.py > parity.txt

Every line is a label and a digest.  It covers, first, the minibatch
indices ``Rng.indices_without_replacement`` serves, 300 draws from a fresh
stream in each regime of the blocked draw: sparse (N = 10 000, n = 100),
heavy repair of repeats (50, 20), the complement of a smaller row (25, 20),
n = N (25, 25), one row per block with about 50 repeats to repair
(1 000 000, 10 000), and indices sorted as uint64 (2**33, 3).  Then, per
model family:

* 200 minibatch gradient estimates, plain and control-variate, each from
  ``Graph.grad`` of the model's ``objective`` at scale N/n (the lines keep
  the labels ``estimate_gradient`` and ``cv_gradient``, the names these
  estimates had in the library), and the full-data
  ``full_log_posterior_grad``;
* 48 in-process chains: 4 families x 6 algorithms x a scalar and a
  per-name stepsize, 60 steps each through ``run_chain``;
* per family, the compiled plan bodies those chains, a full-data pass and an
  ``eval`` of each output leave in the graph's plan cache, with each chain's
  bound gradient (``ChainState.gradient``): one digest over each function's
  ``co_code``, ``co_consts``, ``co_names`` and ``co_varnames``, so an
  unchanged line means every emitted plan is unchanged;
* sgld and sghmc chains on a 2087-parameter ``bayes_nn``, whose noise rows
  are drawn 3 to a block, so 12 sgld steps cross 3 block refills and 12
  sghmc steps 23;
* ``bayes_nn`` at the benchmark's network (20 inputs, 10 hidden units, 3
  classes) and minibatch size, where the row-reduction and softmax fast
  paths apply (printed last): 200 gradients of 600-row minibatches of a
  6 000-row ``gen_synth`` set, each from a chain's bound gradient
  (``ChainState.gradient``) and from ``Graph.grad``, and one ``probs``
  evaluation over 12 000 rows;
* ``gen_synth`` at 20 000 rows with the family's default hyper-parameters;
* the files ``gradmc gen`` writes, and the CSVs and manifest of
  ``gradmc run`` over 4 families x 6 algorithms with ``--burnin 0``, so
  every stored row of the non-CV chains counts, plus one ``running-mean``
  run and one ``--chains 3`` run per family (every ``chain.<i>.csv`` and
  ``logloss.<i>.csv``; the manifest without its wall clock and data path).

It uses only the public API, the reserved scale name ``__grad_scale__`` and
the plan cache ``Graph._plans``, so it runs unchanged on older checkouts.
It takes a few seconds on one core.  It is not a pytest module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from gradmc import (
    ALGORITHMS,
    FAMILIES,
    NumericalDivergence,
    ChainState,
    Rng,
    SamplerConfig,
    full_log_posterior_grad,
    gen_synth,
    run_chain,
    sample_minibatch,
)
from gradmc.cli import main as cli_main
from gradmc.samplers import ControlVariateState

SMALL = {"bayes_nn": {"input_dim": 5, "hidden": 4, "classes": 3}}
# gradmc gen flags giving the same small network.
GEN_FLAGS = {"bayes_nn": ["--d", "5", "--hidden", "4", "--classes", "3"]}
# The placeholder that scales a model's minibatch log likelihood in its objective.
SCALE = "__grad_scale__"
STEPSIZE = {"gaussian": 2e-4, "gaussian_mixture": 2e-4, "logistic_regression": 1e-4, "bayes_nn": 1e-4}


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, tensors) -> None:
        """Fold in a name -> array map: each name, shape and float64 bytes, in sorted name order."""
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64)
            self._hash.update(f"{name}{arr.shape}".encode())
            self._hash.update(np.ascontiguousarray(arr).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# (N, n) per regime of the index draw: sparse, repair, complement, n = N,
# one row per block, uint64.
INDEX_REGIMES = ((10_000, 100), (50, 20), (25, 20), (25, 25), (1_000_000, 10_000), (2**33, 3))


def index_draws() -> list[str]:
    lines = []
    for n_total, n in INDEX_REGIMES:
        rng = Rng(12)
        digest = Digest()
        digest.add({"indices": [rng.indices_without_replacement(n_total, n) for _ in range(300)]})
        lines.append(f"indices N={n_total} n={n} x300 {digest.hexdigest()}")
    return lines


def family_setup(family: str):
    spec = FAMILIES[family]
    hyper = SMALL.get(family, spec.hyper_defaults)
    model = spec.build(**hyper)
    train = gen_synth(family, 600, Rng(3), n_test=10, **hyper).train
    return spec, model, train


def gradients(family: str) -> list[str]:
    spec, model, train = family_setup(family)
    params = model.check_params(spec.init_params(model, Rng(4)))
    mode = {name: value + 0.01 for name, value in params.items()}
    cv = ControlVariateState(mode_params=mode, full_grad=full_log_posterior_grad(model, train, mode))
    plain, recentred = Digest(), Digest()
    rng = Rng(5)
    for _ in range(200):
        minibatch = sample_minibatch(train, 20, rng)
        scale = train.n / minibatch.indices.size
        here, at_mode = (model.graph.grad("objective", model.param_names, {**minibatch.views, **point, SCALE: scale})
                         for point in (params, cv.mode_params))
        plain.add(here)
        recentred.add({name: cv.full_grad[name] + (here[name] - at_mode[name]) for name in model.param_names})
    whole = Digest()
    whole.add(full_log_posterior_grad(model, train, params))
    generated = gen_synth(family, 20_000, Rng(11))
    data = Digest()
    data.add({f"{split}.{name}": arr for split in ("train", "test")
              for name, arr in getattr(generated, split).entries.items()})
    return [
        f"gen_synth {family} n=20000 {data.hexdigest()}",
        f"grad {family} estimate_gradient x200 {plain.hexdigest()}",
        f"grad {family} cv_gradient x200 {recentred.hexdigest()}",
        f"grad {family} full_pass {whole.hexdigest()}",
    ]


def code_digest(functions) -> str:
    """SHA-256 over each function's bytecode, constants, names and local names, in order."""
    digest = hashlib.sha256()
    for function in functions:
        code = function.__code__
        for part in (code.co_code, code.co_consts, code.co_names, code.co_varnames):
            digest.update(repr(part).encode())
    return digest.hexdigest()


def chains(family: str) -> list[str]:
    spec, model, train = family_setup(family)
    init = spec.init_params(model, Rng(6))
    eps = STEPSIZE[family]
    per_name = {name: eps * (1.0 + 0.25 * k) for k, name in enumerate(model.param_names)}
    lines, bound = [], []
    for algorithm in ALGORITHMS:
        for label, stepsize in (("scalar", eps), ("per-name", per_name)):
            config = SamplerConfig(algorithm=algorithm, stepsize=stepsize, minibatch_size=20, n_iters=60,
                                   seed=7, opt_stepsize=eps, opt_iters=40)
            digest = Digest()
            try:
                out = run_chain(model, train, init, config)
            except NumericalDivergence as exc:
                lines.append(f"chain {family} {algorithm} {label} diverged: {exc}")
                continue
            digest.add(out.start_params)
            digest.add(out.samples)
            digest.add({"momentum": [] if out.final_state.momentum is None else out.final_state.momentum})
            lines.append(f"chain {family} {algorithm} {label} {digest.hexdigest()}")
            bound.append(out.final_state.gradient)
    full_log_posterior_grad(model, train, init)
    bindings = {**train.entries, **init, SCALE: 1.0}
    for name in model.graph.outputs:
        model.graph.eval(bindings, [name])
    plans = model.graph._plans
    bodies = [plans[key][1] for key in sorted(plans, key=repr)]
    lines.append(f"plans {family} {len(bodies)} bodies, {len(bound)} bound {code_digest(bodies + bound)}")
    return lines


def refill_chains() -> list[str]:
    hyper = {"input_dim": 100, "hidden": 20, "classes": 3}
    spec = FAMILIES["bayes_nn"]
    model = spec.build(**hyper)
    train = gen_synth("bayes_nn", 200, Rng(3), n_test=10, **hyper).train
    init = spec.init_params(model, Rng(6))
    lines = []
    for algorithm in ("sgld", "sghmc"):
        config = SamplerConfig(algorithm=algorithm, stepsize=1e-5, minibatch_size=20, n_iters=12, seed=7)
        out = run_chain(model, train, init, config)
        digest = Digest()
        digest.add(out.samples)
        digest.add({"momentum": [] if out.final_state.momentum is None else out.final_state.momentum})
        lines.append(f"chain bayes_nn-2087 {algorithm} {digest.hexdigest()}")
    return lines


def benchmark_shapes() -> list[str]:
    hyper = {"input_dim": 20, "hidden": 10, "classes": 3}
    spec = FAMILIES["bayes_nn"]
    model = spec.build(**hyper)
    generated = gen_synth("bayes_nn", 6000, Rng(3), n_test=12_000, **hyper)
    train = generated.train
    params = model.check_params(spec.init_params(model, Rng(4)))
    config = SamplerConfig(algorithm="sgld", stepsize=1e-5, minibatch_size=600)
    state = ChainState(model, train, config, params, Rng(1), Rng(2))
    bound, graph = Digest(), Digest()
    rng = Rng(5)
    for _ in range(200):
        rows = sample_minibatch(train, 600, rng).views
        bound.add({"grad": state.gradient(rows)})
        graph.add(model.graph.grad("objective", model.param_names, {**rows, **params, SCALE: train.n / 600}))
    probs = Digest()
    probs.add({"probs": model.eval_output("probs", params, {"X": generated.test["X"]})})
    return [
        f"grad bayes_nn-20-10-3 bound n=600 x200 {bound.hexdigest()}",
        f"grad bayes_nn-20-10-3 Graph.grad n=600 x200 {graph.hexdigest()}",
        f"eval bayes_nn-20-10-3 probs n=12000 {probs.hexdigest()}",
    ]


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        for key in ("elapsed_seconds", "data_dir"):
            manifest.pop(key, None)
        return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def cli_runs(family: str, work: Path) -> list[str]:
    data = work / family
    argv = ["gen", family, "--n", "400", "--seed", "2", "--out", str(data), *GEN_FLAGS.get(family, [])]
    assert quiet_cli(argv) == 0, argv
    lines = [f"gen {family} {path.name} {file_digest(path)}" for path in sorted(data.iterdir())]
    test_function = "log-loss" if FAMILIES[family].label_kind else "full-chain"
    for algorithm in ALGORITHMS:
        out = work / f"{family}-{algorithm}"
        argv = ["run", "--data", str(data), "--out", str(out), "--algorithm", algorithm,
                "--stepsize", str(STEPSIZE[family]), "--minibatch-size", "20", "--n-iters", "60",
                "--seed", "8", "--opt-stepsize", str(STEPSIZE[family]), "--opt-iters", "40",
                "--burnin", "0", "--thin", "3", "--test-function", test_function]
        code = quiet_cli(argv)
        lines.append(f"run {family} {algorithm} exit {code}")
        lines += [f"run {family} {algorithm} {path.name} {file_digest(path)}"
                  for path in sorted(out.iterdir())]
    out = work / f"{family}-running-mean"
    argv = ["run", "--data", str(data), "--out", str(out), "--algorithm", "sghmc",
            "--stepsize", str(STEPSIZE[family]), "--minibatch-size", "20", "--n-iters", "60",
            "--seed", "9", "--thin", "4", "--test-function", "running-mean"]
    lines.append(f"run {family} running-mean exit {quiet_cli(argv)}")
    lines += [f"run {family} running-mean {path.name} {file_digest(path)}" for path in sorted(out.iterdir())]
    out = work / f"{family}-chains"
    argv = ["run", "--data", str(data), "--out", str(out), "--algorithm", "sghmccv",
            "--stepsize", str(STEPSIZE[family]), "--minibatch-size", "20", "--n-iters", "60",
            "--seed", "10", "--opt-stepsize", str(STEPSIZE[family]), "--opt-iters", "40",
            "--thin", "3", "--chains", "3"]
    lines.append(f"run {family} chains=3 exit {quiet_cli(argv)}")
    lines += [f"run {family} chains=3 {path.name} {file_digest(path)}" for path in sorted(out.iterdir())]
    return lines


def main() -> int:
    families = sorted(FAMILIES)
    print(*index_draws(), sep="\n")
    for family in families:
        print(*gradients(family), sep="\n")
    for family in families:
        print(*chains(family), sep="\n")
    with tempfile.TemporaryDirectory() as tmp:
        for family in families:
            print(*cli_runs(family, Path(tmp)), sep="\n")
    print(*refill_chains(), sep="\n")
    print(*benchmark_shapes(), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
