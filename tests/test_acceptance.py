"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import contextlib
import io
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from gradmc import (
    Dataset,
    LifecycleError,
    Minibatch,
    Rng,
    RunningMean,
    SamplerConfig,
    SamplerHandle,
    build_bayes_nn,
    build_gaussian,
    build_gaussian_mixture,
    build_logistic_regression,
    find_mode,
    full_log_posterior_grad,
    gaussian_posterior,
    gen_synth,
    kl_diag_gaussian,
    log_loss_binary,
    moment_match,
    run_chain,
)
from gradmc.cli import main as cli_main
from gradmc.models import FAMILIES
from gradmc.samplers import ControlVariateState
from oracles import (
    batch_means_se,
    cv_gradient,
    estimate_gradient,
    finite_diff_grad,
    log_posterior_value,
    mixture_reference_mean,
)


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}  {detail}  [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def full_minibatch(dataset):
    idx = np.arange(dataset.n)
    return Minibatch(idx, {k: v[idx] for k, v in dataset.entries.items()})


# -- 1: gradient correctness -----------------------------------------------------------

def _fd_cases():
    rng = np.random.default_rng(2001)

    def gaussian_case():
        model = build_gaussian(10.0)
        data = {"x": rng.standard_normal(32)}
        draw = lambda: {"theta": rng.standard_normal(())}
        return model, data, draw

    def mixture_case():
        model = build_gaussian_mixture()
        data = {"x": rng.standard_normal((32, 2))}
        draw = lambda: {"theta1": rng.standard_normal(2), "theta2": rng.standard_normal(2)}
        return model, data, draw

    def logistic_case():
        d = 5
        model = build_logistic_regression(d)
        data = {"X": rng.random((32, d)), "y": (rng.random(32) < 0.5).astype(float)}

        def draw():
            beta = rng.standard_normal((d, 1))
            beta += np.sign(beta) * 0.01  # keep clear of the Laplace-prior kink
            bias = rng.standard_normal(()) + 0.05
            return {"bias": bias, "beta": beta}

        return model, data, draw

    def nn_case():
        model = build_bayes_nn(20, 10, 3)
        data = {
            "X": rng.standard_normal((32, 20)),
            "y": np.floor(rng.random(32) * 3.0),
        }

        def draw():
            params = {}
            for name, shape in sorted(model.param_shapes.items()):
                if name.startswith("lambda_"):
                    params[name] = np.asarray(rng.uniform(0.5, 2.0))
                else:
                    params[name] = rng.standard_normal(shape) * 0.5
            return params

        return model, data, draw

    return {
        "gaussian": gaussian_case(),
        "gaussian_mixture": mixture_case(),
        "logistic_regression": logistic_case(),
        "bayes_nn": nn_case(),
    }


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for name, (model, data, draw) in _fd_cases().items():
        def logpost(params):
            return log_posterior_value(model, params, data, scale=1.0)

        for _ in range(20):
            params = draw()
            got = model.graph.grad(
                "objective", model.param_names,
                {**data, **params, "__grad_scale__": 1.0},
            )
            expected = finite_diff_grad(logpost, params, h=1e-5)
            for pname in model.param_names:
                g = np.ravel(got[pname])
                e = np.ravel(expected[pname])
                gap = np.abs(g - e)
                allowed = np.maximum(1e-8, 1e-5 * np.abs(e))
                assert np.all(gap <= allowed), (
                    f"{name}.{pname}: worst gap {gap.max():.2e} allowed {allowed[np.argmax(gap)]:.2e}"
                )
                worst = max(worst, float((gap / allowed).max()))
                checked += g.size
    elapsed = time.perf_counter() - start
    report(1, True, f"4 models x 20 points, {checked} components, worst gap at {worst:.2f}x allowance",
           elapsed, 30.0)


# -- 2: estimator unbiasedness ----------------------------------------------------------

def test_criterion_2_estimator_unbiasedness():
    start = time.perf_counter()
    model = build_gaussian(10.0)
    x = Rng(12).standard_normal((12,))
    dataset = Dataset({"x": x})
    params = {"theta": np.asarray(0.4)}
    full = float(estimate_gradient(model, params, full_minibatch(dataset), 12)["theta"])
    total = 0.0
    count = 0
    for subset in itertools.combinations(range(12), 3):
        idx = np.asarray(subset)
        mb = Minibatch(idx, {"x": x[idx]})
        total += float(estimate_gradient(model, params, mb, 12)["theta"])
        count += 1
    mean = total / count
    rel = abs(mean - full) / abs(full)
    elapsed = time.perf_counter() - start
    report(2, count == 220 and rel <= 1e-10,
           f"mean over all {count} minibatches vs full gradient: rel err {rel:.2e} <= 1e-10",
           elapsed, 5.0)


# -- 3: control-variate exactness ---------------------------------------------------------

def test_criterion_3_control_variate_exactness():
    start = time.perf_counter()
    model = build_gaussian(10.0)
    x = Rng(33).standard_normal((150,))
    dataset = Dataset({"x": x})
    mode = {"theta": np.asarray(float(x.sum() / 150.1) + 0.003)}
    cv = ControlVariateState(mode_params=mode,
                             full_grad=full_log_posterior_grad(model, dataset, mode))
    rng = Rng(34)
    bit_equal = True
    for _ in range(100):
        n = int(rng.uniform(()) * 100) + 10
        idx = rng.indices_without_replacement(150, n)
        mb = Minibatch(idx, {"x": x[idx]})
        got = cv_gradient(model, mode, cv, mb, 150)
        bit_equal &= np.array_equal(got["theta"], cv.full_grad["theta"])

    worst = 0.0
    for _ in range(20):
        theta = float(rng.standard_normal(()))
        got = cv_gradient(model, {"theta": np.asarray(theta)}, cv, full_minibatch(dataset), 150)
        exact = (x.sum() - 150 * theta) - theta / 10.0
        worst = max(worst, abs(float(got["theta"]) - exact) / max(1.0, abs(exact)))
    elapsed = time.perf_counter() - start
    report(3, bit_equal and worst <= 1e-12,
           f"bit-equal at the mode over 100 minibatches; full-batch worst rel err {worst:.2e} <= 1e-12",
           elapsed, 10.0)


# -- 4: variance reduction ------------------------------------------------------------------

def test_criterion_4_variance_reduction():
    start = time.perf_counter()
    model = build_gaussian(10.0)
    x = Rng(44).standard_normal((200,))
    dataset = Dataset({"x": x})
    mode = find_mode(model, dataset, {"theta": 0.0}, 1e-3, 2_000, 20, Rng(45))
    cv = ControlVariateState(mode_params=mode,
                             full_grad=full_log_posterior_grad(model, dataset, mode))
    theta = {"theta": mode["theta"] + 0.07}
    rng = Rng(46)
    plain = np.empty(10_000)
    recentred = np.empty(10_000)
    for i in range(10_000):
        idx = rng.indices_without_replacement(200, 10)
        mb = Minibatch(idx, {"x": x[idx]})
        plain[i] = float(estimate_gradient(model, theta, mb, 200)["theta"])
        recentred[i] = float(cv_gradient(model, theta, cv, mb, 200)["theta"])
    elapsed = time.perf_counter() - start
    report(4, recentred.var() < plain.var(),
           f"cv variance {recentred.var():.3e} < plain variance {plain.var():.3e} "
           f"(10^4 minibatches, n=10, N=200)",
           elapsed, 20.0)


# -- 5 and 9: posterior recovery and the thermostat -------------------------------------------

KERNEL_SETTINGS = {
    # stepsize, stored iterations, burn-in (outer steps)
    "sgld": (1e-4, 50_000, 10_000),
    "sghmc": (1e-5, 10_000, 2_000),
    "sgnht": (1e-5, 50_000, 10_000),
    "sgldcv": (1e-4, 50_000, 0),
    "sghmccv": (1e-5, 10_000, 0),
    "sgnhtcv": (1e-5, 50_000, 0),
}


@pytest.fixture(scope="module")
def recovery_runs():
    model = build_gaussian(10.0)
    x = Rng(2024).standard_normal((1000,))
    dataset = Dataset({"x": x})
    posterior = gaussian_posterior(10.0, x)
    runs = {}
    for algorithm, (eps, n_iters, burnin) in KERNEL_SETTINGS.items():
        config = SamplerConfig(
            algorithm=algorithm, stepsize=eps, minibatch_size=100, n_iters=n_iters,
            seed=7, opt_stepsize=1e-4, opt_iters=10_000,
        )
        started = time.perf_counter()
        handle = SamplerHandle(model, dataset, {"theta": 0.0}, config).init()
        chain = np.empty(n_iters)
        kinetic = np.empty(n_iters) if algorithm.startswith("sgnht") else None
        for t in range(n_iters):
            handle.step()
            chain[t] = handle.state.params["theta"]
            if kinetic is not None:
                nu = float(handle.state.momenta["theta"])
                kinetic[t] = nu * nu
        runs[algorithm] = {
            "chain": chain,
            "kinetic": kinetic,
            "burnin": burnin,
            "eps": eps,
            "elapsed": time.perf_counter() - started,
        }
    return {"runs": runs, "posterior": posterior}


def test_criterion_5_posterior_recovery_all_kernels(recovery_runs):
    posterior = recovery_runs["posterior"]
    analytic_mean = posterior.mean[0]
    details = []
    ok = True
    max_elapsed = 0.0
    for algorithm, run in recovery_runs["runs"].items():
        kept = run["chain"][run["burnin"]:]
        se = batch_means_se(kept)
        gap = abs(kept.mean() - analytic_mean)
        kl = kl_diag_gaussian(moment_match(kept), posterior)
        kernel_ok = gap <= 3.0 * se and kl < 0.1 and run["elapsed"] < 60.0
        ok &= kernel_ok
        max_elapsed = max(max_elapsed, run["elapsed"])
        details.append(f"{algorithm}: gap {gap:.1e}<=3se {3*se:.1e}, KL {kl:.4f}")
    report(5, ok, "; ".join(details), max_elapsed, 60.0)


def test_criterion_9_thermostat_tracks_kinetic_temperature(recovery_runs):
    run = recovery_runs["runs"]["sgnht"]
    second_half = run["kinetic"][len(run["kinetic"]) // 2:]
    ratio = second_half.mean() / run["eps"]
    report(9, abs(ratio - 1.0) <= 0.2,
           f"second-half mean momentum square / stepsize = {ratio:.3f} within [0.8, 1.2] "
           "(runtime shared with criterion 5)",
           0.0, 60.0)


# -- 6: KL trend over dataset size (through the CLI) --------------------------------------------

def test_criterion_6_kl_trend_over_dataset_size(tmp_path):
    """KL does not increase with N at stepsize 0.5/N, though it barely decreases.

    For the gaussian model the ``sgldcv`` gradient is exact (criterion 3), so
    in units of the posterior sd the chain is the AR(1)
    ``z' = (1 - eps*P/2) z + sqrt(eps*P) xi`` with posterior precision
    P = N + 1/10.  It depends on N only through eps*P = 0.5 + 0.05/N.  Its
    stationary variance is inflated by 1/(1 - eps*P/4) ~= 1.143, which puts
    the KL at ~= 0.0047 plus Monte Carlo error.  That discretisation bias
    shrinks with N only through the 0.05/N term: the expected decrease is
    ~= 9e-6 from N = 1e2 to 1e3 and ~= 9e-7 from 1e3 to 1e4.

    The same ``--seed 4`` at every N draws the same noise xi, so the three
    KLs are compared with common random numbers.  The chain starts where the
    stochastic mode search ends, up to about 0.3 posterior sd from the mode,
    and that start point differs between N.  Its effect on the KL is about as
    large as the 1e3-vs-1e4 step, so the second inequality holds by a thin
    margin.
    """
    start = time.perf_counter()
    kls = []
    for n in (100, 1_000, 10_000):
        data = tmp_path / f"data{n}"
        out = tmp_path / f"run{n}"
        assert cli_main(["gen", "gaussian", "--n", str(n), "--seed", "3", "--out", str(data)]) == 0
        assert cli_main([
            "run", "--data", str(data), "--algorithm", "sgldcv",
            "--stepsize", str(0.5 / n), "--opt-stepsize", str(1e-3 / n),
            "--opt-iters", "10000", "--n-iters", "10000", "--burnin", "0",
            "--thin", "1", "--seed", "4", "--out", str(out),
        ]) == 0
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert cli_main(["kl", "--chain", str(out / "chain.csv"), "--data", str(data)]) == 0
        line = captured.getvalue().strip().splitlines()[-1]
        kls.append(float(line.split()[0].split("=")[1]))
    elapsed = time.perf_counter() - start
    report(6, kls[0] >= kls[1] >= kls[2] and kls[2] < 0.05,
           "KL non-increasing over N in (1e2, 1e3, 1e4): "
           + " >= ".join(f"{k:.5f}" for k in kls) + "; final < 0.05",
           elapsed, 120.0)


# -- 7: mixture experiment ------------------------------------------------------------------------

def test_criterion_7_mixture_recovery_against_langevin_oracle():
    start = time.perf_counter()
    gen = gen_synth("gaussian_mixture", 1_000, Rng(2), n_test=2)
    model = build_gaussian_mixture()
    root = Rng(2)
    init = FAMILIES["gaussian_mixture"].init_params(model, root)
    config = SamplerConfig(algorithm="sgld", stepsize=5e-3, minibatch_size=100,
                           n_iters=10_000, seed=2)
    out = run_chain(model, gen.train, init, config, rng=root)
    finite = all(np.all(np.isfinite(out.samples[name])) for name in ("theta1", "theta2"))
    stat = (out.samples["theta1"] + out.samples["theta2"]) / 2.0
    chain_mean = stat[2_000:].mean(axis=0)
    oracle = mixture_reference_mean(gen.train["x"], eps=1e-4, n_iters=100_000, seed=1234)
    gap = np.abs(chain_mean - oracle)
    elapsed = time.perf_counter() - start
    report(7, finite and np.all(gap < 0.1),
           f"finite chain; |mean - oracle| = ({gap[0]:.1e}, {gap[1]:.1e}) < 0.1 per coordinate",
           elapsed, 90.0)


# -- 8: logistic experiment -------------------------------------------------------------------------

LOGISTIC_STEPS = {
    "sgld": 1e-4, "sghmc": 1e-5, "sgnht": 1e-5,
    "sgldcv": 1e-4, "sghmccv": 1e-5, "sgnhtcv": 1e-5,
}


def test_criterion_8_logistic_all_kernels_beat_init_and_cv_cuts_variance():
    start = time.perf_counter()
    gen = gen_synth("logistic_regression", 5_000, Rng(1), n_test=1_000, d=5)
    model = build_logistic_regression(5)
    init = FAMILIES["logistic_regression"].init_params(model, Rng(1))

    def loss(params):
        return log_loss_binary(params["bias"], params["beta"], gen.test["X"], gen.test["y"])

    init_loss = loss(init)
    n_iters = 5_000
    quarters = {}
    ok = True
    details = []
    for algorithm, eps in LOGISTIC_STEPS.items():
        config = SamplerConfig(algorithm=algorithm, stepsize=eps, minibatch_size=0.01,
                               n_iters=n_iters, seed=1, opt_stepsize=1e-5, opt_iters=5_000)
        out = run_chain(model, gen.train, init, config, hook=loss)
        quarter = np.asarray(out.hook_values)[-(n_iters // 4):]
        quarters[algorithm] = quarter
        below = quarter.mean() < init_loss
        ok &= below
        details.append(f"{algorithm} {quarter.mean():.3f}<{init_loss:.3f}")
    for plain, recentred in (("sgld", "sgldcv"), ("sghmc", "sghmccv"), ("sgnht", "sgnhtcv")):
        lower = quarters[recentred].var() < quarters[plain].var()
        ok &= lower
        details.append(f"var({recentred})<var({plain}): {lower}")
    elapsed = time.perf_counter() - start
    report(8, ok, "; ".join(details), elapsed, 120.0)


# -- 10: determinism ---------------------------------------------------------------------------------

def test_criterion_10_process_level_determinism(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "data"
    assert cli_main(["gen", "gaussian", "--n", "400", "--seed", "5", "--out", str(data)]) == 0

    def run(seed, out):
        cmd = [sys.executable, "-m", "gradmc.cli", "run", "--data", str(data),
               "--algorithm", "sgnht", "--stepsize", "1e-4", "--n-iters", "400",
               "--burnin", "0", "--seed", str(seed), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return (out / "chain.csv").read_bytes()

    first = run(31, tmp_path / "a")
    second = run(31, tmp_path / "b")
    third = run(32, tmp_path / "c")
    elapsed = time.perf_counter() - start
    report(10, first == second and first != third,
           "equal seeds give byte-identical chain files across processes; "
           "different seeds differ",
           elapsed, 30.0)


# -- 11: lifecycle ------------------------------------------------------------------------------------

def test_criterion_11_api_lifecycle():
    start = time.perf_counter()
    model = build_gaussian(10.0)
    x = Rng(55).standard_normal((200,))
    dataset = Dataset({"x": x})

    config = SamplerConfig(algorithm="sgld", stepsize=1e-3, minibatch_size=20, seed=3)
    handle = SamplerHandle(model, dataset, {"theta": 0.0}, config)
    try:
        handle.step()
        stepped_early = True
    except LifecycleError:
        stepped_early = False

    cv_config = SamplerConfig(algorithm="sgldcv", stepsize=1e-3, minibatch_size=20,
                              seed=3, opt_stepsize=1e-3, opt_iters=1_000)
    cv_handle = SamplerHandle(model, dataset, {"theta": 0.0}, cv_config).init()
    at_mode = np.array_equal(cv_handle.get_params()["theta"],
                             cv_handle.cv.mode_params["theta"])

    run_config = SamplerConfig(algorithm="sgld", stepsize=1e-3, minibatch_size=20,
                               n_iters=1_000, seed=9)
    full = run_chain(model, dataset, {"theta": 0.0}, run_config)
    hooked = run_chain(model, dataset, {"theta": 0.0}, run_config, hook=RunningMean())
    final_mean = float(hooked.hook_values[-1]["theta"])
    batch_mean = float(full.samples["theta"].mean())
    hook_ok = abs(final_mean - batch_mean) <= 1e-10 * max(1.0, abs(batch_mean))

    elapsed = time.perf_counter() - start
    report(11, (not stepped_early) and at_mode and hook_ok,
           f"step-before-init raises LifecycleError; cv start equals mode estimate; "
           f"running-mean hook matches batch mean (gap {abs(final_mean - batch_mean):.1e})",
           elapsed, 10.0)
