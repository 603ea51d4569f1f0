"""Gradient estimators, the six kernels, mode finding, and the chain lifecycle."""

import copy
import itertools
import math

import numpy as np
import pytest

from gradmc import (
    FAMILIES,
    ChainState,
    ConfigError,
    Dataset,
    DomainError,
    Graph,
    GraphBuilder,
    LifecycleError,
    Minibatch,
    Model,
    NumericalDivergence,
    Rng,
    SamplerConfig,
    SamplerHandle,
    ShapeError,
    RunningMean,
    build_gaussian,
    build_gaussian_mixture,
    build_logistic_regression,
    find_mode,
    full_log_posterior_grad,
    gen_synth,
    resolve_minibatch_size,
    run_chain,
    sample_minibatch,
    sghmc_step,
    sgld_step,
    sgnht_step,
    standard_normal,
)
import gradmc.samplers
from gradmc.samplers import ControlVariateState, _check_finite
from oracles import batch_means_se, cv_gradient, estimate_gradient, traced_peak


def _streams(seed):
    """ChainState's (batch, noise) substreams, spawned from Rng(seed) as SamplerHandle.init does."""
    rng_batch, rng_noise = Rng(seed).spawn(2)
    return {"rng_batch": rng_batch, "rng_noise": rng_noise}


def full_minibatch(dataset):
    indices = np.arange(dataset.n)
    return Minibatch(indices, {k: v[indices] for k, v in dataset.entries.items()})


def make_gaussian_setup(n=12, seed=0, prior_variance=10.0):
    model = build_gaussian(prior_variance)
    x = Rng(seed).standard_normal((n,))
    return model, Dataset({"x": x}), x


def flat_model():
    """Constant-zero log posterior: gradients vanish, only noise moves the chain."""
    b = GraphBuilder()
    b.placeholder("x", (None,))
    theta = b.variable("theta", ())
    zero = b.constant(0.0)
    return Model(b, log_lik=zero * theta, log_prior=None)


def matrix_flat_model():
    b = GraphBuilder()
    b.placeholder("x", (None,))
    w = b.variable("w", (2, 3))
    return Model(b, log_lik=b.constant(0.0) * b.reduce_sum(w), log_prior=None)


def quadratic_model():
    """Log posterior -theta^2/2 up to a constant (standard normal prior, no data term)."""
    b = GraphBuilder()
    b.placeholder("x", (None,))
    theta = b.variable("theta", ())
    return Model(b, log_lik=b.constant(0.0) * theta, log_prior=b.normal_logpdf(theta, 0.0, 1.0))


DUMMY = Dataset({"x": np.zeros(4)})


# -- the minibatch estimate: Graph.grad of objective at scale N/n ----------------

def test_full_batch_estimate_is_exact_gradient():
    model, dataset, x = make_gaussian_setup(n=40)
    theta = np.asarray(0.37)
    got = estimate_gradient(model, {"theta": theta}, full_minibatch(dataset), dataset.n)
    expected = (x.sum() - dataset.n * 0.37) - 0.37 / 10.0
    assert got["theta"] == pytest.approx(expected, rel=1e-12)


def test_estimator_unbiased_over_all_minibatches():
    # N = 12, n = 3: the average over all C(12,3) = 220 subsets equals the
    # full gradient to 1e-10 relative.
    model, dataset, x = make_gaussian_setup(n=12, seed=4)
    params = {"theta": np.asarray(-0.6)}
    full = estimate_gradient(model, params, full_minibatch(dataset), 12)["theta"]
    subsets = list(itertools.combinations(range(12), 3))
    assert len(subsets) == 220
    total = 0.0
    for subset in subsets:
        indices = np.asarray(subset)
        mb = Minibatch(indices, {"x": dataset["x"][indices]})
        total += estimate_gradient(model, params, mb, 12)["theta"]
    average = total / len(subsets)
    assert abs(average - full) <= 1e-10 * abs(full)


def test_single_observation_scaling_under_flat_prior():
    b = GraphBuilder()
    theta = b.variable("theta", ())
    x = b.placeholder("x", (None,))
    model = Model(b, log_lik=b.reduce_sum(b.normal_logpdf(x, theta, 1.0)))
    data = Dataset({"x": np.array([2.0, -1.0, 0.5, 3.0])})
    i = 2
    mb = Minibatch(np.array([i]), {"x": data["x"][[i]]})
    got = estimate_gradient(model, {"theta": np.asarray(0.2)}, mb, data.n)
    assert got["theta"] == pytest.approx(4.0 * (0.5 - 0.2), rel=1e-12)


def test_estimate_gradient_shape_mismatch():
    model, dataset, _ = make_gaussian_setup()
    with pytest.raises(ShapeError):
        estimate_gradient(model, {"theta": np.zeros(2)}, full_minibatch(dataset), dataset.n)


# -- sgld -------------------------------------------------------------------------

def test_sgld_zero_stepsize_is_identity():
    # stepsize 0 is rejected by config validation; calling the kernel directly
    # bypasses it and must leave the parameters bit-unchanged.
    model, dataset, _ = make_gaussian_setup()
    config = SamplerConfig(algorithm="sgld", stepsize=0.0, minibatch_size=4)
    state = ChainState(model, dataset, config, {"theta": np.asarray(0.7)}, **_streams(5))
    sgld_step(state)
    assert state.params["theta"] == 0.7
    assert state.iteration == 1
    with pytest.raises(ConfigError):
        config.validate(model.param_names)


def test_sgld_flat_posterior_increments_are_injected_noise():
    model = flat_model()
    eps = 2e-3
    config = SamplerConfig(algorithm="sgld", stepsize=eps, minibatch_size=2)
    state = ChainState(model, DUMMY, config, {"theta": np.asarray(0.0)}, **_streams(31))
    increments = np.empty(10_000)
    prev = 0.0
    for i in range(increments.size):
        sgld_step(state)
        increments[i] = float(state.params["theta"]) - prev
        prev = float(state.params["theta"])
    assert abs(increments.var() - eps) < 0.05 * eps
    assert abs(increments.mean()) < 3.0 * math.sqrt(eps / increments.size)


def test_sgld_recovers_conjugate_posterior_mean():
    # Full-batch run: stationary mean must match the analytic posterior mean.
    model = build_gaussian(10.0)
    x = Rng(100).standard_normal((1000,))
    dataset = Dataset({"x": x})
    config = SamplerConfig(
        algorithm="sgld", stepsize=1e-3, minibatch_size=1000, n_iters=100_000, seed=42
    )
    out = run_chain(model, dataset, {"theta": 0.0}, config)
    chain = out.samples["theta"][10_000:]
    analytic = x.sum() / (1000 + 0.1)
    se = batch_means_se(chain)
    assert abs(chain.mean() - analytic) <= 3.0 * se


# -- exact stationary laws ------------------------------------------------------------------
#
# On the gaussian family the minibatch gradient is -P theta + (N/n) S, with
# P = N + 1/prior_variance and S the sum of the minibatch's x.  S does not
# depend on theta; drawn without replacement it has mean n xbar and variance
# n s2 (N - n) / (N - 1), s2 the ddof=0 variance of x.  So sgld is the AR(1)
# theta' = a theta + (eps/2)(N/n) S + sqrt(eps) xi with a = 1 - eps P / 2:
# stationary mean N xbar / P and variance
# (eps + (eps/2)^2 (N/n)^2 Var S) / (1 - a^2).  The control variate cancels
# S exactly, which leaves the exact-gradient recursion (Var S read as 0).
#
# sghmc redraws the momentum v ~ N(0, eps) at each stored step, then runs L
# inner maps theta += v; v = (1 - friction) v + eps (-P theta + (N/n) S_k)
# + N(0, 2 friction eps), each with a fresh minibatch.  On (theta, v) each
# inner map is z -> M z + u_k, M = [[1, 1], [-eps P, 1 - friction - eps P]],
# so the stored theta is the AR(1) theta' = (M^L)_00 theta + (M^L)_01 v
# + sum_k (M^(L-k))_01 u_k,1.  (N xbar / P, 0) is the inner map's fixed point
# in mean, so the stationary mean is N xbar / P here too.
#
# These are the chain's exact laws, discretisation bias and minibatch noise
# included; the bounds below are fixed in units of the exact AR(1) standard
# errors.

STATIONARY_N, STATIONARY_BATCH, STATIONARY_PRIOR = 1000, 100, 10.0
# At these stepsizes sgld's a is 0.5 and sghmc's, with the default friction
# and trajectory length, is -0.44.
STATIONARY_EPS = {"sgld": 1e-3, "sghmc": 2e-4}
STATIONARY_BURNIN, STATIONARY_KEPT = 200, 60_000
STATIONARY_BOUND = 4.0  # standard errors, for the mean and for the variance


def _ar1_mean_se(variance, a, t):
    """Exact standard error of the mean of t consecutive draws of a stationary AR(1)."""
    lags = (1.0 + a) / (1.0 - a) - 2.0 * a * (1.0 - a ** t) / (t * (1.0 - a) ** 2)
    return math.sqrt(variance * lags / t)


def _ar1_variance_se(variance, a, t):
    """Standard error of the sample variance of t draws of a Gaussian AR(1), to first order in 1/t."""
    return variance * math.sqrt(2.0 * (1.0 + a * a) / (t * (1.0 - a * a)))


def _stored_ar1(config, precision, gradient_var):
    """(a, innovation variance) of the stored theta, given the variance of the
    minibatch term (N/n) S of the gradient."""
    eps = float(config.stepsize)
    if config.algorithm.startswith("sgld"):
        return 1.0 - eps * precision / 2.0, eps + (eps / 2.0) ** 2 * gradient_var
    friction, length = config.friction, config.trajectory_length
    inner = np.array([[1.0, 1.0], [-eps * precision, 1.0 - friction - eps * precision]])
    powers = [np.linalg.matrix_power(inner, k) for k in range(length + 1)]
    innovation = powers[length][0, 1] ** 2 * eps + sum(
        powers[length - k][0, 1] ** 2 for k in range(1, length + 1)
    ) * (eps ** 2 * gradient_var + 2.0 * friction * eps)
    return powers[length][0, 0], innovation


def stationary_law_gaps(algorithm, seed):
    """(mean gap, variance gap, variance gap under with-replacement minibatches),
    each in standard errors, of one gaussian sgld, sgldcv, sghmc or sghmccv
    chain against its exact law."""
    n_data, n, eps = STATIONARY_N, STATIONARY_BATCH, STATIONARY_EPS[algorithm.removesuffix("cv")]
    x = Rng(seed).standard_normal((n_data,))
    precision = n_data + 1.0 / STATIONARY_PRIOR
    mean = x.sum() / precision
    config = SamplerConfig(algorithm=algorithm, stepsize=eps, minibatch_size=n, seed=seed + 1,
                           n_iters=STATIONARY_BURNIN + STATIONARY_KEPT, opt_stepsize=eps / 2.0, opt_iters=200)
    scale = 0.0 if algorithm.endswith("cv") else (n_data / n) ** 2  # the control variate cancels S
    a, innovation = _stored_ar1(config, precision, scale * n * x.var() * (n_data - n) / (n_data - 1))
    _, with_replacement = _stored_ar1(config, precision, scale * n * x.var())
    chain = run_chain(build_gaussian(STATIONARY_PRIOR), Dataset({"x": x}), {"theta": mean},
                      config).samples["theta"][STATIONARY_BURNIN:]
    variance = innovation / (1.0 - a * a)
    var_se = _ar1_variance_se(variance, a, chain.size)
    return (
        (chain.mean() - mean) / _ar1_mean_se(variance, a, chain.size),
        (chain.var() - variance) / var_se,
        (chain.var() - with_replacement / (1.0 - a * a)) / var_se,
    )


def test_sgld_matches_its_exact_stationary_law():
    mean_gap, var_gap, with_replacement_gap = stationary_law_gaps("sgld", seed=0)
    assert abs(mean_gap) <= STATIONARY_BOUND, mean_gap
    assert abs(var_gap) <= STATIONARY_BOUND, var_gap
    # The without-replacement factor (N - n)/(N - 1) is resolved: the
    # variance with-replacement minibatches would give is out of bounds.
    assert abs(with_replacement_gap) > STATIONARY_BOUND, with_replacement_gap


def test_sgldcv_matches_its_exact_stationary_law():
    mean_gap, var_gap, _ = stationary_law_gaps("sgldcv", seed=0)
    assert abs(mean_gap) <= STATIONARY_BOUND, mean_gap
    assert abs(var_gap) <= STATIONARY_BOUND, var_gap


def test_sghmc_matches_its_exact_stationary_law():
    mean_gap, var_gap, with_replacement_gap = stationary_law_gaps("sghmc", seed=0)
    assert abs(mean_gap) <= STATIONARY_BOUND, mean_gap
    assert abs(var_gap) <= STATIONARY_BOUND, var_gap
    assert abs(with_replacement_gap) > STATIONARY_BOUND, with_replacement_gap


def test_sghmccv_matches_its_exact_stationary_law():
    mean_gap, var_gap, _ = stationary_law_gaps("sghmccv", seed=0)
    assert abs(mean_gap) <= STATIONARY_BOUND, mean_gap
    assert abs(var_gap) <= STATIONARY_BOUND, var_gap


# -- sghmc ------------------------------------------------------------------------

def test_sghmc_full_friction_gives_pure_momentum_noise():
    # trajectory 1, friction 1, zero gradient: the post-update momentum is
    # exactly the injected N(0, 2*eps) noise.
    model = flat_model()
    eps = 1e-3
    config = SamplerConfig(
        algorithm="sghmc", stepsize=eps, minibatch_size=2, friction=1.0, trajectory_length=1
    )
    state = ChainState(model, DUMMY, config, {"theta": np.asarray(0.0)},
                       momenta={"theta": np.asarray(0.0)}, **_streams(13))
    draws = np.empty(10_000)
    for i in range(draws.size):
        sghmc_step(state)
        draws[i] = float(state.momenta["theta"])
    assert abs(draws.var() - 2.0 * eps) < 0.05 * (2.0 * eps)


def test_sghmc_consumes_trajectory_length_gradients():
    model, dataset, _ = make_gaussian_setup(n=20)
    config = SamplerConfig(algorithm="sghmc", stepsize=1e-4, minibatch_size=5, trajectory_length=5)
    state = ChainState(model, dataset, config, {"theta": np.asarray(0.0)},
                       momenta={"theta": np.asarray(0.0)}, **_streams(3))
    sghmc_step(state)
    assert state.grad_evals == 5
    sghmc_step(state)
    assert state.grad_evals == 10


def test_sghmc_recovers_conjugate_posterior_mean():
    model = build_gaussian(10.0)
    x = Rng(100).standard_normal((1000,))
    dataset = Dataset({"x": x})
    config = SamplerConfig(
        algorithm="sghmc", stepsize=1e-4, minibatch_size=1000, n_iters=20_000, seed=7
    )
    out = run_chain(model, dataset, {"theta": 0.0}, config)
    chain = out.samples["theta"][2_000:]
    analytic = x.sum() / (1000 + 0.1)
    se = batch_means_se(chain)
    assert abs(chain.mean() - analytic) <= 3.0 * se


# -- sgnht ------------------------------------------------------------------------

def test_sgnht_thermostat_fixed_point():
    # When the refreshed momentum satisfies nu^2/p = eps exactly, the
    # thermostat does not move.  eps = 0.25 keeps sqrt(eps)^2 exact in floats.
    model = flat_model()
    eps = 0.25
    config = SamplerConfig(algorithm="sgnht", stepsize=eps, minibatch_size=2, diffusion=0.0)
    state = ChainState(model, DUMMY, config, {"theta": np.asarray(0.0)},
                       momenta={"theta": np.asarray(0.5)}, thermostats={"theta": 0.0}, **_streams(1))
    sgnht_step(state)
    # zero friction, zero gradient, zero noise: nu is unchanged, nu^2 == eps
    assert float(state.momenta["theta"]) == 0.5
    assert state.thermostats["theta"] == 0.0


def test_sgnht_matrix_thermostat_uses_frobenius_product():
    # constant 2x3 momentum with entries v: increment is v^2 - eps.
    model = matrix_flat_model()
    eps = 1e-3
    v = 0.05
    config = SamplerConfig(algorithm="sgnht", stepsize=eps, minibatch_size=2, diffusion=0.0)
    state = ChainState(model, DUMMY, config, {"w": np.zeros((2, 3))},
                       momenta={"w": np.full((2, 3), v)}, thermostats={"w": 0.0}, **_streams(1))
    sgnht_step(state)
    assert state.thermostats["w"] == pytest.approx(v * v - eps, rel=1e-12)


def test_sgnht_keeps_one_thermostat_per_parameter_segment():
    # A () and a (2, 3) parameter share the flat momentum vector; each segment
    # decays by its own thermostat, and each thermostat moves by its own
    # segment's mean-square momentum minus its own stepsize.  Flat posterior,
    # zero diffusion: no gradient and no noise.  Every value is dyadic except
    # eps_w, so the hand computation is exact.
    b = GraphBuilder()
    b.placeholder("x", (None,))
    a = b.variable("a", ())
    w = b.variable("w", (2, 3))
    model = Model(b, log_lik=b.constant(0.0) * (a + b.reduce_sum(w)), log_prior=None)
    steps = {"a": 0.25, "w": 1e-3}
    config = SamplerConfig(algorithm="sgnht", stepsize=steps, minibatch_size=2, diffusion=0.0)
    nu = {"a": 0.5, "w": 0.125}
    xi = {"a": 0.5, "w": 0.0}
    state = ChainState(model, DUMMY, config, {"a": np.asarray(0.0), "w": np.zeros((2, 3))},
                       momenta={"a": np.asarray(nu["a"]), "w": np.full((2, 3), nu["w"])},
                       thermostats=xi, **_streams(1))
    sgnht_step(state)
    for name in ("a", "w"):
        assert np.all(state.params[name] == nu[name])
        new = (1.0 - xi[name]) * nu[name]
        assert np.all(state.momenta[name] == new), name
        assert state.thermostats[name] == xi[name] + (new * new - steps[name]), name
    assert state.thermostats == {"a": 0.5 + (0.0625 - 0.25), "w": 0.125 ** 2 - 1e-3}


def _per_parameter_chain(model, dataset, init, config, n_steps):
    """The three kernels as per-parameter loops: one noise draw per parameter,
    in sorted name order, from the handle's (batch, noise) substreams."""
    names = model.param_names
    rng_batch, rng_noise = Rng(config.seed).spawn(2)
    steps = config.resolved_stepsizes(names)
    n = resolve_minibatch_size(config.minibatch_size, dataset.n)
    params = model.check_params(init)
    momenta = thermostats = None

    def gradient():
        return estimate_gradient(model, params, sample_minibatch(dataset, n, rng_batch), dataset.n)

    def noise(name, variance):
        return standard_normal(rng_noise, model.param_shapes[name]) * math.sqrt(variance)

    alpha, a = config.friction, config.diffusion
    if config.algorithm == "sgnht":
        momenta = {name: noise(name, steps[name]) for name in names}
        thermostats = dict.fromkeys(names, a)
    for _ in range(n_steps):
        if config.algorithm == "sgld":
            grad = gradient()
            for name in names:
                params[name] = params[name] + 0.5 * steps[name] * grad[name] + noise(name, steps[name])
        elif config.algorithm == "sghmc":
            momenta = {name: noise(name, steps[name]) for name in names}
            for _ in range(config.trajectory_length):
                for name in names:
                    params[name] = params[name] + momenta[name]
                grad = gradient()
                for name in names:
                    momenta[name] = ((1.0 - alpha) * momenta[name] + steps[name] * grad[name]
                                     + noise(name, 2.0 * alpha * steps[name]))
        else:
            for name in names:
                params[name] = params[name] + momenta[name]
            grad = gradient()
            for name in names:
                nu = ((1.0 - thermostats[name]) * momenta[name] + steps[name] * grad[name]
                      + noise(name, 2.0 * a * steps[name]))
                momenta[name] = nu
                thermostats[name] += float(np.vdot(nu, nu)) / max(1, nu.size) - steps[name]
    return params, momenta, thermostats


@pytest.mark.parametrize("algorithm", ["sgld", "sghmc", "sgnht"])
def test_flat_kernels_match_the_per_parameter_loops_bit_for_bit(algorithm):
    # bayes_nn mixes matrix, vector and scalar parameters; a per-name stepsize
    # map gives each segment of the flat vector its own stepsize.
    spec = FAMILIES["bayes_nn"]
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3}
    model = spec.build(**hyper)
    dataset = gen_synth("bayes_nn", 200, Rng(8), **hyper).train
    init = spec.init_params(model, Rng(9))
    stepsize = {name: 1e-4 * (1 + k) for k, name in enumerate(model.param_names)}
    config = SamplerConfig(algorithm=algorithm, stepsize=stepsize, minibatch_size=20, seed=12)
    handle = SamplerHandle(model, dataset, init, config).init()
    for _ in range(15):
        handle.step()
    params, momenta, thermostats = _per_parameter_chain(model, dataset, init, config, 15)
    for name in model.param_names:
        assert handle.state.params[name].tobytes() == np.asarray(params[name]).tobytes(), name
        if momenta is not None:
            assert handle.state.momenta[name].tobytes() == np.asarray(momenta[name]).tobytes(), name
    assert handle.state.thermostats == thermostats


@pytest.mark.parametrize("algorithm", ["sgld", "sghmc", "sgnht"])
def test_noise_block_refills_match_the_per_parameter_loops_bit_for_bit(algorithm, monkeypatch):
    # 2087 parameters: a noise block holds 3 rows, so 10 steps cross several
    # refills (sgld serves 10 rows, sgnht 11, sghmc 60).
    spec = FAMILIES["bayes_nn"]
    hyper = {"input_dim": 100, "hidden": 20, "classes": 3}
    model = spec.build(**hyper)
    dataset = gen_synth("bayes_nn", 200, Rng(8), **hyper).train
    init = spec.init_params(model, Rng(9))
    stepsize = {name: 1e-5 * (1 + k) for k, name in enumerate(model.param_names)}
    config = SamplerConfig(algorithm=algorithm, stepsize=stepsize, minibatch_size=20, seed=12,
                           trajectory_length=5)
    blocks = []
    reference = gradmc.samplers.standard_normal

    def counted(rng, shape):
        blocks.append(shape)
        return reference(rng, shape)

    monkeypatch.setattr(gradmc.samplers, "standard_normal", counted)
    handle = SamplerHandle(model, dataset, init, config).init()
    for _ in range(10):
        handle.step()
    size = handle.state.theta.size
    served = {"sgld": 10, "sghmc": 10 * (1 + 5), "sgnht": 1 + 10}[algorithm]
    assert size == 2087 and set(blocks) == {(3, size)} and len(blocks) == -(-served // 3) >= 3
    assert handle.state.rng_noise.draw_count == served
    monkeypatch.undo()
    params, momenta, thermostats = _per_parameter_chain(model, dataset, init, config, 10)
    for name in model.param_names:
        assert handle.state.params[name].tobytes() == np.asarray(params[name]).tobytes(), name
        if momenta is not None:
            assert handle.state.momenta[name].tobytes() == np.asarray(momenta[name]).tobytes(), name
    assert handle.state.thermostats == thermostats


def test_a_copy_of_the_noise_stream_continues_the_chain_mid_block():
    # The rows drawn ahead belong to the stream, so a state built on copies
    # of a running chain's streams walks on exactly as the chain does.
    model, dataset, _ = make_gaussian_setup(n=40, seed=3)
    config = SamplerConfig(algorithm="sgld", stepsize=1e-3, minibatch_size=10, seed=6)
    handle = SamplerHandle(model, dataset, {"theta": 0.1}, config).init()
    for _ in range(7):
        handle.step()
    start = handle.state
    copied = ChainState(model, dataset, config, start.params, rng_batch=copy.deepcopy(start.rng_batch),
                        rng_noise=copy.deepcopy(start.rng_noise))
    for _ in range(5):
        handle.step()
        sgld_step(copied)
        assert copied.params["theta"].tobytes() == handle.state.params["theta"].tobytes()


def test_a_noise_stream_shared_across_sizes_serves_rows_of_the_asked_size():
    # Rows a one-parameter chain left pending are not served to a wider one.
    rng = Rng(3)
    assert gradmc.samplers._noise(rng, 1).shape == (1,)
    assert gradmc.samplers._noise(rng, 3).shape == (3,)
    assert rng.draw_count == 2


# -- control variates ---------------------------------------------------------------

def test_cv_gradient_bit_equal_at_mode():
    model, dataset, _ = make_gaussian_setup(n=60, seed=9)
    mode = {"theta": np.asarray(0.123456)}
    full = full_log_posterior_grad(model, dataset, mode)
    cv = ControlVariateState(mode_params=mode, full_grad=full)
    rng = Rng(17)
    for _ in range(100):
        mb = sample_minibatch(dataset, 6, rng)
        got = cv_gradient(model, mode, cv, mb, dataset.n)
        assert np.array_equal(got["theta"], full["theta"])


def test_cv_gradient_full_batch_is_exact():
    model, dataset, x = make_gaussian_setup(n=30, seed=2)
    mode = {"theta": np.asarray(0.05)}
    cv = ControlVariateState(mode_params=mode,
                             full_grad=full_log_posterior_grad(model, dataset, mode))
    rng = Rng(3)
    for _ in range(20):
        theta = float(rng.standard_normal(()))
        got = cv_gradient(model, {"theta": np.asarray(theta)}, cv, full_minibatch(dataset), dataset.n)
        exact = (x.sum() - dataset.n * theta) - theta / 10.0
        assert abs(got["theta"] - exact) <= 1e-12 * max(1.0, abs(exact))


def test_cv_gradient_reduces_variance():
    model, dataset, _ = make_gaussian_setup(n=200, seed=12)
    mode = find_mode(model, dataset, {"theta": 0.0}, 1e-3, 2_000, 20, Rng(5))
    cv = ControlVariateState(mode_params=mode,
                             full_grad=full_log_posterior_grad(model, dataset, mode))
    theta = {"theta": mode["theta"] + 0.05}
    rng = Rng(8)
    plain = np.empty(2_000)
    recentred = np.empty(2_000)
    for i in range(plain.size):
        mb = sample_minibatch(dataset, 10, rng)
        plain[i] = estimate_gradient(model, theta, mb, dataset.n)["theta"]
        recentred[i] = cv_gradient(model, theta, cv, mb, dataset.n)["theta"]
    assert recentred.var() < plain.var()


_FAMILY_NAMES = {
    # family: (param_names, data_names)
    "gaussian": (("theta",), ("x",)),
    "gaussian_mixture": (("theta1", "theta2"), ("x",)),
    "logistic_regression": (("beta", "bias"), ("X", "y")),
    "bayes_nn": (("A", "B", "a", "b", "lambda_A", "lambda_B", "lambda_a", "lambda_b"), ("X", "y")),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_NAMES))
def test_graph_eval_of_every_output_needs_only_params_data_and_scale(family):
    spec = FAMILIES[family]
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else spec.hyper_defaults
    model = spec.build(**hyper)
    dataset = gen_synth(family, 30, Rng(8), n_test=2, **hyper).train
    params = model.check_params(spec.init_params(model, Rng(9)))
    bindings = {**dataset.entries, **params, "__grad_scale__": 1.0}
    values = model.graph.eval(bindings)
    assert list(values) == list(model.graph.outputs)
    assert {"log_lik", "log_prior", "objective"} <= set(values)
    assert values["objective"] == values["log_prior"] + values["log_lik"]


def test_a_parameter_named_like_a_reserved_prefix_is_a_parameter():
    # Names starting "__mode__" are ordinary variable names.
    b = GraphBuilder()
    x = b.placeholder("x", (None,))
    w = b.variable("__mode__w", ())
    model = Model(b, log_lik=b.reduce_sum(b.normal_logpdf(x, w, 1.0)))
    assert model.param_names == ("__mode__w",)
    assert model.param_shapes == {"__mode__w": ()}
    assert sorted(model.graph.variables) == ["__mode__w"]
    dataset = Dataset({"x": Rng(2).standard_normal((40,)) + 3.0})
    config = SamplerConfig(algorithm="sgld", stepsize=1e-2, minibatch_size=10, n_iters=50, seed=4)
    out = run_chain(model, dataset, {"__mode__w": 0.0}, config)
    draws = out.samples["__mode__w"]
    assert draws.shape == (50,) and np.all(np.isfinite(draws))
    assert abs(draws[-10:].mean() - dataset["x"].mean()) < 1.0


def test_cv_init_compiles_one_gradient_plan(monkeypatch):
    # The mode search, the full-data pass and both of the chain's bound
    # gradients differentiate the same objective by the same variables.
    model, dataset, _ = make_gaussian_setup(n=50, seed=1)
    compiled = []
    reference = Graph._compile

    def counted(self, targets, names, grad):
        compiled.append((tuple(names), grad))
        return reference(self, targets, names, grad)

    monkeypatch.setattr(Graph, "_compile", counted)
    config = SamplerConfig(algorithm="sgldcv", stepsize=1e-3, minibatch_size=10, n_iters=5,
                           opt_stepsize=1e-3, opt_iters=20, seed=2)
    handle = SamplerHandle(model, dataset, {"theta": 0.0}, config).init()
    for _ in range(3):
        handle.step()
    assert compiled == [(("theta",), True)]


# -- the chain's bound gradient ----------------------------------------------------------

@pytest.mark.parametrize("cv", [False, True], ids=["plain", "cv"])
@pytest.mark.parametrize("family", sorted(_FAMILY_NAMES))
def test_bound_gradient_is_the_public_estimate_bit_for_bit(family, cv):
    # The chain binds its gradient once over the flat vector; at every point
    # the kernel walks it to, on every minibatch, it must give the public
    # estimator's bits.  Logistic regression feeds its (n,) labels to a
    # declared (n, 1) column; bayes_nn has four rank-0 precisions, read from
    # the flat vector as numpy scalars.  Each parameter has its own stepsize.
    spec = FAMILIES[family]
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else spec.hyper_defaults
    model = spec.build(**hyper)
    dataset = gen_synth(family, 60, Rng(8), n_test=2, **hyper).train
    # The parameters are the graph's variables; the data its placeholders but the scale.
    param_names, data_names = _FAMILY_NAMES[family]
    assert model.param_names == param_names
    assert model.data_names == data_names
    assert model.param_shapes == {name: model.graph.variables[name] for name in param_names}
    if family == "logistic_regression":
        assert dataset["y"].shape == (60,) and model.graph.placeholders["y"] == (None, 1)
    if family == "bayes_nn":
        assert [name for name, shape in model.param_shapes.items() if shape == ()] == [
            "lambda_A", "lambda_B", "lambda_a", "lambda_b"]
    start = model.check_params(spec.init_params(model, Rng(9)))
    control = None
    if cv:
        mode = {name: value + 0.01 for name, value in start.items()}
        control = ControlVariateState(mode_params=mode, full_grad=full_log_posterior_grad(model, dataset, mode))
    stepsize = {name: 1e-4 * (1 + k) for k, name in enumerate(model.param_names)}
    config = SamplerConfig(algorithm="sgldcv" if cv else "sgld", stepsize=stepsize, minibatch_size=7)
    state = ChainState(model, dataset, config, start, **_streams(3), cv=control)
    rng = Rng(4)
    for _ in range(6):
        minibatch = sample_minibatch(dataset, 7, rng)
        if cv:
            want = cv_gradient(model, state.params, control, minibatch, dataset.n)
        else:
            want = estimate_gradient(model, state.params, minibatch, dataset.n)
        got = state.gradient(minibatch.views)
        assert got.shape == state.theta.shape and got.tobytes() == model.flatten(want).tobytes()
        sgld_step(state)


@pytest.mark.parametrize("algorithm", ["sgld", "sgldcv"])
@pytest.mark.parametrize("family, entries", [
    ("gaussian", {"x": np.zeros((30, 2))}),
    ("logistic_regression", {"X": np.zeros((30, 4)), "y": np.zeros(30)}),
], ids=["gaussian", "logistic_regression"])
def test_a_wrong_data_shape_raises_at_init(family, entries, algorithm, monkeypatch):
    # The shapes are checked when the gradient is bound, before any
    # minibatch is drawn: for sgldcv that is before the mode search's first step.
    model = FAMILIES[family].build()
    init = FAMILIES[family].init_params(model, Rng(1))
    config = SamplerConfig(algorithm=algorithm, stepsize=1e-3, minibatch_size=5, opt_stepsize=1e-3, opt_iters=5)
    handle = SamplerHandle(model, Dataset(entries), init, config)
    draws = []
    monkeypatch.setattr(gradmc.samplers, "sample_minibatch", lambda *args: draws.append(args))
    with pytest.raises(ShapeError):
        handle.init()
    assert draws == []


@pytest.mark.parametrize("algorithm", ["sghmc", "sghmccv"])
def test_a_bad_label_raises_at_init(algorithm, monkeypatch):
    # A chain checks the dataset's class labels once, when it binds its
    # gradient: one label out of range fails init() before any minibatch is
    # drawn, not when some minibatch happens to hold its row.
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3}
    model = FAMILIES["bayes_nn"].build(**hyper)
    train = gen_synth("bayes_nn", 200, Rng(3), n_test=2, **hyper).train
    labels = np.array(train["y"])
    labels[137] = 3.0
    config = SamplerConfig(algorithm=algorithm, stepsize=1e-4, minibatch_size=20, opt_stepsize=1e-4, opt_iters=5)
    handle = SamplerHandle(model, Dataset({"X": train["X"], "y": labels}),
                           FAMILIES["bayes_nn"].init_params(model, Rng(1)), config)
    draws = []
    monkeypatch.setattr(gradmc.samplers, "sample_minibatch", lambda *args: draws.append(args))
    with pytest.raises(DomainError, match="got 3.0"):
        handle.init()
    assert draws == [] and handle.state is None


# -- find_mode -----------------------------------------------------------------------

def test_find_mode_converges_to_conjugate_mode():
    model = build_gaussian(10.0)
    x = Rng(100).standard_normal((1000,))
    dataset = Dataset({"x": x})
    mode = find_mode(model, dataset, {"theta": 0.0}, 1e-3, 10_000, 1000, Rng(0))
    analytic = x.sum() / (1000 + 0.1)
    assert abs(float(mode["theta"]) - analytic) < 1e-4


def test_find_mode_single_step_definition():
    model, dataset, _ = make_gaussian_setup(n=25, seed=6)
    eps = 1e-3
    start = {"theta": np.asarray(0.4)}
    mode = find_mode(model, dataset, start, eps, 1, dataset.n, Rng(5))
    mb = sample_minibatch(dataset, dataset.n, Rng(5))
    expected = start["theta"] + eps * estimate_gradient(model, start, mb, dataset.n)["theta"]
    assert np.array_equal(mode["theta"], expected)


def test_find_mode_quadratic_closed_form():
    model = quadratic_model()
    mode = {"theta": np.asarray(1.0)}
    for k in (1, 5, 20):
        got = find_mode(model, DUMMY, {"theta": 1.0}, 0.1, k, 4, Rng(0))
        assert float(got["theta"]) == pytest.approx(0.9 ** k, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_find_mode_divergence_raises():
    model = build_gaussian(10.0)
    dataset = Dataset({"x": np.full(10, 1e200)})
    with pytest.raises(NumericalDivergence):
        find_mode(model, dataset, {"theta": 0.0}, 1e300, 5, 10, Rng(0))


# -- full gradient -------------------------------------------------------------------

def test_full_grad_bit_equals_full_batch_estimate():
    # The library's two gradient paths, on every family: ``Graph.grad``,
    # which the full-data pass calls, and the chain's bound function over all N rows.
    for family in sorted(_FAMILY_NAMES):
        spec = FAMILIES[family]
        hyper = {"input_dim": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else spec.hyper_defaults
        model = spec.build(**hyper)
        dataset = gen_synth(family, 70, Rng(3), n_test=2, **hyper).train
        params = model.check_params(spec.init_params(model, Rng(4)))
        full = model.flatten(full_log_posterior_grad(model, dataset, params))
        estimate = model.flatten(estimate_gradient(model, params, full_minibatch(dataset), dataset.n))
        bound = gradmc.samplers._bind_gradient(model, dataset, dataset.n, model.flatten(params))
        assert full.tobytes() == estimate.tobytes() == bound(dataset.entries).tobytes(), family


def test_full_grad_scales_exactly_with_duplicated_data():
    # flat prior + integer data + dyadic parameter: duplication scales the
    # gradient with no rounding at all.
    b = GraphBuilder()
    theta = b.variable("theta", ())
    x = b.placeholder("x", (None,))
    model = Model(b, log_lik=b.reduce_sum(b.normal_logpdf(x, theta, 1.0)))
    base = np.array([1.0, 2.0, -3.0, 5.0])
    params = {"theta": np.asarray(0.5)}
    g1 = full_log_posterior_grad(model, Dataset({"x": base}), params)["theta"]
    g3 = full_log_posterior_grad(model, Dataset({"x": np.tile(base, 3)}), params)["theta"]
    assert float(g3) == 3.0 * float(g1)


def test_full_grad_vanishes_at_analytic_mode():
    model = build_gaussian(10.0)
    x = Rng(44).standard_normal((500,))
    dataset = Dataset({"x": x})
    mode = {"theta": np.asarray(x.sum() / (500 + 0.1))}
    grad = full_log_posterior_grad(model, dataset, mode)
    assert abs(float(grad["theta"])) < 1e-8


def test_full_grad_reads_the_stored_rows_without_a_copy():
    # The pass binds the dataset's arrays: beyond them it allocates only the
    # gaussian gradient's own temporaries (2.0x the data).  A gathered copy
    # of the rows and its index array would add 2.0x more.
    model = build_gaussian(10.0)
    dataset = gen_synth("gaussian", 200_000, Rng(2)).train
    params = {"theta": np.asarray(0.1)}
    peak = traced_peak(lambda: full_log_posterior_grad(model, dataset, params))
    assert peak <= 2.5 * dataset["x"].nbytes


# -- lifecycle -------------------------------------------------------------------------

def test_step_before_init_is_lifecycle_error():
    model, dataset, _ = make_gaussian_setup()
    config = SamplerConfig(algorithm="sgld", stepsize=1e-3, minibatch_size=4)
    handle = SamplerHandle(model, dataset, {"theta": 0.0}, config)
    with pytest.raises(LifecycleError):
        handle.step()
    with pytest.raises(LifecycleError):
        handle.get_params()


@pytest.mark.parametrize("algorithm", ["sgld", "sghmc", "sgnht"])
def test_stepsizes_and_minibatch_count_resolve_once_per_chain(algorithm, monkeypatch):
    model, dataset, _ = make_gaussian_setup(n=40, seed=3)
    config = SamplerConfig(algorithm=algorithm, stepsize={"theta": 1e-3}, minibatch_size=0.25, seed=6)
    handle = SamplerHandle(model, dataset, {"theta": 0.1}, config).init()
    # A state built by hand goes through the same constructor as the handle's
    # and walks the same chain through the same kernel.
    start = handle.state
    by_hand = ChainState(
        model, dataset, config, start.params, momenta=start.momenta, thermostats=start.thermostats,
        rng_batch=copy.deepcopy(start.rng_batch), rng_noise=copy.deepcopy(start.rng_noise),
    )
    kernel = {"sgld": sgld_step, "sghmc": sghmc_step, "sgnht": sgnht_step}[algorithm]
    for _ in range(5):
        kernel(by_hand)
    resolved = []
    monkeypatch.setattr(SamplerConfig, "resolved_stepsizes", lambda self, names: resolved.append(names))
    monkeypatch.setattr(gradmc.samplers, "resolve_minibatch_size", lambda *args: resolved.append(args))
    for _ in range(5):
        handle.step()
    assert resolved == []
    assert handle.state.params["theta"].tobytes() == by_hand.params["theta"].tobytes()


@pytest.mark.parametrize("algorithm", ["sghmc", "sgnht"])
def test_a_config_changed_after_init_moves_nothing(algorithm):
    # Every setting a kernel reads is resolved once, when init() builds the
    # chain state: a config changed afterwards is not applied in part.
    model, dataset, _ = make_gaussian_setup(n=40, seed=3)
    kept, changed = (SamplerHandle(model, dataset, {"theta": 0.1},
                                   SamplerConfig(algorithm=algorithm, stepsize=1e-3, minibatch_size=10, seed=6)).init()
                     for _ in range(2))
    changed.config.friction, changed.config.trajectory_length = 0.9, 2
    changed.config.diffusion, changed.config.stepsize = 0.5, 0.1
    for _ in range(20):
        kept.step()
        changed.step()
    a, b = kept.state, changed.state
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.momentum.tobytes() == b.momentum.tobytes()
    assert a.thermostats == b.thermostats and a.grad_evals == b.grad_evals


def test_cv_handle_starts_from_mode():
    model, dataset, _ = make_gaussian_setup(n=50, seed=1)
    config = SamplerConfig(
        algorithm="sgldcv", stepsize=1e-3, minibatch_size=10, n_iters=100,
        opt_stepsize=1e-3, opt_iters=500, seed=2,
    )
    handle = SamplerHandle(model, dataset, {"theta": 0.0}, config).init()
    params = handle.get_params()
    assert np.array_equal(params["theta"], handle.cv.mode_params["theta"])
    analytic = dataset["x"].sum() / (50 + 0.1)
    assert abs(float(params["theta"]) - analytic) < 0.2


def test_plain_handle_starts_from_initial_params():
    model, dataset, _ = make_gaussian_setup()
    config = SamplerConfig(algorithm="sgnht", stepsize=1e-3, minibatch_size=4, seed=5)
    handle = SamplerHandle(model, dataset, {"theta": 0.25}, config).init()
    assert float(handle.get_params()["theta"]) == 0.25


def test_get_params_returns_detached_copy():
    model, dataset, _ = make_gaussian_setup()
    config = SamplerConfig(algorithm="sgld", stepsize=1e-3, minibatch_size=4, seed=5)
    handle = SamplerHandle(model, dataset, {"theta": 0.25}, config).init()
    snapshot = handle.get_params()
    snapshot["theta"] += 100.0
    assert float(handle.get_params()["theta"]) == 0.25


def _mixture_setup():
    model = build_gaussian_mixture()
    dataset = Dataset({"x": Rng(2).standard_normal((100, 2)) * 1.1})
    return model, dataset, {"theta1": np.zeros(2), "theta2": np.full(2, 0.3)}


def test_cv_mode_is_not_a_view_of_the_chain():
    model, dataset, init = _mixture_setup()
    config = SamplerConfig(algorithm="sghmccv", stepsize=1e-3, minibatch_size=20, seed=2,
                           opt_stepsize=1e-3, opt_iters=50)
    handle = SamplerHandle(model, dataset, init, config).init()
    mode = {name: value.copy() for name, value in handle.cv.mode_params.items()}
    for _ in range(5):
        handle.step()
    for name in model.param_names:
        assert not np.array_equal(handle.state.params[name], mode[name])
        assert handle.cv.mode_params[name].tobytes() == mode[name].tobytes()


def test_a_hook_that_mutates_its_params_leaves_the_chain_alone():
    model, dataset, init = _mixture_setup()
    config = SamplerConfig(algorithm="sghmc", stepsize=1e-3, minibatch_size=20, n_iters=30, seed=4)
    plain = run_chain(model, dataset, init, config)

    def vandal(params):
        seen = model.flatten(params)
        for value in params.values():
            value[...] = np.nan
        params.clear()
        return seen

    hooked = run_chain(model, dataset, init, config, hook=vandal)
    stored = np.concatenate([plain.samples["theta1"], plain.samples["theta2"]], axis=1)
    assert np.stack(hooked.hook_values).tobytes() == stored.tobytes()
    assert hooked.final_state.theta.tobytes() == plain.final_state.theta.tobytes()
    assert hooked.final_state.momentum.tobytes() == plain.final_state.momentum.tobytes()


def test_stored_rows_do_not_change_as_the_chain_runs_on():
    model, dataset, init = _mixture_setup()
    base = dict(algorithm="sgld", stepsize=1e-3, minibatch_size=20, seed=4)
    short = run_chain(model, dataset, init, SamplerConfig(n_iters=30, **base))
    longer = run_chain(model, dataset, init, SamplerConfig(n_iters=60, **base))
    for name in model.param_names:
        assert not np.array_equal(short.samples[name][0], short.samples[name][-1])
        assert longer.samples[name][:30].tobytes() == short.samples[name].tobytes()
        assert np.array_equal(longer.start_params[name], init[name])


@pytest.mark.parametrize("algorithm", ["sgld", "sghmc", "sgnht"])
def test_identical_handles_walk_identical_trajectories(algorithm):
    model = build_gaussian_mixture()
    x = Rng(2).standard_normal((100, 2)) * 1.1
    dataset = Dataset({"x": x})
    init = {"theta1": np.zeros(2), "theta2": np.full(2, 0.3)}
    config = SamplerConfig(algorithm=algorithm, stepsize=1e-3, minibatch_size=20, seed=99)
    handles = [SamplerHandle(model, dataset, init, config).init() for _ in range(2)]
    for t in range(1000 if algorithm == "sgld" else 200):
        for handle in handles:
            handle.step()
        if t % 50 == 0:
            a, b = (h.get_params() for h in handles)
            assert np.array_equal(a["theta1"], b["theta1"])
            assert np.array_equal(a["theta2"], b["theta2"])
    a, b = (h.get_params() for h in handles)
    assert np.array_equal(a["theta1"], b["theta1"])
    assert np.array_equal(a["theta2"], b["theta2"])


@pytest.mark.parametrize("algorithm", ["sgld", "sghmc", "sgnht", "sgldcv"])
def test_second_init_repeats_the_first(algorithm):
    # Each init() restarts the handle's minibatch and noise streams, so
    # init, 5 steps, init, 5 steps walks the same path twice.
    model, dataset, _ = make_gaussian_setup(n=1000, seed=1)
    config = SamplerConfig(algorithm=algorithm, stepsize=1e-4, minibatch_size=100, seed=1,
                           opt_stepsize=1e-4, opt_iters=20)
    handle = SamplerHandle(model, dataset, {"theta": 0.0}, config)
    runs = []
    for _ in range(2):
        handle.init()
        path = []
        for _ in range(5):
            handle.step()
            path.append(handle.get_params()["theta"])
        runs.append(path)
    assert np.array_equal(runs[0], runs[1])


def test_scalar_stepsize_broadcast_is_bit_identical_to_map():
    model = build_gaussian_mixture()
    x = Rng(3).standard_normal((60, 2))
    dataset = Dataset({"x": x})
    init = {"theta1": np.zeros(2), "theta2": np.zeros(2)}
    shared = dict(minibatch_size=10, n_iters=200, seed=11)
    out_scalar = run_chain(model, dataset, init, SamplerConfig(algorithm="sgld", stepsize=2e-3, **shared))
    out_map = run_chain(
        model, dataset, init,
        SamplerConfig(algorithm="sgld", stepsize={"theta1": 2e-3, "theta2": 2e-3}, **shared),
    )
    assert np.array_equal(out_scalar.samples["theta1"], out_map.samples["theta1"])
    assert np.array_equal(out_scalar.samples["theta2"], out_map.samples["theta2"])


def test_different_seeds_differ():
    model, dataset, _ = make_gaussian_setup(n=50, seed=0)
    base = dict(algorithm="sgld", stepsize=1e-3, minibatch_size=10, n_iters=50)
    a = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(seed=1, **base))
    b = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(seed=2, **base))
    assert not np.array_equal(a.samples["theta"], b.samples["theta"])


def test_kernel_rng_and_gradient_budgets():
    # sgld and sgnht consume one gradient per step, sghmc consumes trajectory_length.
    model = build_gaussian_mixture()
    dataset = Dataset({"x": Rng(0).standard_normal((40, 2))})
    init = {"theta1": np.zeros(2), "theta2": np.zeros(2)}
    for algorithm, per_step in (("sgld", 1), ("sgnht", 1), ("sghmc", 5)):
        config = SamplerConfig(algorithm=algorithm, stepsize=1e-4, minibatch_size=8, seed=4)
        handle = SamplerHandle(model, dataset, init, config).init()
        handle.step()
        evals0 = handle.state.grad_evals
        batch0 = handle.state.rng_batch.draw_count
        noise0 = handle.state.rng_noise.draw_count
        for _ in range(3):
            handle.step()
        assert handle.state.grad_evals - evals0 == 3 * per_step
        assert handle.state.rng_batch.draw_count - batch0 == 3 * per_step
        # one noise draw over the whole parameter vector per gradient, plus
        # sghmc's momentum resample
        noise_per_step = {"sgld": 1, "sgnht": 1, "sghmc": 1 + 5}[algorithm]
        assert handle.state.rng_noise.draw_count - noise0 == 3 * noise_per_step


def test_a_cv_chain_batch_stream_counts_one_draw_per_minibatch():
    # The mode search and the chain share the batch stream: opt_iters
    # minibatches, then one per stored sgld step.
    model, dataset, _ = make_gaussian_setup(n=300, seed=2)
    config = SamplerConfig(algorithm="sgldcv", stepsize=1e-4, minibatch_size=30, n_iters=50,
                           opt_stepsize=1e-4, opt_iters=70, seed=3)
    out = run_chain(model, dataset, {"theta": 0.0}, config)
    assert out.final_state.rng_batch.draw_count == 70 + 50


@pytest.mark.parametrize("algorithm", ["sgld", "sghmc", "sgnht"])
def test_a_model_without_parameters_runs(algorithm):
    b = GraphBuilder()
    model = Model(b, log_lik=b.reduce_sum(b.placeholder("x", (None,))))
    config = SamplerConfig(algorithm=algorithm, stepsize=1e-3, minibatch_size=2, n_iters=3)
    out = run_chain(model, DUMMY, {}, config)
    assert out.samples == {} and out.start_params == {} and out.final_state.iteration == 3


def test_run_chain_output_shape_matches_param_shape():
    # the stored chain has one leading row per iteration and the parameter's
    # own trailing shape: (10000, 54, 1) for a 54-feature coefficient column.
    d = 54
    model = build_logistic_regression(d)
    rng = Rng(1)
    x = rng.uniform((600, d))
    y = (rng.uniform((600,)) < 0.5).astype(float)
    dataset = Dataset({"X": x, "y": y})
    init = {"bias": 0.0, "beta": np.zeros((d, 1))}
    config = SamplerConfig(algorithm="sgld", stepsize=1e-5, minibatch_size=50,
                           n_iters=10_000, seed=13)
    out = run_chain(model, dataset, init, config)
    assert out.samples["beta"].shape == (10_000, 54, 1)
    assert out.samples["bias"].shape == (10_000,)


def test_identity_hook_matches_full_storage():
    model, dataset, _ = make_gaussian_setup(n=30, seed=5)
    base = dict(algorithm="sgld", stepsize=1e-3, minibatch_size=5, n_iters=300, seed=21)
    full = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base))
    hooked = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base),
                       hook=lambda params: float(params["theta"]))
    np.testing.assert_array_equal(np.asarray(hooked.hook_values), full.samples["theta"])


def test_hook_returning_none_stores_nothing():
    model, dataset, _ = make_gaussian_setup(n=30, seed=5)
    base = dict(algorithm="sgld", stepsize=1e-3, minibatch_size=5, n_iters=40, seed=21)
    full = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base))
    count = itertools.count(1)
    every_fourth = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base),
                             hook=lambda params: float(params["theta"]) if next(count) % 4 == 0 else None)
    np.testing.assert_array_equal(every_fourth.hook_values, full.samples["theta"][3::4])
    silent = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base), hook=lambda params: None)
    assert silent.hook_values == []
    assert np.array_equal(silent.final_state.params["theta"], full.final_state.params["theta"])


def test_running_mean_hook_matches_batch_mean():
    model, dataset, _ = make_gaussian_setup(n=30, seed=5)
    base = dict(algorithm="sgld", stepsize=1e-3, minibatch_size=5, n_iters=1000, seed=22)
    full = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base))
    hooked = run_chain(model, dataset, {"theta": 0.0}, SamplerConfig(**base), hook=RunningMean())
    final = hooked.hook_values[-1]["theta"]
    batch_mean = full.samples["theta"].mean()
    assert abs(float(final) - batch_mean) <= 1e-10 * max(1.0, abs(batch_mean))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_carries_iteration_and_param():
    model, dataset, _ = make_gaussian_setup(n=20, seed=5)
    config = SamplerConfig(algorithm="sgld", stepsize=1e308, minibatch_size=5, n_iters=50, seed=1)
    with pytest.raises(NumericalDivergence) as excinfo:
        run_chain(model, dataset, {"theta": 0.0}, config)
    assert excinfo.value.param == "theta"
    assert excinfo.value.iteration is not None


def _scaled_data_model():
    """Log posterior sum(x) * theta: the gradient is N times the minibatch mean of x."""
    b = GraphBuilder()
    theta = b.variable("theta", ())
    return Model(b, log_lik=b.reduce_sum(b.placeholder("x", (None,))) * theta)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_blames_the_gradient_first_then_the_parameter():
    model = _scaled_data_model()
    config = SamplerConfig(algorithm="sgld", stepsize=1e10, minibatch_size=2)
    # An infinite gradient: the "gradient" error, and theta is left as it was.
    infinite = Dataset({"x": np.full(4, np.inf)})
    state = ChainState(model, infinite, config, {"theta": np.asarray(0.5)}, **_streams(1))
    with pytest.raises(NumericalDivergence) as excinfo:
        sgld_step(state)
    assert str(excinfo.value) == "non-finite gradient for parameter 'theta' at iteration 0"
    assert excinfo.value.param == "theta" and excinfo.value.iteration == 0
    assert state.params["theta"] == 0.5 and state.iteration == 0
    # A finite gradient of 4e300 times half of 1e10 overflows the update.
    big = Dataset({"x": np.full(4, 1e300)})
    state = ChainState(model, big, config, {"theta": np.asarray(0.5)}, **_streams(1))
    with pytest.raises(NumericalDivergence) as excinfo:
        sgld_step(state)
    assert str(excinfo.value) == "non-finite parameter for parameter 'theta' at iteration 0"
    assert excinfo.value.param == "theta" and excinfo.value.iteration == 0
    # The mode search raises the same two errors, at the iteration it reached.
    for data, what in ((np.full(4, np.inf), "gradient"), (np.full(4, 1e300), "parameter")):
        with pytest.raises(NumericalDivergence) as excinfo:
            find_mode(model, Dataset({"x": data}), {"theta": 0.5}, 1e10, 5, 2, Rng(0))
        assert str(excinfo.value) == f"non-finite optimizer {what} for parameter 'theta' at iteration 0"
        assert excinfo.value.param == "theta" and excinfo.value.iteration == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm, trajectory_length", [("sgld", 5), ("sghmc", 5), ("sgnht", 5), ("sghmc", 1)],
                         ids=["sgld", "sghmc", "sgnht", "sghmc-trajectory-1"])
def test_an_overflowing_update_leaves_the_chain_at_its_last_finite_value(algorithm, trajectory_length):
    # sghmc and sgnht take their gradient at the moved theta; a failed check
    # puts it back and writes neither momentum nor thermostat.  sgnht's first
    # step, and sghmc's with one inner update, overflow only the momentum,
    # which the step tests before writing.
    model = _scaled_data_model()
    config = SamplerConfig(algorithm=algorithm, stepsize=1e10, minibatch_size=2, trajectory_length=trajectory_length)
    big = Dataset({"x": np.full(4, 1e300)})
    state = ChainState(model, big, config, {"theta": np.asarray(0.5)}, **_streams(1))
    kernel = {"sgld": sgld_step, "sghmc": sghmc_step, "sgnht": sgnht_step}[algorithm]
    with pytest.raises(NumericalDivergence) as excinfo:
        for _ in range(3):
            before = copy.deepcopy((state.theta, state.momentum, state.thermostats, state.iteration))
            kernel(state)
    what = "momentum" if algorithm == "sgnht" or trajectory_length == 1 else "parameter"
    assert str(excinfo.value) == f"non-finite {what} for parameter 'theta' at iteration 0"
    assert excinfo.value.param == "theta" and excinfo.value.iteration == 0 == before[3]
    assert state.theta.tobytes() == before[0].tobytes() and np.isfinite(state.theta).all()
    if algorithm != "sgld":
        assert state.momentum.tobytes() == before[1].tobytes()
    assert state.thermostats == before[2] and state.iteration == before[3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_thermostat_leaves_the_sgnht_chain_as_it_was():
    # A finite momentum of 1e200 has a mean square of inf: the step raises
    # before writing theta, the momentum or the thermostat.
    model = _scaled_data_model()
    config = SamplerConfig(algorithm="sgnht", stepsize=1e-3, minibatch_size=2)
    data = Dataset({"x": np.ones(4)})
    state = ChainState(model, data, config, {"theta": np.asarray(0.5)}, momenta={"theta": np.asarray(1e200)},
                       **_streams(1))
    before = copy.deepcopy((state.theta, state.momentum, state.thermostats))
    with pytest.raises(NumericalDivergence) as excinfo:
        sgnht_step(state)
    assert str(excinfo.value) == "non-finite thermostat for parameter 'theta' at iteration 0"
    assert excinfo.value.param == "theta" and excinfo.value.iteration == 0 == state.iteration
    assert state.theta.tobytes() == before[0].tobytes() and state.momentum.tobytes() == before[1].tobytes()
    assert state.thermostats == before[2]


def test_divergence_names_the_first_non_finite_tensor_in_sorted_order():
    b = GraphBuilder()
    zeta, mid, alpha = b.variable("zeta", (1,)), b.variable("mid", (3,)), b.variable("alpha", ())
    model = Model(b, log_lik=b.constant(0.0) * (b.reduce_sum(zeta) + b.reduce_sum(mid) + alpha))
    tensors = {"zeta": np.asarray([np.nan]), "mid": np.ones(3), "alpha": np.asarray(np.inf)}
    with pytest.raises(NumericalDivergence) as excinfo:
        _check_finite(model, model.flatten(tensors), 7, "gradient")
    assert excinfo.value.param == "alpha" and excinfo.value.iteration == 7
    assert str(excinfo.value) == "non-finite gradient for parameter 'alpha' at iteration 7"
    with pytest.raises(NumericalDivergence) as excinfo:
        _check_finite(model, model.flatten({**tensors, "mid": np.array([1.0, -np.inf, 1.0]),
                                            "alpha": np.asarray(1.0)}), 7, "gradient")
    assert excinfo.value.param == "mid"
    _check_finite(model, model.flatten({"zeta": np.zeros(1), "mid": np.ones(3), "alpha": np.asarray(1.0)}),
                  7, "gradient")


def test_config_validation_errors():
    model, dataset, _ = make_gaussian_setup()
    with pytest.raises(ConfigError):
        SamplerHandle(model, dataset, {"theta": 0.0},
                      SamplerConfig(algorithm="mala", stepsize=1e-3))
    with pytest.raises(ConfigError):
        SamplerHandle(model, dataset, {"theta": 0.0},
                      SamplerConfig(algorithm="sgldcv", stepsize=1e-3))  # no opt_stepsize
    with pytest.raises(ConfigError):
        SamplerHandle(model, dataset, {"theta": 0.0},
                      SamplerConfig(algorithm="sgld", stepsize={"wrong": 1e-3}))
    with pytest.raises(ConfigError):
        SamplerHandle(model, dataset, {"theta": 0.0},
                      SamplerConfig(algorithm="sghmc", stepsize=1e-3, friction=1.5))
    with pytest.raises(ConfigError):
        SamplerHandle(model, dataset, {"theta": 0.0},
                      SamplerConfig(algorithm="sgnht", stepsize=1e-3, diffusion=0.0))
    with pytest.raises(ConfigError):
        SamplerHandle(model, dataset, {"theta": 0.0},
                      SamplerConfig(algorithm="sghmc", stepsize=1e-3, trajectory_length=0))
    # Counts are integers (not bools), other settings real numbers, and a
    # minibatch size of 1 or more a whole count of rows.
    for bad in ({"n_iters": 10.5}, {"n_iters": True}, {"trajectory_length": 2.5}, {"seed": 1.5},
                {"opt_iters": 2.5}, {"friction": "0.1"}, {"stepsize": "1e-3"}, {"stepsize": {"theta": True}},
                {"minibatch_size": 2.5}, {"minibatch_size": 3.5}, {"opt_stepsize": "1e-3"}):
        config = SamplerConfig(**{"algorithm": "sghmccv", "stepsize": 1e-3, "opt_stepsize": 1e-3, **bad})
        with pytest.raises(ConfigError):
            SamplerHandle(model, dataset, {"theta": 0.0}, config)
        with pytest.raises(ConfigError):
            run_chain(model, dataset, {"theta": 0.0}, config)
    # numpy scalars are fine, and so is a whole minibatch count given as a float.
    SamplerHandle(model, dataset, {"theta": 0.0}, SamplerConfig(
        algorithm="sghmccv", stepsize=np.float32(1e-3), opt_stepsize=1e-3, minibatch_size=3.0,
        n_iters=np.int64(3), trajectory_length=np.uint8(2), opt_iters=np.int32(2), seed=np.int64(4)))


def test_init_validates_a_config_changed_after_construction():
    # init() resolves the settings, so it validates them again: a config
    # made invalid after the handle was built fails there, before any step.
    model, dataset, _ = make_gaussian_setup(n=40, seed=3)
    handle = SamplerHandle(model, dataset, {"theta": 0.1},
                           SamplerConfig(algorithm="sghmc", stepsize=1e-3, minibatch_size=10, seed=6))
    handle.config.friction = 5.0
    handle.config.trajectory_length = 0
    with pytest.raises(ConfigError):
        handle.init()
    assert handle.state is None


def test_initial_params_shape_validated():
    model, dataset, _ = make_gaussian_setup()
    config = SamplerConfig(algorithm="sgld", stepsize=1e-3)
    with pytest.raises(ShapeError):
        SamplerHandle(model, dataset, {"theta": np.zeros(3)}, config)
    with pytest.raises(ShapeError):
        SamplerHandle(model, dataset, {}, config)
