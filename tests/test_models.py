"""Built-in families: analytic gradients, symmetry, generators, conjugate oracle."""

import math

import numpy as np
import pytest

from gradmc import (
    Dataset,
    DomainError,
    Minibatch,
    Rng,
    build_bayes_nn,
    build_gaussian,
    build_gaussian_mixture,
    build_logistic_regression,
    estimate_gradient,
    gaussian_posterior,
    gen_synth,
    log_density_value,
    nn_forward,
)
from gradmc.models import FAMILIES
from oracles import assert_grad_close, finite_diff_grad


def full_minibatch(dataset):
    idx = np.arange(dataset.n)
    return Minibatch(idx, {k: v[idx] for k, v in dataset.entries.items()})


def log_posterior_fn(model, dataset):
    bindings = {name: dataset[name] for name in model.data_names}

    def f(params):
        return model.log_posterior_value(params, bindings, scale=1.0)

    return f


# -- gaussian ----------------------------------------------------------------------

def test_gaussian_log_posterior_gradient_formula():
    model = build_gaussian(10.0)
    x = Rng(0).standard_normal((200,))
    dataset = Dataset({"x": x})
    theta = 0.7
    got = estimate_gradient(model, {"theta": np.asarray(theta)}, full_minibatch(dataset), 200)
    expected = (x.sum() - 200 * theta) - theta / 10.0
    assert float(got["theta"]) == pytest.approx(expected, rel=1e-12)


def test_gaussian_posterior_no_data_is_prior():
    post = gaussian_posterior(10.0, np.array([]))
    assert post.mean[0] == 0.0
    assert post.variance[0] == pytest.approx(10.0, rel=1e-15)


def test_gaussian_posterior_flat_prior_limit():
    x = Rng(3).standard_normal((400,))
    post = gaussian_posterior(1e9, x)
    assert abs(post.mean[0] - x.mean()) < 1e-6


def test_gaussian_posterior_variance_plugin():
    x = Rng(4).standard_normal((1000,))
    post = gaussian_posterior(10.0, x)
    assert post.variance[0] == pytest.approx(1.0 / 1000.1, rel=1e-14)


# -- mixture -----------------------------------------------------------------------

def test_mixture_collapses_to_single_gaussian():
    model = build_gaussian_mixture()
    x = Rng(5).standard_normal((40, 2))
    loc = np.array([0.3, -0.2])
    loglik = model.log_lik_value({"theta1": loc, "theta2": loc}, {"x": x})
    single = float(np.sum(log_density_value("mvnormal_diag", x, loc=loc, scale=[1.0, 1.0])))
    assert loglik == pytest.approx(single, rel=1e-12)


def test_mixture_log_posterior_symmetric_under_relabeling():
    model = build_gaussian_mixture()
    rng = Rng(6)
    x = rng.standard_normal((30, 2))
    t1 = rng.standard_normal((2,))
    t2 = rng.standard_normal((2,))
    a = model.log_posterior_value({"theta1": t1, "theta2": t2}, {"x": x})
    b = model.log_posterior_value({"theta1": t2, "theta2": t1}, {"x": x})
    assert a == b


def test_mixture_gradient_matches_finite_differences():
    model = build_gaussian_mixture()
    rng = Rng(7)
    dataset = Dataset({"x": rng.standard_normal((25, 2))})
    params = {"theta1": rng.standard_normal((2,)), "theta2": rng.standard_normal((2,))}
    got = estimate_gradient(model, params, full_minibatch(dataset), dataset.n)
    expected = finite_diff_grad(log_posterior_fn(model, dataset), params)
    assert_grad_close(got, expected, rel=1e-5, floor=1e-8)


# -- logistic ----------------------------------------------------------------------

def test_logistic_loglik_at_zero_coefficients():
    d = 5
    model = build_logistic_regression(d)
    rng = Rng(8)
    n = 64
    x = rng.uniform((n, d))
    y = (rng.uniform((n,)) < 0.5).astype(float)
    loglik = model.log_lik_value({"bias": 0.0, "beta": np.zeros((d, 1))}, {"X": x, "y": y})
    assert loglik == pytest.approx(-n * math.log(2.0), rel=1e-12)


def test_logistic_prior_subgradient_is_zero_at_kink():
    d = 3
    model = build_logistic_regression(d)
    grads = model.graph.grad(
        "log_prior", ["bias", "beta"], {"bias": 0.0, "beta": np.zeros((d, 1))}
    )
    assert float(grads["bias"]) == 0.0
    np.testing.assert_array_equal(grads["beta"], np.zeros((d, 1)))


def test_logistic_gradient_matches_finite_differences_away_from_kink():
    d = 4
    model = build_logistic_regression(d)
    rng = Rng(9)
    n = 32
    dataset = Dataset({"X": rng.uniform((n, d)), "y": (rng.uniform((n,)) < 0.4).astype(float)})
    beta = rng.standard_normal((d, 1))
    beta[np.abs(beta) < 0.05] = 0.3  # keep clear of the |.| kink for the FD probe
    params = {"bias": np.asarray(0.4), "beta": beta}
    got = estimate_gradient(model, params, full_minibatch(dataset), n)
    expected = finite_diff_grad(log_posterior_fn(model, dataset), params)
    assert_grad_close(got, expected, rel=1e-5, floor=1e-8)


# -- bayes_nn ----------------------------------------------------------------------

def nn_init(model, seed=11):
    return FAMILIES["bayes_nn"].init_params(model, Rng(seed))


def test_nn_zero_weights_give_uniform_predictions():
    model = build_bayes_nn(6, 4, 3)
    params = nn_init(model)
    for name in ("A", "B", "a", "b"):
        params[name] = np.zeros_like(params[name])
    probs = nn_forward(model, params, Rng(12).standard_normal((10, 6)))
    np.testing.assert_allclose(probs, np.full((10, 3), 1.0 / 3.0), rtol=0, atol=1e-15)


def test_nn_rows_on_simplex():
    model = build_bayes_nn(6, 4, 3)
    params = nn_init(model)
    probs = nn_forward(model, params, Rng(13).standard_normal((50, 6)) * 3.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs >= 0.0)


def test_nn_gradient_matches_finite_differences_including_precisions():
    model = build_bayes_nn(5, 4, 3)
    rng = Rng(14)
    n = 24
    x = rng.standard_normal((n, 5))
    y = np.floor(rng.uniform((n,)) * 3.0)
    dataset = Dataset({"X": x, "y": y})
    params = nn_init(model, seed=15)
    got = estimate_gradient(model, params, full_minibatch(dataset), n)
    expected = finite_diff_grad(log_posterior_fn(model, dataset), params)
    assert_grad_close(got, expected, rel=1e-5, floor=1e-8)


def test_nn_rejects_non_positive_precision():
    model = build_bayes_nn(4, 3, 2)
    params = nn_init(model)
    params["lambda_A"] = np.asarray(-0.5)
    with pytest.raises(DomainError):
        model.check_params(params)


def test_nn_precisions_start_at_prior_mean_and_weights_follow_the_seed():
    # A precision drawn from Exp(1) could start within one sghmc momentum
    # step of 0 (seed 18 drew lambda_b = 0.0009) and the chain then diverged
    # at iteration 0; every precision now starts at the Gamma(1, 1) mean.
    model = build_bayes_nn(20, 10, 3)
    for seed in range(1, 41):
        params = nn_init(model, seed)
        weights = Rng(seed)
        for name in sorted(model.param_shapes):
            if name.startswith("lambda_"):
                assert params[name].shape == () and params[name] == 1.0
            else:
                expected = weights.standard_normal(model.param_shapes[name])
                np.testing.assert_array_equal(params[name], expected)


# -- per-observation additivity -------------------------------------------------------

@pytest.mark.parametrize("family", ["gaussian", "gaussian_mixture", "logistic_regression", "bayes_nn"])
def test_loglik_adds_over_any_partition(family):
    spec = FAMILIES[family]
    hyper = dict(spec.hyper_defaults)
    if family == "bayes_nn":
        hyper = {"input_dim": 5, "hidden": 4, "classes": 3}
    model = spec.build(**hyper)
    gen_kwargs = {"d": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else (
        {"d": hyper["d"]} if family == "logistic_regression" else {}
    )
    data = gen_synth(family, 30, Rng(16), n_test=2, **gen_kwargs).train
    params = spec.init_params(model, Rng(17))
    bindings = {name: data[name] for name in model.data_names}
    whole = model.log_lik_value(params, bindings)
    cut = 11
    first = model.log_lik_value(params, {k: v[:cut] for k, v in bindings.items()})
    second = model.log_lik_value(params, {k: v[cut:] for k, v in bindings.items()})
    assert whole == pytest.approx(first + second, rel=1e-12, abs=1e-12)


# -- generators ------------------------------------------------------------------------

def test_mixture_generator_statistics_and_reproducibility():
    a = gen_synth("gaussian_mixture", 1000, Rng(2), n_test=10)
    b = gen_synth("gaussian_mixture", 1000, Rng(2), n_test=10)
    np.testing.assert_array_equal(a.train["x"], b.train["x"])
    mean = a.train["x"].mean(axis=0)
    assert np.all(np.abs(mean - 0.05) < 0.1)


def test_logistic_generator_zero_coefficients_balanced_labels():
    data = gen_synth(
        "logistic_regression", 1000, Rng(3), n_test=10, d=4,
        true_bias=0.0, true_beta=np.zeros(4),
    )
    assert abs(data.train["y"].mean() - 0.5) < 0.05
    assert data.train["X"].min() >= 0.0 and data.train["X"].max() <= 1.0


def test_generators_record_true_params():
    data = gen_synth("logistic_regression", 50, Rng(4), n_test=5, d=3)
    assert data.true_params["bias"] == 0.5
    assert len(data.true_params["beta"]) == 3


def test_nn_generator_labels_in_range():
    data = gen_synth("bayes_nn", 100, Rng(5), n_test=10, d=6, hidden=4, classes=3)
    labels = data.train["y"]
    assert set(np.unique(labels)).issubset({0.0, 1.0, 2.0})


def test_generator_rejects_unknown_family_and_tiny_n():
    with pytest.raises(DomainError):
        gen_synth("lda", 100, Rng(0))
    with pytest.raises(DomainError):
        gen_synth("gaussian", 1, Rng(0))
