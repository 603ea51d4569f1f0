"""Built-in families: analytic gradients, symmetry, generators, conjugate oracle."""

import math

import numpy as np
import pytest

from gradmc import (
    ConfigError,
    Dataset,
    DomainError,
    Minibatch,
    Rng,
    ShapeError,
    build_bayes_nn,
    build_gaussian,
    build_gaussian_mixture,
    build_logistic_regression,
    gaussian_posterior,
    gen_synth,
    nn_forward,
)
from gradmc.models import FAMILIES, MIXTURE_LOCS
from oracles import (
    assert_grad_close,
    estimate_gradient,
    finite_diff_grad,
    log_density_value,
    log_lik_value,
    log_posterior_value,
    traced_peak,
)


def full_minibatch(dataset):
    idx = np.arange(dataset.n)
    return Minibatch(idx, {k: v[idx] for k, v in dataset.entries.items()})


def log_posterior_fn(model, dataset):
    bindings = {name: dataset[name] for name in model.data_names}

    def f(params):
        return log_posterior_value(model, params, bindings, scale=1.0)

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
    loglik = log_lik_value(model, {"theta1": loc, "theta2": loc}, {"x": x})
    single = float(np.sum(log_density_value("mvnormal_diag", x, loc=loc, scale=[1.0, 1.0])))
    assert loglik == pytest.approx(single, rel=1e-12)


def test_mixture_log_posterior_symmetric_under_relabeling():
    model = build_gaussian_mixture()
    rng = Rng(6)
    x = rng.standard_normal((30, 2))
    t1 = rng.standard_normal((2,))
    t2 = rng.standard_normal((2,))
    a = log_posterior_value(model, {"theta1": t1, "theta2": t2}, {"x": x})
    b = log_posterior_value(model, {"theta1": t2, "theta2": t1}, {"x": x})
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
    loglik = log_lik_value(model, {"bias": 0.0, "beta": np.zeros((d, 1))}, {"X": x, "y": y})
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
    data = gen_synth(family, 30, Rng(16), n_test=2, **hyper).train
    params = spec.init_params(model, Rng(17))
    bindings = {name: data[name] for name in model.data_names}
    whole = log_lik_value(model, params, bindings)
    cut = 11
    first = log_lik_value(model, params, {k: v[:cut] for k, v in bindings.items()})
    second = log_lik_value(model, params, {k: v[cut:] for k, v in bindings.items()})
    assert whole == pytest.approx(first + second, rel=1e-12, abs=1e-12)


# -- generators ------------------------------------------------------------------------

def test_mixture_generator_statistics_and_reproducibility():
    a = gen_synth("gaussian_mixture", 1000, Rng(2), n_test=10)
    b = gen_synth("gaussian_mixture", 1000, Rng(2), n_test=10)
    np.testing.assert_array_equal(a.train["x"], b.train["x"])
    mean = a.train["x"].mean(axis=0)
    assert np.all(np.abs(mean - 0.05) < 0.1)


def test_logistic_generator_features_lie_in_the_unit_interval():
    data = gen_synth("logistic_regression", 1000, Rng(3), n_test=10, d=4)
    assert data.train["X"].min() >= 0.0 and data.train["X"].max() <= 1.0


def test_generators_record_true_params():
    data = gen_synth("logistic_regression", 50, Rng(4), n_test=5, d=3)
    assert data.true_params["bias"] == 0.5
    assert len(data.true_params["beta"]) == 3


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gen_synth_defaults_are_the_builders(family):
    plain = gen_synth(family, 30, Rng(6))
    spelled = gen_synth(family, 30, Rng(6), **FAMILIES[family].hyper_defaults)
    for split in ("train", "test"):
        a, b = getattr(plain, split), getattr(spelled, split)
        assert a.entries.keys() == b.entries.keys()
        for name in a.entries:
            np.testing.assert_array_equal(a[name], b[name])
    assert plain.true_params == spelled.true_params
    if family == "bayes_nn":
        # the builder's name is input_dim
        with pytest.raises(ConfigError, match="bayes_nn takes no hyper-parameter 'd'; it takes input_dim, hidden, classes"):
            gen_synth(family, 30, Rng(6), d=6)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builders_name_their_hyper_parameters_on_a_wrong_one(family):
    build = FAMILIES[family].build
    accepted = ", ".join(FAMILIES[family].hyper_defaults)
    with pytest.raises(ConfigError, match=f"{build.__name__} takes no hyper-parameter 'depth'; it takes {accepted}$"):
        build(depth=2)


# Each family's first draw, taken straight from the stream: the rows of
# its first entry, train then test.
_FIRST_DRAWS = {
    "gaussian": ("x", lambda rng, total: rng.standard_normal((total,))),
    "gaussian_mixture": ("x", lambda rng, total: np.stack(MIXTURE_LOCS)[
        (rng.uniform((total,)) < 0.5).astype(np.int64)] + rng.standard_normal((total, 2))),
    "logistic_regression": ("X", lambda rng, total: rng.uniform((total, 5))),
    "bayes_nn": ("X", lambda rng, total: rng.standard_normal((total, 20))),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generated_splits_are_the_draws_in_one_read_only_buffer(family):
    data = gen_synth(family, 40, Rng(9), n_test=7)
    name, draw = _FIRST_DRAWS[family]
    expected = draw(Rng(9), 47)
    assert data.train[name].tobytes() + data.test[name].tobytes() == expected.tobytes()
    for entry in data.train.entries:
        train, test = data.train[entry], data.test[entry]
        assert train.base is test.base and train.base.shape[0] == 47
        for stored in (train, test):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored.flags.writeable = True


def test_gaussian_generation_holds_its_data_once():
    # The draws are the datasets' storage: no copy of them is made.
    data = gen_synth("gaussian", 200_000, Rng(1))
    data_bytes = data.train["x"].nbytes + data.test["x"].nbytes
    assert traced_peak(lambda: gen_synth("gaussian", 200_000, Rng(1))) <= 1.1 * data_bytes


def test_mixture_generation_peak_stays_near_its_data():
    # The component choice is a bool mask, and the centres are added in place
    # into the normal draw: at the peak, the draw, the centres and the mask.
    data = gen_synth("gaussian_mixture", 200_000, Rng(1))
    data_bytes = data.train["x"].nbytes + data.test["x"].nbytes
    assert traced_peak(lambda: gen_synth("gaussian_mixture", 200_000, Rng(1))) <= 2.2 * data_bytes



def test_nn_generation_peak_stays_near_its_data():
    # The two softmaxes, the bias adds and the labels' cumulative sum run in
    # place, and the hidden layer is freed once the output layer exists: at
    # the peak, the data and one (total, hidden) matrix.
    data = gen_synth("bayes_nn", 200_000, Rng(1))
    data_bytes = sum(arr.nbytes for split in (data.train, data.test) for arr in split.entries.values())
    assert traced_peak(lambda: gen_synth("bayes_nn", 200_000, Rng(1))) <= 1.7 * data_bytes


def test_nn_generator_labels_in_range():
    data = gen_synth("bayes_nn", 100, Rng(5), n_test=10, input_dim=6, hidden=4, classes=3)
    labels = data.train["y"]
    assert set(np.unique(labels)).issubset({0.0, 1.0, 2.0})


def test_builders_reject_sizes_that_are_not_whole_numbers():
    # The graph refuses to truncate a size: 2.5 features is not 2.
    with pytest.raises(ShapeError, match="not a whole number"):
        gen_synth("logistic_regression", 10, Rng(1), d=2.5)
    with pytest.raises(ShapeError, match="not a whole number"):
        build_bayes_nn(hidden=1.5)
    assert build_logistic_regression(d=3.0).param_shapes["beta"] == (3, 1)


def test_generator_rejects_unknown_family_and_tiny_n():
    with pytest.raises(DomainError):
        gen_synth("lda", 100, Rng(0))
    with pytest.raises(DomainError):
        gen_synth("gaussian", 1, Rng(0))
