"""Built-in model families, synthetic data generators, and analytic oracles.

Four families cover the experiment suite at desk scale:

* ``gaussian`` - unit-variance normal observations with an unknown mean and a
  normal prior; its posterior is available in closed form
  (:func:`gaussian_posterior`) and serves as ground truth everywhere.
* ``gaussian_mixture`` - two-dimensional equal-weight mixture of two unit
  normals with unknown locations, normal priors on both.
* ``logistic_regression`` - binary labels with bias + coefficients under
  independent unit Laplace priors (additive prior constants dropped; they do
  not affect gradients).
* ``bayes_nn`` - a two-layer softmax classifier whose weights carry normal
  priors with Gamma(1, 1) precision hyper-parameters sampled alongside them.

Every generator is reproducible from a seed and records the true parameters
it drew from.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, Rng
from .diagnostics import DiagGaussian
from .errors import ConfigError, DomainError
from .graph import GraphBuilder
from .samplers import Model

__all__ = [
    "GeneratedData",
    "ModelFamily",
    "FAMILIES",
    "build_gaussian",
    "build_gaussian_mixture",
    "build_logistic_regression",
    "build_bayes_nn",
    "gen_synth",
    "gaussian_posterior",
    "nn_forward",
    "logistic_true_coefficients",
]


def _hyper_parameters(build):
    """Make a builder reject a keyword it does not take, or a value that is
    not a number, with a ConfigError that names it, instead of Python's bare
    TypeError."""
    accepted = tuple(inspect.signature(build).parameters)

    @functools.wraps(build)
    def checked(*args, **hyper):
        unknown = ", ".join(repr(name) for name in hyper if name not in accepted)
        if unknown:
            takes = ", ".join(accepted)
            raise ConfigError(f"{build.__name__} takes no hyper-parameter {unknown}; it takes {takes}")
        for name, value in hyper.items():
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{build.__name__} hyper-parameter {name!r} must be a number, got {value!r}")
        return build(*args, **hyper)

    return checked


def _check_prior_variance(prior_variance) -> None:
    if not 0.0 < prior_variance < math.inf:
        raise DomainError(f"prior variance must be positive and finite, got {prior_variance}")


@_hyper_parameters
def build_gaussian(prior_variance: float = 10.0) -> Model:
    """Unknown-mean model: x_i ~ N(theta, 1), theta ~ N(0, prior_variance)."""
    _check_prior_variance(prior_variance)
    b = GraphBuilder()
    theta = b.variable("theta", ())
    x = b.placeholder("x", (None,))
    log_lik = b.reduce_sum(b.normal_logpdf(x, theta, 1.0))
    log_prior = b.normal_logpdf(theta, 0.0, math.sqrt(prior_variance))
    return Model(b, log_lik=log_lik, log_prior=log_prior)


@_hyper_parameters
def build_gaussian_mixture(prior_variance: float = 10.0) -> Model:
    """Equal-weight two-component location mixture in two dimensions."""
    _check_prior_variance(prior_variance)
    b = GraphBuilder()
    theta1 = b.variable("theta1", (2,))
    theta2 = b.variable("theta2", (2,))
    x = b.placeholder("x", (None, 2))
    log_lik = b.reduce_sum(
        b.mixture2_logpdf(x, theta1, theta2, scale1=(1.0, 1.0), scale2=(1.0, 1.0))
    )
    prior_scale = (math.sqrt(prior_variance),) * 2
    log_prior = b.mvnormal_diag_logpdf(theta1, (0.0, 0.0), prior_scale) + b.mvnormal_diag_logpdf(
        theta2, (0.0, 0.0), prior_scale
    )
    return Model(b, log_lik=log_lik, log_prior=log_prior)


@_hyper_parameters
def build_logistic_regression(d: int = 5) -> Model:
    """Binary logistic regression with bias and a (d, 1) coefficient column.

    The prior is independent unit Laplace on every coefficient, kept as
    -sum|beta| - |bias| with the normalizing constants dropped.
    """
    if d < 1:
        raise DomainError("logistic regression needs at least one feature")
    b = GraphBuilder()
    bias = b.variable("bias", ())
    beta = b.variable("beta", (d, 1))
    x = b.placeholder("X", (None, d))
    y = b.placeholder("y", (None, 1))
    pi = b.sigmoid(bias + b.matmul(x, beta))
    log_lik = b.reduce_sum(y * b.log(pi) + (1.0 - y) * b.log(1.0 - pi))
    log_prior = -(b.reduce_sum(b.abs(beta)) + b.abs(bias))
    return Model(b, log_lik=log_lik, log_prior=log_prior)


def _check_nn_precisions(params) -> None:
    for name, value in params.items():
        if name.startswith("lambda_") and not np.all(np.asarray(value) > 0.0):
            raise DomainError(f"precision {name!r} must be positive")


@_hyper_parameters
def build_bayes_nn(input_dim: int = 20, hidden: int = 10, classes: int = 3) -> Model:
    """Two-layer softmax classifier with hierarchical normal priors.

    Weights get N(0, 1/lambda) priors per layer, and each precision lambda_*
    carries a Gamma(1, 1) hyper-prior and is sampled on its natural positive
    scale; a chain that pushes one non-positive diverges rather than being
    silently reparameterized.
    """
    if min(input_dim, hidden, classes) < 1:
        raise DomainError("network dimensions must be positive")
    b = GraphBuilder()
    weight_a = b.variable("A", (hidden, classes))
    weight_b = b.variable("B", (input_dim, hidden))
    bias_a = b.variable("a", (classes,))
    bias_b = b.variable("b", (hidden,))
    lambdas = {
        key: b.variable(f"lambda_{key}", ()) for key in ("A", "B", "a", "b")
    }
    x = b.placeholder("X", (None, input_dim))
    y = b.placeholder("y", (None,))
    hidden_probs = b.softmax(b.broadcast_add(b.matmul(x, weight_b), bias_b))
    probs = b.softmax(b.broadcast_add(b.matmul(hidden_probs, weight_a), bias_a))
    log_lik = b.reduce_sum(b.categorical_logpdf(probs, y))
    log_prior = None
    for key, weights in (("A", weight_a), ("B", weight_b), ("a", bias_a), ("b", bias_b)):
        lam = lambdas[key]
        term = b.reduce_sum(b.normal_logpdf(weights, 0.0, b.rsqrt(lam)))
        term = term + b.gamma_logpdf(lam, shape_param=1.0, rate=1.0)
        log_prior = term if log_prior is None else log_prior + term
    return Model(
        b,
        log_lik=log_lik,
        log_prior=log_prior,
        extra_outputs={"probs": probs},
        validate_params=_check_nn_precisions,
    )


def nn_forward(model: Model, params, x) -> np.ndarray:
    """Class-probability rows of the network at the given parameters."""
    return model.eval_output("probs", params, {"X": np.asarray(x, dtype=np.float64)})


def gaussian_posterior(prior_variance: float, data) -> DiagGaussian:
    """Closed-form posterior for the gaussian family (the conjugate oracle)."""
    _check_prior_variance(prior_variance)
    x = np.asarray(data, dtype=np.float64).ravel()
    precision = x.size + 1.0 / prior_variance
    return DiagGaussian(mean=[x.sum() / precision], variance=[1.0 / precision])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

MIXTURE_LOCS = (np.array([0.0, 0.0]), np.array([0.1, 0.1]))


def logistic_true_coefficients(d: int) -> tuple[float, np.ndarray]:
    """Fixed, documented generating coefficients for the logistic family.

    bias 0.5 and alternating-sign coefficients 2(d - j)/d, j = 0..d-1.
    """
    beta = np.array([((-1.0) ** j) * 2.0 * (d - j) / d for j in range(d)])
    return 0.5, beta


@dataclass(frozen=True)
class GeneratedData:
    train: Dataset
    test: Dataset
    true_params: dict


def _gen_gaussian(n, rng: Rng, n_test: int, model: Model) -> GeneratedData:
    draws = rng.standard_normal((n + n_test,))
    draws.flags.writeable = False
    return GeneratedData(
        train=Dataset._adopt({"x": draws[:n]}),
        test=Dataset._adopt({"x": draws[n:]}),
        true_params={"mean": 0.0, "sd": 1.0},
    )


def _gen_mixture(n, rng: Rng, n_test: int, model: Model) -> GeneratedData:
    total = n + n_test
    second = rng.uniform((total,)) < 0.5
    x = rng.standard_normal((total, 2))
    x += np.where(second[:, None], MIXTURE_LOCS[1], MIXTURE_LOCS[0])
    x.flags.writeable = False
    return GeneratedData(
        train=Dataset._adopt({"x": x[:n]}),
        test=Dataset._adopt({"x": x[n:]}),
        true_params={"theta1": MIXTURE_LOCS[0].tolist(), "theta2": MIXTURE_LOCS[1].tolist()},
    )


def _gen_logistic(n, rng: Rng, n_test: int, model: Model) -> GeneratedData:
    d = model.param_shapes["beta"][0]
    bias, beta = logistic_true_coefficients(d)
    total = n + n_test
    x = rng.uniform((total, d))
    pi = 1.0 / (1.0 + np.exp(-(bias + x @ beta)))
    y = (rng.uniform((total,)) < pi).astype(np.float64)
    x.flags.writeable = y.flags.writeable = False
    return GeneratedData(
        train=Dataset._adopt({"X": x[:n], "y": y[:n]}),
        test=Dataset._adopt({"X": x[n:], "y": y[n:]}),
        true_params={"bias": bias, "beta": beta.tolist()},
    )


def _gen_bayes_nn(n, rng: Rng, n_test: int, model: Model) -> GeneratedData:
    input_dim, hidden, classes = *model.param_shapes["B"], model.param_shapes["A"][1]
    total = n + n_test
    x = rng.standard_normal((total, input_dim))
    true = {
        "B": rng.standard_normal((input_dim, hidden)) / math.sqrt(input_dim),
        "b": rng.standard_normal((hidden,)) * 0.5,
        "A": rng.standard_normal((hidden, classes)) * 2.0,
        "a": rng.standard_normal((classes,)) * 0.5,
    }

    def softmax_(z):  # in place, the same bits as out of place
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        return z

    # In place, so the peak is the data plus one (total, hidden) matrix.
    hidden = x @ true["B"]
    hidden += true["b"]
    probs = softmax_(hidden) @ true["A"]
    del hidden
    probs += true["a"]
    cumulative = np.cumsum(softmax_(probs), axis=1, out=probs)
    u = rng.uniform((total,))
    y = (cumulative < u[:, None]).sum(axis=1, dtype=np.float64)
    x.flags.writeable = y.flags.writeable = False
    return GeneratedData(
        train=Dataset._adopt({"X": x[:n], "y": y[:n]}),
        test=Dataset._adopt({"X": x[n:], "y": y[n:]}),
        true_params={key: val.tolist() for key, val in true.items()},
    )


def _init_gaussian(model, rng: Rng) -> dict:
    return {"theta": np.zeros(())}


def _init_standard_normal(model, rng: Rng) -> dict:
    return {
        name: rng.standard_normal(shape) for name, shape in sorted(model.param_shapes.items())
    }


def _init_bayes_nn(model, rng: Rng) -> dict:
    # Weights are standard normal draws in sorted name order.  Every precision
    # starts at 1, the Gamma(1, 1) prior mean: a random start near 0 lets the
    # first momentum step push it negative.
    params = {}
    for name, shape in sorted(model.param_shapes.items()):
        if name.startswith("lambda_"):
            params[name] = np.asarray(1.0)
        else:
            params[name] = rng.standard_normal(shape)
    return params


@dataclass(frozen=True)
class ModelFamily:
    """Registry record of a family's builder, init, and generator.

    The builder's keyword parameters are the family's hyper-parameters, and
    its signature holds their defaults.  The generator takes ``(n, rng,
    n_test, model)`` and reads the data's sizes from ``model.param_shapes``.
    """

    build: Callable[..., Model]
    init_params: Callable[[Model, Rng], dict]
    generate: Callable[..., GeneratedData]
    label_kind: str | None  # None, "binary" or "multiclass"

    @property
    def hyper_defaults(self) -> dict:
        """A fresh dict of each hyper-parameter's default, read from the builder."""
        return {name: p.default for name, p in inspect.signature(self.build).parameters.items()}


FAMILIES: dict[str, ModelFamily] = {
    "gaussian": ModelFamily(
        build=build_gaussian,
        init_params=_init_gaussian,
        generate=_gen_gaussian,
        label_kind=None,
    ),
    "gaussian_mixture": ModelFamily(
        build=build_gaussian_mixture,
        init_params=_init_standard_normal,
        generate=_gen_mixture,
        label_kind=None,
    ),
    "logistic_regression": ModelFamily(
        build=build_logistic_regression,
        init_params=_init_standard_normal,
        generate=_gen_logistic,
        label_kind="binary",
    ),
    "bayes_nn": ModelFamily(
        build=build_bayes_nn,
        init_params=_init_bayes_nn,
        generate=_gen_bayes_nn,
        label_kind="multiclass",
    ),
}


def gen_synth(name: str, n: int, rng: Rng, n_test: int | None = None, **hyper) -> GeneratedData:
    """Generate a reproducible synthetic train/test split for a family.

    It builds the family's model from ``hyper``, whose builder checks each
    name and value, and draws data of that model's sizes.
    ``n_test`` defaults to max(2, n // 5).  The train and test datasets are
    the first ``n`` and the last ``n_test`` rows of one read-only buffer per
    entry, which both hold without a copy.
    """
    if name not in FAMILIES:
        raise DomainError(f"unknown model family {name!r}")
    if n < 2:
        raise DomainError("generators need n >= 2")
    n_test = max(2, n // 5) if n_test is None else n_test
    if n_test < 1:
        raise DomainError(f"n_test must be at least 1, got {n_test}")
    family = FAMILIES[name]
    return family.generate(n, rng, n_test, family.build(**hyper))
