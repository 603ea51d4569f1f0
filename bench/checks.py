"""Output checks, computed in plain numpy apart from the program.

Each check returns a list of failure messages; an empty list is a pass.  The
statistical tolerances come from the AR(1) law that SGLD follows on the
gaussian mean model (README, "Output checks"), at Z standard errors.
"""

from __future__ import annotations

import math

import numpy as np

# Standard errors allowed by the statistical checks.  At 5 a correct chain
# fails with probability below 1e-6 per check.
Z = 5.0

PROB_CLAMP = 1e-12
LOG_LOSS_MAX = -math.log(PROB_CLAMP)


def conjugate_posterior(x, prior_variance: float):
    """Posterior mean and variance of theta for x_i ~ N(theta, 1), theta ~ N(0, prior_variance)."""
    precision = x.size + 1.0 / prior_variance
    return float(np.sum(x)) / precision, 1.0 / precision


def ar1_standard_errors(variance: float, rho: float, n: int):
    """Standard errors of the sample mean and of the relative sample variance.

    For n draws of a stationary AR(1) with coefficient rho and variance
    ``variance``: Var(mean) ~ variance (1 + rho) / ((1 - rho) n) and
    Var(s^2) / variance^2 ~ 2 (1 + rho^2) / ((1 - rho^2) n).
    """
    se_mean = math.sqrt(variance * (1.0 + rho) / ((1.0 - rho) * n))
    se_rel_var = math.sqrt(2.0 * (1.0 + rho * rho) / ((1.0 - rho * rho) * n))
    return se_mean, se_rel_var


def kl_gauss(mean_q, var_q, mean_p, var_p) -> float:
    """KL(q || p) between univariate normals."""
    ratio = var_q / var_p
    return 0.5 * (ratio + (mean_p - mean_q) ** 2 / var_p - 1.0 - math.log(ratio))


def sgldcv_kl_bound(prior_variance: float, n_data: int, stepsize: float, n_draws: int) -> float:
    """Largest KL a correct sgldcv chain of n_draws reaches at Z standard errors.

    On this model the control-variate gradient is exact: the minibatch terms at
    theta and at the mode differ by -(N + 1/prior_variance)(theta - mode).  The
    chain is then an AR(1) with rho = 1 - h/2, h = eps * precision, and
    stationary variance 1 / (precision (1 - h/4)).
    """
    precision = n_data + 1.0 / prior_variance
    h = stepsize * precision
    rho = 1.0 - h / 2.0
    ratio = 1.0 / (1.0 - h / 4.0)
    se_mean, se_rel_var = ar1_standard_errors(ratio / precision, rho, n_draws)
    mean_term = 0.5 * (Z * se_mean) ** 2 * precision
    return mean_term + max(
        kl_gauss(0.0, ratio * (1.0 + s * Z * se_rel_var), 0.0, 1.0) for s in (-1.0, 1.0)
    )


def check_sgldcv(x, prior_variance, stepsize, chain, mode, full_grad) -> list[str]:
    """KL of the moment-matched chain to the conjugate posterior, and the full gradient at the mode."""
    failures = []
    post_mean, post_var = conjugate_posterior(x, prior_variance)
    if not np.all(np.isfinite(chain)):
        return ["sgldcv chain has non-finite draws"]
    kl = kl_gauss(float(np.mean(chain)), float(np.var(chain, ddof=1)), post_mean, post_var)
    bound = sgldcv_kl_bound(prior_variance, x.size, stepsize, chain.size)
    if not kl < bound:
        failures.append(f"sgldcv KL to the conjugate posterior {kl:.4g} >= bound {bound:.4g}")
    expected = float(np.sum(x)) - x.size * mode - mode / prior_variance
    scale = float(np.sum(np.abs(x))) + x.size * abs(mode) + 1.0
    if not abs(full_grad - expected) <= 1e-9 * scale:
        failures.append(
            f"full-data gradient at the mode {full_grad!r} != closed form {expected!r}"
        )
    return failures


def sgld_stationary(x, prior_variance, stepsize, batch):
    """Mean, variance and AR(1) coefficient of SGLD's stationary law on the gaussian model.

    With precision P = N + 1/prior_variance, the minibatch gradient is
    -P (theta - mu) + eta, where eta = N (mean of the batch - mean of x) does
    not depend on theta and has the without-replacement variance
    N^2 s^2 (1 - n/N) / n.  The update is an AR(1) with rho = 1 - eps P / 2 and
    innovation variance eps + eps^2 Var(eta) / 4, so the chain keeps the
    posterior mean exactly and its variance is that innovation variance over
    1 - rho^2.
    """
    n_data = x.size
    mean, _ = conjugate_posterior(x, prior_variance)
    precision = n_data + 1.0 / prior_variance
    rho = 1.0 - stepsize * precision / 2.0
    var_eta = n_data ** 2 * float(np.var(x, ddof=1)) * (1.0 - batch / n_data) / batch
    innovation = stepsize + stepsize ** 2 * var_eta / 4.0
    return mean, innovation / (1.0 - rho * rho), rho


def check_sgld(x, prior_variance, stepsize, batch, chain) -> list[str]:
    """Chain mean against the posterior mean, chain variance against SGLD's stationary variance."""
    if not np.all(np.isfinite(chain)):
        return ["sgld chain has non-finite draws"]
    mean, variance, rho = sgld_stationary(x, prior_variance, stepsize, batch)
    se_mean, se_rel_var = ar1_standard_errors(variance, rho, chain.size)
    failures = []
    chain_mean = float(np.mean(chain))
    if not abs(chain_mean - mean) <= Z * se_mean:
        failures.append(
            f"sgld chain mean {chain_mean:.6g} is {abs(chain_mean - mean) / se_mean:.1f} "
            f"standard errors from the posterior mean {mean:.6g}"
        )
    rel = float(np.var(chain, ddof=1)) / variance - 1.0
    if not abs(rel) <= Z * se_rel_var:
        failures.append(
            f"sgld chain variance is off the stationary {variance:.4g} by {rel:+.1%} "
            f"({abs(rel) / se_rel_var:.1f} standard errors)"
        )
    return failures


def bnn_log_loss(params, x, y) -> float:
    """Mean negative log probability of the true class under the two-layer softmax network."""
    hidden = softmax(x @ np.asarray(params["B"]) + np.asarray(params["b"]))
    probs = softmax(hidden @ np.asarray(params["A"]) + np.asarray(params["a"]))
    picked = np.clip(probs[np.arange(y.size), y], PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(np.log(picked)))


def softmax(z):
    """Row-wise softmax."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def check_bnn_trace(trace, n_iters, thin, classes, x_test, y_test, start_params) -> list[str]:
    """Rows, range, start value and progress of the chain's log-loss trace."""
    if trace is None:
        return ["log-loss trace missing or without its header"]
    iters, values = trace
    expected_iters = np.arange(0, n_iters + 1, thin)
    if iters.shape != expected_iters.shape or not np.array_equal(iters, expected_iters):
        return [f"trace rows {iters.tolist()[:5]}... are not 0, {thin}, ..., {n_iters}"]
    if not np.all(np.isfinite(values)) or np.any(values < 0.0) or np.any(values > LOG_LOSS_MAX):
        return [f"log-loss values outside [0, {LOG_LOSS_MAX:.4f}]"]
    failures = []
    start_loss = bnn_log_loss(start_params, x_test, y_test)
    if not abs(values[0] - start_loss) <= 1e-9 * start_loss:
        failures.append(f"row 0 is {values[0]!r}, the start parameters give {start_loss!r}")
    uniform = math.log(classes)
    if n_iters >= thin and not values[-1] < min(values[0], uniform):
        failures.append(
            f"final log loss {values[-1]:.4f} is not below row 0 "
            f"({values[0]:.4f}) and ln {classes} ({uniform:.4f})"
        )
    return failures
