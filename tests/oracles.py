"""Independent reference computations the tests check the library against.

Nothing here touches the package's sampler code paths: gradients come from
central finite differences of forward evaluations, or, for the minibatch and
control-variate estimates a chain binds, from the public ``Graph.grad`` of a
model's ``objective``; the mixture reference chain is a standalone numpy
implementation with its own hand-derived gradient.  ``log_density_value``
calls the package's density kernels directly, outside any graph, and checks
their parameters; ``log_posterior_value`` and ``log_lik_value`` evaluate a
model's graph forward.  ``traced_peak`` measures memory with the standard
library's tracemalloc, for the tests that hold the package to a memory budget.
``index_block`` is the minibatch index draw in plain int64, for the test that
pins the library's draw bit for bit.
"""

import tracemalloc

import numpy as np

from gradmc import DomainError
from gradmc.densities import (
    categorical_logpdf,
    gamma_logpdf,
    laplace_logpdf,
    mvnormal_diag_logpdf,
    normal_logpdf,
)
from gradmc.samplers import _SCALE


def log_posterior_value(model, params, data_bindings, scale=1.0) -> float:
    """A model's log prior plus ``scale`` times its log likelihood, by graph eval."""
    return float(model.eval_output("objective", {**params, _SCALE: scale}, data_bindings))


def log_lik_value(model, params, data_bindings) -> float:
    return float(model.eval_output("log_lik", params, data_bindings))


def estimate_gradient(model, params, minibatch, n_total) -> dict:
    """Unbiased log-posterior gradient from one minibatch: the prior gradient
    plus N/n times the minibatch likelihood gradient, in one reverse pass."""
    bindings = {**minibatch.views, **params, _SCALE: n_total / minibatch.indices.size}
    return model.graph.grad("objective", model.param_names, bindings)


def cv_gradient(model, params, cv, minibatch, n_total) -> dict:
    """Control-variate gradient: the full gradient at the mode, recentred by the
    difference of the estimates at ``params`` and at the mode on the same minibatch."""
    here = estimate_gradient(model, params, minibatch, n_total)
    at_mode = estimate_gradient(model, cv.mode_params, minibatch, n_total)
    return {name: cv.full_grad[name] + (here[name] - at_mode[name]) for name in model.param_names}


def index_block(generator, n_total, k):
    """``max(1, 8192 // k)`` uniform k-subsets of ``[0, n_total)``, one sorted int64 row each.

    Draws k values per row, then replaces every value repeated within its
    row by a fresh draw and re-sorts the rows, until no row holds a repeat.
    """
    block = generator.integers(0, n_total, (max(1, 8192 // max(1, k)), k))
    block.sort(axis=1)
    while True:
        repeat = block[:, 1:] == block[:, :-1]
        m = np.count_nonzero(repeat)
        if not m:
            return block
        block[:, 1:][repeat] = generator.integers(0, n_total, m)
        block.sort(axis=1)


def mixture2_logpdf(x, loc1, loc2, scale1, scale2, w1, w2):
    """Per-row log density of a two-component diagonal-normal mixture."""
    c1 = mvnormal_diag_logpdf(x, loc1, scale1)
    c2 = mvnormal_diag_logpdf(x, loc2, scale2)
    with np.errstate(divide="ignore"):
        lw1 = np.log(w1)
        lw2 = np.log(w2)
    return np.logaddexp(lw1 + c1, lw2 + c2)


def _require(cond, message):
    if not cond:
        raise DomainError(message)


def log_density_value(kind, x, **params):
    """Direct (non-graph) log-density evaluation.

    Returns exactly the numbers the matching graph node produces on the same
    inputs.  Family parameters are validated here; invalid ones raise
    DomainError.
    """
    x = np.asarray(x, dtype=np.float64)
    if kind == "normal":
        sd = float(params["sd"])
        _require(sd > 0.0, "normal sd must be positive")
        return normal_logpdf(x, float(params["mean"]), sd)
    if kind == "mvnormal_diag":
        loc = np.asarray(params["loc"], dtype=np.float64)
        scale = np.asarray(params["scale"], dtype=np.float64)
        _require(np.all(scale > 0.0), "mvnormal_diag scales must be positive")
        return mvnormal_diag_logpdf(x, loc, scale)
    if kind == "laplace":
        scale = float(params["scale"])
        _require(scale > 0.0, "laplace scale must be positive")
        return laplace_logpdf(x, float(params["loc"]), scale)
    if kind == "gamma":
        shape = float(params["shape"])
        rate = float(params["rate"])
        _require(shape > 0.0, "gamma shape must be positive")
        _require(rate > 0.0, "gamma rate must be positive")
        return gamma_logpdf(x, shape, rate)
    if kind == "categorical":
        probs = np.asarray(params["probs"], dtype=np.float64)
        if probs.ndim == 1:
            probs = np.broadcast_to(probs, (np.asarray(x).size, probs.size))
        _require(np.all(probs >= 0.0), "categorical probabilities must be non-negative")
        _require(
            np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9),
            "categorical probability rows must sum to 1",
        )
        labels = np.atleast_1d(np.asarray(x))
        return categorical_logpdf(probs, labels)
    if kind == "mixture2":
        w1, w2 = (float(w) for w in params["weights"])
        _require(w1 >= 0.0 and w2 >= 0.0, "mixture weights must be non-negative")
        _require(abs(w1 + w2 - 1.0) <= 1e-12, "mixture weights must sum to 1")
        loc1 = np.asarray(params["loc1"], dtype=np.float64)
        loc2 = np.asarray(params["loc2"], dtype=np.float64)
        scale1 = np.asarray(params.get("scale1", np.ones_like(loc1)), dtype=np.float64)
        scale2 = np.asarray(params.get("scale2", np.ones_like(loc2)), dtype=np.float64)
        _require(
            np.all(scale1 > 0.0) and np.all(scale2 > 0.0),
            "mixture scales must be positive",
        )
        x2 = np.atleast_2d(x)
        out = mixture2_logpdf(x2, loc1, loc2, scale1, scale2, w1, w2)
        return out[0] if np.asarray(x).ndim == 1 else out
    raise DomainError(f"unknown log-density kind {kind!r}")


def finite_diff_grad(f, params, h=1e-5):
    """Central-difference gradient of a scalar function of a parameter map.

    ``f`` takes a name->array map and returns a float; every coordinate is
    perturbed by +-h in turn.
    """
    grads = {}
    work = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    for name in sorted(work):
        flat = work[name].reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(work)
            flat[i] = orig - h
            down = f(work)
            flat[i] = orig
            grad[i] = (up - down) / (2.0 * h)
        grads[name] = grad.reshape(work[name].shape)
    return grads


def assert_grad_close(got, expected, rel=1e-5, floor=1e-8):
    """Componentwise |got - expected| <= max(floor, rel * |expected|)."""
    for name in sorted(expected):
        g = np.ravel(np.asarray(got[name], dtype=np.float64))
        e = np.ravel(np.asarray(expected[name], dtype=np.float64))
        gap = np.abs(g - e)
        allowed = np.maximum(floor, rel * np.abs(e))
        worst = np.argmax(gap - allowed)
        assert np.all(gap <= allowed), (
            f"{name}[{worst}]: got {g[worst]!r}, expected {e[worst]!r}, "
            f"gap {gap[worst]:.3e} > allowed {allowed[worst]:.3e}"
        )


def traced_peak(call):
    """Peak bytes that ``call()`` allocates beyond what was live before it.

    One untraced warm-up call comes first, so caches and lazy set-up (graph
    plans, imports) do not count.  numpy reports its array buffers to
    tracemalloc.
    """
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def batch_means_se(chain, n_batches=30):
    """Standard error of a chain mean estimated from batch means."""
    chain = np.asarray(chain, dtype=np.float64)
    usable = (chain.size // n_batches) * n_batches
    batches = chain[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(np.sqrt(batches.var(ddof=1) / n_batches))


def mixture_reference_mean(x, eps, n_iters, seed, burnin_frac=0.2, prior_variance=10.0):
    """Posterior mean of (theta1 + theta2)/2 from a full-batch Langevin chain.

    Standalone implementation of the two-component location mixture: gradients
    are the closed-form responsibility-weighted residuals, and the chain is
    plain unadjusted Langevin on the full dataset.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    th1 = rng.standard_normal(2)
    th2 = rng.standard_normal(2)
    burnin = int(n_iters * burnin_frac)
    total = np.zeros(2)
    kept = 0
    half = eps / 2.0
    sd = np.sqrt(eps)
    for t in range(n_iters):
        d1 = x - th1
        d2 = x - th2
        c1 = -0.5 * np.sum(d1 * d1, axis=1)
        c2 = -0.5 * np.sum(d2 * d2, axis=1)
        m = np.maximum(c1, c2)
        w1 = np.exp(c1 - m)
        w2 = np.exp(c2 - m)
        r1 = w1 / (w1 + w2)
        r2 = 1.0 - r1
        g1 = r1 @ d1 - th1 / prior_variance
        g2 = r2 @ d2 - th2 / prior_variance
        th1 = th1 + half * g1 + sd * rng.standard_normal(2)
        th2 = th2 + half * g2 + sd * rng.standard_normal(2)
        if t >= burnin:
            total += (th1 + th2) / 2.0
            kept += 1
    return total / kept
