"""Independent reference computations the tests check the library against.

Nothing here touches the package's gradient or sampler code paths: gradients
come from central finite differences of forward evaluations, and the mixture
reference chain is a standalone numpy implementation with its own hand-derived
gradient.  ``traced_peak`` measures memory with the standard library's
tracemalloc, for the tests that hold the package to a memory budget.
"""

import tracemalloc

import numpy as np


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
