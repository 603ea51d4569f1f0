"""Chain summaries and predictive-accuracy measures.

Log losses are mean negative log predictive probabilities on a held-out test
set, with probabilities clamped to [1e-12, 1 - 1e-12] so the metrics stay
finite at saturated predictions; ``densities.class_indices`` checks their
labels, binary ones as classes 0 and 1.  Chains are summarized by
per-coordinate moment matching to a diagonal Gaussian, compared to reference
posteriors via KL divergence.  Everything here is pure and safe to call from
parallel code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import PROB_CLAMP, class_indices
from .errors import DegenerateChain, DomainError, ShapeError

__all__ = [
    "DiagGaussian",
    "log_loss_binary",
    "log_loss_multiclass",
    "moment_match",
    "kl_diag_gaussian",
    "RunningMean",
]


@dataclass(frozen=True)
class DiagGaussian:
    """Diagonal Gaussian summary: per-coordinate mean and positive variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(self, "variance", np.atleast_1d(np.asarray(self.variance, dtype=np.float64)))
        if self.mean.shape != self.variance.shape:
            raise ShapeError("mean and variance must have matching shapes")
        if not np.all(self.variance > 0.0):
            raise DomainError("variances must be positive")

    @property
    def dim(self) -> int:
        return self.mean.size


def _clamp(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def log_loss_binary(bias, beta, x, y) -> float:
    """Mean negative log likelihood of binary labels under a logistic predictor.

    ``x`` is the (n, d) test matrix, ``y`` the 0/1 labels; ``beta`` may be
    (d,) or (d, 1).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.ravel(np.asarray(y, dtype=np.float64))
    if x.ndim != 2 or y.shape[0] != x.shape[0]:
        raise ShapeError(f"test set shapes {x.shape} and {y.shape} do not align")
    if x.shape[0] == 0:
        raise DomainError("log loss needs a non-empty test set")
    class_indices(y, 2)
    eta = float(np.asarray(bias).reshape(())) + x @ np.ravel(np.asarray(beta, dtype=np.float64))
    with np.errstate(over="ignore"):
        pi = 1.0 / (1.0 + np.exp(-eta))
    return log_loss_multiclass(pi, x, y, lambda p, _: np.column_stack((1.0 - p, p)))


def log_loss_multiclass(params, x, y, forward) -> float:
    """Mean negative log probability of the true class.

    ``forward(params, x)`` must return one probability row per observation;
    ``y`` holds one integer label in [0, k) or one one-hot row per observation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[:1] != x.shape[:1]:
        raise ShapeError(f"test set shape {x.shape} and label shape {y.shape} do not align")
    if x.shape[0] == 0:
        raise DomainError("log loss needs a non-empty test set")
    probs = np.asarray(forward(params, x), dtype=np.float64)
    k = probs.shape[1]
    if y.ndim == 1:
        labels = class_indices(y, k)
    else:
        if y.shape[1] != k:
            raise ShapeError(f"one-hot labels have {y.shape[1]} classes, predictor has {k}")
        labels = np.argmax(y, axis=1)
        bad = (y != np.eye(k)[labels]).any(axis=1)
        if bad.any():
            raise DomainError(f"one-hot label rows must hold one 1 and 0 elsewhere, got {y[bad][0]}")
    picked = _clamp(probs[np.arange(labels.size), labels])
    return float(-np.mean(np.log(picked)))


def moment_match(samples) -> DiagGaussian:
    """Fit a diagonal Gaussian to chain draws by sample mean and unbiased variance.

    ``samples`` is (t, d) or (t,); a constant coordinate makes the fit
    degenerate and raises DegenerateChain.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"samples must be (t, d), got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DomainError("moment matching needs at least 2 samples")
    mean = arr.mean(axis=0)
    variance = arr.var(axis=0, ddof=1)
    if np.any(variance <= 0.0):
        raise DegenerateChain("constant chain coordinate: sample variance is zero")
    return DiagGaussian(mean=mean, variance=variance)


def kl_diag_gaussian(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL divergence KL(q || p) between diagonal Gaussians."""
    if q.dim != p.dim:
        raise ShapeError(f"dimension mismatch: {q.dim} vs {p.dim}")
    ratio = q.variance / p.variance
    delta = p.mean - q.mean
    return float(
        0.5 * np.sum(ratio + delta * delta / p.variance - 1.0 - np.log(ratio))
    )


class RunningMean:
    """Stateful running mean over parameter maps, usable as a chain hook.

    Calling it with a name-to-tensor map folds each tensor into its mean,
    (mean * count + x) / (count + 1), and returns a detached copy of the
    current means; the first call's tensors are the first means.  A tensor
    whose shape differs from its mean's raises ShapeError.
    """

    def __init__(self):
        self.means: dict[str, np.ndarray] | None = None
        self.count = 0

    def __call__(self, params):
        if self.means is None:
            self.means = {name: np.asarray(v, dtype=np.float64).copy() for name, v in params.items()}
        else:
            for name, mean in self.means.items():
                x = np.asarray(params[name], dtype=np.float64)
                if mean.shape != x.shape:
                    raise ShapeError(f"running mean shapes differ: {mean.shape} vs {x.shape}")
                self.means[name] = (mean * self.count + x) / (self.count + 1)
        self.count += 1
        return {name: v.copy() for name, v in self.means.items()}
