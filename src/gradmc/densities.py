"""Log-density kernels for the distribution families the built-in models use.

These are plain numpy functions over float64 arrays, and the expression
graph's log-density nodes run them as their forwards.  The two-component
mixture and the Laplace density have no kernel here: the graph composes them
from other nodes.  `class_indices` is the one check of class labels, for the
graph's categorical and the log losses alike.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

LOG_2PI = math.log(2.0 * math.pi)

# Probabilities are clamped away from 0/1 before logs so log-losses and
# categorical densities stay finite at saturated predictions.
PROB_CLAMP = 1e-12


# Row sums over a short last axis, bit for bit numpy's own.  numpy reduces a
# C-contiguous (rows, k) array one row at a time, at about 50 ns a row: on one
# core of an AVX-512 Xeon with numpy 2.4, x.max(axis=-1) on 12000 x 10 takes
# about 700 us and np.exp of the same array about 100 us.  One elementwise op
# over a strided column costs about 1 us plus its pass, so for 2 <= k < 16
# _row_sum runs about k column ops instead, from 100 rows per column (measured).
# Wider rows keep numpy's reduce: each column pass then reads every cache line
# of the array, and measured slower.  So do other layouts, whose order numpy
# picks differently (it sums an F-ordered array's columns sequentially), and
# rank-1 input.  The softmax copies class-major instead (graph._softmax); for
# one sum that copy does not pay (12000 x 10: 77 -> 183 us).
def _columns(x):
    """The columns of x's rows, or None where numpy's own sum is used."""
    k = x.shape[-1] if x.ndim > 1 else 0
    if not 2 <= k < 16 or not x.flags.c_contiguous or x.size < 100 * k * k:
        return None
    return x.reshape(-1, k).T


def _lane_sum(terms):
    """numpy's pairwise sum of 2 to 15 equal-shaped terms, without its +0.0 start.

    Below 8 terms the sum is sequential; from 8 it runs 8 interleaved lanes,
    adds them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then
    the terms past the block.  Returns a new array.
    """
    lanes = 8 if len(terms) >= 8 else 2
    total = terms[:lanes]
    while len(total) > 2:
        total = total[0::2] + total[1::2]
    total = total[0] + total[1]
    for term in terms[lanes:]:
        total += term
    return total


def _row_sum(x):
    """``x.sum(axis=-1, keepdims=True)``, bit for bit.

    numpy adds a row's pairwise sum (``_lane_sum``) to a +0.0 start.  Adding
    0.0 anywhere along the way gives the same bits as adding it first: only
    a zero result's sign depends on it.  Rows that come out NaN take numpy's
    own answer, as the NaN's sign depends on which operand numpy's compiled
    loop puts first.
    """
    cols = _columns(x)
    if cols is None:
        return x.sum(axis=-1, keepdims=True)
    out = _lane_sum(cols)
    out += 0.0
    if (nan := np.isnan(out)).any():
        out[nan] = np.sum(cols.T[nan], axis=-1)
    return out.reshape(x.shape[:-1] + (1,))


def normal_logpdf(x, mean, sd):
    """Elementwise normal log density; mean/sd scalar or same shape as x."""
    z = (x - mean) / sd
    return -0.5 * z * z - np.log(sd) - 0.5 * LOG_2PI


def mvnormal_diag_logpdf(x, loc, scale):
    """Diagonal multivariate normal log density, summed over the last axis.

    x of shape (n, d) gives one value per row; shape (d,) gives a scalar.
    """
    z = (x - loc) / scale
    terms = -0.5 * z * z - np.log(scale) - 0.5 * LOG_2PI
    return _row_sum(terms)[..., 0]


def gamma_logpdf(x, shape, rate):
    """Elementwise Gamma log density; -inf outside the positive support."""
    x = np.asarray(x, dtype=np.float64)
    safe = np.where(x > 0.0, x, 1.0)
    value = (
        shape * math.log(rate)
        - math.lgamma(shape)
        + (shape - 1.0) * np.log(safe)
        - rate * safe
    )
    return np.where(x > 0.0, value, -np.inf)


def class_indices(labels, k):
    """Labels as int64 indices, or DomainError unless each is a whole number in
    [0, k): NaN and +-inf fail like any other bad label, before the cast."""
    values = np.asarray(labels, dtype=np.float64)
    whole = (values >= 0.0) & (values < k) & (values == np.trunc(values))
    if not whole.all():
        raise DomainError(f"class labels must be integer-valued in [0, {k}), got {values[~whole].flat[0]}")
    return values.astype(np.int64)


def categorical_logpdf(probs, labels):
    """Per-row log probability of integer class labels under row-simplex probs.

    probs has shape (n, k); labels holds integers in [0, k).  Probabilities are
    clamped at PROB_CLAMP before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.ndim != 1 or probs.ndim != 2:
        raise DomainError(
            f"categorical expects probs (n, k) and labels (n,), got {probs.shape} and {labels.shape}"
        )
    idx = class_indices(labels, probs.shape[1])
    picked = probs[np.arange(idx.size), idx]
    return np.log(np.maximum(picked, PROB_CLAMP))
