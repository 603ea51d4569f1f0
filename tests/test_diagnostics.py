"""Log losses, moment matching, KL divergence, running means."""

import math

import numpy as np
import pytest

from gradmc import (
    DegenerateChain,
    DiagGaussian,
    DomainError,
    Rng,
    RunningMean,
    ShapeError,
    kl_diag_gaussian,
    log_loss_binary,
    log_loss_multiclass,
    moment_match,
)


# -- binary log loss ---------------------------------------------------------------

def test_uninformative_classifier_scores_ln2():
    x = Rng(0).standard_normal((20, 3))
    y = (Rng(1).uniform((20,)) < 0.5).astype(float)
    got = log_loss_binary(0.0, np.zeros(3), x, y)
    assert got == pytest.approx(math.log(2.0), rel=1e-12)


def test_perfect_prediction_hits_clamp_floor():
    # pre-clamp probabilities of exactly 1 for every true label
    x = np.ones((5, 1)) * 100.0
    y = np.ones(5)
    got = log_loss_binary(0.0, np.array([10.0]), x, y)
    assert 0.0 <= got <= 1e-11


def test_binary_log_loss_matches_hand_computation():
    # three rows evaluated longhand from the definition
    bias = 0.25
    beta = np.array([0.5, -1.0])
    x = np.array([[0.2, 0.4], [0.9, 0.1], [0.5, 0.5]])
    y = np.array([1.0, 0.0, 1.0])
    expected = 0.0
    for i in range(3):
        eta = bias + x[i] @ beta
        pi = 1.0 / (1.0 + math.exp(-eta))
        expected -= (y[i] * math.log(pi) + (1.0 - y[i]) * math.log(1.0 - pi)) / 3.0
    got = log_loss_binary(bias, beta.reshape(-1, 1), x, y)
    assert got == pytest.approx(expected, rel=1e-12)


def test_empty_test_set_rejected():
    with pytest.raises(DomainError):
        log_loss_binary(0.0, np.zeros(2), np.zeros((0, 2)), np.zeros(0))


def test_log_loss_bounded_by_clamp():
    # worst case: confidently wrong everywhere; the clamp caps the loss
    x = np.ones((4, 1)) * 100.0
    y = np.zeros(4)
    got = log_loss_binary(0.0, np.array([10.0]), x, y)
    assert got <= -math.log(1e-12) + 1e-9
    assert got >= 0.0


# -- multiclass log loss ------------------------------------------------------------

def uniform_forward(params, x):
    k = 10
    return np.full((x.shape[0], k), 1.0 / k)


def test_uniform_predictor_scores_ln_k():
    x = np.zeros((7, 2))
    y = np.arange(7.0) % 10
    got = log_loss_multiclass({}, x, y, uniform_forward)
    assert got == pytest.approx(math.log(10.0), rel=1e-12)


def test_two_class_collapse_equals_binary():
    rng = Rng(5)
    x = rng.standard_normal((30, 2))
    y = (rng.uniform((30,)) < 0.5).astype(float)
    bias, beta = 0.3, np.array([0.7, -0.4])

    def forward(params, xs):
        pi = 1.0 / (1.0 + np.exp(-(bias + xs @ beta)))
        return np.stack([1.0 - pi, pi], axis=1)

    binary = log_loss_binary(bias, beta, x, y)
    multi = log_loss_multiclass({}, x, y, forward)
    assert abs(multi - binary) <= 1e-12


def test_multiclass_matches_hand_computation():
    probs = np.array([
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.3, 0.3, 0.4],
        [0.25, 0.5, 0.25],
    ])
    y = np.array([0, 1, 2, 0])
    expected = -(math.log(0.7) + math.log(0.8) + math.log(0.4) + math.log(0.25)) / 4.0
    got = log_loss_multiclass({}, np.zeros((4, 1)), y, lambda p, x: probs)
    assert got == pytest.approx(expected, rel=1e-12)


def test_one_hot_labels_accepted():
    probs = np.array([[0.6, 0.4], [0.2, 0.8]])
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = log_loss_multiclass({}, np.zeros((2, 1)), onehot, lambda p, x: probs)
    assert got == pytest.approx(-(math.log(0.6) + math.log(0.8)) / 2.0, rel=1e-12)


def test_label_out_of_range_rejected():
    with pytest.raises(DomainError):
        log_loss_multiclass({}, np.zeros((2, 1)), np.array([0, 5]),
                            lambda p, x: np.full((2, 3), 1 / 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_multiclass_labels_raise_a_domain_error(bad):
    with pytest.raises(DomainError, match="integer-valued"):
        log_loss_multiclass({}, np.zeros((3, 1)), np.array([0.0, bad, 1.0]),
                            lambda p, x: np.full((3, 3), 1 / 3))


@pytest.mark.parametrize("onehot", [
    [[0.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [np.nan, 1.0]],
    [[0.5, 0.5], [0.0, 1.0]],
    [[1.0, 1.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 2.0]],
], ids=["zeros", "nan", "halves", "two_ones", "two"])
def test_one_hot_rows_must_hold_a_single_one(onehot):
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(DomainError, match="one-hot"):
        log_loss_multiclass({}, np.zeros((2, 1)), np.array(onehot), lambda p, x: probs)


@pytest.mark.parametrize("rows, labels", [
    (3, np.array([0, 1])),
    (2, np.array([0, 1, 1])),
    (2, np.zeros((2, 2, 1))),
    (2, np.array(1)),
], ids=["fewer_labels", "more_labels", "rank_3", "rank_0"])
def test_multiclass_labels_must_align_with_the_test_rows(rows, labels):
    with pytest.raises(ShapeError, match="do not align"):
        log_loss_multiclass({}, np.zeros((rows, 1)), labels,
                            lambda p, x: np.full((x.shape[0], 2), 0.5))


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan, np.inf])
def test_binary_labels_must_be_zero_or_one(bad):
    x = np.ones((3, 1))
    assert np.isfinite(log_loss_binary(0.0, np.array([1.0]), x, np.array([0.0, 1.0, 1.0])))
    with pytest.raises(DomainError, match="integer-valued"):
        log_loss_binary(0.0, np.array([1.0]), x, np.array([0.0, bad, 1.0]))


# -- moment matching ------------------------------------------------------------------

def test_constant_chain_is_degenerate():
    with pytest.raises(DegenerateChain):
        moment_match(np.ones((50, 2)))


def test_two_point_moments():
    fit = moment_match(np.array([-1.0, 1.0]))
    assert fit.mean[0] == 0.0
    assert fit.variance[0] == 2.0


def test_moment_match_needs_two_samples():
    with pytest.raises(DomainError):
        moment_match(np.array([1.0]))


def test_moment_match_sampling_check():
    draws = 3.0 + 2.0 * Rng(9).standard_normal((100_000,))
    fit = moment_match(draws)
    assert abs(fit.mean[0] - 3.0) < 0.05
    assert abs(fit.variance[0] - 4.0) < 0.1


# -- KL ---------------------------------------------------------------------------------

def test_kl_zero_iff_equal():
    q = DiagGaussian([0.3, -1.0], [1.0, 2.0])
    assert kl_diag_gaussian(q, q) == 0.0


def test_kl_mean_shift():
    q = DiagGaussian([1.0], [1.0])
    p = DiagGaussian([0.0], [1.0])
    assert kl_diag_gaussian(q, p) == pytest.approx(0.5, rel=1e-14)


def test_kl_variance_mismatch():
    q = DiagGaussian([0.0], [2.0])
    p = DiagGaussian([0.0], [1.0])
    assert kl_diag_gaussian(q, p) == pytest.approx(0.5 * (2.0 - 1.0 - math.log(2.0)), rel=1e-12)


def test_kl_non_negative_random_pairs():
    rng = Rng(10)
    for _ in range(200):
        q = DiagGaussian(rng.standard_normal((3,)), np.exp(rng.standard_normal((3,))))
        p = DiagGaussian(rng.standard_normal((3,)), np.exp(rng.standard_normal((3,))))
        assert kl_diag_gaussian(q, p) >= 0.0


def test_kl_dimension_mismatch():
    with pytest.raises(ShapeError):
        kl_diag_gaussian(DiagGaussian([0.0], [1.0]), DiagGaussian([0.0, 0.0], [1.0, 1.0]))


def test_diag_gaussian_requires_positive_variance():
    with pytest.raises(DomainError):
        DiagGaussian([0.0], [0.0])


# -- running mean -------------------------------------------------------------------------

def test_running_mean_two_values():
    hook = RunningMean()
    hook({"v": np.asarray(3.0)})
    mean = hook({"v": np.asarray(5.0)})["v"]
    assert hook.count == 2
    assert float(mean) == 4.0


def test_running_mean_constant_inputs():
    hook = RunningMean()
    for _ in range(51):
        mean = hook({"v": np.full(3, 7.0)})["v"]
    np.testing.assert_array_equal(mean, np.full(3, 7.0))


def test_running_mean_matches_batch_mean():
    rng = Rng(11)
    values = rng.standard_normal((1000, 4))
    hook = RunningMean()
    for row in values:
        mean = hook({"v": row})["v"]
    batch = values.mean(axis=0)
    assert np.all(np.abs(mean - batch) <= 1e-10 * np.maximum(1.0, np.abs(batch)))


def test_running_mean_shape_mismatch():
    hook = RunningMean()
    hook({"v": np.zeros(2)})
    with pytest.raises(ShapeError):
        hook({"v": np.zeros(3)})


def test_running_mean_hook_over_param_maps():
    hook = RunningMean()
    first = hook({"a": np.array([1.0, 3.0])})
    np.testing.assert_array_equal(first["a"], [1.0, 3.0])
    second = hook({"a": np.array([3.0, 5.0])})
    np.testing.assert_array_equal(second["a"], [2.0, 4.0])
