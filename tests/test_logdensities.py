"""Distribution log-density values, checked against directly evaluated formulas."""

import math
import warnings

import numpy as np
import pytest

from gradmc import DomainError, GraphBuilder
from oracles import log_density_value


def test_standard_normal_at_mean():
    # -0.5 * ln(2*pi)
    got = log_density_value("normal", 0.0, mean=0.0, sd=1.0)
    assert got == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_unit_exponential_via_gamma():
    # Gamma(1, 1) is Exp(1): log density at 1 is -1
    got = log_density_value("gamma", 1.0, shape=1.0, rate=1.0)
    assert got == pytest.approx(-1.0, abs=0)


def test_laplace_value():
    # -|x| - ln 2 at x = 2
    got = log_density_value("laplace", 2.0, loc=0.0, scale=1.0)
    assert got == pytest.approx(-2.0 - math.log(2.0), abs=1e-15)


def test_mvnormal_diag_at_mean():
    # two independent standard normals at their mean: -ln(2*pi)
    got = log_density_value("mvnormal_diag", [0.0, 0.0], loc=[0.0, 0.0], scale=[1.0, 1.0])
    assert got == pytest.approx(-1.8378770664093453, abs=1e-12)


def test_categorical_certain_class():
    got = log_density_value("categorical", [0], probs=[1.0, 0.0, 0.0, 0.0])
    assert got[0] == 0.0


def test_mixture2_matches_direct_formula():
    def phi2(x, mu):
        d = np.asarray(x) - np.asarray(mu)
        return math.exp(-0.5 * float(d @ d)) / (2.0 * math.pi)

    x = np.array([0.0, 0.0])
    expected = math.log(0.5 * phi2(x, [0.0, 0.0]) + 0.5 * phi2(x, [0.1, 0.1]))
    got = log_density_value(
        "mixture2", x, loc1=[0.0, 0.0], loc2=[0.1, 0.1], weights=(0.5, 0.5)
    )
    assert got == pytest.approx(expected, abs=1e-12)


def test_gamma_outside_support():
    assert log_density_value("gamma", -0.5, shape=1.0, rate=1.0) == -np.inf


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("normal", {"mean": 0.0, "sd": -1.0}),
        ("normal", {"mean": 0.0, "sd": 0.0}),
        ("laplace", {"loc": 0.0, "scale": 0.0}),
        ("gamma", {"shape": 0.0, "rate": 1.0}),
        ("gamma", {"shape": 1.0, "rate": -2.0}),
        ("mvnormal_diag", {"loc": [0.0], "scale": [-1.0]}),
        ("mixture2", {"loc1": [0.0], "loc2": [1.0], "weights": (0.7, 0.7)}),
    ],
)
def test_invalid_family_parameters(kind, kwargs):
    with pytest.raises(DomainError):
        log_density_value(kind, [0.5], **kwargs)


def test_categorical_label_out_of_range():
    with pytest.raises(DomainError):
        log_density_value("categorical", [3], probs=[0.5, 0.5])


def _graph_value(kind, x, **kwargs):
    """Evaluate the matching graph node on the same inputs."""
    b = GraphBuilder()
    if kind == "normal":
        node = b.normal_logpdf(b.placeholder("x", (None,)), kwargs["mean"], kwargs["sd"])
    elif kind == "laplace":
        node = b.laplace_logpdf(b.placeholder("x", (None,)), kwargs["loc"], kwargs["scale"])
    elif kind == "gamma":
        node = b.gamma_logpdf(b.placeholder("x", (None,)), kwargs["shape"], kwargs["rate"])
    elif kind == "mvnormal_diag":
        node = b.mvnormal_diag_logpdf(
            b.placeholder("x", (None, len(kwargs["loc"]))), kwargs["loc"], kwargs["scale"]
        )
    elif kind == "mixture2":
        node = b.mixture2_logpdf(
            b.placeholder("x", (None, 2)), kwargs["loc1"], kwargs["loc2"],
            weights=kwargs["weights"],
        )
    graph = b.build({"out": node})
    return graph.eval({"x": x}, ["out"])["out"]


def test_graph_nodes_match_direct_evaluation_bitwise():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(7)
    x2 = rng.standard_normal((7, 2))
    cases = [
        ("normal", x, {"mean": 0.3, "sd": 1.7}),
        ("laplace", x, {"loc": -0.2, "scale": 0.9}),
        ("gamma", np.abs(x) + 0.1, {"shape": 2.0, "rate": 0.5}),
        ("mvnormal_diag", x2, {"loc": [0.1, -0.4], "scale": [1.0, 2.0]}),
        ("mixture2", x2, {"loc1": [0.0, 0.0], "loc2": [0.5, -0.5], "weights": (0.4, 0.6)}),
    ]
    for kind, data, kwargs in cases:
        direct = log_density_value(kind, data, **kwargs)
        via_graph = _graph_value(kind, data, **kwargs)
        assert np.array_equal(direct, via_graph), kind


def test_mixture_lower_bound_and_degenerate_weight():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 2))
    loc1, loc2 = [0.0, 0.0], [0.7, -0.3]
    mix = log_density_value("mixture2", x, loc1=loc1, loc2=loc2, weights=(0.25, 0.75))
    c1 = log_density_value("mvnormal_diag", x, loc=loc1, scale=[1.0, 1.0])
    c2 = log_density_value("mvnormal_diag", x, loc=loc2, scale=[1.0, 1.0])
    assert np.all(mix >= math.log(0.25) + c1 - 1e-12)
    assert np.all(mix >= math.log(0.75) + c2 - 1e-12)
    only1 = log_density_value("mixture2", x, loc1=loc1, loc2=loc2, weights=(1.0, 0.0))
    np.testing.assert_allclose(only1, c1, rtol=0, atol=1e-12)


@pytest.mark.parametrize("live", [0, 1])
def test_mixture_with_a_zero_weight_has_its_live_components_gradient(live):
    rng = np.random.default_rng(14)
    x, locs = rng.standard_normal((9, 2)), [rng.standard_normal(2), rng.standard_normal(2)]
    b = GraphBuilder()
    data, l1, l2 = b.placeholder("x", (None, 2)), b.variable("l1", (2,)), b.variable("l2", (2,))
    weights = (1.0, 0.0) if live == 0 else (0.0, 1.0)
    mix = b.build({"out": b.reduce_sum(b.mixture2_logpdf(data, l1, l2, weights=weights))})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = mix.grad("out", ["l1", "l2"], {"x": x, "l1": locs[0], "l2": locs[1]})
    b = GraphBuilder()
    alone = b.build({"out": b.reduce_sum(
        b.mvnormal_diag_logpdf(b.placeholder("x", (None, 2)), b.variable("loc", (2,)), (1.0, 1.0)))})
    expected = alone.grad("out", ["loc"], {"x": x, "loc": locs[live]})["loc"]
    live_name, dead_name = ("l1", "l2") if live == 0 else ("l2", "l1")
    assert got[live_name].tobytes() == expected.tobytes()
    assert np.all(got[dead_name] == 0.0)


def test_logdensity_nodes_are_per_observation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    vals = log_density_value("normal", x, mean=0.0, sd=1.0)
    assert vals.shape == (5,)
    for i in range(5):
        assert vals[i] == log_density_value("normal", x[i], mean=0.0, sd=1.0)
