"""Core graph behaviour: shape checking, forward values, reverse-mode gradients."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gradmc import DomainError, GraphBuilder, MissingFeed, Rng, ShapeError, UnknownVariable, gen_synth
from gradmc.models import FAMILIES
from oracles import assert_grad_close, estimate_gradient, finite_diff_grad


def scalar_graph(build):
    """Build a single-output graph: build(b) -> (objective ref, leaf names)."""
    b = GraphBuilder()
    obj = build(b)
    return b.build({"out": obj})


def test_sigmoid_at_zero_is_half():
    g = scalar_graph(lambda b: b.sigmoid(b.variable("x", ())))
    assert g.eval({"x": 0.0}, ["out"])["out"] == 0.5


def test_softmax_equal_logits():
    b = GraphBuilder()
    x = b.placeholder("x", (2,))
    g = b.build({"out": b.softmax(x)})
    np.testing.assert_allclose(g.eval({"x": [0.0, 0.0]})["out"], [0.5, 0.5], rtol=0, atol=0)


def test_eval_missing_feed():
    b = GraphBuilder()
    x = b.variable("x", ())
    y = b.placeholder("y", (None,))
    g = b.build({"out": b.reduce_sum(x * y)})
    with pytest.raises(MissingFeed):
        g.eval({"x": 1.0}, ["out"])


def test_eval_shape_mismatch():
    b = GraphBuilder()
    x = b.variable("x", (3,))
    g = b.build({"out": b.reduce_sum(x)})
    with pytest.raises(ShapeError):
        g.eval({"x": np.zeros((4,))}, ["out"])


def test_construction_shape_errors_are_immediate():
    b = GraphBuilder()
    v = b.variable("v", (3,))
    w = b.variable("w", (4,))
    with pytest.raises(ShapeError):
        b.add(v, w)
    with pytest.raises(ShapeError):
        b.matmul(v, w)
    b2 = GraphBuilder()
    m = b2.variable("m", (2, 3))
    q = b2.variable("q", (4, 5))
    with pytest.raises(ShapeError):
        b2.matmul(m, q)
    with pytest.raises(ShapeError):
        b2.broadcast_add(m, b2.variable("r", (4,)))


def test_duplicate_leaf_name_rejected():
    b = GraphBuilder()
    b.variable("x", ())
    with pytest.raises(ShapeError):
        b.placeholder("x", (None,))


@pytest.mark.parametrize("extent", [2.7, 1.5, float("nan"), float("inf"), "3"])
def test_extents_that_are_not_whole_numbers_rejected(extent):
    with pytest.raises(ShapeError, match="not a whole number"):
        GraphBuilder().variable("w", (extent,))
    with pytest.raises(ShapeError, match="not a whole number"):
        GraphBuilder().placeholder("x", (None, extent))
    # A variable has no open axis.
    with pytest.raises(ShapeError, match="not a whole number"):
        GraphBuilder().variable("w", (None,))
    # A whole number of any numeric type is an extent.
    assert GraphBuilder().variable("w", (np.int64(3), 2.0)).shape == (3, 2)
    assert GraphBuilder().placeholder("x", (None, np.int32(4))).shape == (None, 4)


def test_graph_frozen_after_build():
    b = GraphBuilder()
    x = b.variable("x", ())
    b.build({"out": x})
    with pytest.raises(ShapeError):
        b.variable("y", ())


def test_grad_sum_of_squares():
    b = GraphBuilder()
    theta = b.variable("theta", (3,))
    g = b.build({"out": b.reduce_sum(b.square(theta))})
    grads = g.grad("out", ["theta"], {"theta": [1.0, 2.0, 3.0]})
    np.testing.assert_array_equal(grads["theta"], [2.0, 4.0, 6.0])


def test_grad_normal_mean():
    # d/dmu of sum_i log N(x_i | mu, 1) is sum_i (x_i - mu)
    b = GraphBuilder()
    mu = b.variable("mu", ())
    x = b.placeholder("x", (None,))
    g = b.build({"out": b.reduce_sum(b.normal_logpdf(x, mu, 1.0))})
    grads = g.grad("out", ["mu"], {"mu": 0.0, "x": [1.0, 1.0]})
    assert grads["mu"] == pytest.approx(2.0, abs=1e-14)


def test_grad_non_scalar_objective_rejected():
    b = GraphBuilder()
    x = b.variable("x", (2,))
    g = b.build({"out": b.square(x)})
    with pytest.raises(ShapeError):
        g.grad("out", ["x"], {"x": [1.0, 2.0]})


def test_grad_unknown_variable():
    b = GraphBuilder()
    x = b.variable("x", ())
    g = b.build({"out": b.square(x)})
    with pytest.raises(UnknownVariable):
        g.grad("out", ["nope"], {"x": 1.0})


def test_grad_of_unused_variable_is_zero():
    b = GraphBuilder()
    x = b.variable("x", ())
    y = b.variable("y", (2,))
    g = b.build({"out": b.square(x)})
    grads = g.grad("out", ["x", "y"], {"x": 3.0, "y": [1.0, 1.0]})
    np.testing.assert_array_equal(grads["y"], np.zeros(2))


def _random_primitive_graphs():
    """One scalar graph per primitive, with generic inputs.

    Each case is (build, variable values) or (build, variable values, data
    feeds); the gradient is taken with respect to every variable.
    """
    rng = np.random.default_rng(42)

    def unary(op, transform=lambda a: a):
        def build(b):
            v = b.variable("v", (4,))
            return b.reduce_sum(getattr(b, op)(v))
        return build, {"v": transform(rng.standard_normal(4))}

    cases = {
        "add": (lambda b: b.reduce_sum(b.variable("v", (4,)) + b.variable("w", (4,))),
                {"v": rng.standard_normal(4), "w": rng.standard_normal(4)}),
        "add_scalar": (lambda b: b.reduce_sum(b.variable("s", ()) + b.variable("w", (4,))),
                       {"s": rng.standard_normal(()), "w": rng.standard_normal(4)}),
        "subtract": (lambda b: b.reduce_sum(b.variable("v", (4,)) - b.variable("w", (4,))),
                     {"v": rng.standard_normal(4), "w": rng.standard_normal(4)}),
        "multiply": (lambda b: b.reduce_sum(b.variable("v", (4,)) * b.variable("w", (4,))),
                     {"v": rng.standard_normal(4), "w": rng.standard_normal(4)}),
        "divide": (lambda b: b.reduce_sum(b.variable("v", (4,)) / b.variable("w", (4,))),
                   {"v": rng.standard_normal(4), "w": rng.standard_normal(4) + 3.0}),
        "negate": (lambda b: b.reduce_sum(-b.variable("v", (4,))),
                   {"v": rng.standard_normal(4)}),
        "matmul": (lambda b: b.reduce_sum(b.matmul(b.variable("m", (3, 2)), b.variable("q", (2, 4)))),
                   {"m": rng.standard_normal((3, 2)), "q": rng.standard_normal((2, 4))}),
        "broadcast_add": (
            lambda b: b.reduce_sum(b.square(b.broadcast_add(b.variable("m", (3, 2)), b.variable("r", (2,))))),
            {"m": rng.standard_normal((3, 2)), "r": rng.standard_normal(2)},
        ),
        "exp": unary("exp"),
        "log": unary("log", lambda a: np.abs(a) + 0.5),
        "abs": unary("abs", lambda a: a + np.sign(a) * 0.1),
        "square": unary("square"),
        "sqrt": unary("sqrt", lambda a: np.abs(a) + 0.5),
        "rsqrt": unary("rsqrt", lambda a: np.abs(a) + 0.5),
        "sigmoid": unary("sigmoid"),
        "softmax": (
            lambda b: b.reduce_sum(b.square(b.softmax(b.variable("m", (3, 4))))),
            {"m": rng.standard_normal((3, 4))},
        ),
        "normal": (
            lambda b: b.reduce_sum(
                b.normal_logpdf(b.variable("x", (5,)), b.variable("mu", ()), b.exp(b.variable("logsd", ())))
            ),
            {"x": rng.standard_normal(5), "mu": rng.standard_normal(()), "logsd": rng.standard_normal(()) * 0.3},
        ),
        "mvnormal_diag": (
            lambda b: b.reduce_sum(
                b.mvnormal_diag_logpdf(b.variable("x", (5, 3)), b.variable("loc", (3,)), (1.0, 2.0, 0.5))
            ),
            {"x": rng.standard_normal((5, 3)), "loc": rng.standard_normal(3)},
        ),
        "laplace": (
            lambda b: b.reduce_sum(b.laplace_logpdf(b.variable("x", (5,)), b.variable("loc", ()), 1.3)),
            {"x": rng.standard_normal(5) + 4.0, "loc": rng.standard_normal(())},
        ),
        "gamma": (
            lambda b: b.reduce_sum(b.gamma_logpdf(b.variable("lam", ()), shape_param=2.0, rate=1.5)),
            {"lam": np.asarray(1.7)},
        ),
        # reduce_sum adjoints: broadcast where a term needs them at full shape,
        # left rank-0 where every term has that shape anyway.
        "sum_of_shift": (lambda b: b.reduce_sum(b.constant(rng.standard_normal(5)) + b.variable("theta", ())),
                         {"theta": rng.standard_normal(())}),
        "sum_of_matmul": (lambda b: b.reduce_sum(b.matmul(b.constant(rng.standard_normal((4, 3))),
                                                          b.variable("beta", (3, 1)))),
                          {"beta": rng.standard_normal((3, 1))}),
        "sum_of_broadcast_add": (
            lambda b: b.reduce_sum(b.broadcast_add(b.constant(rng.standard_normal((4, 3))), b.variable("v", (3,)))),
            {"v": rng.standard_normal(3)},
        ),
        "sum_of_normal_vector": (
            lambda b: b.reduce_sum(b.normal_logpdf(b.variable("theta", (5,)), 0.0, b.constant(1.5))),
            {"theta": rng.standard_normal(5)},
        ),
        "mixture2": (
            lambda b: b.reduce_sum(
                b.mixture2_logpdf(
                    b.variable("x", (6, 2)), b.variable("l1", (2,)), b.variable("l2", (2,)),
                    scale1=(1.0, 1.5), scale2=(0.8, 1.0), weights=(0.3, 0.7),
                )
            ),
            {"x": rng.standard_normal((6, 2)), "l1": rng.standard_normal(2), "l2": rng.standard_normal(2)},
        ),
        "logaddexp": (lambda b: b.reduce_sum(b.logaddexp(b.variable("v", (4,)), b.variable("w", (4,)))),
                      {"v": rng.standard_normal(4), "w": rng.standard_normal(4)}),
        "categorical": (
            lambda b: b.reduce_sum(
                b.categorical_logpdf(b.softmax(b.variable("m", (4, 3))), b.placeholder("y", (None,)))
            ),
            {"m": rng.standard_normal((4, 3))},
            {"y": np.array([0.0, 2.0, 1.0, 2.0])},
        ),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_random_primitive_graphs()))
def test_primitive_gradients_match_finite_differences(name):
    build, params, data = (*_random_primitive_graphs()[name], {})[:3]
    graph = scalar_graph(build)

    def f(p):
        return float(graph.eval({**data, **p}, ["out"])["out"])

    got = graph.grad("out", sorted(params), {**data, **params})
    assert_grad_close(got, finite_diff_grad(f, params), rel=1e-5, floor=1e-8)


def test_primitive_cases_cover_every_op():
    from gradmc.graph import _OPS

    ops = {node.op for case in _random_primitive_graphs().values() for node in scalar_graph(case[0])._nodes}
    assert not set(_OPS) - ops, sorted(set(_OPS) - ops)


def test_grad_is_linear():
    # grad(a*f + b*g) == a*grad(f) + b*grad(g) to 1e-12
    rng = np.random.default_rng(7)
    theta_val = rng.standard_normal(3)
    a, bb = 2.5, -1.75

    def build(with_combo):
        b = GraphBuilder()
        theta = b.variable("theta", (3,))
        f = b.reduce_sum(b.square(theta))
        g = b.reduce_sum(b.exp(theta))
        if with_combo:
            return b.build({"f": f, "g": g, "combo": a * f + bb * g})
        return b.build({"f": f, "g": g})

    graph = build(True)
    bindings = {"theta": theta_val}
    gf = graph.grad("f", ["theta"], bindings)["theta"]
    gg = graph.grad("g", ["theta"], bindings)["theta"]
    gc = graph.grad("combo", ["theta"], bindings)["theta"]
    np.testing.assert_allclose(gc, a * gf + bb * gg, rtol=0, atol=1e-12)


def test_softmax_rows_sum_to_one_and_sigmoid_open_interval():
    rng = np.random.default_rng(11)
    b = GraphBuilder()
    m = b.placeholder("m", (None, 5))
    g = b.build({"soft": b.softmax(m), "sig": b.sigmoid(m)})
    for _ in range(20):
        x = rng.standard_normal((8, 5)) * rng.uniform(0.1, 50.0)
        out = g.eval({"m": x})
        np.testing.assert_allclose(out["soft"].sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(out["sig"] > 0.0) and np.all(out["sig"] < 1.0)


def test_eval_is_pure_and_bit_identical():
    rng = np.random.default_rng(3)
    b = GraphBuilder()
    theta = b.variable("theta", (4,))
    x = b.placeholder("x", (None, 4))
    g = b.build({"out": b.reduce_sum(b.mvnormal_diag_logpdf(x, theta, (1.0,) * 4))})
    bindings = {"theta": rng.standard_normal(4), "x": rng.standard_normal((10, 4))}
    first = g.eval(bindings, ["out"])["out"]
    for _ in range(3):
        again = g.eval(bindings, ["out"])["out"]
        assert np.array_equal(first, again)
    grads1 = g.grad("out", ["theta"], bindings)["theta"]
    grads2 = g.grad("out", ["theta"], bindings)["theta"]
    assert np.array_equal(grads1, grads2)


def test_concurrent_eval_on_shared_graph_is_deterministic():
    # one immutable graph, many threads, distinct bindings
    def build():
        b = GraphBuilder()
        theta = b.variable("theta", (6,))
        x = b.placeholder("x", (None, 6))
        return b.build({"out": b.reduce_sum(b.mvnormal_diag_logpdf(x, theta, (1.0,) * 6))})

    rng = np.random.default_rng(19)
    g = build()
    bindings = [
        {"theta": rng.standard_normal(6), "x": rng.standard_normal((20, 6))}
        for _ in range(32)
    ]
    sequential = [g.grad("out", ["theta"], bind)["theta"] for bind in bindings]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda bind: g.grad("out", ["theta"], bind)["theta"], bindings))
    for a, b_ in zip(sequential, threaded):
        assert np.array_equal(a, b_)

    # cold cache: eight threads make the first call on a fresh graph at once,
    # with thread switches forced often so that plan builds interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cold = build()
            start = threading.Barrier(8, timeout=60)

            def first_call(bind):
                start.wait()
                return cold.grad("out", ["theta"], bind)["theta"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                raced = list(pool.map(first_call, bindings[:8], timeout=60))
            for a, b_ in zip(sequential, raced):
                assert np.array_equal(a, b_)
            for bind, a in zip(bindings, sequential):
                assert np.array_equal(cold.grad("out", ["theta"], bind)["theta"], a)
    finally:
        sys.setswitchinterval(interval)


def test_column_placeholder_accepts_vector_feed():
    b = GraphBuilder()
    y = b.placeholder("y", (None, 1))
    g = b.build({"out": b.reduce_sum(y)})
    assert g.eval({"y": [1.0, 2.0, 3.0]}, ["out"])["out"] == 6.0


def test_abs_subgradient_zero_at_kink():
    b = GraphBuilder()
    x = b.variable("x", ())
    g = b.build({"out": b.abs(x)})
    assert g.grad("out", ["x"], {"x": 0.0})["x"] == 0.0


# -- randomized DAGs -------------------------------------------------------------------

_SHAPES = {"s": (), "v": (4,), "m": (4, 4)}


def _random_dag(rng):
    """A random scalar-objective graph over the primitive set.

    Each leaf is randomly a variable, a placeholder or a constant; the
    objective sums every node that nothing else consumes, so every node feeds
    it.  Inputs that must be positive (log, sqrt, rsqrt, gamma, sds and
    scales, divisors) pass through sigmoid(.) + 0.5 first.  Returns the
    builder, the objective, every node by name, the leaf bindings and the
    variable names.
    """
    b = GraphBuilder()
    pool = {key: [] for key in _SHAPES}
    consumed = set()
    bindings, variables, named = {}, [], {}
    kinds = ["variable", "placeholder", "constant"]

    def leaf(shape_key, value, kind):
        name = f"leaf{len(named)}"
        if kind == "constant":
            ref = b.constant(value)
        else:
            ref = getattr(b, kind)(name, _SHAPES[shape_key])
            bindings[name] = value
            if kind == "variable":
                variables.append(name)
        named[name] = ref
        return ref

    shape_keys = ["s", "v", "m"] + list(rng.choice(["s", "v", "m"], size=rng.integers(1, 4)))
    for key in shape_keys:
        kind = kinds[rng.integers(3)] if variables else "variable"
        pool[key].append(leaf(key, rng.standard_normal(_SHAPES[key]) * 0.7, kind))

    def pick(key):
        ref = pool[key][rng.integers(len(pool[key]))]
        consumed.add(ref.index)
        return ref

    def pick_like(key):
        # same shape, or a scalar a third of the time
        return pick("s" if rng.random() < 1 / 3 else key)

    def pos(ref):
        return b.sigmoid(ref) + 0.5

    def unary(op):
        def make():
            key = rng.choice(["s", "v", "m"])
            x = pick(key)
            return key, getattr(b, op)(pos(x) if op in ("log", "sqrt", "rsqrt") else x)
        return make

    def binary(op):
        def make():
            key = rng.choice(["s", "v", "m"])
            x, y = pick(key), pick_like(key)
            if rng.random() < 0.5:
                x, y = y, x
            return key, getattr(b, op)(x, pos(y) if op == "divide" else y)
        return make

    def location(op):
        def make():
            key = rng.choice(["s", "v", "m"])
            return key, getattr(b, op)(pick(key), pick_like(key), pos(pick_like(key)))
        return make

    def mvnormal():
        key = rng.choice(["v", "m"])
        return ("s" if key == "v" else "v"), b.mvnormal_diag_logpdf(pick(key), pick("v"), pos(pick("v")))

    def gamma():
        key = rng.choice(["s", "v", "m"])
        return key, b.gamma_logpdf(pos(pick(key)), rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))

    def categorical():
        labels = leaf("v", rng.integers(0, 4, size=4).astype(float), kinds[1 + rng.integers(2)])
        return "v", b.categorical_logpdf(b.softmax(pick("m")), labels)

    def mixture():
        w = rng.uniform(0.2, 0.8)
        return "v", b.mixture2_logpdf(
            pick("m"), pick("v"), pick("v"), scale1=rng.uniform(0.5, 2.0, 4),
            scale2=rng.uniform(0.5, 2.0, 4), weights=(w, 1.0 - w),
        )

    makers = [unary(op) for op in ("negate", "exp", "log", "abs", "square", "sqrt", "rsqrt", "sigmoid")]
    makers += [binary(op) for op in ("add", "subtract", "multiply", "divide", "logaddexp")]
    makers += [location("normal_logpdf"), location("laplace_logpdf"), mvnormal, gamma, categorical, mixture]
    makers += [
        lambda: ("m", b.matmul(pick("m"), pick("m"))),
        lambda: ("m", b.broadcast_add(pick("m"), pick("v"))),
        lambda: (lambda key: (key, b.softmax(pick(key))))(rng.choice(["v", "m"])),
        lambda: ("s", b.reduce_sum(pick(rng.choice(["v", "m"])))),
    ]
    for _ in range(rng.integers(5, 11)):
        key, ref = makers[rng.integers(len(makers))]()
        pool[key].append(ref)
        named[f"n{ref.index}"] = ref
    sinks = [ref for refs in pool.values() for ref in refs if ref.index not in consumed]
    objective = b.reduce_sum(sinks[0])
    for ref in sinks[1:]:
        objective = objective + b.reduce_sum(ref)
    return b, objective, named, bindings, variables


def _conditioned_random_dag(seed):
    """Draw random DAGs from ``seed`` until one has every value finite and
    below 1e3 in magnitude, where central differences are accurate."""
    rng = np.random.default_rng(seed)
    while True:
        b, objective, named, bindings, variables = _random_dag(rng)
        nodes = {name: ref for name, ref in named.items() if name not in bindings}
        graph = b.build({"out": objective, **nodes})
        with np.errstate(all="ignore"):
            values = graph.eval(bindings)
        if all(np.all(np.isfinite(v)) and np.all(np.abs(v) < 1e3) for v in values.values()):
            return graph, bindings, variables, rng


@pytest.mark.parametrize("seed", range(60))
def test_random_dag_gradients_match_finite_differences(seed):
    graph, bindings, variables, rng = _conditioned_random_dag(seed)
    wrt = sorted(rng.choice(variables, size=rng.integers(1, len(variables) + 1), replace=False))
    fixed = {name: value for name, value in bindings.items() if name not in wrt}

    def f(p):
        return float(graph.eval({**fixed, **p}, ["out"])["out"])

    got = graph.grad("out", wrt, bindings)
    assert sorted(got) == wrt
    for name in wrt:
        assert got[name].shape == np.shape(bindings[name])
    expected = finite_diff_grad(f, {name: bindings[name] for name in wrt})
    assert_grad_close(got, expected, rel=1e-5, floor=1e-6)


# -- masked gradients are bit-identical ------------------------------------------------

def _multi_input_primitives():
    """Every primitive with more than one input: (method, input values, kwargs)."""
    rng = np.random.default_rng(23)
    vec, mat = rng.standard_normal(4), rng.standard_normal((4, 4))
    positive = np.abs(rng.standard_normal(4)) + 0.5
    return {
        "add": ("add", [vec, rng.standard_normal(())], {}),
        "subtract": ("subtract", [vec, rng.standard_normal(4)], {}),
        "multiply": ("multiply", [rng.standard_normal(()), vec], {}),
        "divide": ("divide", [vec, positive], {}),
        "matmul": ("matmul", [mat, rng.standard_normal((4, 2))], {}),
        "broadcast_add": ("broadcast_add", [mat, vec], {}),
        "normal_logpdf": ("normal_logpdf", [vec, rng.standard_normal(()), positive], {}),
        "mvnormal_diag_logpdf": ("mvnormal_diag_logpdf", [mat, vec, positive], {}),
        "laplace_logpdf": ("laplace_logpdf", [vec, rng.standard_normal(4), np.asarray(1.3)], {}),
        "categorical_logpdf": (
            "categorical_logpdf", [np.full((4, 3), 1.0 / 3.0) + 0.1 * rng.standard_normal((4, 3)),
                                   np.asarray([0.0, 2.0, 1.0, 2.0])], {},
        ),
        "mixture2_logpdf": (
            "mixture2_logpdf", [rng.standard_normal((5, 2)), rng.standard_normal(2), rng.standard_normal(2)],
            {"scale1": (1.0, 1.5), "weights": (0.4, 0.6)},
        ),
        "logaddexp": ("logaddexp", [vec, rng.standard_normal(4)], {}),
    }


def _primitive_graph(method, values, kwargs, kinds):
    b = GraphBuilder()
    inputs, bindings = [], {}
    for k, (value, kind) in enumerate(zip(values, kinds)):
        if kind == "constant":
            inputs.append(b.constant(value))
        else:
            inputs.append(getattr(b, kind)(f"in{k}", np.shape(value)))
            bindings[f"in{k}"] = value
    # squaring makes the upstream gradient differ from element to element
    out = b.reduce_sum(b.square(getattr(b, method)(*inputs, **kwargs)))
    return b.build({"out": out}), bindings


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_multi_input_primitives()))
def test_masked_inputs_leave_other_gradients_bit_identical(name):
    method, values, kwargs = _multi_input_primitives()[name]
    graph, bindings = _primitive_graph(method, values, kwargs, ["variable"] * len(values))
    full = graph.grad("out", sorted(bindings), bindings)
    for k in range(len(values)):
        for kind in ("placeholder", "constant"):
            kinds = ["variable"] * len(values)
            kinds[k] = kind
            masked, masked_bindings = _primitive_graph(method, values, kwargs, kinds)
            wrt = sorted(n for n in masked_bindings if n != f"in{k}")
            got = masked.grad("out", wrt, masked_bindings)
            for n in wrt:
                assert _same_bits(got[n], full[n]), (name, k, kind, n)


@pytest.mark.parametrize("family", ["gaussian", "gaussian_mixture", "logistic_regression", "bayes_nn"])
def test_single_parameter_gradient_is_bit_identical_to_its_entry(family):
    spec = FAMILIES[family]
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else spec.hyper_defaults
    model = spec.build(**hyper)
    data = gen_synth(family, 40, Rng(8), n_test=2, **hyper).train
    bindings = {name: data[name] for name in model.data_names}
    bindings.update(spec.init_params(model, Rng(9)))
    bindings["__grad_scale__"] = 40 / 7
    for objective in ("objective", "log_lik", "log_prior"):
        full = model.graph.grad(objective, model.param_names, bindings)
        for name in model.param_names:
            single = model.graph.grad(objective, [name], bindings)
            assert list(single) == [name]
            assert _same_bits(single[name], full[name]), (objective, name)


# -- checks and pruning in compiled plans ----------------------------------------------

@pytest.mark.parametrize("bad", [-1.0, 3.0, 1.5])
def test_grad_rejects_bad_categorical_labels(bad):
    b = GraphBuilder()
    logits = b.variable("logits", (4, 3))
    labels = b.placeholder("y", (None,))
    g = b.build({"out": b.reduce_sum(b.categorical_logpdf(b.softmax(logits), labels))})
    bindings = {"logits": np.zeros((4, 3)), "y": np.array([0.0, 2.0, 1.0, 0.0])}
    assert g.grad("out", ["logits"], bindings)["logits"].shape == (4, 3)
    bindings["y"] = np.array([0.0, 2.0, bad, 0.0])
    with pytest.raises(DomainError):
        g.grad("out", ["logits"], bindings)


def _categorical_graph():
    b = GraphBuilder()
    logits = b.variable("logits", (4, 3))
    labels = b.placeholder("y", (None,))
    return b.build({"out": b.reduce_sum(b.categorical_logpdf(b.softmax(logits), labels))})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_categorical_labels_raise_a_domain_error(bad):
    import gradmc.densities

    labels = np.array([0.0, 2.0, bad, 0.0])
    with pytest.raises(DomainError, match="integer-valued"):
        gradmc.densities.categorical_logpdf(np.full((4, 3), 1.0 / 3.0), labels)
    g = _categorical_graph()
    bindings = {"logits": np.zeros((4, 3)), "y": labels}
    with pytest.raises(DomainError, match="integer-valued"):
        g.eval(bindings, ["out"])
    with pytest.raises(DomainError, match="integer-valued"):
        g.grad("out", ["logits"], bindings)


def test_bayes_nn_grad_checks_labels_only_through_the_categorical_backward(monkeypatch):
    # The objective's gradient never runs the categorical forward; its
    # backward checks the labels, and a gradient that never reaches the
    # categorical (a prior precision alone) neither reads nor checks them.
    import gradmc.densities
    from gradmc.models import build_bayes_nn

    calls = []
    original = gradmc.densities.categorical_logpdf
    monkeypatch.setattr(gradmc.densities, "categorical_logpdf", lambda *a: calls.append(1) or original(*a))
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3}
    model = build_bayes_nn(**hyper)
    data = gen_synth("bayes_nn", 40, Rng(8), n_test=2, **hyper).train
    bindings = {name: data[name] for name in model.data_names}
    bindings.update(FAMILIES["bayes_nn"].init_params(model, Rng(9)))
    bindings["__grad_scale__"] = 40 / 7
    model.graph.grad("objective", model.param_names, bindings)
    assert len(calls) == 0
    model.graph.eval(bindings, ["log_lik"])
    assert len(calls) == 1
    bindings["y"] = np.where(np.arange(40) == 3, np.nan, bindings["y"])
    with pytest.raises(DomainError, match="integer-valued"):
        model.graph.grad("objective", model.param_names, bindings)
    assert np.isfinite(model.graph.grad("objective", ["lambda_A"], bindings)["lambda_A"])


def test_grad_skips_forward_values_no_gradient_reads(monkeypatch):
    import gradmc.densities
    from gradmc.models import build_gaussian

    calls, broadcasts = [], []
    original = gradmc.densities.normal_logpdf
    original_broadcast = np.broadcast_to

    def counted(*args):
        calls.append(1)
        return original(*args)

    def counted_broadcast(*args, **kwargs):
        broadcasts.append(1)
        return original_broadcast(*args, **kwargs)

    monkeypatch.setattr(gradmc.densities, "normal_logpdf", counted)
    monkeypatch.setattr(np, "broadcast_to", counted_broadcast)
    model = build_gaussian()
    bindings = {"theta": 0.3, "x": np.linspace(-1.0, 1.0, 7), "__grad_scale__": 2.0}
    grads = model.graph.grad("objective", ("theta",), bindings)
    assert len(calls) == 0
    assert len(broadcasts) == 0  # the sums' adjoints stay rank-0
    assert grads["theta"] == pytest.approx(2.0 * np.sum(bindings["x"] - 0.3) - 0.3 / 10.0, rel=1e-12)
    model.graph.eval(bindings, ["objective"])
    assert len(calls) == 2


def test_mixture_gradient_computes_each_component_density_once(monkeypatch):
    # The mixture's backward reads the component densities its forward
    # computed; the priors' densities are never computed under grad.
    import gradmc.densities
    from gradmc import sample_minibatch
    from gradmc.models import build_gaussian_mixture

    calls = []
    original = gradmc.densities.mvnormal_diag_logpdf
    monkeypatch.setattr(gradmc.densities, "mvnormal_diag_logpdf", lambda *a: calls.append(1) or original(*a))
    model = build_gaussian_mixture()
    data = gen_synth("gaussian_mixture", 600, Rng(4)).train
    params = FAMILIES["gaussian_mixture"].init_params(model, Rng(5))
    estimate_gradient(model, params, sample_minibatch(data, 600, Rng(6)), data.n)
    assert len(calls) == 2


def test_sum_adjoint_passes_through_add_to_full_shaped_terms(monkeypatch):
    # Logistic regression sums y * log(pi) + (1 - y) * log(1 - pi).  Both
    # terms of the add read its adjoint at full shape anyway, so the sum's
    # adjoint passes through the add rank-0: no broadcast, and no logs, which
    # only the add's shape would read.
    from gradmc.models import build_logistic_regression

    logs, broadcasts = [], []
    original_log, original_broadcast = np.log, np.broadcast_to
    monkeypatch.setattr(np, "log", lambda *a, **k: logs.append(1) or original_log(*a, **k))
    monkeypatch.setattr(np, "broadcast_to", lambda *a, **k: broadcasts.append(1) or original_broadcast(*a, **k))
    model = build_logistic_regression(d=3)
    rng = np.random.default_rng(2)
    bindings = {"X": rng.uniform(size=(9, 3)), "y": (rng.uniform(size=9) < 0.5) * 1.0,
                "beta": rng.standard_normal((3, 1)), "bias": 0.2, "__grad_scale__": 1.0}
    model.graph.grad("objective", model.param_names, bindings)
    assert logs == [] and broadcasts == []


@pytest.mark.parametrize("head, rows", [pytest.param(head, rows, id=head if rows is None else f"{head}-{rows}")
                                        for rows in (None, 6) for head in ("matmul", "negate", "exp")])
def test_sum_adjoint_broadcasts_to_a_runtime_shape(head, rows):
    # The summed node's first axis is open or closed.  Summing the matmul
    # broadcasts the adjoint to the shape of the matmul's value, which the
    # plan computes for it; summing its negation broadcasts to the negation's
    # value; the exp's own backward term is full-shaped, so nothing is
    # broadcast.
    b = GraphBuilder()
    z = b.matmul(b.placeholder("x", (rows, 3)), b.variable("w", (3, 1)))
    graph = b.build({"out": b.reduce_sum({"matmul": z, "negate": -z, "exp": b.exp(z)}[head])})
    data = np.random.default_rng(4).standard_normal((6, 3))
    params = {"w": np.array([[0.3], [-0.2], [0.5]])}
    got = graph.grad("out", ["w"], {"x": data, **params})
    adjoint = {"matmul": np.ones((6, 1)), "negate": -np.ones((6, 1)),
               "exp": np.exp(data @ params["w"])}[head]
    np.testing.assert_allclose(got["w"], data.T @ adjoint, rtol=1e-12)

    def f(p):
        return float(graph.eval({"x": data, **p}, ["out"])["out"])

    assert_grad_close(got, finite_diff_grad(f, params), rel=1e-5, floor=1e-8)


def _returned_gradient_graphs():
    def sum_of_vector(b):
        return b.reduce_sum(b.variable("t", (3,)))

    def sum_of_scalar(b):
        return b.reduce_sum(b.variable("t", ()))

    def sum_of_two_scalars(b):
        return b.variable("t", ()) + b.variable("u", ())

    def sum_through_add(b):
        return b.reduce_sum(b.variable("t", (3,)) + b.variable("u", (3,)))

    return {f.__name__: f for f in (sum_of_vector, sum_of_scalar, sum_of_two_scalars, sum_through_add)}


@pytest.mark.parametrize("name", sorted(_returned_gradient_graphs()))
def test_returned_gradients_are_owned_writeable_arrays(name):
    graph = scalar_graph(_returned_gradient_graphs()[name])
    shapes = graph.variables
    bindings = {n: np.full(shape, 0.5) for n, shape in shapes.items()}
    grads = graph.grad("out", sorted(shapes), bindings)
    for n, value in grads.items():
        assert isinstance(value, np.ndarray) and value.dtype == np.float64
        assert value.shape == shapes[n] and value.flags.writeable and value.base is None
        np.testing.assert_array_equal(value, np.ones(shapes[n]))
        value += 1.0  # a caller's in-place update touches nothing else
    again = graph.grad("out", sorted(shapes), bindings)
    for n in grads:
        np.testing.assert_array_equal(grads[n], np.full(shapes[n], 2.0))
        np.testing.assert_array_equal(again[n], np.ones(shapes[n]))



def test_eval_and_grad_return_arrays_for_rank0_values():
    # Plan bodies compute rank-0 values as numpy scalars; what eval and grad
    # hand back is still an array of its own, rank-0 ones included.
    b = GraphBuilder()
    t = b.variable("t", ())
    x = b.placeholder("x", (None,))
    total = b.reduce_sum(x * t) + t * t
    graph = b.build({"out": total, "t": t, "x": x, "two": b.constant(2.0)})
    bindings = {"t": 0.5, "x": [1.0, 2.0]}
    values = graph.eval(bindings)
    for name, value in values.items():
        assert type(value) is np.ndarray and value.dtype == np.float64, name
    assert values["out"].shape == values["t"].shape == values["two"].shape == ()
    assert values["out"] == 1.75 and values["t"] == 0.5 and values["two"] == 2.0
    grads = graph.grad("out", ["t"], bindings)
    assert type(grads["t"]) is np.ndarray and grads["t"].shape == () and grads["t"] == 4.0
    for family in sorted(FAMILIES):
        model = FAMILIES[family].build()
        params = FAMILIES[family].init_params(model, Rng(1))
        prior = model.eval_output("log_prior", params)
        assert type(prior) is np.ndarray and prior.shape == (), family


def test_leaf_names_reach_plans_as_data():
    name = 'x"); import os; ("'
    b = GraphBuilder()
    x = b.variable(name, (2,))
    g = b.build({"out": b.reduce_sum(b.square(x)), "x2": b.square(x)})
    assert g.eval({name: [1.0, 2.0]}, ["out"])["out"] == 5.0
    np.testing.assert_array_equal(g.grad("out", [name], {name: [1.0, 2.0]})[name], [2.0, 4.0])
    with pytest.raises(MissingFeed, match="import os"):
        g.grad("out", [name], {})



# -- softmax row reductions ---------------------------------------------------------------

def _reduction_inputs(k):
    """(label, array) pairs with last axis k: ranks 1-3 in C, F and strided layouts.

    Magnitudes run over 1e-5 to 1e5 with both signs, and about a quarter of
    the entries are +0.0, -0.0, +inf, -inf or a NaN of either sign; some rows
    hold only zeros of one or both signs.  Rank-2 and rank-3 arrays have
    enough rows for the column path wherever it applies.
    """
    rng = np.random.default_rng(k)
    base = 10.0 ** rng.uniform(-5.0, 5.0, size=(3200, k)) * rng.choice([-1.0, 1.0], size=(3200, k))
    special = rng.random(base.shape) < 0.25
    base[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], size=int(special.sum()))
    base[1:3200:100] = -0.0
    base[2:3200:100] = rng.choice([0.0, -0.0], size=(32, k))
    c = base[:1600]
    return [
        ("rank1", base[0]),
        ("C", c),
        ("C rank3", c.reshape(40, 40, k)),
        ("F", np.asfortranarray(c)),
        ("F rank3", np.asfortranarray(c.reshape(40, 40, k))),
        ("rows strided", base[::2]),
        ("columns reversed", c[:, ::-1]),
        ("transposed rank3", c.reshape(40, 40, k).transpose(1, 0, 2)),
    ]


@pytest.mark.parametrize("k", range(1, 41))
def test_row_reductions_are_numpys_bit_for_bit(k):
    from gradmc.densities import _columns, _row_sum

    for label, x in _reduction_inputs(k):
        with np.errstate(invalid="ignore"):
            assert _same_bits(_row_sum(x), x.sum(axis=-1, keepdims=True)), (label, "sum")
        if label.startswith("C"):  # the inputs exercise the column path where it applies
            assert (_columns(x) is not None) == (2 <= k < 16), label


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_softmax_matches_the_plain_numpy_formula_in_any_layout(layout):
    # The formula softmax had before the row-reduction helpers, forward and
    # backward, evaluated on the same array the graph is fed.
    def reference(x, g):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        return y, y * (g - (g * y).sum(axis=-1, keepdims=True))

    rng = np.random.default_rng(12)
    for k in (3, 10, 20):
        b = GraphBuilder()
        soft = b.softmax(b.variable("v", (1600, k)))
        graph = b.build({"soft": soft, "out": b.reduce_sum(soft * b.placeholder("w", (None, k)))})
        base = rng.standard_normal((2 * 1600, k)) * 4.0
        x = {"C": base[:1600], "F": np.asfortranarray(base[:1600]), "strided": base[::2]}[layout]
        w = rng.standard_normal((1600, k))
        y, gx = reference(x, w)
        assert _same_bits(graph.eval({"v": x}, ["soft"])["soft"], y), k
        assert _same_bits(graph.grad("out", ["v"], {"v": x, "w": w})["v"], gx), k


@pytest.mark.parametrize("k", range(2, 16))
def test_class_major_softmax_is_the_plain_formula_bit_for_bit(k):
    # The inputs hold rows of zeros of both signs, infinities and NaNs of
    # both signs; their C-layout arrays have enough rows for the
    # class-major path.
    from gradmc.graph import _softmax

    for label, x in _reduction_inputs(k):
        with np.errstate(invalid="ignore"):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            assert _same_bits(_softmax(x), e / e.sum(axis=-1, keepdims=True)), label


def _bayes_nn_reference(params, x, y, scale):
    """The bayes_nn objective's gradient in plain numpy: softmax as x.max and
    e.sum, column sums as np.add.reduce(., 0), the plan's matmuls, and each
    prior term before the likelihood's."""
    from gradmc.densities import PROB_CLAMP

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    hidden = softmax(x @ params["B"] + params["b"])
    probs = softmax(hidden @ params["A"] + params["a"])
    rows, labels = np.arange(y.size), y.astype(np.int64)
    picked = probs[rows, labels]
    g_probs = np.zeros_like(probs)
    g_probs[rows, labels] = np.where(picked > PROB_CLAMP, np.asarray(scale) / picked, 0.0)
    g_out = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
    g_hidden = g_out @ params["A"].T
    g_in = hidden * (g_hidden - (g_hidden * hidden).sum(axis=-1, keepdims=True))
    likelihood = {"A": hidden.T @ g_out, "a": np.add.reduce(g_out, 0),
                  "B": x.T @ g_in, "b": np.add.reduce(g_in, 0)}
    grads = {}
    for name, term in likelihood.items():
        lam = params[f"lambda_{name}"][()]
        sd = 1.0 / np.sqrt(lam)
        z = (params[name] - 0.0) / sd
        grads[name] = -1.0 * z / sd + term
        g_sd = ((z * z - 1.0) / sd).sum()
        grads[f"lambda_{name}"] = np.asarray((1.0 - 1.0) / lam - 1.0 + -0.5 * g_sd * sd * sd * sd)
    return grads


def test_bayes_nn_gradient_is_the_plain_numpy_formula_bit_for_bit():
    # 600 rows at the benchmark's network, past every fast-path threshold,
    # through Graph.grad and a chain's bound gradient.  Every 15th row is
    # zeros, so its hidden logits are the biases plus the matmul's +0.0,
    # and tie at a zero maximum: four biases are zeros of either sign.
    from gradmc import ChainState, SamplerConfig

    spec = FAMILIES["bayes_nn"]
    hyper = {"input_dim": 20, "hidden": 10, "classes": 3}
    model = spec.build(**hyper)
    data = gen_synth("bayes_nn", 6000, Rng(8), n_test=2, **hyper).train
    rows = {"X": np.array(data["X"][:600]), "y": data["y"][:600]}
    rows["X"][::15] = 0.0
    params = model.check_params(spec.init_params(model, Rng(9)))
    params["b"][:4] = [0.0, -0.0, 0.0, -0.0]
    params["b"][4:] = -1.0 - np.abs(params["b"][4:])
    params.update({"lambda_A": np.asarray(0.5), "lambda_B": np.asarray(2.0),
                   "lambda_a": np.asarray(3.0), "lambda_b": np.asarray(0.75)})
    hidden = rows["X"] @ params["B"] + params["b"]
    assert np.count_nonzero((hidden.max(axis=1) == 0.0) & ((hidden == 0.0).sum(axis=1) == 4)) == 40
    scale = data.n / 600
    want = _bayes_nn_reference(params, rows["X"], rows["y"], scale)
    got = model.graph.grad("objective", model.param_names, {**rows, **params, "__grad_scale__": scale})
    for name in model.param_names:
        assert _same_bits(got[name], want[name]), name
    config = SamplerConfig(algorithm="sgld", stepsize=1e-4, minibatch_size=600)
    state = ChainState(model, data, config, params, Rng(1), Rng(2))
    assert _same_bits(state.gradient(rows), model.flatten(want))
