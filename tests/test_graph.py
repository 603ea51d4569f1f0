"""Core graph behaviour: shape checking, forward values, reverse-mode gradients."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gradmc import GraphBuilder, MissingFeed, Rng, ShapeError, UnknownVariable, gen_synth
from gradmc.models import FAMILIES
from oracles import assert_grad_close, finite_diff_grad


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
    """One scalar graph per differentiable primitive, with generic inputs."""
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
        "mixture2": (
            lambda b: b.reduce_sum(
                b.mixture2_logpdf(
                    b.variable("x", (6, 2)), b.variable("l1", (2,)), b.variable("l2", (2,)),
                    scale1=(1.0, 1.5), scale2=(0.8, 1.0), weights=(0.3, 0.7),
                )
            ),
            {"x": rng.standard_normal((6, 2)), "l1": rng.standard_normal(2), "l2": rng.standard_normal(2)},
        ),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_random_primitive_graphs()))
def test_primitive_gradients_match_finite_differences(name):
    build, params = _random_primitive_graphs()[name]
    graph = scalar_graph(build)

    def f(p):
        return float(graph.eval(p, ["out"])["out"])

    got = graph.grad("out", sorted(params), params)
    assert_grad_close(got, finite_diff_grad(f, params), rel=1e-5, floor=1e-8)


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
    makers += [binary(op) for op in ("add", "subtract", "multiply", "divide")]
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
    hyper = {"input_dim": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else dict(spec.hyper_defaults)
    gen_kwargs = {"d": 5, "hidden": 4, "classes": 3} if family == "bayes_nn" else (
        {"d": hyper["d"]} if family == "logistic_regression" else {}
    )
    model = spec.build(**hyper)
    data = gen_synth(family, 40, Rng(8), n_test=2, **gen_kwargs).train
    bindings = {name: data[name] for name in model.data_names}
    bindings.update(spec.init_params(model, Rng(9)))
    bindings["__grad_scale__"] = 40 / 7
    for objective in ("objective", "log_lik", "log_prior"):
        full = model.graph.grad(objective, model.param_names, bindings)
        for name in model.param_names:
            single = model.graph.grad(objective, [name], bindings)
            assert list(single) == [name]
            assert _same_bits(single[name], full[name]), (objective, name)
