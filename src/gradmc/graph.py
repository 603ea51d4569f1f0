"""Immutable expression graphs over dense float64 tensors, with reverse-mode gradients.

The lifecycle is declare-then-run: operations are assembled on a
:class:`GraphBuilder`, frozen into a :class:`Graph` by ``build()``, and then
evaluated as often as needed with concrete tensors bound to the named leaves
(variables for parameters, placeholders for data).  Shapes are checked while
building, so a finished graph cannot fail on shapes except through bad feeds.

Tensors are numpy float64 arrays; scalars are rank-0.  A placeholder may leave
its first axis open (``None``) so the same graph evaluates on batches of any
size.

Each (objective, wrt) pair that ``Graph.grad`` sees, and each output tuple
that ``Graph.eval`` sees, compiles once into a plan cached on the graph: the
forward kernels of the nodes that feed the target, in node order, and the
backward kernels of the nodes on a path from a ``wrt`` variable to the
objective, in reverse.  Only the gradients someone consumes are computed, so
data, constants and variables nobody asked for cost no backward work.  Plans
are immutable, so graphs stay immutable and shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import densities
from .errors import DomainError, MissingFeed, ShapeError, UnknownVariable

__all__ = ["Graph", "GraphBuilder", "NodeRef", "Node", "as_tensor"]


def as_tensor(value) -> np.ndarray:
    """Coerce to a float64 ndarray (rank-0 for python scalars)."""
    return np.asarray(value, dtype=np.float64)


def _dims_compatible(declared, given) -> bool:
    if len(declared) != len(given):
        return False
    return all(d is None or d == g for d, g in zip(declared, given))


def _merge_dim(a, b, context):
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise ShapeError(f"{context}: dimensions {a} and {b} differ")
    return a


def _merge_shape(a, b, context):
    if len(a) != len(b):
        raise ShapeError(f"{context}: ranks differ ({a} vs {b})")
    return tuple(_merge_dim(x, y, context) for x, y in zip(a, b))


def _elementwise_shape(a, b, op):
    # Broadcasting is restricted to scalar-with-anything; everything else
    # must match exactly (vectors onto matrix rows go through broadcast_add).
    if a == ():
        return b
    if b == ():
        return a
    return _merge_shape(a, b, op)


def _unbroadcast(grad, shape):
    """Reduce a gradient back to a scalar operand's shape."""
    if shape == () and np.ndim(grad) != 0:
        return np.sum(grad)
    return grad


@dataclass(frozen=True)
class Node:
    index: int
    op: str
    inputs: tuple[int, ...]
    shape: tuple
    attrs: dict


class NodeRef:
    """Handle to a node under construction; supports arithmetic operators."""

    __slots__ = ("builder", "index", "shape")

    def __init__(self, builder: "GraphBuilder", index: int, shape: tuple):
        self.builder = builder
        self.index = index
        self.shape = shape

    def __add__(self, other):
        return self.builder.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.builder.subtract(self, other)

    def __rsub__(self, other):
        return self.builder.subtract(other, self)

    def __mul__(self, other):
        return self.builder.multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.builder.divide(self, other)

    def __rtruediv__(self, other):
        return self.builder.divide(other, self)

    def __neg__(self):
        return self.builder.negate(self)

    def __repr__(self):
        return f"NodeRef({self.index}, shape={self.shape})"


# ---------------------------------------------------------------------------
# Forward / backward kernels.  Forward takes (node, values) and returns the
# node's value; backward takes (node, values, grad, need) and returns one
# gradient contribution per input (None for non-differentiable inputs such as
# labels).  need[k] is False when no gradient flows on from input k (data,
# constants, variables nobody asked for); kernels with more than one
# differentiable input skip those and return None for them.  Returned arrays
# are never mutated by the accumulator, so views are fine.
# ---------------------------------------------------------------------------

_FORWARD: dict[str, Callable] = {}
_BACKWARD: dict[str, Callable] = {}


def _register(op, forward, backward):
    _FORWARD[op] = forward
    _BACKWARD[op] = backward


def _fwd_add(node, v):
    a, b = node.inputs
    return v[a] + v[b]


def _bwd_add(node, v, g, need):
    a, b = node.inputs
    return (_unbroadcast(g, v[a].shape) if need[0] else None,
            _unbroadcast(g, v[b].shape) if need[1] else None)


def _fwd_subtract(node, v):
    a, b = node.inputs
    return v[a] - v[b]


def _bwd_subtract(node, v, g, need):
    a, b = node.inputs
    return (_unbroadcast(g, v[a].shape) if need[0] else None,
            _unbroadcast(-g, v[b].shape) if need[1] else None)


def _fwd_multiply(node, v):
    a, b = node.inputs
    return v[a] * v[b]


def _bwd_multiply(node, v, g, need):
    a, b = node.inputs
    return (_unbroadcast(g * v[b], v[a].shape) if need[0] else None,
            _unbroadcast(g * v[a], v[b].shape) if need[1] else None)


def _fwd_divide(node, v):
    a, b = node.inputs
    return v[a] / v[b]


def _bwd_divide(node, v, g, need):
    a, b = node.inputs
    ga = _unbroadcast(g / v[b], v[a].shape) if need[0] else None
    gb = _unbroadcast(-g * v[a] / (v[b] * v[b]), v[b].shape) if need[1] else None
    return (ga, gb)


def _fwd_negate(node, v):
    return -v[node.inputs[0]]


def _bwd_negate(node, v, g, need):
    return (-g,)


def _fwd_matmul(node, v):
    a, b = node.inputs
    return v[a] @ v[b]


def _bwd_matmul(node, v, g, need):
    a, b = node.inputs
    return (g @ v[b].T if need[0] else None, v[a].T @ g if need[1] else None)


def _fwd_reduce_sum(node, v):
    return np.sum(v[node.inputs[0]])


def _bwd_reduce_sum(node, v, g, need):
    return (np.broadcast_to(g, v[node.inputs[0]].shape),)


def _fwd_exp(node, v):
    return np.exp(v[node.inputs[0]])


def _bwd_exp(node, v, g, need):
    return (g * v[node.index],)


def _fwd_log(node, v):
    return np.log(v[node.inputs[0]])


def _bwd_log(node, v, g, need):
    return (g / v[node.inputs[0]],)


def _fwd_abs(node, v):
    return np.abs(v[node.inputs[0]])


def _bwd_abs(node, v, g, need):
    # sign(0) = 0: the subgradient of |x| at the kink is taken as 0.
    return (g * np.sign(v[node.inputs[0]]),)


def _fwd_square(node, v):
    x = v[node.inputs[0]]
    return x * x


def _bwd_square(node, v, g, need):
    return (2.0 * g * v[node.inputs[0]],)


def _fwd_sqrt(node, v):
    return np.sqrt(v[node.inputs[0]])


def _bwd_sqrt(node, v, g, need):
    return (0.5 * g / v[node.index],)


def _fwd_rsqrt(node, v):
    return 1.0 / np.sqrt(v[node.inputs[0]])


def _bwd_rsqrt(node, v, g, need):
    y = v[node.index]
    return (-0.5 * g * y * y * y,)


def _fwd_sigmoid(node, v):
    x = v[node.inputs[0]]
    # Stable two-branch evaluation, then clamp into the open unit interval so
    # log(pi) and log(1 - pi) compositions stay finite.
    with np.errstate(over="ignore"):
        pos = 1.0 / (1.0 + np.exp(-x))
        ex = np.exp(np.minimum(x, 0.0))
        neg = ex / (1.0 + ex)
    out = np.where(x >= 0.0, pos, neg)
    return np.clip(out, densities.PROB_CLAMP, 1.0 - densities.PROB_CLAMP)


def _bwd_sigmoid(node, v, g, need):
    y = v[node.index]
    return (g * y * (1.0 - y),)


def _fwd_softmax(node, v):
    x = v[node.inputs[0]]
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _bwd_softmax(node, v, g, need):
    y = v[node.index]
    inner = np.sum(g * y, axis=-1, keepdims=True)
    return (y * (g - inner),)


def _fwd_broadcast_add(node, v):
    m, vec = node.inputs
    return v[m] + v[vec]


def _bwd_broadcast_add(node, v, g, need):
    return (g if need[0] else None, np.sum(g, axis=0) if need[1] else None)


def _fwd_normal(node, v):
    x, mean, sd = (v[i] for i in node.inputs)
    return densities.normal_logpdf(x, mean, sd)


def _bwd_normal(node, v, g, need):
    x, mean, sd = (v[i] for i in node.inputs)
    z = (x - mean) / sd
    gx = -g * z / sd if need[0] else None
    gmean = _unbroadcast(g * z / sd, np.shape(mean)) if need[1] else None
    gsd = _unbroadcast(g * (z * z - 1.0) / sd, np.shape(sd)) if need[2] else None
    return (gx, gmean, gsd)


def _fwd_mvnormal_diag(node, v):
    x, loc, scale = (v[i] for i in node.inputs)
    return densities.mvnormal_diag_logpdf(x, loc, scale)


def _bwd_mvnormal_diag(node, v, g, need):
    x, loc, scale = (v[i] for i in node.inputs)
    z = (x - loc) / scale
    ge = np.asarray(g)[..., None]
    gx = -ge * z / scale if need[0] else None
    gloc = ge * z / scale if need[1] else None
    gscale = ge * (z * z - 1.0) / scale if need[2] else None
    if x.ndim == 2:
        gloc = None if gloc is None else np.sum(gloc, axis=0)
        gscale = None if gscale is None else np.sum(gscale, axis=0)
    return (gx, gloc, gscale)


def _fwd_laplace(node, v):
    x, loc, scale = (v[i] for i in node.inputs)
    return densities.laplace_logpdf(x, loc, scale)


def _bwd_laplace(node, v, g, need):
    x, loc, scale = (v[i] for i in node.inputs)
    diff = x - loc
    s = np.sign(diff)
    gx = -g * s / scale if need[0] else None
    gloc = _unbroadcast(g * s / scale, np.shape(loc)) if need[1] else None
    gscale = (_unbroadcast(g * (np.abs(diff) / (scale * scale) - 1.0 / scale), np.shape(scale))
              if need[2] else None)
    return (gx, gloc, gscale)


def _fwd_gamma(node, v):
    x = v[node.inputs[0]]
    return densities.gamma_logpdf(x, node.attrs["shape_param"], node.attrs["rate"])


def _bwd_gamma(node, v, g, need):
    x = v[node.inputs[0]]
    alpha = node.attrs["shape_param"]
    rate = node.attrs["rate"]
    safe = np.where(x > 0.0, x, 1.0)
    # NaN outside the support so divergent chains trip the finiteness checks.
    gx = g * np.where(x > 0.0, (alpha - 1.0) / safe - rate, np.nan)
    return (gx,)


def _fwd_categorical(node, v):
    probs, labels = (v[i] for i in node.inputs)
    return densities.categorical_logpdf(probs, labels)


def _bwd_categorical(node, v, g, need):
    probs, labels = (v[i] for i in node.inputs)
    idx = labels.astype(np.int64)
    rows = np.arange(idx.size)
    picked = probs[rows, idx]
    gprobs = np.zeros_like(probs)
    gprobs[rows, idx] = np.where(
        picked > densities.PROB_CLAMP, np.asarray(g) / picked, 0.0
    )
    return (gprobs, None)


def _fwd_mixture2(node, v):
    x, loc1, loc2 = (v[i] for i in node.inputs)
    return densities.mixture2_logpdf(
        x,
        loc1,
        loc2,
        node.attrs["scale1"],
        node.attrs["scale2"],
        node.attrs["weights"][0],
        node.attrs["weights"][1],
    )


def _bwd_mixture2(node, v, g, need):
    x, loc1, loc2 = (v[i] for i in node.inputs)
    s1 = node.attrs["scale1"]
    s2 = node.attrs["scale2"]
    w1, w2 = node.attrs["weights"]
    out = v[node.index]
    c1 = densities.mvnormal_diag_logpdf(x, loc1, s1)
    c2 = densities.mvnormal_diag_logpdf(x, loc2, s2)
    with np.errstate(divide="ignore"):
        r1 = np.exp(np.log(w1) + c1 - out) if w1 > 0.0 else np.zeros_like(c1)
        r2 = np.exp(np.log(w2) + c2 - out) if w2 > 0.0 else np.zeros_like(c2)
    g1 = (np.asarray(g) * r1)[:, None]
    g2 = (np.asarray(g) * r2)[:, None]
    z1 = (x - loc1) / s1
    z2 = (x - loc2) / s2
    gx = -g1 * z1 / s1 - g2 * z2 / s2 if need[0] else None
    gloc1 = np.sum(g1 * z1 / s1, axis=0) if need[1] else None
    gloc2 = np.sum(g2 * z2 / s2, axis=0) if need[2] else None
    return (gx, gloc1, gloc2)


for _name, _f, _b in [
    ("add", _fwd_add, _bwd_add),
    ("subtract", _fwd_subtract, _bwd_subtract),
    ("multiply", _fwd_multiply, _bwd_multiply),
    ("divide", _fwd_divide, _bwd_divide),
    ("negate", _fwd_negate, _bwd_negate),
    ("matmul", _fwd_matmul, _bwd_matmul),
    ("reduce_sum", _fwd_reduce_sum, _bwd_reduce_sum),
    ("exp", _fwd_exp, _bwd_exp),
    ("log", _fwd_log, _bwd_log),
    ("abs", _fwd_abs, _bwd_abs),
    ("square", _fwd_square, _bwd_square),
    ("sqrt", _fwd_sqrt, _bwd_sqrt),
    ("rsqrt", _fwd_rsqrt, _bwd_rsqrt),
    ("sigmoid", _fwd_sigmoid, _bwd_sigmoid),
    ("softmax", _fwd_softmax, _bwd_softmax),
    ("broadcast_add", _fwd_broadcast_add, _bwd_broadcast_add),
    ("normal_logpdf", _fwd_normal, _bwd_normal),
    ("mvnormal_diag_logpdf", _fwd_mvnormal_diag, _bwd_mvnormal_diag),
    ("laplace_logpdf", _fwd_laplace, _bwd_laplace),
    ("gamma_logpdf", _fwd_gamma, _bwd_gamma),
    ("categorical_logpdf", _fwd_categorical, _bwd_categorical),
    ("mixture2_logpdf", _fwd_mixture2, _bwd_mixture2),
]:
    _register(_name, _f, _b)


class GraphBuilder:
    """Accumulates nodes; ``build()`` freezes them into a Graph.

    All shape checking happens here, at declaration time.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._variables: dict[str, int] = {}
        self._placeholders: dict[str, int] = {}
        self._built = False

    # -- leaves ------------------------------------------------------------

    def constant(self, value) -> NodeRef:
        arr = as_tensor(value).copy()
        arr.flags.writeable = False
        return self._append("constant", (), arr.shape, {"value": arr})

    def variable(self, name: str, shape: Sequence[int]) -> NodeRef:
        shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in shape):
            raise ShapeError(f"variable {name!r}: negative extent in {shape}")
        self._check_leaf_name(name)
        ref = self._append("variable", (), shape, {"name": name})
        self._variables[name] = ref.index
        return ref

    def placeholder(self, name: str, shape: Sequence) -> NodeRef:
        shape = tuple(None if d is None else int(d) for d in shape)
        if any(d is None for d in shape[1:]):
            raise ShapeError(
                f"placeholder {name!r}: only the first axis may be open, got {shape}"
            )
        self._check_leaf_name(name)
        ref = self._append("placeholder", (), shape, {"name": name})
        self._placeholders[name] = ref.index
        return ref

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b) -> NodeRef:
        a, b = self._lift(a), self._lift(b)
        return self._append("add", (a, b), _elementwise_shape(a.shape, b.shape, "add"))

    def subtract(self, a, b) -> NodeRef:
        a, b = self._lift(a), self._lift(b)
        return self._append(
            "subtract", (a, b), _elementwise_shape(a.shape, b.shape, "subtract")
        )

    def multiply(self, a, b) -> NodeRef:
        a, b = self._lift(a), self._lift(b)
        return self._append(
            "multiply", (a, b), _elementwise_shape(a.shape, b.shape, "multiply")
        )

    def divide(self, a, b) -> NodeRef:
        a, b = self._lift(a), self._lift(b)
        return self._append(
            "divide", (a, b), _elementwise_shape(a.shape, b.shape, "divide")
        )

    def negate(self, a) -> NodeRef:
        a = self._lift(a)
        return self._append("negate", (a,), a.shape)

    def matmul(self, a, b) -> NodeRef:
        a, b = self._lift(a), self._lift(b)
        if len(a.shape) != 2 or len(b.shape) != 2:
            raise ShapeError(f"matmul needs two matrices, got {a.shape} @ {b.shape}")
        _merge_dim(a.shape[1], b.shape[0], "matmul inner dimension")
        return self._append("matmul", (a, b), (a.shape[0], b.shape[1]))

    def reduce_sum(self, a) -> NodeRef:
        a = self._lift(a)
        return self._append("reduce_sum", (a,), ())

    def broadcast_add(self, matrix, vector) -> NodeRef:
        matrix, vector = self._lift(matrix), self._lift(vector)
        if len(matrix.shape) != 2 or len(vector.shape) != 1:
            raise ShapeError(
                f"broadcast_add needs (matrix, vector), got {matrix.shape} + {vector.shape}"
            )
        cols = _merge_dim(matrix.shape[1], vector.shape[0], "broadcast_add columns")
        return self._append("broadcast_add", (matrix, vector), (matrix.shape[0], cols))

    def exp(self, a) -> NodeRef:
        return self._unary("exp", a)

    def log(self, a) -> NodeRef:
        return self._unary("log", a)

    def abs(self, a) -> NodeRef:
        return self._unary("abs", a)

    def square(self, a) -> NodeRef:
        return self._unary("square", a)

    def sqrt(self, a) -> NodeRef:
        return self._unary("sqrt", a)

    def rsqrt(self, a) -> NodeRef:
        return self._unary("rsqrt", a)

    def sigmoid(self, a) -> NodeRef:
        return self._unary("sigmoid", a)

    def softmax(self, a) -> NodeRef:
        a = self._lift(a)
        if len(a.shape) < 1:
            raise ShapeError("softmax needs rank >= 1")
        return self._append("softmax", (a,), a.shape)

    # -- log densities -------------------------------------------------------

    def normal_logpdf(self, x, mean, sd) -> NodeRef:
        x, mean, sd = self._lift(x), self._lift(mean), self._lift(sd)
        shape = x.shape
        for other, label in ((mean, "mean"), (sd, "sd")):
            if other.shape != ():
                shape = _merge_shape(shape, other.shape, f"normal_logpdf {label}")
        return self._append("normal_logpdf", (x, mean, sd), shape)

    def mvnormal_diag_logpdf(self, x, loc, scale) -> NodeRef:
        x, loc, scale = self._lift(x), self._lift(loc), self._lift(scale)
        if len(x.shape) not in (1, 2):
            raise ShapeError(f"mvnormal_diag_logpdf: x must be (d,) or (n, d), got {x.shape}")
        if len(loc.shape) != 1 or len(scale.shape) != 1:
            raise ShapeError("mvnormal_diag_logpdf: loc and scale must be vectors")
        d = _merge_dim(x.shape[-1], loc.shape[0], "mvnormal_diag dimension")
        _merge_dim(d, scale.shape[0], "mvnormal_diag dimension")
        out_shape = () if len(x.shape) == 1 else (x.shape[0],)
        return self._append("mvnormal_diag_logpdf", (x, loc, scale), out_shape)

    def laplace_logpdf(self, x, loc, scale) -> NodeRef:
        x, loc, scale = self._lift(x), self._lift(loc), self._lift(scale)
        shape = x.shape
        for other, label in ((loc, "loc"), (scale, "scale")):
            if other.shape != ():
                shape = _merge_shape(shape, other.shape, f"laplace_logpdf {label}")
        return self._append("laplace_logpdf", (x, loc, scale), shape)

    def gamma_logpdf(self, x, shape_param: float, rate: float) -> NodeRef:
        x = self._lift(x)
        shape_param = float(shape_param)
        rate = float(rate)
        if shape_param <= 0.0 or rate <= 0.0:
            raise DomainError("gamma shape and rate must be positive")
        return self._append(
            "gamma_logpdf", (x,), x.shape, {"shape_param": shape_param, "rate": rate}
        )

    def categorical_logpdf(self, probs, labels) -> NodeRef:
        probs, labels = self._lift(probs), self._lift(labels)
        if len(probs.shape) != 2 or len(labels.shape) != 1:
            raise ShapeError(
                f"categorical_logpdf needs probs (n, k) and labels (n,), got {probs.shape} and {labels.shape}"
            )
        n = _merge_dim(probs.shape[0], labels.shape[0], "categorical batch")
        return self._append("categorical_logpdf", (probs, labels), (n,))

    def mixture2_logpdf(self, x, loc1, loc2, scale1=None, scale2=None, weights=(0.5, 0.5)) -> NodeRef:
        x, loc1, loc2 = self._lift(x), self._lift(loc1), self._lift(loc2)
        if len(x.shape) != 2:
            raise ShapeError(f"mixture2_logpdf: x must be (n, d), got {x.shape}")
        if len(loc1.shape) != 1 or len(loc2.shape) != 1:
            raise ShapeError("mixture2_logpdf: component locations must be vectors")
        d = _merge_dim(x.shape[1], loc1.shape[0], "mixture2 dimension")
        d = _merge_dim(d, loc2.shape[0], "mixture2 dimension")
        w1, w2 = (float(w) for w in weights)
        if w1 < 0.0 or w2 < 0.0 or abs(w1 + w2 - 1.0) > 1e-12:
            raise DomainError("mixture2 weights must be non-negative and sum to 1")
        s1 = as_tensor(scale1 if scale1 is not None else np.ones(d))
        s2 = as_tensor(scale2 if scale2 is not None else np.ones(d))
        if s1.shape != (d,) or s2.shape != (d,):
            raise ShapeError("mixture2 scales must be vectors matching the data dimension")
        if np.any(s1 <= 0.0) or np.any(s2 <= 0.0):
            raise DomainError("mixture2 scales must be positive")
        return self._append(
            "mixture2_logpdf",
            (x, loc1, loc2),
            (x.shape[0],),
            {"weights": (w1, w2), "scale1": s1, "scale2": s2},
        )

    # -- finalize -------------------------------------------------------------

    def build(self, outputs: Mapping[str, NodeRef]) -> "Graph":
        if self._built:
            raise ShapeError("builder already built a graph")
        out_idx = {}
        for name, ref in outputs.items():
            if ref.builder is not self:
                raise ShapeError(f"output {name!r} belongs to a different builder")
            leaf = self._variables.get(name, self._placeholders.get(name))
            if leaf is not None and leaf != ref.index:
                raise ShapeError(f"output name {name!r} shadows a different leaf")
            out_idx[name] = ref.index
        self._built = True
        return Graph(tuple(self._nodes), dict(self._variables), dict(self._placeholders), out_idx)

    # -- internals -------------------------------------------------------------

    def _check_leaf_name(self, name):
        if not name:
            raise ShapeError("leaf names must be non-empty")
        if name in self._variables or name in self._placeholders:
            raise ShapeError(f"duplicate leaf name {name!r}")

    def _lift(self, value) -> NodeRef:
        if isinstance(value, NodeRef):
            if value.builder is not self:
                raise ShapeError("node belongs to a different builder")
            return value
        return self.constant(value)

    def _unary(self, op, a) -> NodeRef:
        a = self._lift(a)
        return self._append(op, (a,), a.shape)

    def _append(self, op, inputs: tuple, shape: tuple, attrs=None) -> NodeRef:
        if self._built:
            raise ShapeError("graph already built; no further nodes may be declared")
        idx = len(self._nodes)
        node = Node(idx, op, tuple(ref.index for ref in inputs), shape, attrs or {})
        self._nodes.append(node)
        return NodeRef(self, idx, shape)


class _Plan(NamedTuple):
    """What ``eval`` or ``grad`` runs for one target set; built once, never mutated."""

    targets: tuple  # node index of each requested output (the objective, for grad)
    slots: tuple  # constant values in their slots, None elsewhere
    leaves: tuple  # (index, name, node) of each variable or placeholder feeding the targets
    forward: tuple  # (index, kernel, node) of each op feeding the targets, in node order
    backward: tuple  # (index, kernel, node, need) of each op on a path from wrt, in reverse


class Graph:
    """Frozen expression DAG.

    ``eval`` and ``grad`` run from plans compiled on first use and cached per
    output tuple or (objective, wrt) pair.  Plans are immutable, and two
    threads that race to build one build equal plans, so a graph is shareable
    across threads without a lock; repeated calls with the same bindings
    return bit-identical results.
    """

    def __init__(self, nodes, variables, placeholders, outputs):
        self._nodes = nodes
        self._variables = variables
        self._placeholders = placeholders
        self._outputs = outputs
        self._plans: dict[tuple, _Plan] = {}

    @property
    def variables(self) -> dict[str, tuple]:
        return {name: self._nodes[i].shape for name, i in self._variables.items()}

    @property
    def placeholders(self) -> dict[str, tuple]:
        return {name: self._nodes[i].shape for name, i in self._placeholders.items()}

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self._outputs)

    def eval(self, bindings: Mapping[str, Any], outputs: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        """Forward-evaluate the named outputs under the given leaf bindings.

        Only leaves feeding the requested outputs need to be bound; a missing
        one raises MissingFeed, and an incompatible binding raises ShapeError.
        """
        names = tuple(outputs) if outputs is not None else tuple(self._outputs)
        key = ("eval", names)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile([self._resolve(name) for name in names], ())
        values = self._run(plan, bindings)
        result = {}
        for name, idx in zip(names, plan.targets):
            val = values[idx]
            result[name] = val.copy() if not self._nodes[idx].inputs else val
        return result

    def grad(
        self,
        objective: str,
        wrt: Iterable[str],
        bindings: Mapping[str, Any],
    ) -> dict[str, np.ndarray]:
        """Reverse-mode gradient of a scalar output with respect to variables.

        One forward pass, one backward pass.  Variables the objective does not
        depend on get zero gradients of the declared shape.
        """
        wrt = tuple(wrt)
        key = ("grad", objective, wrt)
        plan = self._plans.get(key)
        if plan is None:
            for name in wrt:
                if name not in self._variables:
                    raise UnknownVariable(f"{name!r} is not a variable of this graph")
            obj = self._resolve(objective)
            if self._nodes[obj].shape != ():
                raise ShapeError(
                    f"gradient objective {objective!r} must be scalar, has shape {self._nodes[obj].shape}"
                )
            plan = self._plans[key] = self._compile([obj], {self._variables[name] for name in wrt})
        values = self._run(plan, bindings)
        adjoint: list = [None] * len(values)
        adjoint[plan.targets[0]] = np.ones((), dtype=np.float64)
        for idx, backward, node, need in plan.backward:
            g = adjoint[idx]
            if g is None:
                continue
            for input_idx, contrib in zip(node.inputs, backward(node, values, g, need)):
                if contrib is None:
                    continue
                if adjoint[input_idx] is None:
                    adjoint[input_idx] = contrib
                else:
                    adjoint[input_idx] = adjoint[input_idx] + contrib
        result = {}
        for name in wrt:
            idx = self._variables[name]
            g = adjoint[idx]
            if g is None:
                g = np.zeros(self._nodes[idx].shape, dtype=np.float64)
            result[name] = np.asarray(g, dtype=np.float64)
        return result

    # -- internals -------------------------------------------------------------

    def _resolve(self, name: str) -> int:
        for table in (self._outputs, self._variables, self._placeholders):
            if name in table:
                return table[name]
        raise UnknownVariable(f"{name!r} names no output, variable or placeholder")

    def _compile(self, targets: list, wrt) -> _Plan:
        """Plan for the target nodes; ``wrt`` holds the variable nodes to differentiate by."""
        feeds = [False] * len(self._nodes)
        stack = list(targets)
        while stack:
            idx = stack.pop()
            if not feeds[idx]:
                feeds[idx] = True
                stack.extend(self._nodes[idx].inputs)
        on_path = [False] * len(self._nodes)
        slots = [None] * len(self._nodes)
        leaves, forward, backward = [], [], []
        for node in self._nodes:
            idx = node.index
            if not feeds[idx]:
                continue
            on_path[idx] = idx in wrt or any(on_path[i] for i in node.inputs)
            if node.op == "constant":
                slots[idx] = node.attrs["value"]
            elif not node.inputs:
                leaves.append((idx, node.attrs["name"], node))
            else:
                forward.append((idx, _FORWARD[node.op], node))
                if on_path[idx]:
                    need = tuple(on_path[i] for i in node.inputs)
                    backward.append((idx, _BACKWARD[node.op], node, need))
        return _Plan(tuple(targets), tuple(slots), tuple(leaves), tuple(forward), tuple(reversed(backward)))

    def _run(self, plan: _Plan, bindings: Mapping[str, Any]) -> list:
        """Bind the plan's leaves, then run its forward kernels; returns every slot."""
        values = list(plan.slots)
        for idx, name, node in plan.leaves:
            if name not in bindings:
                raise MissingFeed(f"no binding supplied for leaf {name!r}")
            values[idx] = self._conform(bindings[name], node)
        for idx, forward, node in plan.forward:
            values[idx] = forward(node, values)
        return values

    @staticmethod
    def _conform(raw, node) -> np.ndarray:
        arr = as_tensor(raw)
        declared = node.shape
        if _dims_compatible(declared, arr.shape):
            return arr
        # Column placeholders accept vectors: (n,) feeds a declared (n, 1).
        if (
            len(declared) == arr.ndim + 1
            and declared[-1] == 1
            and _dims_compatible(declared[:-1], arr.shape)
        ):
            return arr.reshape(arr.shape + (1,))
        raise ShapeError(
            f"binding for {node.attrs['name']!r} has shape {arr.shape}, expected {declared}"
        )
