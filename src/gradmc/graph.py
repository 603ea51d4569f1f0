"""Immutable expression graphs over dense float64 tensors, with reverse-mode gradients.

The lifecycle is declare-then-run: operations are assembled on a
:class:`GraphBuilder`, frozen into a :class:`Graph` by ``build()``, and then
evaluated as often as needed with concrete tensors bound to the named leaves
(variables for parameters, placeholders for data).  Shapes are checked while
building, so a finished graph cannot fail on shapes except through bad feeds.

Tensors are numpy float64 arrays; scalars are rank-0.  A placeholder may leave
its first axis open (``None``) so the same graph evaluates on batches of any
size.

The log densities are primitives whose forwards are the functions of
:mod:`gradmc.densities`, except two that the builder composes: the
two-component mixture from two ``mvnormal_diag_logpdf`` nodes and
``logaddexp``, and the Laplace density from ``abs``, ``divide`` and ``log``.

Each (objective, wrt) pair that ``Graph.grad`` sees, and each output tuple
that ``Graph.eval`` sees, compiles once into a plan body cached on the
graph: one Python function, emitted as straight-line source from per-op
templates and ``exec``-ed once.  It takes its leaves positionally,
unchecked, and a gradient body writes one flat vector.
``Graph.grad``/``Graph.eval`` check and conform the bindings, then call it;
a sampler chain binds it once (:class:`gradmc.samplers.ChainState`).  Rank-0
leaves and constants and the seed adjoint are numpy scalars in a body: the
same IEEE bits as rank-0 arrays, without numpy's array dispatch.  Shapes,
and which gradients flow where, are decided while emitting.  A gradient plan
computes only the contributions someone consumes, so data, constants and
variables nobody asked for cost no backward work, and only the forward
values its backward steps read or a broadcast takes its shape from, so the
objective's own value is never computed.  Class labels are checked wherever
``categorical_logpdf`` is evaluated or differentiated through, by its
forward or its backward; a gradient that never reaches it neither reads nor
checks them (a chain checks its data's labels once).  The rank-0 adjoint of a ``reduce_sum`` is passed
on as it is wherever every term that reads it already has the summed node's
full shape (the per-row terms of the log densities, for one), through the
pass-throughs of ``add``/``subtract``/``negate`` to inputs of that shape
whose own terms do too; it is broadcast only where a term needs the full
shape from it: a sum into a scalar input, ``matmul``, ``broadcast_add`` and
a returned gradient.  It is broadcast to the shape of the summed node's
value, which the plan then computes (no built-in model's plan does).  A
backward statement drops a factor that is the rank-0 constant 1.0 or the
seed, and the subtraction of a rank-0 +0.0; an adjoint passed on unchanged
gets no statement, and the softmax runs class-major.
The results are the same bits either way.  Every gradient and output
``grad`` and ``eval`` return is an array of its own, rank-0 ones included,
writeable and of its node's declared shape.  Plans never change once built,
so graphs stay immutable and shareable across threads.
"""

from __future__ import annotations

import functools
import math
import re
import string
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import densities
from .densities import _lane_sum, _row_sum
from .errors import DomainError, MissingFeed, ShapeError, UnknownVariable

__all__ = ["Graph", "GraphBuilder", "NodeRef", "Node", "as_tensor"]


def as_tensor(value) -> np.ndarray:
    """Coerce to a float64 ndarray (rank-0 for python scalars)."""
    return np.asarray(value, dtype=np.float64)


def _extent(what: str, d) -> int:
    """An extent as an int, or ShapeError if it is not a whole number."""
    try:
        if int(d) == d:
            return int(d)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ShapeError(f"{what}: extent {d!r} is not a whole number")


def _dims_compatible(declared, given) -> bool:
    return len(declared) == len(given) and all(d is None or d == g for d, g in zip(declared, given))


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


def _sigmoid(x):
    # Stable two-branch evaluation, then clamp into the open unit interval so
    # log(pi) and log(1 - pi) compositions stay finite.
    with np.errstate(over="ignore"):
        pos = 1.0 / (1.0 + np.exp(-x))
        ex = np.exp(np.minimum(x, 0.0))
        neg = ex / (1.0 + ex)
    out = np.where(x >= 0.0, pos, neg)
    return np.clip(out, densities.PROB_CLAMP, 1.0 - densities.PROB_CLAMP)


def _softmax(x):
    """``e / e.sum(-1, keepdims=True)`` for ``e = np.exp(x - x.max(-1, keepdims=True))``, bit for bit.

    From 128 rows of 2 <= k < 16 classes, each step runs over a class-major
    copy: on one core of an AVX-512 Xeon with numpy 2.4, 600 x 10 goes from
    53 to 37 us, 600 x 3 from 23 to 16 us (8-27% faster at 128 rows, up to
    26% slower at 64).  The sum is ``_lane_sum`` over the classes, which
    leaves out numpy's +0.0 start (an exp is never -0.0); rows whose sum is
    NaN take the formula.  Fewer rows, and other layouts and widths, take the
    formula with ``_row_sum``.
    """
    k = x.shape[-1] if x.ndim > 1 else 0
    if not 2 <= k < 16 or not x.flags.c_contiguous or x.size < 128 * k:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / _row_sum(e)
    rows = x.reshape(-1, k)
    ct = rows.T.copy()
    ct -= np.maximum.reduce(ct, 0)
    np.exp(ct, out=ct)
    total = _lane_sum(ct)
    ct /= total
    out = np.ascontiguousarray(ct.T)
    if (nan := np.isnan(total)).any():
        e = np.exp(rows[nan] - rows[nan].max(axis=-1, keepdims=True))
        out[nan] = e / e.sum(axis=-1, keepdims=True)
    return out.reshape(x.shape)


class _Op(NamedTuple):
    """Source templates of one primitive, filled in by ``Graph._compile``.

    Fields: ``{0}``, ``{1}``, ... an input's value; ``{y}`` the node's own
    value; ``{g}`` its adjoint; ``{t}`` a prefix for temporaries.  A template
    reads nothing else, so the fields a backward template uses are what it
    reads: that lets a plan skip forward values that no gradient reads.

    ``{g}`` may be rank-0 where a ``reduce_sum`` consumes the node, directly
    or through pass-throughs: the emitter leaves the sum's adjoint
    unbroadcast wherever every contribution downstream has its node's full
    shape anyway, which it decides from ranks.
    """

    forward: str
    backward: tuple  # one contribution per input; None where no gradient flows
    pre: tuple = ()  # statements the contributions share
    # The output has the inputs' broadcast shape, and so does each
    # contribution; one to a scalar input is summed to a scalar.  A
    # contribution that reads {y} or an input of the output's rank has the
    # full shape whatever {g}'s.
    elementwise: bool = False
    # Contributions to inputs 1.. have input 0's rank and are summed over its rows.
    rows_of_input0: bool = False
    # Every contribution combines {g} elementwise with a full-shaped
    # temporary, so it has the full shape whatever {g}'s.
    full_terms: bool = False
    # The one contribution is {g} at input 0's shape (the adjoint of a sum).
    sums: bool = False


_Z_PRE = ("{t}z = ({0} - {1}) / {2}",)
_OPS = {
    "add": _Op("{0} + {1}", ("{g}", "{g}"), elementwise=True),
    "subtract": _Op("{0} - {1}", ("{g}", "-{g}"), elementwise=True),
    "multiply": _Op("{0} * {1}", ("{g} * {1}", "{g} * {0}"), elementwise=True),
    "divide": _Op("{0} / {1}", ("{g} / {1}", "-{g} * {0} / ({1} * {1})"), elementwise=True),
    "negate": _Op("-{0}", ("-{g}",), elementwise=True),
    "matmul": _Op("{0} @ {1}", ("{g} @ {1}.T", "{0}.T @ {g}")),
    "reduce_sum": _Op("_sum({0}, None)", ("{g}",), sums=True),
    "exp": _Op("_np.exp({0})", ("{g} * {y}",), elementwise=True),
    "logaddexp": _Op(
        "_np.logaddexp({0}, {1})", ("{g} * _np.exp({0} - {y})", "{g} * _np.exp({1} - {y})"), elementwise=True,
    ),
    "log": _Op("_np.log({0})", ("{g} / {0}",), elementwise=True),
    # sign(0) = 0: the subgradient of |x| at the kink is taken as 0.
    "abs": _Op("_np.abs({0})", ("{g} * _np.sign({0})",), elementwise=True),
    "square": _Op("{0} * {0}", ("2.0 * {g} * {0}",), elementwise=True),
    "sqrt": _Op("_np.sqrt({0})", ("0.5 * {g} / {y}",), elementwise=True),
    "rsqrt": _Op("1.0 / _np.sqrt({0})", ("-0.5 * {g} * {y} * {y} * {y}",), elementwise=True),
    "sigmoid": _Op("_sigmoid({0})", ("{g} * {y} * (1.0 - {y})",), elementwise=True),
    "softmax": _Op(
        "_softmax({0})", ("{y} * ({g} - {t}inner)",),
        pre=("{t}inner = _row_sum({g} * {y})",), elementwise=True,
    ),
    "broadcast_add": _Op("{0} + {1}", ("{g}", "_sum({g}, 0)")),
    "normal_logpdf": _Op(
        "_densities.normal_logpdf({0}, {1}, {2})",
        ("-{g} * {t}z / {2}", "{g} * {t}z / {2}", "{g} * ({t}z * {t}z - 1.0) / {2}"),
        pre=_Z_PRE, elementwise=True, full_terms=True,
    ),
    "mvnormal_diag_logpdf": _Op(
        "_densities.mvnormal_diag_logpdf({0}, {1}, {2})",
        ("-{t}ge * {t}z / {2}", "{t}ge * {t}z / {2}", "{t}ge * ({t}z * {t}z - 1.0) / {2}"),
        pre=_Z_PRE + ("{t}ge = _np.asarray({g})[..., None]",), rows_of_input0=True, full_terms=True,
    ),
    # NaN outside the support so divergent chains trip the finiteness checks.
    "gamma_logpdf": _Op(
        "_densities.gamma_logpdf({0}, {1}, {2})",
        ("{g} * _np.where({0} > 0.0, ({1} - 1.0) / {t}safe - {2}, _np.nan)", None, None),
        pre=("{t}safe = _np.where({0} > 0.0, {0}, 1.0)",), elementwise=True,
    ),
    "categorical_logpdf": _Op(
        "_densities.categorical_logpdf({0}, {1})",
        ("{t}gprobs", None),
        pre=(
            "{t}idx = {1}.astype(_np.int64) if _checked else _densities.class_indices({1}, {0}.shape[1])",
            "{t}rows = _row_numbers({t}idx.size)",
            "{t}picked = {0}[{t}rows, {t}idx]",
            "{t}gprobs = _np.zeros_like({0})",
            "{t}gprobs[{t}rows, {t}idx] = _np.where("
            "{t}picked > _densities.PROB_CLAMP, _np.asarray({g}) / {t}picked, 0.0)",
        ),
        full_terms=True,
    ),
}
_SCALAR_GAMMA = _OPS["gamma_logpdf"]._replace(  # a rank-0 input's support: no np.where
    backward=("{g} * (({1} - 1.0) / {0} - {2} if {0} > 0.0 else _np.nan)", None, None), pre=())
_FIELDS = string.Formatter()
# `` * v<i>`` or `` / v<i>`` as a right operand, or the seed leading a product (not ``-_one``: -z flips a NaN).
_FACTOR = re.compile(r" [*/] (v\d+|_one)(?![\w.\[])|(?:^|(?<=\())(_one) \* ")
_SUBTRAHEND = re.compile(r" - (v\d+)(?=\)|$| [-+])")  # `` - v<i>`` as a whole operand


def _fields(templates) -> set:
    """The field names a group of templates uses, which is what they read."""
    return {name for text in templates for _, name, _, _ in _FIELDS.parse(text) if name}


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
        shape = tuple(_extent(f"variable {name!r}", d) for d in shape)
        if any(d < 0 for d in shape):
            raise ShapeError(f"variable {name!r}: negative extent in {shape}")
        self._check_leaf_name(name)
        ref = self._append("variable", (), shape, {"name": name})
        self._variables[name] = ref.index
        return ref

    def placeholder(self, name: str, shape: Sequence) -> NodeRef:
        shape = tuple(None if d is None else _extent(f"placeholder {name!r}", d) for d in shape)
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
        return self._binary("add", a, b)

    def subtract(self, a, b) -> NodeRef:
        return self._binary("subtract", a, b)

    def multiply(self, a, b) -> NodeRef:
        return self._binary("multiply", a, b)

    def divide(self, a, b) -> NodeRef:
        return self._binary("divide", a, b)

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

    def logaddexp(self, a, b) -> NodeRef:
        return self._binary("logaddexp", a, b)

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
        """Elementwise normal log density: mean and sd are scalars or of x's shape."""
        inputs = (self._lift(x), self._lift(mean), self._lift(sd))
        shape = inputs[0].shape
        for other, label in zip(inputs[1:], ("mean", "sd")):
            if other.shape != ():
                shape = _merge_shape(shape, other.shape, f"normal_logpdf {label}")
        return self._append("normal_logpdf", inputs, shape)

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
        """Elementwise Laplace log density, composed so autodiff derives its gradient."""
        return self.subtract(self.divide(self.negate(self.abs(self.subtract(x, loc))), scale),
                             self.log(self.multiply(2.0, scale)))

    def gamma_logpdf(self, x, shape_param: float, rate: float) -> NodeRef:
        x = self._lift(x)
        shape_param = float(shape_param)
        rate = float(rate)
        if shape_param <= 0.0 or rate <= 0.0:
            raise DomainError("gamma shape and rate must be positive")
        return self._append("gamma_logpdf", (x, self.constant(shape_param), self.constant(rate)), x.shape)

    def categorical_logpdf(self, probs, labels) -> NodeRef:
        probs, labels = self._lift(probs), self._lift(labels)
        if len(probs.shape) != 2 or len(labels.shape) != 1:
            raise ShapeError(
                f"categorical_logpdf needs probs (n, k) and labels (n,), got {probs.shape} and {labels.shape}"
            )
        n = _merge_dim(probs.shape[0], labels.shape[0], "categorical batch")
        return self._append("categorical_logpdf", (probs, labels), (n,))

    def mixture2_logpdf(self, x, loc1, loc2, scale1=None, scale2=None, weights=(0.5, 0.5)) -> NodeRef:
        """Per-row log density of a two-component diagonal-normal mixture.

        ``logaddexp`` of each component's log weight plus its
        ``mvnormal_diag_logpdf``, so autodiff derives the gradient.  A zero
        weight is the constant -inf, and its component's gradient is zero.
        """
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
        with np.errstate(divide="ignore"):
            lw1, lw2 = np.log(w1), np.log(w2)
        return self.logaddexp(
            self.add(lw1, self.mvnormal_diag_logpdf(x, loc1, s1)),
            self.add(lw2, self.mvnormal_diag_logpdf(x, loc2, s2)),
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

    def _binary(self, op, a, b) -> NodeRef:
        a, b = self._lift(a), self._lift(b)
        return self._append(op, (a, b), _elementwise_shape(a.shape, b.shape, op))

    def _append(self, op, inputs: tuple, shape: tuple, attrs=None) -> NodeRef:
        if self._built:
            raise ShapeError("graph already built; no further nodes may be declared")
        idx = len(self._nodes)
        node = Node(idx, op, tuple(ref.index for ref in inputs), shape, attrs or {})
        self._nodes.append(node)
        return NodeRef(self, idx, shape)


class Graph:
    """Frozen expression DAG.

    ``eval`` and ``grad`` check and conform the leaves that feed the target,
    then run a plan body compiled on first use and cached per output tuple
    or (objective, wrt) pair.  A body is one Python function, emitted as
    source and ``exec``-ed once: it takes the leaves positionally, computes
    the forward values the result reads, and, for ``grad``, one line per
    gradient contribution, in reverse node order.  ``grad`` never computes
    the objective's value, nor any other forward value that no backward step
    reads; ``categorical_logpdf``'s backward checks the labels its forward
    would.  A ``reduce_sum`` adjoint stays rank-0 where every term that reads
    it, through any pass-through of ``add``/``subtract``/``negate``, has the
    summed node's shape anyway, and is broadcast elsewhere, to the shape of
    the summed node's value.  Plans never change once built, and two threads
    that race to build one build equal functions, so a graph is shareable
    across threads without a lock; repeated calls with the same bindings
    return bit-identical results.
    """

    def __init__(self, nodes, variables, placeholders, outputs):
        self._nodes = nodes
        self._variables = variables
        self._placeholders = placeholders
        self._outputs = outputs
        self._plans: dict[tuple, Callable] = {}

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
            plan = self._plans[key] = self._compile([self._resolve(name) for name in names], names, grad=False)
        leaves, body = plan
        return dict(zip(names, body(*self._feed(leaves, bindings))))

    def grad(
        self,
        objective: str,
        wrt: Iterable[str],
        bindings: Mapping[str, Any],
    ) -> dict[str, np.ndarray]:
        """Reverse-mode gradient of a scalar output with respect to variables.

        One pass over the forward values the gradient reads, one backward
        pass.  Variables the objective does not depend on get zero gradients
        of the declared shape.
        """
        wrt = tuple(wrt)
        leaves, body = self._grad_plan(objective, wrt)
        flat = body(*self._feed(leaves, bindings))
        grads, start = {}, 0
        for name in wrt:
            shape = self._nodes[self._variables[name]].shape
            stop = start + math.prod(shape)
            grads[name] = flat[start:stop].reshape(shape).copy()
            start = stop
        return grads

    # -- internals -------------------------------------------------------------

    def _resolve(self, name: str) -> int:
        for table in (self._outputs, self._variables, self._placeholders):
            if name in table:
                return table[name]
        raise UnknownVariable(f"{name!r} names no output, variable or placeholder")

    def _check_labels(self, data) -> bool:
        """Check every categorical's labels over all rows of ``data``, if each is a placeholder there."""
        nodes = [node for node in self._nodes if node.op == "categorical_logpdf"]
        leaves = [self._nodes[node.inputs[1]] for node in nodes]
        if not nodes or any(leaf.op != "placeholder" or leaf.attrs["name"] not in data for leaf in leaves):
            return False
        for node, leaf in zip(nodes, leaves):
            densities.class_indices(data[leaf.attrs["name"]], self._nodes[node.inputs[0]].shape[1])
        return True

    def _grad_plan(self, objective: str, wrt: tuple) -> tuple[tuple, Callable]:
        """The (leaves, body) pair of a gradient, compiled on first use.

        ``body`` takes the value of each leaf in ``leaves`` positionally and
        returns one new float64 vector: the gradients by ``wrt``, each
        row-major, one after another.  Called with ``_checked=True`` after
        ``_check_labels`` returned True, it only casts the labels.
        """
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
            plan = self._plans[key] = self._compile([obj], wrt, grad=True)
        return plan

    def _feed(self, leaves, bindings: Mapping[str, Any]) -> list:
        """Each leaf's binding, checked and conformed, in a body's argument order."""
        args = []
        for node in leaves:
            name = node.attrs["name"]
            if name not in bindings:
                raise MissingFeed(f"no binding supplied for leaf {name!r}")
            arr = as_tensor(bindings[name])
            args.append(arr.reshape(self._conformed_shape(node, arr.shape))[()])  # rank-0 as a scalar
        return args

    def _compile(self, targets: list, names: tuple, grad: bool) -> tuple[tuple, Callable]:
        """Emit and ``exec`` the plan body for the target nodes.

        For ``eval`` the targets are the outputs called ``names``, and the
        body returns their values as arrays; for ``grad`` the one target is
        the objective, ``names`` are the variables to differentiate by, and
        the body returns their flat gradient.  Its arguments are the leaves
        feeding the targets, in node order, returned alongside it.  Names
        reach it through its namespace: identifiers come from node indices.
        """
        nodes = self._nodes

        def mark(flags, *indices):
            """Flag the nodes and every node they read."""
            stack = list(indices)
            while stack:
                i = stack.pop()
                if not flags[i]:
                    flags[i] = True
                    stack.extend(nodes[i].inputs)

        feeds = [False] * len(nodes)
        mark(feeds, *targets)
        keep = [False] * len(nodes)  # the value is computed: read, returned or its shape read

        # Which backward contributions run, and what they read.
        backward = []  # (node, op, [(input position, input index, template)]) in reverse order
        has_adjoint = [False] * len(nodes)
        if grad:
            wrt = {self._variables[name] for name in names}
            on_path = [False] * len(nodes)
            for node in nodes:
                if feeds[node.index]:
                    on_path[node.index] = node.index in wrt or any(on_path[i] for i in node.inputs)
            has_adjoint[targets[0]] = True
            for node in reversed(nodes):
                if not (node.inputs and on_path[node.index] and has_adjoint[node.index]):
                    continue
                op = _SCALAR_GAMMA if node.op == "gamma_logpdf" and node.shape == () else _OPS[node.op]
                contribs = [(k, i, text) for k, (i, text) in enumerate(zip(node.inputs, op.backward))
                            if on_path[i] and text is not None]
                if not contribs:
                    continue
                used = _fields(op.pre + tuple(text for _, _, text in contribs))
                backward.append((node, op, contribs))
                for _, i, _ in contribs:
                    has_adjoint[i] = True
                for field in used:
                    if field.isdigit():
                        mark(keep, node.inputs[int(field)])
                    elif field == "y":
                        mark(keep, node.index)
        else:
            mark(keep, *targets)

        ns = {
            "_np": np, "_densities": densities, "_sigmoid": _sigmoid, "_softmax": _softmax,
            "_row_sum": _row_sum, "_one": np.float64(1.0),
            "_row_numbers": functools.lru_cache(maxsize=16)(np.arange),  # only read
            # ``x.sum(axis)`` without the method's Python wrapper: the same reduction.
            "_sum": np.add.reduce,
        }

        def fill(text, node, **fields):
            return text.format(*(f"v{i}" for i in node.inputs), **fields)

        # Multiplying or dividing by 1.0 gives its operand's bits, and so does
        # subtracting +0.0: a backward statement drops a factor of the constant
        # 1.0 (a unit scale) or the seed, and a constant +0.0 (a zero mean).
        scalars = {f"v{n.index}": n.attrs["value"] for n in nodes if n.op == "constant" and n.shape == ()}
        unit = {"_one"} | {name for name, value in scalars.items() if value == 1.0}
        zero = {name for name, value in scalars.items() if value == 0.0 and not np.signbit(value)}

        def fill_backward(text, node, **fields):
            text = _FACTOR.sub(lambda m: "" if (m[1] or m[2]) in unit else m[0], fill(text, node, **fields))
            return _SUBTRAHEND.sub(lambda m: "" if m[1] in zero else m[0], text)

        grad_lines = []
        if grad:
            readers = {node.index: (op, contribs) for node, op, contribs in backward}

            def full_shaped(idx):
                """Whether idx's adjoint may stay rank-0.

                It may when every term reading it has idx's shape anyway, or
                passes it on (add, subtract, negate) to an input of idx's
                shape whose adjoint may stay rank-0 in turn.
                """
                if idx in wrt:  # a returned gradient
                    return False
                if idx not in readers:
                    return True
                op, contribs = readers[idx]
                rank = len(nodes[idx].shape)

                def full_term(i, text):
                    fields = _fields([text])
                    if fields == {"g"}:
                        return len(nodes[i].shape) == rank and full_shaped(i)
                    return any(f == "y" or f.isdigit() and len(nodes[nodes[idx].inputs[int(f)]].shape) == rank
                               for f in fields)

                return op.full_terms or op.elementwise and all(full_term(i, text) for _, i, text in contribs)

            # The name each adjoint is read as: one passed on bare gets no line.
            adjoint = {targets[0]: "_one"}
            for node, op, contribs in backward:
                idx = node.index
                fields = {"g": adjoint[idx], "y": f"v{idx}", "t": f"t{idx}_"}
                grad_lines.extend(fill_backward(text, node, **fields) for text in op.pre)
                for k, i, text in contribs:
                    term = fill_backward(text, node, **fields)
                    if op.elementwise and nodes[i].shape == () and node.shape != ():
                        term = f"_sum({term}, None)"
                    elif op.rows_of_input0 and k and len(nodes[node.inputs[0]].shape) == 2:
                        term = f"_sum({term}, 0)"
                    elif op.sums and nodes[i].shape != () and not full_shaped(i):
                        mark(keep, i)  # its value's shape is the one to broadcast to
                        term = f"_np.broadcast_to({term}, v{i}.shape)"
                    if i in adjoint:
                        grad_lines.append(f"g{i} = {adjoint[i]} + ({term})")
                    elif term.isidentifier():
                        adjoint[i] = term
                        continue
                    else:
                        grad_lines.append(f"g{i} = {term}")
                    adjoint[i] = f"g{i}"
            # Writing into a new vector copies, so the result never shares
            # memory with a forward value or a read-only broadcast view.
            start = 0
            for name in names:
                idx = self._variables[name]
                stop = start + math.prod(nodes[idx].shape)
                if has_adjoint[idx] and nodes[idx].shape == ():
                    grad_lines.append(f"_out[{start}] = {adjoint[idx]}")
                elif has_adjoint[idx]:
                    grad_lines.append(f"_out[{start}:{stop}] = {adjoint[idx]}.reshape(-1)")
                start = stop
            grad_lines.insert(0, f"_out = _np.zeros({start})")
            result = "_out"
        else:
            # A leaf's own value is copied, and a rank-0 one made an array.
            result = "(" + "".join(f"_np.asarray(v{idx}), " if nodes[idx].inputs else f"_np.array(v{idx}), "
                                   for idx in targets) + ")"

        for node in nodes:
            if feeds[node.index] and node.op == "constant":
                ns[f"v{node.index}"] = node.attrs["value"][()]  # rank-0 as a scalar
        leaves = tuple(node for node in nodes if feeds[node.index] and node.op in ("variable", "placeholder"))
        lines = [f"v{node.index} = " + fill(_OPS[node.op].forward, node)
                 for node in nodes if keep[node.index] and node.inputs]
        lines += grad_lines
        lines.append(f"return {result}")
        params = ", ".join([f"v{node.index}" for node in leaves] + ["_checked=False"] * grad)
        source = f"def plan({params}):\n" + "".join(f"    {line}\n" for line in lines)
        exec(compile(source, "<gradmc plan>", "exec"), ns)
        return leaves, ns["plan"]

    @staticmethod
    def _conformed_shape(leaf: Node, shape: tuple) -> tuple:
        """The shape a binding of ``shape`` takes as ``leaf``, or ShapeError.

        A binding keeps its shape where it matches the declared one, open
        axes matching any extent; a vector (n,) feeds a declared column
        (n, 1) as that column.
        """
        declared = leaf.shape
        if _dims_compatible(declared, shape):
            return shape
        if len(declared) == len(shape) + 1 and declared[-1] == 1 and _dims_compatible(declared[:-1], shape):
            return shape + (1,)
        raise ShapeError(f"binding for {leaf.attrs['name']!r} has shape {shape}, expected {declared}")
