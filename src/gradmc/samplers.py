"""Minibatch-gradient MCMC kernels and the step-by-step chain lifecycle.

Six algorithms share one structure: draw a minibatch, form an unbiased
estimate of the log-posterior gradient from it, and push the parameters along
a discretized diffusion with injected Gaussian noise.  The plain kernels are
``sgld`` (overdamped Langevin), ``sghmc`` (momentum with friction, several
inner updates per stored step) and ``sgnht`` (momentum with an adaptive
thermostat in place of fixed friction).  Each has a control-variate twin
(``sgldcv``/``sghmccv``/``sgnhtcv``) that recentres the gradient estimate
around a posterior-mode estimate found by stochastic gradient ascent, which
removes most of the minibatch noise near the mode.

A chain keeps its parameters (and momenta) in one contiguous float64 vector,
laid out by ``Model.flatten`` in sorted name order, so each update is a few
whole-vector operations with one row of noise over the whole vector.  The
rows are drawn from the noise stream in blocks of about 64 KiB; a block
holds the bits of as many one-row draws, and a row those of one draw per
parameter in sorted name order.  The chain binds its gradient plan once over
that vector, and gets one flat gradient per minibatch, bit for bit
``Graph.grad`` of ``objective`` at scale N/n; a control-variate chain binds
one function over the chain's vector and the mode.  A kernel takes only its
``ChainState``; sghmc and sgnht share one inner update, each with its decay.

Randomness is consumed in a fixed, documented order - minibatch indices from
one spawned substream, injected noise from another - so chains are
bit-reproducible for a given seed and comparable across runs that differ only
in dataset size.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .data import _BLOCK_VALUES, Dataset, Rng, resolve_minibatch_size, sample_minibatch, standard_normal
from .errors import ConfigError, LifecycleError, MissingFeed, NumericalDivergence, ShapeError
from .graph import Graph, GraphBuilder, NodeRef, as_tensor

__all__ = [
    "Model",
    "SamplerConfig",
    "ChainState",
    "ControlVariateState",
    "ChainOutput",
    "SamplerHandle",
    "ALGORITHMS",
    "sgld_step",
    "sghmc_step",
    "sgnht_step",
    "find_mode",
    "full_log_posterior_grad",
    "run_chain",
]

ALGORITHMS = ("sgld", "sghmc", "sgnht", "sgldcv", "sghmccv", "sgnhtcv")
CV_ALGORITHMS = ("sgldcv", "sghmccv", "sgnhtcv")

# Reserved placeholder that scales the minibatch log likelihood inside the
# combined objective, so one backward pass yields the whole gradient estimate.
_SCALE = "__grad_scale__"


class Model:
    """A differentiable log posterior: log-likelihood plus log-prior graphs.

    The log likelihood must be a sum of per-observation terms over whatever
    minibatch is fed, which is what makes the rescaled minibatch estimate
    unbiased.  The default prior is the constant 0 (improper flat).

    The graph's outputs are ``log_lik``, ``log_prior``, any extra outputs,
    and ``objective``: the log prior plus the log likelihood scaled by the
    reserved placeholder ``__grad_scale__``.  A chain, its mode search and
    the full-data pass all differentiate ``objective``, so they share one
    gradient plan.  The parameters are the graph's variables, and
    the data its other placeholders.
    """

    def __init__(
        self,
        builder: GraphBuilder,
        log_lik: NodeRef,
        log_prior: NodeRef | None = None,
        extra_outputs: Mapping[str, NodeRef] | None = None,
        validate_params: Callable[[Mapping[str, np.ndarray]], None] | None = None,
    ):
        if log_lik.shape != ():
            raise ShapeError(f"log likelihood must be scalar, has shape {log_lik.shape}")
        if log_prior is None:
            log_prior = builder.constant(0.0)
        if log_prior.shape != ():
            raise ShapeError(f"log prior must be scalar, has shape {log_prior.shape}")
        scale = builder.placeholder(_SCALE, ())
        objective = log_prior + scale * log_lik
        outputs = {
            "log_lik": log_lik,
            "log_prior": log_prior,
            "objective": objective,
        }
        if extra_outputs:
            outputs.update(extra_outputs)
        self.graph: Graph = builder.build(outputs)
        self.param_shapes = self.graph.variables
        self.param_names = tuple(sorted(self.param_shapes))
        # Where each parameter lies in the flat vector: its slice and shape.
        self._layout = {}
        start = 0
        for name in self.param_names:
            stop = start + math.prod(self.param_shapes[name])
            self._layout[name] = (slice(start, stop), self.param_shapes[name])
            start = stop
        self.data_names = tuple(
            name for name in self.graph.placeholders if name != _SCALE
        )
        self._validate_params = validate_params

    def check_params(self, params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Validate + copy a parameter map against the declared shapes."""
        out = {}
        for name in self.param_names:
            if name not in params:
                raise ShapeError(f"missing initial value for parameter {name!r}")
            arr = as_tensor(params[name]).copy()
            if arr.shape != self.param_shapes[name]:
                raise ShapeError(
                    f"parameter {name!r} has shape {arr.shape}, expected {self.param_shapes[name]}"
                )
            out[name] = arr
        if self._validate_params is not None:
            self._validate_params(out)
        return out

    def flatten(self, tensors: Mapping[str, np.ndarray]) -> np.ndarray:
        """A new float64 vector of the named tensors, each row-major, in ``param_names`` order."""
        # A model without parameters flattens to an empty vector.
        parts = [tensors[name] for name in self.param_names] or [()]
        return np.concatenate(parts, axis=None, dtype=np.float64)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view into a flat vector, or into every row of a stack of them."""
        lead = flat.shape[:-1]
        return {name: flat[..., part].reshape(lead + shape) for name, (part, shape) in self._layout.items()}

    def eval_output(self, name, params, data_bindings=None) -> np.ndarray:
        bindings = dict(data_bindings or {})
        bindings.update(params)
        return self.graph.eval(bindings, [name])[name]


@dataclass
class SamplerConfig:
    """Tuning constants for one chain.

    ``stepsize`` is a positive scalar (applied to every parameter) or a map of
    parameter name to stepsize.  ``minibatch_size`` below 1 is a proportion of
    the dataset, 1 or above an absolute count.  ``friction`` is the fixed
    momentum decay of sghmc, ``diffusion`` the injected-noise scale of sgnht,
    ``trajectory_length`` the number of inner sghmc updates per stored step.
    The control-variate algorithms also need ``opt_stepsize`` for the mode
    search; ``opt_iters`` defaults to ``n_iters``.
    """

    algorithm: str
    stepsize: float | Mapping[str, float]
    minibatch_size: float = 0.01
    n_iters: int = 10_000
    seed: int = 1
    friction: float = 0.01
    diffusion: float = 0.01
    trajectory_length: int = 5
    opt_stepsize: float | None = None
    opt_iters: int | None = None

    def resolved_stepsizes(self, param_names) -> dict[str, float]:
        if isinstance(self.stepsize, Mapping):
            unknown = set(self.stepsize) - set(param_names)
            if unknown:
                raise ConfigError(f"stepsize names {sorted(unknown)} match no parameter")
            missing = set(param_names) - set(self.stepsize)
            if missing:
                raise ConfigError(f"no stepsize given for {sorted(missing)}")
            return {name: float(self.stepsize[name]) for name in param_names}
        return {name: float(self.stepsize) for name in param_names}

    def validate(self, param_names) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        # A bool is neither a count nor a real setting; numpy scalars are both.
        for name in ("n_iters", "trajectory_length", "opt_iters", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    or value is None and name == "opt_iters"):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        stepsizes = self.stepsize.values() if isinstance(self.stepsize, Mapping) else [self.stepsize]
        reals = [("stepsize", eps) for eps in stepsizes] + [
            (name, getattr(self, name)) for name in ("minibatch_size", "friction", "diffusion", "opt_stepsize")]
        for name, value in reals:
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    or value is None and name == "opt_stepsize"):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        for name, eps in self.resolved_stepsizes(param_names).items():
            if not 0.0 < eps < math.inf:
                raise ConfigError(f"stepsize for {name!r} must be positive and finite, got {eps}")
        if not 0.0 < float(self.minibatch_size) < math.inf:
            raise ConfigError("minibatch size must be positive and finite")
        if self.minibatch_size >= 1 and self.minibatch_size != int(self.minibatch_size):
            raise ConfigError(f"a minibatch size of 1 or more is a count of rows, got {self.minibatch_size}")
        if self.n_iters < 0:
            raise ConfigError("n_iters must be non-negative")
        if self.trajectory_length < 1:
            raise ConfigError("trajectory_length must be at least 1")
        if not 0.0 < self.friction < 1.0:
            raise ConfigError("friction must lie in (0, 1)")
        if not 0.0 < self.diffusion < math.inf:
            raise ConfigError("diffusion must be positive and finite")
        if self.algorithm in CV_ALGORITHMS:
            if self.opt_stepsize is None or not 0.0 < self.opt_stepsize < math.inf:
                raise ConfigError(
                    f"{self.algorithm} needs a positive, finite opt_stepsize for the mode search"
                )
            if self.opt_iters is not None and self.opt_iters < 1:
                raise ConfigError("opt_iters must be at least 1")


class ChainState:
    """Mutable per-chain state: the flat parameter vector plus kernel extras.

    ``theta`` holds every parameter, and ``momentum`` (sghmc/sgnht) every
    momentum, in one float64 vector laid out by ``Model.flatten``; ``params``
    and ``momenta`` are their named views, so the kernels' in-place updates
    show through them.  ``thermostats`` (sgnht) holds one value per
    parameter.  Left out, momenta start at zero and a thermostat at the
    config's ``diffusion``.

    A kernel takes only the state, which keeps the ``model`` and ``dataset``
    its gradient is bound to.  The constructor resolves the config once per
    chain, so a later change to the config moves nothing: ``stepsizes`` maps
    each parameter to its stepsize, ``eps`` repeats it per element in the
    flat layout, ``half_eps`` halves it, ``sqrt_eps`` (a momentum draw's
    scale) is its square root, ``noise_scale`` the per-element standard
    deviation of an update's injected noise (sqrt of eps for sgld, of
    2*friction*eps for sghmc, of 2*diffusion*eps for sgnht), ``decay``
    sghmc's 1 - friction, ``trajectory_length`` its inner updates,
    ``minibatch_count`` the minibatch size in rows, and ``sizes`` each
    parameter's element count.  It does not validate
    them; ``SamplerHandle`` does.  ``gradient`` maps a minibatch's rows to
    the flat gradient estimate at ``theta``, bit for bit ``Graph.grad`` of
    ``objective`` at scale N/n; given ``cv``, to the full gradient plus the
    difference of the estimates at ``theta`` and at the mode on those rows.
    Minibatch indices and injected noise come from two separate streams
    (spawned from the chain's root stream) so noise sequences stay aligned
    across runs that differ only in minibatch layout.
    """

    def __init__(self, model: Model, dataset: Dataset, config: SamplerConfig, params,
                 rng_batch: Rng, rng_noise: Rng, momenta=None, thermostats=None,
                 cv: ControlVariateState | None = None):
        family = config.algorithm.removesuffix("cv")
        self.model = model
        self.dataset = dataset
        self.theta = model.flatten(params)
        self.params = model.views(self.theta)
        self.momentum = self.momenta = self.thermostats = None
        if family in ("sghmc", "sgnht"):
            self.momentum = np.zeros_like(self.theta) if momenta is None else model.flatten(momenta)
            self.momenta = model.views(self.momentum)
        if family == "sgnht":
            self.thermostats = dict.fromkeys(model.param_names, config.diffusion)
            self.thermostats.update(thermostats or {})
        self.iteration = 0
        self.rng_batch = rng_batch
        self.rng_noise = rng_noise
        self.grad_evals = 0
        self.stepsizes = config.resolved_stepsizes(model.param_names)
        self.sizes = [math.prod(model.param_shapes[name]) for name in model.param_names]
        self.eps = model.flatten({name: np.full(shape, self.stepsizes[name])
                                  for name, shape in model.param_shapes.items()})
        self.half_eps = 0.5 * self.eps
        self.sqrt_eps = np.sqrt(self.eps)
        rate = {"sghmc": 2.0 * config.friction, "sgnht": 2.0 * config.diffusion}.get(family)
        self.noise_scale = self.sqrt_eps if rate is None else np.sqrt(rate * self.eps)
        self.decay = 1.0 - config.friction
        self.trajectory_length = config.trajectory_length
        self.minibatch_count = resolve_minibatch_size(config.minibatch_size, dataset.n)
        self.gradient = _bind_gradient(model, dataset, self.minibatch_count, self.theta, cv)


@dataclass(frozen=True)
class ControlVariateState:
    """Posterior-mode estimate and the exact full-data gradient at it."""

    mode_params: dict[str, np.ndarray]
    full_grad: dict[str, np.ndarray]


def _bind_gradient(model: Model, dataset: Dataset, n: int, theta: np.ndarray,
                   cv: ControlVariateState | None = None) -> Callable[[Mapping], np.ndarray]:
    """The flat gradient estimate at ``theta`` as a function of an n-row minibatch's rows.

    Bit for bit ``Graph.grad`` of ``objective`` with the rows bound and the
    scale at N/n; given ``cv``, the full gradient plus the difference of two
    such gradients, at ``theta`` and at the mode, from one call.  A call reads
    each rank-0 parameter from its point as a numpy scalar; every other
    parameter is a view of it, and the scale N/n is a constant.  The data's
    shapes and class labels are checked here, once.
    """
    checked = ", _checked=True" if model.graph._check_labels(dataset) else ""
    leaves, body = model.graph._grad_plan("objective", model.param_names)
    points = [theta] if cv is None else [theta, model.flatten(cv.mode_params)]
    ns = {"_body": body, "_scale": np.asarray(dataset.n / n)[()]}  # rank-0 as a numpy scalar
    lines, args = [], [[] for _ in points]
    for k, leaf in enumerate(leaves):
        name = leaf.attrs["name"]
        if name in model.param_shapes:
            scalar = leaf.shape == ()
            for p, point in enumerate(points):
                ns[f"_p{p}_{k}"] = point if scalar else model.views(point)[name]
                args[p].append(f"_p{p}_{k}[{model._layout[name][0].start}]" if scalar else f"_p{p}_{k}")
            continue
        if name == _SCALE:
            value = "_scale"
        elif name not in dataset:
            raise MissingFeed(f"no binding supplied for leaf {name!r}")
        else:  # data, read from the rows once
            rows = (n,) + dataset[name].shape[1:]
            shape = model.graph._conformed_shape(leaf, rows)
            ns[f"_a{k}"], ns[f"_s{k}"] = name, shape
            lines.append(f"d{k} = rows[_a{k}]" + ("" if shape == rows else f".reshape(_s{k})"))
            value = f"d{k}"
        for point_args in args:
            point_args.append(value)
    calls = [f"_body({', '.join(point_args)}{checked})" for point_args in args]
    if cv is None:
        lines.append(f"return {calls[0]}")
    else:
        ns["_full"] = model.flatten(cv.full_grad)
        lines.append(f"return _full + ({calls[0]} - {calls[1]})")
    source = "def gradient(rows):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, "<gradmc bound gradient>", "exec"), ns)
    return ns["gradient"]


def full_log_posterior_grad(model: Model, dataset: Dataset, params) -> dict[str, np.ndarray]:
    """Exact full-data log-posterior gradient.

    One pass over the whole dataset in natural row order, bit-identical to
    the chain's bound gradient over all N rows in that order.  The pass reads
    the dataset's stored arrays themselves, with the likelihood scale at
    n / n = 1: it gathers no copy of the rows.
    """
    bindings = dict(dataset.entries)
    bindings.update(params)
    bindings[_SCALE] = 1.0
    return model.graph.grad("objective", model.param_names, bindings)


def _check_finite(model: Model, flat: np.ndarray, iteration: int, what: str) -> None:
    """Raise NumericalDivergence naming the first non-finite parameter in sorted name order.

    The common all-finite case costs one elementwise test and one count over
    the whole vector; ``count_nonzero`` skips the Python wrapper of
    ``ndarray.all``, which dominates the check of a small vector.
    """
    if np.count_nonzero(np.isfinite(flat)) == flat.size:
        return
    name = next(name for name, part in model.views(flat).items() if not np.isfinite(part).all())
    raise NumericalDivergence(
        f"non-finite {what} for parameter {name!r} at iteration {iteration}",
        iteration=iteration,
        param=name,
    )


def _accept(model: Model, theta: np.ndarray, candidate: np.ndarray, grad: np.ndarray,
            iteration: int, what: str = "") -> None:
    """Write a gradient step's candidate into ``theta`` after one finiteness test of it.

    A non-finite gradient element gives a non-finite candidate element, so a
    failing candidate is traced to the gradient first: the error is the one
    that testing the gradient and then the parameters raises, and ``theta``
    keeps its last finite value.
    """
    if np.count_nonzero(np.isfinite(candidate)) != candidate.size:
        _check_finite(model, grad, iteration, what + "gradient")
        _check_finite(model, candidate, iteration, what + "parameter")
    theta[...] = candidate


def _draw_gradient(state: ChainState) -> np.ndarray:
    grad = state.gradient(sample_minibatch(state.dataset, state.minibatch_count, state.rng_batch).views)
    state.grad_evals += 1
    return grad


def _noise(rng: Rng, size: int) -> np.ndarray:
    """The noise stream's next ``size`` standard normals: the bits of its next ``(size,)`` draw.

    PCG64 fills a ``(k, size)`` block with the bits of k consecutive
    ``(size,)`` draws, so one ``standard_normal`` call draws a block of rows
    into ``rng.pending_rows``; each row counts as one draw when served.
    Pending rows of another size are dropped.
    """
    row = next(rng.pending_rows, None)
    if row is None or row.size != size:
        rng.pending_rows = iter(standard_normal(rng, (max(1, _BLOCK_VALUES // max(1, size)), size)))
        return next(rng.pending_rows)  # counted by the block's draw
    rng.draw_count += 1
    return row


# The kernels write each update into ``state.theta`` and ``state.momentum``
# in place, so the named views follow; a step that raises leaves them and
# the thermostats as they were.  Each formula runs in the order of the
# scalar one, so every element gets the bits the scalar formula gives it.

def sgld_step(state: ChainState) -> ChainState:
    """One overdamped Langevin update: half a gradient step plus N(0, eps) noise."""
    grad = _draw_gradient(state)
    candidate = state.theta + state.half_eps * grad
    candidate += _noise(state.rng_noise, grad.size) * state.noise_scale
    _accept(state.model, state.theta, candidate, grad, state.iteration)
    state.iteration += 1
    return state


def _momentum_update(state: ChainState, momentum: np.ndarray, decay) -> np.ndarray:
    """sghmc's and sgnht's inner update: move theta, draw and test a gradient, return the next momentum."""
    state.theta += momentum
    grad = _draw_gradient(state)
    _check_finite(state.model, grad, state.iteration, "gradient")
    noise = _noise(state.rng_noise, grad.size) * state.noise_scale
    return decay * momentum + state.eps * grad + noise


def sghmc_step(state: ChainState) -> ChainState:
    """One stored sghmc update: resample momenta, then run the inner trajectory.

    Each of the ``trajectory_length`` inner updates moves the parameters by the
    momenta, re-estimates the gradient on a fresh minibatch, and relaxes the
    momenta with fixed friction and N(0, 2*friction*eps) noise.  So the last
    inner gradient goes into a momentum that the next stored step redraws,
    and never reaches the parameters: at ``trajectory_length`` 1 the chain is
    a random walk that ignores the posterior.
    """
    start = state.theta.copy()
    momentum = _noise(state.rng_noise, start.size) * state.sqrt_eps
    try:
        for _ in range(state.trajectory_length):
            momentum = _momentum_update(state, momentum, state.decay)
        _check_finite(state.model, state.theta, state.iteration, "parameter")
        _check_finite(state.model, momentum, state.iteration, "momentum")
    except BaseException:
        state.theta[...] = start
        raise
    state.momentum[...] = momentum
    state.iteration += 1
    return state


def sgnht_step(state: ChainState) -> ChainState:
    """One thermostat update: sghmc's inner update, with 1 - thermostat as its decay.

    After the momentum refresh, each parameter's thermostat moves by the gap
    between the mean-square momentum (Frobenius inner product over its
    elements) and its stepsize, steering the kinetic temperature to eps.
    """
    model = state.model
    # Each parameter's thermostat spread over its segment of the momentum.
    decay = np.repeat(1.0 - np.array([state.thermostats[name] for name in model.param_names]), state.sizes)
    start = state.theta.copy()
    try:
        momentum = _momentum_update(state, state.momentum, decay)
        _check_finite(model, state.theta, state.iteration, "parameter")
        _check_finite(model, momentum, state.iteration, "momentum")
        thermostats = {name: state.thermostats[name] + (float(np.vdot(nu, nu)) / max(1, nu.size) - state.stepsizes[name])
                       for name, nu in model.views(momentum).items()}
        for name, value in thermostats.items():
            if not math.isfinite(value):
                raise NumericalDivergence(f"non-finite thermostat for parameter {name!r} at iteration {state.iteration}",
                                          iteration=state.iteration, param=name)
    except BaseException:
        state.theta[...] = start
        raise
    state.momentum[...] = momentum
    state.thermostats.update(thermostats)
    state.iteration += 1
    return state


# Kernel per family; a control-variate algorithm is its family plus "cv".
# ``SamplerHandle.init`` picks one per chain.
_KERNELS = {"sgld": sgld_step, "sghmc": sghmc_step, "sgnht": sgnht_step}


def find_mode(
    model: Model,
    dataset: Dataset,
    initial_params,
    opt_stepsize: float,
    opt_iters: int,
    minibatch_size: float,
    rng: Rng,
) -> dict[str, np.ndarray]:
    """Stochastic gradient ascent on the minibatch log-posterior estimate.

    Plain fixed-stepsize ascent from the given starting point; returns the
    final iterate as the posterior-mode estimate.
    """
    theta = model.flatten(model.check_params(initial_params))
    n = resolve_minibatch_size(minibatch_size, dataset.n)
    gradient = _bind_gradient(model, dataset, n, theta)
    for t in range(opt_iters):
        grad = gradient(sample_minibatch(dataset, n, rng).views)
        _accept(model, theta, theta + opt_stepsize * grad, grad, t, "optimizer ")
    return model.views(theta)


class SamplerHandle:
    """Step-by-step access to one chain: setup, init, step, read parameters.

    Handles are single-owner and strictly sequential; run several handles (with
    spawned or distinct seeds) for several chains, one after another, as
    ``gradmc run --chains k`` does.
    """

    def __init__(self, model: Model, dataset: Dataset, initial_params, config: SamplerConfig,
                 rng: Rng | None = None):
        config.validate(model.param_names)
        missing = [name for name in model.data_names if name not in dataset]
        if missing:
            raise ConfigError(f"dataset lacks entries {missing} required by the model")
        self.model = model
        self.dataset = dataset
        self.config = config
        self.initial_params = model.check_params(initial_params)
        self._rng = rng if rng is not None else Rng(config.seed)
        self._substreams: list[Rng] | None = None
        self.state: ChainState | None = None
        self.cv: ControlVariateState | None = None

    def init(self) -> "SamplerHandle":
        """Initialize the chain state; for CV algorithms this runs the mode
        search and the full-data gradient pass, and starts the chain there.

        It validates the config again, then the ``ChainState`` resolves every
        setting the kernel reads from it and binds the gradient, once per
        chain; the kernel is picked here too, and a step reads the state alone."""
        config = self.config
        config.validate(self.model.param_names)
        # The (batch, noise) pair is spawned once per handle and every init()
        # restarts fresh copies of it, so a re-initialised chain repeats itself.
        if self._substreams is None:
            self._substreams = self._rng.spawn(2)
        rng_batch, rng_noise = (copy.deepcopy(stream) for stream in self._substreams)
        start = self.initial_params
        if config.algorithm in CV_ALGORITHMS:
            opt_iters = config.opt_iters if config.opt_iters is not None else config.n_iters
            mode = find_mode(self.model, self.dataset, start, config.opt_stepsize, opt_iters,
                             config.minibatch_size, rng_batch)
            full = full_log_posterior_grad(self.model, self.dataset, mode)
            self.cv = ControlVariateState(mode_params=mode, full_grad=full)
            start = mode
        state = ChainState(self.model, self.dataset, config, start, rng_batch, rng_noise, cv=self.cv)
        family = config.algorithm.removesuffix("cv")
        if family == "sgnht":
            state.momentum[...] = _noise(rng_noise, state.eps.size) * state.sqrt_eps
        self._kernel = _KERNELS[family]
        self.state = state
        return self

    def step(self) -> None:
        """Advance the chain by exactly one stored kernel update."""
        if self.state is None:
            raise LifecycleError("sampler stepped before init()")
        self._kernel(self.state)

    def get_params(self) -> dict[str, np.ndarray]:
        """Copy of the current parameters, detached from the chain."""
        if self.state is None:
            raise LifecycleError("sampler read before init()")
        return self.model.views(self.state.theta.copy())


@dataclass
class ChainOutput:
    """Result of a convenience-loop run.

    ``samples[name]`` stacks the post-update parameter values, one leading row
    per iteration.  When a hook was given, only its outputs are kept, in
    iteration order, and a ``None`` output is not kept.
    ``start_params`` is the state at iteration 0 (the mode estimate for CV
    algorithms, the user's initial values otherwise).
    """

    start_params: dict[str, np.ndarray]
    samples: dict[str, np.ndarray] | None
    hook_values: list | None
    final_state: ChainState


def run_chain(model, dataset, initial_params, config, hook=None, rng=None) -> ChainOutput:
    """Run a full chain; store every iterate, or just a test function of it.

    ``hook``, when given, is called after every step with a detached copy of
    the parameters and only its return values are stored (constant-memory mode
    for high-dimensional chains).  A hook that returns ``None`` stores
    nothing, so one that records elsewhere leaves ``hook_values`` empty.
    """
    handle = SamplerHandle(model, dataset, initial_params, config, rng=rng).init()
    start = handle.get_params()
    theta = handle.state.theta
    rows = np.empty((config.n_iters, theta.size)) if hook is None else None
    hook_values = None if hook is None else []
    for t in range(config.n_iters):
        handle.step()
        if hook is None:
            rows[t] = theta
        else:
            value = hook(model.views(theta.copy()))  # get_params() without its lifecycle check
            if value is not None:
                hook_values.append(value)
    return ChainOutput(
        start_params=start,
        samples=None if rows is None else model.views(rows),
        hook_values=hook_values,
        final_state=handle.state,
    )
