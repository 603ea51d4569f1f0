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
whole-vector operations with one noise draw over the whole vector.  That draw
is bit-identical to one draw per parameter in sorted name order.

Randomness is consumed in a fixed, documented order - minibatch indices from
one spawned substream, injected noise from another - so chains are
bit-reproducible for a given seed and comparable across runs that differ only
in dataset size.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .data import Dataset, Minibatch, Rng, resolve_minibatch_size, sample_minibatch, standard_normal
from .errors import ConfigError, LifecycleError, NumericalDivergence, ShapeError
from .graph import Graph, GraphBuilder, NodeRef, as_tensor

__all__ = [
    "Model",
    "SamplerConfig",
    "ChainState",
    "ControlVariateState",
    "ChainOutput",
    "SamplerHandle",
    "ALGORITHMS",
    "estimate_gradient",
    "cv_gradient",
    "sgld_step",
    "sghmc_step",
    "sgnht_step",
    "find_mode",
    "full_log_posterior_grad",
    "sampler_setup",
    "run_chain",
]

ALGORITHMS = ("sgld", "sghmc", "sgnht", "sgldcv", "sghmccv", "sgnhtcv")
CV_ALGORITHMS = ("sgldcv", "sghmccv", "sgnhtcv")

# Reserved placeholder that scales the minibatch log likelihood inside the
# combined objective, so one backward pass yields the whole gradient estimate.
_SCALE = "__grad_scale__"
# Reserved prefix of the variables that hold the mode in the control-variate
# pair objective, and the output that sums the objective at both points.
_MODE = "__mode__"
_PAIR = "__cv_pair__"


class Model:
    """A differentiable log posterior: log-likelihood plus log-prior graphs.

    The log likelihood must be a sum of per-observation terms over whatever
    minibatch is fed, which is what makes the rescaled minibatch estimate
    unbiased.  The default prior is the constant 0 (improper flat).

    The graph also holds a reserved copy of every variable, named
    ``__mode__`` + its name, and a reserved output ``__cv_pair__``: the
    objective plus the same objective over those copies, with the data
    shared.  It lets :func:`cv_gradient` take both of its minibatch gradients
    in one call.  The copies are not parameters: ``param_names``,
    ``param_shapes`` and ``data_names`` never list them.
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
            _PAIR: objective + builder._renamed_copy(objective, _MODE),
        }
        if extra_outputs:
            outputs.update(extra_outputs)
        self.graph: Graph = builder.build(outputs)
        self.param_shapes = {
            name: shape
            for name, shape in self.graph.variables.items()
            if not name.startswith(_MODE)
        }
        self.param_names = tuple(sorted(self.param_shapes))
        # Where each parameter lies in the flat vector: its slice and shape.
        self._layout = {}
        start = 0
        for name in self.param_names:
            stop = start + math.prod(self.param_shapes[name])
            self._layout[name] = (slice(start, stop), self.param_shapes[name])
            start = stop
        self._mode_names = {name: _MODE + name for name in self.param_names}
        self._pair_wrt = self.param_names + tuple(self._mode_names.values())
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

    def log_posterior_value(self, params, data_bindings, scale=1.0) -> float:
        bindings = dict(data_bindings)
        bindings.update(params)
        bindings[_SCALE] = scale
        return float(self.graph.eval(bindings, ["objective"])["objective"])

    def log_lik_value(self, params, data_bindings) -> float:
        bindings = dict(data_bindings)
        bindings.update(params)
        return float(self.graph.eval(bindings, ["log_lik"])["log_lik"])

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
        for name, eps in self.resolved_stepsizes(param_names).items():
            if not eps > 0.0:
                raise ConfigError(f"stepsize for {name!r} must be positive, got {eps}")
        if float(self.minibatch_size) <= 0.0:
            raise ConfigError("minibatch size must be positive")
        if self.n_iters < 0:
            raise ConfigError("n_iters must be non-negative")
        if self.trajectory_length < 1:
            raise ConfigError("trajectory_length must be at least 1")
        if not 0.0 < self.friction < 1.0:
            raise ConfigError("friction must lie in (0, 1)")
        if not self.diffusion > 0.0:
            raise ConfigError("diffusion must be positive")
        if self.algorithm in CV_ALGORITHMS:
            if self.opt_stepsize is None or not self.opt_stepsize > 0.0:
                raise ConfigError(
                    f"{self.algorithm} needs a positive opt_stepsize for the mode search"
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

    The constructor resolves the config once per chain: ``stepsizes`` maps
    each parameter to its stepsize, ``eps`` repeats it per element in the
    flat layout, ``noise_scale`` is the per-element standard deviation of an
    update's injected noise (sqrt of eps for sgld, of 2*friction*eps for
    sghmc, of 2*diffusion*eps for sgnht), and ``minibatch_count`` is the
    minibatch size in rows.  It does not validate them; ``SamplerHandle``
    does.  Minibatch indices and injected noise come from two separate
    streams (spawned from the chain's root stream) so noise sequences stay
    aligned across runs that differ only in minibatch layout.
    """

    def __init__(self, model: Model, dataset: Dataset, config: SamplerConfig, params,
                 rng_batch: Rng, rng_noise: Rng, momenta=None, thermostats=None):
        family = config.algorithm.removesuffix("cv")
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
        self.eps = model.flatten({name: np.full(shape, self.stepsizes[name])
                                  for name, shape in model.param_shapes.items()})
        rate = {"sghmc": 2.0 * config.friction, "sgnht": 2.0 * config.diffusion}.get(family)
        self.noise_scale = np.sqrt(self.eps if rate is None else rate * self.eps)
        self.minibatch_count = resolve_minibatch_size(config.minibatch_size, dataset.n)


@dataclass(frozen=True)
class ControlVariateState:
    """Posterior-mode estimate and the exact full-data gradient at it."""

    mode_params: dict[str, np.ndarray]
    full_grad: dict[str, np.ndarray]


def estimate_gradient(model: Model, params, minibatch: Minibatch, n_total: int) -> dict[str, np.ndarray]:
    """Unbiased log-posterior gradient from one minibatch.

    Computes the prior gradient plus (N/n) times the minibatch likelihood
    gradient in a single reverse pass over the combined objective.
    """
    bindings = dict(minibatch.views)
    bindings.update(params)
    bindings[_SCALE] = n_total / minibatch.size
    return model.graph.grad("objective", model.param_names, bindings)


def cv_gradient(
    model: Model,
    params,
    cv: ControlVariateState,
    minibatch: Minibatch,
    n_total: int,
) -> dict[str, np.ndarray]:
    """Control-variate gradient estimate.

    Full gradient at the mode, recentred by the difference of the minibatch
    estimates at the current point and at the mode - both on the SAME
    minibatch, so the two noisy terms cancel exactly when params equal the
    mode.  Both estimates come from one gradient call on the model's pair
    objective, with the mode bound to its reserved variable copies; each
    half is bit-identical to ``estimate_gradient`` at its point.
    """
    bindings = dict(minibatch.views)
    bindings.update(params)
    for name, copy_name in model._mode_names.items():
        bindings[copy_name] = cv.mode_params[name]
    bindings[_SCALE] = n_total / minibatch.size
    grads = model.graph.grad(_PAIR, model._pair_wrt, bindings)
    return {
        name: cv.full_grad[name] + (grads[name] - grads[copy_name])
        for name, copy_name in model._mode_names.items()
    }


def full_log_posterior_grad(
    model: Model, dataset: Dataset, params, chunk_size: int | None = None
) -> dict[str, np.ndarray]:
    """Exact full-data log-posterior gradient.

    By default this is one pass over the whole dataset in natural row order,
    bit-identical to ``estimate_gradient`` with a full batch.  With
    ``chunk_size`` set, likelihood gradients accumulate chunk by chunk in a
    fixed sequential order (bit-reproducible across runs, lower peak memory).
    """
    n = dataset.n
    if chunk_size is None or chunk_size >= n:
        indices = np.arange(n)
        views = {name: arr[indices] for name, arr in dataset.entries.items()}
        return estimate_gradient(model, params, Minibatch(indices, views), n)
    total = model.graph.grad("log_prior", model.param_names, dict(params))
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        bindings = {
            name: arr[start:stop] for name, arr in dataset.entries.items()
        }
        bindings.update(params)
        part = model.graph.grad("log_lik", model.param_names, bindings)
        total = {name: total[name] + part[name] for name in model.param_names}
    return total


def _check_finite(model: Model, flat: np.ndarray, iteration: int, what: str) -> None:
    """Raise NumericalDivergence naming the first non-finite parameter in sorted name order.

    The common all-finite case costs one reduction over the whole vector.
    """
    if np.isfinite(flat).all():
        return
    name = next(name for name, part in model.views(flat).items() if not np.isfinite(part).all())
    raise NumericalDivergence(
        f"non-finite {what} for parameter {name!r} at iteration {iteration}",
        iteration=iteration,
        param=name,
    )


def _draw_gradient(state: ChainState, model, dataset, cv) -> np.ndarray:
    minibatch = sample_minibatch(dataset, state.minibatch_count, state.rng_batch)
    if cv is None:
        grad = estimate_gradient(model, state.params, minibatch, dataset.n)
    else:
        grad = cv_gradient(model, state.params, cv, minibatch, dataset.n)
    state.grad_evals += 1
    grad = model.flatten(grad)
    _check_finite(model, grad, state.iteration, "gradient")
    return grad


# The kernels write each update into ``state.theta`` and ``state.momentum``
# in place, so the named views follow.  Each formula runs in the order of the
# scalar one, so every element gets the bits the scalar formula gives it.

def sgld_step(state: ChainState, model: Model, dataset: Dataset, config: SamplerConfig,
              cv: ControlVariateState | None = None) -> ChainState:
    """One overdamped Langevin update: half a gradient step plus N(0, eps) noise."""
    eps = state.eps
    grad = _draw_gradient(state, model, dataset, cv)
    noise = standard_normal(state.rng_noise, eps.shape) * state.noise_scale
    state.theta[...] = state.theta + 0.5 * eps * grad + noise
    _check_finite(model, state.theta, state.iteration, "parameter")
    state.iteration += 1
    return state


def sghmc_step(state: ChainState, model: Model, dataset: Dataset, config: SamplerConfig,
               cv: ControlVariateState | None = None) -> ChainState:
    """One stored sghmc update: resample momenta, then run the inner trajectory.

    Each of the ``trajectory_length`` inner updates moves the parameters by the
    momenta, re-estimates the gradient on a fresh minibatch, and relaxes the
    momenta with fixed friction and N(0, 2*friction*eps) noise.
    """
    eps = state.eps
    alpha = config.friction
    state.momentum[...] = standard_normal(state.rng_noise, eps.shape) * np.sqrt(eps)
    for _ in range(config.trajectory_length):
        state.theta += state.momentum
        grad = _draw_gradient(state, model, dataset, cv)
        noise = standard_normal(state.rng_noise, eps.shape) * state.noise_scale
        state.momentum[...] = (1.0 - alpha) * state.momentum + eps * grad + noise
    _check_finite(model, state.theta, state.iteration, "parameter")
    state.iteration += 1
    return state


def sgnht_step(state: ChainState, model: Model, dataset: Dataset, config: SamplerConfig,
               cv: ControlVariateState | None = None) -> ChainState:
    """One thermostat update.

    After the momentum refresh, each parameter's thermostat moves by the gap
    between the mean-square momentum (Frobenius inner product over its
    elements) and its stepsize, steering the kinetic temperature to eps.
    """
    eps = state.eps
    state.theta += state.momentum
    grad = _draw_gradient(state, model, dataset, cv)
    noise = standard_normal(state.rng_noise, eps.shape) * state.noise_scale
    # Each parameter's thermostat spread over its segment of the momentum.
    decay = np.empty_like(eps)
    for name, part in model.views(decay).items():
        part[...] = 1.0 - state.thermostats[name]
    state.momentum[...] = decay * state.momentum + eps * grad + noise
    for name, nu in state.momenta.items():
        state.thermostats[name] += float(np.vdot(nu, nu)) / max(1, nu.size) - state.stepsizes[name]
    _check_finite(model, state.theta, state.iteration, "parameter")
    state.iteration += 1
    return state


# Kernel per family; a control-variate algorithm is its family plus "cv".
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
    params = model.views(theta)
    n = resolve_minibatch_size(minibatch_size, dataset.n)
    for t in range(opt_iters):
        minibatch = sample_minibatch(dataset, n, rng)
        grad = model.flatten(estimate_gradient(model, params, minibatch, dataset.n))
        _check_finite(model, grad, t, "optimizer gradient")
        theta += opt_stepsize * grad
        _check_finite(model, theta, t, "optimizer parameter")
    return params


class SamplerHandle:
    """Step-by-step access to one chain: setup, init, step, read parameters.

    Handles are single-owner and strictly sequential; run several handles (with
    spawned or distinct seeds) for parallel chains.
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

    @property
    def is_cv(self) -> bool:
        return self.config.algorithm in CV_ALGORITHMS

    def init(self) -> "SamplerHandle":
        """Initialize the chain state; for CV algorithms this runs the mode
        search and the full-data gradient pass, and starts the chain there.

        Building the ``ChainState`` resolves the stepsizes and the minibatch
        count from the config, once per chain."""
        config = self.config
        # The (batch, noise) pair is spawned once per handle and every init()
        # restarts fresh copies of it, so a re-initialised chain repeats itself.
        if self._substreams is None:
            self._substreams = self._rng.spawn(2)
        rng_batch, rng_noise = (copy.deepcopy(stream) for stream in self._substreams)
        start = self.initial_params
        if self.is_cv:
            opt_iters = config.opt_iters if config.opt_iters is not None else config.n_iters
            mode = find_mode(self.model, self.dataset, start, config.opt_stepsize, opt_iters,
                             config.minibatch_size, rng_batch)
            full = full_log_posterior_grad(self.model, self.dataset, mode)
            self.cv = ControlVariateState(mode_params=mode, full_grad=full)
            start = mode
        state = ChainState(self.model, self.dataset, config, start, rng_batch, rng_noise)
        if config.algorithm.removesuffix("cv") == "sgnht":
            state.momentum[...] = standard_normal(rng_noise, state.eps.shape) * np.sqrt(state.eps)
        self.state = state
        return self

    def step(self) -> None:
        """Advance the chain by exactly one stored kernel update."""
        if self.state is None:
            raise LifecycleError("sampler stepped before init()")
        _KERNELS[self.config.algorithm.removesuffix("cv")](
            self.state, self.model, self.dataset, self.config, cv=self.cv
        )

    def get_params(self) -> dict[str, np.ndarray]:
        """Copy of the current parameters, detached from the chain."""
        if self.state is None:
            raise LifecycleError("sampler read before init()")
        return self.model.views(self.state.theta.copy())


def sampler_setup(model, dataset, initial_params, config, rng=None) -> SamplerHandle:
    """Validate everything and return an un-initialized sampler handle."""
    return SamplerHandle(model, dataset, initial_params, config, rng=rng)


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
    handle = sampler_setup(model, dataset, initial_params, config, rng=rng).init()
    start = handle.get_params()
    rows = np.empty((config.n_iters, handle.state.theta.size)) if hook is None else None
    hook_values = None if hook is None else []
    for t in range(config.n_iters):
        handle.step()
        if hook is None:
            rows[t] = handle.state.theta
        else:
            value = hook(handle.get_params())
            if value is not None:
                hook_values.append(value)
    return ChainOutput(
        start_params=start,
        samples=None if rows is None else model.views(rows),
        hook_values=hook_values,
        final_state=handle.state,
    )
