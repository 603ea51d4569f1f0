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

Randomness is consumed in a fixed, documented order - minibatch indices from
one spawned substream, injected noise from another, parameters visited in
sorted name order - so chains are bit-reproducible for a given seed and
comparable across runs that differ only in dataset size.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
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


class Model:
    """A differentiable log posterior: log-likelihood plus log-prior graphs.

    The log likelihood must be a sum of per-observation terms over whatever
    minibatch is fed, which is what makes the rescaled minibatch estimate
    unbiased.  The default prior is the constant 0 (improper flat).
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
        self.param_shapes = {
            name: shape
            for name, shape in self.graph.variables.items()
        }
        self.param_names = tuple(sorted(self.param_shapes))
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


@dataclass
class ChainState:
    """Mutable per-chain state: current parameters plus kernel extras.

    Momenta exist for sghmc/sgnht, thermostats for sgnht only.  ``rng`` is the
    chain's root stream; minibatch indices and injected noise come from the
    two spawned substreams so noise sequences stay aligned across runs that
    differ only in minibatch layout.
    """

    params: dict[str, np.ndarray]
    momenta: dict[str, np.ndarray] | None
    thermostats: dict[str, float] | None
    iteration: int
    rng: Rng
    rng_batch: Rng = field(repr=False, default=None)
    rng_noise: Rng = field(repr=False, default=None)
    grad_evals: int = 0

    def __post_init__(self):
        if self.rng_batch is None or self.rng_noise is None:
            self.rng_batch, self.rng_noise = self.rng.spawn(2)


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
    mode.
    """
    g_here = estimate_gradient(model, params, minibatch, n_total)
    g_mode = estimate_gradient(model, cv.mode_params, minibatch, n_total)
    return {
        name: cv.full_grad[name] + (g_here[name] - g_mode[name])
        for name in model.param_names
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


def _check_finite(tensors: Mapping[str, np.ndarray], iteration: int, what: str) -> None:
    """Raise NumericalDivergence naming the first non-finite tensor in sorted name order.

    The common all-finite case costs one reduction per tensor and no sort.
    """
    for tensor in tensors.values():
        if not np.isfinite(tensor).all():
            break
    else:
        return
    name = next(name for name in sorted(tensors) if not np.isfinite(tensors[name]).all())
    raise NumericalDivergence(
        f"non-finite {what} for parameter {name!r} at iteration {iteration}",
        iteration=iteration,
        param=name,
    )


def _draw_gradient(state: ChainState, model, dataset, config, cv) -> dict[str, np.ndarray]:
    n = resolve_minibatch_size(config.minibatch_size, dataset.n)
    minibatch = sample_minibatch(dataset, n, state.rng_batch)
    if cv is None:
        grad = estimate_gradient(model, state.params, minibatch, dataset.n)
    else:
        grad = cv_gradient(model, state.params, cv, minibatch, dataset.n)
    state.grad_evals += 1
    _check_finite(grad, state.iteration, "gradient")
    return grad


def sgld_step(state: ChainState, model: Model, dataset: Dataset, config: SamplerConfig,
              cv: ControlVariateState | None = None) -> ChainState:
    """One overdamped Langevin update: half a gradient step plus N(0, eps) noise."""
    steps = config.resolved_stepsizes(model.param_names)
    grad = _draw_gradient(state, model, dataset, config, cv)
    for name in model.param_names:
        eps = steps[name]
        noise = standard_normal(state.rng_noise, state.params[name].shape) * math.sqrt(eps)
        state.params[name] = state.params[name] + 0.5 * eps * grad[name] + noise
    _check_finite(state.params, state.iteration, "parameter")
    state.iteration += 1
    return state


def sghmc_step(state: ChainState, model: Model, dataset: Dataset, config: SamplerConfig,
               cv: ControlVariateState | None = None) -> ChainState:
    """One stored sghmc update: resample momenta, then run the inner trajectory.

    Each of the ``trajectory_length`` inner updates moves the parameters by the
    momenta, re-estimates the gradient on a fresh minibatch, and relaxes the
    momenta with fixed friction and N(0, 2*friction*eps) noise.
    """
    steps = config.resolved_stepsizes(model.param_names)
    alpha = config.friction
    for name in model.param_names:
        state.momenta[name] = standard_normal(
            state.rng_noise, state.params[name].shape
        ) * math.sqrt(steps[name])
    for _ in range(config.trajectory_length):
        for name in model.param_names:
            state.params[name] = state.params[name] + state.momenta[name]
        grad = _draw_gradient(state, model, dataset, config, cv)
        for name in model.param_names:
            eps = steps[name]
            noise = standard_normal(
                state.rng_noise, state.params[name].shape
            ) * math.sqrt(2.0 * alpha * eps)
            state.momenta[name] = (
                (1.0 - alpha) * state.momenta[name] + eps * grad[name] + noise
            )
    _check_finite(state.params, state.iteration, "parameter")
    state.iteration += 1
    return state


def sgnht_step(state: ChainState, model: Model, dataset: Dataset, config: SamplerConfig,
               cv: ControlVariateState | None = None) -> ChainState:
    """One thermostat update.

    After the momentum refresh, each parameter's thermostat moves by the gap
    between the mean-square momentum (Frobenius inner product over all
    elements) and its stepsize, steering the kinetic temperature to eps.
    """
    steps = config.resolved_stepsizes(model.param_names)
    a = config.diffusion
    for name in model.param_names:
        state.params[name] = state.params[name] + state.momenta[name]
    grad = _draw_gradient(state, model, dataset, config, cv)
    for name in model.param_names:
        eps = steps[name]
        noise = standard_normal(
            state.rng_noise, state.params[name].shape
        ) * math.sqrt(2.0 * a * eps)
        nu = (1.0 - state.thermostats[name]) * state.momenta[name] + eps * grad[name] + noise
        state.momenta[name] = nu
        p = max(1, nu.size)
        state.thermostats[name] = state.thermostats[name] + (
            float(np.vdot(nu, nu)) / p - eps
        )
    _check_finite(state.params, state.iteration, "parameter")
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
    params = {name: as_tensor(initial_params[name]).copy() for name in model.param_names}
    n = resolve_minibatch_size(minibatch_size, dataset.n)
    for t in range(opt_iters):
        minibatch = sample_minibatch(dataset, n, rng)
        grad = estimate_gradient(model, params, minibatch, dataset.n)
        _check_finite(grad, t, "optimizer gradient")
        for name in model.param_names:
            params[name] = params[name] + opt_stepsize * grad[name]
        _check_finite(params, t, "optimizer parameter")
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
        search and the full-data gradient pass, and starts the chain there."""
        config = self.config
        # The (batch, noise) pair is spawned once per handle and every init()
        # restarts fresh copies of it, so a re-initialised chain repeats itself.
        if self._substreams is None:
            self._substreams = self._rng.spawn(2)
        rng_batch, rng_noise = (copy.deepcopy(stream) for stream in self._substreams)
        state = ChainState(
            params={name: arr.copy() for name, arr in self.initial_params.items()},
            momenta=None,
            thermostats=None,
            iteration=0,
            rng=self._rng,
            rng_batch=rng_batch,
            rng_noise=rng_noise,
        )
        if self.is_cv:
            opt_iters = config.opt_iters if config.opt_iters is not None else config.n_iters
            mode = find_mode(
                self.model,
                self.dataset,
                self.initial_params,
                config.opt_stepsize,
                opt_iters,
                config.minibatch_size,
                state.rng_batch,
            )
            full = full_log_posterior_grad(self.model, self.dataset, mode)
            self.cv = ControlVariateState(mode_params=mode, full_grad=full)
            state.params = {name: arr.copy() for name, arr in mode.items()}
        family = config.algorithm.removesuffix("cv")
        if family == "sghmc":
            state.momenta = {
                name: np.zeros(shape) for name, shape in self.model.param_shapes.items()
            }
        elif family == "sgnht":
            steps = config.resolved_stepsizes(self.model.param_names)
            state.momenta = {}
            for name in self.model.param_names:
                state.momenta[name] = standard_normal(
                    state.rng_noise, self.model.param_shapes[name]
                ) * math.sqrt(steps[name])
            state.thermostats = {name: config.diffusion for name in self.model.param_names}
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
        return {name: arr.copy() for name, arr in self.state.params.items()}


def sampler_setup(model, dataset, initial_params, config, rng=None) -> SamplerHandle:
    """Validate everything and return an un-initialized sampler handle."""
    return SamplerHandle(model, dataset, initial_params, config, rng=rng)


@dataclass
class ChainOutput:
    """Result of a convenience-loop run.

    ``samples[name]`` stacks the post-update parameter values, one leading row
    per iteration.  When a hook was given, only its outputs are kept.
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
    for high-dimensional chains).
    """
    handle = sampler_setup(model, dataset, initial_params, config, rng=rng).init()
    start = handle.get_params()
    samples = None
    hook_values = None
    if hook is None:
        samples = {
            name: np.empty((config.n_iters,) + shape)
            for name, shape in model.param_shapes.items()
        }
    else:
        hook_values = []
    for t in range(config.n_iters):
        handle.step()
        if hook is None:
            for name in model.param_names:
                samples[name][t] = handle.state.params[name]
        else:
            hook_values.append(hook(handle.get_params()))
    return ChainOutput(
        start_params=start,
        samples=samples,
        hook_values=hook_values,
        final_state=handle.state,
    )
