"""Minibatch-gradient MCMC over a small reverse-mode autodiff core.

Specify a log likelihood and log prior as expression graphs; the package
estimates log-posterior gradients from uniformly sampled minibatches and runs
any of six diffusion-based samplers (sgld, sghmc, sgnht, and control-variate
variants) to draw approximate posterior samples from large datasets.
"""

from .data import (
    Dataset,
    Minibatch,
    Rng,
    resolve_minibatch_size,
    sample_minibatch,
    standard_normal,
)
from .diagnostics import (
    DiagGaussian,
    RunningMean,
    kl_diag_gaussian,
    log_loss_binary,
    log_loss_multiclass,
    moment_match,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    DegenerateChain,
    DomainError,
    GradmcError,
    LifecycleError,
    MissingFeed,
    NumericalDivergence,
    ShapeError,
    UnknownVariable,
    UnsupportedForKL,
)
from .graph import Graph, GraphBuilder, as_tensor
from .models import (
    FAMILIES,
    build_bayes_nn,
    build_gaussian,
    build_gaussian_mixture,
    build_logistic_regression,
    gaussian_posterior,
    gen_synth,
    nn_forward,
)
from .samplers import (
    ALGORITHMS,
    ChainOutput,
    ChainState,
    ControlVariateState,
    Model,
    SamplerConfig,
    SamplerHandle,
    find_mode,
    full_log_posterior_grad,
    run_chain,
    sghmc_step,
    sgld_step,
    sgnht_step,
)

__version__ = "0.1.0"
