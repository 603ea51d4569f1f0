"""Exception types shared across the package."""


class GradmcError(Exception):
    """Base class for all package errors."""


class ShapeError(GradmcError):
    """Tensor shapes are incompatible for the requested operation."""


class MissingFeed(GradmcError):
    """A graph evaluation needs a leaf that was not bound."""


class UnknownVariable(GradmcError):
    """A name does not refer to a known graph variable or output."""


class DomainError(GradmcError):
    """A value lies outside the domain an operation accepts."""


class ConfigError(GradmcError):
    """A sampler or model configuration is invalid (for one, a sampler setting
    mismatched with its algorithm, or a hyper-parameter the model does not take)."""


class LifecycleError(GradmcError):
    """A sampler handle was used out of order (e.g., stepped before init)."""


class DegenerateChain(GradmcError):
    """A chain summary is degenerate (e.g., zero variance from a constant chain)."""


class UnsupportedForKL(GradmcError):
    """KL reporting was requested for a model without an analytic posterior."""


class CsvFormatError(GradmcError):
    """A CSV file is malformed; the message carries the path and line number."""


class NumericalDivergence(GradmcError):
    """A chain or optimizer produced a non-finite parameter or gradient.

    Carries the iteration index and the offending parameter name so failures
    can be located inside long runs.
    """

    def __init__(self, message, iteration=None, param=None):
        super().__init__(message)
        self.iteration = iteration
        self.param = param
