"""Exception hierarchy shared by all hesslens modules, and the value rules
that raise them.  A rule is ``(test, requirement)``: ``test(value)`` is
true for a usable value, and ``requirement`` says which values are usable,
in words."""

import math


def one_of(names):
    return lambda v: v in names, f"one of {sorted(names)}"


AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE_FINITE = (lambda v: 0 <= v < math.inf, "non-negative and finite")
POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")


def check_rule(rule, name, value, error):
    """Raise ``error("<name> must be <requirement>, got <value>")`` unless
    ``value`` passes ``rule``; a rule of None passes every value."""
    if rule is not None and not rule[0](value):
        raise error(f"{name} must be {rule[1]}, got {value!r}")


class HessLensError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HessLensError):
    """Operands have incompatible shapes or lengths."""


class ContractError(HessLensError):
    """An input violates a documented precondition (e.g. asymmetry)."""


class CapacityError(HessLensError):
    """A dense computation was requested beyond its supported size."""


class NumericError(HessLensError):
    """A non-finite value appeared during evaluation.

    ``node_id`` identifies the first offending graph node when known.
    """

    def __init__(self, message, node_id=None):
        super().__init__(message)
        self.node_id = node_id


class DegenerateDirectionError(HessLensError):
    """Orthogonalization left essentially nothing; caller must resample."""


class DegenerateSpectrumError(HessLensError):
    """Power iteration could not find a usable start direction."""


class PSDViolationError(HessLensError):
    """CG met negative curvature beyond tolerance on a supposedly PSD map."""


class ZeroDirectionError(HessLensError):
    """A direction to be normalized has (near-)zero norm."""


class DivergenceError(HessLensError):
    """Training diverged: the loss became non-finite or blew up."""


class FormatError(HessLensError):
    """A file does not conform to its binary/text format."""


class CorruptionError(HessLensError):
    """Stored content hash does not match the payload."""


class VersionError(HessLensError):
    """Stored format version is not supported."""


class ConfigError(HessLensError):
    """An experiment configuration failed validation."""


class DependencyError(HessLensError):
    """A command needs an artifact produced by a prior command."""
