"""Exception taxonomy shared by all modules, and the finite-positive and
finite-nonnegative checks."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityError(DomainError):
    """Evaluation point coincides with a field/impedance singularity."""


class ContractError(ValueError):
    """An input violates a structural precondition (shape, PSD, normalization)."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or names unknown keys."""


def check_finite_positive(**values: float) -> None:
    """DomainError("<name> must be finite and positive, got <v>") for the
    first value that is not; a NaN is neither."""
    for name, v in values.items():
        # 0 < v < inf is false for NaN, so one comparison admits finite v > 0
        if not 0 < v < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {v!r}")


def check_finite_nonnegative(**values: float) -> None:
    """DomainError("<name> must be finite and nonnegative, got <v>") for the
    first value that is not; a NaN is neither."""
    for name, v in values.items():
        if not 0 <= v < math.inf:
            raise DomainError(f"{name} must be finite and nonnegative, got {v!r}")
