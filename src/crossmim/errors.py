"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so raising the right class
matters more than the message wording.
"""


class ShapeError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value or config file is invalid."""


class DataFormatError(ValueError):
    """A dataset file is unreadable, malformed or inconsistent."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or fails its hash."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite math was required."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CompatibilityError(ValueError):
    """A checkpoint does not match the dataset or config it is used with."""
