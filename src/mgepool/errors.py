"""Exception hierarchy shared across the package, and its integer check."""

import numbers


class MgeError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MgeError, ValueError):
    """Input data violates a precondition (non-finite, empty, etc.)."""


class DegenerateSpectrumError(MgeError, ValueError):
    """All-zero coefficient vector: energy fractions are undefined."""


class ConfigRangeError(MgeError, ValueError):
    """A configuration value is outside its allowed range."""


def check_count(name, value, least=1):
    """``value``, an integer (of any size) or integral float of at least
    ``least``, as an int; else (a bool too) ConfigRangeError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not isinstance(value, numbers.Integral) and not float(value).is_integer()
            or value < least):
        raise ConfigRangeError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class StructuralError(MgeError, ValueError):
    """Shapes, layer layouts, or population sizes do not compose."""


class TrainingDivergedError(MgeError, RuntimeError):
    """Training loss became non-finite."""


class FormatError(MgeError, ValueError):
    """Malformed input file (an IDX file, an evolve history, a JSON record).

    offset is the byte position where parsing failed.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GenerationFailedError(MgeError, RuntimeError):
    """Attempt budget exhausted without a single accepted candidate.

    ``bar`` is ``base_accuracy - epsilon``: a candidate passes only above it.
    ``best_accuracy`` is the best any attempt scored, ``z`` the latent bound
    the last attempt drew with."""

    def __init__(self, message, attempts=0, budget=0, base_accuracy=None, bar=None,
                 best_accuracy=None, z=None):
        super().__init__(message)
        self.attempts = attempts
        self.budget = budget
        self.base_accuracy = base_accuracy
        self.bar = bar
        self.best_accuracy = best_accuracy
        self.z = z


class StorageError(MgeError, OSError):
    """Model file could not be written or validated for writing."""


class CorruptModelError(MgeError, ValueError):
    """Model file failed magic, structure, or hash verification."""


class UnsupportedVersionError(MgeError, ValueError):
    """Model file carries a format version this build does not read."""


class UndefinedRatioError(MgeError, ZeroDivisionError):
    """Time ratio requested with a non-positive training time."""
