"""Exception types shared across the package."""


class BandpromptError(Exception):
    """Base class for package-specific failures."""


class ParameterError(BandpromptError, ValueError):
    """A function argument violates its contract."""


class SpecificationError(ParameterError):
    """A synthetic dataset description is internally inconsistent."""


class CacheFormatError(BandpromptError):
    """A cache file does not start with the expected magic or version."""


class CacheCorruptionError(BandpromptError):
    """A cache file ends or garbles mid-record.

    `record_index` is the zero-based index of the record that could not be
    read completely.
    """

    def __init__(self, message: str, record_index: int):
        super().__init__(f"{message} (record {record_index})")
        self.record_index = record_index


class BankStateError(BandpromptError):
    """An operation needs a fully filled bank."""


class BankFillError(ParameterError):
    """A run's epochs absorb fewer latents than its bank holds, so the bank
    never fills and nothing can score with it."""


class NumericalDegeneracyError(BandpromptError, ArithmeticError):
    """A normalization or similar step hit a degenerate (zero / non-finite) value."""


class DivergenceError(BandpromptError):
    """Training produced a non-finite loss term."""


class ProtocolError(BandpromptError):
    """Evaluation protocol preconditions are not met."""


class ConfigError(BandpromptError):
    """Unknown or malformed configuration key or value."""
