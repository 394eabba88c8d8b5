"""Exception and warning types shared across the modem library."""


class ModemError(Exception):
    """Base class for all airmodem errors."""


class ConfigurationError(ModemError, ValueError):
    """A parameter or parameter combination violates a config invariant."""


class NyquistViolationError(ConfigurationError):
    """A frequency at or above half the sample rate was requested."""


class InsufficientDataError(ModemError):
    """A signal is too short for the requested operation."""


class IncompatibleSignalError(ModemError):
    """Two signals (or a signal and an operation) have mismatched shape or rate."""


class NoClockError(ModemError):
    """FSK demodulation found no usable clock carrier anywhere in the signal."""


class SyncNotFoundError(ModemError):
    """Header correlation produced no confident synchronization peak."""


class UnsupportedFormatError(ModemError):
    """A WAV file is readable but not in the supported PCM 16-bit format."""


class CorruptFileError(ModemError):
    """A WAV file is structurally damaged (truncated or empty chunks)."""


class ClippingWarning(UserWarning):
    """Samples were clipped to [-1, 1] during conversion or channel simulation."""
