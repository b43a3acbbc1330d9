"""Exception types shared across the package.

Everything raised on purpose derives from SlowTrackError so the CLI can
distinguish validation failures (exit 1) from genuine bugs (exit 2).
"""


class SlowTrackError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SlowTrackError):
    """Invalid configuration value, unknown config key, or bad dimensions."""


class FormatError(SlowTrackError):
    """A file on disk does not match its expected format."""


class OutOfViewError(SlowTrackError):
    """A box has no overlap with the frame, so no patch can be cropped."""


class SamplerExhausted(SlowTrackError):
    """Rejection sampling hit its attempt cap before filling the quota."""


class NumericalError(SlowTrackError):
    """NaN/Inf appeared where finite values are required."""
