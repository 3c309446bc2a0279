"""Exception types shared across the package."""

from decimal import Decimal
from numbers import Integral, Real


class ScmacError(Exception):
    """Base class for all scmac errors."""


class StreamError(ScmacError, ValueError):
    """Malformed bitstream content."""


class LengthMismatchError(StreamError):
    """Operands of a bitwise SC operation have different lengths."""


class ConversionError(ScmacError, ValueError):
    """Invalid converter input (out-of-range code, bad ladder, ...)."""


class MacError(ScmacError, ValueError):
    """Invalid MAC engine input or voltage."""


class SizeMismatchError(ScmacError, ValueError):
    """Sample/weight vectors do not match the configured input count."""


class EnergyModelError(ScmacError, ValueError):
    """Activity log and energy table disagree (unknown event key, ...)."""


class ConfigError(ScmacError, ValueError):
    """Config file failed to parse or validate."""


def short_int(n: int) -> str:
    """`n` for an error message: whole up to 20 digits, else like 1.000e+308.

    A config value such as 1e308 is a 309-digit integer, which no message
    should print whole.
    """
    return str(n) if abs(n) < 10**20 else f"{Decimal(n):.3e}"


def require_int(name: str, value, error: type[ScmacError]) -> int:
    """`value` as an int; `error` unless it is an integer, a Python or numpy int but not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(name: str, value, error: type[ScmacError]) -> None:
    """`error` unless `value` is a real number, a Python or numpy one but not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
