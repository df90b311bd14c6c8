"""Exception types shared across the toolkit.

Two families matter to callers: ConfigError (bad parameters or config
files) and DataError (malformed or inconsistent input data). The CLI maps
them to exit codes 2 and 3; any other exception is a bug and exits 4.
`check_range` is the one closed-interval check the modules share, and
`check_budget` the one bound on the bytes a setting asks to allocate.
"""

from contextlib import contextmanager

import numpy as np


class ConfigError(Exception):
    """Invalid parameter value or configuration file."""


class DataError(Exception):
    """Input data violates a documented contract."""


@contextmanager
def from_file(path):
    """Re-raise a DataError from the block as the same type, and a
    ValueError (malformed text, JSON or number) as a DataError, the
    message prefixed with the path of the file the data came from."""
    try:
        yield
    except DataError as e:
        raise type(e)(f"{path}: {e}") from e
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


def check_range(name: str, x, lo, hi, error=ConfigError):
    """x, a number or an array, once every value lies in [lo, hi]; NaN and
    +-inf lie in no finite interval. Otherwise raise `error`."""
    a = np.asarray(x)
    if a.size and not (a.min() >= lo and a.max() <= hi):
        got = f", got {x}" if a.ndim == 0 else ""
        raise error(f"{name} must lie in [{lo}, {hi}]{got}")
    return x


# Most bytes one array sized by a setting may take: the TORE FIFO (`k`), a
# mask plan and an external score table (`horizon`). Checked before the
# array exists and before any output is written.
MAX_ARRAY_BYTES = 2**31


def check_budget(name: str, value, nbytes: int) -> None:
    """Raise ConfigError, naming the setting and the bytes, when setting
    name = value asks for an array of more than MAX_ARRAY_BYTES bytes."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(f"{name} = {value} asks for {nbytes} bytes, "
                          f"more than the {MAX_ARRAY_BYTES}-byte budget")


# -- event stream / binary format --------------------------------------------

class BadMagic(DataError):
    """Blob does not start with the expected magic bytes."""


class TruncatedRecord(DataError):
    """Payload length is not consistent with the record layout."""


class OutOfBounds(DataError):
    """Event coordinates fall outside the sensor geometry."""


class NonMonotonic(DataError):
    """Timestamp regression beyond the declared tolerance."""


class TimeRegression(DataError):
    """Event or query timestamp precedes the latest ingested timestamp."""


class WindowLimit(DataError):
    """Windowing would exceed MAX_WINDOWS or end past the u64 range."""


class ZeroWindow(ConfigError):
    """Window duration must be positive."""


# -- representations ----------------------------------------------------------

class InvalidTau(ConfigError):
    """Retention age tau must exceed 1 microsecond."""


# -- simulator / camera -------------------------------------------------------

class GeometryMismatch(DataError):
    """Operands have different sensor geometries."""


class FpsMismatch(DataError):
    """Operands have different frame rates."""


class LengthMismatch(DataError):
    """Sequences that must align 1:1 have different lengths."""


class EmptySequence(DataError):
    """Operation needs at least two frames."""


class BehindCamera(DataError):
    """Point has non-positive depth after the extrinsic transform."""


class InvalidDepth(ConfigError):
    """Reference depth must be positive."""


# -- gating -------------------------------------------------------------------

class EmptyPlan(DataError):
    """Mask predictor returned a plan with horizon zero."""


# -- pose math ----------------------------------------------------------------

class ZeroMass(DataError):
    """Heatmap has no probability mass."""


class InvalidDistribution(DataError):
    """Heatmap is not a valid probability distribution."""


class ProbabilityOutOfRange(DataError):
    """Predicted probabilities must lie in [0, 1]."""


class NonFinite(DataError):
    """Function or gradient evaluated to a non-finite value."""


# -- metrics ------------------------------------------------------------------

class JointCountMismatch(DataError):
    """Poses must carry the same number of joints."""


class EmptyInput(DataError):
    """At least one record is required."""
