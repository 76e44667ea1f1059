"""Exception types shared across the package."""


class GridplanError(Exception):
    """Base class for all package-specific errors."""


# --- map / instance generation ---

class InvalidDimensionsError(GridplanError, ValueError):
    pass


class DensityRangeError(GridplanError, ValueError):
    pass


class NoValidPairError(GridplanError):
    """Map has fewer than two mutually reachable free cells."""


class MapFormatError(GridplanError, ValueError):
    """Base class for map file parsing failures."""


class MalformedHeaderError(MapFormatError):
    pass


class RowLengthError(MapFormatError):
    pass


class IllegalCharacterError(MapFormatError):
    pass


# --- search ---

class UnreachableGoalError(GridplanError):
    """No path from start to goal under the movement model."""


class NonFiniteBiasError(GridplanError, ValueError):
    """A selection bias field holds NaN or an infinity."""


# --- tensors / autodiff ---

class ShapeMismatchError(GridplanError, ValueError):
    pass


class OddDimensionError(GridplanError, ValueError):
    pass


class CheckpointError(GridplanError):
    """Base class for checkpoint I/O failures."""


class CorruptCheckpointError(CheckpointError):
    pass


class ArchMismatchError(CheckpointError):
    pass


# --- encoder / training ---

class InvalidArchError(GridplanError, ValueError):
    pass


class DimensionUnderflowError(GridplanError, ValueError):
    pass


class DivergenceError(GridplanError):
    """Training loss or gradient norm became non-finite.

    Carries the last completed epoch's model so callers can checkpoint it.
    """

    def __init__(self, message, model=None, log=None):
        super().__init__(message)
        self.model = model
        self.log = log


# --- metrics ---

class ZeroReferenceError(GridplanError, ValueError):
    pass
