"""Exception hierarchy shared across the package."""


class MvReportError(Exception):
    """Base class for all package errors."""


class UsageError(MvReportError):
    """Bad command-line usage or invalid configuration."""


class ParameterError(MvReportError):
    """An operation received an out-of-range parameter (e.g. temperature <= 0)."""


class DimensionError(MvReportError):
    """Tensor shapes are incompatible for the requested operation."""


class GraphError(MvReportError):
    """Autodiff contract violation (e.g. backward on a non-scalar)."""


class EmptyKeyError(MvReportError):
    """Attention was invoked with zero key positions."""


class DataError(MvReportError):
    """Malformed manifest, missing file, or inconsistent study data."""


class CheckpointError(MvReportError):
    """Checkpoint missing or incompatible with the current configuration."""


class NumericalAbort(MvReportError):
    """Training produced NaN/Inf; carries a diagnostic payload."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}
