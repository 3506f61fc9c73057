"""Exception hierarchy shared across the package.

The CLI maps each class to a distinct exit code, so library code should
raise the most specific class that applies.
"""


class MdgspError(Exception):
    """Base class for all package errors."""


class UsageError(MdgspError):
    """Command-line arguments or settings that parse but cannot run as given."""


class GraphError(MdgspError):
    """Invalid graph construction: loops, duplicate edges, bad weights or indices."""


class FormatError(MdgspError):
    """Malformed input file or violated invariant on load."""


class DimensionError(MdgspError):
    """Shape or length mismatch between signals, bases, and graphs."""


class KernelError(MdgspError):
    """Spectral kernel unusable at a frequency that the filter needs."""


class SpectrumError(MdgspError):
    """Eigendecomposition input or result violates its contract."""


class SamplingError(MdgspError):
    """Stationary-process synthesis or testing called with unusable arguments."""
