"""Exception types shared across the package.

Plain ``ValueError`` (and ``ZeroDivisionError`` where division is the
failure) is raised for violated argument contracts; the classes below mark
domain failures that callers may want to handle individually.  The CLI maps
all of them to exit code 1.
"""


class SpectralError(Exception):
    """Base class for domain errors raised by this package."""


class UnstableModelError(SpectralError):
    """Autoregressive polynomial has a root on or outside the unit circle."""


class NoFiniteGeodesicError(SpectralError):
    """Endpoint densities have different zero sets; every connecting path
    would pass through an infinite distance."""


class NotNormalizableError(SpectralError):
    """Density vanishes somewhere, or its unit-geometric-mean representative
    exceeds the double range, so no such representative of its ray exists."""


class DegenerateCovarianceError(SpectralError):
    """Covariance sequence is not positive definite up to the requested
    predictor order."""


class EstimationError(SpectralError):
    """Spectral estimation produced a density that fails validation
    (e.g. the all-zero spectrum of an all-zero signal)."""


class CsvParseError(SpectralError):
    """Malformed header or row in a CSV input file (message carries the
    1-based line number), or values that form no series or density (message
    carries the path)."""


class InvalidGridError(SpectralError):
    """Frequency column of a PSD file is not a uniform grid starting at -pi."""


class NegativeDensityError(SpectralError):
    """PSD file contains a negative sample (message carries the line number)."""
