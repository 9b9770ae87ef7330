"""Distances, divergences and geodesics between power spectral densities.

The geodesic distance — the standard deviation of log(f1/f2) under the
normalized frequency measure — is scale-blind, symmetric, satisfies the
triangle inequality, and is realized by the log-geometric interpolation
path between its endpoints.  Pairs whose densities vanish on different
frequency sets sit at distance ``inf``; that value is data, preserved
through matrix output and the CLI.

Submodules
----------
grid         uniform frequency grid and quadrature
spectra      density construction, validation, means, log ratios
divergences  geodesic distance and its matrix, divergences, quadratic forms
geodesics    log-geometric interpolation and path lengths
prediction   finite-order linear-prediction cross-check of the ratio
estimation   periodogram and Welch estimates on the package grid
io           CSV persistence
cli          the ``specdist`` command
"""

from .divergences import (
    DistanceMatrix,
    build_distance_matrix,
    divergence_ag,
    divergence_rs,
    divergence_sym,
    fisher_form,
    geodesic_distance,
    prediction_ratio,
    riemannian_form,
    scaled_metric_d,
)
from .errors import (
    CsvParseError,
    DegenerateCovarianceError,
    EstimationError,
    InvalidGridError,
    NegativeDensityError,
    NoFiniteGeodesicError,
    NotNormalizableError,
    SpectralError,
    UnstableModelError,
)
from .estimation import TimeSeries, periodogram, welch
from .geodesics import GeodesicPath, geodesic_path, geodesic_point, path_length
from .grid import FrequencyGrid, make_grid
from .io import (
    read_psd_csv,
    read_timeseries_csv,
    write_distance_matrix_csv,
    write_psd_csv,
)
from .prediction import (
    Autocovariance,
    PredictorCoeffs,
    autocov_from_psd,
    degraded_variance,
    levinson,
    rho_empirical,
)
from .spectra import (
    Psd,
    arithmetic_mean,
    generalized_mean,
    geometric_mean,
    log_ratio,
    normalize_to_ray,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
)

__version__ = "0.1.0"

__all__ = [
    "Autocovariance",
    "CsvParseError",
    "DegenerateCovarianceError",
    "DistanceMatrix",
    "EstimationError",
    "FrequencyGrid",
    "GeodesicPath",
    "InvalidGridError",
    "NegativeDensityError",
    "NoFiniteGeodesicError",
    "NotNormalizableError",
    "PredictorCoeffs",
    "Psd",
    "SpectralError",
    "TimeSeries",
    "UnstableModelError",
    "arithmetic_mean",
    "autocov_from_psd",
    "build_distance_matrix",
    "degraded_variance",
    "divergence_ag",
    "divergence_rs",
    "divergence_sym",
    "fisher_form",
    "generalized_mean",
    "geodesic_distance",
    "geodesic_path",
    "geodesic_point",
    "geometric_mean",
    "levinson",
    "log_ratio",
    "make_grid",
    "normalize_to_ray",
    "path_length",
    "periodogram",
    "prediction_ratio",
    "psd_constant",
    "psd_from_ar",
    "psd_from_samples",
    "read_psd_csv",
    "read_timeseries_csv",
    "rho_empirical",
    "riemannian_form",
    "scaled_metric_d",
    "welch",
    "write_distance_matrix_csv",
    "write_psd_csv",
]
