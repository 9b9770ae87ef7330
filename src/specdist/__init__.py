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

from . import divergences, errors, estimation, geodesics, grid, io, prediction, spectra
from .divergences import *
from .errors import *
from .estimation import *
from .geodesics import *
from .grid import *
from .io import *
from .prediction import *
from .spectra import *

__version__ = "0.1.0"

# A name is public when its module's __all__ lists it; each module lists
# only the names it defines, so the union repeats none.
__all__ = [
    name
    for module in (divergences, errors, estimation, geodesics, grid, io, prediction, spectra)
    for name in module.__all__
]
