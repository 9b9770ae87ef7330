"""Independent reference implementations used to fix expected test values.

Everything here deliberately avoids the library's own code paths: series
summations for the special-function values, midpoint-rule quadrature on a
staggered grid for integrals, direct DTFT and dense Toeplitz solves for
the transform and prediction checks.
"""

import math

import numpy as np


def bessel_i0(x: float, tol: float = 1e-16) -> float:
    """Modified Bessel I_0 via its power series sum_k (x/2)^{2k} / (k!)^2."""
    total, term, k = 0.0, 1.0, 0
    while True:
        total += term
        k += 1
        term *= (x / 2.0) ** 2 / (k * k)
        if term < tol * total:
            return total


def bessel_i1(x: float, tol: float = 1e-16) -> float:
    """Modified Bessel I_1 via sum_k (x/2)^{2k+1} / (k! (k+1)!)."""
    total, term, k = 0.0, x / 2.0, 0
    while True:
        total += term
        k += 1
        term *= (x / 2.0) ** 2 / (k * (k + 1))
        if term < tol * total:
            return total


def log_bessel_i0(x: float) -> float:
    """log I_0(x) for x > 0 as a logsumexp over the series terms
    (x/2)^{2k} / (k!)^2, so it stays finite where I_0 overflows a double.

    The terms peak near k = x/2; summing to k = x + 60 leaves out less than
    a double's resolution.
    """
    k = np.arange(int(x) + 61)
    logs = 2.0 * k * math.log(x / 2.0) - 2.0 * np.array([math.lgamma(i + 1.0) for i in k])
    peak = logs.max()
    return float(peak + math.log(math.fsum(np.exp(logs - peak))))


def dilog(x: float, tol: float = 1e-14) -> float:
    """Dilogarithm sum_{k>=1} x^k / k^2 for |x| < 1."""
    total, k = 0.0, 1
    while True:
        term = x**k / (k * k)
        total += term
        if abs(term) < tol:
            return total
        k += 1


# Frozen values of the series above (guarded by test_oracles_self_consistent).
BESSEL_I0_1 = 1.2660658777520082
BESSEL_I0_2 = 2.279585302336067
BESSEL_I1_1 = 0.565159103992485
DILOG_QUARTER = 0.2676526390827319


def reference_mean(fn, n: int = 1 << 16) -> float:
    """Midpoint-rule quadrature of fn over [-pi, pi) against dtheta/(2*pi).

    The staggered nodes make this an independent rule from the library's
    left-endpoint grid.
    """
    theta = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    return float(np.mean(fn(theta)))


def reference_variance(fn, n: int = 1 << 16) -> float:
    theta = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    v = fn(theta)
    return float(np.mean(v * v) - np.mean(v) ** 2)


def naive_dtft_power(x: np.ndarray, n: int) -> np.ndarray:
    """|sum_t x_t e^{-i t theta_k}|^2 by direct O(L*n) evaluation."""
    theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
    z = np.exp(-1j * np.outer(theta, np.arange(len(x))))
    return np.abs(z @ x) ** 2


def naive_toeplitz_predictor(c: np.ndarray, p: int):
    """Order-p one-step predictor by dense solve of the normal equations.

    Returns (coeffs, error_variance) for covariance lags c_0..c_p.
    """
    idx = np.arange(p)
    T = np.asarray(c)[np.abs(idx[:, None] - idx[None, :])]
    rhs = np.asarray(c)[1 : p + 1]
    coeffs = np.linalg.solve(T, rhs)
    return coeffs, float(c[0] - coeffs @ rhs)


def ar1_path(a: float, sigma: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary first-order autoregressive sample path."""
    x = np.empty(length)
    x[0] = rng.normal(0.0, sigma / np.sqrt(1.0 - a * a))
    innovations = rng.normal(0.0, sigma, length - 1)
    for t in range(1, length):
        x[t] = a * x[t - 1] + innovations[t - 1]
    return x
