"""Independent reference implementations used to fix expected test values.

Everything here deliberately avoids the library's own code paths: series
summations for the special-function values, midpoint-rule quadrature on a
staggered grid for integrals, direct DTFT and dense Toeplitz solves for
the transform and prediction checks, per-row formatting for written bytes,
and the cepstrum for distances.  The one exception is the AR prediction
ratio, which shares the library's reflection recursion but uses no grid.
"""

import math

import numpy as np

from specdist.spectra import _reflections, _step_up


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
    """Dilogarithm sum_{k>=1} x^k / k^2 for |x| < 1, summed until the tail
    after term k, at most |x|^(k+1) / ((k+1)^2 (1 - |x|)), is below tol."""
    total, k = 0.0, 1
    while True:
        total += x**k / (k * k)
        if abs(x) ** (k + 1) / ((k + 1) ** 2 * (1.0 - abs(x))) < tol:
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


def two_temporary_central_variance(x: np.ndarray) -> float:
    """The centered variance as the library first computed it: the mean
    subtracted as a Python float into one temporary, squared into another.
    A bitwise reference."""
    centered = x - float(np.mean(x))
    return float(np.mean(centered * centered))


def naive_dtft_power(x: np.ndarray, n: int) -> np.ndarray:
    """|sum_t x_t e^{-i t theta_k}|^2 by direct O(L*n) evaluation."""
    theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
    z = np.exp(-1j * np.outer(theta, np.arange(len(x))))
    return np.abs(z @ x) ** 2


def long_double_dtft_power(x: np.ndarray, n: int) -> np.ndarray:
    """|sum_t x_t e^{-i t theta_k}|^2 by direct O(L*n) evaluation in long
    double.  Each phase t * theta_k is reduced exactly in integers to
    pi * ((2 t k - n t) mod 2n) / n before its cosine and sine are taken."""
    pi = 4 * np.arctan(np.longdouble(1))
    t = np.arange(len(x))
    k = np.arange(n)
    phase = pi * ((2 * np.outer(k, t) - n * t) % (2 * n)).astype(np.longdouble) / n
    xl = np.asarray(x, dtype=np.longdouble)
    re = np.cos(phase) @ xl
    im = np.sin(phase) @ xl
    return re * re + im * im


def dense_welch_power(x, segment, hop, n, window=None):
    """Mean of the windowed segment powers by direct DTFT, each normalized
    by the window energy, for segments starting every ``hop`` samples."""
    if window is None:
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment) / segment)
    powers = [
        naive_dtft_power(window * x[start : start + segment], n)
        for start in range(0, len(x) - segment + 1, hop)
    ]
    return np.mean(powers, axis=0) / (window @ window)


def two_branch_transform_power(x: np.ndarray, n: int) -> np.ndarray:
    """The grid transform power as the library first computed it: the
    sign-alternated signal zero-padded to n by hand when it fits, folded
    modulo n when it is longer, then an n-point FFT.  A bitwise reference."""
    signed = x * np.where(np.arange(x.size) % 2, -1.0, 1.0)
    if signed.size <= n:
        folded = np.zeros(n)
        folded[: signed.size] = signed
    else:
        padded = np.zeros(-(-signed.size // n) * n)
        padded[: signed.size] = signed
        folded = padded.reshape(-1, n).sum(axis=0)
    return np.abs(np.fft.fft(folded)) ** 2


def per_row_psd_csv(nodes: np.ndarray, values: np.ndarray) -> str:
    """A PSD file as specdist first wrote it, one f-string per row, each
    theta and value with 17 significant digits.  A byte reference."""
    rows = zip(np.asarray(nodes).tolist(), np.asarray(values).tolist())
    return "theta,psd\n" + "".join(f"{theta:.17g},{value:.17g}\n" for theta, value in rows)


def dense_cosine_autocov(values: np.ndarray, nodes: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """c_k = mean(f(theta) * cos(k*theta)) for the lags ``ks`` over every
    node, one dense cosine table as the library first computed it."""
    return np.cos(np.outer(ks, nodes)) @ values / values.size


def fold_then_divide_autocov(values: np.ndarray, nodes: np.ndarray, max_lag: int) -> np.ndarray:
    """c_0..c_max_lag over the nodes of [-pi, 0], each sample added to its
    mirror, divided by n after the product with the cosine table: the folded
    quadrature as the library first computed it, overflowing near the top of
    the double range."""
    n = values.size
    folded = values[: n // 2 + 1].copy()
    folded[1 : (n + 1) // 2] += values[: n // 2 : -1]
    table = np.cos(np.outer(np.arange(max_lag + 1), nodes[: n // 2 + 1]))
    return table @ folded / n


def cepstral_coordinates(values: np.ndarray) -> np.ndarray:
    """The density's point x(f) in R^{n-1} whose Euclidean distances are the
    geodesic distances.

    The DFT of log f (0 at zeros, as ``log_ratio`` masks shared zeros) over n
    is the cepstrum; by the discrete Parseval identity without the DC term,
    mean((l - mean l)^2) = sum_{k=1}^{n-1} |L_k|^2 / n^2 for L = DFT(l).  The
    coordinates are the real and imaginary parts of the rfft bins 1..n/2,
    sqrt(2)-weighted where bin k stands for itself and its conjugate n - k.
    """
    n = values.size
    logs = np.zeros(n)
    positive = values != 0.0
    logs[positive] = np.log(values[positive])
    bins = np.fft.rfft(logs)[1:] / n
    paired = bins[: (n - 1) // 2] * np.sqrt(2.0)
    nyquist = bins[(n - 1) // 2 :].real
    return np.concatenate((paired.real, paired.imag, nyquist))


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


def ar_distance(a, b) -> float:
    """Geodesic distance between AR(a) and AR(b) densities with no grid.

    With z_j the roots of z^p - a_1 z^{p-1} - ... - a_p (all inside the unit
    circle for a stable model), log f = log sigma^2 + 2 Re sum_k s_k
    e^{-ik theta}/k, where s_k = sum_j z_j^k.  So d_g^2 = 2 sum_k |s_k(a) -
    s_k(b)|^2 / k^2, and sigma^2 drops out.  The sum runs until the largest
    pole's k-th power falls below 1e-17.
    """
    roots_a = np.roots(np.concatenate(([1.0], -np.asarray(a, dtype=float))))
    roots_b = np.roots(np.concatenate(([1.0], -np.asarray(b, dtype=float))))
    largest = max(np.abs(np.concatenate((roots_a, roots_b))), default=0.0)
    terms = 1 if largest == 0.0 else max(1, math.ceil(math.log(1e-17) / math.log(largest)))
    k = np.arange(1, terms + 1)

    def power_sums(roots):
        return (roots[:, None] ** k).sum(axis=0) if roots.size else np.zeros(terms)

    gap = power_sums(roots_a) - power_sums(roots_b)
    return math.sqrt(2.0 * math.fsum((np.abs(gap) / k) ** 2))


def ar_prediction_ratio(a1, a2) -> float:
    """rho(AR(a1), AR(a2)), the arithmetic over the geometric mean of f1/f2,
    with no grid.

    For stable f_i = s_i / |A_i(e^{i theta})|^2 the geometric mean of f1/f2
    is s1/s2 (Szego-Kolmogorov: log|A|^2 has mean zero for a minimum-phase
    A), and the arithmetic mean is b Gamma b / s2, with b = (1, -a2) and
    Gamma the Toeplitz matrix of AR(a1)'s autocovariances c_0..c_{p2}.  So
    rho = b Gamma b / s1, blind to both innovation variances; s1 = 1 here.
    The lags come from a1's reflection coefficients k_m: c_0 = 1 / prod(1 -
    k_m^2); stepping up, c_m = a^(m-1) . (c_{m-1}, ..., c_1) + k_m E_{m-1}
    with E_{m-1} the order-(m-1) error variance; past p1 by Yule-Walker,
    c_j = a1 . (c_{j-1}, ..., c_{j-p1}).
    """
    a1, b = np.asarray(a1, dtype=float), np.concatenate(([1.0], -np.asarray(a2, dtype=float)))
    ks = _reflections(a1)
    lags = np.zeros(max(a1.size, b.size - 1) + 1)
    lags[0] = variance = 1.0 / np.prod(1.0 - ks * ks)
    coeffs = np.zeros(a1.size)
    for m, k in enumerate(ks, start=1):
        lags[m] = coeffs[: m - 1] @ lags[m - 1 : 0 : -1] + k * variance
        _step_up(coeffs, m, k)
        variance *= 1.0 - k * k
    for j in range(a1.size + 1, b.size):
        lags[j] = a1 @ lags[j - a1.size : j][::-1]
    lag = np.abs(np.subtract.outer(np.arange(b.size), np.arange(b.size)))
    return float(b @ lags[lag] @ b)
