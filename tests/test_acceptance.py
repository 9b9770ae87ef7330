"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with ``pytest -s``
to see the lines as they appear).
"""

import contextlib
import math
import time

import numpy as np

from specdist import (
    build_distance_matrix,
    divergence_ag,
    divergence_rs,
    divergence_sym,
    fisher_form,
    geodesic_distance,
    geodesic_path,
    geodesic_point,
    make_grid,
    path_length,
    prediction_ratio,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    rho_empirical,
    riemannian_form,
    welch,
    write_distance_matrix_csv,
    write_psd_csv,
    TimeSeries,
)
from specdist.cli import main as cli_main

from conftest import psd_with_zero_at, random_positive_spectrum
from oracles import ar1_path, dilog


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {label}: PASS")


def test_01_closed_form_distance():
    with criterion(1, "closed-form distance sqrt(1/2)"):
        start = time.perf_counter()
        grid = make_grid(4096)
        f1 = psd_from_samples(grid, np.exp(np.cos(grid.nodes)))
        f2 = psd_constant(grid, 1.0)
        d = geodesic_distance(f1, f2)
        elapsed = time.perf_counter() - start
        assert abs(d - math.sqrt(0.5)) <= 1e-8
        assert elapsed < 0.1


def test_02_dilogarithm_oracle():
    with criterion(2, "dilogarithm oracle distance"):
        li2 = dilog(0.25, tol=1e-13)  # independent series, beyond 1e-12
        grid = make_grid(8192)
        f1 = psd_from_ar([0.5], 1.0, grid)
        f2 = psd_constant(grid, 1.0)
        assert abs(geodesic_distance(f1, f2) - math.sqrt(2.0 * li2)) <= 1e-6


def test_03_metric_axioms():
    with criterion(3, "metric axioms over 200 random triples"):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        grid = make_grid(1024)
        for _ in range(200):
            f1, f2, f3 = (random_positive_spectrum(rng, grid, degree=8) for _ in range(3))
            d12 = geodesic_distance(f1, f2)
            d23 = geodesic_distance(f2, f3)
            d13 = geodesic_distance(f1, f3)
            assert d12 == geodesic_distance(f2, f1)  # symmetry, exact
            assert d12 >= 0.0 and d23 >= 0.0 and d13 >= 0.0
            assert d12 + d23 >= d13 - 1e-9
            for kappa in (1e-6, 1e6):
                scaled = psd_from_samples(grid, kappa * f1.values)
                assert geodesic_distance(f1, scaled) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_04_infinite_completion(tmp_path):
    with criterion(4, "infinite completion and propagation"):
        grid = make_grid(256)
        zeroed = psd_with_zero_at(grid, 10)
        flat = psd_constant(grid, 1.0)
        assert geodesic_distance(zeroed, flat) == math.inf
        assert geodesic_distance(flat, zeroed) == math.inf

        matrix = build_distance_matrix([zeroed, flat], ["z", "f"])
        out = tmp_path / "inf.csv"
        write_distance_matrix_csv(matrix, out)
        assert ",inf" in out.read_text()

        # d(f1, f3) infinite forces one of the other two legs to be infinite
        for middle in (
            psd_constant(grid, 2.0),
            psd_with_zero_at(grid, 10, base=3.0),
            psd_with_zero_at(grid, 99),
        ):
            legs = (geodesic_distance(zeroed, middle), geodesic_distance(middle, flat))
            assert math.inf in legs


def test_05_intrinsic_property():
    with criterion(5, "intrinsic property of the log interpolant"):
        rng = np.random.default_rng(2027)
        grid = make_grid(1024)
        for _ in range(20):
            f0 = random_positive_spectrum(rng, grid)
            f1 = random_positive_spectrum(rng, grid)
            d = geodesic_distance(f0, f1)
            for m in (2, 3, 11, 101):
                assert abs(path_length(geodesic_path(f0, f1, m)) - d) <= 1e-10
            for tau in np.arange(0.1, 0.95, 0.1):
                f_tau = geodesic_point(f0, f1, tau)
                assert abs(geodesic_distance(f0, f_tau) - tau * d) <= 1e-10


def test_06_quadratic_expansions():
    with criterion(6, "divergences share the quadratic form"):
        grid = make_grid(4096)
        f = psd_from_ar([0.5], 1.0, grid)
        delta = np.cos(grid.nodes)
        target = riemannian_form(f, delta)

        def perturbed(eps):
            return psd_from_samples(grid, f.values + eps * delta)

        functionals = [
            lambda fp, e: 2.0 * divergence_ag(f, fp) / e**2,
            lambda fp, e: divergence_sym(f, fp) / e**2,
        ]
        for r, s in ((2.0, 1.0), (1.0, -1.0), (3.0, 2.0)):
            functionals.append(
                lambda fp, e, r=r, s=s: 2.0 * divergence_rs(f, fp, r, s) / ((r - s) * e**2)
            )
        for fn in functionals:
            err_coarse = abs(fn(perturbed(1e-2), 1e-2) - target)
            err_fine = abs(fn(perturbed(1e-3), 1e-3) - target)
            slope = err_coarse / 1e-2
            assert err_fine <= 0.01 * slope
            assert err_fine < err_coarse


def test_07_prediction_oracle_equivalence():
    with criterion(7, "finite-order prediction matches the closed form"):
        grid = make_grid(4096)
        ar = psd_from_ar([0.5], 1.0, grid)
        white = psd_constant(grid, 1.0)
        expcos = psd_from_samples(grid, np.exp(np.cos(grid.nodes)))

        for p in (1, 2, 8, 64):
            assert abs(rho_empirical(ar, white, p) - 4.0 / 3.0) <= 1e-12

        for f1 in (white, expcos):
            target = prediction_ratio(f1, ar)
            errors = [abs(rho_empirical(f1, ar, p) - target) for p in (1, 2, 4, 8, 16, 32, 64)]
            assert errors[-1] <= 1e-3
            assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def test_08_fisher_riemannian_distinction():
    with criterion(8, "Fisher and ratio forms agree only on flat densities"):
        grid = make_grid(4096)
        flat = psd_constant(grid, 1.0)
        delta = np.cos(grid.nodes)
        fisher_flat = fisher_form(flat, delta)
        ratio_flat = riemannian_form(flat, delta)
        assert abs(fisher_flat - 0.5) <= 1e-10
        assert abs(ratio_flat - 0.5) <= 1e-10
        assert abs(fisher_flat - ratio_flat) <= 1e-10

        ar = psd_from_ar([0.5], 1.0, grid)
        normalized = psd_from_samples(grid, ar.values / np.mean(ar.values))
        assert abs(fisher_form(normalized, delta) - riemannian_form(normalized, delta)) > 1e-3


def test_09_pipeline_statistical():
    with criterion(9, "estimation pipeline separates processes"):
        start = time.perf_counter()
        grid = make_grid(1024)

        def estimate(a, seed):
            rng = np.random.default_rng(seed)
            ts = TimeSeries(ar1_path(a, 1.0, 1 << 15, rng))
            return welch(ts, segment=512, overlap=0.5, window="hann", grid=grid)

        same = geodesic_distance(estimate(0.5, 101), estimate(0.5, 202))
        different = geodesic_distance(estimate(0.5, 101), estimate(-0.5, 202))
        elapsed = time.perf_counter() - start
        assert same < 0.2
        assert different >= 3.0 * same
        assert elapsed < 5.0


def test_10_cli_determinism(tmp_path):
    with criterion(10, "matrix command is byte-identical across repeated runs"):
        grid = make_grid(1024)
        rng = np.random.default_rng(2028)
        spectra = {
            "const1": psd_constant(grid, 1.0),
            "expcos": psd_from_samples(grid, np.exp(np.cos(grid.nodes))),
            "expcos2": psd_from_samples(grid, np.exp(2.0 * np.cos(grid.nodes))),
            "ar05": psd_from_ar([0.5], 1.0, grid),
            "arneg05": psd_from_ar([-0.5], 1.0, grid),
            "trig": random_positive_spectrum(rng, grid),
        }
        files = []
        for name, psd in spectra.items():
            p = tmp_path / f"{name}.csv"
            write_psd_csv(psd, p)
            files.append(str(p))

        blobs = set()
        for i in range(7):
            out = tmp_path / f"matrix_{i}.csv"
            code = cli_main(["matrix", *files, "--out", str(out)])
            assert code == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1
