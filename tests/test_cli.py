import math

import numpy as np
import pytest

from specdist import (
    GeodesicPath,
    geodesic_distance,
    path_length,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    read_psd_csv,
    write_psd_csv,
)
from specdist.cli import main

from conftest import psd_with_zero_at


@pytest.fixture()
def fixtures(tmp_path, grid4096):
    nodes = grid4096.nodes
    paths = {}
    spectra = {
        "const1": psd_constant(grid4096, 1.0),
        "expcos": psd_from_samples(grid4096, np.exp(np.cos(nodes))),
        "expcos2": psd_from_samples(grid4096, np.exp(2.0 * np.cos(nodes))),
        "ar05": psd_from_ar([0.5], 1.0, grid4096),
    }
    for name, psd in spectra.items():
        paths[name] = tmp_path / f"{name}.csv"
        write_psd_csv(psd, paths[name])
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_equal_files_print_zero(self, capsys, fixtures):
        code, out, _ = run(capsys, "dist", fixtures["const1"], fixtures["const1"])
        assert code == 0
        assert out == "0\n"

    def test_bundled_closed_form(self, capsys, fixtures):
        code, out, _ = run(capsys, "dist", fixtures["expcos"], fixtures["const1"])
        assert code == 0
        assert out.strip() == "0.707106781187"

    def test_analytic_arguments(self, capsys):
        code, out, _ = run(capsys, "dist", "expcos:1", "const:1", "--grid", 2048)
        assert code == 0
        assert out.strip() == "0.707106781187"

    def test_metric_variants(self, capsys, fixtures):
        for metric, expected in [
            ("dg", math.sqrt(0.5)),
            ("d", math.sqrt(0.5) + 0.2660658777520082),
            ("ag", math.log(1.2660658777520082)),
            ("sym", 2 * math.log(1.2660658777520082)),
        ]:
            code, out, _ = run(
                capsys, "dist", fixtures["expcos"], fixtures["const1"], "--metric", metric
            )
            assert code == 0
            assert float(out) == pytest.approx(expected, rel=1e-11)

    def test_power_mean_metric(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "dist", fixtures["expcos"], fixtures["const1"],
            "--metric", "rs", "--r", 2, "--s", 1,
        )
        assert code == 0
        assert float(out) == pytest.approx(0.17608241223429952, rel=1e-11)

    def test_high_power_mean_order_stays_finite(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--metric", "rs", "--r", 300, "--s", 1, "expcos:3", "const:1"
        )
        assert (code, out) == (0, "1.40029238836\n")

    def test_equal_orders_are_usage_error(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "dist", fixtures["expcos"], fixtures["const1"],
            "--metric", "rs", "--r", 1, "--s", 1,
        )
        assert code == 2
        assert "usage" in err

    def test_missing_orders_are_usage_error(self, capsys, fixtures):
        code, _, err = run(
            capsys, "dist", fixtures["expcos"], fixtures["const1"], "--metric", "rs"
        )
        assert code == 2

    def test_order_validation_precedes_file_access(self, capsys):
        # bad flag combinations are usage errors even when the files don't exist
        code, _, err = run(
            capsys, "dist", "no-such.csv", "also-missing.csv", "--metric", "rs", "--r", 1, "--s", 1
        )
        assert code == 2
        assert "usage" in err

    def test_infinite_distance_is_a_result(self, capsys, tmp_path, grid64, fixtures):
        zeroed = tmp_path / "zeroed.csv"
        write_psd_csv(psd_with_zero_at(grid64, 3), zeroed)
        flat = tmp_path / "flat64.csv"
        write_psd_csv(psd_constant(grid64, 1.0), flat)
        code, out, _ = run(capsys, "dist", zeroed, flat)
        assert code == 0
        assert out == "inf\n"

    def test_missing_file_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "dist", "/nonexistent/f.csv", "const:1")
        assert code == 1
        assert "error" in err

    def test_grid_mismatch_is_refused(self, capsys, tmp_path, fixtures, grid64):
        small = tmp_path / "small.csv"
        write_psd_csv(psd_constant(grid64, 1.0), small)
        code, _, err = run(capsys, "dist", fixtures["const1"], small)
        assert code == 1
        assert "grids" in err

    def test_unknown_command_exits_2(self, fixtures):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestGeodesic:
    def test_tau_prints_a_psd(self, capsys, tmp_path, fixtures):
        code, out, _ = run(
            capsys, "geodesic", fixtures["const1"], fixtures["expcos2"], "--tau", 0.5
        )
        assert code == 0
        mid_file = tmp_path / "mid.csv"
        mid_file.write_text(out)
        mid = read_psd_csv(mid_file)
        expected = read_psd_csv(fixtures["expcos"])
        np.testing.assert_allclose(mid.values, expected.values, rtol=1e-14)

    def test_steps_write_a_path_that_reproduces_dist(self, capsys, tmp_path, fixtures):
        out_dir = tmp_path / "morph"
        steps = 7
        code, _, _ = run(
            capsys,
            "geodesic", fixtures["expcos"], fixtures["ar05"],
            "--steps", steps, "--out", out_dir,
        )
        assert code == 0
        files = sorted(out_dir.glob("point_*.csv"))
        assert len(files) == steps
        points = tuple(read_psd_csv(p) for p in files)
        path = GeodesicPath(
            endpoints=(points[0], points[-1]),
            taus=np.arange(steps) / (steps - 1),
            points=points,
        )
        f0 = read_psd_csv(fixtures["expcos"])
        f1 = read_psd_csv(fixtures["ar05"])
        assert abs(path_length(path) - geodesic_distance(f0, f1)) <= 1e-10

    def test_tau_and_steps_together_are_usage_error(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "geodesic", fixtures["const1"], fixtures["expcos"],
            "--tau", 0.5, "--steps", 5, "--out", "x",
        )
        assert code == 2

    def test_neither_tau_nor_steps_is_usage_error(self, capsys, fixtures):
        code, _, _ = run(capsys, "geodesic", fixtures["const1"], fixtures["expcos"])
        assert code == 2

    def test_out_of_range_tau_is_domain_error(self, capsys, fixtures):
        code, _, err = run(
            capsys, "geodesic", fixtures["const1"], fixtures["expcos"], "--tau", 1.5
        )
        assert code == 1
        assert "extrapolation" in err


class TestMatrix:
    def test_matrix_agrees_with_dist(self, capsys, tmp_path, fixtures):
        out = tmp_path / "matrix.csv"
        code, _, _ = run(
            capsys,
            "matrix", fixtures["const1"], fixtures["expcos"], fixtures["expcos2"],
            "--out", out,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["", "const1", "expcos", "expcos2"]
        code, dist_out, _ = run(capsys, "dist", fixtures["const1"], fixtures["expcos"])
        assert rows[1][2] == dist_out.strip()
        assert rows[2][1] == dist_out.strip()

    def test_runs_are_byte_identical_across_thread_counts(self, capsys, tmp_path, fixtures):
        args = ["matrix", *fixtures.values()]
        blobs = set()
        for i, jobs in enumerate([1, 1, 4, 8]):
            out = tmp_path / f"m{i}.csv"
            code, _, _ = run(capsys, *args, "--out", out, "--jobs", jobs)
            assert code == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1


class TestEstimateAndClassify:
    def test_estimate_welch_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(80)
        series = tmp_path / "noise.csv"
        series.write_text("value\n" + "\n".join(f"{x}" for x in rng.standard_normal(4096)) + "\n")
        out = tmp_path / "est.csv"
        code, _, _ = run(
            capsys,
            "estimate", series, "--method", "welch",
            "--segment", 256, "--overlap", 0.5, "--window", "hann",
            "--grid", 512, "--out", out,
        )
        assert code == 0
        psd = read_psd_csv(out)
        assert psd.grid.n == 512
        assert abs(float(np.mean(psd.values)) - 1.0) < 0.15

    def test_estimate_periodogram(self, capsys, tmp_path):
        series = tmp_path / "impulse.csv"
        series.write_text("value\n1\n0\n0\n0\n")
        out = tmp_path / "est.csv"
        code, _, _ = run(
            capsys, "estimate", series, "--method", "periodogram", "--grid", 4, "--out", out
        )
        assert code == 0
        np.testing.assert_allclose(read_psd_csv(out).values, 0.25, rtol=1e-12)

    def test_classify(self, capsys, fixtures, tmp_path, grid64):
        code, out, _ = run(capsys, "classify", fixtures["ar05"])
        assert (code, out) == (0, "StrictlyPositive\n")
        zeroed = tmp_path / "zeroed.csv"
        write_psd_csv(psd_with_zero_at(grid64, 0), zeroed)
        code, out, _ = run(capsys, "classify", zeroed)
        assert (code, out) == (0, "HasZeros\n")


class TestRho:
    def test_formula_and_recursion_agree(self, capsys, fixtures):
        code, formula_out, _ = run(capsys, "rho", fixtures["ar05"], fixtures["const1"])
        assert code == 0
        code, levinson_out, _ = run(
            capsys,
            "rho", fixtures["ar05"], fixtures["const1"],
            "--oracle", "levinson", "--order", 8,
        )
        assert code == 0
        assert float(formula_out) == pytest.approx(4.0 / 3.0, rel=1e-11)
        assert float(levinson_out) == pytest.approx(float(formula_out), rel=1e-9)

    def test_analytic_arguments(self, capsys):
        code, out, _ = run(capsys, "rho", "const:1", "ar:0.5:1", "--grid", 1024)
        assert code == 0
        assert float(out) == pytest.approx(1.25, rel=1e-11)

    def test_ratio_beyond_double_range_is_a_domain_error(self, capsys):
        # log rho = log I_0(715) is about 711, past the largest double
        code, out, err = run(capsys, "rho", "expcos:700", "expcos:-15")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "prediction ratio" in err


def test_cli_output_is_deterministic(capsys, fixtures):
    outputs = set()
    for _ in range(5):
        code, out, _ = run(capsys, "dist", fixtures["expcos"], fixtures["ar05"])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
