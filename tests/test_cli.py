import math

import numpy as np
import pytest

from specdist import (
    geodesic_distance,
    geodesic_point,
    make_grid,
    path_length,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    read_psd_csv,
    write_psd_csv,
)
from specdist.cli import main

from conftest import psd_with_zero_at
from oracles import per_row_psd_csv


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

    def test_extreme_power_mean_order_stays_finite(self, capsys):
        # r * log(ratio) overflows at r = 1e308; the value is the r = 1e300 one
        code, out, err = run(
            capsys, "dist", "--metric", "rs", "--r", 1e308, "--s", 1, "expcos:3", "const:1"
        )
        assert (code, out, err) == (0, "1.41469237819\n", "")
        assert run(
            capsys, "dist", "--metric", "rs", "--r", 1e300, "--s", 1, "expcos:3", "const:1"
        )[1] == out

    def test_equal_orders_are_usage_error(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "dist", fixtures["expcos"], fixtures["const1"],
            "--metric", "rs", "--r", 1, "--s", 1,
        )
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["r", "s"])
    def test_non_finite_orders_are_usage_error(self, capsys, flag, bad):
        orders = {"r": "2", "s": "1", flag: bad}
        code, out, err = run(
            capsys, "dist", "--metric", "rs", f"--r={orders['r']}", f"--s={orders['s']}",
            "expcos:1", "const:1",
        )
        assert (code, out) == (2, "")
        assert "usage error: rs orders must be finite" in err

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

    @pytest.mark.parametrize(
        "form,message",
        [
            ("ar:0.5", "'ar:0.5': AR form is ar:<a1,a2,...>:<sigma2>"),
            ("expcos:abc", "bad analytic spectrum 'expcos:abc': could not convert"),
            *(
                (form, f"bad analytic spectrum {form!r}: could not convert string to float: ''")
                for form in ("ar:0.5,,0.2:1", "ar:,0.5:1", "ar:0.5,:1")
            ),
        ],
    )
    def test_malformed_analytic_form_is_usage_error(self, capsys, form, message):
        code, out, err = run(capsys, "dist", form, "const:1", "--grid", 64)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {message}")

    def test_an_empty_coefficient_list_is_white_noise(self, capsys):
        assert run(capsys, "dist", "ar::1", "const:1")[:2] == (0, "0\n")

    @pytest.mark.parametrize("form", ["ar:0.7,0.3:1", "ar:-0.5,0.5:1"])
    def test_root_on_the_unit_circle_is_a_domain_error(self, capsys, form):
        for n in (64, 63):
            code, out, err = run(capsys, "dist", form, "const:1", "--grid", n)
            assert (code, out) == (1, "")
            assert err.startswith("error: AR model is not stable") and err.count("\n") == 1

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

    def test_tau_stdout_is_the_per_row_text(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "geodesic", fixtures["ar05"], fixtures["expcos2"], "--tau", 0.25
        )
        assert code == 0
        point = geodesic_point(read_psd_csv(fixtures["ar05"]), read_psd_csv(fixtures["expcos2"]), 0.25)
        assert out == per_row_psd_csv(point.grid.nodes, point.values)

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
        f0 = read_psd_csv(fixtures["expcos"])
        f1 = read_psd_csv(fixtures["ar05"])
        assert abs(path_length(points) - geodesic_distance(f0, f1)) <= 1e-10

    def test_tau_and_steps_together_are_usage_error(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "geodesic", fixtures["const1"], fixtures["expcos"],
            "--tau", 0.5, "--steps", 5, "--out", "x",
        )
        assert code == 2

    def test_steps_without_out_is_usage_error(self, capsys, fixtures):
        code, out, err = run(
            capsys, "geodesic", fixtures["const1"], fixtures["expcos"], "--steps", 5
        )
        assert (code, out, err) == (2, "", "usage error: --steps requires --out DIR\n")

    def test_endpoints_without_a_path_write_no_directory(self, capsys, tmp_path, grid64, fixtures):
        zeroed = tmp_path / "zeroed.csv"
        write_psd_csv(psd_with_zero_at(grid64, 3), zeroed)
        for other, message in [
            ("const:1", "infinitely far apart"),
            (fixtures["const1"], "different grids"),
        ]:
            out_dir = tmp_path / "path"
            code, out, err = run(
                capsys,
                "geodesic", zeroed, other,
                "--steps", 5, "--grid", 64, "--out", out_dir,
            )
            assert (code, out) == (1, "")
            assert message in err
            assert not out_dir.exists()

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

    def test_runs_are_byte_identical(self, capsys, tmp_path, fixtures):
        args = ["matrix", *fixtures.values()]
        blobs = set()
        for i in range(4):
            out = tmp_path / f"m{i}.csv"
            code, _, _ = run(capsys, *args, "--out", out)
            assert code == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1

    def test_files_with_one_stem_are_refused(self, capsys, tmp_path, fixtures):
        # the matrix labels its rows by stem, so two x.csv rows could not be told apart
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first, second = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
        first.write_bytes(fixtures["const1"].read_bytes())
        second.write_bytes(fixtures["expcos"].read_bytes())
        for files in ([first, fixtures["expcos"], second], [first, first]):
            out = tmp_path / "m.csv"
            code, _, err = run(capsys, "matrix", *files, "--out", out)
            assert code == 2
            assert err == f"usage error: {first} and {files[-1]} both give the label 'x'\n"
            assert not out.exists()

    def test_all_zero_file_is_named(self, capsys, tmp_path, fixtures):
        zero = tmp_path / "zero.csv"
        zero.write_text(per_row_psd_csv(make_grid(8).nodes, np.zeros(8)))
        code, _, err = run(
            capsys, "matrix", fixtures["const1"], zero, "--out", tmp_path / "m.csv"
        )
        assert code == 1
        assert err == f"error: {zero}: the all-zero vector is not a density\n"
        assert not (tmp_path / "m.csv").exists()

    def test_undecodable_file_is_named(self, capsys, tmp_path, fixtures):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"theta,psd\n-3.14,1\n\xff,2\n")
        code, _, err = run(capsys, "matrix", fixtures["const1"], bad, "--out", tmp_path / "m.csv")
        assert code == 1
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_jobs_is_not_an_option(self, tmp_path, fixtures):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", str(fixtures["const1"]), "--out", str(tmp_path / "m.csv"), "--jobs", "4"])
        assert exc.value.code == 2


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

    def test_estimate_hop_is_that_of_the_decimal_overlap(self, capsys, tmp_path):
        # 10 * (1 - 0.9) is just below 1 in binary floating point
        series = tmp_path / "ramp.csv"
        series.write_text("value\n" + "\n".join(f"{(7 * i) % 11}" for i in range(40)) + "\n")
        out = tmp_path / "est.csv"
        code, _, err = run(
            capsys,
            "estimate", series, "--method", "welch",
            "--segment", 10, "--overlap", 0.9, "--window", "rectangular",
            "--grid", 16, "--out", out,
        )
        assert (code, err) == (0, "")
        assert read_psd_csv(out).grid.n == 16

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
        zeroed = tmp_path / "zeroed.csv"
        write_psd_csv(psd_with_zero_at(grid64, 0), zeroed)
        for spec, word in (
            (fixtures["ar05"], "StrictlyPositive"),
            ("const:1", "StrictlyPositive"),
            ("ar:0.9,-0.3:0.5", "StrictlyPositive"),
            (zeroed, "HasZeros"),
        ):
            code, out, _ = run(capsys, "classify", spec)
            assert (code, out) == (0, word + "\n")


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


class TestDoubleRange:
    def test_scaled_metric_of_huge_constant_is_finite(self, capsys):
        # inf means only "the zero sets differ": a mean past the sum's range is finite
        code, out, err = run(capsys, "dist", "const:1e308", "const:1", "--metric", "d")
        assert (code, out, err) == (0, "1e+308\n", "")

    def test_geodesic_between_largest_doubles(self, capsys):
        big = "1.7976931348623157e+308"
        code, out, err = run(capsys, "geodesic", f"const:{big}", f"const:{big}", "--tau", 0.1, "--grid", 8)
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [f"{t},{big}" for t in ["%.17g" % x for x in make_grid(8).nodes]]


    def test_geodesic_point_near_the_top_keeps_the_larger_endpoint(self, capsys):
        big = "1.7976931348623157e+308"
        code, out, err = run(capsys, "geodesic", f"const:{big}", "const:1e200", "--tau", "3e-19", "--grid", 8)
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [f"{t},{big}" for t in ["%.17g" % x for x in make_grid(8).nodes]]

    def test_levinson_ratio_is_blind_to_a_scale_past_the_double_range(self, capsys):
        args = ("ar:-0.9:1", "--oracle", "levinson", "--order", 2, "--grid", 64)
        unit = run(capsys, "rho", "ar:0.9:1", *args)
        assert run(capsys, "rho", "ar:0.9:1e306", *args) == unit == (0, "18.0922086138\n", "")

    @pytest.mark.parametrize("order", [2, 16])
    def test_levinson_ratio_is_blind_to_the_scale_of_the_predicted_density(self, capsys, order):
        args = ("--oracle", "levinson", "--order", order, "--grid", 64)
        unit = run(capsys, "rho", "ar:-0.9:1", "ar:0.9:1", *args)
        assert unit[0] == 0
        assert run(capsys, "rho", "ar:-0.9:1", "ar:0.9:1e306", *args) == unit

    def test_levinson_ratio_whose_degraded_variance_passes_the_double_range(self, capsys):
        args = ("ar:-0.9:1", "--oracle", "levinson", "--order", 2, "--grid", 64)
        unit = run(capsys, "rho", "const:1", *args)
        assert run(capsys, "rho", "const:1.7e308", *args) == unit == (0, "1.80999942435\n", "")

    @pytest.mark.parametrize("spec", ["expcos:800", "ar:0.999:1e308"])
    def test_inline_density_past_the_double_range_is_a_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "dist", spec, "const:1", "--grid", 64)
        assert (code, out) == (2, "")
        assert err == f"usage error: bad analytic spectrum {spec!r}: the density exceeds the double range\n"


class TestGridHelp:
    @pytest.mark.parametrize("verb", ["dist", "geodesic", "classify", "rho"])
    def test_inline_verbs_describe_the_inline_grid(self, capsys, verb):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--grid N node count for inline analytic spectra (files keep their own grid)" in out

    def test_estimate_describes_the_grid_of_its_estimate(self, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--grid N node count of the estimated PSD's grid" in out
        assert "inline" not in out
