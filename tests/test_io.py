import math
import warnings

import numpy as np
import pytest

from specdist import (
    CsvParseError,
    InvalidGridError,
    NegativeDensityError,
    build_distance_matrix,
    geodesic_distance,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    read_psd_csv,
    read_timeseries_csv,
    write_distance_matrix_csv,
    write_psd_csv,
)
from specdist import io as specdist_io
from specdist.io import format_scalar

from conftest import psd_with_zero_at, random_positive_spectrum


class TestPsdRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, grid4096):
        f = psd_from_ar([0.5], 1.0, grid4096)
        path = tmp_path / "ar.csv"
        write_psd_csv(f, path)
        g = read_psd_csv(path)
        assert g.grid.n == 4096
        np.testing.assert_array_equal(g.values, f.values)

    def test_zero_set_survives_round_trip(self, tmp_path, grid64):
        f = psd_with_zero_at(grid64, 5)
        path = tmp_path / "zero.csv"
        write_psd_csv(f, path)
        assert read_psd_csv(path).zero_set == frozenset({5})

    def test_line_endings_are_lf(self, tmp_path, grid64):
        path = tmp_path / "lf.csv"
        write_psd_csv(psd_constant(grid64, 1.0), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestPsdRead:
    def write(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        return path

    def test_small_valid_file(self, tmp_path):
        thetas = -np.pi + np.pi / 2 * np.arange(4)
        rows = "\n".join(f"{t:.17g},1.5" for t in thetas)
        f = read_psd_csv(self.write(tmp_path, f"theta,psd\n{rows}\n"))
        assert f.grid.n == 4
        np.testing.assert_array_equal(f.values, 1.5)

    def test_bad_header(self, tmp_path):
        with pytest.raises(CsvParseError, match="line 1"):
            read_psd_csv(self.write(tmp_path, "frequency,power\n0,1\n"))

    def test_malformed_row_reports_line(self, tmp_path):
        thetas = -np.pi + np.pi / 2 * np.arange(4)
        rows = "\n".join(f"{t:.17g},1.0" for t in thetas)
        text = f"theta,psd\n{rows}\n".replace("1.0", "not-a-number", 1)
        with pytest.raises(CsvParseError, match="line 2"):
            read_psd_csv(self.write(tmp_path, text))

    def test_negative_value_reports_line(self, tmp_path):
        thetas = -np.pi + np.pi / 2 * np.arange(4)
        values = [1.0, 1.0, -0.25, 1.0]
        rows = "\n".join(f"{t:.17g},{v}" for t, v in zip(thetas, values))
        with pytest.raises(NegativeDensityError, match="line 4"):
            read_psd_csv(self.write(tmp_path, f"theta,psd\n{rows}\n"))

    def test_spacing_jitter_is_rejected(self, tmp_path):
        thetas = -np.pi + np.pi / 2 * np.arange(4)
        thetas[2] += 1e-3
        rows = "\n".join(f"{t:.17g},1.0" for t in thetas)
        with pytest.raises(InvalidGridError, match="not uniform"):
            read_psd_csv(self.write(tmp_path, f"theta,psd\n{rows}\n"))

    def test_wrong_origin_is_rejected(self, tmp_path):
        thetas = np.pi / 2 * np.arange(4)  # uniform but starting at 0
        rows = "\n".join(f"{t:.17g},1.0" for t in thetas)
        with pytest.raises(InvalidGridError, match="start at -pi"):
            read_psd_csv(self.write(tmp_path, f"theta,psd\n{rows}\n"))

    def test_single_row_is_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="at least 2"):
            read_psd_csv(self.write(tmp_path, "theta,psd\n-3.14,1\n"))


class TestTimeSeriesRead:
    def test_two_column_format(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("t,value\n0,1.5\n1,2.5\n2,3.5\n")
        ts = read_timeseries_csv(path)
        np.testing.assert_array_equal(ts.samples, [1.5, 2.5, 3.5])
        assert ts.label == "ts"

    def test_single_column_format(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("value\n1\n2\n3\n")
        np.testing.assert_array_equal(read_timeseries_csv(path).samples, [1.0, 2.0, 3.0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("sample\n1\n2\n")
        with pytest.raises(CsvParseError, match="line 1"):
            read_timeseries_csv(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("value\n1\nx\n")
        with pytest.raises(CsvParseError, match="line 3"):
            read_timeseries_csv(path)

    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "ts.csv"
        path.write_text(f"t,value\n0,1\n1,{value}\n2,3\n")
        with pytest.raises(CsvParseError, match="line 3"):
            read_timeseries_csv(path)

    def test_line_numbers_count_quoted_newlines(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text('value\n"1\n"\n2\nx\n')
        with pytest.raises(CsvParseError, match="line 5"):
            read_timeseries_csv(path)

    def test_time_column_is_not_parsed(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("t,value\n2024-01-01,1\n2024-01-02,2\n")
        np.testing.assert_array_equal(read_timeseries_csv(path).samples, [1.0, 2.0])


_THETAS = [f"{t:.17g}" for t in -np.pi + np.pi / 2 * np.arange(4)]


def _psd_text(values, header="theta,psd", end="\n"):
    rows = [f"{t},{v}" for t, v in zip(_THETAS, values)]
    return end.join([header, *rows]) + end


# Edge cases for the vectorized parse; each must come out exactly as the
# row parser has it, whether as a density or as an error.
PSD_CORPUS = {
    "plain": _psd_text(["1.5", "2", "0.25", "3"]),
    "crlf": _psd_text(["1.5", "2", "0.25", "3"], end="\r\n"),
    "crlf_body": "theta,psd\n" + _psd_text(["1.5", "2", "0.25", "3"], end="\r\n").split("\r\n", 1)[1],
    "header_spaces": _psd_text(["1.5", "2", "0.25", "3"], header=" theta , psd "),
    "quoted": _psd_text(['"1.5"', "2", "0.25", "3"]),
    "comment_line": _psd_text(["1.5", "2", "0.25", "3"]).replace("\n", "\n# note\n", 1),
    "blank_line": _psd_text(["1.5", "2", "0.25", "3"]).replace("\n", "\n\n", 2),
    "blank_crlf_line": _psd_text(["1.5", "2", "0.25", "3"]).replace("\n", "\n\r\n", 2),
    "whitespace_line": _psd_text(["1.5", "2", "0.25", "3"]).replace("\n", "\n   \n", 2),
    "padded_fields": _psd_text([" 1.5", "2 ", "\t0.25", "3"]),
    "nan": _psd_text(["1.5", "nan", "0.25", "3"]),
    "inf": _psd_text(["1.5", "2", "inf", "3"]),
    "overflow": _psd_text(["1.5", "2", "0.25", "1e400"]),
    "underscore": _psd_text(["1_0", "2", "0.25", "3"]),
    "trailing_comma": _psd_text(["1.5", "2,", "0.25", "3"]),
    "empty_field": _psd_text(["1.5", "", "0.25", "3"]),
    "extra_column": _psd_text(["1.5", "2,7", "0.25", "3"]),
    "non_numeric_theta": _psd_text(["1.5", "2", "0.25", "3"]).replace(_THETAS[1], "x"),
    "header_only": "theta,psd\n",
    "empty_file": "",
    "one_row": f"theta,psd\n{_THETAS[0]},1\n",
    "negative": _psd_text(["1.5", "2", "-0.25", "3"]),
    "negative_zero": _psd_text(["1.5", "-0.0", "0.25", "0"]),
    "no_final_newline": _psd_text(["1.5", "2", "0.25", "3"]).rstrip("\n"),
    "jittered_grid": _psd_text(["1", "1", "1", "1"]).replace(_THETAS[2], "1e-3"),
    "wrong_origin": "theta,psd\n" + "".join(f"{t:.17g},1\n" for t in np.pi / 2 * np.arange(4)),
}

SERIES_CORPUS = {
    "two_column": "t,value\n0,1.5\n1,-2.5\n2,3.5\n",
    "one_column": "value\n1\n-2\n3e-3\n",
    "crlf": "t,value\r\n0,1.5\r\n1,2.5\r\n",
    "crlf_body": "value\n1\r\n2\r\n3\r\n",
    "header_spaces": "t, value\n0,1\n1,2\n",
    "quoted": 'value\n"1"\n2\n',
    "comment_line": "value\n# note\n1\n2\n",
    "blank_line": "value\n1\n\n2\n",
    "whitespace_line": "value\n1\n  \n2\n",
    "padded_fields": "t,value\n0, 1.5\n1 ,2.5 \n",
    "non_numeric_t": "t,value\na,1\nb,2\n",
    "nan": "value\n1\nnan\n2\n",
    "inf_t": "t,value\ninf,1\n1,2\n",
    "overflow": "value\n1\n1e400\n",
    "underscore": "value\n1_0\n2\n",
    "trailing_comma": "t,value\n0,1,\n1,2,\n",
    "extra_column": "value\n1,2\n3,4\n",
    "header_only": "t,value\n",
    "empty_file": "",
    "one_row": "value\n1\n",
    "negative_zero": "value\n-0.0\n1\n",
    "no_final_newline": "value\n1\n2",
    "timestamp_t": "t,value\n2024-01-01,1\n2024-01-02,2\n",
}


def _outcome(read, path):
    """What a reader makes of a file: its result, or its exception."""
    try:
        return read(path)
    except Exception as exc:  # the exception is the outcome
        return exc


class TestFastParse:
    """The vectorized parse against the row parser it falls back to."""

    def both(self, monkeypatch, read, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _outcome(read, path)
        with monkeypatch.context() as m:
            m.setattr(specdist_io, "_numeric_table", lambda path, headers: None)
            rows = _outcome(read, path)
        if isinstance(rows, Exception):
            assert type(fast) is type(rows)
            assert str(fast) == str(rows)
        else:
            assert not isinstance(fast, Exception), fast
        return fast, rows

    @pytest.mark.parametrize("case", sorted(PSD_CORPUS))
    def test_psd_matches_row_parser(self, tmp_path, monkeypatch, case):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(PSD_CORPUS[case].encode())
        fast, rows = self.both(monkeypatch, read_psd_csv, path)
        if not isinstance(rows, Exception):
            assert fast.grid == rows.grid
            np.testing.assert_array_equal(fast.values.view(np.uint64), rows.values.view(np.uint64))
            assert fast.zero_set == rows.zero_set

    @pytest.mark.parametrize("case", sorted(SERIES_CORPUS))
    def test_timeseries_matches_row_parser(self, tmp_path, monkeypatch, case):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(SERIES_CORPUS[case].encode())
        fast, rows = self.both(monkeypatch, read_timeseries_csv, path)
        if not isinstance(rows, Exception):
            np.testing.assert_array_equal(fast.samples.view(np.uint64), rows.samples.view(np.uint64))
            assert fast.label == rows.label

    def test_written_files_take_the_fast_path(self, tmp_path, grid1024):
        f = random_positive_spectrum(np.random.default_rng(3), grid1024)
        path = tmp_path / "f.csv"
        write_psd_csv(f, path)
        table = specdist_io._numeric_table(path, ("theta,psd\n",))
        assert table is not None and table.shape == (1024, 2)
        np.testing.assert_array_equal(table[:, 1], f.values)

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("theta,psd\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvParseError, match="got 0"):
                read_psd_csv(path)


def _mixed_spectra(k, grid, rng):
    """Strictly positive spectra, a group sharing one zero, and spectra with
    a zero of their own, in shuffled order."""
    spectra = []
    for i in range(k):
        values = np.array(random_positive_spectrum(rng, grid).values)
        if i % 10 in (4, 7):
            values[3] = 0.0
        elif i % 10 == 9:
            values[10 + i] = 0.0
        spectra.append(psd_from_samples(grid, values))
    return [spectra[i] for i in rng.permutation(k)]


class TestDistanceMatrix:
    @pytest.mark.parametrize("k", [1, 2, 33, 70])
    def test_entries_equal_pairwise_geodesic_distance(self, grid1024, k):
        spectra = _mixed_spectra(k, grid1024, np.random.default_rng(k))
        m = build_distance_matrix(spectra, [f"s{i}" for i in range(k)]).entries
        for i in range(k):
            for j in range(i + 1, k):
                expected = geodesic_distance(spectra[i], spectra[j])
                assert m[i, j] == expected
                assert math.isinf(m[i, j]) == (spectra[i].zero_set != spectra[j].zero_set)
        np.testing.assert_array_equal(m.view(np.uint64), m.T.view(np.uint64))
        np.testing.assert_array_equal(np.diag(m).view(np.uint64), 0)

    def test_mixed_grids_name_the_first_mismatch(self, grid64, grid1024):
        spectra = [psd_constant(grid64, 1.0), psd_with_zero_at(grid64, 2), psd_constant(grid1024, 1.0)]
        with pytest.raises(ValueError, match=r"different grids \(n = 64 vs 1024\)"):
            build_distance_matrix(spectra, ["a", "b", "c"])

    def test_single_entry(self, tmp_path, grid64):
        m = build_distance_matrix([psd_constant(grid64, 1.0)], ["only"])
        out = tmp_path / "m.csv"
        write_distance_matrix_csv(m, out)
        assert out.read_text() == ",only\nonly,0\n"

    def test_infinite_pair_serializes_as_inf(self, tmp_path, grid64):
        m = build_distance_matrix(
            [psd_with_zero_at(grid64, 1), psd_constant(grid64, 1.0)], ["a", "b"]
        )
        out = tmp_path / "m.csv"
        write_distance_matrix_csv(m, out)
        assert out.read_text() == ",a,b\na,0,inf\nb,inf,0\n"

    def test_exponential_family_pattern(self, grid4096, flat_one, expcos, expcos2):
        m = build_distance_matrix([flat_one, expcos, expcos2], ["f", "g", "h"])
        root_half = math.sqrt(0.5)
        assert m.entries[0, 1] == pytest.approx(root_half, abs=1e-12)
        assert m.entries[1, 2] == pytest.approx(root_half, abs=1e-12)
        assert m.entries[0, 2] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        np.testing.assert_array_equal(m.entries, m.entries.T)
        np.testing.assert_array_equal(np.diag(m.entries), 0.0)

    def test_threaded_assembly_is_identical(self, grid1024):
        rng = np.random.default_rng(70)
        from conftest import random_positive_spectrum

        spectra = [random_positive_spectrum(rng, grid1024) for _ in range(6)]
        labels = [f"s{i}" for i in range(6)]
        serial = build_distance_matrix(spectra, labels, jobs=1)
        threaded = build_distance_matrix(spectra, labels, jobs=8)
        np.testing.assert_array_equal(serial.entries, threaded.entries)

    def test_label_count_must_match(self, grid64):
        with pytest.raises(ValueError, match="labels"):
            build_distance_matrix([psd_constant(grid64, 1.0)], ["a", "b"])


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_scalar(math.sqrt(0.5)) == "0.707106781187"

    def test_zero(self):
        assert format_scalar(0.0) == "0"

    def test_infinity(self):
        assert format_scalar(math.inf) == "inf"
