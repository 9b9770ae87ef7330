import csv
import io
import math
import os
import re
import tracemalloc
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specdist import (
    CsvParseError,
    InvalidGridError,
    NegativeDensityError,
    build_distance_matrix,
    geodesic_distance,
    make_grid,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    read_psd_csv,
    read_timeseries_csv,
    write_distance_matrix_csv,
    write_psd_csv,
)
from specdist import divergences
from specdist import io as specdist_io
from specdist.io import DistanceMatrix, format_scalar

from conftest import EXTREME_DENSITIES, psd_with_zero_at, random_positive_spectrum
from oracles import per_row_psd_csv


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

    def test_all_zero_values_name_the_file(self, tmp_path):
        thetas = -np.pi + np.pi / 2 * np.arange(4)
        rows = "\n".join(f"{t:.17g},0" for t in thetas)
        path = self.write(tmp_path, f"theta,psd\n{rows}\n")
        message = f"^{re.escape(str(path))}: the all-zero vector is not a density$"
        with pytest.raises(CsvParseError, match=message):
            read_psd_csv(path)


@pytest.mark.parametrize(
    "read,text",
    [
        (read_psd_csv, b"theta,psd\n-3.14,1\n\xff,2\n"),
        # laid out as written, with a raw byte in a value field
        (read_psd_csv, b"theta,psd\n-3.1415926535897931,1\n0,\xff\n"),
        (read_timeseries_csv, b"value\n1\n\xff\n"),
    ],
    ids=["psd", "psd_canonical", "series"],
)
def test_undecodable_file_is_named(tmp_path, read, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    message = f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"
    with pytest.raises(CsvParseError, match=message):
        read(path)


class TestTimeSeriesRead:
    def test_two_column_format(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("t,value\n0,1.5\n1,2.5\n2,3.5\n")
        ts = read_timeseries_csv(path)
        np.testing.assert_array_equal(ts.samples, [1.5, 2.5, 3.5])

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

    # the first body takes the vectorized parse, the quoted one the row parser
    @pytest.mark.parametrize("body", ["t,value\n0,1.5\n1,-2\n", 'value\n"1.5"\n-2\n'])
    def test_str_bytes_and_path_names_read_alike(self, tmp_path, body):
        path = tmp_path / "series.csv"
        path.write_text(body)
        for name in (str(path), os.fsencode(path), path):
            ts = read_timeseries_csv(name)
            assert ts.samples.tolist() == [1.5, -2.0]

    # LF takes the vectorized parse, CRLF the row parser
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_series_keeps_the_parsed_column(self, tmp_path, end):
        path = tmp_path / "ts.csv"
        fields = ["0.1", "-2.5e-3", "7", "1e300"]
        path.write_bytes(end.join(["value", *fields, ""]).encode())
        samples = read_timeseries_csv(path).samples
        expected = np.array([float(x) for x in fields])
        np.testing.assert_array_equal(samples.view(np.uint64), expected.view(np.uint64))
        # a view of the sealed table, not a copy of it
        assert samples.base is not None and not samples.base.flags.writeable
        assert not samples.flags.writeable

    def test_series_read_holds_one_copy_of_the_samples(self, tmp_path):
        # 2^20 small integers: the parse's own transient is small next to the
        # samples, so a second copy of them shows; at 2^18 rows it would not
        path = tmp_path / "ts.csv"
        values = np.random.default_rng(67).integers(0, 100, 1 << 20)
        path.write_text("value\n" + "\n".join(map(str, values.tolist())) + "\n")
        tracemalloc.start()
        try:
            samples = read_timeseries_csv(path).samples
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples.tolist() == values.tolist()
        assert peak - samples.nbytes < samples.nbytes / 2


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
    # The canonical parse (exact header, "<theta>,<value>" rows with LF line
    # ends, theta text as written) against everything just outside it.
    "written": _psd_text([f"{v:.17g}" for v in (0.1, 2 / 3, 0.0, 5e-324)]),
    "crlf_last_row": _psd_text(["1.5", "2", "0.25", "3"]).removesuffix("\n") + "\r\n",
    "cr_inside_row": _psd_text([" 1\r ", "2", "0.25", "3"]),
    "theta_16_digits": "theta,psd\n" + "".join(f"{t:.16g},1.5\n" for t in np.pi / 2 * np.arange(4) - np.pi),
    "theta_18e": "theta,psd\n" + "".join(f"{t:.18e},1.5\n" for t in np.pi / 2 * np.arange(4) - np.pi),
    "realigned_rows": _psd_text(["1.5", "2", "0.25", "3"]).replace(f"\n{_THETAS[1]},", f",{_THETAS[1]}\n", 1),
    "trailing_blank_line": _psd_text(["1.5", "2", "0.25", "3"]) + "\n",
    "value_minus_one": _psd_text(["1.5", "-1", "0.25", "3"]),
    "value_leading_space": _psd_text(["1.5", "2", " 1", "3"]),
    "value_form_feed": _psd_text(["1.5\x0c", "\x0b2", "0.25", "3"]),
    # The canonical parse converts each value's bytes, the others its text:
    # float takes both spellings of 1_5, and \u0662 only as text.
    "value_arabic_indic_digit": _psd_text(["1.5", "\u0662", "0.25", "3"]),
    "value_underscore": _psd_text(["1.5", "1_5", "0.25", "3"]),
    # Where reading with universal newlines (loadtxt given a file name) could
    # differ from reading with newline="" (the row parser).
    "cr": _psd_text(["1.5", "2", "0.25", "3"], end="\r"),
    "cr_body": "theta,psd\n" + _psd_text(["1.5", "2", "0.25", "3"], end="\r").split("\r", 1)[1],
    "cr_cr_body": "theta,psd\n" + _psd_text(["1.5", "2", "0.25", "3"], end="\r\r").split("\r\r", 1)[1],
    "final_bare_cr": _psd_text(["1.5", "2", "0.25", "3"]).removesuffix("\n") + "\r",
    "cr_in_theta": _psd_text(["1.5", "2", "0.25", "3"]).replace(_THETAS[1], _THETAS[1][:4] + "\r" + _THETAS[1][4:]),
    "cr_in_value": _psd_text(["1.5", "2\r5", "0.25", "3"]),
    "cr_in_quoted_value": _psd_text(["1.5", '"2\r"', "0.25", "3"]),
    "bom": "\ufeff" + _psd_text(["1.5", "2", "0.25", "3"]),
    "bom_in_value": _psd_text(["1.5", "\ufeff2", "0.25", "3"]),
    "u2028_in_value": _psd_text(["1.5", "2\u20285", "0.25", "3"]),
    "u0085_in_value": _psd_text(["1.5", "2\x85", "0.25", "3"]),
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
    # Where reading with universal newlines could differ from newline="".
    "cr": "t,value\r0,1.5\r1,2.5\r",
    "cr_body_t_value": "t,value\n0,1.5\r1,-2.5\r2,3.5\r",
    "cr_body_value": "value\n1\r-2\r3e-3\r",
    "cr_cr_body": "value\n1\r\r2\r\r",
    "final_bare_cr": "t,value\n0,1\n1,2\r",
    "cr_in_t": "t,value\n0\r5,1\n1,2\n",
    "cr_in_quoted_t": 't,value\n"0\r5",1\n1,2\n',
    "cr_in_value": "t,value\n0,1\r5\n1,2\n",
    "cr_in_quoted_value": 'value\n"1\r"\n2\n',
    "bom": "\ufeffvalue\n1\n2\n",
    "bom_in_value": "value\n1\n\ufeff2\n",
    "bom_in_t": "t,value\n\ufeff0,1\n1,2\n",
    "u2028_in_value": "value\n1\u20282\n3\n",
    "u0085_in_value": "t,value\n0,1\x85\n1,2\n",
}


# Every Latin-1 character and the other Unicode spaces, each appended to a
# value field of a file the fast parses take.
_ONE_CHARACTERS = [
    chr(c)
    for c in (*range(0x100), 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
]
_ONE_CHARACTER_FILES = {
    "psd": (read_psd_csv, lambda ch: _psd_text(["1.5", "2" + ch, "0.25", "3"]), lambda f: f.values),
    "t_value": (read_timeseries_csv, lambda ch: f"t,value\n0,1.5\n1,2{ch}\n2,3\n", lambda ts: ts.samples),
    "value": (read_timeseries_csv, lambda ch: f"value\n1\n2{ch}\n3\n", lambda ts: ts.samples),
}


# Plain-text files under names numpy's datasource would decompress, or
# fetch as a URL, were they handed to np.loadtxt as they are.
_PLAIN_TEXT_NAMES = [
    "series.gz", "series.bz2", "series.xz", "series.lzma", "series.csv.gz", "series.zip",
    "http://host/x.csv",
]
_NAMED_FILES = {
    "psd": (read_psd_csv, PSD_CORPUS["theta_16_digits"], lambda f: f.values),
    "psd_canonical": (read_psd_csv, PSD_CORPUS["written"], lambda f: f.values),
    "psd_bad_row": (read_psd_csv, PSD_CORPUS["nan"], lambda f: f.values),
    "t_value": (read_timeseries_csv, SERIES_CORPUS["two_column"], lambda ts: ts.samples),
    "value": (read_timeseries_csv, SERIES_CORPUS["one_column"], lambda ts: ts.samples),
    "t_value_bad_row": (read_timeseries_csv, SERIES_CORPUS["trailing_comma"], lambda ts: ts.samples),
}


def _refuse_network(*args, **kwargs):
    raise AssertionError("a file name was opened as a URL")


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
            m.setattr(specdist_io, "_canonical_psd", lambda data: None)
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

    @pytest.mark.parametrize("kind", sorted(_ONE_CHARACTER_FILES))
    def test_one_appended_character_matches_row_parser(self, tmp_path, monkeypatch, kind):
        read, text, vector = _ONE_CHARACTER_FILES[kind]
        path = tmp_path / f"{kind}.csv"
        mismatches = []
        for ch in _ONE_CHARACTERS:
            path.write_bytes(text(ch).encode())
            try:
                fast, rows = self.both(monkeypatch, read, path)
                if not isinstance(rows, Exception):
                    np.testing.assert_array_equal(
                        vector(fast).view(np.uint64), vector(rows).view(np.uint64)
                    )
            except AssertionError:
                mismatches.append(ch)
        assert mismatches == []

    def test_written_files_take_the_fast_path(self, tmp_path, grid1024):
        f = random_positive_spectrum(np.random.default_rng(3), grid1024)
        path = tmp_path / "f.csv"
        write_psd_csv(f, path)
        table = specdist_io._numeric_table(path, specdist_io._PSD_LAYOUT)
        assert table is not None and table.shape == (1024, 2)
        np.testing.assert_array_equal(table[:, 1], f.values)

    def test_body_over_the_canonical_cap_takes_loadtxt(self, tmp_path, monkeypatch):
        # 32768 written rows are past the canonical parse's body limit
        grid = make_grid(2 * specdist_io._CANONICAL_MAX_N)
        f = random_positive_spectrum(np.random.default_rng(9), grid)
        path = tmp_path / "f.csv"
        write_psd_csv(f, path)
        assert specdist_io._canonical_psd(path.read_bytes()) is None

        def refuse(*args, **kwargs):
            raise AssertionError("left the loadtxt parse")

        monkeypatch.setattr(specdist_io, "_read_rows", refuse)
        g = read_psd_csv(path)
        np.testing.assert_array_equal(g.values.view(np.uint64), f.values.view(np.uint64))

    def test_written_files_take_the_canonical_parse(self, tmp_path, monkeypatch, grid1024):
        values = np.array(random_positive_spectrum(np.random.default_rng(4), grid1024).values)
        values[[0, 7, 1023]] = [0.0, 5e-324, 1.7976931348623157e308]
        f = psd_from_samples(grid1024, values)
        path = tmp_path / "f.csv"
        write_psd_csv(f, path)

        def refuse(*args, **kwargs):
            raise AssertionError("left the canonical parse")

        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(specdist_io, "_read_rows", refuse)
        g = read_psd_csv(path)
        assert g.grid is grid1024
        np.testing.assert_array_equal(g.values.view(np.uint64), f.values.view(np.uint64))
        assert g.zero_set == frozenset({0})

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_written_file_is_read_from_a_pipe(self, tmp_path, grid64):
        # A pipe has no size and gives its bytes once, as from `specdist dist
        # <(cat f.csv)`: the canonical parse takes a written file whole, and
        # the row parser its twins and a series past the 8 KiB text buffer
        # (under the 64 KiB pipe buffer, so it is written before the read).
        f = random_positive_spectrum(np.random.default_rng(5), grid64)
        path = tmp_path / "f.csv"
        write_psd_csv(f, path)
        written = path.read_bytes()
        samples = np.random.default_rng(6).standard_normal(1500)
        series = ("value\n" + "".join(f"{x!r}\n" for x in samples.tolist())).encode()
        assert 10 << 10 < len(series) < 60 << 10
        psd, ts = (read_psd_csv, lambda g: g.values), (read_timeseries_csv, lambda s: s.samples)
        twins = {
            "written": (*psd, written),
            "theta 0.0": (*psd, written.replace(b"\n0,", b"\n0.0,")),
            "crlf": (*psd, written.replace(b"\n", b"\r\n")),
            "no final LF": (*psd, written[:-1]),
            "series": (*ts, series),
        }
        assert len({data for _, _, data in twins.values()}) == len(twins)
        for name, (read, vector, data) in twins.items():
            twin = tmp_path / "twin.csv"
            twin.write_bytes(data)
            r, w = os.pipe()
            try:
                os.write(w, data)
                os.close(w)
                piped = vector(read(f"/dev/fd/{r}"))
            finally:
                os.close(r)
            expected = f.values if read is read_psd_csv else samples
            np.testing.assert_array_equal(vector(read(twin)).view(np.uint64), expected.view(np.uint64))
            np.testing.assert_array_equal(piped.view(np.uint64), expected.view(np.uint64), err_msg=name)

    def test_timestamp_t_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("t,value\n2024-01-01T00:00,1.5\n2024-01-01T00:01,-2\n\n2024-01-01,3\n")
        table = specdist_io._numeric_table(path, specdist_io._SERIES_LAYOUTS)
        assert table is not None and table.tolist() == [[1.5], [-2.0], [3.0]]
        assert read_timeseries_csv(path).samples.tolist() == [1.5, -2.0, 3.0]

    @pytest.mark.parametrize(
        "body", ["0,1\n1,2,3\n", "a,1\nb,2,\n", "0,1\n2\n", "0,1\n,\n", "0,1,2\n3\n"]
    )
    def test_skipped_column_rows_need_the_header_field_count(self, tmp_path, monkeypatch, body):
        # loadtxt's usecols alone would accept a row with extra fields
        path = tmp_path / "ts.csv"
        path.write_text("t,value\n" + body)
        assert specdist_io._numeric_table(path, specdist_io._SERIES_LAYOUTS) is None
        _, rows = self.both(monkeypatch, read_timeseries_csv, path)
        assert isinstance(rows, CsvParseError)

    @pytest.mark.parametrize("kind", sorted(_NAMED_FILES))
    @pytest.mark.parametrize("name", _PLAIN_TEXT_NAMES)
    def test_file_name_does_not_change_the_parse(self, tmp_path, monkeypatch, name, kind):
        # numpy's datasource decompresses by suffix and fetches URLs; these
        # files are plain text whatever their names say
        read, text, vector = _NAMED_FILES[kind]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(urllib.request, "urlopen", _refuse_network)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
        for named in (name, os.fsencode(name), path):
            fast, rows = self.both(monkeypatch, read, named)
            if not isinstance(rows, Exception):
                np.testing.assert_array_equal(
                    vector(fast).view(np.uint64), vector(rows).view(np.uint64)
                )

    def test_guarded_suffixes_cover_numpy_decompressors(self):
        from numpy.lib import _datasource

        suffixes = {s for s in _datasource._file_openers.keys() if s is not None}
        assert suffixes <= set(specdist_io._DECOMPRESSED_SUFFIXES)

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


# _mixed_spectra keeps 7 of every 10 spectra positive, so these K give
# _PAIR_BLOCK, _PAIR_BLOCK + 1 and 2 * _PAIR_BLOCK + 1 positive rows.
_BLOCK_EDGE_KS = (11, 12, 23)


class TestDistanceMatrix:
    def test_io_binds_the_table_of_divergences(self):
        # the table lives beside the distance; io keeps its public names
        assert specdist_io.build_distance_matrix is divergences.build_distance_matrix
        assert specdist_io.DistanceMatrix is divergences.DistanceMatrix

    @pytest.mark.parametrize(
        "labels,entries",
        [(("a", "b", "c"), np.zeros((2, 2))), (("a", "b"), np.zeros((3, 2))), (("a",), [0.0])],
        ids=["more-labels", "more-rows", "vector"],
    )
    def test_entries_must_be_square_over_the_labels(self, labels, entries):
        with pytest.raises(ValueError, match=f"entries must be a {len(labels)} x {len(labels)} array"):
            DistanceMatrix(labels=labels, entries=entries)

    def test_stores_a_read_only_copy_of_a_writable_array(self):
        entries = np.array([[0.0, 1.5], [1.5, 0.0]])
        m = DistanceMatrix(labels=("a", "b"), entries=entries)
        entries[0, 1] = 9.0
        assert m.entries[0, 1] == 1.5 and not m.entries.flags.writeable

    def test_keeps_a_read_only_array_that_owns_its_memory(self):
        # as build_distance_matrix's table is, so it is stored without a copy
        entries = np.array([[0.0, 1.5], [1.5, 0.0]])
        entries.setflags(write=False)
        assert DistanceMatrix(labels=("a", "b"), entries=entries).entries is entries

    def test_block_edge_ks_match_the_pair_block(self, grid64):
        b = divergences._PAIR_BLOCK
        positive = [
            sum(not f.zero_set for f in _mixed_spectra(k, grid64, np.random.default_rng(k)))
            for k in _BLOCK_EDGE_KS
        ]
        assert positive == [b, b + 1, 2 * b + 1]

    @pytest.mark.parametrize("k", [1, 2, *_BLOCK_EDGE_KS, 33, 70])
    def test_entries_equal_pairwise_geodesic_distance(self, grid1024, k, monkeypatch):
        spectra = _mixed_spectra(k, grid1024, np.random.default_rng(k))
        calls = []

        def counted(f1, f2):
            calls.append(frozenset((id(f1), id(f2))))
            return geodesic_distance(f1, f2)

        monkeypatch.setattr(divergences, "geodesic_distance", counted)
        m = build_distance_matrix(spectra, [f"s{i}" for i in range(k)]).entries
        # geodesic_distance runs once for each pair of spectra that both have
        # zeros, and for no other pair
        zero_pairs = {
            frozenset((id(f1), id(f2)))
            for i, f1 in enumerate(spectra)
            for f2 in spectra[i + 1 :]
            if f1.zero_set and f2.zero_set
        }
        assert len(calls) == len(zero_pairs) and set(calls) == zero_pairs
        for i in range(k):
            for j in range(i + 1, k):
                expected = geodesic_distance(spectra[i], spectra[j])
                assert m[i, j] == expected
                assert math.isinf(m[i, j]) == (spectra[i].zero_set != spectra[j].zero_set)
        np.testing.assert_array_equal(m.view(np.uint64), m.T.view(np.uint64))
        np.testing.assert_array_equal(np.diag(m).view(np.uint64), 0)

    def test_no_strictly_positive_spectrum(self, grid64):
        # two groups sharing a zero set, and two spectra with zeros of their own
        rng = np.random.default_rng(11)
        zero_sets = [(3,), (3,), (7, 8), (7, 8), (7, 8), (20,), (40,)]
        spectra = []
        for zeros in zero_sets:
            values = np.array(random_positive_spectrum(rng, grid64).values)
            values[list(zeros)] = 0.0
            spectra.append(psd_from_samples(grid64, values))
        m = build_distance_matrix(spectra, [f"s{i}" for i in range(len(spectra))]).entries
        for i, zi in enumerate(zero_sets):
            for j, zj in enumerate(zero_sets):
                if i != j:
                    assert m[i, j] == geodesic_distance(spectra[i], spectra[j])
                assert math.isinf(m[i, j]) == (zi != zj)
        np.testing.assert_array_equal(np.diag(m), 0.0)

    def test_no_spectra(self):
        m = build_distance_matrix([], [])
        assert m.labels == () and m.entries.shape == (0, 0)

    def test_a_generator_is_read_once_and_gives_the_bits_of_the_list(self, grid1024):
        spectra = _mixed_spectra(40, grid1024, np.random.default_rng(3))
        labels = [f"s{i}" for i in range(len(spectra))]
        # a second pass over the generator would find it empty
        streamed = build_distance_matrix((f for f in spectra), labels).entries
        listed = build_distance_matrix(spectra, labels).entries
        assert streamed.tobytes() == listed.tobytes()

    def test_a_stream_holds_one_log_row_per_spectrum(self):
        # Holding every density beside its log row takes 2*k*n*8 bytes, plus
        # the pair loop's scratch block of 8 rows (0.08*k*n*8 at k = 100).
        # The stream holds the log table, that block and the spectrum read.
        k, grid = 100, make_grid(4096)
        rng = np.random.default_rng(8)
        fresh = (psd_from_samples(grid, 1.0 + rng.random(grid.n)) for _ in range(k))
        tracemalloc.start()
        try:
            build_distance_matrix(fresh, [f"s{i}" for i in range(k)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * k * grid.n * 8

    @pytest.mark.parametrize("count", [0, 2, 4, 9])
    def test_a_stream_of_the_wrong_length_names_both_counts(self, grid64, count):
        spectra = (psd_constant(grid64, 1.0 + i) for i in range(count))
        with pytest.raises(ValueError, match=f"^{count} spectra but 3 labels$"):
            build_distance_matrix(spectra, ["a", "b", "c"])

    def test_an_empty_stream(self):
        m = build_distance_matrix(iter(()), [])
        assert m.labels == () and m.entries.shape == (0, 0)

    def test_a_stream_with_mixed_grids_names_the_first_mismatch(self, grid64, grid1024):
        spectra = [psd_constant(grid64, 1.0), psd_with_zero_at(grid64, 2), psd_constant(grid1024, 1.0)]
        with pytest.raises(ValueError, match=r"different grids \(n = 64 vs 1024\)"):
            build_distance_matrix(iter(spectra), ["a", "b", "c"])

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

    def test_label_count_must_match(self, grid64):
        with pytest.raises(ValueError, match="labels"):
            build_distance_matrix([psd_constant(grid64, 1.0)], ["a", "b"])

    def test_write_into_a_missing_directory_names_the_path(self, tmp_path, grid64):
        m = build_distance_matrix([psd_constant(grid64, 1.0)], ["only"])
        out = tmp_path / "missing" / "m.csv"
        with pytest.raises(OSError, match=f"^cannot write distance matrix to {re.escape(str(out))}: "):
            write_distance_matrix_csv(m, out)


def _old_matrix_text(matrix):
    """write_distance_matrix_csv as one csv.writer row per matrix row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *matrix.labels])
    for label, row in zip(matrix.labels, matrix.entries):
        writer.writerow([label, *(format_scalar(x) for x in row)])
    return out.getvalue()


class TestWrittenBytes:
    def test_psd_bytes_match_the_per_row_formula(self, tmp_path):
        # more node counts than the theta cache holds, interleaved, so the
        # cache is both hit and missed; 16385 is past the cached sizes
        rng = np.random.default_rng(9)
        for i, n in enumerate([2, 4096, 3, 2, 1024, 7, 4096, 16385, 3, 1024, 2, 7]):
            values = rng.exponential(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            values[rng.integers(n, size=len(EXTREME_DENSITIES))] = EXTREME_DENSITIES
            f = psd_from_samples(make_grid(n), values)
            path = tmp_path / f"{i}.csv"
            write_psd_csv(f, path)
            stream = io.StringIO()
            write_psd_csv(f, stream)
            expected = per_row_psd_csv(f.grid.nodes, f.values).encode()
            assert path.read_bytes() == stream.getvalue().encode() == expected
            back = read_psd_csv(path).values
            np.testing.assert_array_equal(back.view(np.uint64), f.values.view(np.uint64))

    @pytest.mark.parametrize(
        "labels",
        [["a", "b", "c"], ["a,b", 'x"y', " lead"], ["", "p\nq", "r\rs", "trail "], ["only"], []],
        ids=["plain", "quoted", "edge", "one", "none"],
    )
    def test_matrix_bytes_match_csv_writer_rows(self, tmp_path, grid64, labels):
        spectra = [psd_with_zero_at(grid64, 1 + i % 2, 1.5 + i) for i in range(len(labels))]
        if len(labels) > 2:
            spectra[2] = psd_constant(grid64, 0.1)
        m = build_distance_matrix(spectra, labels)
        out = tmp_path / "m.csv"
        write_distance_matrix_csv(m, out)
        assert out.read_bytes() == _old_matrix_text(m).encode()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        entries=arrays(
            np.float64,
            (4, 4),
            elements=st.one_of(
                st.floats(min_value=0.0, max_value=np.finfo(float).max, allow_subnormal=True),
                st.sampled_from([0.0, 5e-324, 0.1, 1e-5, 1e16, 1e17, math.inf]),
            ),
        ),
        labels=st.lists(st.text(max_size=4), min_size=4, max_size=4),
    )
    def test_matrix_rows_are_format_scalar_joined(self, tmp_path_factory, entries, labels):
        # generated labels include commas, quotes and line breaks
        m = DistanceMatrix(labels=tuple(labels), entries=entries)
        out = tmp_path_factory.mktemp("matrix") / "m.csv"
        write_distance_matrix_csv(m, out)
        assert out.read_bytes() == _old_matrix_text(m).encode()


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_scalar(math.sqrt(0.5)) == "0.707106781187"

    def test_zero(self):
        assert format_scalar(0.0) == "0"

    def test_infinity(self):
        assert format_scalar(math.inf) == "inf"
