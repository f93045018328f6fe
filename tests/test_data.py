import datetime as dt
import os
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    CovTargetError,
    DataError,
    DegenerateSeriesError,
    InsufficientDataError,
    ParseError,
    ReturnPanel,
    load_panel,
    sample_moments,
)
from covtarget import data
from covtarget.data import _CSV_BLOCK as BLOCK
from covtarget.data import (
    _FIRST_SIM_DAY, _MAX_SIM_LEN, _QMAX, _QMIN, _mul128, _parse_rows, _plain_rows,
    _pow10_table, check_sim_len, write_returns_csv,
)

from conftest import gaussian_panel, synth_dates


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


PRICES_CSV = """date,AA,BB
2020-01-02,100.0,50.0
2020-01-03,101.0,49.5
2020-01-06,99.5,50.5
2020-01-07,102.0,51.0
"""


class TestLoadPrices:
    def test_loads_and_sorts(self, tmp_path):
        shuffled = "date,AA,BB\n2020-01-06,99.5,50.5\n2020-01-02,100.0,50.0\n" \
                   "2020-01-07,102.0,51.0\n2020-01-03,101.0,49.5\n"
        panel = load_panel(write(tmp_path, "p.csv", shuffled))
        assert panel.labels == ("AA", "BB")
        assert panel.dates[0] == dt.date(2020, 1, 3)
        p = np.array([100.0, 101.0, 99.5, 102.0])
        assert panel.returns[:, 0].tolist() == np.log(p[1:] / p[:-1]).tolist()

    @pytest.mark.parametrize("raw", [
        b"date,\xe9,BB\n2020-01-02,1.0,2.0\n2020-01-03,1.5,2.5\n",
        b"date,AA,BB\n2020-01-02,1.0,2.0\n2020-01-03,1.5,\xff\n",
    ], ids=["header", "body"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=f"^{path}: not UTF-8 text"):
            load_panel(path)

    def test_rejects_bad_date(self, tmp_path):
        bad = "date,AA\n2020-13-40,1.0\n"
        with pytest.raises(ParseError, match="bad date"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_bad_number(self, tmp_path):
        bad = "date,AA\n2020-01-02,abc\n"
        with pytest.raises(ParseError, match="bad number"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_missing_cell(self, tmp_path):
        bad = "date,AA,BB\n2020-01-02,1.0,\n"
        with pytest.raises(DataError, match="missing value"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_short_row(self, tmp_path):
        bad = "date,AA,BB\n2020-01-02,1.0\n"
        with pytest.raises(ParseError, match="expected 3 cells"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_duplicate_dates(self, tmp_path):
        bad = "date,AA\n2020-01-02,1.0\n2020-01-02,2.0\n"
        with pytest.raises(DataError, match="duplicate date"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_nonpositive_price(self, tmp_path):
        bad = "date,AA\n2020-01-02,0.0\n"
        with pytest.raises(DataError, match="non-positive price"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_duplicate_labels(self, tmp_path):
        bad = "date,AA,AA\n2020-01-02,1.0,2.0\n"
        with pytest.raises(DataError, match="duplicate"):
            load_panel(write(tmp_path, "p.csv", bad))

    def test_rejects_missing_date_header(self, tmp_path):
        bad = "day,AA\n2020-01-02,1.0\n"
        with pytest.raises(ParseError, match="first header column"):
            load_panel(write(tmp_path, "p.csv", bad))

    @pytest.mark.parametrize("cell, plain", [("1e500", True), ("nan", False)])
    def test_rejects_non_finite_price(self, tmp_path, cell, plain):
        # 1e500 is plain, and float() converts it to inf there; nan takes
        # the cell-by-cell parse.
        body = f"2020-01-02,1.0\n2020-01-03,{cell}\n"
        assert (_plain_rows(body.encode(), 1) is not None) == plain
        with pytest.raises(DataError, match="non-finite value for AA on 2020-01-03"):
            load_panel(write(tmp_path, "p.csv", "date,AA\n" + body))

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load_panel(write(tmp_path, "p.csv", ""))


# Cells in the plain alphabet, regular and not: float() accepts some and
# rejects the others.
PLAIN_CELLS = ["1.5", "2", "+3.25", "-1", ".5", "5.", "1e3", "1E-2", "1e+2",
               "100.00000000000004", "0.1", "1e500", "", "e", "-", "1..2",
               "1.5e", "+-1", "1-2", "1e+-2", "1e2.5", ".", "-.e1", "e5", "1.2.3",
               "1ee5", "1e5e5", "5.e-3", "-.5E+07", "1e-", "1+", "2020-01-02", "1e-2.5",
               "1E+.5"]


def reference_rows(body: str):
    """Dates and values of a body parsed cell by cell, or None if a cell is
    not a date or a float, or a row has a width other than its first."""
    rows = [line.split(",") for line in body.splitlines()]
    try:
        dates = [dt.date.fromisoformat(r[0]) for r in rows]
        values = [[float(c) for c in r[1:]] for r in rows]
    except ValueError:
        return None
    if not rows or len({len(v) for v in values}) != 1:
        return None
    return dates, np.array(values)


class TestPlainFastPath:
    @given(
        n=st.integers(1, 4),
        cells=st.lists(st.sampled_from(PLAIN_CELLS), min_size=1, max_size=24),
        eol=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_cell_by_cell(self, n, cells, eol):
        # The kernel either declines or returns exactly what float() gives.
        lines = [",".join([f"2020-01-{k + 10:02d}", *cells[k * n:(k + 1) * n]])
                 for k in range(max(1, len(cells) // n))]
        body = eol.join(lines) + eol
        got, want = _plain_rows(body.encode(), n), reference_rows(body)
        if want is not None and want[1].shape[1] == n:
            assert got is not None
        if got is not None:
            assert got[1].shape[1] == n
            assert got[0] == want[0]
            assert got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()

    def test_declines_irregular_bodies(self):
        assert _plain_rows(b"2020-01-02,1.0\n\n2020-01-03,2.0\n", 1) is None
        assert _plain_rows(b"2020-01-02,1.0,2.0\n", 1) is None
        assert _plain_rows(b'2020-01-02,"1.0"\n', 1) is None
        assert _plain_rows(b"2020-01-02,1_0\n", 1) is None
        assert _plain_rows(b"", 1) is None
        for cell in ["1-2", "1e+-2", "1e-2.5", "1E+.5", "-.e1", "1e-", "5e", ".", "e5", "1..2",
                     "1.2.3"]:
            assert _plain_rows(f"2020-01-02,{cell}\n".encode(), 1) is None, cell

    @pytest.mark.parametrize("body, err, match", [
        ("2020-01-02,1.0\n2020-01-03,1.5e\n", ParseError, ":3: bad number"),
        ("2020-01-02,1.0\n2020-01-03\n", ParseError, ":3: expected 2 cells"),
        ("2020-01-02,1.0\n2020-02-30,2.0\n", ParseError, ":3: bad date"),
        ("2020-01-02,1.0\n0000-01-03,2.0\n", ParseError, ":3: bad date"),
    ])
    def test_errors_name_the_line(self, tmp_path, body, err, match):
        with pytest.raises(err, match=match):
            load_panel(write(tmp_path, "p.csv", "date,AA\n" + body))

    def test_quoted_and_blank_rows_load_as_before(self, tmp_path):
        text = 'date,AA,BB\n2020-01-02,"100.0",50.0\n\n2020-01-03,101.0, 49.5\n'
        panel = load_panel(write(tmp_path, "p.csv", text))
        want = np.log(np.array([[101.0, 49.5]]) / np.array([[100.0, 50.0]]))
        assert panel.returns.tolist() == want.tolist()

    @pytest.mark.parametrize("cell", ["1_5", "\u0663", "\uff11.5", "1_000.5", " 1_5 ", "0x10"])
    def test_rejects_numbers_no_csv_writer_writes(self, tmp_path, cell):
        # digit-group underscores and non-ASCII digits, which float() accepts
        path = tmp_path / "p.csv"
        path.write_bytes(f"date,AA\n2020-01-02,1.0\n2020-01-03,{cell}\n".encode())
        with pytest.raises(ParseError, match=f"p.csv:3: bad number {cell!r} for AA$"):
            load_panel(path)

    @pytest.mark.parametrize("cell", ["nan", " NaN ", "inf", "-Infinity", "+inf"])
    def test_nan_and_infinity_stay_non_finite_values(self, tmp_path, cell):
        text = f"#returns\ndate,AA\n2020-01-02,1.0\n2020-01-03,{cell}\n"
        with pytest.raises(DataError, match="non-finite value for AA on 2020-01-03"):
            load_panel(write(tmp_path, "r.csv", text))

    def test_whitespace_around_a_number_is_stripped(self, tmp_path):
        panel = load_panel(write(tmp_path, "r.csv", "#returns\ndate,AA\n2020-01-02, -1.5e-3\t\n"))
        assert panel.returns.tolist() == [[-1.5e-3]]


# Cells in every form float() accepts in the plain alphabet: 1 to 25
# significant digits after up to three leading zeros, a dot anywhere or none,
# an optional sign and exponent, and the edges of the conversion.
EDGE_CELLS = [
    "-0.0", "0e999", "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308", "1e500",
    "9007199254740993", "1.00000000000000011102230246251565404236316680908203125",
    "18446744073709551615", "18446744073709551616", "1e22", "1e23", "1e-22", ".5", "5.",
]
PLAIN_NUMBERS = st.one_of(
    st.sampled_from(EDGE_CELLS),
    st.builds(
        lambda sign, zeros, digits, dot, exp: sign + (
            (zeros + digits)[:dot] + "." + (zeros + digits)[dot:] if dot is not None
            else zeros + digits) + exp,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "0", "000"]),
        st.from_regex(r"[1-9][0-9]{0,24}", fullmatch=True),
        st.none() | st.integers(0, 28),
        st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"),
                                st.sampled_from(["", "+", "-"]), st.integers(0, 400)),
    ),
)


class TestExactReader:
    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(PLAIN_NUMBERS, min_size=1, max_size=30), n=st.integers(1, 4),
           eol=st.sampled_from(["\n", "\r\n"]), block=st.sampled_from([1, 40, 2**18]))
    def test_every_cell_loads_as_float_gives_it(self, cells, n, eol, block):
        cells += ["1"] * (-len(cells) % n)
        rows = [cells[k : k + n] for k in range(0, len(cells), n)]
        header = "#returns" + eol + "date," + ",".join(f"S{j}" for j in range(n)) + eol
        text = header + "".join(
            ",".join([str(dt.date(2000, 1, 1) + dt.timedelta(days=t)), *row]) + eol
            for t, row in enumerate(rows))
        want = np.array([[float(c) for c in row] for row in rows])
        with mock.patch.object(data, "_READ_BLOCK", block):
            got = _parse_rows(text.encode(), len(header), tuple(range(n)), "r.csv", 3)[1]
            assert got.tobytes() == want.tobytes()
            if not np.isfinite(want).all():
                with tempfile.TemporaryDirectory() as d:
                    (Path(d) / "r.csv").write_bytes(text.encode())
                    with pytest.raises(DataError, match="non-finite value"):
                        load_panel(Path(d) / "r.csv")

    # The first 128-bit product leaves these undecided, and the second one
    # (its carry included) rounds them the other way.
    @pytest.mark.parametrize("cell", [
        "75293283758257984e-47", "33994191621154368e-24", "22574650540040308e-6",
        "1074578772575656192e42", "314179182548956160e-26", "314074452744116352e-54",
    ])
    def test_cases_the_second_product_decides(self, cell):
        assert _plain_rows(f"2020-01-02,{cell}\n".encode(), 1)[1].tolist() == [[float(cell)]]

    @pytest.mark.parametrize("kind", ["returns", "prices"])
    def test_written_and_price_files_need_no_float_call(self, tmp_path, monkeypatch, kind):
        # A returns file of a million 0.02·N(0, 1) values and a price file
        # like the screen500 benchmark's, 500 random walks from 100 written
        # with repr: the kernel converts every cell, float() none.
        rng = np.random.default_rng(20)
        path = tmp_path / f"{kind}.csv"
        if kind == "returns":
            x = 0.02 * rng.standard_normal((62_500, 16))
            write_returns_csv(ReturnPanel(labels=tuple(f"S{j}" for j in range(16)), returns=x),
                              path)
        else:
            x = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal((200, 500)), axis=0))
            lines = ["date," + ",".join(f"S{j:03d}" for j in range(500))] + [
                f"{d.isoformat()}," + ",".join(map(repr, row))
                for d, row in zip(synth_dates(200), x.tolist())]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = path.read_bytes()
        body = raw.index(b"\n", raw.index(b"date,")) + 1
        calls = []
        monkeypatch.setattr(data, "float", lambda cell: calls.append(cell), raising=False)
        dates, values = _parse_rows(raw, body, tuple(range(x.shape[1])), str(path), 3)
        assert calls == []
        assert values.tobytes() == x.tobytes()
        assert len(dates) == x.shape[0]

    def test_loading_peaks_under_three_times_the_file(self, tmp_path):
        path = tmp_path / "r.csv"
        write_returns_csv(gaussian_panel(0, t_len=20_000, n=15), path)
        load_panel(path)  # builds the kernel's table
        tracemalloc.start()
        try:
            load_panel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size

    def test_table_exponents_and_entries(self):
        table = _pow10_table()
        for q in (_QMIN, -23, -1, 0, 1, 27, 28, 55, _QMAX):
            e = 217706 * q >> 16
            p = 10**q if q >= 0 else None
            assert e == (p.bit_length() - 1 if p else -((10**-q - 1).bit_length()))
            hi, lo = map(int, table[:, q - _QMIN])
            v = hi << 64 | lo
            assert 2**127 <= v < 2**128
            # v <= 10^q·2^(127-e) < v + 1
            num, den = (10**q << max(127 - e, 0), 1 << max(e - 127, 0)) if q >= 0 else (
                1 << 127 - e, 10**-q)
            assert v * den <= num < (v + 1) * den

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=20))
    def test_mul128_matches_python_integers(self, pairs):
        a, b = (np.array(col, np.uint64) for col in zip(*pairs))
        hi, lo = _mul128(a, b)
        assert [h << 64 | w for h, w in zip(map(int, hi), map(int, lo))] == [
            x * y for x, y in pairs]


class TestLogReturns:
    def test_values(self, tmp_path):
        r = load_panel(write(tmp_path, "p.csv", PRICES_CSV))
        assert r.returns.shape == (3, 2)
        assert r.returns[0, 0] == pytest.approx(np.log(101.0 / 100.0), abs=1e-15)
        assert r.dates[0] == dt.date(2020, 1, 3)

    def test_round_trip(self, tmp_path, rng):
        # prices reconstructed from cumulative returns reproduce the input
        t = 40
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((t, 2)), axis=0))
        lines = ["date,A,B"] + [
            f"{d.isoformat()},{a!r},{b!r}" for d, (a, b) in zip(synth_dates(t), prices.tolist())
        ]
        r = load_panel(write(tmp_path, "p.csv", "\n".join(lines) + "\n"))
        rebuilt = prices[0] * np.exp(np.cumsum(r.returns, axis=0))
        assert np.allclose(rebuilt, prices[1:], rtol=1e-12)

    def test_needs_two_rows(self, tmp_path):
        with pytest.raises(
            InsufficientDataError, match="need at least two price rows to form returns"
        ):
            load_panel(write(tmp_path, "p.csv", "date,A\n2020-01-02,1.0\n"))


class TestReturnPanel:
    def test_mean(self, rng):
        panel = gaussian_panel(rng, t_len=100, n=2)
        assert np.allclose(panel.mean, panel.returns.mean(axis=0))
        assert np.allclose(panel.demeaned().mean(axis=0), 0.0, atol=1e-18)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_moments_do_not_depend_on_memory_layout(self, seed):
        x = np.random.default_rng(seed).standard_normal((300, 3))
        labels = ("A", "B", "C")
        strided = ReturnPanel(labels=labels, returns=x[:, [0, 1, 2]])
        contiguous = ReturnPanel(labels=labels, returns=x.copy())
        assert strided.mean.tobytes() == contiguous.mean.tobytes()
        assert strided.demeaned().tobytes() == contiguous.demeaned().tobytes()

    @pytest.mark.parametrize("t_len", [2, 3, 7, 30])
    def test_mean_of_a_column_summing_past_the_largest_double(self, t_len):
        big = np.full(t_len, 1.7976931348623157e308)
        panel = ReturnPanel(labels=("A", "B", "C"),
                            returns=np.column_stack([big, -big, np.arange(t_len) / 8.0]))
        want = [big[0], -big[0], np.mean(np.arange(t_len) / 8.0)]
        assert np.allclose(panel.mean, want, rtol=1e-15, atol=0.0)

    def test_arrays_read_only(self, rng):
        panel = gaussian_panel(rng)
        with pytest.raises(ValueError):
            panel.returns[0, 0] = 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            ReturnPanel(labels=("A",), returns=np.array([[np.inf]]))

    def test_writeable_input_is_copied(self, rng):
        r = rng.standard_normal((50, 2))
        before = r.copy()
        panel = ReturnPanel(labels=("A", "B"), returns=r)
        r[0, 0] = 99.0
        assert np.array_equal(panel.returns, before)
        assert r.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda r: r[:, ::-1],  # a read-only view: its base stays writeable
        lambda r: np.asfortranarray(r),
        lambda r: r.astype(np.float32),
    ], ids=["view", "fortran", "float32"])
    def test_read_only_input_is_copied_unless_owned_float64_c_order(self, rng, make):
        base = rng.standard_normal((50, 2))
        r = make(base)
        r.setflags(write=False)
        panel = ReturnPanel(labels=("A", "B"), returns=r)
        assert panel.returns is not r
        assert panel.returns.dtype == np.float64 and panel.returns.flags.c_contiguous
        assert not np.shares_memory(panel.returns, base)

    def test_owned_read_only_float64_is_kept(self, rng):
        r = rng.standard_normal((50, 2))
        r.setflags(write=False)
        assert ReturnPanel(labels=("A", "B"), returns=r).returns is r

    @pytest.mark.parametrize("text", [
        PRICES_CSV, "#returns\ndate,AA\n2020-01-03,0.5\n2020-01-02,-0.25\n",
    ], ids=["prices", "returns"])
    def test_loaded_returns_are_read_only(self, tmp_path, text):
        panel = load_panel(write(tmp_path, "p.csv", text))
        with pytest.raises(ValueError):
            panel.returns[0, 0] = 1.0


class TestSimLen:
    def test_last_length_with_a_four_digit_year_is_accepted(self):
        assert check_sim_len(2_932_896) == 2_932_896
        assert str(_FIRST_SIM_DAY + (_MAX_SIM_LEN - 1)) == "9999-12-31"


class TestSampleMoments:
    def test_cov_corr_gamma_consistent(self, rng):
        panel = gaussian_panel(rng, t_len=300, n=4)
        m = sample_moments(panel)
        assert np.allclose(m.cov, m.gamma @ m.corr @ m.gamma, atol=1e-10)
        assert np.all(np.diag(m.corr) == 1.0)
        assert np.abs(m.corr).max() <= 1.0
        assert np.allclose(m.cov, np.cov(panel.returns, rowvar=False, ddof=1))

    def test_degenerate_series(self):
        r = np.column_stack([np.ones(10), np.arange(10.0)])
        panel = ReturnPanel(labels=("A", "B"), returns=r)
        with pytest.raises(DegenerateSeriesError, match="A"):
            sample_moments(panel)

    def test_needs_two_rows(self):
        panel = ReturnPanel(labels=("A",), returns=np.array([[0.1]]))
        with pytest.raises(InsufficientDataError):
            sample_moments(panel)


class TestReturnsCsv:
    def test_write_and_load_round_trip(self, tmp_path, rng):
        panel = gaussian_panel(rng, t_len=25, n=3)
        path = tmp_path / "r.csv"
        write_returns_csv(panel, path)
        back = load_panel(path)
        assert back.labels == panel.labels
        assert np.array_equal(back.returns, panel.returns)

    def test_load_panel_dispatch(self, tmp_path, rng):
        panel = gaussian_panel(rng, t_len=25, n=2)
        rpath = tmp_path / "r.csv"
        write_returns_csv(panel, rpath)
        assert np.array_equal(load_panel(rpath).returns, panel.returns)
        ppath = write(tmp_path, "p.csv", PRICES_CSV)
        assert load_panel(ppath).returns.shape == (3, 2)

    # Undated rows follow the synth_dates oracle; 1,023 rows pass 1972-02-29.
    @pytest.mark.parametrize("t_len", [1, 4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 12 * BLOCK + 5])
    def test_streamed_file_is_the_whole_text(self, tmp_path, t_len):
        rng = np.random.default_rng(t_len)
        r = rng.standard_normal((t_len, 3)) * 10.0 ** rng.integers(-300, 300, (t_len, 3))
        r[0, 0] = -0.0
        dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(t_len))
        for panel in (ReturnPanel(labels=("A", "B", "C"), returns=r),
                      ReturnPanel(labels=("X", "Y", "Z"), returns=r, dates=dates)):
            path = tmp_path / "r.csv"
            write_returns_csv(panel, path)
            assert path.read_bytes() == whole_text(panel).encode()
            back = load_panel(path)
            assert back.labels == panel.labels
            assert back.dates == (panel.dates or synth_dates(t_len))
            assert back.returns.tobytes() == panel.returns.tobytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"old bytes\n")
        panel = gaussian_panel(0, t_len=3 * BLOCK, n=2)
        seen = []

        class FailingRows:
            """panel.returns, raising at the second block of rows."""

            def __getitem__(self, rows):
                if rows.start:
                    seen.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
                    raise RuntimeError("row source failed")
                return panel.returns[rows]

        failing = SimpleNamespace(labels=panel.labels, dates=None, t_len=panel.t_len,
                                  returns=FailingRows())
        with pytest.raises(RuntimeError, match="row source failed"):
            write_returns_csv(failing, path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        # the first block had reached the temporary file before the failure
        assert len(seen) == 1 and seen[0] > 0

    def test_writing_streams_in_bounded_memory(self, tmp_path):
        panel = gaussian_panel(0, t_len=20_000, n=15)
        write_returns_csv(panel, tmp_path / "first.csv")  # builds the render tables
        tracemalloc.start()
        try:
            write_returns_csv(panel, tmp_path / "r.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_quoted_header_labels_round_trip(self, tmp_path):
        path = write(tmp_path, "in.csv",
                     '#returns\ndate,"A,B",C\n2020-01-02,0.1,0.2\n2020-01-03,0.3,0.4\n')
        panel = load_panel(path)
        assert panel.labels == ("A,B", "C")
        write_returns_csv(panel, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()
        labels = ('Q"R', "S\nT", "U V", "W\rX")
        r = np.arange(8.0).reshape(2, 4)
        write_returns_csv(ReturnPanel(labels=labels, returns=r), tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_bytes().decode()
        assert text.startswith('#returns\ndate,"Q""R","S\nT",U V,"W\rX"\n1970-01-02,0.0,')
        back = load_panel(tmp_path / "r.csv")
        assert back.labels == labels
        assert np.array_equal(back.returns, r)

    def test_unquoted_header_labels_are_stripped_and_quoted_ones_kept(self, tmp_path):
        body = "2020-01-02,0.1,0.2,0.3\n2020-01-03,0.3,0.4,0.5\n"
        path = write(tmp_path, "in.csv", '#returns\ndate, A,B ,"  C "\n' + body)
        assert load_panel(path).labels == ("A", "B", "  C ")
        path = write(tmp_path, "p.csv", 'date, A, B,\tC \n' + body)
        assert load_panel(path).labels == ("A", "B", "C")
        write_returns_csv(ReturnPanel(labels=(" A", "B\t", "\u00a0"), returns=np.eye(3)),
                          tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_text()
        assert text.startswith('#returns\ndate," A","B\t","\u00a0"\n')

    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(
            st.text(
                st.one_of(st.sampled_from(' ,"\r\n\t\x0b\x85\u2028'), st.characters(codec="utf-8")),
                min_size=1, max_size=6,
            ),
            min_size=1, max_size=4, unique=True,
        ),
        t_len=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_every_label_and_value_round_trips(self, labels, t_len, seed):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((t_len, len(labels))) * 10.0 ** rng.integers(-300, 300, len(labels))
        r[0, 0] = -0.0
        panel = ReturnPanel(labels=tuple(labels), returns=r)
        with tempfile.TemporaryDirectory() as d:
            write_returns_csv(panel, Path(d) / "r.csv")
            back = load_panel(Path(d) / "r.csv")
        assert back.labels == panel.labels
        assert back.returns.tobytes() == panel.returns.tobytes()

    def test_never_touches_the_process_umask(self, tmp_path, monkeypatch):
        # setting the umask, even to read it, races with other threads' files
        def umask(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", umask)
        write_returns_csv(gaussian_panel(0, t_len=5, n=2), tmp_path / "r.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
    )
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_returns_csv(gaussian_panel(0, t_len=5, n=2), tmp_path / "r.csv")
        finally:
            os.umask(old)
        assert (tmp_path / "r.csv").stat().st_mode & 0o777 == mode


def assert_written_as_repr(values, directory) -> None:
    """Write finite doubles as a returns panel of up to 16 columns (zeros
    fill the last row) and check the file against the whole_text oracle."""
    x = np.asarray(values, dtype=float).ravel()
    n = min(16, x.size)
    x = np.concatenate([x, np.zeros(-x.size % n)]).reshape(-1, n)
    panel = ReturnPanel(labels=tuple(f"S{j}" for j in range(n)), returns=x)
    path = Path(directory) / "r.csv"
    write_returns_csv(panel, path)
    got, want = path.read_bytes().decode().splitlines(), whole_text(panel).splitlines()
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, (got[bad], want[bad])
    assert len(got) == len(want)


def bits_to_floats(bits) -> np.ndarray:
    """The finite doubles among the given IEEE bit patterns."""
    x = np.array(bits, dtype=np.uint64).view(float)
    return x[np.isfinite(x)]


POWERS_OF_TWO = 2.0 ** np.arange(-1074, 1024)
POWERS_OF_TEN = np.array([float(f"1e{e}") for e in range(-20, 23)])
EDGE_FAMILIES = {
    "zeros and extremes": [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    "powers of two": np.concatenate([np.nextafter(POWERS_OF_TWO, 0.0), POWERS_OF_TWO,
                                     np.nextafter(POWERS_OF_TWO, np.inf)]),
    "powers of ten": np.concatenate([np.nextafter(POWERS_OF_TEN, 0.0), POWERS_OF_TEN,
                                     np.nextafter(POWERS_OF_TEN, np.inf)]),
    # halfway at the 16th digit (8.0000152587890625 is written 8.000015258789062)
    # and at the 17th (1 + c/2^17, c odd: the 18th digit is a final 5)
    "ties": np.concatenate([8.0 + np.arange(1, 65536) / 65536,
                            1.0 + np.arange(1, 2**17, 2) / 2**17]),
    # where repr switches between positional and exponent form
    "form boundaries": [v for b in (1e-4, 1e-5, 9999999999999998.0, 1e16)
                        for v in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))],
    "1 to 17 significant digits": [
        float(f"{digits}e{e}")
        for p in range(1, 18)
        for digits in np.random.default_rng(p).integers(10 ** (p - 1), 10**p, 40)
        for e in range(-20 - p, 20 - p, 3)
    ],
}


class TestValuesAreWrittenAsRepr:
    @pytest.mark.parametrize("family", EDGE_FAMILIES)
    def test_edge_families(self, tmp_path, family):
        x = np.asarray(EDGE_FAMILIES[family], dtype=float)
        assert_written_as_repr(np.concatenate([x, -x]), tmp_path)

    def test_a_million_returns_at_simulated_scale(self, tmp_path):
        assert_written_as_repr(0.02 * np.random.default_rng(19).standard_normal(10**6), tmp_path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40).map(bits_to_floats),
            # biased exponents 980-1080: the kernel's range, 1e-11 to 2^51, and beyond
            st.lists(
                st.tuples(st.integers(0, 1), st.integers(980, 1080), st.integers(0, 2**52 - 1)),
                min_size=1, max_size=40,
            ).map(lambda parts: bits_to_floats([s << 63 | e << 52 | f for s, e, f in parts])),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        ).filter(len)
    )
    def test_any_finite_doubles(self, values):
        with tempfile.TemporaryDirectory() as d:
            assert_written_as_repr(values, d)


def whole_text(panel: ReturnPanel) -> str:
    """A returns file rendered whole, one row at a time."""
    dates = panel.dates or synth_dates(panel.t_len)
    lines = ["#returns", "date," + ",".join(panel.labels)]
    for date, row in zip(dates, panel.returns):
        lines.append(date.isoformat() + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def load_outcome(path):
    """What load_panel gives: the panel's contents, or its error."""
    try:
        p = load_panel(path)
    except CovTargetError as exc:
        return type(exc), str(exc)
    return p.labels, p.dates, p.returns.shape, p.returns.tobytes()


def reference_outcome(path, header: str, rows: list[str], returns: bool):
    """load_panel's outcome for a file of ``header`` then ``rows`` (after a
    sentinel line if ``returns``), by a cell-by-cell float() parse: the
    first fault's error type and message, or the panel's contents."""
    labels = tuple(header.split(",")[1:])
    parsed = []
    for line, row in enumerate(rows, start=3 if returns else 2):
        date, *cells = row.split(",")
        if len(cells) != len(labels):
            width = len(labels) + 1
            return ParseError, f"{path}:{line}: expected {width} cells, got {len(cells) + 1}"
        values = []
        for label, cell in zip(labels, cells):
            if not cell:
                return DataError, f"{path}:{line}: missing value for {label}"
            try:
                values.append(float(cell))
            except ValueError:
                return ParseError, f"{path}:{line}: bad number {cell!r} for {label}"
        parsed.append((dt.date.fromisoformat(date), values))
    parsed.sort()
    dates = tuple(d for d, _ in parsed)
    x = np.array([v for _, v in parsed])
    if not returns:
        for date, values in parsed:
            for label, v in zip(labels, values):
                if v <= 0.0:
                    return DataError, f"non-positive price for {label} on {date}"
        if len(parsed) < 2:
            return InsufficientDataError, "need at least two price rows to form returns"
        x, dates = np.log(x[1:] / x[:-1]), dates[1:]
    return labels, dates, x.shape, x.tobytes()


class TestLoadPanelDispatch:
    @given(
        returns=st.booleans(),
        quoted=st.booleans(),
        eol=st.sampled_from(["\n", "\r\n"]),
        n=st.integers(1, 3),
        cells=st.lists(
            st.sampled_from(["0.5", "1.25", "2", "3e-1", "-0.5", "", "x"]),
            min_size=1, max_size=12,
        ),
        days=st.permutations(range(2, 14)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_layout_loader(self, returns, quoted, eol, n, cells, days):
        # load_panel reads the layout from line 1 and gives, errors included,
        # what a cell-by-cell parse of that layout gives.
        header = ",".join(["date", *"ABC"[:n]])
        rows = [",".join([f"2020-01-{days[k]:02d}", *cells[k * n:(k + 1) * n]])
                for k in range(max(1, len(cells) // n))]
        lines = ['"#returns"' if quoted else "#returns"] if returns else []
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "panel.csv"
            with open(path, "w", newline="") as fh:
                fh.write(eol.join(lines + [header] + rows) + eol)
            want = reference_outcome(path, header, rows, returns)
            assert load_outcome(path) == want
