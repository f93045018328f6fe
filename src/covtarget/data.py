"""CSV panel loading and writing, log returns, whole-sample moments, and
the checks and panel assembly both simulators share.

Two file layouts are supported:

* price panels:   header ``date,TICKER1,...``; one ISO date plus strictly
  positive prices per row, loaded as their log returns;
* return panels:  a ``#returns`` sentinel as the first CSV cell of line 1
  (quoted or not), then the same layout with returns instead of prices
  (this is the format ``simulate`` writes).

Rows with any missing or unparseable cell are rejected loudly; nothing is
imputed.
"""
from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DataError,
    DegenerateSeriesError,
    InsufficientDataError,
    NumericalOverflowError,
    ParseError,
    ShapeError,
)

RETURNS_SENTINEL = "#returns"

_FIRST_SIM_DAY = np.datetime64("1970-01-02")  # undated rows are dated daily from here
_MAX_SIM_LEN = 2_932_896  # rows from _FIRST_SIM_DAY through 9999-12-31


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is a float64, C-ordered ndarray that owns its
    memory and is not writeable, else a read-only float64 C-ordered copy."""
    if not (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.c_contiguous
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=float, order="C")
        a.setflags(write=False)
    return a


def _check_labels(labels: tuple[str, ...]) -> None:
    if len(labels) == 0:
        raise DataError("panel has no series columns")
    if any(not lab for lab in labels):
        raise DataError("empty series label in header")
    if len(set(labels)) != len(labels):
        raise DataError("duplicate series labels in header")


@dataclass(frozen=True)
class ReturnPanel:
    """Return panel with finite entries; ``mean`` is the per-series sample
    mean, computed once at construction. Dates, when present, are metadata.
    ``returns`` is kept uncopied only when it is a read-only float64
    C-ordered array owning its memory, as the simulators and ``load_panel``
    build it; any other array, a writeable one above all, is copied."""

    labels: tuple[str, ...]
    returns: np.ndarray  # (T, N)
    dates: tuple[dt.date, ...] | None = None
    mean: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_labels(self.labels)
        r = _readonly(self.returns)
        if r.ndim != 2 or r.shape[1] != len(self.labels):
            raise DataError(
                f"return array shape {r.shape} does not match {len(self.labels)} labels"
            )
        if r.shape[0] < 1:
            raise InsufficientDataError("return panel has no rows")
        if not (np.isfinite(r.min()) and np.isfinite(r.max())):  # exact, allocates nothing
            raise DataError("returns contain non-finite values")
        if self.dates is not None and len(self.dates) != r.shape[0]:
            raise DataError(
                f"{len(self.dates)} dates for {r.shape[0]} return rows"
            )
        with np.errstate(over="ignore"):  # a column may sum past the largest double
            mean = r.mean(axis=0)
            mean = mean if np.isfinite(mean).all() else np.nan_to_num((r / len(r)).sum(axis=0))
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "mean", _readonly(mean))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def t_len(self) -> int:
        return self.returns.shape[0]

    def demeaned(self) -> np.ndarray:
        return self.returns - self.mean


@dataclass(frozen=True)
class SampleMoments:
    """Whole-sample covariance, correlation, and diagonal scale of a panel.

    Invariant: cov == gamma @ corr @ gamma with gamma = diag(std); corr has a
    unit diagonal and entries in [-1, 1].
    """

    labels: tuple[str, ...]
    cov: np.ndarray
    corr: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cov", _readonly(self.cov))
        object.__setattr__(self, "corr", _readonly(self.corr))
        object.__setattr__(self, "gamma", _readonly(self.gamma))


# Panels are read by an exact kernel: each value cell of a plain body (ISO
# dates and decimals, nothing quoted or blank) becomes a sign, an integer
# w < 2^64 and a decimal exponent q, and w·10^q is rounded to a double by one
# IEEE operation where w <= 2^53 and |q| <= 22 (Clinger 1990), else by Eisel–
# Lemire (Lemire 2021), else by float(). The kinds of bytes other than digits:
_COMMA, _EOL, _EXP, _PLUS, _MINUS, _DOT, _DASH = range(1, 8)  # 0: not plain; 1-3 end runs
_KIND = np.zeros(256, np.uint8)
_KIND[np.frombuffer(b",\n+-.eE", np.uint8)] = [_COMMA, _EOL, _PLUS, _MINUS, _DOT, _EXP, _EXP]
_TOKENS = bytes.maketrans(b",\neE", b"    ")  # with .+- deleted, an integer a run of digits
_READ_BLOCK = 2**19  # bytes of rows parsed at once; ~10 bytes of temporaries a byte
_POW10_F = np.array([float(10**k) for k in range(23)])  # exact
_QMIN, _QMAX = -342, 308  # beyond, each w·10^q is subnormal or overflows
_U64, _MASK32 = np.uint64, np.uint64(2**32 - 1)


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit products a·b, from 32-bit limbs."""
    a_hi, a_lo, b_hi, b_lo = a >> _U64(32), a & _MASK32, b >> _U64(32), b & _MASK32
    low, mid = a_lo * b_lo, a_hi * b_lo
    cross = (low >> _U64(32)) + (mid & _MASK32) + a_lo * b_hi  # < 2^64
    return a_hi * b_hi + (mid >> _U64(32)) + (cross >> _U64(32)), cross << _U64(32) | low & _MASK32


@functools.cache
def _pow10_table() -> np.ndarray:
    """Built on first use: rows of the high and low 64 bits, per q in [_QMIN,
    _QMAX], of 10^q·2^(127-e) truncated to an integer in [2^127, 2^128),
    where e = floor(log2 10^q) = 217706·q >> 16 over this range."""
    rows = []
    for q in range(_QMIN, _QMAX + 1):
        b = (p := 5 ** abs(q)).bit_length()
        rows.append(divmod(p << 128 >> b if q >= 0 else (1 << 127 + b) // p, 2**64))
    return np.array(rows, _U64).T.copy()


def _decimals(neg: np.ndarray, w: np.ndarray, q: np.ndarray):
    """Each ±w·10^q rounded to a double, and where float() must decide it
    instead: w = 2^64 - 1 (it may have overflowed), q beyond the table, a
    subnormal or infinite result, or an ambiguous Eisel–Lemire case."""
    p = _POW10_F[np.minimum(np.abs(q), 22)]
    x = w / p if (q <= 0).all() else np.where(q < 0, w / p, w * p)  # exact w below 2^53
    at = np.flatnonzero((w > _U64(2**53)) | (np.abs(q) > 22) & (w > 0))
    w, q = w[at], q[at]
    bad = (w == _U64(2**64 - 1)) | (q < _QMIN) | (q > _QMAX)
    i, (hi_t, lo_t) = np.clip(q, _QMIN, _QMAX) - _QMIN, _pow10_table()
    # w to [2^63, 2^64): its top bit, no two ones adjacent, converts uncarried
    z = 64 - np.frexp((w & ~(w >> _U64(1))).astype(np.float64))[1]
    w = w << z.astype(_U64)
    # x = w·hi_t[i] is short by < w units of x_lo: only a carry via 9 ones rounds
    x_hi, x_lo = _mul128(w, hi_t[i])
    at2 = np.flatnonzero((x_hi & _U64(0x1FF) == 0x1FF) & (x_lo + w < w))
    y_hi, y_lo = _mul128(w[at2], lo_t[i[at2]])
    x_lo[at2] += y_hi
    x_hi[at2] += x_lo[at2] < y_hi
    bad[at2] |= (x_hi[at2] & _U64(0x1FF) == 0x1FF) & (~x_lo[at2] == 0) & (y_lo + w[at2] < w[at2])
    top = x_hi >> _U64(63)
    mant = x_hi >> top + _U64(9)  # 54 bits: the significand and a half bit
    bad |= (x_lo == 0) & (x_hi & _U64(0x1FF) == 0) & (mant & _U64(3) == 1)  # a tie?
    mant = mant + (mant & _U64(1)) >> _U64(1)  # half up, or to even on a tie
    carry = mant >> _U64(53)
    exp = (217706 * q >> 16) + 1087 - z - (top == 0) + (carry == 1)  # 1087 = 1023 + 64
    bad |= (exp < 1) | (exp > 2046)
    x[at] = (np.clip(exp, 0, 2047).astype(_U64) << _U64(52) | (mant >> carry) & _U64(2**52 - 1)
             ).view(np.float64)
    return np.where(neg, -x, x), at[bad]


def _plain_rows(chunk: bytes, n: int) -> tuple[list[dt.date], np.ndarray] | None:
    """Dates and values of whole rows of a plain body; None where they are
    irregular (a blank line, a bad date or number, a row of the wrong width)."""
    if b"\r" in chunk:
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    a = np.frombuffer(chunk if chunk.endswith(b"\n") else chunk + b"\n", np.uint8)
    m = np.flatnonzero(a - np.uint8(48) > 9)  # the bytes that are not digits
    k = _KIND[a[m]]
    sep = np.flatnonzero(k <= _EOL)
    rows, width = sep.size // (n + 1), n + 1
    if not k.all() or sep.size != rows * width or (
            k[sep].reshape(rows, width) != [_COMMA] * n + [_EOL]).any():
        return None
    end = m[sep]  # of each cell
    start = np.concatenate([[0], end[:-1] + 1])
    # a date is YYYY-MM-DD: 10 bytes, two of them not digits
    d0, di = start[::width], sep[::width]
    day = a.take(d0[:, None] + np.arange(10), mode="clip")
    if not ((end[::width] - d0 == 10) & (day[:, 4] == ord("-")) & (day[:, 7] == ord("-"))
            & ((day - np.uint8(48) > 9).sum(axis=1) == 2)).all():
        return None
    k[di - 2] = k[di - 1] = _DASH
    try:
        dates = day.view("S10").astype("datetime64[D]").ravel()
    except ValueError:
        return None
    # a value is [sign] digits [. digits] [e|E [sign] digits]: a sign opens a run
    # of digits or follows an e, a dot ends its run, no run is empty
    sign = np.flatnonzero((k == _PLUS) | (k == _MINUS))
    exp = np.flatnonzero(k == _EXP)
    cell_of_exp = np.searchsorted(sep, exp)
    runs = np.insert(sep, cell_of_exp, exp)
    after = k[exp + 1]
    if not ((dates >= np.datetime64("0001-01-01")).all()
            and (k[sign - 1] <= _EXP).all() and (m[sign - 1] + 1 == m[sign]).all()
            and (k[np.flatnonzero(k == _DOT) + 1] <= _EXP).all()
            and (np.diff(m[runs] - runs, prepend=0) > 0).all()
            and ((after <= _EOL) | (after >= _PLUS) & (after <= _MINUS)
                 & (k[np.minimum(exp + 2, k.size - 1)] <= _EOL)).all()):
        return None
    # the integers: one per date, one per mantissa and one per exponent
    tokens = np.fromstring(chunk.translate(_TOKENS, b".+-"), _U64, sep=" ")
    first = np.arange(sep.size)  # each cell's first
    first += np.searchsorted(cell_of_exp, first)
    value = np.roll(k[sep] == _COMMA, 1)  # the cells after a comma
    vi = cell_of_exp - cell_of_exp // width - 1  # the value cells with an exponent
    tail = sep[value]  # the marker that ends each mantissa
    tail[vi] = exp
    q = np.where(k[tail - 1] == _DOT, m[tail - 1] - m[tail] + 1, 0)
    e = np.minimum(tokens[first[cell_of_exp] + 1], _U64(10**6)).astype(np.int64)
    q[vi] += np.where(after == _MINUS, -e, e)
    start, end = start[value], end[value]
    x, fallback = _decimals(a[start] == ord("-"), tokens[first[value]], q)
    for j in fallback.tolist():
        x[j] = float(chunk[start[j] : end[j]])
    return dates.tolist(), x.reshape(rows, n)


# A stripped cell the cell-by-cell parse takes: the plain grammar, nan or inf.
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE)


def _parse_rows(data: bytes, at: int, labels: tuple[str, ...], path: str,
                line0: int) -> tuple[list[dt.date], np.ndarray]:
    """Dates and values of the rows of ``data[at:]``, whose first is line ``line0``
    of the file: by the kernel in blocks of whole rows unless one is irregular."""
    blocks, end = [], at
    while end < len(data) and None not in blocks:
        start, end = end, data.find(b"\n", end + _READ_BLOCK) + 1 or len(data)
        blocks.append(_plain_rows(data[start:end], len(labels)))
    if blocks and None not in blocks:
        return [d for b in blocks for d in b[0]], np.concatenate([b[1] for b in blocks])
    dates: list[dt.date] = []
    values: list[list[float]] = []
    for k, row in enumerate(csv.reader(io.StringIO(data[at:].decode(), newline=""))):
        line = line0 + k
        if not row or all(not c.strip() for c in row):
            continue  # ignore blank lines
        if len(row) != len(labels) + 1:
            raise ParseError(f"{path}:{line}: expected {len(labels) + 1} cells, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"{path}:{line}: bad date {row[0]!r}") from None
        dates.append(date)
        values.append([])
        for j, cell in enumerate(row[1:]):
            text = cell.strip()
            if not text:
                raise DataError(f"{path}:{line}: missing value for {labels[j]}")
            if not _NUMBER.fullmatch(text):
                raise ParseError(f"{path}:{line}: bad number {cell!r} for {labels[j]}")
            values[-1].append(float(text))
    if not dates:
        raise InsufficientDataError(f"{path}: no data rows")
    return dates, np.asarray(values, dtype=float)


# A line as a file opened with newline="" gives it: up to \n, \r\n or \r.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

# One cell of a CSV record as csv reads it: opened by a quote (its quotes
# doubled, anything after the closing quote kept) or plain up to a comma.
_CSV_CELL = re.compile(r'"((?:[^"]|"")*)"([^,]*)|([^,]*)')


def _header_labels(record: str) -> tuple[str, ...]:
    """The series labels of a header record's text: the cells after the
    first, a cell opened by a quote taken exactly as quoted, any other
    stripped of surrounding whitespace."""
    record = record.rstrip("\r\n")
    cells, at = [], 0
    while at <= len(record):
        m = _CSV_CELL.match(record, at)
        quoted, tail, plain = m.groups()
        cells.append(plain.strip() if plain is not None else quoted.replace('""', '"') + tail)
        at = m.end() + 1
    return tuple(cells[1:])


def load_panel(path: str | Path) -> ReturnPanel:
    """Load a UTF-8 panel file as a ReturnPanel, rows sorted by date. The
    layout is the first CSV cell of line 1: a returns panel is loaded as-is,
    and a price panel becomes its log returns r_t = log(p_t / p_{t-1}),
    dated by the later row."""
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    record: list[re.Match] = []  # the lines of the record last read
    reader = csv.reader(record.append(line) or line[0].decode() for line in _LINE.finditer(data))
    try:
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        is_returns = bool(first) and first[0].strip() == RETURNS_SENTINEL
        if is_returns:
            record.clear()
            try:
                first = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: missing header after sentinel") from None
        if not first or first[0].strip().lower() != "date":
            raise ParseError(f"{path}: first header column must be 'date'")
        labels = _header_labels(b"".join(line[0] for line in record).decode())
        _check_labels(labels)
        dates, values = _parse_rows(data, record[-1].end(), labels, path, reader.line_num + 1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    order = sorted(range(len(dates)), key=lambda i: dates[i])
    dates = tuple(dates[i] for i in order)
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise DataError(f"{path}: duplicate date {a}")
    values = values[order]
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        t, j = map(int, bad[0])
        raise DataError(f"{path}: non-finite value for {labels[j]} on {dates[t]}")
    if is_returns:
        values.setflags(write=False)
        return ReturnPanel(labels=labels, returns=values, dates=dates)
    if np.any(values <= 0.0):
        t, j = map(int, np.argwhere(values <= 0.0)[0])
        raise DataError(f"non-positive price for {labels[j]} on {dates[t]}")
    if len(dates) < 2:
        raise InsufficientDataError("need at least two price rows to form returns")
    returns = np.log(values[1:] / values[:-1])
    returns.setflags(write=False)
    return ReturnPanel(labels=labels, returns=returns, dates=dates[1:])


def _moments(x: np.ndarray, names) -> tuple[np.ndarray, ...]:
    """Column standard deviations, covariance (T-1 divisor) and correlation
    of ``x``, the correlation with an exact unit diagonal and entries
    clipped to [-1, 1]. A column whose standard deviation is at most 1e-12
    of its largest magnitude (a constant column's rounding residue) is
    named by ``names[j]`` as having zero variance."""
    s = x.std(axis=0, ddof=1)
    flat = s <= 1e-12 * np.abs(x).max(axis=0)
    if np.any(flat):
        j = int(np.flatnonzero(flat)[0])
        raise DegenerateSeriesError(f"series {names[j]} has zero variance")
    c = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    corr = c / np.outer(s, s)
    corr = 0.5 * (corr + corr.T)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return s, c, corr


def correlation_from_series(x: np.ndarray) -> np.ndarray:
    """Sample correlation of the columns of ``x`` (T-1 divisor), with an
    exact unit diagonal and entries clipped to [-1, 1]."""
    x = np.asarray(x, dtype=float)
    return _moments(x, range(x.shape[-1]))[2]


def sample_moments(panel: ReturnPanel) -> SampleMoments:
    """Whole-sample covariance/correlation/scale of a return panel."""
    if panel.t_len < 2:
        raise InsufficientDataError("need at least two return rows for moments")
    s, c, corr = _moments(panel.returns, panel.labels)
    return SampleMoments(
        labels=panel.labels, cov=0.5 * (c + c.T), corr=corr, gamma=np.diag(s)
    )


def check_sim_len(t_len: int) -> int:
    """``t_len`` if a simulated panel of that many rows has sample moments
    and its last date, counted from 1970-01-02, is at most 9999-12-31."""
    if not 2 <= t_len <= _MAX_SIM_LEN:
        raise DataError(f"simulation length must be in [2, {_MAX_SIM_LEN}], got {t_len}")
    return t_len


def _sim_shocks(n: int, mu, t_len: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A simulation's checked mean and its (t_len, n) N(0, 1) shocks."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ShapeError(f"mu must have shape ({n},), got {mu.shape}")
    return mu, np.random.default_rng(seed).standard_normal((check_sim_len(t_len), n))


def _sim_panel(eps: np.ndarray, mu: np.ndarray, labels) -> ReturnPanel:
    """The undated panel mu + eps, labelled S1..Sn unless ``labels`` are given,
    holding eps itself, mu added in place; a non-finite return is an overflow."""
    eps += mu
    eps.setflags(write=False)
    if labels is None:
        labels = tuple(f"S{i + 1}" for i in range(eps.shape[1]))
    try:
        return ReturnPanel(labels=labels, returns=eps)
    except DataError:
        if np.all(np.isfinite(eps)):
            raise
        t = int(np.argwhere(~np.isfinite(eps))[0][0])
        raise NumericalOverflowError(f"simulation overflowed at t={t}", t=t) from None


_CSV_BLOCK = 256  # rows per chunk of a written returns file; ~5 KB of temporaries a row at N = 15


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted, its quotes doubled, when it holds a
    delimiter, a quote or a line break, or starts or ends with whitespace
    (which load_panel strips from an unquoted label)."""
    quote = text != text.strip() or any(ch in text for ch in ',"\r\n')
    return '"' + text.replace('"', '""') + '"' if quote else text


# Returns are written as repr writes them: the shortest digits that read back
# as the same double, the nearest such (ties to even), found exactly in uint64
# arithmetic (Steele & White 1990; Adams 2018). A normal double x = ±m·2^q
# (m its 53-bit significand) that is not a power of two, with
# 10^k <= |x| < 10^(k+1), is scaled to Z = m·5^s/2^t = |x|·10^(16-k), in
# [10^16, 10^17), with s = 16-k in [0, 27] and t = -(q+s) in [1, 62]. The
# decimals that read back as x are then the integers within h = 5^s/2^(t+1)
# = Z/2m of Z, h in (0.55, 11.2), and the shortest is the multiple of the
# highest power of ten among them. The interval's ends are never integers
# (5^s is odd, 2^(t+1)·Z even), so which ends are open does not matter.
# repr itself renders every other double.
_POW5 = _U64(5) ** np.arange(28, dtype=_U64)
_POW10 = _U64(10) ** np.arange(18, dtype=_U64)
_KMIN, _KMAX = -11, 15  # the decimal exponents the kernel covers
_CELL = 25  # a comma and the longest repr, "-2.2250738585072014e-308"
# A value's source row: these 15 bytes, then its 17 digits.
_SOURCE = b"\0-.e,0123456789"
_DIGIT_MARKS = "ABCDEFGHIJKLMNOPQ"  # the 17 digits in a cell layout
_SOURCE_AT = bytes.maketrans(_SOURCE + _DIGIT_MARKS.encode(), bytes(range(32)))


def _ten_to(k: int) -> float:
    """10^k rounded up to a double: |x| >= _ten_to(k) exactly when |x| >= 10^k."""
    v = 10.0**k if k >= 0 else 1 / 10**-k  # exact, or correctly rounded
    n, d = v.as_integer_ratio()
    return v if n * 10 ** max(-k, 0) >= d * 10 ** max(k, 0) else float(np.nextafter(v, 1.0))


_TENS = np.array([_ten_to(k) for k in range(_KMIN, _KMAX + 2)])


@functools.cache
def _render_tables() -> tuple[np.ndarray, np.ndarray]:
    """Built on first use, not at import (about a millisecond): the ASCII
    digits of 0..9999 as one uint32 each, and per (sign, k, p) the
    source-row bytes of "," + repr for a value of p significant digits in
    [10^k, 10^(k+1)), NUL padded (its digits are zeros beyond the p-th)."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8)
    digits4 = np.empty((100, 100, 4), np.uint8)
    digits4[:, :, :2], digits4[:, :, 2:] = pairs.reshape(100, 1, 2), pairs.reshape(100, 2)
    cells, d = [], _DIGIT_MARKS
    for k in range(_KMIN, _KMAX + 1):
        for p in range(1, 18):
            if k < -4:
                body = d[0] + ("." + d[1:p] if p > 1 else "") + f"e-{-k:02d}"
            elif k < 0:
                body = "0." + "0" * (-k - 1) + d[:p]
            else:
                body = d[: k + 1] + "." + d[k + 1 : max(p, k + 2)]
            cells.append(("," + body).ljust(_CELL, "\0"))
    plus = np.frombuffer("".join(cells).encode().translate(_SOURCE_AT), np.uint8)
    plus = plus.reshape(-1, _CELL).astype(np.intp)
    minus = np.insert(plus[:, :-1], 1, _SOURCE.index(b"-"), axis=1)
    tables = digits4.view(np.uint32).ravel(), np.concatenate([plus, minus])
    for table in tables:
        table.setflags(write=False)
    return tables


def _shortest(x: np.ndarray):
    """Per double of the flat array ``x``: its shortest digits as a 17-digit
    integer (zeros after the p-th), k, p, and whether repr must render it."""
    bits = x.view(_U64)
    frac = bits & _U64(2**52 - 1)
    exp = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64)
    k = np.searchsorted(_TENS, np.abs(x), side="right") + (_KMIN - 1)
    s, t = 16 - k, k + 1059 - exp  # q = exp - 1075; s >= 0, and s <= 27 gives t <= 62
    ok = (exp > 0) & (frac > 0) & (s <= 27) & (t >= 1)
    f = _POW5[np.clip(s, 0, 27)]
    t = np.clip(t, 1, 62).astype(_U64)
    hi, lo = _mul128(frac | _U64(2**52), f)  # Z·2^t = m·5^s
    z, r = hi << (_U64(64) - t) | lo >> t, lo & (_U64(1) << t) - _U64(1)  # Z = z + r/2^t
    t1 = t + _U64(1)
    h, h_frac, r2 = f >> t1, f & (_U64(1) << t1) - _U64(1), r << _U64(1)
    below = z - h + (r2 > h_frac) - _U64(1)  # the last integer below the interval
    top = z + h + (r2 + h_frac >> t1)  # the last integer in it
    half = _U64(1) << t - _U64(1)
    c = z + ((r > half) | (r == half) & (z & _U64(1) == 1))
    tens = z // _U64(10)
    unit = z - tens * _U64(10)
    up = (unit > 5) | (unit == 5) & ((r > 0) | (tens & _U64(1) == 1))
    ten = top // _U64(10) != below // _U64(10)  # a multiple of 10 in the interval
    c = np.where(ten, (tens + up) * _U64(10), c)
    p = 17 - ten
    hundreds = top // _U64(100)
    at = np.flatnonzero(hundreds != below // _U64(100))  # one multiple of 100 in it
    c[at] = hundreds[at] * _U64(100)
    p[at] = 15 - (hundreds[at, None] % _POW10[1:16] == 0).sum(axis=1)
    at = np.flatnonzero(c == _POW10[17])  # that multiple is 10^(k+1)
    c[at], k[at], p[at] = _POW10[16], k[at] + 1, 1
    return c, k, p, ~ok


def _render_rows(rows: np.ndarray, dates: np.ndarray) -> str:
    """The CSV lines of a block of return rows: each date (an "S10" array),
    then the row's values as repr writes them."""
    t_len, n = rows.shape
    x = np.ascontiguousarray(rows, dtype=float).ravel()
    c, k, p, fallback = _shortest(x)
    digits4, layouts = _render_tables()
    src = np.empty((x.size, 32), np.uint8)
    src[:, :15] = np.frombuffer(_SOURCE, np.uint8)
    head, tail = c // _POW10[8], c % _POW10[8]
    src[:, 15] = head // _POW10[8] + _U64(ord("0"))
    words = src.view(np.uint32)
    for col, part in (4, head % _POW10[8]), (6, tail):
        words[:, col] = digits4[part // _U64(10**4)]
        words[:, col + 1] = digits4[part % _U64(10**4)]
    # clipped only for the values repr renders, whose k and p mean nothing
    key = (x.view(_U64) >> _U64(63)).astype(np.intp) * (_KMAX - _KMIN + 1)
    key = (key + np.clip(k, _KMIN, _KMAX) - _KMIN) * 17 + np.clip(p, 1, 17) - 1
    index = np.take(layouts, key, axis=0)
    index += np.arange(0, src.size, 32)[:, None]
    text = np.empty((t_len, 11 + n * _CELL), np.uint8)
    text[:, :10] = dates.view(np.uint8).reshape(t_len, 10)
    text[:, -1] = ord("\n")
    cells = text[:, 10:-1].reshape(t_len, n, _CELL)
    np.take(src.ravel(), index.reshape(cells.shape), out=cells)
    at = np.flatnonzero(fallback)
    if at.size:
        reprs = "".join(("," + repr(v)).ljust(_CELL, "\0") for v in x[at].tolist())
        cells[at // n, at % n] = np.frombuffer(reprs.encode(), np.uint8).reshape(-1, _CELL)
    return text[text != 0].tobytes().decode("ascii")


def write_returns_csv(panel: ReturnPanel, path: str | Path) -> None:
    """Write a ReturnPanel in the sentinel format, atomically, streaming
    blocks of rows to disk as they are rendered. Header labels are quoted as
    needed; each value is written as repr writes it. An undated panel's rows
    are dated daily from 1970-01-02, each block's dates rendered in bulk."""

    def chunks():
        yield f"{RETURNS_SENTINEL}\ndate,{','.join(map(_csv_cell, panel.labels))}\n"
        for at in range(0, panel.t_len, _CSV_BLOCK):
            rows = panel.returns[at : at + _CSV_BLOCK]
            if panel.dates is None:
                dates = (_FIRST_SIM_DAY + np.arange(at, at + len(rows))).astype("S10")
            else:
                dates = np.array([d.isoformat() for d in panel.dates[at : at + _CSV_BLOCK]], "S10")
            yield _render_rows(rows, dates)

    write_text_atomic(path, chunks())


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, whole or as an iterable of chunks, as UTF-8 via a temp
    file + rename so readers never see partial output; the file gets the
    mode open() would give it, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    # a new file (O_EXCL) created 0o666: the kernel applies the umask itself
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
