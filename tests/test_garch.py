import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    BekkParams,
    DataError,
    DegenerateSeriesError,
    Garch11Params,
    InsufficientDataError,
    NumericalOverflowError,
    OptimizerOptions,
    bekk_filter,
    garch11_filter,
    garch11_fit,
    garch11_loglik,
)
from covtarget.garch import MIN_OBS, _one_pole, _scan
from covtarget.linalg import symmetrize

from conftest import garch11_simulate

LOG_2PI = np.log(2.0 * np.pi)


def naive_filter(eps, p, h1):
    h = np.empty(eps.size)
    h[0] = h1
    for t in range(1, eps.size):
        h[t] = p.omega + p.alpha * eps[t - 1] ** 2 + p.beta * h[t - 1]
    return h


class TestParams:
    def test_validation(self):
        Garch11Params(omega=0.1, alpha=0.05, beta=0.9)
        with pytest.raises(DataError):
            Garch11Params(omega=0.0, alpha=0.05, beta=0.9)
        with pytest.raises(DataError):
            Garch11Params(omega=0.1, alpha=-0.01, beta=0.9)
        with pytest.raises(DataError):
            Garch11Params(omega=0.1, alpha=0.2, beta=0.8)
        with pytest.raises(DataError):
            Garch11Params(omega=np.nan, alpha=0.05, beta=0.9)

    def test_unconditional_var(self):
        p = Garch11Params(omega=0.02, alpha=0.1, beta=0.7)
        assert np.isclose(p.unconditional_var(), 0.02 / 0.2)


class TestFilter:
    def test_hand_example(self):
        p = Garch11Params(omega=1.0, alpha=0.25, beta=0.25)
        h = garch11_filter(np.array([1.0, 2.0, 0.0]), p, h1=1.0)
        # h2 = 1 + 0.25*1 + 0.25*1, h3 = 1 + 0.25*4 + 0.25*1.5
        assert np.allclose(h, [1.0, 1.5, 2.375])

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0.0, 0.3)
            b = rng.uniform(0.0, 0.95 - a)
            p = Garch11Params(omega=rng.uniform(0.01, 1.0), alpha=a, beta=b)
            eps = rng.standard_normal(rng.integers(2, 200))
            h1 = rng.uniform(0.1, 2.0)
            h = garch11_filter(eps, p, h1=h1)
            assert np.allclose(h, naive_filter(eps, p, h1), rtol=1e-13, atol=0)

    def test_single_observation(self):
        p = Garch11Params(omega=0.1, alpha=0.1, beta=0.8)
        h = garch11_filter(np.array([0.5]), p, h1=2.0)
        assert h.tolist() == [2.0]

    def test_rejects_bad_inputs(self):
        p = Garch11Params(omega=0.1, alpha=0.1, beta=0.8)
        with pytest.raises(DataError):
            garch11_filter(np.array([[1.0]]), p, h1=1.0)
        with pytest.raises(DataError):
            garch11_filter(np.array([1.0, np.nan]), p, h1=1.0)
        with pytest.raises(DataError):
            garch11_filter(np.array([1.0, 2.0]), p, h1=0.0)
        with pytest.raises(DataError):
            garch11_filter(np.array([]), p, h1=1.0)

    def test_overflow_reports_position(self):
        p = Garch11Params(omega=0.1, alpha=0.5, beta=0.4)
        eps = np.array([1.0, 1e200, 1.0, 1.0])
        with np.errstate(over="ignore"), pytest.raises(NumericalOverflowError) as ei:
            garch11_filter(eps, p, h1=1.0)
        assert ei.value.t == 2


def scan_oracle(x, coef, init):
    """y_t = x_t + coef * y_{t-1}, one entry and one step at a time."""
    coef = np.broadcast_to(coef, x.shape[1:])
    init = np.broadcast_to(init, x.shape[1:])
    y = np.empty_like(x)
    for idx in np.ndindex(x.shape[1:]):
        c, prev = float(coef[idx]), float(init[idx])
        for t in range(x.shape[0]):
            prev = float(x[(t, *idx)]) + c * prev
            y[(t, *idx)] = prev
    return y


def adjoint_oracle(g, coef):
    """lambda_t = g_t + coef * lambda_{t+1} from lambda_T = 0, backwards."""
    coef = np.broadcast_to(coef, g.shape[1:])
    lam = np.empty_like(g)
    for idx in np.ndindex(g.shape[1:]):
        c, nxt = float(coef[idx]), 0.0
        for t in reversed(range(g.shape[0])):
            nxt = float(g[(t, *idx)]) + c * nxt
            lam[(t, *idx)] = nxt
    return lam


# Unit roundoff of float64, and the constant of the error bound below.
U = 2.0**-53
BOUND_K = 4


def exact_one_pole(x, coef, init):
    """The closed form y_t = sum_{k<=t} coef^k x_{t-k} + coef^(t+1) init,
    evaluated exactly in Fractions (every float is a dyadic rational), and
    the error scale sum_k (k + 1 + ceil(log2 T)) |coef|^k |x_{t-k}| with
    init standing as x_{-1}.

    Stepping in time order rounds the term x_{t-k} through k products and
    k + 1 sums, under 2 (k + 1) u relative; the odd-even scan through at
    most 2 ceil(log2 T) sums and products plus a power coef^k formed by
    repeated squaring, under (k + 4 ceil(log2 T)) u. Both stay below
    BOUND_K u times the scale, entry by entry (to first order in u)."""
    shape = x.shape[1:]
    coef = np.broadcast_to(coef, shape).astype(float)
    init = np.broadcast_to(init, shape).astype(float)

    def frac(a):
        return np.array([Fraction(v) for v in a.ravel()], dtype=object).reshape(shape)

    c, y = frac(coef), frac(init)
    depth = 1 + math.ceil(math.log2(max(x.shape[0], 1)))
    exact = np.empty(x.shape, dtype=object)
    scale = np.empty(x.shape)
    s0, s1 = np.abs(init), np.zeros(shape)  # sum |c|^k |x_{t-k}|, and k times it
    for t, x_t in enumerate(x):
        y = frac(x_t) + c * y
        exact[t] = y
        s1 = np.abs(coef) * (s1 + s0)
        s0 = np.abs(x_t) + np.abs(coef) * s0
        scale[t] = s1 + depth * s0
    return exact, scale


def bound_ratio(y, exact, scale):
    """Largest |y - exact| / (u * scale) over all entries."""
    if y.size == 0:
        return 0.0
    yf = np.array([Fraction(v) for v in y.ravel()], dtype=object).reshape(y.shape)
    err = np.array(abs(yf - exact), dtype=float)
    return float(np.max(err / (U * scale)))


def odd_even_scan(x, coef, init, next_pole=lambda c: c * c, skip=(), lag=1):
    """The odd-even scan written out, for mutation: next_pole gives a
    level's pole from the one below, down-sweep levels in ``skip`` are left
    out, and each even row is completed from the row ``lag`` before it."""
    t_len, width = x.shape[0], math.prod(x.shape[1:])
    c = np.broadcast_to(coef, x.shape[1:]).reshape(width).astype(float)
    v = x.reshape(t_len, width).astype(float)
    if t_len:
        v[0] += c * np.broadcast_to(init, x.shape[1:]).reshape(width)
    y, levels = v, []
    while len(v) > 1:
        v[1::2] += c * v[:-1:2]
        levels.append((v, c))
        v, c = v[1::2], next_pole(c)
    for k in reversed(range(len(levels))):
        if k not in skip:
            v, c = levels[k]
            v[2::2] += c * v[2 - lag : len(v) - lag : 2]
    return y.reshape(x.shape)


MUTANTS = {
    "level pole coef^3": dict(next_pole=lambda c: c**3),
    "finest down-sweep level skipped": dict(skip={0}),
    "down-sweep off by one row": dict(lag=2),
}


def scanned(x, coef, init):
    """_scan over a copy of the (T, width) drive x, with init folded into
    row 0 as the BEKK filter and DCC's row blocks fold their carries."""
    y = np.array(x, dtype=float)
    y[:1] += coef * init
    _scan(y, coef, np.empty((len(y) // 2, y.shape[1])))
    return y


@st.composite
def scan_inputs(draw, series):
    """A drive, poles and starts. ``series``: a 1-D series with one pole,
    what _one_pole steps on floats; otherwise rows of 1 to 24 entries, what
    _scan takes, with one pole per entry, which may be negative, or one
    shared. T runs from 0 to 80, through seven scan levels."""
    shape = () if series else (draw(st.integers(1, 24)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 2))
    x = rng.standard_normal((draw(st.integers(0, 80)), *shape)) * scale
    if shape and draw(st.booleans()):
        coef = rng.uniform(-0.999, 0.999, shape)
    else:
        coef = float(rng.uniform(0.0, 0.999))
    return x, coef, rng.standard_normal(shape) * scale


@st.composite
def bekk_inputs(draw):
    """Shocks, diagonal BEKK parameters (one pole b_i b_j per entry) and a
    start symmetric only to rounding, N from 1 to 6 and T from 1 so the
    lone-start path is covered."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    root = 10.0 ** (0.5 * draw(st.integers(-8, 2)))
    e = rng.standard_normal((draw(st.integers(1, 60)), n)) * root
    c = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(0.1, 1.0, n))
    params = BekkParams(c * root, rng.uniform(0.0, 0.5, n), rng.uniform(0.0, 0.85, n))
    w = rng.standard_normal((n, n))
    h1 = (w @ w.T + np.eye(n)) * root**2
    h1[np.triu_indices(n, 1)] *= 1.0 + 2.0**-50
    return e, params, h1


class TestOnePoleScan:
    @settings(max_examples=60, deadline=None)
    @given(scan_inputs(series=True))
    def test_narrow_rows_match_step_by_step_loop_bit_for_bit(self, case):
        x, coef, init = case
        y = _one_pole(x, coef, init)
        lam = _one_pole(x[::-1], coef, 0.0)[::-1]  # garch11_loglik's adjoint
        assert y.shape == lam.shape == x.shape
        want = scan_oracle(x, coef, init).view(np.int64)
        assert np.array_equal(y.view(np.int64), want)
        want = adjoint_oracle(x, coef).view(np.int64)
        assert np.array_equal(lam.view(np.int64), want)

    @settings(max_examples=60, deadline=None)
    @given(scan_inputs(series=False))
    def test_wide_rows_are_within_the_bound_of_the_exact_sum(self, case):
        x, coef, init = case
        assert bound_ratio(scanned(x, coef, init), *exact_one_pole(x, coef, init)) <= BOUND_K
        # the adjoint, as BEKK's score runs it: the rows reversed, from 0
        lam = scanned(x[::-1], coef, 0.0)
        assert bound_ratio(lam, *exact_one_pole(x[::-1], coef, 0.0)) <= BOUND_K

    @settings(max_examples=30, deadline=None)
    @given(scan_inputs(series=False))
    def test_bound_holds_for_the_step_by_step_loop(self, case):
        x, coef, init = case
        exact, scale = exact_one_pole(x, coef, init)
        assert bound_ratio(scan_oracle(x, coef, init), exact, scale) <= BOUND_K
        assert bound_ratio(odd_even_scan(x, coef, init), exact, scale) <= BOUND_K

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_bound_fails_for_mutated_scans(self, mutant):
        rng = np.random.default_rng(5)
        for t_len in (4, 9, 37, 80):
            x = rng.standard_normal((t_len, 5))
            coef, init = rng.uniform(0.2, 0.95, 5), rng.standard_normal(5)
            exact, scale = exact_one_pole(x, coef, init)
            assert bound_ratio(odd_even_scan(x, coef, init), exact, scale) <= BOUND_K
            y = odd_even_scan(x, coef, init, **MUTANTS[mutant])
            assert bound_ratio(y, exact, scale) > 1e6 * BOUND_K

    @settings(max_examples=60, deadline=None)
    @given(bekk_inputs())
    def test_symmetric_recursion_is_within_the_bound_of_the_exact_sum(self, case):
        e, p, h1 = case
        h = bekk_filter(e, p, h1)
        assert np.array_equal(h[0].view(np.int64), symmetrize(h1).view(np.int64))
        # the upper triangle mirrors the scanned lower one exactly
        assert np.array_equal(h.view(np.int64), h.transpose(0, 2, 1).view(np.int64))
        a, b = p.a_diag, p.b_diag
        drive = p.c_lower @ p.c_lower.T + np.outer(a, a) * (e[:-1, :, None] * e[:-1, None, :])
        rows, cols = np.tril_indices(e.shape[1])
        pole = np.outer(b, b)[rows, cols]
        exact, scale = exact_one_pole(drive[:, rows, cols], pole, h[0][rows, cols])
        assert bound_ratio(h[1:, rows, cols], exact, scale) <= BOUND_K


class TestLoglik:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        p = Garch11Params(omega=0.05, alpha=0.08, beta=0.85)
        eps = 0.1 * rng.standard_normal(300)
        h1 = float(eps.var(ddof=1))
        h = garch11_filter(eps, p, h1=h1)
        ref = -0.5 * np.sum(LOG_2PI + np.log(h) + eps**2 / h)
        assert np.isclose(garch11_loglik(eps, p), ref, rtol=1e-12)
        assert np.isclose(garch11_loglik(eps, p, h1=h1), ref, rtol=1e-12)

    def test_true_params_beat_wrong_ones_in_expectation(self):
        truth = Garch11Params(omega=0.05, alpha=0.10, beta=0.85)
        wrong = Garch11Params(omega=0.50, alpha=0.01, beta=0.10)
        wins = 0
        for seed in range(10):
            eps, _ = garch11_simulate(truth, 2000, seed=seed)
            if garch11_loglik(eps, truth) > garch11_loglik(eps, wrong):
                wins += 1
        assert wins >= 9


class TestFit:
    def test_recovers_simulated_parameters(self):
        truth = Garch11Params(omega=0.05, alpha=0.08, beta=0.90)
        eps, _ = garch11_simulate(truth, 3000, seed=3)
        params, report = garch11_fit(eps, OptimizerOptions(n_starts=2, seed=0))
        assert report.converged
        assert abs(params.alpha - truth.alpha) < 0.05
        assert abs(params.beta - truth.beta) < 0.07
        assert np.isclose(
            params.unconditional_var(), truth.unconditional_var(), rtol=0.25
        )

    def test_fit_objective_is_attained_loglik(self):
        truth = Garch11Params(omega=0.1, alpha=0.05, beta=0.80)
        eps, _ = garch11_simulate(truth, 400, seed=5)
        params, report = garch11_fit(eps, OptimizerOptions(n_starts=1, seed=0))
        assert np.isclose(report.objective, garch11_loglik(eps, params), rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.0, 0.3),
        beta=st.floats(0.0, 0.95),
        t_len=st.integers(MIN_OBS, 400),
        log_scale=st.integers(-4, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fit_targets_the_sample_variance(self, alpha, beta, t_len, log_scale, seed):
        truth = Garch11Params(
            omega=10.0 ** (2 * log_scale), alpha=alpha, beta=min(beta, 0.99 - alpha)
        )
        eps, _ = garch11_simulate(truth, t_len, seed=seed)
        params, _ = garch11_fit(eps, OptimizerOptions(n_starts=2, seed=0))
        assert params.unconditional_var() == pytest.approx(eps.var(ddof=1), rel=1e-12)
        assert params.alpha > 0.0 and params.beta > 0.0
        assert params.alpha + params.beta < 1.0
        assert type(params.omega) is float

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            garch11_fit(np.zeros(49) + np.arange(49) * 0.01)

    def test_non_finite_returns_fail_before_any_start(self):
        eps = 0.01 * np.random.default_rng(0).standard_normal(300)
        eps[100] = np.nan
        with pytest.raises(DataError, match="eps contains non-finite values"):
            garch11_fit(eps)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeriesError):
            garch11_fit(np.full(100, 0.25))


class TestSimulate:
    def test_deterministic_and_consistent_with_filter(self):
        p = Garch11Params(omega=0.02, alpha=0.1, beta=0.85)
        eps1, h1 = garch11_simulate(p, 500, seed=42)
        eps2, h2 = garch11_simulate(p, 500, seed=42)
        assert np.array_equal(eps1, eps2) and np.array_equal(h1, h2)
        # re-filtering the simulated shocks reproduces the simulated path
        h = garch11_filter(eps1, p, h1=h1[0])
        assert np.allclose(h, h1, rtol=1e-12, atol=0)

    def test_seed_changes_draws(self):
        p = Garch11Params(omega=0.02, alpha=0.1, beta=0.85)
        eps1, _ = garch11_simulate(p, 100, seed=1)
        eps2, _ = garch11_simulate(p, 100, seed=2)
        assert not np.array_equal(eps1, eps2)

    def test_long_run_variance_matches_unconditional(self):
        p = Garch11Params(omega=0.02, alpha=0.05, beta=0.90)
        eps, _ = garch11_simulate(p, 50_000, seed=9)
        assert np.isclose(eps.var(), p.unconditional_var(), rtol=0.10)

    def test_rejects_bad_args(self):
        p = Garch11Params(omega=0.02, alpha=0.1, beta=0.85)
        with pytest.raises(DataError):
            garch11_simulate(p, 0, seed=0)
        with pytest.raises(DataError):
            garch11_simulate(p, 10, seed=0, h1=-1.0)
