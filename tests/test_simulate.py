"""bekk_simulate and dcc_simulate against straightforward per-step loops,
and the simulate command, which streams the same rows to its file one
block at a time, against them.

The package's simulators update their state in place, in buffers allocated
once per call. The loops below allocate every intermediate afresh and keep
the same order of operations, so both must give the same panel bit for
bit: the comparison is of the IEEE bits, with no tolerance. dcc_simulate
factors Q_t rather than R_t, so its loop does too; dcc_simulate_r_loop
keeps the model's textbook form, factoring R_t, and the two agree to
rounding.
"""
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from covtarget import (
    BekkParams,
    DataError,
    DccParams,
    Garch11Params,
    NumericalOverflowError,
    ShapeError,
    bekk_simulate,
    dcc_simulate,
    write_returns_csv,
)
from covtarget import data
from covtarget.bekk import _bekk_steps
from covtarget.cli import main
from covtarget.dcc import _dcc_steps
from covtarget.report import bekk_document, dcc_document

from conftest import random_corr, random_spd

SRC = Path(__file__).resolve().parents[1] / "src"

SETTINGS = settings(max_examples=60, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(1, 6)
# numpy may hand an (N, 1) x (1, N) product to another BLAS kernel as N
# grows; the step loops' bit-for-bit checks reach past N = 15, mc15's size
wide_sizes = st.integers(1, 16)
lengths = st.integers(2, 300)


def bekk_simulate_loop(params, mu, t_len, seed, h1=None):
    """r_t = mu + L_t eta_t, L_t the lower Cholesky factor of H_t."""
    n = params.n
    if h1 is None:
        h1 = params.unconditional_cov()
    h_t = 0.5 * (h1 + h1.T)
    eta = np.random.default_rng(seed).standard_normal((t_len, n))
    cc = params.c_lower @ params.c_lower.T
    a, b = params.a_diag, params.b_diag
    eps = np.empty((t_len, n))
    for t in range(t_len):
        low = np.linalg.cholesky(0.5 * (h_t + h_t.T))
        eps[t] = low @ eta[t]
        h_t = cc + np.outer(a * eps[t], a * eps[t]) + (np.outer(b, b) * h_t)
    return eps + mu


def dcc_simulate_loop(params, mu, t_len, seed):
    """r_t = mu + D_t z_t, z_t = chol(Q_t) eta_t / sqrt(diag Q_t), which is
    L_t eta_t with L_t the lower Cholesky factor of R_t."""
    n = params.n
    uni = params.univariate
    h_t = np.array([p.unconditional_var() for p in uni])
    q_t = params.q_bar.copy()
    eta = np.random.default_rng(seed).standard_normal((t_len, n))
    omega = np.array([p.omega for p in uni])
    alpha = np.array([p.alpha for p in uni])
    beta = np.array([p.beta for p in uni])
    t1, t2 = params.theta1, params.theta2
    intercept = (1.0 - t1 - t2) * params.q_bar
    eps = np.empty((t_len, n))
    for t in range(t_len):
        z_t = (np.linalg.cholesky(q_t) @ eta[t]) / np.sqrt(np.diag(q_t))
        q_t = intercept + t1 * np.outer(z_t, z_t) + t2 * q_t
        eps[t] = np.sqrt(h_t) * z_t
        h_t = (alpha * z_t**2 + beta) * h_t + omega
    return eps + mu


def dcc_simulate_r_loop(params, mu, t_len, seed):
    """r_t = mu + D_t L_t eta_t, L_t the lower Cholesky factor of R_t; with
    the largest 2-norm condition number of the R_t."""
    n = params.n
    uni = params.univariate
    h_t = np.array([p.unconditional_var() for p in uni])
    q_t = params.q_bar.copy()
    eta = np.random.default_rng(seed).standard_normal((t_len, n))
    omega = np.array([p.omega for p in uni])
    alpha = np.array([p.alpha for p in uni])
    beta = np.array([p.beta for p in uni])
    t1, t2 = params.theta1, params.theta2
    intercept = (1.0 - t1 - t2) * params.q_bar
    eps = np.empty((t_len, n))
    kappa = 1.0
    for t in range(t_len):
        d = np.sqrt(np.diag(q_t))
        r_t = q_t / np.outer(d, d)
        np.fill_diagonal(r_t, 1.0)
        kappa = max(kappa, np.linalg.cond(r_t))
        z_t = np.linalg.cholesky(r_t) @ eta[t]
        eps[t] = np.sqrt(h_t) * z_t
        h_t = omega + alpha * eps[t] ** 2 + beta * h_t
        q_t = intercept + t1 * np.outer(z_t, z_t) + t2 * q_t
    return eps + mu, kappa


def simulator15(kind):
    """bekk_simulate or dcc_simulate, with the 15-asset parameters of a
    persistent, correlated market."""
    rng = np.random.default_rng(15)
    n = 15
    if kind == "bekk":
        return bekk_simulate, BekkParams(
            c_lower=0.1 * np.linalg.cholesky(random_corr(rng, n)),
            a_diag=np.full(n, 0.3), b_diag=np.full(n, 0.9))
    g = Garch11Params(omega=1e-5, alpha=0.05, beta=0.9)
    return dcc_simulate, DccParams(univariate=(g,) * n, theta1=0.05, theta2=0.9,
                                   q_bar=random_corr(rng, n))


@st.composite
def persistences(draw, n):
    """(x, y) arrays with x, y >= 0 and x + y < 1 entry by entry."""
    total = np.array(draw(st.lists(st.floats(0.0, 0.999), min_size=n, max_size=n)))
    share = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return share * total, (1.0 - share) * total


@st.composite
def bekk_cases(draw, sizes=sizes):
    n = draw(sizes)
    rng = np.random.default_rng(draw(seeds))
    scale = 10.0 ** draw(st.integers(-3, 1))
    c = np.tril(rng.uniform(-1.0, 1.0, (n, n))) * scale
    np.fill_diagonal(c, rng.uniform(0.1, 1.0, n) * scale)
    a2, b2 = draw(persistences(n))
    try:
        params = BekkParams(c_lower=c, a_diag=np.sqrt(a2), b_diag=np.sqrt(b2))
    except DataError:
        assume(False)
    h1 = random_spd(rng, n, scale**2) if draw(st.booleans()) else None
    mu = rng.standard_normal(n) * scale
    return params, mu, h1


@st.composite
def dcc_cases(draw, sizes=sizes):
    n = draw(sizes)
    rng = np.random.default_rng(draw(seeds))
    alpha, beta = draw(persistences(n))
    omega = 10.0 ** rng.uniform(-6.0, 0.0, n)
    uni = tuple(Garch11Params(omega=float(w), alpha=float(x), beta=float(y))
                for w, x, y in zip(omega, alpha, beta))
    theta1, theta2 = (float(v[0]) for v in draw(persistences(1)))
    params = DccParams(univariate=uni, theta1=theta1, theta2=theta2,
                       q_bar=random_corr(rng, n))
    return params, rng.standard_normal(n) * 0.01


def same_bits(a, b) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


# a_2 = 0 makes (a o e)(a o e)' zero in row and column 2, +0 or -0 by the
# signs of e, and a diagonal C makes CC' zero off its diagonal
ZERO_ARCH = BekkParams(c_lower=np.diag(np.linspace(0.01, 0.02, 5)),
                       a_diag=np.array([0.3, 0.2, 0.0, 0.25, 0.3]), b_diag=np.full(5, 0.9))


@SETTINGS
@given(bekk_cases(wide_sizes), lengths, seeds)
@example((simulator15("bekk")[1], np.zeros(15), None), 300, 0)
@example((ZERO_ARCH, np.zeros(5), None), 300, 0)
def test_bekk_simulate_matches_the_loop(case, t_len, seed):
    params, mu, h1 = case
    panel = bekk_simulate(params, mu, t_len, seed, h1=h1)
    assert same_bits(panel.returns, bekk_simulate_loop(params, mu, t_len, seed, h1))


@SETTINGS
@given(dcc_cases(wide_sizes), lengths, seeds)
@example((simulator15("dcc")[1], np.zeros(15)), 300, 0)
def test_dcc_simulate_matches_the_loop(case, t_len, seed):
    params, mu = case
    panel = dcc_simulate(params, mu, t_len, seed)
    assert same_bits(panel.returns, dcc_simulate_loop(params, mu, t_len, seed))


@SETTINGS
@given(dcc_cases(), lengths, seeds)
def test_dcc_simulate_matches_the_r_loop_to_rounding(case, t_len, seed):
    # Factoring Q_t or R_t differs by rounding, which a Cholesky factor
    # carries forward in proportion to the condition number of R_t: the gap
    # stays below 5e-16 kappa of each column's largest return. Near-rank-one
    # paths (theta1 near 1) reach kappa ~ 1e5.
    params, mu = case
    r = dcc_simulate(params, mu, t_len, seed).returns
    ref, kappa = dcc_simulate_r_loop(params, mu, t_len, seed)
    tol = max(1e-12, 1e-14 * kappa)
    assert np.all(np.abs(r - ref) <= tol * np.abs(ref).max(axis=0))


def test_overflow_names_the_first_non_finite_row():
    # series A's variance recursion h_{t+1} = 0.9 z_t^2 h_t + 1.5e307, from
    # h_1 = 1.5e308, overflows float64 within a few steps
    params = DccParams(
        univariate=(Garch11Params(1.5e307, 0.9, 0.0), Garch11Params(1e-4, 0.05, 0.9)),
        theta1=0.05, theta2=0.9, q_bar=np.eye(2),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ref = dcc_simulate_loop(params, np.zeros(2), 50, 0)
        with pytest.raises(NumericalOverflowError) as err:
            dcc_simulate(params, np.zeros(2), 50, 0)
    t = int(np.argwhere(~np.isfinite(ref))[0][0])
    assert 0 < t < 49
    assert err.value.t == t
    assert str(err.value) == f"simulation overflowed at t={t}"
    assert err.value.__context__ is None


def test_bekk_overflow_names_the_first_non_finite_row():
    # H_t overflows to inf, and with b = 0 the next H_t is 0 * inf = NaN: a
    # NaN pivot numpy factors, not a lost factor, so the loop runs on
    params = BekkParams(c_lower=np.array([[0.1]]), a_diag=np.array([0.99]),
                        b_diag=np.array([0.0]))
    h1 = np.array([[8e307]])
    with np.errstate(over="ignore", invalid="ignore"):
        ref = bekk_simulate_loop(params, np.zeros(1), 30, 3, h1)
    with pytest.raises(NumericalOverflowError) as err:
        bekk_simulate(params, np.zeros(1), 30, 3, h1=h1)
    t = int(np.argwhere(~np.isfinite(ref))[0][0])
    assert np.isnan(ref[t + 1:]).all()
    assert err.value.t == t
    assert str(err.value) == f"simulation overflowed at t={t}"
    assert err.value.__context__ is None


def first_failing_step(loop):
    """The step at which ``loop(t_len)`` first raises LinAlgError: a loop of
    length k raises once its failing step is below k, and its first k shocks
    do not depend on its length."""
    for t_len in range(1, 100):
        try:
            loop(t_len)
        except np.linalg.LinAlgError:
            return t_len - 1
    raise AssertionError("the reference loop factors every step")


def assert_lost_definiteness_at(t, simulate, params, what, **kwargs):
    # the failed factor is found from its NaNs, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflowError) as err:
            simulate(params, np.zeros(params.n), 50, 0, **kwargs)
    assert err.value.t == t
    assert str(err.value) == f"simulated {what} lost positive definiteness at t={t}"


def test_bekk_lost_definiteness_names_the_loops_failing_step():
    # Two series with the same a and b start correlated to within 1e-15, so
    # H_t's smallest eigenvalue, pulled toward C C' = 1e-20 I, falls below the
    # rounding of entries near 1 within a few steps.
    params = BekkParams(c_lower=1e-10 * np.eye(2), a_diag=np.full(2, 0.7),
                        b_diag=np.full(2, 0.1))
    h1 = np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]])
    t = first_failing_step(lambda t_len: bekk_simulate_loop(params, np.zeros(2), t_len, 0, h1))
    assert t > 0
    assert_lost_definiteness_at(t, bekk_simulate, params, "covariance", h1=h1)


def test_dcc_lost_definiteness_names_the_loops_failing_step():
    # Two series correlated to within 3e-16 pass q_bar's gate, but Q_t's
    # smallest eigenvalue falls below the rounding of entries near 1 within
    # a few steps. (A singular q_bar is refused when DccParams is built.)
    q_bar = np.array([[1.0, 1.0 - 3e-16], [1.0 - 3e-16, 1.0]])
    params = DccParams(univariate=(Garch11Params(1e-4, 0.05, 0.9),) * 2,
                       theta1=0.7, theta2=0.1, q_bar=q_bar)
    t = first_failing_step(lambda t_len: dcc_simulate_loop(params, np.zeros(2), t_len, 0))
    assert t > 0
    assert_lost_definiteness_at(t, dcc_simulate, params, "correlation")


def test_finite_panel_with_bad_labels_is_a_data_error():
    params = DccParams(
        univariate=(Garch11Params(1e-4, 0.05, 0.9),) * 2,
        theta1=0.05, theta2=0.9, q_bar=np.eye(2),
    )
    with pytest.raises(DataError, match="duplicate series labels"):
        dcc_simulate(params, np.zeros(2), 50, 0, labels=("A", "A"))


@pytest.mark.parametrize("kind", ["bekk", "dcc"])
@pytest.mark.parametrize("t_len", [50, 1])
def test_mis_sized_mu_is_a_shape_error(kind, t_len):
    # mu is checked first, before the simulation length
    simulate, params = simulator15(kind)
    with pytest.raises(ShapeError) as err:
        simulate(params, np.zeros(14), t_len, 0)
    assert str(err.value) == "mu must have shape (15,), got (14,)"


@pytest.mark.parametrize("kind", ["bekk", "dcc"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_mu_is_a_data_error(kind, bad):
    # a mean no row can have is bad input, not an overflow of the recursion
    simulate, params = simulator15(kind)
    mu = np.zeros(15)
    mu[3] = bad
    with pytest.raises(DataError, match=r"^mu must be finite, got \["):
        simulate(params, mu, 50, 0)


@pytest.mark.parametrize("kind", ["bekk", "dcc"])
def test_simulation_length_must_be_an_integer(kind):
    simulate, params = simulator15(kind)
    for t_len in (2.5, 50.0, "50"):
        with pytest.raises(DataError) as err:
            simulate(params, np.zeros(15), t_len, 0)
        assert str(err.value) == f"simulation length must be an integer, got {t_len!r}"
    assert simulate(params, np.zeros(15), np.int64(50), 0).t_len == 50


@pytest.mark.parametrize("kind", ["bekk", "dcc"])
@pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
def test_seed_must_be_a_non_negative_integer(kind, seed):
    simulate, params = simulator15(kind)
    with pytest.raises(DataError) as err:
        simulate(params, np.zeros(15), 50, seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"


@pytest.mark.parametrize("kind", ["bekk", "dcc"])
def test_simulated_panel_is_read_only_and_undated(kind):
    simulate, params = simulator15(kind)
    panel = simulate(params, np.zeros(15), 50, 0)
    assert panel.dates is None
    with pytest.raises(ValueError):
        panel.returns[0, 0] = 1.0


@pytest.mark.parametrize("kind", ["bekk", "dcc"])
def test_simulation_holds_about_one_panel(kind):
    # Each block's shocks become its returns in place and are copied into the
    # panel, so the traced peak stays near the panel's own bytes plus a block.
    simulate, params = simulator15(kind)
    tracemalloc.start()
    try:
        panel = simulate(params, np.zeros(15), 20_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * panel.returns.nbytes


def params_document(kind, params, mu, h1=None):
    """The params document of a BEKK or DCC model; a BEKK's h1 is optional."""
    if kind == "dcc":
        return dcc_document(params, mu, None)
    doc = bekk_document(params, mu, params.unconditional_cov() if h1 is None else h1, None)
    return {**doc, "h1": None} if h1 is None else doc


def simulate_in(out, kind, doc, t_len, seed=0):
    """``main(["simulate", ...])`` over ``doc`` written to ``out``."""
    (out / f"params.{kind}.json").write_text(json.dumps(doc), encoding="utf-8")
    return main(["simulate", "--model", kind, "--sim-len", str(t_len),
                 "--seed", str(seed), "--out-dir", str(out)])


models = st.one_of(
    bekk_cases().map(lambda case: ("bekk", *case)),
    dcc_cases().map(lambda case: ("dcc", *case, None)),
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(models, st.integers(2, 3000), seeds, st.integers(1, 1500))
def test_streamed_rows_are_the_panels_rows(capsys, case, t_len, seed, block):
    # The command draws, steps and writes its shocks one block at a time; the
    # panel's simulators step theirs at the default block size. Every block
    # size gives the same rows bit for bit, and the same file.
    kind, params, mu, h1 = case
    doc = params_document(kind, params, mu, h1)
    panel = (bekk_simulate(params, mu, t_len, seed, h1=h1) if kind == "bekk" else
             dcc_simulate(params, mu, t_len, seed))
    step = _bekk_steps(params, h1) if kind == "bekk" else _dcc_steps(params)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_SIM_BLOCK", block):
        rows = list(data._sim_blocks(step, params.n, mu, t_len, seed))
        out = Path(tmp)
        assert simulate_in(out, kind, doc, t_len, seed) == 0
        write_returns_csv(panel, out / "panel.csv")
        assert (out / f"sim.{kind}.csv").read_bytes() == (out / "panel.csv").read_bytes()
    capsys.readouterr()
    assert [len(r) for r in rows[:-1]] == [block] * (len(rows) - 1)
    assert np.array_equal(np.concatenate(rows), panel.returns)


def bekk15_document():
    return params_document("bekk", simulator15("bekk")[1], np.zeros(15))


def simulate_peak(out, t_len):
    """The traced peak of the simulate command over the 15-asset BEKK."""
    tracemalloc.start()
    try:
        assert simulate_in(out, "bekk", bekk15_document(), t_len) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_command_memory_does_not_grow_with_sim_len(capsys, tmp_path):
    # The command holds one block of rows, never the panel: ten times the rows
    # (24 MB of returns against 2.4 MB) leave the traced peak where it was.
    simulate_peak(tmp_path, 2)  # builds the render tables
    short, long = simulate_peak(tmp_path, 20_000), simulate_peak(tmp_path, 200_000)
    capsys.readouterr()
    assert abs(long - short) < 2**20


# The child's own peak resident set, read before it exits: exec starts a new
# address space with its own VmHWM, whereas ru_maxrss can carry the peak of
# the process that forked it.
RSS_CHILD = """
import sys
from covtarget.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_simulate_command_rss_does_not_grow_with_sim_len(tmp_path):
    # Out of process, so heap growth that tracemalloc does not see counts too:
    # 60,000 rows (7.2 MB of returns) peak within 3 MB of 2,000 rows.
    doc = bekk15_document()
    (tmp_path / "params.bekk.json").write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def peak_kib(t_len):
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, "simulate", "--model", "bekk",
             "--sim-len", str(t_len), "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stderr.split()[-1])

    assert peak_kib(60_000) - peak_kib(2_000) <= 3 * 1024


# The failing paths of the tests above: kind, params, h1, seed, the step at
# which the reference loop fails, the error's words, and a block size that
# puts that step past the first block.
LATE_FAILURES = {
    "bekk overflow": (
        "bekk", BekkParams(c_lower=np.array([[0.1]]), a_diag=np.array([0.99]),
                           b_diag=np.array([0.0])),
        np.array([[8e307]]), 3, 1, "simulation overflowed", 1),
    "bekk definiteness": (
        "bekk", BekkParams(c_lower=1e-10 * np.eye(2), a_diag=np.full(2, 0.7),
                           b_diag=np.full(2, 0.1)),
        np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]]), 0, 3,
        "simulated covariance lost positive definiteness", 2),
    "dcc overflow": (
        "dcc", DccParams(univariate=(Garch11Params(1.5e307, 0.9, 0.0),
                                     Garch11Params(1e-4, 0.05, 0.9)),
                         theta1=0.05, theta2=0.9, q_bar=np.eye(2)),
        None, 0, 8, "simulation overflowed", 3),
}


@pytest.mark.parametrize("case", sorted(LATE_FAILURES))
def test_late_failure_names_its_step_and_leaves_no_file(capsys, tmp_path, case):
    # The failing step lies past the first block, so it fails after the rows
    # before it have gone to the temporary file.
    kind, params, h1, seed, t, words, block = LATE_FAILURES[case]
    assert t >= block
    doc = params_document(kind, params, np.zeros(params.n), h1)
    with mock.patch.object(data, "_SIM_BLOCK", block):
        rc = simulate_in(tmp_path, kind, doc, 50, seed)
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err == f"estimation error: {words} at t={t}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [f"params.{kind}.json"]
