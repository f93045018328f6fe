"""Analytic gradients of every fit objective against central differences.

Points are drawn by hypothesis inside each model's constraint set, at least
0.01 from its boundary so every finite-difference probe stays feasible,
with returns at unit scale so that fd_gradient's step suits every
coordinate.
Any RuntimeWarning (overflow, division by zero) fails the test.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covtarget import (
    BekkParams,
    DataError,
    DccParams,
    Garch11Params,
    ReturnPanel,
    bekk_loglik,
    bekk_modified_loglik,
    bekk_simulate,
    build_target,
    dcc_modified_loglik,
    dcc_stage2_loglik,
    fd_gradient,
    garch11_loglik,
    garch11_simulate,
    sample_moments,
)
from covtarget.bekk import _BekkTransform
from covtarget.data import correlation_from_series
from covtarget.dcc import _ThetaTransform
from covtarget.garch import _GarchTransform

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RTOL = 1e-6
FD_STEP = 1e-6
SETTINGS = settings(max_examples=20, deadline=None)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
deltas = st.sampled_from([None, 0.0, 0.3, 0.6])


def assert_matches_fd(f, x):
    """f(x) -> (value, grad); grad must match fd_gradient to RTOL."""
    value, grad = f(x)
    fd = fd_gradient(lambda y: f(y)[0], x, step=FD_STEP)
    assert np.isfinite(value)
    assert np.linalg.norm(grad - fd) <= RTOL * np.linalg.norm(fd)


@st.composite
def garch_points(draw):
    alpha = draw(st.floats(0.01, 0.3))
    beta = draw(st.floats(0.01, 0.95))
    assume(alpha + beta < 0.98)
    omega = draw(st.floats(0.05, 1.0))
    return Garch11Params(omega=omega, alpha=alpha, beta=beta), draw(seeds)


@st.composite
def bekk_points(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    c = np.tril(rng.uniform(-0.3, 0.3, (n, n)))
    np.fill_diagonal(c, rng.uniform(0.2, 0.6, n))
    a = rng.uniform(0.05, 0.5, n)
    b = np.sqrt(rng.uniform(0.1, 0.97, n) * (1.0 - a**2))
    try:
        params = BekkParams(c_lower=c, a_diag=a, b_diag=b)
    except DataError:
        assume(False)
    panel = bekk_simulate(params, np.zeros(n), 80, seed=int(rng.integers(2**31)))
    return params, panel, draw(deltas)


@st.composite
def dcc_points(draw):
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(seeds))
    t1 = draw(st.floats(0.01, 0.3))
    t2 = draw(st.floats(0.01, 0.95))
    assume(t1 + t2 < 0.98)
    z = rng.standard_normal((80, n)) + 0.6 * rng.standard_normal((80, 1))
    z = z / z.std(axis=0, ddof=1)
    uni = tuple(Garch11Params(omega=0.1, alpha=0.05, beta=0.9) for _ in range(n))
    params = DccParams(univariate=uni, theta1=t1, theta2=t2,
                       q_bar=correlation_from_series(z))
    return params, z, draw(deltas)


def target_of(returns, delta):
    if delta is None:
        return None
    return build_target(sample_moments(ReturnPanel(
        labels=tuple(f"S{i}" for i in range(returns.shape[1])), returns=returns,
    )), delta)


@SETTINGS
@given(garch_points())
def test_garch11_loglik_gradient(point):
    params, seed = point
    eps, _ = garch11_simulate(params, 120, seed=seed)
    h1 = float(eps.var(ddof=1))
    x = np.array([params.omega, params.alpha, params.beta])
    assert_matches_fd(
        lambda y: garch11_loglik(eps, Garch11Params(*y), h1=h1, grad=True), x
    )


@SETTINGS
@given(bekk_points())
def test_bekk_loglik_gradient(point):
    params, panel, delta = point
    eps = panel.demeaned()
    n = params.n
    target = target_of(panel.returns, delta)

    def f(x):
        p = BekkParams.from_vector(x, n)
        if target is None:
            return bekk_loglik(eps, p, grad=True)
        return bekk_modified_loglik(eps, p, target, grad=True)

    assert_matches_fd(f, params.to_vector())


@SETTINGS
@given(dcc_points())
def test_dcc_loglik_gradient(point):
    params, z, delta = point
    target = target_of(z, delta)

    def f(x):
        p = DccParams(univariate=params.univariate, theta1=x[0], theta2=x[1],
                      q_bar=params.q_bar)
        if target is None:
            return dcc_stage2_loglik(z, p, grad=True)
        return dcc_modified_loglik(z, p, target, grad=True)

    assert_matches_fd(f, np.array([params.theta1, params.theta2]))


def test_value_only_call_matches_gradient_call():
    params = BekkParams(c_lower=np.array([[0.4, 0.0], [0.1, 0.3]]),
                        a_diag=np.array([0.3, 0.2]), b_diag=np.array([0.9, 0.8]))
    eps = bekk_simulate(params, np.zeros(2), 100, seed=1).demeaned()
    assert bekk_loglik(eps, params, grad=True)[0] == bekk_loglik(eps, params)


@pytest.mark.parametrize(
    "transform, dim",
    [(_GarchTransform(), 3), (_ThetaTransform(), 2),
     (_BekkTransform(1), 3), (_BekkTransform(3), 12)],
)
@SETTINGS
@given(seed=seeds)
def test_transform_vjp(transform, dim, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-2.0, 2.0, dim)
    w = rng.standard_normal(transform.forward(u).size)
    fd = fd_gradient(lambda v: w @ transform.forward(v), u, step=FD_STEP)
    got = transform.vjp(u, w)
    assert np.linalg.norm(got - fd) <= RTOL * np.linalg.norm(fd)
