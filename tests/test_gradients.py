"""Analytic gradients of every fit objective against central differences.

Points are drawn by hypothesis inside each model's constraint set, at least
0.01 from its boundary so every finite-difference probe stays feasible,
with returns at unit scale so that fd_gradient's step suits every
coordinate.
Any RuntimeWarning (overflow, division by zero) fails the test.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    garch11_fit,
    garch11_loglik,
    sample_moments,
)
from covtarget.bekk import _BekkTransform
from covtarget.data import correlation_from_series
from covtarget.optimize import _SimplexTransform, simplex_map, simplex_vjp

from conftest import garch11_simulate

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


class _Captured(Exception):
    pass


@SETTINGS
@given(garch_points())
def test_garch11_fit_objective_gradient(point):
    """The objective garch11_fit hands to maximize: (alpha, beta) with
    omega = s2 (1 - alpha - beta) folded into their gradient."""
    params, seed = point
    eps, _ = garch11_simulate(params, 120, seed=seed)

    def capture(objective, *args, **kwargs):
        raise _Captured(objective)

    with mock.patch("covtarget.garch.maximize", capture):
        with pytest.raises(_Captured) as caught:
            garch11_fit(eps)
    objective = caught.value.args[0]
    assert_matches_fd(objective, np.array([params.alpha, params.beta]))


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


# Every objective on one and two rows. One row has no recursion step, so
# the gradient is exactly zero; two rows take one step. The expected values
# are those of the scipy.signal.lfilter filters the scan replaced.
SHORT_GARCH = Garch11Params(omega=0.1, alpha=0.1, beta=0.8)
SHORT_BEKK = BekkParams(c_lower=np.array([[0.30, 0.0], [0.10, 0.25]]),
                        a_diag=np.array([0.30, 0.35]),
                        b_diag=np.array([0.90, 0.85]))
SHORT_DCC = DccParams(univariate=(SHORT_GARCH, SHORT_GARCH), theta1=0.05,
                      theta2=0.9, q_bar=np.array([[1.0, 0.3], [0.3, 1.0]]))
SHORT_H1 = np.array([[1.0, 0.2], [0.2, 0.8]])
SHORT_EPS = np.array([[0.3, -0.2], [0.1, 0.4]])
SHORT_Z = np.array([[0.5, -1.0], [1.2, 0.3]])
SHORT_OBJECTIVES = {
    "garch": lambda t, _: garch11_loglik(
        np.array([0.5, -1.2])[:t], SHORT_GARCH, h1=1.0, grad=True),
    "bekk": lambda t, _: bekk_loglik(
        SHORT_EPS[:t], SHORT_BEKK, h1=SHORT_H1, grad=True),
    "bekk_mod": lambda t, target: bekk_modified_loglik(
        SHORT_EPS[:t], SHORT_BEKK, target, h1=SHORT_H1, grad=True),
    "dcc": lambda t, _: dcc_stage2_loglik(SHORT_Z[:t], SHORT_DCC, grad=True),
    "dcc_mod": lambda t, target: dcc_modified_loglik(
        SHORT_Z[:t], SHORT_DCC, target, grad=True),
}
SHORT_ONE_ROW = {
    "garch": (-1.0439385332046727, 3),
    "bekk": (-1.7901323277689916, 7),
    "bekk_mod": (-1.9306298260063628, 7),
    "dcc": (-0.8044930119127308, 2),
    "dcc_mod": (-0.8046286592201793, 2),
}
SHORT_TWO_ROWS = {
    "garch": (-2.702274674052868,
              [0.30094959824689543, 0.07523739956172386, 0.30094959824689543]),
    "bekk": (-3.463709475009847,
             [-0.3178512800006705, -0.03115431326231035, -0.30869298829362846,
              -0.03783890340557444, -0.022826180267751656, -0.9935604222259059,
              -0.7842511989255848]),
    "bekk_mod": (-3.684182007392468,
                 [-0.4005435305022838, -0.039947594172943676,
                  -0.47101247815765135, -0.05089465745421723,
                  -0.03528414260223549, -1.2659621302459023,
                  -1.1920795023347415]),
    "dcc": (-1.4882565907238754, [-0.18636305410069615, 0.0]),
    "dcc_mod": (-1.4899385555768627, [-0.22980915383724854, 0.0]),
}


@pytest.fixture(scope="module")
def short_target():
    panel = bekk_simulate(SHORT_BEKK, np.zeros(2), 100, seed=5)
    return build_target(sample_moments(panel), 0.3)


@pytest.mark.parametrize("kind", list(SHORT_OBJECTIVES))
def test_objectives_on_one_and_two_rows(kind, short_target):
    value, grad = SHORT_OBJECTIVES[kind](1, short_target)
    want_value, dim = SHORT_ONE_ROW[kind]
    assert value == pytest.approx(want_value, rel=1e-12)
    assert grad.shape == (dim,) and np.all(grad == 0.0)
    value, grad = SHORT_OBJECTIVES[kind](2, short_target)
    want_value, want_grad = SHORT_TWO_ROWS[kind]
    assert value == pytest.approx(want_value, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-15)


def test_value_only_call_matches_gradient_call():
    params = BekkParams(c_lower=np.array([[0.4, 0.0], [0.1, 0.3]]),
                        a_diag=np.array([0.3, 0.2]), b_diag=np.array([0.9, 0.8]))
    eps = bekk_simulate(params, np.zeros(2), 100, seed=1).demeaned()
    assert bekk_loglik(eps, params, grad=True)[0] == bekk_loglik(eps, params)


@pytest.mark.parametrize(
    "transform, dim",
    [(_SimplexTransform(), 3), (_SimplexTransform(), 2),
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


def test_bekk_transform_vjp_where_a_underflows():
    # exp(-800) is 0, so a_1 = 0: the VJP stays finite with no warning.
    t = _BekkTransform(2)
    u = np.zeros(t.m + 4)
    u[t.m] = -800.0
    got = t.vjp(u, np.ones(t.forward(u).size))
    assert np.all(np.isfinite(got))


@SETTINGS
@given(seed=seeds)
@example(seed=5224435)  # the terms nearly cancel: an error of 1.09e-15 ||quotient||
def test_bekk_transform_vjp_matches_the_quotient_form(seed):
    # The closed form equals simplex_vjp(w, 0.5 g / sqrt(w)) at interior points.
    rng = np.random.default_rng(seed)
    t = _BekkTransform(3)
    u = rng.uniform(-2.0, 2.0, t.m + 6)
    g = rng.standard_normal(t.forward(u).size)
    w = simplex_map(u[t.m:].reshape(3, 2))
    g_ab = np.stack([g[t.m:t.m + 3], g[t.m + 3:]], axis=1)
    quotient = simplex_vjp(w, 0.5 * g_ab / np.sqrt(w)).ravel()
    got = t.vjp(u, g)[t.m:]
    # Both sides compute r_k = v_k - w_k (v_0 + v_1) per row, v_k = g_k sqrt(w_k) / 2,
    # from the same w. With unit roundoff eps/2, the closed form's v_k carries
    # two roundings (sqrt, product) and the quotient's three (sqrt, quotient,
    # product); the sum, the product by w_k and the subtraction add one each,
    # every one at most eps/2 times a term of T_k = |v_k| + w_k (|v_0| + |v_1|).
    # So each side is within (2 + 3) and (3 + 3) times eps/2 of the exact r_k,
    # and they differ by at most 5.5 eps ||T|| (6 below, for second-order terms).
    # A bound on ||quotient|| alone fails where the two terms nearly cancel.
    v = np.abs(0.5 * g_ab * np.sqrt(w))
    terms = (v + w * v.sum(axis=-1, keepdims=True)).ravel()
    eps = np.finfo(float).eps
    assert np.linalg.norm(got - quotient) <= 6 * eps * np.linalg.norm(terms)
