"""Scale equivariance of every fit objective.

Measuring returns in other units (eps -> c eps) while scaling the
covariance-scale parameters to match (C -> c C, omega -> c^2 omega,
h1 -> c^2 h1, sigma_hat -> c^2 sigma_hat) scales every conditional
covariance by c^2. Each Gaussian log-density then shifts by -N log c and
every KL penalty is unchanged, so the BEKK objectives shift by exactly
-T N log c and GARCH(1,1) by -T log c, while the standardized residuals,
and with them DCC stage two, do not move. Checked to 1e-9 relative, with
any RuntimeWarning failing the test.
"""
import dataclasses

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
    dcc_simulate,
    dcc_stage2_loglik,
    dcc_std_residuals,
    garch11_loglik,
    garch11_simulate,
    sample_moments,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RTOL = 1e-9
SETTINGS = settings(max_examples=30, deadline=None)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
deltas = st.sampled_from([0.0, 0.3, 0.6])


def assert_close(got, want):
    assert abs(got - want) <= RTOL * max(1.0, abs(want))


def assert_same_array(got, want):
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


@st.composite
def bekk_params(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    c = np.tril(rng.uniform(-0.3, 0.3, (n, n)))
    np.fill_diagonal(c, rng.uniform(0.2, 0.6, n))
    a = rng.uniform(0.05, 0.5, n)
    b = np.sqrt(rng.uniform(0.1, 0.97, n) * (1.0 - a**2))
    try:
        return BekkParams(c_lower=c, a_diag=a, b_diag=b)
    except DataError:
        assume(False)


def target_of(returns, delta):
    labels = tuple(f"S{i}" for i in range(returns.shape[1]))
    return build_target(sample_moments(ReturnPanel(labels, returns)), delta)


@SETTINGS
@given(params=bekk_params(), c=scales, seed=seeds, delta=deltas)
def test_bekk_objectives_shift_by_t_n_log_c(params, c, seed, delta):
    panel = bekk_simulate(params, np.zeros(params.n), 80, seed=seed)
    eps = panel.demeaned()
    h1 = np.cov(eps, rowvar=False).reshape(params.n, params.n)
    target = target_of(panel.returns, delta)
    scaled = BekkParams(
        c_lower=c * params.c_lower, a_diag=params.a_diag, b_diag=params.b_diag
    )
    scaled_target = dataclasses.replace(target, sigma_hat=c**2 * target.sigma_hat)
    shift = -eps.size * np.log(c)
    assert_close(
        bekk_loglik(c * eps, scaled, h1=c**2 * h1),
        bekk_loglik(eps, params, h1=h1) + shift,
    )
    assert_close(
        bekk_modified_loglik(c * eps, scaled, scaled_target, h1=c**2 * h1),
        bekk_modified_loglik(eps, params, target, h1=h1) + shift,
    )


@SETTINGS
@given(
    alpha=st.floats(0.01, 0.3),
    beta=st.floats(0.01, 0.95),
    c=scales,
    seed=seeds,
)
def test_garch11_loglik_shifts_by_t_log_c(alpha, beta, c, seed):
    assume(alpha + beta < 0.98)
    params = Garch11Params(omega=0.1, alpha=alpha, beta=beta)
    eps, _ = garch11_simulate(params, 120, seed=seed)
    h1 = float(eps.var(ddof=1))
    scaled = Garch11Params(omega=c**2 * params.omega, alpha=alpha, beta=beta)
    assert_close(
        garch11_loglik(c * eps, scaled, h1=c**2 * h1),
        garch11_loglik(eps, params, h1=h1) - eps.size * np.log(c),
    )


@SETTINGS
@given(
    n=st.integers(2, 4),
    theta1=st.floats(0.01, 0.3),
    theta2=st.floats(0.01, 0.95),
    c=scales,
    seed=seeds,
    delta=deltas,
)
def test_dcc_stage_two_is_scale_free(n, theta1, theta2, c, seed, delta):
    assume(theta1 + theta2 < 0.98)
    rng = np.random.default_rng(seed)
    uni = tuple(
        Garch11Params(omega=w, alpha=0.05, beta=0.9)
        for w in rng.uniform(0.01, 0.1, n)
    )
    q_bar = np.corrcoef(rng.standard_normal((3 * n, n)), rowvar=False)
    params = DccParams(univariate=uni, theta1=theta1, theta2=theta2, q_bar=q_bar)
    panel = dcc_simulate(params, rng.uniform(-0.1, 0.1, n), 80, seed=seed)
    scaled = dataclasses.replace(
        params,
        univariate=tuple(
            Garch11Params(omega=c**2 * p.omega, alpha=p.alpha, beta=p.beta)
            for p in uni
        ),
    )
    z = dcc_std_residuals(panel, params)
    z_scaled = dcc_std_residuals(
        ReturnPanel(panel.labels, c * panel.returns), scaled
    )
    assert_same_array(z_scaled, z)
    target = target_of(panel.returns, delta)
    assert_close(dcc_stage2_loglik(z_scaled, params), dcc_stage2_loglik(z, params))
    assert_close(
        dcc_modified_loglik(z_scaled, params, target),
        dcc_modified_loglik(z, params, target),
    )
