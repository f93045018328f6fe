import numpy as np
import pytest

from covtarget import (
    DataError,
    DccParams,
    EstimationError,
    Garch11Params,
    OptimizerOptions,
    ReturnPanel,
    ShapeError,
    build_target,
    dcc_cov_path,
    dcc_filter,
    dcc_fit,
    dcc_modified_loglik,
    dcc_simulate,
    dcc_stage1,
    dcc_stage2_loglik,
    dcc_std_residuals,
    kl_divergence,
    sample_moments,
)

from conftest import gaussian_panel

QBAR3 = np.array(
    [[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]]
)


def dcc3(theta1=0.05, theta2=0.90) -> DccParams:
    g = Garch11Params(omega=0.05, alpha=0.05, beta=0.90)
    return DccParams(univariate=(g, g, g), theta1=theta1, theta2=theta2, q_bar=QBAR3)


def naive_filter(z, p, q1):
    t_len, n = z.shape
    q = np.empty((t_len, n, n))
    r = np.empty((t_len, n, n))
    q[0] = q1
    for t in range(1, t_len):
        q[t] = (
            (1.0 - p.theta1 - p.theta2) * p.q_bar
            + p.theta1 * np.outer(z[t - 1], z[t - 1])
            + p.theta2 * q[t - 1]
        )
    for t in range(t_len):
        d = np.sqrt(np.diag(q[t]))
        r[t] = q[t] / np.outer(d, d)
        np.fill_diagonal(r[t], 1.0)
    return q, r


class TestParams:
    def test_validation(self):
        dcc3()
        g = Garch11Params(omega=0.05, alpha=0.05, beta=0.90)
        with pytest.raises(DataError):
            DccParams(univariate=(), theta1=0.05, theta2=0.9, q_bar=QBAR3)
        with pytest.raises(DataError):
            DccParams(univariate=(g, g, g), theta1=-0.01, theta2=0.9, q_bar=QBAR3)
        with pytest.raises(DataError):
            DccParams(univariate=(g, g, g), theta1=0.2, theta2=0.8, q_bar=QBAR3)
        with pytest.raises(ShapeError):
            DccParams(univariate=(g, g), theta1=0.05, theta2=0.9, q_bar=QBAR3)
        bad_diag = QBAR3.copy()
        bad_diag[0, 0] = 1.01
        with pytest.raises(DataError):
            DccParams(univariate=(g, g, g), theta1=0.05, theta2=0.9, q_bar=bad_diag)
        indefinite = np.array(
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        )
        with pytest.raises(DataError):
            DccParams(univariate=(g, g, g), theta1=0.05, theta2=0.9, q_bar=indefinite)


class TestFilter:
    def test_matches_naive_recursion(self, rng):
        p = dcc3()
        z = rng.standard_normal((60, 3))
        path = dcc_filter(z, p)
        q, r = naive_filter(z, p, p.q_bar)
        assert np.allclose(path.q, q, rtol=1e-12, atol=1e-14)
        assert np.allclose(path.r, r, rtol=1e-12, atol=1e-14)

    def test_unit_diagonal_exact(self, rng):
        p = dcc3()
        path = dcc_filter(rng.standard_normal((40, 3)), p)
        ii = np.arange(3)
        assert np.all(path.r[:, ii, ii] == 1.0)

    def test_correlations_stay_positive_definite(self, rng):
        p = dcc3()
        path = dcc_filter(rng.standard_normal((200, 3)), p)
        assert np.linalg.eigvalsh(path.r).min() > 0.0

    def test_static_parameters_freeze_the_path(self, rng):
        p = dcc3(theta1=0.0, theta2=0.0)
        path = dcc_filter(rng.standard_normal((30, 3)), p)
        assert np.allclose(path.q, QBAR3, atol=1e-14)
        assert np.allclose(path.r, QBAR3, atol=1e-14)

    def test_rejects_bad_inputs(self, rng):
        p = dcc3()
        with pytest.raises(ShapeError):
            dcc_filter(rng.standard_normal((10, 2)), p)
        with pytest.raises(DataError):
            z = rng.standard_normal((10, 3))
            z[4, 0] = np.nan
            dcc_filter(z, p)


class TestStage1:
    def test_iid_panel_gets_small_arch_effects(self):
        panel = gaussian_panel(0, t_len=1200, n=3)
        res = dcc_stage1(panel, OptimizerOptions(n_starts=1, seed=0))
        assert len(res.params) == 3
        for p in res.params:
            assert p.alpha < 0.10
        # standardized residuals should be roughly unit scale
        assert np.allclose(res.std_resid.std(axis=0), 1.0, atol=0.1)
        np.testing.assert_allclose(
            res.q_bar, np.corrcoef(res.std_resid, rowvar=False), atol=1e-12
        )

    def test_failure_names_the_series(self):
        r = gaussian_panel(1, t_len=100, n=2).returns.copy()
        r[:, 1] = 0.004  # constant column cannot be fit
        panel = ReturnPanel(labels=("OK", "FLAT"), returns=r)
        with pytest.raises(EstimationError, match="FLAT"):
            dcc_stage1(panel)


class TestLoglik:
    def test_matches_direct_formula(self, rng):
        p = dcc3()
        z = rng.standard_normal((100, 3))
        _, r = naive_filter(z, p, p.q_bar)
        ref = 0.0
        for t in range(z.shape[0]):
            sign, logdet = np.linalg.slogdet(r[t])
            assert sign > 0
            ref -= 0.5 * (logdet + z[t] @ np.linalg.inv(r[t]) @ z[t])
        assert np.isclose(dcc_stage2_loglik(z, p), ref, rtol=1e-12)

    def test_modified_subtracts_kl_path(self, rng):
        p = dcc3()
        panel = dcc_simulate(p, np.zeros(3), 300, seed=6)
        target = build_target(sample_moments(panel), 0.2)
        z = dcc_std_residuals(panel, p)
        path = dcc_filter(z, p)
        penalty = sum(kl_divergence(target.z_hat_pd, rt) for rt in path.r)
        got = dcc_modified_loglik(z, p, target)
        want = dcc_stage2_loglik(z, p) - penalty
        assert np.isclose(got, want, rtol=0, atol=1e-10)
        assert penalty > 0.0


class TestFit:
    def test_recovers_theta(self):
        truth = dcc3(theta1=0.05, theta2=0.90)
        panel = dcc_simulate(truth, np.zeros(3), 2000, seed=17)
        params, report = dcc_fit(panel, opts=OptimizerOptions(n_starts=2, seed=0))
        assert report.converged
        assert abs(params.theta1 - truth.theta1) < 0.05
        assert abs(params.theta2 - truth.theta2) < 0.10

    def test_stage1_reuse_is_equivalent_and_cheaper(self):
        panel = gaussian_panel(3, t_len=400, n=2)
        opts = OptimizerOptions(n_starts=1, seed=0)
        s1 = dcc_stage1(panel, opts=opts)
        a, _ = dcc_fit(panel, opts=opts)
        b, _ = dcc_fit(panel, opts=opts, stage1=s1)
        assert a.theta1 == b.theta1 and a.theta2 == b.theta2
        assert np.array_equal(a.q_bar, b.q_bar)
        assert a.univariate == b.univariate

    def test_penalty_pulls_kl_down(self):
        opts = OptimizerOptions(n_starts=1, seed=0)
        wins = 0
        for seed in range(5):
            truth = dcc3(theta1=0.10, theta2=0.80)
            panel = dcc_simulate(truth, np.zeros(3), 500, seed=seed)
            target = build_target(sample_moments(panel), 0.0)
            s1 = dcc_stage1(panel, opts=opts)
            plain, _ = dcc_fit(panel, opts=opts, stage1=s1)
            pen, _ = dcc_fit(panel, target=target, opts=opts, stage1=s1)
            z = s1.std_resid

            def qpath_kl(p):
                path = dcc_filter(z, p)
                return sum(kl_divergence(target.z_hat_pd, rt) for rt in path.r)

            if qpath_kl(pen) <= qpath_kl(plain) + 1e-6:
                wins += 1
        assert wins >= 4

    def test_short_panel_fails_loudly(self):
        panel = gaussian_panel(5, t_len=30, n=2)
        with pytest.raises(EstimationError):
            dcc_fit(panel)


class TestPaths:
    def test_cov_path_is_scaled_correlation(self):
        p = dcc3()
        panel = dcc_simulate(p, np.zeros(3), 200, seed=9)
        h = dcc_cov_path(panel, p)
        z = dcc_std_residuals(panel, p)
        r = dcc_filter(z, p).r
        # diagonal carries the univariate variances, off-diagonal the
        # correlation times both volatilities
        d = np.sqrt(np.diagonal(h, axis1=1, axis2=2))
        assert np.allclose(h, r * (d[:, :, None] * d[:, None, :]), rtol=1e-12)
        assert np.linalg.eigvalsh(h).min() > 0.0

    def test_residuals_match_stage1(self):
        panel = gaussian_panel(7, t_len=300, n=2)
        opts = OptimizerOptions(n_starts=1, seed=0)
        s1 = dcc_stage1(panel, opts=opts)
        params, _ = dcc_fit(panel, opts=opts, stage1=s1)
        assert np.allclose(
            dcc_std_residuals(panel, params), s1.std_resid, rtol=1e-12, atol=0
        )

    def test_shape_mismatch(self):
        p = dcc3()
        panel = gaussian_panel(2, t_len=100, n=2)
        with pytest.raises(ShapeError):
            dcc_cov_path(panel, p)
        with pytest.raises(ShapeError):
            dcc_std_residuals(panel, p)


class TestSimulate:
    def test_deterministic(self):
        p = dcc3()
        a = dcc_simulate(p, np.zeros(3), 100, seed=21)
        b = dcc_simulate(p, np.zeros(3), 100, seed=21)
        assert np.array_equal(a.returns, b.returns)
        assert a.labels == ("S1", "S2", "S3")

    def test_static_case_reproduces_moments(self):
        g = Garch11Params(omega=0.04, alpha=0.0, beta=0.0)
        p = DccParams(univariate=(g, g, g), theta1=0.0, theta2=0.0, q_bar=QBAR3)
        panel = dcc_simulate(p, np.array([0.1, 0.0, -0.1]), 30_000, seed=3)
        assert np.allclose(panel.returns.mean(axis=0), [0.1, 0.0, -0.1], atol=0.01)
        assert np.allclose(panel.returns.var(axis=0), 0.04, rtol=0.05)
        assert np.allclose(
            np.corrcoef(panel.returns, rowvar=False), QBAR3, atol=0.03
        )

    def test_init_and_labels(self):
        p = dcc3()
        panel = dcc_simulate(p, np.zeros(3), 50, seed=2, labels=("X", "Y", "Z"))
        assert panel.labels == ("X", "Y", "Z")

    def test_rejects_bad_args(self):
        p = dcc3()
        with pytest.raises(ShapeError):
            dcc_simulate(p, np.zeros(2), 50, seed=0)
        with pytest.raises(DataError):
            dcc_simulate(p, np.zeros(3), 1, seed=0)
