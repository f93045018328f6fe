import resource
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    DataError,
    DccParams,
    EstimationError,
    Garch11Params,
    InsufficientDataError,
    NotPositiveDefiniteError,
    NumericalOverflowError,
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
    garch11_filter,
    kl_divergence,
    sample_moments,
)
import covtarget.dcc
import covtarget.garch
from covtarget.optimize import _unchecked

from conftest import dependent_panel, gaussian_panel
from tables import CORR15

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
        for theta1, theta2 in [(np.nan, 0.9), (0.05, np.inf)]:
            with pytest.raises(DataError, match="^non-finite theta parameters$"):
                DccParams(univariate=(g, g, g), theta1=theta1, theta2=theta2, q_bar=QBAR3)
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
        with pytest.raises(NotPositiveDefiniteError, match=r"^q_bar: matrix .* \(pivot 2\)"):
            DccParams(univariate=(g, g, g), theta1=0.05, theta2=0.9, q_bar=indefinite)
        # R_1 = q_bar, so a singular one fails the filter's first step
        with pytest.raises(NotPositiveDefiniteError, match=r"^q_bar: matrix .* \(pivot 1\)"):
            DccParams(univariate=(g, g), theta1=0.05, theta2=0.9, q_bar=np.ones((2, 2)))

    @pytest.mark.parametrize("q_bar, error, message", [
        ([[1.0, 0.1], [0.2, 1.0]], ShapeError,
         "q_bar: matrix is not symmetric (max asymmetry 1.000e-01)"),
        ([[1.0, np.inf], [np.inf, 1.0]], DataError, "q_bar: matrix has non-finite entries"),
        (np.ones(2), ShapeError, "q_bar: expected a square matrix, got shape (2,)"),
    ])
    def test_q_bar_refusals_name_the_field(self, q_bar, error, message):
        g = Garch11Params(omega=0.05, alpha=0.05, beta=0.90)
        with pytest.raises(error) as err:
            DccParams(univariate=(g, g), theta1=0.05, theta2=0.9, q_bar=np.array(q_bar))
        assert str(err.value) == message


class TestFilter:
    def test_matches_naive_recursion(self, rng):
        p = dcc3()
        z = rng.standard_normal((60, 3))
        path = dcc_filter(z, p)
        q, r = naive_filter(z, p, p.q_bar)
        assert np.allclose(path.q, q, rtol=1e-12, atol=1e-14)
        assert np.allclose(path.r, r, rtol=1e-12, atol=1e-14)
        assert np.array_equal(path.q, path.q.transpose(0, 2, 1))

    def test_r_is_symmetric_to_the_bit(self, rng):
        # with theta1 = 0 and -0.0 in q_bar, R_t has signed zeros below the
        # diagonal; the mirror above it must keep their signs
        q_bar = QBAR3.copy()
        q_bar[0, 1] = q_bar[1, 0] = -0.0
        p = DccParams(univariate=dcc3().univariate, theta1=0.0, theta2=0.9, q_bar=q_bar)
        r = dcc_filter(rng.standard_normal((50, 3)), p).r
        assert np.signbit(r[:, 1, 0]).any()
        assert np.array_equal(r.view(np.uint64), r.transpose(0, 2, 1).view(np.uint64))

    def test_unit_diagonal_exact(self, rng):
        p = dcc3()
        path = dcc_filter(rng.standard_normal((40, 3)), p)
        ii = np.arange(3)
        assert np.all(path.r[:, ii, ii] == 1.0)

    def test_path_is_read_only(self, rng):
        path = dcc_filter(rng.standard_normal((20, 3)), dcc3())
        for a in (path.r, path.q):
            with pytest.raises(ValueError):
                a[0, 0, 1] = 0.5

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

    @pytest.mark.parametrize("t_len, row", [(4, 1), (40, 17)])
    def test_overflow_reports_position(self, rng, t_len, row):
        z = rng.standard_normal((t_len, 3))
        z[row] = 1e200
        with np.errstate(over="ignore"), pytest.raises(NumericalOverflowError) as ei:
            dcc_filter(z, dcc3())
        assert ei.value.t == row + 1
        assert str(ei.value) == f"quasi-correlation recursion overflowed at t={row + 1}"


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


def blocked(monkeypatch, rows: int, n: int = 3) -> int:
    """Shrink stage two's block budget to ``rows`` rows of n series; returns
    the block rows it gives."""
    m = n * (n + 1) // 2
    monkeypatch.setattr(covtarget.dcc, "_STAGE2_BLOCK", 8 * (6 * n * n + 3 * m) * rows)
    return covtarget.dcc._Residuals(np.zeros((10 * rows, n)), n).rows


class TestBlocks:
    """Stage two runs in row blocks of a byte budget; the blocks must not
    show in the value, the gradient or the rows errors name."""

    @pytest.mark.parametrize("t_len", [1, 2, 4, 5, 6, 22])
    @pytest.mark.parametrize("delta", [None, 0.3])
    def test_blocks_match_one_block(self, rng, monkeypatch, t_len, delta):
        p = dcc3()
        z = rng.standard_normal((t_len, 3)) + 0.5 * rng.standard_normal((t_len, 1))
        target = None if delta is None else build_target(
            sample_moments(dcc_simulate(p, np.zeros(3), 100, seed=3)), delta)

        def evaluate():
            if target is None:
                return dcc_stage2_loglik(z, p, grad=True)
            return dcc_modified_loglik(z, p, target, grad=True)

        one_value, one_grad = evaluate()
        assert covtarget.dcc._Residuals(z, 3).rows == t_len
        assert blocked(monkeypatch, 5) == 5  # t_len = 1, 2, b - 1, b, b + 1, 3 b + 7
        value, grad = evaluate()
        assert value == pytest.approx(one_value, rel=1e-12)
        assert np.linalg.norm(grad - one_grad) <= 1e-12 * np.linalg.norm(one_grad)
        if target is None:
            assert dcc_stage2_loglik(z, p) == value
            np.testing.assert_allclose(dcc_filter(z, p).q, naive_filter(z, p, p.q_bar)[0],
                                       rtol=1e-12, atol=1e-14)

    def test_overflow_in_a_later_block_names_its_row(self, rng, monkeypatch):
        blocked(monkeypatch, 5)
        z = rng.standard_normal((22, 3))
        z[12] = 1e200
        with np.errstate(over="ignore"), pytest.raises(NumericalOverflowError) as ei:
            dcc_stage2_loglik(z, dcc3(), grad=True)
        assert ei.value.t == 13
        assert str(ei.value) == "quasi-correlation recursion overflowed at t=13"

    def test_lost_diagonal_in_a_later_block_names_its_row(self, monkeypatch):
        # theta1 < 0 (outside the fit's simplex): a large z_12 drives q_00 below zero
        blocked(monkeypatch, 5)
        z = np.zeros((22, 3))
        z[12] = (5.0, 0.0, 0.0)
        with pytest.raises(NumericalOverflowError) as ei:
            dcc_stage2_loglik(z, _unchecked(dcc3(), theta1=-0.5), grad=True)
        assert ei.value.t == 13
        assert str(ei.value) == "quasi-correlation lost a positive diagonal at t=13"

    def test_indefinite_correlation_in_a_later_block_names_its_row(self, monkeypatch):
        # theta1 < 0 subtracts z_12 z_12', keeping the diagonal positive
        # but leaving R_13 indefinite along (1, -1, 0)
        blocked(monkeypatch, 5)
        z = np.zeros((22, 3))
        z[12] = (10.0**0.5, -(10.0**0.5), 0.0)
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^matrix at time index 13 is not positive definite \(pivot 1\)$"):
            dcc_stage2_loglik(z, _unchecked(dcc3(), theta1=-0.1), grad=True)

    def test_the_filter_builds_no_kernel_buffers(self, rng):
        # the path kernel's buffers are built on an objective's first use;
        # dcc_filter runs the blocks alone
        res = covtarget.dcc._Residuals(rng.standard_normal((30, 3)), 3)
        for _ in res.blocks(dcc3(), tangents=False):
            pass
        assert "work" not in vars(res)
        dcc_stage2_loglik(res, dcc3())
        assert "work" in vars(res)

    def test_memory_does_not_grow_with_rows(self, rng):
        p = DccParams(univariate=(Garch11Params(0.05, 0.05, 0.9),) * 40, theta1=0.05,
                      theta2=0.9, q_bar=0.5 * (np.eye(40) + 1.0))
        peaks = []
        for t_len in (500, 4000):
            z = rng.standard_normal((t_len, 40))
            tracemalloc.start()
            try:
                dcc_stage2_loglik(z, p, grad=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_a_fit_holds_its_buffers(self, rng):
        # after the first evaluation, evaluations allocate nothing of size T,
        # so they page in no fresh memory (at 15 x 500, allocating each
        # evaluation's arrays anew took about 1,000 minor faults)
        panel = gaussian_panel(0, t_len=500, n=15)
        z = rng.standard_normal((500, 15)) + 0.5 * rng.standard_normal((500, 1))
        s1 = covtarget.dcc.Stage1Result(
            (Garch11Params(0.05, 0.05, 0.9),) * 15, z, np.corrcoef(z, rowvar=False))
        target = build_target(sample_moments(panel), 0.5)

        def capture(objective, *args, **kwargs):
            raise _Captured(objective)

        for tgt in (None, target):
            with mock.patch.object(covtarget.dcc, "maximize", capture):
                with pytest.raises(_Captured) as caught:
                    dcc_fit(panel, target=tgt, stage1=s1)
            objective = caught.value.args[0]
            objective(np.array([0.05, 0.9]))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for theta1 in np.linspace(0.02, 0.08, 10):
                objective(np.array([theta1, 0.9]))
            assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults < 100


class _Captured(Exception):
    pass


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

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), perm=st.permutations(range(3)))
    def test_fits_are_permutation_equivariant(self, seed, perm):
        uni = tuple(
            Garch11Params(omega=w, alpha=a, beta=b)
            for w, a, b in [(0.05, 0.05, 0.90), (0.2, 0.10, 0.70), (0.1, 0.02, 0.95)]
        )
        truth = DccParams(univariate=uni, theta1=0.05, theta2=0.90, q_bar=QBAR3)
        panel = dcc_simulate(truth, np.zeros(3), 300, seed=seed)
        perm = list(perm)
        permuted = ReturnPanel(
            labels=tuple(panel.labels[j] for j in perm),
            returns=panel.returns[:, perm],
        )
        opts = OptimizerOptions(n_starts=1, seed=0)
        for delta in (None, 0.3):
            base, moved = (
                dcc_fit(p, target=None if delta is None else
                        build_target(sample_moments(p), delta), opts=opts)[0]
                for p in (panel, permuted)
            )
            for j, k in enumerate(perm):
                got, want = moved.univariate[j], base.univariate[k]
                for name in ("omega", "alpha", "beta"):
                    assert getattr(got, name) == pytest.approx(
                        getattr(want, name), rel=1e-12
                    )
            assert abs(moved.theta1 - base.theta1) <= 1e-6
            assert abs(moved.theta2 - base.theta2) <= 1e-6

    def test_fit_at_the_unit_root_boundary_returns_valid_params(self):
        # With the thresholded target as intercept the stage-two optimum is
        # theta1 + theta2 -> 1, where the optimizer's point rounds to a sum of
        # 1.0; the fit must still return parameters inside the simplex.
        truth = DccParams(univariate=(Garch11Params(5e-6, 0.05, 0.9),) * 15,
                          theta1=0.05, theta2=0.90, q_bar=CORR15)
        panel = dcc_simulate(truth, np.zeros(15), 500, seed=1)
        s1 = dcc_stage1(panel)
        z = build_target(sample_moments(panel), 0.5).z_hat_pd
        d = np.sqrt(np.diag(z))
        q_bar = z / np.outer(d, d)
        np.fill_diagonal(q_bar, 1.0)
        s1 = covtarget.dcc.Stage1Result(s1.params, s1.std_resid, 0.5 * (q_bar + q_bar.T))
        params, _ = dcc_fit(panel, stage1=s1)
        assert params.theta1 + params.theta2 < 1.0
        assert params.theta1 + params.theta2 > 1.0 - 1e-9

    def test_short_panel_fails_loudly(self):
        # a data error before any stage-one fit, not an estimation failure
        panel = gaussian_panel(5, t_len=30, n=2)
        with pytest.raises(InsufficientDataError,
                           match="^DCC needs at least 50 observations, got 30$"):
            dcc_fit(panel)

    @pytest.mark.parametrize("scale, noise", [(1.0, 0.0), (2.0, 1e-9)])
    def test_dependent_series_are_named(self, scale, noise):
        # identical standardized residuals make Q_bar singular up to rounding
        with pytest.raises(DataError, match=r"^q_bar is \(numerically\) singular: series DUP "
                           "is a linear combination of the series before it$"):
            dcc_fit(dependent_panel(scale, noise), opts=OptimizerOptions(n_starts=1, seed=0))

    def test_another_panels_stage1_is_refused(self, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the fit evaluated an objective")

        monkeypatch.setattr(covtarget.dcc, "maximize", no_evaluation)
        s1 = dcc_stage1(gaussian_panel(0, t_len=300, n=2), OptimizerOptions(n_starts=1, seed=0))
        with pytest.raises(ShapeError, match=r"^stage1 residuals are \(300, 2\), "
                           r"but the panel is \(200, 2\)$"):
            dcc_fit(gaussian_panel(1, t_len=200, n=2), stage1=s1)

    def test_mis_sized_target_fails_before_any_evaluation(self, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the fit evaluated an objective")

        monkeypatch.setattr(covtarget.garch, "maximize", no_evaluation)
        monkeypatch.setattr(covtarget.dcc, "maximize", no_evaluation)
        target = build_target(sample_moments(gaussian_panel(0, n=3)), 0.5)
        with pytest.raises(ShapeError, match=r"target must be \(5, 5\), got \(3, 3\)"):
            dcc_fit(gaussian_panel(1, t_len=252, n=5), target=target)


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

    def test_residuals_are_returns_over_filtered_volatility(self):
        p = dcc3()
        panel = dcc_simulate(p, np.zeros(3), 200, seed=9)
        eps = panel.demeaned()
        z = dcc_std_residuals(panel, p)
        for j, g in enumerate(p.univariate):
            h = garch11_filter(eps[:, j], g, h1=float(eps[:, j].var(ddof=1)))
            assert z[:, j].tobytes() == (eps[:, j] / np.sqrt(h)).tobytes()

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
