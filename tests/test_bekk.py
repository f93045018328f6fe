import numpy as np
import pytest

from covtarget import (
    BekkParams,
    DataError,
    Garch11Params,
    InsufficientDataError,
    NotPositiveDefiniteError,
    NumericalOverflowError,
    OptimizerOptions,
    ShapeError,
    bekk_filter,
    bekk_fit,
    bekk_loglik,
    bekk_modified_loglik,
    bekk_simulate,
    build_target,
    garch11_filter,
    garch11_loglik,
    kl_divergence,
    maximize,
    sample_moments,
)
import covtarget.bekk
from covtarget.optimize import simplex_map

from conftest import bekk2, dependent_panel, gaussian_panel, random_spd
from tables import CORR5

LOG_2PI = np.log(2.0 * np.pi)


def desk_panel():
    """The paper's desk scale: 5 assets x 252 days from a diagonal BEKK with
    a = 0.3, b = 0.9 and unconditional covariance 0.02^2 CORR5."""
    truth = BekkParams(
        c_lower=np.linalg.cholesky(0.1 * (0.02**2 * CORR5)),
        a_diag=np.full(5, 0.3),
        b_diag=np.full(5, 0.9),
    )
    return bekk_simulate(truth, np.zeros(5), 252, seed=300)


def no_evaluation(*args, **kwargs):
    raise AssertionError("the fit evaluated its objective")


def naive_filter(eps, p, h1):
    t_len, n = eps.shape
    cc = p.c_lower @ p.c_lower.T
    a = np.diag(p.a_diag)
    b = np.diag(p.b_diag)
    h = np.empty((t_len, n, n))
    h[0] = h1
    for t in range(1, t_len):
        e = eps[t - 1][:, None]
        h[t] = cc + a @ (e @ e.T) @ a.T + b @ h[t - 1] @ b.T
    return h


def naive_loglik(eps, p, h1):
    h = naive_filter(eps, p, h1)
    t_len, n = eps.shape
    ll = -0.5 * t_len * n * LOG_2PI
    for t in range(t_len):
        sign, logdet = np.linalg.slogdet(h[t])
        assert sign > 0
        ll -= 0.5 * (logdet + eps[t] @ np.linalg.inv(h[t]) @ eps[t])
    return ll


class TestParams:
    def test_validation(self):
        bekk2()
        with pytest.raises(DataError):
            BekkParams(
                c_lower=np.array([[0.3, 0.2], [0.1, 0.25]]),  # not lower triangular
                a_diag=np.array([0.3, 0.3]),
                b_diag=np.array([0.9, 0.9]),
            )
        with pytest.raises(DataError):
            BekkParams(
                c_lower=np.array([[-0.3, 0.0], [0.1, 0.25]]),  # negative pivot
                a_diag=np.array([0.3, 0.3]),
                b_diag=np.array([0.9, 0.9]),
            )
        with pytest.raises(DataError):
            BekkParams(
                c_lower=np.array([[0.3, 0.0], [0.1, 0.25]]),
                a_diag=np.array([0.5, 0.3]),  # 0.25 + 0.81 > 1 on series 1
                b_diag=np.array([0.9, 0.9]),
            )

    @pytest.mark.parametrize("c, a, b, error, message", [
        (np.zeros((0, 0)), np.zeros(0), np.zeros(0), DataError, "c_lower has no series"),
        (np.zeros((2, 3)), np.zeros(2), np.zeros(2), ShapeError,
         r"c_lower must be square, got shape \(2, 3\)"),
        (np.eye(2), np.zeros(3), np.zeros(2), ShapeError,
         r"a_diag/b_diag must have shape \(2,\), got \(3,\), \(2,\)"),
        (np.eye(2), np.zeros(2), np.zeros(1), ShapeError,
         r"a_diag/b_diag must have shape \(2,\), got \(2,\), \(1,\)"),
        (np.diag([0.1, np.nan]), np.zeros(2), np.zeros(2), DataError,
         "non-finite BEKK parameters"),
        (np.eye(2), np.array([0.3, np.inf]), np.zeros(2), DataError,
         "non-finite BEKK parameters"),
        (np.eye(2), np.zeros(2), np.array([-np.inf, 0.9]), DataError,
         "non-finite BEKK parameters"),
    ])
    def test_malformed_fields_are_refused(self, c, a, b, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            BekkParams(c_lower=c, a_diag=a, b_diag=b)

    def test_singular_implied_covariance_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            BekkParams(
                c_lower=np.zeros((2, 2)),
                a_diag=np.array([0.3, 0.3]),
                b_diag=np.array([0.9, 0.9]),
            )

    def test_unconditional_cov_closed_form(self):
        p = bekk2()
        cc = p.c_lower @ p.c_lower.T
        aa = np.outer(p.a_diag, p.a_diag)
        bb = np.outer(p.b_diag, p.b_diag)
        h_bar = p.unconditional_cov()
        assert np.allclose(h_bar, cc / (1.0 - aa - bb), atol=1e-14)
        # fixed point of the recursion in expectation
        assert np.allclose(cc + (aa + bb) * h_bar, h_bar, atol=1e-14)

    @pytest.mark.parametrize("u_ab", [(40.0, 40.0), (20.0, 38.0)])
    def test_transform_stays_inside_where_the_map_rounds_to_the_boundary(self, u_ab):
        # a^2 + b^2 rounds to 1 + 2^-52 here; stepped back inside, the point
        # a fit would return passes BekkParams
        ab = np.sqrt(simplex_map(np.array(u_ab)))
        assert ab @ ab >= 1.0
        x = covtarget.bekk._BekkTransform(1).forward(np.array([0.0, *u_ab]))
        assert np.allclose(x[1:], ab, rtol=1e-15, atol=0.0)
        p = BekkParams.from_vector(x, 1)
        assert p.a_diag[0] ** 2 + p.b_diag[0] ** 2 < 1.0

    def test_transform_keeps_interior_bits(self, rng):
        for u in rng.standard_normal((200, 7)) * 5:
            ab = np.sqrt(simplex_map(u[3:].reshape(2, 2)))
            x = covtarget.bekk._BekkTransform(2).forward(u)
            assert np.array_equal(x[3:], ab.T.ravel())

    def test_vector_round_trip(self):
        p = bekk2()
        q = BekkParams.from_vector(p.to_vector(), 2)
        assert np.array_equal(q.c_lower, p.c_lower)
        assert np.array_equal(q.a_diag, p.a_diag)
        assert np.array_equal(q.b_diag, p.b_diag)


class TestFilter:
    def test_matches_naive_recursion(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            c = np.tril(0.3 * rng.standard_normal((n, n)))
            c[np.diag_indices(n)] = rng.uniform(0.1, 0.5, n)
            p = BekkParams(
                c_lower=c,
                a_diag=rng.uniform(0.1, 0.4, n),
                b_diag=rng.uniform(0.5, 0.85, n),
            )
            eps = rng.standard_normal((50, n))
            h1 = random_spd(rng, n)
            got = bekk_filter(eps, p, h1)
            assert np.allclose(got, naive_filter(eps, p, h1), rtol=1e-12, atol=1e-14)

    def test_one_asset_reduces_to_garch(self, rng):
        c, a, b = 0.2, 0.3, 0.9
        p1 = BekkParams(
            c_lower=np.array([[c]]), a_diag=np.array([a]), b_diag=np.array([b])
        )
        pg = Garch11Params(omega=c * c, alpha=a * a, beta=b * b)
        eps = rng.standard_normal(200)
        hm = bekk_filter(eps[:, None], p1, np.array([[1.5]]))[:, 0, 0]
        hu = garch11_filter(eps, pg, h1=1.5)
        assert np.allclose(hm, hu, rtol=1e-13, atol=0)

    def test_zero_arch_terms_give_constant_covariance(self, rng):
        n = 3
        c = np.linalg.cholesky(random_spd(rng, n))
        p = BekkParams(c_lower=c, a_diag=np.zeros(n), b_diag=np.zeros(n))
        eps = rng.standard_normal((20, n))
        h = bekk_filter(eps, p, random_spd(rng, n))
        assert np.allclose(h[1:], c @ c.T, atol=1e-14)

    def test_rejects_bad_inputs(self, rng):
        p = bekk2()
        with pytest.raises(ShapeError):
            bekk_filter(rng.standard_normal((10, 3)), p, np.eye(2))
        with pytest.raises(ShapeError):
            bekk_filter(rng.standard_normal((10, 2)), p, np.eye(3))
        with pytest.raises(NotPositiveDefiniteError):
            bekk_filter(rng.standard_normal((10, 2)), p, -np.eye(2))
        with pytest.raises(DataError):
            eps = rng.standard_normal((10, 2))
            eps[3, 1] = np.inf
            bekk_filter(eps, p, np.eye(2))

    def test_overflow_reports_position(self):
        p = bekk2()
        eps = np.vstack([np.ones((1, 2)), np.full((1, 2), 1e200), np.ones((2, 2))])
        with np.errstate(over="ignore"), pytest.raises(NumericalOverflowError) as ei:
            bekk_filter(eps, p, np.eye(2))
        assert ei.value.t == 2


class TestLoglik:
    def test_matches_inverse_formula(self, rng):
        p = bekk2()
        eps = 0.3 * rng.standard_normal((80, 2))
        h1 = random_spd(rng, 2, scale=0.2)
        assert np.isclose(
            bekk_loglik(eps, p, h1=h1), naive_loglik(eps, p, h1), rtol=1e-12
        )

    def test_one_asset_score_reduces_to_garch(self, rng):
        # h = c^2 + a^2 e^2 + b^2 h: GARCH's score in (omega, alpha, beta)
        # times d(c^2, a^2, b^2) / d(c, a, b)
        c, a, b, h1 = 0.2, 0.3, 0.9, 1.5
        p = BekkParams(
            c_lower=np.array([[c]]), a_diag=np.array([a]), b_diag=np.array([b])
        )
        eps = rng.standard_normal(200)
        value, g = bekk_loglik(eps[:, None], p, h1=np.array([[h1]]), grad=True)
        want, gu = garch11_loglik(eps, Garch11Params(c * c, a * a, b * b), h1, grad=True)
        assert np.isclose(value, want, rtol=1e-12, atol=0)
        assert np.allclose(g, 2.0 * np.array([c, a, b]) * gu, rtol=1e-12, atol=0)

    def test_default_start_is_sample_covariance(self, rng):
        p = bekk2()
        eps = 0.3 * rng.standard_normal((60, 2))
        s = np.cov(eps, rowvar=False, ddof=1)
        assert bekk_loglik(eps, p) == bekk_loglik(eps, p, h1=s)

    def test_modified_subtracts_kl_path(self, rng):
        p = bekk2()
        panel_r = bekk_simulate(p, np.zeros(2), 150, seed=4)
        eps = panel_r.demeaned()
        target = build_target(sample_moments(panel_r), 0.3)
        h1 = np.cov(eps, rowvar=False, ddof=1)
        path = bekk_filter(eps, p, h1)
        penalty = sum(kl_divergence(target.sigma_hat, ht) for ht in path)
        got = bekk_modified_loglik(eps, p, target)
        assert np.isclose(got, bekk_loglik(eps, p) - penalty, rtol=0, atol=1e-10)
        assert got < bekk_loglik(eps, p)  # penalty is strictly positive here

    def test_permutation_invariance(self, rng):
        p = bekk2()
        eps = 0.3 * rng.standard_normal((100, 2))
        h1 = random_spd(rng, 2, scale=0.2)
        perm = np.array([1, 0])
        pm = np.eye(2)[perm]
        cc_perm = pm @ (p.c_lower @ p.c_lower.T) @ pm.T
        p_perm = BekkParams(
            c_lower=np.linalg.cholesky(cc_perm),
            a_diag=p.a_diag[perm],
            b_diag=p.b_diag[perm],
        )
        ll = bekk_loglik(eps, p, h1=h1)
        ll_perm = bekk_loglik(eps[:, perm], p_perm, h1=pm @ h1 @ pm.T)
        assert np.isclose(ll, ll_perm, rtol=1e-10, atol=1e-8)


class TestFit:
    def test_recovers_simulated_parameters(self):
        truth = bekk2()
        panel = bekk_simulate(truth, np.zeros(2), 2000, seed=11)
        eps = panel.demeaned()
        params, report = bekk_fit(eps, opts=OptimizerOptions(n_starts=1, seed=0))
        assert report.converged
        assert np.allclose(params.a_diag, truth.a_diag, atol=0.10)
        assert np.allclose(params.b_diag, truth.b_diag, atol=0.10)
        assert np.allclose(
            params.unconditional_cov(), truth.unconditional_cov(), rtol=0.35
        )

    @pytest.mark.parametrize("scale, noise", [(1.0, 0.0), (2.0, 1e-9)])
    def test_dependent_columns_are_named(self, scale, noise):
        eps = dependent_panel(scale, noise).demeaned()
        with pytest.raises(DataError, match=r"^sample covariance is \(numerically\) singular: "
                           "series 2 is a linear combination of the series before it$"):
            bekk_fit(eps, opts=OptimizerOptions(n_starts=1, seed=0))

    def test_fit_objective_is_attained_loglik(self):
        truth = bekk2()
        panel = bekk_simulate(truth, np.zeros(2), 300, seed=2)
        eps = panel.demeaned()
        params, report = bekk_fit(eps, opts=OptimizerOptions(n_starts=1, seed=0))
        assert np.isclose(report.objective, bekk_loglik(eps, params), rtol=1e-10)

    def test_modified_fit_moves_path_toward_target(self):
        truth = bekk2()
        panel = bekk_simulate(truth, np.zeros(2), 600, seed=8)
        eps = panel.demeaned()
        target = build_target(sample_moments(panel), 0.0)
        opts = OptimizerOptions(n_starts=1, seed=0)
        plain, _ = bekk_fit(eps, opts=opts)
        pen, _ = bekk_fit(eps, target=target, opts=opts)

        def qpath_kl(p):
            path = bekk_filter(eps, p, np.cov(eps, rowvar=False, ddof=1))
            return sum(kl_divergence(target.sigma_hat, ht) for ht in path)

        assert qpath_kl(pen) <= qpath_kl(plain) + 1e-6

    def test_desk_scale_fits_converge_in_few_evaluations(self, monkeypatch):
        calls = []

        def counting_maximize(objective, transform, x0, opts):
            def counted(x):
                calls.append(x)
                return objective(x)

            return maximize(counted, transform, x0, opts)

        monkeypatch.setattr(covtarget.bekk, "maximize", counting_maximize)
        panel = desk_panel()
        moments = sample_moments(panel)
        opts = OptimizerOptions(n_starts=1, seed=0)
        for target in (None, build_target(moments, 0.5)):
            calls.clear()
            _, report = bekk_fit(
                panel.demeaned(), target=target, opts=opts, h1=moments.cov
            )
            assert report.converged
            assert report.grad_norm <= 1e-6 * abs(report.objective)
            assert 0 < len(calls) < 500

    def test_insufficient_data(self, rng):
        # 2 assets need 3 + 4 + 10 rows
        with pytest.raises(InsufficientDataError):
            bekk_fit(rng.standard_normal((16, 2)))

    def test_non_finite_returns_fail_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(covtarget.bekk, "maximize", no_evaluation)
        eps = desk_panel().demeaned()
        eps[5, 1] = np.inf
        with pytest.raises(DataError, match="eps contains non-finite values"):
            bekk_fit(eps)

    @pytest.mark.parametrize("h1, error, match", [
        (np.eye(3), ShapeError, r"h1 must be \(5, 5\), got \(3, 3\)"),
        (-np.eye(5), NotPositiveDefiniteError, r"h1: matrix is not positive definite"),
    ], ids=["mis-sized", "not-pd"])
    def test_bad_h1_fails_before_any_evaluation(self, monkeypatch, h1, error, match):
        monkeypatch.setattr(covtarget.bekk, "maximize", no_evaluation)
        with pytest.raises(error, match=match):
            bekk_fit(desk_panel().demeaned(), h1=h1)

    def test_mis_sized_target_fails_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(covtarget.bekk, "maximize", no_evaluation)
        target = build_target(sample_moments(gaussian_panel(0, n=3)), 0.5)
        with pytest.raises(ShapeError, match=r"target must be \(5, 5\), got \(3, 3\)"):
            bekk_fit(desk_panel().demeaned(), target=target)


class TestSimulate:
    def test_deterministic(self):
        p = bekk2()
        a = bekk_simulate(p, np.zeros(2), 100, seed=5)
        b = bekk_simulate(p, np.zeros(2), 100, seed=5)
        assert np.array_equal(a.returns, b.returns)
        assert a.labels == ("S1", "S2")

    def test_mean_and_covariance_match_inputs(self):
        p = bekk2()
        mu = np.array([0.01, -0.02])
        panel = bekk_simulate(p, mu, 40_000, seed=13)
        assert np.allclose(panel.returns.mean(axis=0), mu, atol=0.02)
        assert np.allclose(
            np.cov(panel.returns, rowvar=False), p.unconditional_cov(), rtol=0.15
        )

    def test_custom_start_and_labels(self):
        p = bekk2()
        panel = bekk_simulate(
            p, np.zeros(2), 50, seed=1, h1=0.5 * np.eye(2), labels=("X", "Y")
        )
        assert panel.labels == ("X", "Y")
        assert panel.returns.shape == (50, 2)

    def test_rejects_bad_args(self):
        p = bekk2()
        with pytest.raises(ShapeError):
            bekk_simulate(p, np.zeros(3), 50, seed=0)
        with pytest.raises(DataError):
            bekk_simulate(p, np.zeros(2), 1, seed=0)
        with pytest.raises(NotPositiveDefiniteError):
            bekk_simulate(p, np.zeros(2), 50, seed=0, h1=np.zeros((2, 2)))

    def test_start_near_the_largest_double_stays_finite(self):
        # symmetrizing h1 once overflowed to an infinite H_1 (with a warning)
        p = bekk2()
        h1 = np.diag([1e308, 1e308])
        panel = bekk_simulate(p, np.zeros(2), 3, seed=0, h1=h1)
        eta = np.random.default_rng(0).standard_normal((3, 2))
        assert panel.returns[0].tolist() == (np.sqrt(1e308) * eta[0]).tolist()

    def test_rejects_mis_sized_start(self):
        with pytest.raises(ShapeError, match=r"h1 must be \(2, 2\), got \(3, 3\)"):
            bekk_simulate(bekk2(), np.zeros(2), 50, seed=0, h1=np.eye(3))
