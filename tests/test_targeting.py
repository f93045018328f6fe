import numpy as np
import pytest

import covtarget.linalg
from covtarget import (
    DataError,
    DccParams,
    Garch11Params,
    NotPositiveDefiniteError,
    OptimizerOptions,
    ReturnPanel,
    ShapeError,
    TargetSpec,
    bekk_fit,
    bekk_modified_loglik,
    build_target,
    dcc_fit,
    dcc_modified_loglik,
    sample_moments,
    threshold_correlation,
)
from covtarget.bekk import _Returns
from covtarget.linalg import cholesky

from conftest import bekk2, gaussian_panel, random_corr

from tables import CORR5


def moments_for(corr, rng, t_len=500):
    # panel whose sample correlation is close to (but not exactly) corr
    low = np.linalg.cholesky(corr)
    r = 0.02 * (rng.standard_normal((t_len, corr.shape[0])) @ low.T)
    labels = tuple(f"A{i}" for i in range(corr.shape[0]))
    return sample_moments(ReturnPanel(labels=labels, returns=r))


class TestThreshold:
    def test_strict_survival(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        z = threshold_correlation(corr, 0.5)
        assert z[0, 1] == 0.0  # |rho| == delta does not survive
        z = threshold_correlation(corr, 0.49999)
        assert z[0, 1] == 0.5

    def test_diag_always_one(self, rng):
        c = random_corr(rng, 5)
        for delta in (0.0, 0.3, 0.9, 0.99):
            z = threshold_correlation(c, delta)
            assert np.all(np.diag(z) == 1.0)

    def test_delta_zero_keeps_everything_nonzero(self, rng):
        c = random_corr(rng, 4)
        z = threshold_correlation(c, 0.0)
        off = ~np.eye(4, dtype=bool)
        keep = np.abs(c) > 0.0
        assert np.array_equal(z[off & keep], c[off & keep])

    def test_survivors_shrink_with_delta(self):
        counts = []
        for delta in (0.0, 0.3, 0.5, 0.71, 0.9):
            z = threshold_correlation(CORR5, delta)
            counts.append(int((z != 0.0).sum()))
        assert counts == sorted(counts, reverse=True)

    def test_negative_correlations_kept_by_magnitude(self):
        corr = np.array([[1.0, -0.8], [-0.8, 1.0]])
        z = threshold_correlation(corr, 0.5)
        assert z[0, 1] == -0.8

    def test_domain_checks(self):
        with pytest.raises(DataError):
            threshold_correlation(np.eye(2), 1.0)
        with pytest.raises(DataError):
            threshold_correlation(np.eye(2), -0.1)
        with pytest.raises(DataError):
            threshold_correlation(np.array([[1.0, 1.5], [1.5, 1.0]]), 0.5)


class TestBuildTarget:
    def test_delta_zero_reproduces_sample_cov(self, rng):
        m = sample_moments(gaussian_panel(rng, t_len=300, n=3))
        spec = build_target(m, 0.0)
        assert not spec.pd_adjusted
        assert np.allclose(spec.z_hat, m.corr, atol=1e-12)
        assert np.allclose(spec.sigma_hat, m.cov, atol=1e-12)

    def test_pd_repair_flagged(self, rng):
        # PD correlation whose thresholded version at 0.7 is indefinite:
        # the strong pair entries survive, the moderate one is zeroed
        corr = np.array(
            [[1.0, 0.85, 0.85], [0.85, 1.0, 0.55], [0.85, 0.55, 1.0]]
        )
        m = moments_for(corr, rng)
        spec = build_target(m, 0.7)
        z = spec.z_hat
        assert np.linalg.eigvalsh(z).min() < 0  # raw threshold is indefinite
        assert spec.pd_adjusted
        assert np.linalg.eigvalsh(spec.z_hat_pd).min() >= 1e-8 - 1e-12
        cholesky(spec.sigma_hat)

    def test_no_repair_when_pd(self, rng):
        m = sample_moments(gaussian_panel(rng, t_len=400, n=3))
        spec = build_target(m, 0.95)  # nearly diagonal target
        assert not spec.pd_adjusted
        assert np.array_equal(spec.z_hat_pd, spec.z_hat)

    def test_sigma_scale(self, rng):
        m = sample_moments(gaussian_panel(rng, t_len=300, n=4))
        spec = build_target(m, 0.4)
        ref = m.gamma @ spec.z_hat_pd @ m.gamma
        assert np.allclose(spec.sigma_hat, ref, atol=1e-14)
        # variances are untouched by thresholding
        assert np.allclose(np.diag(spec.sigma_hat), np.diag(m.cov), rtol=1e-10)

    def test_target_read_only(self, rng):
        m = sample_moments(gaussian_panel(rng))
        spec = build_target(m, 0.2)
        with pytest.raises(ValueError):
            spec.sigma_hat[0, 0] = 5.0


def target_fields(n=3, delta=0.3):
    """The constructor arguments of a built n-asset target."""
    spec = build_target(sample_moments(gaussian_panel(4, t_len=300, n=n)), delta)
    return dict(delta=spec.delta, z_hat=spec.z_hat, z_hat_pd=spec.z_hat_pd,
                sigma_hat=spec.sigma_hat)


class TestTargetSpec:
    def test_derives_what_it_holds(self):
        fields = target_fields()
        spec = TargetSpec(**fields)
        assert spec.z_logdet == cholesky(fields["z_hat_pd"]).logdet
        assert spec.sigma_logdet == cholesky(fields["sigma_hat"]).logdet
        assert spec.pd_adjusted == (not np.array_equal(spec.z_hat_pd, spec.z_hat))
        not_pd = {**fields, "z_hat": fields["z_hat"] + 0.5 * np.eye(3)}
        assert TargetSpec(**not_pd).pd_adjusted

    @pytest.mark.parametrize("name", ["pd_adjusted", "z_logdet", "sigma_logdet"])
    def test_derived_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            TargetSpec(**target_fields(), **{name: 0.0})

    @pytest.mark.parametrize("name, what", [
        ("sigma_hat", "target"), ("z_hat_pd", "correlation target"),
    ])
    def test_checks_its_matrices_when_built(self, name, what):
        fields = target_fields()
        bad = fields[name].copy()
        bad[0, 1] = bad[1, 0] = 2.0 * np.sqrt(bad[0, 0] * bad[1, 1])
        with pytest.raises(NotPositiveDefiniteError,
                           match=f"^{what}: matrix is not positive definite"):
            TargetSpec(**{**fields, name: bad})
        with pytest.raises(ShapeError, match=rf"^{what} must be \(3, 3\), got \(2, 2\)"):
            TargetSpec(**{**fields, name: fields[name][:2, :2]})


def test_penalized_evaluations_do_not_refactor_the_target(monkeypatch):
    # The target was factored when it was built: an evaluation of the
    # penalized BEKK objective factors only its h1, and of DCC nothing, and
    # a whole fit checks only the target's order. A BEKK fit checks h1 once,
    # into the _Returns it evaluates on, which factors nothing again.
    factored = []
    factor = covtarget.linalg._factor
    monkeypatch.setattr(covtarget.linalg, "_factor",
                        lambda a, what: factored.append(what) or factor(a, what))
    rng = np.random.default_rng(5)
    bekk_panel, dcc_panel = gaussian_panel(rng, n=2), gaussian_panel(rng, n=3)
    bekk_target = build_target(sample_moments(bekk_panel), 0.3)
    dcc_target = build_target(sample_moments(dcc_panel), 0.3)
    garch = Garch11Params(omega=0.05, alpha=0.05, beta=0.9)
    dcc = DccParams((garch,) * 3, 0.05, 0.9, dcc_target.z_hat_pd)
    bekk = bekk2()
    eps, z = 0.01 * rng.standard_normal((80, 2)), rng.standard_normal((80, 3))
    for grad in (False, True):
        factored.clear()
        bekk_modified_loglik(eps, bekk, bekk_target, h1=np.cov(eps.T), grad=grad)
        assert factored == ["h1: matrix"]
        factored.clear()
        dcc_modified_loglik(z, dcc, dcc_target, grad=grad)
        assert factored == []
        held = _Returns(eps, 2, np.cov(eps.T))
        factored.clear()
        bekk_modified_loglik(held, bekk, bekk_target, grad=grad)
        assert factored == []
    opts = OptimizerOptions(n_starts=1, seed=0)
    for h1 in (None, np.cov(bekk_panel.demeaned().T)):
        factored.clear()
        bekk_fit(bekk_panel.demeaned(), target=bekk_target, opts=opts, h1=h1)
        assert factored.count("h1: matrix") == 1
        assert not [what for what in factored if "target" in what]
    factored.clear()
    dcc_fit(dcc_panel, target=dcc_target, opts=opts)
    assert factored and not [what for what in factored if "target" in what]
