import numpy as np
import pytest

from covtarget import (
    DataError,
    NotPositiveDefiniteError,
    ShapeError,
    cholesky,
    frobenius_path_loss,
    kl_divergence,
    nearest_pd,
    symmetrize,
)
from covtarget.linalg import (
    gaussian_path_loglik,
    kl_path_sum,
    stacked_cholesky,
    stacked_quad_logdet,
)

from conftest import random_spd


class TestSymmetrize:
    def test_passes_symmetric(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(symmetrize(m), m)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            symmetrize(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            symmetrize(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_tolerates_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        out = symmetrize(m)
        assert out[0, 1] == out[1, 0]


class TestCholesky:
    def test_reconstructs_input(self, rng):
        for _ in range(20):
            m = random_spd(rng, int(rng.integers(1, 7)))
            f = cholesky(m)
            assert np.allclose(f.lower @ f.lower.T, m, atol=1e-10)
            assert np.all(np.triu(f.lower, k=1) == 0.0)

    def test_logdet_matches_slogdet(self, rng):
        for _ in range(20):
            m = random_spd(rng, 4)
            sign, ld = np.linalg.slogdet(m)
            assert sign == 1.0
            assert cholesky(m).logdet == pytest.approx(ld, abs=1e-10)

    def test_known_logdet(self):
        # diag(4, 9): determinant 36
        assert cholesky(np.diag([4.0, 9.0])).logdet == pytest.approx(np.log(36.0))

    def test_not_pd_reports_pivot(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert err.value.pivot == 1

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.ones((3, 3)))


class TestNearestPd:
    def test_already_pd_unchanged(self, rng):
        m = random_spd(rng, 4)
        assert np.array_equal(nearest_pd(m), symmetrize(m))

    def test_repairs_indefinite(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])
        assert np.linalg.eigvalsh(m).min() < 0
        out = nearest_pd(m, floor=1e-8)
        assert np.linalg.eigvalsh(out).min() >= 1e-8 - 1e-12
        cholesky(out)

    def test_idempotent(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])
        once = nearest_pd(m)
        assert np.array_equal(nearest_pd(once), once)

    def test_floor_respected(self):
        m = np.diag([1.0, 1e-12])
        out = nearest_pd(m, floor=1e-6)
        assert np.linalg.eigvalsh(out).min() >= 1e-6 - 1e-15

    def test_bad_floor(self):
        with pytest.raises(DataError):
            nearest_pd(np.eye(2), floor=0.0)


class TestKlDivergence:
    def test_zero_on_equal(self, rng):
        for _ in range(10):
            m = random_spd(rng, 3)
            assert abs(kl_divergence(m, m)) <= 1e-12

    def test_known_value(self):
        val = kl_divergence(np.eye(2), 2.0 * np.eye(2))
        assert val == pytest.approx((np.log(4.0) - 1.0) / 2.0, abs=1e-12)

    def test_asymmetric(self):
        a = kl_divergence(np.eye(2), 2.0 * np.eye(2))
        b = kl_divergence(2.0 * np.eye(2), np.eye(2))
        assert b == pytest.approx((2.0 - np.log(4.0)) / 2.0, abs=1e-12)
        assert abs(a - b) > 0.1

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            assert kl_divergence(p, q) >= -1e-12

    def test_matches_direct_formula(self, rng):
        # oracle: dense formula with explicit inverse
        for _ in range(20):
            p = random_spd(rng, 3)
            q = random_spd(rng, 3)
            direct = 0.5 * (
                np.log(np.linalg.det(q) / np.linalg.det(p))
                + np.trace(np.linalg.inv(q) @ p)
                - 3
            )
            assert kl_divergence(p, q) == pytest.approx(direct, rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(np.eye(2), np.eye(3))


class TestStackedOps:
    def test_stacked_cholesky_matches_loop(self, rng):
        h = np.stack([random_spd(rng, 3) for _ in range(40)])
        lowers, logdets = stacked_cholesky(h)
        for t in range(40):
            f = cholesky(h[t])
            assert np.allclose(lowers[t], f.lower, atol=1e-12)
            assert logdets[t] == pytest.approx(f.logdet, abs=1e-10)

    def test_stacked_cholesky_reports_bad_index(self, rng):
        h = np.stack([random_spd(rng, 3) for _ in range(5)])
        h[3] = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="time index 3"):
            stacked_cholesky(h)

    def test_quad_logdet_matches_loop(self, rng):
        h = np.stack([random_spd(rng, 3) for _ in range(30)])
        x = rng.standard_normal((30, 3))
        ld, qd = stacked_quad_logdet(h, x)
        ld_ref = sum(np.linalg.slogdet(h[t])[1] for t in range(30))
        qd_ref = sum(x[t] @ np.linalg.solve(h[t], x[t]) for t in range(30))
        assert ld == pytest.approx(ld_ref, rel=1e-10)
        assert qd == pytest.approx(qd_ref, rel=1e-10)

    def test_kl_path_sum_matches_per_step(self, rng):
        p = random_spd(rng, 3)
        h = np.stack([random_spd(rng, 3) for _ in range(25)])
        total = kl_path_sum(p, h)
        ref = sum(kl_divergence(p, h[t]) for t in range(25))
        assert total == pytest.approx(ref, abs=1e-10)

    def test_gaussian_path_loglik_matches_separate_kernels(self, rng):
        p = random_spd(rng, 3)
        h = np.stack([random_spd(rng, 3) for _ in range(20)])
        x = rng.standard_normal((20, 3))
        ld, qd = stacked_quad_logdet(h, x)
        assert gaussian_path_loglik(h, x) == pytest.approx(
            -0.5 * (ld + qd), rel=1e-12
        )
        assert gaussian_path_loglik(h, x, p) == pytest.approx(
            -0.5 * (ld + qd) - kl_path_sum(p, h), rel=1e-12
        )


class TestFrobeniusPathLoss:
    def test_zero_when_equal(self, rng):
        m = random_spd(rng, 3)
        path = np.repeat(m[None, :, :], 7, axis=0)
        assert frobenius_path_loss(path, m) == 0.0

    def test_known_value(self):
        # one step, difference I_2: sqrt(Tr(I I')) = sqrt(2)
        path = (2.0 * np.eye(2))[None, :, :]
        assert frobenius_path_loss(path, np.eye(2)) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_matches_loop(self, rng):
        tgt = random_spd(rng, 3)
        h = np.stack([random_spd(rng, 3) for _ in range(12)])
        ref = np.sqrt(
            sum(((h[t] - tgt) ** 2).sum() for t in range(12))
        )
        assert frobenius_path_loss(h, tgt) == pytest.approx(ref, rel=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            frobenius_path_loss(np.zeros((4, 2, 3)), np.eye(2))
        with pytest.raises(ShapeError):
            frobenius_path_loss(np.zeros((4, 2, 2)), np.eye(3))
