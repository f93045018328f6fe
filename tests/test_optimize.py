import numpy as np
import pytest

from covtarget import (
    DataError,
    EstimationError,
    FitReport,
    OptimizerOptions,
    fd_gradient,
    maximize,
)
from covtarget.optimize import simplex_map, simplex_unmap, simplex_vjp


class IdentityTransform:
    """No-op transform for already-unconstrained problems."""

    def forward(self, u):
        return np.asarray(u, dtype=float)

    def vjp(self, u, g):
        return np.asarray(g, dtype=float)

    def inverse(self, x):
        return np.asarray(x, dtype=float)


class ExpTransform:
    def forward(self, u):
        return np.exp(np.asarray(u, dtype=float))

    def vjp(self, u, g):
        return np.asarray(g, dtype=float) * self.forward(u)

    def inverse(self, x):
        return np.log(np.asarray(x, dtype=float))


class TestSimplexMap:
    def test_round_trip(self, rng):
        for _ in range(50):
            u = rng.standard_normal(2) * 3
            w = simplex_map(u)
            assert np.all(w > 0) and w.sum() < 1
            assert np.allclose(simplex_unmap(w), u, atol=1e-10)

    def test_stable_for_large_inputs(self):
        # extreme coordinates must not overflow; saturation onto the
        # closed-simplex boundary is caught downstream by validation
        w = simplex_map(np.array([800.0, -800.0]))
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0) and w.sum() <= 1.0
        w = simplex_map(np.array([30.0, -30.0]))
        assert np.all(w > 0.0) and 0.0 < w.sum() < 1.0

    def test_vjp_matches_finite_differences(self, rng):
        for _ in range(20):
            u = rng.standard_normal(3) * 2
            g = rng.standard_normal(3)
            fd = fd_gradient(lambda v: g @ simplex_map(v), u, step=1e-6)
            assert np.allclose(simplex_vjp(simplex_map(u), g), fd, atol=1e-9)

    def test_unmap_domain(self):
        with pytest.raises(DataError):
            simplex_unmap(np.array([0.6, 0.5]))
        with pytest.raises(DataError):
            simplex_unmap(np.array([-0.1, 0.5]))


class TestFdGradient:
    def test_matches_analytic_quadratic(self, rng):
        a = rng.standard_normal((4, 4))
        q = a @ a.T + 4 * np.eye(4)
        b = rng.standard_normal(4)
        f = lambda x: -0.5 * x @ q @ x + b @ x
        for _ in range(10):
            x = rng.standard_normal(4)
            g = fd_gradient(f, x, step=1e-6)
            assert np.allclose(g, -q @ x + b, rtol=1e-6, atol=1e-6)

    def test_richardson_consistency(self, rng):
        # halving the step keeps central differences consistent to O(step^2)
        f = lambda x: np.sin(x[0]) * np.exp(0.5 * x[1])
        x = np.array([0.3, -0.7])
        g1 = fd_gradient(f, x, step=1e-4)
        g2 = fd_gradient(f, x, step=5e-5)
        assert np.allclose(g1, g2, rtol=1e-7, atol=1e-10)

    def test_error_names_coordinate(self):
        def f(x):
            return np.nan if abs(x[1]) > 0.05 else 0.0

        with pytest.raises(EstimationError, match="coordinate 1"):
            fd_gradient(f, np.zeros(3), step=0.1)


class TestMaximize:
    def test_concave_quadratic(self):
        target = np.array([1.5, -2.0, 0.5])
        f = lambda x: (-((x - target) ** 2).sum(), -2.0 * (x - target))
        x, report = maximize(
            f, IdentityTransform(), np.zeros(3), OptimizerOptions(n_starts=2)
        )
        assert np.allclose(x, target, atol=1e-5)
        assert report.objective == pytest.approx(0.0, abs=1e-9)
        assert report.converged
        assert report.grad_norm < 1e-4

    def test_respects_positivity_transform(self):
        # maximize log(x) - x over x > 0: optimum x = 1
        f = lambda x: (float(np.log(x[0]) - x[0]), 1.0 / x - 1.0)
        x, report = maximize(
            f, ExpTransform(), np.array([0.3]), OptimizerOptions(n_starts=1)
        )
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert x[0] > 0

    def test_deterministic(self):
        f = lambda x: (-((x - 2.0) ** 2).sum(), -2.0 * (x - 2.0))
        opts = OptimizerOptions(n_starts=4, seed=7)
        out1 = maximize(f, IdentityTransform(), np.zeros(2), opts)
        out2 = maximize(f, IdentityTransform(), np.zeros(2), opts)
        assert np.array_equal(out1[0], out2[0])
        assert out1[1] == out2[1]  # bit-identical report

    def test_per_start_accounting(self):
        f = lambda x: (-(x**2).sum(), -2.0 * x)
        opts = OptimizerOptions(n_starts=3, seed=1)
        _, report = maximize(f, IdentityTransform(), np.ones(2), opts)
        assert len(report.per_start) == 3
        best = max(s.objective for s in report.per_start)
        assert report.objective == best
        # all starts should agree on this unimodal problem -> first wins ties
        assert report.start_winner == int(
            np.argmax([s.objective for s in report.per_start])
        )

    def test_reported_objective_is_best_seen(self):
        seen = []

        def f(x):
            val = -((x - 3.0) ** 2).sum()
            seen.append(val)
            return val, -2.0 * (x - 3.0)

        _, report = maximize(
            f, IdentityTransform(), np.zeros(1), OptimizerOptions(n_starts=1)
        )
        assert report.objective == pytest.approx(max(seen), abs=1e-12)

    def test_error_when_never_finite(self):
        f = lambda x: (np.nan, np.zeros_like(x))
        with pytest.raises(EstimationError):
            maximize(f, IdentityTransform(), np.zeros(2), OptimizerOptions(n_starts=2))

    def test_partial_infeasible_start_recovers(self):
        # objective only finite for x[0] > -0.5; perturbed starts may wander
        def f(x):
            if x[0] <= -0.5:
                return -np.inf, np.zeros_like(x)
            return -((x - 1.0) ** 2).sum(), -2.0 * (x - 1.0)

        x, report = maximize(
            f, IdentityTransform(), np.zeros(1), OptimizerOptions(n_starts=3, seed=3)
        )
        assert x[0] == pytest.approx(1.0, abs=1e-5)

    def test_options_validation(self):
        with pytest.raises(DataError):
            OptimizerOptions(n_starts=0)
