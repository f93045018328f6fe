import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    CovTargetError,
    DataError,
    DccParams,
    EstimationError,
    FitReport,
    Garch11Params,
    OptimizerOptions,
    fd_gradient,
    maximize,
    optimize,
)
from covtarget.optimize import (
    _BFGS_GTOL,
    _WOLFE_C1,
    _WOLFE_C2,
    _bfgs,
    _line_search,
    _SimplexTransform,
    simplex_map,
    simplex_unmap,
    simplex_vjp,
)

from conftest import random_spd


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
        # closed-simplex boundary is undone by the fits' _SimplexTransform
        w = simplex_map(np.array([800.0, -800.0]))
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0) and w.sum() <= 1.0
        w = simplex_map(np.array([30.0, -30.0]))
        assert np.all(w > 0.0) and 0.0 < w.sum() < 1.0

    @pytest.mark.parametrize("u", [(40.0, 40.0), (20.0, 38.0)])
    def test_fit_transform_stays_inside_where_the_map_rounds_to_the_boundary(self, u):
        # simplex_map(u) sums to exactly 1.0 here; the fits' transform steps
        # it back inside, so the points GARCH and DCC fits return pass their
        # parameter checks
        u = np.array(u)
        assert simplex_map(u).sum() == 1.0
        w = _SimplexTransform.forward(u)
        assert np.all(w > 0.0) and w.sum() < 1.0
        assert np.allclose(w, simplex_map(u), rtol=1e-15, atol=0.0)
        a, b = map(float, w)
        Garch11Params(omega=2.0 * (1.0 - a - b), alpha=a, beta=b)
        DccParams(univariate=(Garch11Params(1.0, 0.05, 0.9),) * 2, theta1=a,
                  theta2=b, q_bar=np.eye(2))

    def test_fit_transform_keeps_interior_bits(self, rng):
        for u in rng.standard_normal((200, 2)) * 10:
            assert np.array_equal(_SimplexTransform.forward(u), simplex_map(u))

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

    def test_unmap_along_the_last_axis(self, rng):
        u = rng.standard_normal((6, 2)) * 3
        w = simplex_map(u)
        back = simplex_unmap(w)
        assert back.shape == (6, 2)
        assert np.allclose(back, u, atol=1e-10)
        for w_i, back_i in zip(w, back):
            assert np.array_equal(simplex_unmap(w_i), back_i)
        w[4] = [0.6, 0.5]  # one row outside the simplex: the error names it
        with pytest.raises(DataError, match=r"^point \[0\.6 0\.5\] is not strictly"):
            simplex_unmap(w)


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(seed=-1), "seed must be an integer >= 0, got -1"),
        (dict(seed=0.5), "seed must be an integer >= 0, got 0.5"),
        (dict(seed=False), "seed must be an integer >= 0, got False"),
        (dict(n_starts=2.5), "n_starts must be an integer >= 1, got 2.5"),
        (dict(n_starts=True), "n_starts must be an integer >= 1, got True"),
    ])
    def test_options_are_checked_before_any_draw(self, kwargs, message):
        with pytest.raises(DataError) as err:
            OptimizerOptions(**kwargs)
        assert str(err.value) == message
        assert OptimizerOptions(np.int64(2), np.int64(7)).seed == 7


def rosenbrock(x):
    """Rosenbrock's function and its gradient; minimum 0 at (1, 1)."""
    r = x[1] - x[0] ** 2
    f = 100.0 * r * r + (1.0 - x[0]) ** 2
    return float(f), np.array([-400.0 * x[0] * r - 2.0 * (1.0 - x[0]), 200.0 * r])


class TestBfgs:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_step_meets_the_strong_wolfe_conditions(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n)
        b = rng.standard_normal(n) * 10.0
        fg = lambda x: (float(0.5 * x @ a @ x - b @ x), a @ x - b)
        steps = []

        def search(fg_, x, f0, g0, p, f_prev):
            step = _line_search(fg_, x, f0, g0, p, f_prev)
            steps.append((f0, float(g0 @ p), p, step))
            return step

        with mock.patch.object(optimize, "_line_search", search):
            u, f, g, iters, reason = _bfgs(fg, rng.standard_normal(n) * 5.0)
        # |f| reaches ~1e2 here, so the start may stop for rounding just
        # above the gradient tolerance
        assert reason in ("gradient below tolerance", "precision loss")
        assert np.allclose(u, np.linalg.solve(a, b), atol=1e-5)
        assert len(steps) == iters
        for f0, d0, p, (alpha, f1, g1) in steps:
            assert d0 < 0.0
            assert f1 <= f0 + _WOLFE_C1 * alpha * d0
            assert abs(float(g1 @ p)) <= _WOLFE_C2 * abs(d0)

    def test_rosenbrock_reaches_the_gradient_tolerance(self):
        u, f, g, iters, reason = _bfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert reason == "gradient below tolerance"
        assert np.max(np.abs(g)) <= _BFGS_GTOL
        assert np.allclose(u, [1.0, 1.0], atol=1e-6)
        assert f < 1e-12

    def test_flat_to_rounding_stops_for_precision_loss(self):
        # f = 1e8 + x'Dx/2 rounds to a multiple of ~1.5e-8 near x = 0, where
        # the exact gradient is still far above the tolerance
        d = np.array([1.0, 100.0])
        points = []

        def fg(x):
            points.append(x.copy())
            return float(1e8 + 0.5 * x @ (d * x)), d * x

        u, f, g, iters, reason = _bfgs(fg, np.array([3.0, -2.0]))
        assert reason == "precision loss"
        assert np.max(np.abs(g)) > _BFGS_GTOL
        assert f - 1e8 < 1e-5
        # the start ends where it was last evaluated: no search is spent on
        # a decrease that rounding hides
        assert np.array_equal(points[-1], u)

    def test_infeasible_trials_shrink_the_step(self):
        raised = []

        def f(x):
            if np.linalg.norm(x) > 0.8:
                raised.append(x)
                raise CovTargetError("outside the feasible ball")
            return -((x - 0.5) ** 2).sum(), -2.0 * (x - 0.5)

        x, report = maximize(
            f, IdentityTransform(), np.zeros(2), OptimizerOptions(n_starts=1)
        )
        assert raised  # the first trial step leaves the ball
        assert report.converged
        assert np.allclose(x, 0.5, atol=1e-6)

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITERS", 3)
        u, f, g, iters, reason = _bfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert (iters, reason) == (3, "iteration limit")
        neg = lambda x: tuple(-v for v in rosenbrock(x))
        _, report = maximize(
            neg, IdentityTransform(), np.array([-1.2, 1.0]), OptimizerOptions(n_starts=1)
        )
        assert report.iterations == 3
        assert not report.converged

    def test_log_line_per_start_names_reason_and_evaluations(self, caplog):
        f = lambda x: (-((x - 2.0) ** 2).sum(), -2.0 * (x - 2.0))
        with caplog.at_level(logging.DEBUG, logger="covtarget.optimize"):
            maximize(f, IdentityTransform(), np.zeros(2), OptimizerOptions(n_starts=2))
        for s in (0, 1):
            assert re.search(
                rf"start {s}: .*, \d+ evaluations \(gradient below tolerance\)",
                caplog.text,
            )
