"""Shared constrained maximizer used by every model fit.

Parameters live in an unconstrained space; a model-specific transform maps
them strictly inside the constraint set. Every objective returns its value
and exact gradient in the constrained coordinates, and the transform's
vector-Jacobian product (``vjp``) carries the gradient back, so each start
runs one BFGS phase on exact gradients. A fit counts as converged when the
gradient norm at the winning point is at most 1e-6 * max(1, |objective|).
Everything is deterministic given (data, options, seed).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import check_int
from .errors import CovTargetError, DataError, EstimationError

log = logging.getLogger(__name__)

MAX_ITERS = 2000  # BFGS iterations per start
_BFGS_GTOL = 1e-6  # on the infinity norm of the unconstrained gradient
_CONV_RTOL = 1e-6
_PERTURB_SCALE = 0.3
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9
_MAX_TRIALS = 20  # objective evaluations per line search
_PRECISION_RTOL = 1e-14  # a predicted decrease -g'p below this * max(1, |f|) is rounding


@dataclass(frozen=True)
class OptimizerOptions:
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        check_int(self.n_starts, "n_starts", 1)
        check_int(self.seed, "seed", 0)


@dataclass(frozen=True)
class StartOutcome:
    objective: float
    converged: bool


@dataclass(frozen=True)
class FitReport:
    """Outcome of a multi-start maximization.

    objective is the best value found; start_winner indexes per_start;
    iterations counts BFGS iterations in the winning start; grad_norm is the
    norm of the exact gradient there, in the unconstrained coordinates.
    """

    objective: float
    grad_norm: float
    iterations: int
    start_winner: int
    converged: bool
    per_start: tuple[StartOutcome, ...]


def _unchecked(obj, **changes):
    """dataclasses.replace(obj, **changes) without __post_init__'s checks:
    for fit points, which the transforms keep feasible."""
    new = object.__new__(type(obj))
    new.__dict__.update(vars(obj), **changes)
    return new


def simplex_map(u: np.ndarray) -> np.ndarray:
    """Map R^k onto the open simplex {w > 0, sum(w) < 1} via logistic
    weights w_i = exp(u_i) / (1 + sum_j exp(u_j)), computed stably along the
    last axis."""
    u = np.asarray(u, dtype=float)
    m = np.maximum(0.0, u.max(axis=-1, keepdims=True))
    e = np.exp(u - m)
    return e / (np.exp(-m) + e.sum(axis=-1, keepdims=True))


def simplex_vjp(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pull a gradient g in w = simplex_map(u) back to u, along the last
    axis: dw_k/du_l = w_k (delta_kl - w_l)."""
    wg = w * g
    return wg - w * wg.sum(axis=-1, keepdims=True)


def simplex_unmap(w: np.ndarray) -> np.ndarray:
    """Inverse of simplex_map along the last axis; requires every point w
    strictly inside the simplex, and names the first that is not."""
    w = np.asarray(w, dtype=float)
    rest = 1.0 - w.sum(axis=-1, keepdims=True)
    bad = np.any(w <= 0.0, axis=-1) | (rest[..., 0] <= 0.0)
    if np.any(bad):
        raise DataError(
            f"point {w[bad][0]} is not strictly inside the open simplex"
        )
    return np.log(w / rest)


class _SimplexTransform:
    """u -> simplex_map(u), strictly inside the open simplex: the (alpha,
    beta) of a variance-targeted GARCH and the (theta1, theta2) of DCC.

    Large u rounds onto the boundary (u = (40, 40) maps to (0.5, 0.5)), which
    the models' parameter checks reject; there every weight steps down one
    ulp at a time until the sum is below 1. Interior points keep their bits."""

    inverse = staticmethod(simplex_unmap)

    @staticmethod
    def forward(u: np.ndarray) -> np.ndarray:
        w = simplex_map(u)
        while not w.sum() < 1.0:
            w = np.nextafter(w, 0.0)
        return w

    def vjp(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        return simplex_vjp(simplex_map(u), g)


def fd_gradient(objective, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with a per-coordinate relative step; the
    tests' oracle for the analytic gradients.

    Raises EstimationError naming the coordinate if a probe is non-finite.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp = float(objective(xp))
        fm = float(objective(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EstimationError(
                f"non-finite objective probe at coordinate {i}"
            )
        g[i] = (fp - fm) / (2.0 * h)
    return g


def _line_search(fg, x, f0, g0, p, f_prev):
    """Strong-Wolfe step along the descent direction p, as (alpha, f, g), or
    None after _MAX_TRIALS evaluations (Nocedal & Wright 2006, Algorithms
    3.5-3.6; brackets narrow by quadratic interpolation or bisection). An
    infeasible trial (f = inf) fails sufficient decrease: the step shrinks."""
    d0 = float(g0 @ p)
    a = 2.02 * (f0 - f_prev) / d0
    a = min(1.0, a) if a > 0.0 else 1.0
    lo_a, lo_f, lo_d, hi_a, hi_f = 0.0, f0, d0, None, None  # hi: bracket end
    for _ in range(_MAX_TRIALS):
        f, g = fg(x + a * p)
        if f > f0 + _WOLFE_C1 * a * d0 or f >= lo_f:
            hi_a, hi_f = a, f
        else:
            d = float(g @ p)
            if abs(d) <= -_WOLFE_C2 * d0:
                return a, f, g
            if d * ((math.inf if hi_a is None else hi_a) - lo_a) >= 0.0:
                hi_a, hi_f = lo_a, lo_f
            lo_a, lo_f, lo_d = a, f, d
        if hi_a is None:
            a = 2.0 * lo_a
        else:
            w = hi_a - lo_a
            curv = hi_f - lo_f - lo_d * w  # inf when hi is infeasible
            t = lo_a - lo_d * w * w / (2.0 * curv) if curv > 0.0 else lo_a
            a = t if abs(t - lo_a - 0.5 * w) <= 0.4 * abs(w) else lo_a + 0.5 * w
    return None


def _bfgs(fg, u):
    """BFGS from u with H0 = I and H <- V H V' + rho s s', V = I - rho s y'
    (Nocedal & Wright 2006, Algorithm 6.1). fg(u) returns (f, g), f = inf
    where u is infeasible. Returns (u, f, g, iterations, reason)."""
    f, g = fg(u)
    if not math.isfinite(f):
        return u, f, g, 0, "infeasible start"
    h = np.eye(u.size)
    f_prev, k = f + float(np.linalg.norm(g)) / 2.0, 0  # first step of length ~1
    while True:
        if float(np.max(np.abs(g))) <= _BFGS_GTOL:
            return u, f, g, k, "gradient below tolerance"
        if k == MAX_ITERS:
            return u, f, g, k, "iteration limit"
        p = -(h @ g)
        if -float(g @ p) <= _PRECISION_RTOL * max(1.0, abs(f)):
            return u, f, g, k, "precision loss"
        step = _line_search(fg, u, f, g, p, f_prev)
        if step is None:
            return u, f, g, k, "line search failed"
        s, y = step[0] * p, step[2] - g
        u, f_prev, f, g, k = u + s, f, step[1], step[2], k + 1
        ys = float(y @ s)  # 1 / rho
        if ys > 0.0:  # holds at every strong-Wolfe step, up to rounding
            v = np.eye(u.size) - np.outer(s, y) / ys
            h = v @ h @ v.T + np.outer(s, s) / ys


def maximize(
    objective,
    transform,
    x0,
    opts: OptimizerOptions | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Maximize ``objective(transform.forward(u))`` over unconstrained u.

    ``objective(x)`` returns ``(value, gradient in x)``; the transform's
    ``vjp(u, g)`` carries that gradient back to u. x0 is one point in the
    *constrained* space; further starts are seeded perturbations of its
    image. Returns the best constrained point and a FitReport. Ties between
    starts break toward the lowest start index. Raises EstimationError if
    no start produces a finite objective.
    """
    opts = opts or OptimizerOptions()
    u0 = np.asarray(transform.inverse(np.asarray(x0, dtype=float)), dtype=float)
    rng = np.random.default_rng(opts.seed)
    starts = [u0] + [
        u0 + _PERTURB_SCALE * rng.standard_normal(u0.size)
        for _ in range(opts.n_starts - 1)
    ]
    evals = 0

    def neg(u: np.ndarray) -> tuple[float, np.ndarray | None]:
        nonlocal evals
        evals += 1
        try:
            val, grad = objective(transform.forward(u))
        except CovTargetError:
            return math.inf, None
        val, grad = float(val), np.asarray(grad, dtype=float)
        if not (math.isfinite(val) and np.all(np.isfinite(grad))):
            return math.inf, None
        return -val, -transform.vjp(u, grad)

    results: list[tuple[float, float, bool, int, np.ndarray]] = []
    for s, u_s in enumerate(starts):
        evals = 0
        u, f, g, iters, reason = _bfgs(neg, u_s)
        grad_norm = float(np.linalg.norm(g)) if math.isfinite(f) else math.inf
        converged = grad_norm <= _CONV_RTOL * max(1.0, abs(f))
        results.append((-f, grad_norm, converged, iters, u))
        log.debug("start %d: objective %.8g, gradient norm %.3g, %d evaluations (%s)",
                  s, -f, grad_norm, evals, reason)

    winner = max(range(len(results)), key=lambda s: results[s][0])  # first on ties
    best_obj, grad_norm, best_conv, best_iters, best_u = results[winner]
    if not np.isfinite(best_obj):
        raise EstimationError(
            f"objective is not finite at any start (tried {len(results)} starts)"
        )
    report = FitReport(
        objective=float(best_obj),
        grad_norm=grad_norm,
        iterations=int(best_iters),
        start_winner=int(winner),
        converged=bool(best_conv),
        per_start=tuple(StartOutcome(float(o), bool(c)) for o, _, c, _, _ in results),
    )
    return transform.forward(best_u), report
