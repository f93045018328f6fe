"""Shared constrained maximizer used by every model fit.

Parameters live in an unconstrained space; a model-specific transform maps
them strictly inside the constraint set. Every objective returns its value
and exact gradient in the constrained coordinates, and the transform's
vector-Jacobian product (``vjp``) carries the gradient back, so each start
runs one BFGS phase on exact gradients. A fit counts as converged when the
gradient norm at the winning point is at most 1e-6 * max(1, |objective|),
whatever BFGS's own stopping message. Everything is deterministic given
(data, options, seed).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import CovTargetError, DataError, EstimationError

log = logging.getLogger(__name__)

# Finite stand-in for -inf objective values, returned with a zero gradient;
# large enough to lose every line-search comparison.
_BIG = 1e12

MAX_ITERS = 2000  # BFGS iterations per start
_BFGS_GTOL = 1e-6
_CONV_RTOL = 1e-6
_PERTURB_SCALE = 0.3


@dataclass(frozen=True)
class OptimizerOptions:
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise DataError(f"n_starts must be >= 1, got {self.n_starts}")


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
    """Inverse of simplex_map; requires w strictly inside the simplex."""
    w = np.asarray(w, dtype=float)
    rest = 1.0 - float(w.sum())
    if np.any(w <= 0.0) or rest <= 0.0:
        raise DataError(
            f"point {w} is not strictly inside the open simplex"
        )
    return np.log(w / rest)


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

    def neg(u: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            val, grad = objective(transform.forward(u))
        except CovTargetError:
            return _BIG, np.zeros_like(u)
        val = float(val)
        grad = np.asarray(grad, dtype=float)
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            return _BIG, np.zeros_like(u)
        return -val, -transform.vjp(u, grad)

    results: list[tuple[float, float, bool, int, np.ndarray]] = []
    for s, u_s in enumerate(starts):
        r = minimize(
            neg,
            u_s,
            method="BFGS",
            jac=True,
            options=dict(maxiter=MAX_ITERS, gtol=_BFGS_GTOL),
        )
        obj = -float(r.fun) if float(r.fun) < _BIG else -np.inf
        grad_norm = float(np.linalg.norm(r.jac)) if np.isfinite(obj) else np.inf
        converged = grad_norm <= _CONV_RTOL * max(1.0, abs(obj))
        results.append((obj, grad_norm, converged, int(r.nit), r.x))
        log.debug(
            "start %d: objective %.8g, gradient norm %.3g (%s)",
            s, obj, grad_norm, r.message,
        )

    winner = 0
    for s in range(1, len(results)):
        if results[s][0] > results[winner][0]:
            winner = s
    best_obj, grad_norm, best_conv, best_iters, best_u = results[winner]
    if not np.isfinite(best_obj):
        raise EstimationError(
            "objective is not finite at any start "
            f"(tried {len(results)} starts)"
        )
    report = FitReport(
        objective=float(best_obj),
        grad_norm=grad_norm,
        iterations=int(best_iters),
        start_winner=int(winner),
        converged=bool(best_conv),
        per_start=tuple(
            StartOutcome(objective=float(o), converged=bool(c))
            for o, _, c, _, _ in results
        ),
    )
    return transform.forward(best_u), report
