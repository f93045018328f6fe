"""Univariate GARCH(1,1): filtering, Gaussian likelihood, and fitting.

The variance recursion h_t = omega + alpha * eps_{t-1}^2 + beta * h_{t-1}
is a one-pole linear filter in h, so the whole path is computed with
scipy.signal.lfilter; this matches the naive loop bit for bit.

The score comes from the adjoint of that filter, which is the same filter
run backwards in time (Fiorentini, Calzolari & Panattoni 1996): with
g_t = dl/dh_t = (eps_t^2 / h_t - 1) / (2 h_t) and

    lambda_t = g_t + beta * lambda_{t+1},    lambda_T = 0,

the gradient is sum_{t>=1} lambda_t * (1, eps_{t-1}^2, h_{t-1}) in
(omega, alpha, beta).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import (
    DataError,
    DegenerateSeriesError,
    InsufficientDataError,
    NumericalOverflowError,
)
from .optimize import (
    FitReport,
    OptimizerOptions,
    maximize,
    simplex_map,
    simplex_unmap,
    simplex_vjp,
)

_LOG_2PI = float(np.log(2.0 * np.pi))

MIN_OBS = 50


@dataclass(frozen=True)
class Garch11Params:
    """GARCH(1,1) parameters with omega > 0, alpha, beta >= 0,
    alpha + beta < 1 (covariance stationarity)."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        vals = (self.omega, self.alpha, self.beta)
        if not all(np.isfinite(v) for v in vals):
            raise DataError(f"non-finite GARCH parameters {vals}")
        if not self.omega > 0.0:
            raise DataError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DataError(
                f"alpha and beta must be nonnegative, got {self.alpha}, {self.beta}"
            )
        if not self.alpha + self.beta < 1.0:
            raise DataError(
                f"alpha + beta must be < 1, got {self.alpha + self.beta}"
            )

    def unconditional_var(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


@dataclass(frozen=True)
class VariancePath:
    """Conditional variance path and the standardized residuals z = eps/sqrt(h)."""

    h: np.ndarray
    z: np.ndarray


def _one_pole(x: np.ndarray, coef: float, init) -> np.ndarray:
    """y_t = x_t + coef * y_{t-1} along axis 0, y_0 seeded so the first
    output is x_0 + coef * init (init has the shape of one x_t)."""
    zi = coef * np.asarray(init, dtype=float)[None]
    y, _ = lfilter([1.0], [1.0, -coef], x, axis=0, zi=zi)
    return y


def _one_pole_adjoint(g: np.ndarray, coef: float) -> np.ndarray:
    """Adjoint of _one_pole along axis 0: given dL/dy returns dL/dx, the
    same filter run backwards, lambda_t = g_t + coef * lambda_{t+1}."""
    return lfilter([1.0], [1.0, -coef], g[::-1], axis=0)[::-1]


def garch11_filter(eps: np.ndarray, params: Garch11Params, h1: float) -> VariancePath:
    """Run the variance recursion from h_1 = h1 over demeaned returns eps."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise DataError(f"eps must be a nonempty 1-D array, got shape {eps.shape}")
    if not np.all(np.isfinite(eps)):
        raise DataError("eps contains non-finite values")
    if not (np.isfinite(h1) and h1 > 0.0):
        raise DataError(f"h1 must be a positive float, got {h1}")
    if eps.size == 1:
        h = np.array([float(h1)])
    else:
        x = params.omega + params.alpha * eps[:-1] ** 2
        h = np.empty_like(eps)
        h[0] = h1
        h[1:] = _one_pole(x, params.beta, float(h1))
    if not np.all(np.isfinite(h)):
        t = int(np.flatnonzero(~np.isfinite(h))[0])
        raise NumericalOverflowError(
            f"variance recursion overflowed at t={t}", t=t
        )
    return VariancePath(h=h, z=eps / np.sqrt(h))


def garch11_loglik(
    eps: np.ndarray,
    params: Garch11Params,
    h1: float | None = None,
    grad: bool = False,
):
    """Gaussian log-likelihood of eps under the filtered variance path.

    With ``grad`` returns (value, gradient in (omega, alpha, beta)).
    """
    eps = np.asarray(eps, dtype=float)
    if h1 is None:
        h1 = float(eps.var(ddof=1))
    h = garch11_filter(eps, params, h1).h
    e2 = eps**2
    value = -0.5 * float((_LOG_2PI + np.log(h) + e2 / h).sum())
    if not grad:
        return value
    lam = _one_pole_adjoint(0.5 * (e2[1:] / h[1:] - 1.0) / h[1:], params.beta)
    return value, np.array([lam.sum(), lam @ e2[:-1], lam @ h[:-1]])


class _GarchTransform:
    """(u_omega, u_a, u_b) -> (omega, alpha, beta) = (exp(u_omega),
    simplex_map(u_a, u_b)); keeps omega > 0 and alpha + beta < 1 strictly."""

    def forward(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        ab = simplex_map(u[1:3])
        return np.array([np.exp(u[0]), ab[0], ab[1]])

    def vjp(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.concatenate(
            ([g[0] * np.exp(u[0])], simplex_vjp(simplex_map(u[1:3]), g[1:3]))
        )

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x[0] <= 0.0:
            raise DataError(f"omega must be positive, got {x[0]}")
        return np.concatenate(([np.log(x[0])], simplex_unmap(x[1:3])))


def garch11_fit(
    eps: np.ndarray,
    opts: OptimizerOptions | None = None,
) -> tuple[Garch11Params, FitReport]:
    """Fit GARCH(1,1) by Gaussian quasi-likelihood on demeaned returns.

    The filter starts at h_1 = the sample variance. The start is
    moment-matched: (alpha, beta) = (0.05, 0.90) and omega targeting the
    sample variance.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise DataError(f"eps must be 1-D, got shape {eps.shape}")
    if eps.size < MIN_OBS:
        raise InsufficientDataError(
            f"need at least {MIN_OBS} observations, got {eps.size}"
        )
    var = float(eps.var(ddof=1))
    if var == 0.0:
        raise DegenerateSeriesError("series has zero variance")

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = Garch11Params(omega=float(x[0]), alpha=float(x[1]), beta=float(x[2]))
        return garch11_loglik(eps, p, h1=var, grad=True)

    a0, b0 = 0.05, 0.90
    x0 = np.array([var * (1.0 - a0 - b0), a0, b0])
    x, report = maximize(objective, _GarchTransform(), x0, opts)
    params = Garch11Params(omega=float(x[0]), alpha=float(x[1]), beta=float(x[2]))
    return params, report


def garch11_simulate(
    params: Garch11Params, t_len: int, seed: int, h1: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate (eps, h) of length t_len with Gaussian shocks; h_1 defaults
    to the unconditional variance."""
    if t_len < 1:
        raise DataError(f"t_len must be >= 1, got {t_len}")
    if h1 is None:
        h1 = params.unconditional_var()
    if not h1 > 0.0:
        raise DataError(f"h1 must be positive, got {h1}")
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(t_len)
    h = np.empty(t_len)
    eps = np.empty(t_len)
    h_t = float(h1)
    for t in range(t_len):
        h[t] = h_t
        eps[t] = np.sqrt(h_t) * eta[t]
        h_t = params.omega + params.alpha * eps[t] ** 2 + params.beta * h_t
    return eps, h
