"""Univariate GARCH(1,1): filtering, Gaussian likelihood, and fitting.

The variance recursion h_t = omega + alpha * eps_{t-1}^2 + beta * h_{t-1}
is a one-pole linear filter in h. A series steps through _one_pole on
Python floats, rounding exactly as the naive loop does. The matrix
recursions of BEKK and DCC run the same filter on every lower-triangle
entry at once through _scan, an in-place scan of log depth whose rounding
differs from the loop's within a bound the tests state.

The score comes from the adjoint of that filter, which is the same filter
run backwards in time (Fiorentini, Calzolari & Panattoni 1996): with
g_t = dl/dh_t = (eps_t^2 / h_t - 1) / (2 h_t) and

    lambda_t = g_t + beta * lambda_{t+1},    lambda_T = 0,

the gradient is sum_{t>=1} lambda_t * (1, eps_{t-1}^2, h_{t-1}) in
(omega, alpha, beta).

Fits target the variance (Engle & Mezrich 1996), as DCC stage two targets
Q_bar: omega = s2 (1 - alpha - beta) with s2 the sample variance, which is
also the filter's h_1, so the search runs over (alpha, beta) on the open
simplex and the omega score folds in as g_alpha - s2 g_omega and
g_beta - s2 g_omega.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateSeriesError,
    InsufficientDataError,
    NumericalOverflowError,
)
from .optimize import FitReport, OptimizerOptions, _SimplexTransform, _unchecked, maximize

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


def _one_pole(x: np.ndarray, coef: float, init: float) -> np.ndarray:
    """y_t = x_t + coef * y_{t-1} over the series x, from y_{-1} = init,
    stepped on Python floats in time order: bit for bit the naive loop."""
    c, p = float(coef), float(init)
    return np.array([p := v + c * p for v in x.tolist()], dtype=float)


def _scan(y: np.ndarray, coef, tmp: np.ndarray) -> None:
    """y_t += coef * y_{t-1} in place along axis 0 of the (T, width) array
    y, whose row 0 already holds its start; coef is a scalar or one pole per
    column, and ``tmp`` is scratch of at least T // 2 rows of y's width.

    An odd-even scan (Kogge & Stone 1973; Blelloch 1990): the up-sweep adds
    each even row, times the pole, into the odd row after it, leaving at
    level k blocks of 2^k steps with pole coef^(2^k); the down-sweep,
    coarsest level first, completes each even row from the prefix before
    it. About 4 log2(T) numpy calls at any width; it rounds differently
    from the step-by-step loop, within a bound the tests state."""
    levels, v, c = [], y, coef
    while len(v) > 1:
        odd = v[1::2]
        odd += np.multiply(c, v[:-1:2], out=tmp[: len(odd)])
        levels.append((v, c))
        v, c = odd, c * c
    for v, c in reversed(levels):
        even = v[2::2]
        even += np.multiply(c, v[1:-1:2], out=tmp[: len(even)])


def garch11_filter(eps: np.ndarray, params: Garch11Params, h1: float) -> np.ndarray:
    """The variance path h of demeaned returns eps, run from h_1 = h1."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise DataError(f"eps must be a nonempty 1-D array, got shape {eps.shape}")
    if not np.all(np.isfinite(eps)):
        raise DataError("eps contains non-finite values")
    if not (np.isfinite(h1) and h1 > 0.0):
        raise DataError(f"h1 must be a positive float, got {h1}")
    x = params.omega + params.alpha * eps[:-1] ** 2
    h = np.empty_like(eps)
    h[0] = h1
    h[1:] = _one_pole(x, params.beta, h1)
    if not np.all(np.isfinite(h)):
        t = int(np.flatnonzero(~np.isfinite(h))[0])
        raise NumericalOverflowError(
            f"variance recursion overflowed at t={t}", t=t
        )
    return h


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
    h = garch11_filter(eps, params, h1)
    e2 = eps**2
    value = -0.5 * float((_LOG_2PI + np.log(h) + e2 / h).sum())
    if not grad:
        return value
    g = 0.5 * (e2[1:] / h[1:] - 1.0) / h[1:]
    lam = _one_pole(g[::-1], params.beta, 0.0)[::-1]  # the adjoint, run backwards
    return value, np.array([lam.sum(), lam @ e2[:-1], lam @ h[:-1]])


def garch11_fit(
    eps: np.ndarray,
    opts: OptimizerOptions | None = None,
) -> tuple[Garch11Params, FitReport]:
    """Fit a variance-targeted GARCH(1,1) by Gaussian quasi-likelihood on
    demeaned returns.

    omega is fixed at s2 (1 - alpha - beta), where s2 is the sample
    variance, so the unconditional variance is s2 at every point; (alpha,
    beta) are searched on the open simplex from (0.05, 0.90). The filter
    starts at h_1 = s2.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise DataError("eps contains non-finite values")
    if eps.ndim != 1:
        raise DataError(f"eps must be 1-D, got shape {eps.shape}")
    if eps.size < MIN_OBS:
        raise InsufficientDataError(
            f"need at least {MIN_OBS} observations, got {eps.size}"
        )
    var = float(eps.var(ddof=1))
    if var == 0.0:
        raise DegenerateSeriesError("series has zero variance")

    def fields(x: np.ndarray) -> dict:
        alpha, beta = float(x[0]), float(x[1])
        return dict(omega=var * (1.0 - alpha - beta), alpha=alpha, beta=beta)

    x0 = np.array([0.05, 0.90])
    start = Garch11Params(**fields(x0))  # checked once

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, g = garch11_loglik(eps, _unchecked(start, **fields(x)), h1=var, grad=True)
        return value, g[1:] - var * g[0]

    x, report = maximize(objective, _SimplexTransform(), x0, opts)
    return Garch11Params(**fields(x)), report

