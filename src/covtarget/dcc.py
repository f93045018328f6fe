"""Two-stage DCC(1,1) correlation model.

Stage one fits a univariate GARCH(1,1) per series and standardizes the
residuals; stage two drives the quasi-correlation recursion

    Q_t = (1 - t1 - t2) Q_bar + t1 z_{t-1} z_{t-1}' + t2 Q_{t-1}

and rescales R_t = diag(Q_t)^{-1/2} Q_t diag(Q_t)^{-1/2}, which has a unit
diagonal by construction. Each Q entry is again a scalar one-pole filter,
all with the pole theta2, so the stack runs through one lfilter along time.

The stage-two score chains G_t = dl/dR_t (linalg.gaussian_path_loglik)
through the rescaling, with d_i = sqrt(q_ii):

    dl/dq_ij = G_ij / (d_i d_j)  (i != j),
    dl/dq_kk = -sum_{j != k} G_kj R_kj / q_kk,

then through the adjoint of the Q filter, which shares theta2 across all
entries and so runs as one backward lfilter along time:

    Lambda_t = dl/dQ_t + theta2 Lambda_{t+1},    Lambda_T = 0,
    dl/dtheta1 = sum_t <Lambda_t, Z_{t-1} - Q_bar>,
    dl/dtheta2 = sum_t <Lambda_t, Q_{t-1} - Q_bar>,

with Z_{t-1} = z_{t-1} z_{t-1}' and sums over t >= 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ReturnPanel, correlation_from_series, synth_dates
from .errors import (
    CovTargetError,
    DataError,
    EstimationError,
    NumericalOverflowError,
    ShapeError,
)
from .garch import (
    Garch11Params,
    _one_pole,
    _one_pole_adjoint,
    garch11_filter,
    garch11_fit,
)
from .linalg import gaussian_path_loglik, symmetrize
from .optimize import (
    FitReport,
    OptimizerOptions,
    maximize,
    simplex_map,
    simplex_unmap,
    simplex_vjp,
)
from .targeting import TargetSpec

_PSD_TOL = 1e-10


@dataclass(frozen=True)
class DccParams:
    """DCC parameters: per-series GARCH(1,1), correlation dynamics
    (theta1, theta2) with theta1 + theta2 < 1, and the intercept matrix
    q_bar (symmetric PSD with unit diagonal)."""

    univariate: tuple[Garch11Params, ...]
    theta1: float
    theta2: float
    q_bar: np.ndarray

    def __post_init__(self):
        if len(self.univariate) == 0:
            raise DataError("univariate parameter list is empty")
        if not (np.isfinite(self.theta1) and np.isfinite(self.theta2)):
            raise DataError("non-finite theta parameters")
        if self.theta1 < 0.0 or self.theta2 < 0.0:
            raise DataError(
                f"theta1 and theta2 must be nonnegative, got "
                f"{self.theta1}, {self.theta2}"
            )
        if not self.theta1 + self.theta2 < 1.0:
            raise DataError(
                f"theta1 + theta2 must be < 1, got {self.theta1 + self.theta2}"
            )
        q = symmetrize(self.q_bar)
        n = len(self.univariate)
        if q.shape != (n, n):
            raise ShapeError(
                f"q_bar must be ({n}, {n}) to match {n} univariate fits, "
                f"got {q.shape}"
            )
        if np.abs(np.diag(q) - 1.0).max() > 1e-12:
            raise DataError("q_bar must have a unit diagonal")
        w = np.linalg.eigvalsh(q)
        if float(w.min()) < -_PSD_TOL:
            raise DataError(
                f"q_bar is not positive semidefinite (min eigenvalue {w.min():.3e})"
            )
        q.setflags(write=False)
        object.__setattr__(self, "q_bar", q)
        object.__setattr__(self, "univariate", tuple(self.univariate))

    @property
    def n(self) -> int:
        return len(self.univariate)


@dataclass(frozen=True)
class CorrPath:
    """Conditional correlation path r (T, N, N) and the underlying
    quasi-correlations q; every r slice has a unit diagonal. Read-only."""

    r: np.ndarray
    q: np.ndarray

    @property
    def t_len(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class Stage1Result:
    """Per-series GARCH fits, standardized residuals, and their sample
    correlation (the stage-two intercept matrix)."""

    params: tuple[Garch11Params, ...]
    std_resid: np.ndarray  # (T, N)
    q_bar: np.ndarray


def _stage1_paths(
    eps: np.ndarray, univariate: tuple[Garch11Params, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series variance paths h and standardized residuals z of demeaned
    returns eps, both (T, N), each filter started at the series' sample
    variance."""
    if eps.shape[1] != len(univariate):
        raise ShapeError(
            f"panel has {eps.shape[1]} series but params expect {len(univariate)}"
        )
    h = np.empty_like(eps)
    z = np.empty_like(eps)
    for j, p in enumerate(univariate):
        path = garch11_filter(eps[:, j], p, h1=float(eps[:, j].var(ddof=1)))
        h[:, j] = path.h
        z[:, j] = path.z
    return h, z


def dcc_stage1(panel: ReturnPanel, opts: OptimizerOptions | None = None) -> Stage1Result:
    """Fit GARCH(1,1) to each demeaned series and standardize residuals."""
    eps = panel.demeaned()
    fits: list[Garch11Params] = []
    for j, label in enumerate(panel.labels):
        try:
            fits.append(garch11_fit(eps[:, j], opts=opts)[0])
        except CovTargetError as exc:
            raise EstimationError(
                f"stage-one GARCH fit failed for {label}: {exc}"
            ) from exc
    _, z = _stage1_paths(eps, tuple(fits))
    return Stage1Result(
        params=tuple(fits), std_resid=z, q_bar=correlation_from_series(z)
    )


def dcc_filter(z: np.ndarray, params: DccParams) -> CorrPath:
    """Run the quasi-correlation recursion over standardized residuals z,
    starting from Q_1 = q_bar, and rescale to correlations."""
    z = np.asarray(z, dtype=float)
    n = params.n
    if z.ndim != 2 or z.shape[1] != n:
        raise ShapeError(f"z must be (T, {n}), got {z.shape}")
    if z.shape[0] < 1:
        raise DataError("z has no rows")
    if not np.all(np.isfinite(z)):
        raise DataError("z contains non-finite values")
    t_len = z.shape[0]
    t1, t2 = params.theta1, params.theta2
    q = np.empty((t_len, n, n))
    q[0] = params.q_bar
    if t_len > 1:
        intercept = (1.0 - t1 - t2) * params.q_bar
        outer = z[:-1, :, None] * z[:-1, None, :]
        q[1:] = _one_pole(intercept + t1 * outer, t2, params.q_bar)
    if not np.all(np.isfinite(q)):
        t = int(np.argwhere(~np.isfinite(q))[0][0])
        raise NumericalOverflowError(
            f"quasi-correlation recursion overflowed at t={t}", t=t
        )
    d = np.sqrt(np.diagonal(q, axis1=1, axis2=2))
    if np.any(~(d > 0.0)):
        t = int(np.argwhere(~(d > 0.0))[0][0])
        raise NumericalOverflowError(
            f"quasi-correlation lost a positive diagonal at t={t}", t=t
        )
    r = q / (d[:, :, None] * d[:, None, :])
    ii = np.arange(n)
    r[:, ii, ii] = 1.0  # exact unit diagonal, not just up to rounding
    return CorrPath(r=r, q=q)


def _dcc_objective(z, params, target, grad):
    z = np.asarray(z, dtype=float)
    path = dcc_filter(z, params)
    p = None if target is None else target.z_hat_pd
    if not grad:
        return gaussian_path_loglik(path.r, z, p)
    value, g = gaussian_path_loglik(path.r, z, p, grad=True)
    q, q_bar = path.q, params.q_bar
    qd = np.diagonal(q, axis1=1, axis2=2)
    ii = np.arange(params.n)
    gq = g / np.sqrt(qd[:, :, None] * qd[:, None, :])
    gr = g * path.r
    gr[:, ii, ii] = 0.0
    gq[:, ii, ii] = -gr.sum(axis=2) / qd
    lam = _one_pole_adjoint(gq[1:], params.theta2)
    zz = z[:-1, :, None] * z[:-1, None, :]
    return value, np.array([
        float((lam * (zz - q_bar)).sum()),
        float((lam * (q[:-1] - q_bar)).sum()),
    ])


def dcc_stage2_loglik(z: np.ndarray, params: DccParams, grad: bool = False):
    """Correlation-stage quasi-likelihood
    -(1/2) sum_t (log|R_t| + z_t' R_t^{-1} z_t).

    With ``grad`` returns (value, gradient in (theta1, theta2)).
    """
    return _dcc_objective(z, params, None, grad)


def dcc_modified_loglik(
    z: np.ndarray, params: DccParams, target: TargetSpec, grad: bool = False
):
    """Stage-two quasi-likelihood minus the targeting penalty
    sum_t KL(z_hat_pd, R_t); the correlation-scale target is used because
    R_t is a correlation matrix. ``grad`` as in dcc_stage2_loglik."""
    return _dcc_objective(z, params, target, grad)


class _ThetaTransform:
    """(u1, u2) -> (theta1, theta2) strictly inside the open simplex."""

    def forward(self, u: np.ndarray) -> np.ndarray:
        return simplex_map(np.asarray(u, dtype=float))

    def vjp(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        return simplex_vjp(self.forward(u), g)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return simplex_unmap(np.asarray(x, dtype=float))


def dcc_fit(
    panel: ReturnPanel,
    target: TargetSpec | None = None,
    opts: OptimizerOptions | None = None,
    stage1: Stage1Result | None = None,
) -> tuple[DccParams, FitReport]:
    """Two-stage DCC fit.

    Stage one is fit per series (or supplied via ``stage1`` to reuse across
    penalized/unpenalized variants); stage two maximizes the correlation
    quasi-likelihood, penalized by the correlation-target KL when ``target``
    is given. The returned FitReport describes stage two.
    """
    if stage1 is None:
        stage1 = dcc_stage1(panel, opts=opts)
    z = stage1.std_resid

    def params_at(x: np.ndarray) -> DccParams:
        return DccParams(
            univariate=stage1.params,
            theta1=float(x[0]),
            theta2=float(x[1]),
            q_bar=stage1.q_bar,
        )

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = params_at(x)
        if target is None:
            return dcc_stage2_loglik(z, p, grad=True)
        return dcc_modified_loglik(z, p, target, grad=True)

    x, report = maximize(objective, _ThetaTransform(), np.array([0.05, 0.90]), opts)
    return params_at(x), report


def dcc_std_residuals(panel: ReturnPanel, params: DccParams) -> np.ndarray:
    """Recompute standardized residuals for a panel under fitted stage-one
    parameters (h_1 = per-series sample variance)."""
    return _stage1_paths(panel.demeaned(), params.univariate)[1]


def dcc_cov_path(panel: ReturnPanel, params: DccParams) -> np.ndarray:
    """In-sample conditional covariance path H_t = D_t R_t D_t with
    D_t = diag(sqrt(h_it)) from the fitted stage-one filters."""
    h, z = _stage1_paths(panel.demeaned(), params.univariate)
    d = np.sqrt(h)
    return dcc_filter(z, params).r * (d[:, :, None] * d[:, None, :])


def dcc_simulate(
    params: DccParams,
    mu: np.ndarray,
    t_len: int,
    seed: int,
    labels: tuple[str, ...] | None = None,
) -> ReturnPanel:
    """Simulate r_t = mu + D_t R_t^{1/2}-correlated Gaussian shocks, starting
    from the per-series unconditional variances and Q_1 = q_bar."""
    n = params.n
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ShapeError(f"mu must have shape ({n},), got {mu.shape}")
    if t_len < 2:
        raise DataError(f"t_len must be >= 2, got {t_len}")
    h_t = np.array([p.unconditional_var() for p in params.univariate])
    q_t = params.q_bar.copy()
    if labels is None:
        labels = tuple(f"S{i + 1}" for i in range(n))
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal((t_len, n))
    omega = np.array([p.omega for p in params.univariate])
    alpha = np.array([p.alpha for p in params.univariate])
    beta = np.array([p.beta for p in params.univariate])
    t1, t2 = params.theta1, params.theta2
    intercept = (1.0 - t1 - t2) * params.q_bar
    eps = np.empty((t_len, n))
    for t in range(t_len):
        d = np.sqrt(np.diag(q_t))
        r_t = q_t / np.outer(d, d)
        np.fill_diagonal(r_t, 1.0)
        try:
            low = np.linalg.cholesky(r_t)
        except np.linalg.LinAlgError:
            raise NumericalOverflowError(
                f"simulated correlation lost positive definiteness at t={t}", t=t
            ) from None
        z_t = low @ eta[t]
        eps[t] = np.sqrt(h_t) * z_t
        h_t = omega + alpha * eps[t] ** 2 + beta * h_t
        q_t = intercept + t1 * np.outer(z_t, z_t) + t2 * q_t
    if not np.all(np.isfinite(eps)):
        t = int(np.argwhere(~np.isfinite(eps))[0][0])
        raise NumericalOverflowError(f"simulation overflowed at t={t}", t=t)
    return ReturnPanel(labels=labels, returns=eps + mu, dates=synth_dates(t_len))
