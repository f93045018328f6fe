"""Two-stage DCC(1,1) correlation model.

Stage one fits a univariate GARCH(1,1) per series and standardizes the
residuals; stage two drives the quasi-correlation recursion

    Q_t = (1 - t1 - t2) Q_bar + t1 z_{t-1} z_{t-1}' + t2 Q_{t-1}

and rescales R_t = diag(Q_t)^{-1/2} Q_t diag(Q_t)^{-1/2}, which has a unit
diagonal by construction. From Q_1 = Q_bar the recursion is
Q_t = Q_bar + t1 A_t, with A_t = dQ_t/dt1 the one-pole filter

    A_t = Z_{t-1} - Q_bar + t2 A_{t-1},    A_1 = 0,    Z_t = z_t z_t',

and dQ_t/dt2 = t1 C_t with C_t = A_{t-1} + t2 C_{t-1}, C_1 = 0. Stage two
has two parameters, so its score runs forward with the filter instead of
through an adjoint pass over a stored path: both tangents scan
(garch._scan) the N(N+1)/2 lower-triangle entries, in row blocks whose
buffers a fit holds across its evaluations, each scan carrying its last row
into the next block. With G_t = dl/dR_t (linalg's Gaussian path kernel) and
d_i = sqrt(q_ii), each block adds

    dl/dtheta_k = sum_{i>=j} w_ij G_ij dQ_ij / (d_i d_j)
                  - sum_i (dQ_ii / q_ii) sum_j G_ij R_ij,

with w_ij = 1 on the diagonal and 2 off it: every matrix here is
symmetric, so an off-diagonal entry stands for itself and its mirror.
dcc_filter runs the same blocks.

The simulator never forms R_t either: the lower Cholesky factor of R_t is
diag(Q_t)^{-1/2} chol(Q_t) (Engle 2002), so each step factors Q_t, and the
per-series GARCH variances, which z_t drives without feedback, follow over
each block of rows right after that block's Q steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import ReturnPanel, _readonly, _sim_panel, correlation_from_series
from .errors import (
    CovTargetError,
    DataError,
    EstimationError,
    InsufficientDataError,
    NumericalOverflowError,
    ShapeError,
)
from .garch import MIN_OBS, Garch11Params, _scan, garch11_filter, garch11_fit
from .linalg import (
    _check_independent,
    _checked_pd,
    _checked_rows,
    _factor_into,
    _path_loglik,
    _PathBuffers,
    _tril,
)
from .optimize import FitReport, OptimizerOptions, _SimplexTransform, _unchecked, maximize
from .targeting import TargetSpec


@dataclass(frozen=True)
class DccParams:
    """DCC parameters: per-series GARCH(1,1), correlation dynamics
    (theta1, theta2) with theta1 + theta2 < 1, and the intercept matrix
    q_bar (symmetric positive definite with unit diagonal)."""

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
        q, _ = _checked_pd(self.q_bar, len(self.univariate), "q_bar")
        if np.abs(np.diag(q) - 1.0).max() > 1e-12:
            raise DataError("q_bar must have a unit diagonal")
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

    def __post_init__(self):
        object.__setattr__(self, "r", _readonly(self.r))
        object.__setattr__(self, "q", _readonly(self.q))


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
    """Per-series variance paths h of demeaned returns eps, each filter
    started at the series' sample variance, and the standardized residuals
    z = eps / sqrt(h), both (T, N)."""
    if eps.shape[1] != len(univariate):
        raise ShapeError(
            f"panel has {eps.shape[1]} series but params expect {len(univariate)}"
        )
    h = np.empty_like(eps)
    for j, p in enumerate(univariate):
        h[:, j] = garch11_filter(eps[:, j], p, h1=float(eps[:, j].var(ddof=1)))
    return h, eps / np.sqrt(h)


def dcc_stage1(panel: ReturnPanel, opts: OptimizerOptions | None = None) -> Stage1Result:
    """Fit GARCH(1,1) to each demeaned series and standardize residuals. A panel
    of fewer than MIN_OBS rows, or a singular Q_bar (their correlation), is a DataError."""
    if panel.t_len < MIN_OBS:
        raise InsufficientDataError(f"DCC needs at least {MIN_OBS} observations, got {panel.t_len}")
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
    q_bar = correlation_from_series(z)
    _check_independent(q_bar, "q_bar", panel.labels)
    return Stage1Result(params=tuple(fits), std_resid=z, q_bar=q_bar)


# Bytes of row-block buffers one stage-two residual set holds, about
# 8 (6 N^2 + 3 N (N + 1) / 2) a row: a 15 x 500 panel is one block, N = 100
# 27 rows.
_STAGE2_BLOCK = 2**24


class _Residuals:
    """Standardized residuals z (T, N), checked once, with the row-block
    buffers that the stage-two recursion and score write. dcc_fit builds one
    and passes it as z to every evaluation, so no evaluation allocates
    anything of size T; a plain array gets one per call."""

    def __init__(self, z: np.ndarray, n: int):
        self.z, self.tril = _checked_rows(z, n, "z"), _tril(n)
        m = len(self.tril[0])
        self.flat = self.tril[0] * n + self.tril[1]  # packed entry -> index in a raveled N x N
        self.diag = np.flatnonzero(self.tril[0] == self.tril[1])  # packed entries (i, i)
        self.rows = min(len(self.z), max(1, _STAGE2_BLOCK // (8 * (6 * n * n + 3 * m))))
        # packed (rows, m): tangents A and C, and Q (scratch of the scans
        # before it, the score's weights after it)
        self.a, self.c, self.q = np.empty((3, self.rows, m))
        self.carry = np.empty((2, m))  # A and C at the row before a block
        self.qd, self.dinv, self.s, self.s2 = np.empty((4, self.rows, n))
        self.r = np.zeros((self.rows, n, n))  # R_t's lower triangles; never written above

    @cached_property
    def work(self) -> _PathBuffers:
        """The path kernel's buffers, built on first use: dcc_filter reads none."""
        return _PathBuffers(self.rows, self.z.shape[1])

    def blocks(self, params: DccParams, tangents: bool):
        """For each block of rows t0 <= t < t0 + k, in time order, fill the
        first k rows of q (packed Q_t), r (R_t's lower triangles), qd (the
        q_ii), dinv (1 / sqrt(q_ii)) and, with ``tangents``, a and c, then
        yield (t0, k).

        Q_t = q_bar + theta1 A_t and dQ_t/dtheta2 = theta1 C_t, with A and C
        the module docstring's scans, both 0 at row 0. Each scan carries its
        last row from block to block; errors name the absolute t."""
        z, (ri, ci) = self.z, self.tril
        t1, t2 = params.theta1, params.theta2
        q_bar = params.q_bar[ri, ci]
        a_prev, c_prev = self.carry
        self.carry.fill(0.0)
        for t0 in range(0, len(z), self.rows):
            k = min(self.rows, len(z) - t0)
            a, c, q, r = (b[:k] for b in (self.a, self.c, self.q, self.r))
            lag = z[max(t0 - 1, 0) : t0 + k - 1]  # z_{t-1}; row 0 has none
            j = k - len(lag)
            # every take's indices are in range: mode="clip" only skips the
            # bounds check, about a quarter of a take's time
            np.multiply(np.take(lag, ri, axis=1, out=a[j:], mode="clip"),
                        np.take(lag, ci, axis=1, out=c[j:], mode="clip"), out=a[j:])
            a[j:] -= q_bar
            a[:j] = 0.0
            a[0] += t2 * a_prev
            _scan(a, t2, q)
            if tangents:
                c[1:] = a[:-1]
                np.multiply(c_prev, t2, out=c[0])
                c[0] += a_prev
                _scan(c, t2, q)
                c_prev[:] = c[-1]
            a_prev[:] = a[-1]
            np.multiply(a, t1, out=q)
            q += q_bar
            if not math.isfinite(q.sum()):
                bad = np.flatnonzero(~np.isfinite(q).all(axis=1))
                if bad.size:
                    t = t0 + int(bad[0])
                    raise NumericalOverflowError(
                        f"quasi-correlation recursion overflowed at t={t}", t=t)
            qd = np.take(q, self.diag, axis=1, out=self.qd[:k], mode="clip")
            if not qd.min() > 0.0:
                t = t0 + int(np.flatnonzero(~(qd > 0.0).all(axis=1))[0])
                raise NumericalOverflowError(
                    f"quasi-correlation lost a positive diagonal at t={t}", t=t)
            dinv = np.divide(1.0, np.sqrt(qd, out=self.dinv[:k]), out=self.dinv[:k])
            r.reshape(k, -1)[:, self.flat] = q
            r *= dinv[:, :, None]
            r *= dinv[:, None, :]
            np.einsum("tii->ti", r)[:] = 1.0  # exact unit diagonal, not just up to rounding
            yield t0, k


def dcc_filter(z: np.ndarray, params: DccParams) -> CorrPath:
    """Run the quasi-correlation recursion over standardized residuals z,
    starting from Q_1 = q_bar, and rescale to correlations."""
    res = _Residuals(z, params.n)
    (t_len, n), (ri, ci) = res.z.shape, res.tril
    q, r = np.empty((t_len, n, n)), np.empty((t_len, n, n))
    upper = np.triu(np.ones((n, n), bool), 1)
    for t0, k in res.blocks(params, tangents=False):
        q[t0 : t0 + k, ri, ci] = q[t0 : t0 + k, ci, ri] = res.q[:k]
        # R's block buffer holds its lower triangle: copy it, then mirror it
        # above the diagonal, copies only, so a -0.0 keeps its sign
        r[t0 : t0 + k] = res.r[:k]
        np.copyto(r[t0 : t0 + k], res.r[:k].transpose(0, 2, 1), where=upper)
    for a in (r, q):
        a.setflags(write=False)  # so CorrPath keeps them without a copy
    return CorrPath(r=r, q=q)


def _dcc_objective(z, params, target, grad):
    res = z if isinstance(z, _Residuals) else _Residuals(z, params.n)
    p = None if target is None else (target.z_hat_pd, target.z_logdet)
    value = g1 = g2 = 0.0
    for t0, k in res.blocks(params, tangents=grad):
        r = res.r[:k]
        out = _path_loglik(r, res.z[t0 : t0 + k], p, grad, res.work, t0)
        if not grad:
            value += out
            continue
        value, g = value + out[0], out[1]
        # dl/dtheta = sum_{i>=j} w_ij G_ij dQ_ij / (d_i d_j)
        #             - sum_i (dQ_ii / q_ii) sum_j G_ij R_ij,
        # w_ij = 2 off the diagonal: v, over Q, weighs the packed tangents. R is zero
        # above the diagonal, so sum_{j != i} G_ij R_ij is the sum of row i
        # and column i of G o R less 2 G_ii.
        s = np.einsum("tij,tij->ti", g, r, out=res.s[:k])
        s += np.einsum("tij,tij->tj", g, r, out=res.s2[:k])
        g_ii = np.diagonal(g, axis1=1, axis2=2)
        s -= g_ii
        s -= g_ii
        s /= res.qd[:k]
        dinv = res.dinv[:k]
        g *= dinv[:, :, None]
        g *= dinv[:, None, :]
        v = np.take(g.reshape(k, -1), res.flat, axis=1, out=res.q[:k], mode="clip")
        v *= 2.0
        v[:, res.diag] = np.negative(s, out=s)
        g1 += np.vdot(v, res.a[:k])
        g2 += np.vdot(v, res.c[:k])
    if not grad:
        return value
    return value, np.array([g1, params.theta1 * g2])


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
    n = panel.n
    if target is not None and target.z_hat_pd.shape != (n, n):
        raise ShapeError(f"target must be ({n}, {n}), got {target.z_hat_pd.shape}")
    if stage1 is None:
        stage1 = dcc_stage1(panel, opts=opts)
    elif stage1.std_resid.shape != (panel.t_len, n):
        raise ShapeError(f"stage1 residuals are {stage1.std_resid.shape}, "
                         f"but the panel is {(panel.t_len, n)}")
    z = _Residuals(stage1.std_resid, n)  # checked once, buffers held for the fit
    start = DccParams(stage1.params, 0.05, 0.90, stage1.q_bar)  # checked once

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = _unchecked(start, theta1=float(x[0]), theta2=float(x[1]))
        if target is None:
            return dcc_stage2_loglik(z, p, grad=True)
        return dcc_modified_loglik(z, p, target, grad=True)

    x, report = maximize(objective, _SimplexTransform(), np.array([0.05, 0.90]), opts)
    return replace(start, theta1=float(x[0]), theta2=float(x[1])), report


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


def _dcc_steps(params: DccParams):
    """dcc_simulate's step loop: a function ``steps(eta, t0)`` that turns a
    block of shocks eta_t into e_t = D_t z_t in place, t counted from
    ``t0``, and carries Q_t and the GARCH variances h_t from one block to
    the next, starting at Q_1 = q_bar and the unconditional variances.

    z_t is computed into a held vector and copied into its row, so that the
    outer product z z' is one BLAS product of held (N, 1) and (1, N) views
    of it, about half the time of a broadcast multiply at N = 15; each entry
    is still one IEEE product, though a zero one is always +0. Q_t and z z'
    are held as one (2, N, N) stack, which one multiply by [theta2; theta1]
    scales; every sum keeps its order."""
    n = params.n
    t1, t2 = params.theta1, params.theta2
    intercept = (1.0 - t1 - t2) * params.q_bar
    stack, low = np.empty((2, n, n)), np.empty((n, n))
    q_t, outer = stack
    q_t[:] = params.q_bar
    thetas = np.repeat([t2, t1], n * n).reshape(2, n, n)  # whole: broadcasting is slower
    s, lz, z_t = np.empty((3, n))
    z_col, z_row = z_t[:, None], z_t[None, :]
    q_diag = q_t.reshape(-1)[:: n + 1]
    omega, alpha, beta = np.array([(p.omega, p.alpha, p.beta) for p in params.univariate]).T
    # the GARCH variances at the first row of the next block
    h0 = np.array([p.unconditional_var() for p in params.univariate])

    # Each step writes z_t over eta_t and updates Q_t in place as
    # (intercept + t1 z z') + t2 Q, the diagonal a strided view. Then, over
    # the block, c_t = alpha z_t^2 + beta, h_{t+1} = c_t h_t + omega step by
    # step, and e_t = sqrt(h_t) z_t over z_t. One errstate covers both
    # passes, as _factor_into asks.
    def steps(z: np.ndarray, t0: int) -> None:
        k = len(z)
        c, h = np.empty((k, n)), np.empty((k + 1, n))
        h[0] = h0
        with np.errstate(all="ignore"):
            for t, row in enumerate(z, t0):
                if not _factor_into(q_t, low):
                    raise NumericalOverflowError(
                        f"simulated correlation lost positive definiteness at t={t}", t=t
                    )
                np.divide(np.dot(low, row, lz), np.sqrt(q_diag, s), z_t)
                row[:] = z_t
                np.dot(z_col, z_row, outer)
                np.multiply(stack, thetas, stack)
                np.add(outer, intercept, outer)
                np.add(q_t, outer, q_t)
            np.multiply(alpha, np.square(z, c), c)
            c += beta
            for c_t, h_t, h_next in zip(c, h, h[1:]):
                np.multiply(c_t, h_t, h_next)
                h_next += omega
            h0[:] = h[k]
            z *= np.sqrt(h[:k], h[:k])

    return steps


def dcc_simulate(
    params: DccParams,
    mu: np.ndarray,
    t_len: int,
    seed: int,
    labels: tuple[str, ...] | None = None,
) -> ReturnPanel:
    """Simulate r_t = mu + D_t z_t with Gaussian eta_t and z_t = L_t eta_t,
    where L_t is the lower Cholesky factor of R_t, starting from the
    per-series unconditional variances and Q_1 = q_bar: the simulate command's
    blocks, gathered into a panel of about 8 t_len N bytes plus one block.

    R_t is never formed: with S_t = diag(Q_t)^{1/2}, R_t = S_t^{-1} Q_t
    S_t^{-1}, so L_t = S_t^{-1} chol(Q_t) and z_t = chol(Q_t) eta_t / diag(S_t).
    Each step factors Q_t with numpy's Cholesky gufunc (the one
    np.linalg.cholesky calls, so the factors are the same bits) into one
    buffer; a Q_t it cannot factor raises NumericalOverflowError naming the
    step t. The GARCH variances, driven by z alone, follow block by block,
    each block's right after its Q steps; a non-finite return raises
    NumericalOverflowError as an overflow."""
    return _sim_panel(_dcc_steps(params), params.n, mu, t_len, seed, labels)
