"""Diagonal BEKK(1,1) covariance model.

With diagonal loading matrices the recursion

    H_t = C C' + A eps_{t-1} eps_{t-1}' A' + B H_{t-1} B'

decouples into one scalar one-pole filter per matrix entry:

    h_{ij,t} = (CC')_{ij} + a_i a_j e_{ij,t-1} + b_i b_j h_{ij,t-1}

so the full path is computed entrywise with scipy.signal.lfilter.

The score runs the same filters backwards. With G_t = dl/dH_t from
linalg.gaussian_path_loglik (the likelihood term, plus the KL term when a
target is given), the adjoint

    Lambda_t = G_t + (b b') o Lambda_{t+1},    Lambda_T = 0

gives, summing over t >= 1,

    dl/dC = 2 (sum Lambda_t) C,
    dl/da = 2 (sum Lambda_t o E_{t-1}) a,   E_{t-1} = eps_{t-1} eps_{t-1}',
    dl/db = 2 (sum Lambda_t o H_{t-1}) b.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ReturnPanel, synth_dates
from .errors import DataError, InsufficientDataError, NumericalOverflowError, ShapeError
from .garch import _one_pole, _one_pole_adjoint
from .linalg import cholesky, gaussian_path_loglik, symmetrize
from .optimize import (
    FitReport,
    OptimizerOptions,
    maximize,
    simplex_map,
    simplex_unmap,
    simplex_vjp,
)
from .targeting import TargetSpec

_LOG_2PI = float(np.log(2.0 * np.pi))

# Minimum extra observations beyond the parameter count required to fit.
FIT_BUFFER = 10


@dataclass(frozen=True)
class BekkParams:
    """Diagonal BEKK parameters.

    c_lower is lower triangular with a nonnegative diagonal; a_diag/b_diag
    satisfy a_i^2 + b_i^2 < 1 for every i (stationarity of each entry
    recursion); the implied unconditional covariance must be PD.
    """

    c_lower: np.ndarray
    a_diag: np.ndarray
    b_diag: np.ndarray

    def __post_init__(self):
        c = np.array(self.c_lower, dtype=float)
        a = np.array(self.a_diag, dtype=float)
        b = np.array(self.b_diag, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeError(f"c_lower must be square, got shape {c.shape}")
        n = c.shape[0]
        if a.shape != (n,) or b.shape != (n,):
            raise ShapeError(
                f"a_diag/b_diag must have shape ({n},), got {a.shape}, {b.shape}"
            )
        if not (
            np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        ):
            raise DataError("non-finite BEKK parameters")
        if np.any(np.triu(c, k=1) != 0.0):
            raise DataError("c_lower has nonzero entries above the diagonal")
        if np.any(np.diag(c) < 0.0):
            raise DataError("c_lower diagonal must be nonnegative")
        if np.any(a**2 + b**2 >= 1.0):
            i = int(np.flatnonzero(a**2 + b**2 >= 1.0)[0])
            raise DataError(
                f"a_i^2 + b_i^2 must be < 1 for stationarity; fails at i={i}"
            )
        for arr in (c, a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "c_lower", c)
        object.__setattr__(self, "a_diag", a)
        object.__setattr__(self, "b_diag", b)
        cholesky(self.unconditional_cov())  # implied long-run covariance PD

    @property
    def n(self) -> int:
        return self.c_lower.shape[0]

    def unconditional_cov(self) -> np.ndarray:
        """Fixed point of the entry recursions: (CC')_ij / (1 - a_i a_j - b_i b_j)."""
        cc = self.c_lower @ self.c_lower.T
        denom = 1.0 - np.outer(self.a_diag, self.a_diag) - np.outer(
            self.b_diag, self.b_diag
        )
        return cc / denom

    def to_vector(self) -> np.ndarray:
        """[row-major lower triangle of C, a_diag, b_diag]."""
        rows, cols = np.tril_indices(self.n)
        return np.concatenate([self.c_lower[rows, cols], self.a_diag, self.b_diag])

    @classmethod
    def from_vector(cls, x: np.ndarray, n: int) -> "BekkParams":
        x = np.asarray(x, dtype=float)
        m = n * (n + 1) // 2
        if x.shape != (m + 2 * n,):
            raise ShapeError(
                f"parameter vector must have length {m + 2 * n}, got {x.shape}"
            )
        c = np.zeros((n, n))
        rows, cols = np.tril_indices(n)
        c[rows, cols] = x[:m]
        return cls(c_lower=c, a_diag=x[m : m + n], b_diag=x[m + n :])


@dataclass(frozen=True)
class CovPath:
    """Conditional covariance path (T, N, N); every slice symmetric PD by
    construction of the filter. Treat as read-only."""

    h: np.ndarray

    @property
    def t_len(self) -> int:
        return self.h.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]


def bekk_filter(eps: np.ndarray, params: BekkParams, h1: np.ndarray) -> CovPath:
    """Run the covariance recursion from H_1 = h1 over demeaned returns eps."""
    eps = np.asarray(eps, dtype=float)
    n = params.n
    if eps.ndim != 2 or eps.shape[1] != n:
        raise ShapeError(f"eps must be (T, {n}), got {eps.shape}")
    if eps.shape[0] < 1:
        raise DataError("eps has no rows")
    if not np.all(np.isfinite(eps)):
        raise DataError("eps contains non-finite values")
    h1 = symmetrize(h1)
    if h1.shape != (n, n):
        raise ShapeError(f"h1 must be ({n}, {n}), got {h1.shape}")
    cholesky(h1)  # starting covariance must be PD
    t_len = eps.shape[0]
    h = np.empty((t_len, n, n))
    h[0] = h1
    if t_len > 1:
        cc = params.c_lower @ params.c_lower.T
        aa = np.outer(params.a_diag, params.a_diag)
        bb = np.outer(params.b_diag, params.b_diag)
        outer = eps[:-1, :, None] * eps[:-1, None, :]
        x = cc + aa * outer
        for i in range(n):
            for j in range(i + 1):
                path = _one_pole(x[:, i, j], float(bb[i, j]), float(h1[i, j]))
                h[1:, i, j] = path
                if j != i:
                    h[1:, j, i] = path
    if not np.all(np.isfinite(h)):
        t = int(np.argwhere(~np.isfinite(h))[0][0])
        raise NumericalOverflowError(f"covariance recursion overflowed at t={t}", t=t)
    return CovPath(h=h)


def _default_h1(eps: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.cov(eps, rowvar=False, ddof=1))


def _bekk_objective(eps, params, h1, target, grad):
    eps = np.asarray(eps, dtype=float)
    if h1 is None:
        h1 = _default_h1(eps)
    h = bekk_filter(eps, params, h1).h
    t_len, n = eps.shape
    const = -0.5 * t_len * n * _LOG_2PI
    p = None if target is None else target.sigma_hat
    if not grad:
        return const + gaussian_path_loglik(h, eps, p)
    value, g = gaussian_path_loglik(h, eps, p, grad=True)
    bb = np.outer(params.b_diag, params.b_diag)
    lam = np.empty((t_len - 1, n, n))
    for i in range(n):
        for j in range(i + 1):
            lam[:, i, j] = lam[:, j, i] = _one_pole_adjoint(g[1:, i, j], bb[i, j])
    s = lam.sum(axis=0)
    m = np.einsum("tij,ti,tj->ij", lam, eps[:-1], eps[:-1])
    k = (lam * h[:-1]).sum(axis=0)
    rows, cols = np.tril_indices(n)
    return const + value, np.concatenate([
        2.0 * (s @ params.c_lower)[rows, cols],
        2.0 * m @ params.a_diag,
        2.0 * k @ params.b_diag,
    ])


def bekk_loglik(
    eps: np.ndarray,
    params: BekkParams,
    h1: np.ndarray | None = None,
    grad: bool = False,
):
    """Gaussian log-likelihood
    -(T N / 2) log(2 pi) - 1/2 sum_t (log|H_t| + eps_t' H_t^{-1} eps_t).

    With ``grad`` returns (value, gradient in params.to_vector() order).
    """
    return _bekk_objective(eps, params, h1, None, grad)


def bekk_modified_loglik(
    eps: np.ndarray,
    params: BekkParams,
    target: TargetSpec,
    h1: np.ndarray | None = None,
    grad: bool = False,
):
    """Gaussian log-likelihood minus the targeting penalty
    sum_t KL(sigma_hat, H_t); ``grad`` as in bekk_loglik."""
    return _bekk_objective(eps, params, h1, target, grad)


class _BekkTransform:
    """Unconstrained parametrization of BekkParams.

    Layout of u: [lower triangle of C row-major, then (u_a_i, u_b_i) pairs].
    C = L diag(d) with d_j = e^{u_jj} and L unit lower triangular with
    L_ij = u_ij, so every coordinate is free of the returns' scale. Each
    pair is mapped through the open simplex so that
    a_i^2 = e^{u_a}/(1+e^{u_a}+e^{u_b}), b_i^2 likewise; this enforces
    a_i, b_i > 0 and a_i^2 + b_i^2 < 1 strictly.
    """

    def __init__(self, n: int):
        self.n = n
        self.m = n * (n + 1) // 2
        rows, self._cols = np.tril_indices(n)
        self._is_diag = rows == self._cols

    def _c_entries(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uc = u[: self.m]
        d = np.exp(uc[self._is_diag])[self._cols]
        return np.where(self._is_diag, 1.0, uc) * d, d

    def forward(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        c_entries, _ = self._c_entries(u)
        ab = np.sqrt(simplex_map(u[self.m :].reshape(self.n, 2)))
        return np.concatenate([c_entries, ab[:, 0], ab[:, 1]])

    def vjp(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        g = np.asarray(g, dtype=float)
        c_entries, d = self._c_entries(u)
        g_c = g[: self.m] * d
        g_c[self._is_diag] = np.bincount(
            self._cols, weights=g[: self.m] * c_entries, minlength=self.n
        )
        w = simplex_map(u[self.m :].reshape(self.n, 2))
        g_ab = np.stack([g[self.m : self.m + self.n], g[self.m + self.n :]], axis=1)
        # a = sqrt(w_0), b = sqrt(w_1): dw = 2 sqrt(w) d(sqrt(w))
        return np.concatenate([g_c, simplex_vjp(w, 0.5 * g_ab / np.sqrt(w)).ravel()])

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c_entries = x[: self.m]
        diag = c_entries[self._is_diag]
        if np.any(diag <= 0.0):
            raise DataError("diagonal of C must be strictly positive to invert")
        u_c = np.where(self._is_diag, 0.0, c_entries / diag[self._cols])
        u_c[self._is_diag] = np.log(diag)
        out = [u_c]
        a = x[self.m : self.m + self.n]
        b = x[self.m + self.n :]
        for i in range(self.n):
            out.append(simplex_unmap(np.array([a[i] ** 2, b[i] ** 2])))
        return np.concatenate(out)


def bekk_fit(
    eps: np.ndarray,
    target: TargetSpec | None = None,
    opts: OptimizerOptions | None = None,
    h1: np.ndarray | None = None,
) -> tuple[BekkParams, FitReport]:
    """Fit diagonal BEKK by (penalized) Gaussian quasi-likelihood.

    With ``target`` the objective is bekk_modified_loglik, else bekk_loglik.
    The start is moment-matched: a_i = 0.3, b_i = 0.9, C the Cholesky factor
    of (1 - 0.3^2 - 0.9^2) times the sample covariance. Estimates are
    sign-normalized (a_i, b_i > 0, diag(C) > 0) by the parametrization.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 2:
        raise ShapeError(f"eps must be 2-D, got shape {eps.shape}")
    t_len, n = eps.shape
    n_params = n * (n + 1) // 2 + 2 * n
    if t_len < n_params + FIT_BUFFER:
        raise InsufficientDataError(
            f"need at least {n_params + FIT_BUFFER} rows to fit {n_params} "
            f"parameters, got {t_len}"
        )
    s = _default_h1(eps)
    if h1 is None:
        h1 = s
    a0, b0 = 0.3, 0.9
    c0 = cholesky((1.0 - a0 * a0 - b0 * b0) * s).lower
    start = BekkParams(
        c_lower=c0, a_diag=np.full(n, a0), b_diag=np.full(n, b0)
    ).to_vector()

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = BekkParams.from_vector(x, n)
        if target is None:
            return bekk_loglik(eps, p, h1=h1, grad=True)
        return bekk_modified_loglik(eps, p, target, h1=h1, grad=True)

    x, report = maximize(objective, _BekkTransform(n), start, opts)
    return BekkParams.from_vector(x, n), report


def bekk_simulate(
    params: BekkParams,
    mu: np.ndarray,
    t_len: int,
    seed: int,
    h1: np.ndarray | None = None,
    labels: tuple[str, ...] | None = None,
) -> ReturnPanel:
    """Simulate a return panel r_t = mu + H_t^{1/2} eta_t with Gaussian
    shocks; H_1 defaults to the implied unconditional covariance."""
    n = params.n
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ShapeError(f"mu must have shape ({n},), got {mu.shape}")
    if t_len < 2:
        raise DataError(f"t_len must be >= 2, got {t_len}")
    if h1 is None:
        h1 = params.unconditional_cov()
    h1 = symmetrize(h1)
    cholesky(h1)
    if labels is None:
        labels = tuple(f"S{i + 1}" for i in range(n))
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal((t_len, n))
    cc = params.c_lower @ params.c_lower.T
    a = params.a_diag
    b = params.b_diag
    eps = np.empty((t_len, n))
    h_t = h1.copy()
    for t in range(t_len):
        try:
            low = np.linalg.cholesky(0.5 * (h_t + h_t.T))
        except np.linalg.LinAlgError:
            raise NumericalOverflowError(
                f"simulated covariance lost positive definiteness at t={t}", t=t
            ) from None
        eps[t] = low @ eta[t]
        h_t = cc + np.outer(a * eps[t], a * eps[t]) + (
            np.outer(b, b) * h_t
        )
    if not np.all(np.isfinite(eps)):
        t = int(np.argwhere(~np.isfinite(eps))[0][0])
        raise NumericalOverflowError(f"simulation overflowed at t={t}", t=t)
    return ReturnPanel(labels=labels, returns=eps + mu, dates=synth_dates(t_len))
