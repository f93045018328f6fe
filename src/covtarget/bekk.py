"""Diagonal BEKK(1,1) covariance model.

With diagonal loading matrices the recursion

    H_t = C C' + A eps_{t-1} eps_{t-1}' A' + B H_{t-1} B'

decouples into one scalar one-pole filter per matrix entry:

    h_{ij,t} = (CC')_{ij} + a_i a_j e_{ij,t-1} + b_i b_j h_{ij,t-1}

so the N(N+1)/2 lower-triangle entries, packed as the columns of one
array with H_1 folded into its first row, scan in place along time
(garch._scan, as DCC's row blocks do) with one pole b_i b_j per entry and
are mirrored to the upper triangle. A fit checks eps and H_1 once, into a
_Returns that holds every buffer an evaluation writes (dcc._Residuals too).

The score runs the same scan over the rows reversed in time. With
G_t = dl/dH_t from linalg._path_loglik (the likelihood term, plus the KL
term when a target is given), the adjoint

    Lambda_t = G_t + (b b') o Lambda_{t+1},    Lambda_T = 0

scans only the N(N+1)/2 lower-triangle entries, as the filter does (G_t is
symmetric, so an off-diagonal entry stands for itself and its mirror: weight
2). With its sums over t >= 1 mirrored back to full matrices, it gives

    dl/dC = 2 (sum Lambda_t) C,
    dl/da = 2 (sum Lambda_t o E_{t-1}) a,   E_{t-1} = eps_{t-1} eps_{t-1}',
    dl/db = 2 (sum Lambda_t o H_{t-1}) b.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import ReturnPanel, _sim_panel
from .errors import DataError, InsufficientDataError, NumericalOverflowError, ShapeError
from .garch import _scan
from .linalg import (
    _check_independent, _checked_pd, _checked_rows, _factor_into, _path_loglik, _PathBuffers,
    _tril, cholesky,
)
from .optimize import (
    FitReport,
    OptimizerOptions,
    _unchecked,
    maximize,
    simplex_map,
    simplex_unmap,
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
        if n < 1:
            raise DataError("c_lower has no series")
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
        rows, cols = _tril(self.n)
        return np.concatenate([self.c_lower[rows, cols], self.a_diag, self.b_diag])

    @classmethod
    def from_vector(cls, x: np.ndarray, n: int) -> "BekkParams":
        return cls(**_vector_fields(x, n))


def _vector_fields(x: np.ndarray, n: int) -> dict:
    """BekkParams fields from the to_vector() layout."""
    x = np.asarray(x, dtype=float)
    m = n * (n + 1) // 2
    if x.shape != (m + 2 * n,):
        raise ShapeError(
            f"parameter vector must have length {m + 2 * n}, got {x.shape}"
        )
    c = np.zeros((n, n))
    c[_tril(n)] = x[:m]
    return dict(c_lower=c, a_diag=x[m : m + n], b_diag=x[m + n :])


class _Returns:
    """Demeaned returns eps (T, N) and H_1 (by default their sample
    covariance), checked once, with the packed products e_{i,t-1} e_{j,t-1}
    and the buffers the filter and score write. bekk_fit passes one as eps
    to every evaluation; a plain array gets one per call."""

    def __init__(self, eps: np.ndarray, n: int, h1: np.ndarray | None):
        self.eps = eps = _checked_rows(eps, n, "eps")
        self.tril = rows, cols = _tril(n)
        self.h1, _ = _checked_pd(_default_h1(eps) if h1 is None else h1, n, "h1")
        self.lagged = eps[:-1, rows] * eps[:-1, cols]
        self.drive = np.empty_like(self.lagged)  # the filter's packed x_t
        self.scratch = np.empty((len(self.lagged) // 2, len(rows)))
        self.h = np.empty((len(eps), n, n))  # the path; H_1 never changes
        self.h[0] = self.h1

    @cached_property
    def work(self) -> _PathBuffers:
        """The path kernel's buffers, built on first use: bekk_filter reads none."""
        return _PathBuffers(*self.eps.shape)


def bekk_filter(eps: np.ndarray, params: BekkParams, h1: np.ndarray) -> np.ndarray:
    """Run the covariance recursion from H_1 = h1 over demeaned returns eps;
    returns the (T, N, N) path, every slice symmetric PD by construction.
    A _Returns as eps brings its own H_1 and holds the path it returns."""
    res = eps if isinstance(eps, _Returns) else _Returns(eps, params.n, h1)
    rows, cols = res.tril
    a, b = params.a_diag, params.b_diag
    pole = b[rows] * b[cols]
    x = np.multiply(res.lagged, a[rows] * a[cols], out=res.drive)
    x += (params.c_lower @ params.c_lower.T)[rows, cols]
    x[:1] += pole * res.h1[rows, cols]
    _scan(x, pole, res.scratch)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        t = 1 + int(bad.argmax())
        raise NumericalOverflowError(f"covariance recursion overflowed at t={t}", t=t)
    res.h[1:, rows, cols] = res.h[1:, cols, rows] = x
    return res.h


def _default_h1(eps: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.cov(eps, rowvar=False, ddof=1))


def _bekk_objective(eps, params, h1, target, grad):
    res = eps if isinstance(eps, _Returns) else _Returns(eps, params.n, h1)
    h = bekk_filter(res, params, None)
    t_len, n = res.eps.shape
    const = -0.5 * t_len * n * _LOG_2PI
    p = None if target is None else (target.sigma_hat, target.sigma_logdet)
    out = _path_loglik(h, res.eps, p, grad, res.work)
    if not grad:
        return const + out
    value, g = out
    b, (rows, cols) = params.b_diag, res.tril
    # G_t for t = T-1, ..., 1 in C order, which the sums below reduce along
    lam = np.ascontiguousarray(g[:0:-1, rows, cols])
    _scan(lam, b[rows] * b[cols], res.scratch)
    lam = lam[::-1]
    sums = np.empty((3, n, n))
    sums[:, rows, cols] = sums[:, cols, rows] = [
        lam.sum(axis=0),
        np.einsum("tk,tk->k", lam, res.lagged),
        np.einsum("tk,tk->k", lam, h[:-1, rows, cols]),
    ]
    s, m, k = sums
    return const + value, np.concatenate([
        2.0 * (s @ params.c_lower)[rows, cols],
        2.0 * m @ params.a_diag,
        2.0 * k @ params.b_diag,
    ])


def bekk_loglik(eps: np.ndarray, params: BekkParams, h1: np.ndarray | None = None,
                grad: bool = False):
    """Gaussian log-likelihood
    -(T N / 2) log(2 pi) - 1/2 sum_t (log|H_t| + eps_t' H_t^{-1} eps_t).

    With ``grad`` returns (value, gradient in params.to_vector() order).
    """
    return _bekk_objective(eps, params, h1, None, grad)


def bekk_modified_loglik(eps: np.ndarray, params: BekkParams, target: TargetSpec,
                         h1: np.ndarray | None = None, grad: bool = False):
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
    a_i, b_i > 0 and a_i^2 + b_i^2 < 1 strictly. Large u rounds onto the
    boundary (u_ab = (40, 40) gives a_i^2 + b_i^2 = 1 + 2^-52), which
    BekkParams rejects; there a_i and b_i step down one ulp at a time until
    the sum of squares is below 1, as in optimize._SimplexTransform. Interior
    points keep their bits.
    """

    def __init__(self, n: int):
        self.n = n
        self.m = n * (n + 1) // 2
        rows, self._cols = _tril(n)
        self._is_diag = rows == self._cols

    def _c_entries(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uc = u[: self.m]
        d = np.exp(uc[self._is_diag])[self._cols]
        return np.where(self._is_diag, 1.0, uc) * d, d

    def forward(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        c_entries, _ = self._c_entries(u)
        ab = np.sqrt(simplex_map(u[self.m :].reshape(self.n, 2)))
        while (out := ab[:, 0] ** 2 + ab[:, 1] ** 2 >= 1.0).any():
            ab[out] = np.nextafter(ab[out], 0.0)
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
        # a = sqrt(w_0), b = sqrt(w_1): simplex_vjp(w, 0.5 g / sqrt(w)) in
        # closed form, without dividing by sqrt(w), which is 0 once w_k underflows
        v = 0.5 * g_ab * np.sqrt(w)
        return np.concatenate([g_c, (v - w * v.sum(axis=-1, keepdims=True)).ravel()])

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c_entries = x[: self.m]
        diag = c_entries[self._is_diag]
        if np.any(diag <= 0.0):
            raise DataError("diagonal of C must be strictly positive to invert")
        u_c = np.where(self._is_diag, 0.0, c_entries / diag[self._cols])
        u_c[self._is_diag] = np.log(diag)
        # rows (a_i^2, b_i^2), the pairs forward() maps through the simplex
        u_ab = simplex_unmap(x[self.m :].reshape(2, self.n).T ** 2)
        return np.concatenate([u_c, u_ab.ravel()])


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
    if not np.all(np.isfinite(eps)):
        raise DataError("eps contains non-finite values")
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
    _check_independent(s, "sample covariance", range(n))
    res = _Returns(eps, n, s if h1 is None else h1)  # checked once, buffers held for the fit
    if target is not None and target.sigma_hat.shape != (n, n):
        raise ShapeError(f"target must be ({n}, {n}), got {target.sigma_hat.shape}")
    a0, b0 = 0.3, 0.9
    c0 = cholesky((1.0 - a0 * a0 - b0 * b0) * s).lower
    start = BekkParams(c_lower=c0, a_diag=np.full(n, a0), b_diag=np.full(n, b0))

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = _unchecked(start, **_vector_fields(x, n))
        if target is None:
            return bekk_loglik(res, p, grad=True)
        return bekk_modified_loglik(res, p, target, grad=True)

    x, report = maximize(objective, _BekkTransform(n), start.to_vector(), opts)
    return BekkParams.from_vector(x, n), report


def _bekk_steps(params: BekkParams, h1: np.ndarray | None):
    """bekk_simulate's step loop: a function ``steps(eta, t0)`` that turns a
    block of shocks eta_t into e_t = L_t eta_t in place, t counted from
    ``t0``, and carries H_t from one block to the next, starting at the
    checked h1 (by default the implied unconditional covariance).

    The outer product (a o e)(a o e)' is one BLAS product of held (N, 1) and
    (1, N) views of one held vector, about half the time of a broadcast
    multiply at N = 15. Each entry is still one IEEE product; only a zero
    product's sign can differ (BLAS gives +0), and adding CC', whose zeros
    are +0 (a BLAS product too), gives +0 either way."""
    n = params.n
    h_t, _ = _checked_pd(params.unconditional_cov() if h1 is None else h1, n, "h1")
    cc = params.c_lower @ params.c_lower.T
    a = params.a_diag
    bb = np.outer(params.b_diag, params.b_diag)
    eta_t, ae, arch, low = np.empty(n), np.empty(n), np.empty((n, n)), np.empty((n, n))
    ae_col, ae_row = ae[:, None], ae[None, :]

    # H_t stays exactly symmetric: h1 is symmetrized, and CC', (a o e)(a o e)'
    # and (b b') o H are symmetric entry by entry. Each step updates H_t in
    # place as (CC' + (a o e)(a o e)') + (b b') o H_{t-1}, and e_t replaces
    # eta_t in the shock array once eta_t is copied out. One errstate
    # covers the loop, as _factor_into asks.
    def steps(eta: np.ndarray, t0: int) -> None:
        with np.errstate(all="ignore"):
            for t, e_t in enumerate(eta, t0):
                if not _factor_into(h_t, low):
                    raise NumericalOverflowError(
                        f"simulated covariance lost positive definiteness at t={t}", t=t
                    )
                eta_t[:] = e_t
                np.dot(low, eta_t, out=e_t)
                np.multiply(a, e_t, out=ae)
                np.dot(ae_col, ae_row, arch)
                np.add(arch, cc, out=arch)
                np.multiply(h_t, bb, out=h_t)
                np.add(h_t, arch, out=h_t)

    return steps


def bekk_simulate(
    params: BekkParams,
    mu: np.ndarray,
    t_len: int,
    seed: int,
    h1: np.ndarray | None = None,
    labels: tuple[str, ...] | None = None,
) -> ReturnPanel:
    """Simulate a return panel r_t = mu + L_t eta_t with Gaussian shocks
    eta_t, L_t the lower Cholesky factor of H_t; H_1 defaults to the implied
    unconditional covariance. The rows are the simulate command's blocks,
    gathered into a panel of about 8 t_len N bytes plus one block.

    Each step factors H_t with numpy's Cholesky gufunc (the one
    np.linalg.cholesky calls, so the factors are the same bits) into one
    buffer. An H_t it cannot factor raises NumericalOverflowError naming
    the step t; a non-finite return raises it as an overflow."""
    return _sim_panel(_bekk_steps(params, h1), params.n, mu, t_len, seed, labels)
