"""Symmetric-matrix kernels used by the likelihood and loss code.

Every determinant, inverse, and quadratic form here goes through a Cholesky
factorization. Only gaussian_path_loglik forms H_t^{-1}, from the inverted
factor, because the score of the Gaussian likelihood is written in it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotPositiveDefiniteError, ShapeError

# Relative tolerance for symmetry validation of user-supplied matrices.
SYM_TOL = 1e-12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Validate that ``m`` is square, finite, and symmetric to SYM_TOL
    (relative to its largest entry), and return (M + M') / 2."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    gap = float(np.abs(a - a.T).max(initial=0.0))
    if gap > SYM_TOL * scale:
        raise ShapeError(f"matrix is not symmetric (max asymmetry {gap:.3e})")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor together with the log-determinant of the input."""

    lower: np.ndarray
    logdet: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def _first_bad_pivot(a: np.ndarray) -> int:
    # Textbook factorization re-run only on the error path, to locate the
    # first non-positive pivot for diagnostics.
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - float(low[j, :j] @ low[j, :j])
        if d <= 0.0 or not np.isfinite(d):
            return j
        low[j, j] = np.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return n - 1


def cholesky(m: np.ndarray) -> CholFactor:
    """Factor a symmetric positive definite matrix.

    Raises NotPositiveDefiniteError (with the failing pivot index) when the
    matrix is not PD.
    """
    a = symmetrize(m)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pivot = _first_bad_pivot(a)
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {pivot})", pivot=pivot
        ) from None
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    return CholFactor(lower=lower, logdet=logdet)


def nearest_pd(m: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Eigenvalue-clipped positive definite repair.

    Eigenvalues below ``floor`` are raised to ``floor`` and the matrix is
    reassembled. A matrix already PD with min eigenvalue >= floor is returned
    unchanged (up to exact symmetrization). Output is exactly symmetric.
    """
    if not floor > 0.0:
        raise DataError(f"floor must be positive, got {floor}")
    a = symmetrize(m)
    w, v = np.linalg.eigh(a)
    # slack absorbs eigh roundoff so repairing is idempotent
    slack = 1e-12 * max(1.0, float(np.abs(a).max()))
    if float(w.min()) >= floor - slack:
        return a
    w = np.maximum(w, floor)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence between zero-mean Gaussians with covariances p and q:

        KL(P, Q) = 0.5 * (log(|Q| / |P|) + Tr(Q^{-1} P) - N)

    Asymmetric in its arguments; zero iff p == q.
    """
    cp = cholesky(p)
    cq = cholesky(q)
    if cp.lower.shape != cq.lower.shape:
        raise ShapeError(
            f"covariance shapes differ: {cp.lower.shape} vs {cq.lower.shape}"
        )
    n = cp.n
    # Tr(Q^{-1} P) = ||Lq^{-1} Lp||_F^2 with P = Lp Lp', Q = Lq Lq'.
    y = np.linalg.solve(cq.lower, cp.lower)
    trace = float((y * y).sum())
    return 0.5 * (cq.logdet - cp.logdet + trace - n)


def stacked_cholesky(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky-factor a (T, N, N) stack.

    Returns (lower factors (T, N, N), per-matrix log-determinants (T,)).
    Raises NotPositiveDefiniteError naming the first offending time index.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ShapeError(f"expected a (T, N, N) stack, got shape {h.shape}")
    try:
        lowers = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        for t in range(h.shape[0]):
            try:
                np.linalg.cholesky(h[t])
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(
                    f"matrix at time index {t} is not positive definite",
                    pivot=_first_bad_pivot(0.5 * (h[t] + h[t].T)),
                ) from None
        raise  # unreachable: the stacked failure must reproduce at some t
    diags = np.diagonal(lowers, axis1=1, axis2=2)
    logdets = 2.0 * np.log(diags).sum(axis=1)
    return lowers, logdets


def kl_path_sum(p: np.ndarray, h: np.ndarray) -> float:
    """Sum over t of KL(P, H_t) for a (T, N, N) stack of covariances.

    Matches summing kl_divergence(p, h[t]) over t, but factors the stack once.
    """
    cp = cholesky(p)
    lowers, logdets = stacked_cholesky(h)
    t_len, n = h.shape[0], h.shape[1]
    if cp.n != n:
        raise ShapeError(f"target is {cp.n}x{cp.n} but path matrices are {n}x{n}")
    # Tr(H_t^{-1} P) = ||L_t^{-1} Lp||_F^2, solved for all t at once.
    y = np.linalg.solve(lowers, np.broadcast_to(cp.lower, (t_len, n, n)))
    traces = (y * y).sum(axis=(1, 2))
    return 0.5 * float(
        logdets.sum() - t_len * cp.logdet + traces.sum() - t_len * n
    )


def stacked_quad_logdet(h: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """For a (T, N, N) stack and (T, N) vectors, return
    (sum_t log|H_t|, sum_t x_t' H_t^{-1} x_t) via one stacked factorization."""
    lowers, logdets = stacked_cholesky(h)
    x = np.asarray(x, dtype=float)
    if x.shape != h.shape[:2]:
        raise ShapeError(f"vectors {x.shape} do not match stack {h.shape}")
    y = np.linalg.solve(lowers, x[:, :, None])
    return float(logdets.sum()), float((y * y).sum())


def gaussian_path_loglik(
    h: np.ndarray,
    x: np.ndarray,
    target: np.ndarray | None = None,
    grad: bool = False,
):
    """Gaussian kernel of a (T, N, N) covariance stack against (T, N)
    vectors, optionally penalized by a target P:

        value = -1/2 sum_t (log|H_t| + x_t' H_t^{-1} x_t) - sum_t KL(P, H_t)

    One stacked factorization gives log|H_t|, H_t^{-1} and H_t^{-1} x_t.
    With ``grad`` returns (value, G) where G[t] = d value / d H_t, entries
    taken as independent:

        G_t = -1/2 (H_t^{-1} - H_t^{-1} x_t x_t' H_t^{-1})
              - 1/2 (H_t^{-1} - H_t^{-1} P H_t^{-1})   (with a target)
    """
    lowers, logdets = stacked_cholesky(h)
    x = np.asarray(x, dtype=float)
    if x.shape != h.shape[:2]:
        raise ShapeError(f"vectors {x.shape} do not match stack {h.shape}")
    t_len, n = x.shape
    linv = np.linalg.inv(lowers)
    hinv = np.matmul(np.swapaxes(linv, 1, 2), linv)
    hx = np.matmul(hinv, x[:, :, None])[:, :, 0]
    ld = float(logdets.sum())
    value = -0.5 * (ld + float((x * hx).sum()))
    if target is not None:
        p = symmetrize(target)
        cp = cholesky(p)
        if cp.n != n:
            raise ShapeError(
                f"target is {cp.n}x{cp.n} but path matrices are {n}x{n}"
            )
        trace = float((hinv * p).sum())  # sum_t Tr(H_t^{-1} P)
        value -= 0.5 * (ld - t_len * cp.logdet + trace - t_len * n)
    if not grad:
        return value
    g = 0.5 * (hx[:, :, None] * hx[:, None, :]) - 0.5 * hinv
    if target is not None:
        g += 0.5 * (np.matmul(np.matmul(hinv, p), hinv) - hinv)
    return value, g


def frobenius_path_loss(h: np.ndarray, target: np.ndarray) -> float:
    """Aggregate Frobenius distance of a covariance path from a fixed target:

        sqrt( sum_t || H_t - target ||_F^2 )
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ShapeError(f"expected a (T, N, N) stack, got shape {h.shape}")
    tgt = symmetrize(target)
    if tgt.shape != h.shape[1:]:
        raise ShapeError(
            f"target shape {tgt.shape} does not match path matrices {h.shape[1:]}"
        )
    d = h - tgt
    return float(np.sqrt((d * d).sum()))
