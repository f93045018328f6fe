"""Symmetric-matrix kernels used by the likelihood and loss code.

Every determinant, inverse, and quadratic form here goes through a Cholesky
factorization. The one path kernel, gaussian_path_loglik, gives a path's
Gaussian log-likelihood, KL penalty and gradient from one stacked
factorization; only it forms H_t^{-1}, because the score is written in it,
as L_t^{-T} L_t^{-1} with L_t^{-1} found by forward substitution. It
writes every array into buffers (_PathBuffers) that a caller evaluating
row block after row block of one shape can hold, as DCC's stage two does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DataError, NotPositiveDefiniteError, ShapeError

# Relative tolerance for symmetry validation of user-supplied matrices.
SYM_TOL = 1e-12
# Smallest eigenvalue nearest_pd leaves in a repaired matrix.
PD_FLOOR = 1e-8
# Smallest accepted share of a series' variance left unexplained by the
# series before it: a correlation's squared Cholesky pivot. Scale-free; the
# benchmark's desk5 and dcc15 panels read 0.08-0.30, a column equal to 2x
# another plus 1e-9 noise reads ~1e-15.
MIN_CORR_PIVOT_SQ = 1e-8


@cache
def _tril(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(n), the row-major lower-triangle layout of the
    packed parameter vectors and the matrix recursions, built once per n
    and read-only."""
    idx = np.tril_indices(n)
    for a in idx:
        a.setflags(write=False)
    return idx


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Validate that ``m`` is square, finite, and symmetric to SYM_TOL
    (relative to its largest entry), and return (M + M') / 2."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.abs(a).max(initial=1.0))  # nan or inf with a non-finite entry
    if not math.isfinite(scale):
        raise DataError("matrix has non-finite entries")
    # Halves cannot overflow when subtracted (a Python float overflows to inf
    # without a warning). The half sum keeps symmetric entries' bits, subnormal
    # ones too; only entries of 2^1023 or more need their halves added.
    half = 0.5 * a
    gap = 2.0 * float(np.abs(half - half.T).max(initial=0.0))
    if gap > SYM_TOL * scale:
        raise ShapeError(f"matrix is not symmetric (max asymmetry {gap:.3e})")
    if scale < 2.0**1023:
        return 0.5 * (a + a.T)
    with np.errstate(over="ignore"):
        s = 0.5 * (a + a.T)
    return np.where(np.isfinite(s), s, half + half.T)


def check_correlation(corr: np.ndarray) -> np.ndarray:
    """Validate a correlation matrix (symmetric as in symmetrize, unit
    diagonal and entries in [-1, 1], both to 1e-12) and return it
    symmetrized."""
    c = symmetrize(corr)
    if np.abs(np.diag(c) - 1.0).max(initial=0.0) > 1e-12:
        raise DataError("correlation matrix must have a unit diagonal")
    if np.abs(c).max(initial=0.0) > 1.0 + 1e-12:
        raise DataError("correlation entries must lie in [-1, 1]")
    return c


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor together with the log-determinant of the input."""

    lower: np.ndarray
    logdet: float


def _factor_into(a: np.ndarray, low: np.ndarray) -> bool:
    """Write the lower Cholesky factor of ``a`` into ``low``, the same bits as
    np.linalg.cholesky(a); False if numpy cannot factor ``a``.

    For the simulators' step loops, which call it inside one
    np.errstate(all="ignore") (outside one, a failure also warns): it calls
    numpy's Cholesky gufunc without np.linalg.cholesky's per-call wrapper
    (array conversion, shape and type checks, an errstate), which costs
    about twice the factorization of a 15 x 15 matrix. The gufunc fills a
    factor it cannot find with NaN, and a factor it finds has sqrt(a[0, 0])
    at [0, 0], so it failed exactly when low[0, 0] is NaN and a[0, 0] is not
    (numpy's LAPACK factors NaN pivots without failing). Fits factor once
    per evaluation and keep np.linalg.cholesky."""
    _umath_linalg.cholesky_lo(a, out=low)
    return not math.isnan(low[0, 0]) or math.isnan(a[0, 0])


def _factor(a: np.ndarray, what: str) -> CholFactor:
    """Factor ``a`` (numpy reads its lower triangle). When numpy cannot,
    raises NotPositiveDefiniteError naming ``what`` and the failing pivot:
    the last index of the first leading block numpy cannot factor, found by
    bisection, since every leading block of a PD block is PD."""
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        good, bad = 0, a.shape[0]  # orders of a leading block that factors, and one that does not
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                np.linalg.cholesky(a[:mid, :mid])
                good = mid
            except np.linalg.LinAlgError:
                bad = mid
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite (pivot {bad - 1})", pivot=bad - 1
        ) from None
    return CholFactor(lower=lower, logdet=2.0 * float(np.log(np.diag(lower)).sum()))


def cholesky(m: np.ndarray) -> CholFactor:
    """Factor a symmetric positive definite matrix.

    Raises NotPositiveDefiniteError (with the failing pivot index) when the
    matrix is not PD.
    """
    return _factor(symmetrize(m), "matrix")


def _check_independent(cov: np.ndarray, what: str, labels) -> None:
    """DataError naming, by ``labels``, the first series of the covariance
    (or correlation) ``what`` that is numerically a linear combination of
    the series before it: its squared Cholesky pivot is below
    MIN_CORR_PIVOT_SQ of its variance, or numpy cannot factor it there."""
    try:
        low = cholesky(cov).lower
    except NotPositiveDefiniteError as exc:
        j = exc.pivot
    else:
        bad = np.flatnonzero(np.diag(low) ** 2 < MIN_CORR_PIVOT_SQ * np.diag(cov))
        j = bad[0] if bad.size else None
    if j is not None:
        raise DataError(f"{what} is (numerically) singular: series {labels[j]} is a linear "
                        "combination of the series before it")


def _checked_pd(m: np.ndarray, n: int, what: str) -> tuple[np.ndarray, CholFactor]:
    """``m`` symmetrized and its factor if it is (n, n) and PD; errors name ``what``."""
    try:
        a = symmetrize(m)
    except (ShapeError, DataError) as exc:
        raise type(exc)(f"{what}: {exc}") from None
    if a.shape != (n, n):
        raise ShapeError(f"{what} must be ({n}, {n}), got {a.shape}")
    return a, _factor(a, f"{what}: matrix")


def nearest_pd(m: np.ndarray) -> np.ndarray:
    """Eigenvalue-clipped positive definite repair.

    Eigenvalues below PD_FLOOR are raised to PD_FLOOR and the matrix is
    reassembled. A matrix already PD with min eigenvalue >= PD_FLOOR is
    returned unchanged (up to exact symmetrization). Output is exactly
    symmetric.
    """
    a = symmetrize(m)
    w, v = np.linalg.eigh(a)
    # slack absorbs eigh roundoff so repairing is idempotent
    slack = 1e-12 * max(1.0, float(np.abs(a).max()))
    if float(w.min()) >= PD_FLOOR - slack:
        return a
    w = np.maximum(w, PD_FLOOR)
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
    n = cp.lower.shape[0]
    # Tr(Q^{-1} P) = ||Lq^{-1} Lp||_F^2 with P = Lp Lp', Q = Lq Lq'.
    y = np.linalg.solve(cq.lower, cp.lower)
    trace = float((y * y).sum())
    return 0.5 * (cq.logdet - cp.logdet + trace - n)


def _factor_stack_into(h: np.ndarray, low: np.ndarray, t0: int = 0) -> None:
    """Write the lower Cholesky factors of the (k, N, N) stack ``h`` into
    ``low``, the same bits as np.linalg.cholesky(h), which calls the same
    gufunc and reads only lower triangles. The gufunc signals a matrix it
    cannot factor as an invalid operation, as np.linalg.cholesky sees it;
    then NotPositiveDefiniteError names the first such matrix as time index
    t0 + t."""
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            _umath_linalg.cholesky_lo(h, out=low)
            return
        except FloatingPointError:
            pass
    for t in range(h.shape[0]):
        _factor(h[t], f"matrix at time index {t0 + t}")
    raise np.linalg.LinAlgError("stack not factored")  # unreachable: some t must fail


def _lower_inverse(lowers: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Inverses M of a (T, N, N) stack of lower triangular factors L, written
    into ``m``, which must be zero above the diagonal, by forward
    substitution row by row across the stack: the diagonal first, M_ii =
    1 / L_ii, then M_i,:i = -L_i,:i M_:i,:i / L_ii. Returns ``m``."""
    rdiag = np.einsum("tii->ti", m)  # a writable view of m's diagonals
    np.divide(1.0, np.diagonal(lowers, axis1=1, axis2=2), out=rdiag)
    for i in range(1, lowers.shape[1]):
        row = m[:, i : i + 1, :i]
        np.matmul(lowers[:, i : i + 1, :i], m[:, :i, :i], out=row)
        row *= -rdiag[:, i, None, None]
    return m


class _PathBuffers:
    """Every array the Gaussian path kernel writes, for up to ``rows`` rows
    of n series: fresh for each gaussian_path_loglik call, or held by a
    caller that evaluates many row blocks of one shape, so that an
    evaluation allocates nothing of size T. Only the lower triangles of
    ``linv`` are ever written; the rest stays zero."""

    def __init__(self, rows: int, n: int):
        self.low, self.hinv, self.g, self.tmp = (np.empty((rows, n, n)) for _ in range(4))
        self.linv = np.zeros((rows, n, n))
        self.hx = np.empty((rows, n, 1))
        self.xhx = np.empty((rows, n))
        self.logdets = np.empty(rows)


def gaussian_path_loglik(
    h: np.ndarray,
    x: np.ndarray,
    target: tuple[np.ndarray, float] | None = None,
    grad: bool = False,
):
    """Gaussian kernel of a (T, N, N) covariance stack against (T, N)
    vectors, optionally penalized by a target given as the pair
    (P, log|P|), P symmetric PD as targeting.TargetSpec checks it:

        value = -1/2 sum_t (log|H_t| + x_t' H_t^{-1} x_t) - sum_t KL(P, H_t)

    One stacked factorization H_t = L_t L_t' gives log|H_t|; forward
    substitution gives L_t^{-1}, and H_t^{-1} = L_t^{-T} L_t^{-1} gives
    H_t^{-1} x_t. With ``grad`` returns (value, G) where G[t] = d value /
    d H_t, entries taken as independent:

        G_t = -1/2 (H_t^{-1} - H_t^{-1} x_t x_t' H_t^{-1})
              - 1/2 (H_t^{-1} - H_t^{-1} P H_t^{-1})   (with a target)

    Only the lower triangles of H_t are read.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ShapeError(f"expected a (T, N, N) stack, got shape {h.shape}")
    x = np.asarray(x, dtype=float)
    if x.shape != h.shape[:2]:
        raise ShapeError(f"vectors {x.shape} do not match stack {h.shape}")
    return _path_loglik(h, x, target, grad, _PathBuffers(*x.shape))


def _path_loglik(h, x, target, grad, buf: _PathBuffers, t0: int = 0):
    """gaussian_path_loglik over the k = len(x) rows of a block, every array
    written into the first k rows of ``buf``; G, with ``grad``, is a view of
    buf.g, valid until the next call. A matrix that does not factor is
    named as time index t0 + t."""
    k, n = x.shape
    low, linv, hinv, g = (a[:k] for a in (buf.low, buf.linv, buf.hinv, buf.g))
    _factor_stack_into(h, low, t0)
    _lower_inverse(low, linv)
    np.matmul(np.swapaxes(linv, 1, 2), linv, out=hinv)
    hx = np.matmul(hinv, x[:, :, None], out=buf.hx[:k])[:, :, 0]
    logdets = np.log(np.diagonal(low, axis1=1, axis2=2), out=buf.xhx[:k]).sum(
        axis=1, out=buf.logdets[:k])
    logdets *= 2.0
    ld = float(logdets.sum())
    value = -0.5 * (ld + float(np.multiply(x, hx, out=buf.xhx[:k]).sum()))
    if target is not None:
        p, p_logdet = target
        if p.shape != (n, n):
            raise ShapeError(f"target must be ({n}, {n}), got {p.shape}")
        trace = float(np.multiply(hinv, p, out=g).sum())  # sum_t Tr(H_t^{-1} P)
        value -= 0.5 * (ld - k * p_logdet + trace - k * n)
    if not grad:
        return value
    np.multiply(hx[:, :, None], hx[:, None, :], out=g)
    if target is not None:  # low, factored and read, is scratch from here
        g += np.matmul(np.matmul(hinv, p, out=low), hinv, out=buf.tmp[:k])
        hinv *= 2.0
    g -= hinv
    g *= 0.5
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
