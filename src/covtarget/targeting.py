"""Threshold-correlation covariance targets.

The target is built from whole-sample moments: correlations with magnitude
at or below the threshold are zeroed (diagonal kept at one), the result is
repaired to positive definite if needed, and rescaled by the sample standard
deviations to a covariance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SampleMoments
from .errors import DataError
from .linalg import cholesky, nearest_pd, symmetrize

PD_FLOOR = 1e-8


@dataclass(frozen=True)
class TargetSpec:
    """A fitted-model target: thresholded correlation and its covariance form.

    z_hat     raw thresholded correlation (unit diagonal, zeros at or below
              delta in magnitude); may be indefinite.
    z_hat_pd  eigenvalue-repaired PD version used inside penalties.
    sigma_hat gamma @ z_hat_pd @ gamma, the covariance-scale target.
    """

    delta: float
    z_hat: np.ndarray
    z_hat_pd: np.ndarray
    sigma_hat: np.ndarray
    pd_adjusted: bool

    def __post_init__(self):
        for name in ("z_hat", "z_hat_pd", "sigma_hat"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.z_hat.shape[0]


def threshold_correlation(corr: np.ndarray, delta: float) -> np.ndarray:
    """Zero out correlations with |rho| <= delta (strict survival: |rho| >
    delta); diagonal stays exactly one."""
    delta = float(delta)
    if not (0.0 <= delta < 1.0):
        raise DataError(f"threshold delta must be in [0, 1), got {delta}")
    c = symmetrize(corr)
    if np.abs(c).max() > 1.0 + 1e-12:
        raise DataError("correlation entries must lie in [-1, 1]")
    z = np.where(np.abs(c) > delta, c, 0.0)
    np.fill_diagonal(z, 1.0)
    return z


def build_target(moments: SampleMoments, delta: float) -> TargetSpec:
    """Threshold the sample correlation at ``delta``, repair it to PD
    (eigenvalue floor PD_FLOOR) and rescale it to covariance."""
    z = threshold_correlation(moments.corr, delta)
    z_pd = nearest_pd(z, floor=PD_FLOOR)
    sigma = moments.gamma @ z_pd @ moments.gamma
    sigma = 0.5 * (sigma + sigma.T)
    cholesky(sigma)  # fail fast if the floor was too small for this scale
    return TargetSpec(
        delta=float(delta),
        z_hat=z,
        z_hat_pd=z_pd,
        sigma_hat=sigma,
        pd_adjusted=not np.array_equal(z_pd, z),
    )
