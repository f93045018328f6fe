"""Threshold-correlation covariance targets.

The target is built from whole-sample moments: correlations with magnitude
at or below the threshold are zeroed (diagonal kept at one), the result is
repaired to positive definite if needed, and rescaled by the sample standard
deviations to a covariance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SampleMoments
from .errors import DataError
from .linalg import _checked_pd, check_correlation, nearest_pd, symmetrize


@dataclass(frozen=True)
class TargetSpec:
    """A fitted-model target: thresholded correlation and its covariance form.

    z_hat     raw thresholded correlation (unit diagonal, zeros at or below
              delta in magnitude); may be indefinite.
    z_hat_pd  eigenvalue-repaired PD version used inside penalties.
    sigma_hat gamma @ z_hat_pd @ gamma, the covariance-scale target.

    The constructor checks z_hat_pd and sigma_hat to be PD of z_hat's order,
    once, so the penalties need not; it derives pd_adjusted (the repair
    changed z_hat) and their log-determinants z_logdet and sigma_logdet.
    """

    delta: float
    z_hat: np.ndarray
    z_hat_pd: np.ndarray
    sigma_hat: np.ndarray
    pd_adjusted: bool = field(init=False)
    z_logdet: float = field(init=False)
    sigma_logdet: float = field(init=False)

    def __post_init__(self):
        z = symmetrize(self.z_hat)
        z_pd, z_factor = _checked_pd(self.z_hat_pd, z.shape[0], "correlation target")
        sigma, sigma_factor = _checked_pd(self.sigma_hat, z.shape[0], "target")
        for name, a in (("z_hat", z), ("z_hat_pd", z_pd), ("sigma_hat", sigma)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "pd_adjusted", not np.array_equal(z_pd, z))
        object.__setattr__(self, "z_logdet", z_factor.logdet)
        object.__setattr__(self, "sigma_logdet", sigma_factor.logdet)


def check_delta(delta: float) -> float:
    """``delta`` as a float, if it is a threshold in [0, 1)."""
    delta = float(delta)
    if not (0.0 <= delta < 1.0):
        raise DataError(f"threshold delta must be in [0, 1), got {delta}")
    return delta


def threshold_correlation(corr: np.ndarray, delta: float) -> np.ndarray:
    """Zero out correlations with |rho| <= delta (strict survival: |rho| >
    delta); diagonal stays exactly one. ``corr`` must pass
    linalg.check_correlation."""
    delta = check_delta(delta)
    c = check_correlation(corr)
    z = np.where(np.abs(c) > delta, c, 0.0)
    np.fill_diagonal(z, 1.0)
    return z


def build_target(moments: SampleMoments, delta: float) -> TargetSpec:
    """Threshold the sample correlation at ``delta``, repair it to PD
    (eigenvalue floor linalg.PD_FLOOR) and rescale it to covariance; the
    TargetSpec checks that the floor was enough at this scale."""
    z = threshold_correlation(moments.corr, delta)
    z_pd = nearest_pd(z)
    return TargetSpec(
        delta=float(delta),
        z_hat=z,
        z_hat_pd=z_pd,
        sigma_hat=moments.gamma @ z_pd @ moments.gamma,
    )
