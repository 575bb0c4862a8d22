"""Simple kriging of zero-mean residual fields.

The data-data covariance is factorized once and reused across predictions
and bootstrap replicates; predictions never form an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SpatialSample, cross_distances, pairwise_distances
from .numerics import CholeskyFactor, cholesky, solve_spd
from .variogram import covariance_matrix

COINCIDENT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrigingSystem:
    """Data locations, the Cholesky factor of their covariance, and the
    fitted covariance model; immutable and safe to share across workers."""

    locations: np.ndarray
    factor: CholeskyFactor
    model: object  # anything exposing .sill and .semivariance(u)

    @property
    def n(self) -> int:
        return self.locations.shape[0]


def build_system(locations, model) -> KrigingSystem:
    """Assemble and factorize the data-data covariance for a fitted model."""
    locs = locations.locations if isinstance(locations, SpatialSample) else np.atleast_2d(
        np.asarray(locations, dtype=np.float64)
    )
    factor = cholesky(covariance_matrix(model, pairwise_distances(locs)))
    return KrigingSystem(locations=locs, factor=factor, model=model)


def covariance_to_targets(system: KrigingSystem, targets) -> np.ndarray:
    """(m, n) matrix of covariances between targets and data sites."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    return covariance_matrix(system.model, cross_distances(targets, system.locations))


def sk_predict(system: KrigingSystem, residuals, targets, return_variance=False):
    """Simple kriging predictions (and optionally variances) at targets.

    Weights solve the factored system against the target covariances; a
    target coinciding with a data site returns that site's residual
    directly, which is the exact limit under the zero-at-zero-lag
    convention of the semivariogram.
    """
    residuals = np.asarray(residuals, dtype=np.float64).ravel()
    if residuals.shape[0] != system.n:
        raise ValueError("residual vector length does not match the system")
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    c0 = covariance_to_targets(system, targets)
    alpha = solve_spd(system.factor, residuals)
    pred = c0 @ alpha

    d = cross_distances(targets, system.locations)
    coincident = d <= COINCIDENT_TOL
    if coincident.any():
        t_idx, s_idx = np.nonzero(coincident)
        pred[t_idx] = residuals[s_idx]

    if not return_variance:
        return pred
    lam = solve_spd(system.factor, c0.T)
    var = system.model.sill - np.einsum("mn,nm->m", c0, lam)
    if coincident.any():
        var[t_idx] = 0.0
    return pred, var
