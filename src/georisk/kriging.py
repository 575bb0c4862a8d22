"""Simple kriging of zero-mean residual fields.

The data-data covariance is factorized once and reused across predictions
and bootstrap replicates; predictions never form an explicit inverse.
Data kriging has one home, ``krige_block``: it krigs a block of targets
from their distances to the sites, with the weights' right-hand side
alpha = Sigma^-1 r solved once per map by the caller. ``sk_predict`` is
that step on one block of all its targets; the fit command's map runs it
once per block of map nodes, so no whole-map array of covariances or
distances exists there.
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


def krige_block(model, residuals: np.ndarray, alpha: np.ndarray, dists: np.ndarray) -> tuple:
    """Simple kriging predictions at a block of targets from their (m, n)
    distances ``dists`` to the data sites.

    ``alpha`` is Sigma^-1 ``residuals``, solved once per map by the caller.
    The block's covariances C0 come from ``model`` at ``dists`` and the
    predictions are C0 alpha, except that a target within
    ``COINCIDENT_TOL`` of a site returns that site's residual, which is
    the exact limit under the zero-at-zero-lag convention of the
    semivariogram. Returns the predictions, C0 and the indices of the
    coincident targets.
    """
    c0 = covariance_matrix(model, dists)
    pred = c0 @ alpha
    t_idx, s_idx = np.nonzero(dists <= COINCIDENT_TOL)
    pred[t_idx] = residuals[s_idx]
    return pred, c0, t_idx


def sk_predict(system: KrigingSystem, residuals, targets, return_variance=False):
    """Simple kriging predictions (and optionally variances) at targets.

    All targets form one block of ``krige_block``; a target coinciding
    with a data site returns that site's residual, with variance 0.
    """
    residuals = np.asarray(residuals, dtype=np.float64).ravel()
    if residuals.shape[0] != system.n:
        raise ValueError("residual vector length does not match the system")
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    alpha = solve_spd(system.factor, residuals)
    pred, c0, coincident = krige_block(
        system.model, residuals, alpha, cross_distances(targets, system.locations)
    )
    if not return_variance:
        return pred
    lam = solve_spd(system.factor, c0.T)
    var = system.model.sill - np.einsum("mn,nm->m", c0, lam)
    var[coincident] = 0.0
    return pred, var
