"""Simple kriging of zero-mean residual fields.

Data kriging has one home, ``krige_block``: it krigs a block of targets
from their distances to the sites, with the weights' right-hand side
alpha = Sigma^-1 r solved once per map by the caller through the Cholesky
factor of the data-data covariance, so no explicit inverse is formed.
The fit command's map (``bootstrap.prediction_map``) runs it once per
block of map nodes, so no whole-map array of covariances or distances
exists. The bootstrap operator forms C0 Sigma^-1 inside its gain rows
instead (``bootstrap._gain_blocks``), without the coincidence rule.
"""

from __future__ import annotations

import numpy as np

from .variogram import covariance_matrix

COINCIDENT_TOL = 1e-12


def krige_block(model, residuals: np.ndarray, alpha: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Simple kriging predictions at a block of targets from their (m, n)
    distances ``dists`` to the data sites.

    ``alpha`` is Sigma^-1 ``residuals``, solved once per map by the caller.
    The block's covariances C0 come from ``model`` at ``dists`` and the
    predictions are C0 alpha, except that a target within
    ``COINCIDENT_TOL`` of a site returns that site's residual, which is
    the exact limit under the zero-at-zero-lag convention of the
    semivariogram.
    """
    pred = covariance_matrix(model, dists) @ alpha
    t_idx, s_idx = np.nonzero(dists <= COINCIDENT_TOL)
    pred[t_idx] = residuals[s_idx]
    return pred
