"""Exact invariances of the pipeline: isotropic scaling of the coordinates,
affine maps of the response with the thresholds mapped to match, and the
order of the sites.

Every test runs on ``synth_dataset(200, seed=1)`` with a square-root
response, a 20 x 20 map grid over the sites' bounding box and B = 200
replicates at bootstrap seed 3. One fit takes about 0.4 s on one BLAS
thread. The bounds were written down before the tests were first run; u is
the unit roundoff and n = 200.

Scaling and affine maps leave every selection unchanged and move each
computed value by rounding only, so the maps are array-equal (no replicate
value lies within rounding of a threshold). Site order is different: the
bootstrap whitens with the Cholesky factor, and L^-1 r depends on the
order, so the maps are not invariant. What is invariant is checked instead:
the selections, the fit, the operator's offset W f and, per node,
|gain_i|^2, which sets the replicate variance mean(e^2) |gain_i|^2 and does
not depend on the order since gain gain^T = W Sigma W^T.
"""

import numpy as np
import pytest

from georisk.bootstrap import block_engines, fit_pipeline, map_targets, risk_maps
from georisk.geometry import SpatialSample, make_regular_grid, pairwise_distances
from georisk.io import synth_dataset
from georisk.variogram import covariance_matrix

U = np.finfo(np.float64).eps / 2
THRESHOLDS = (1.0, 2.0)


def _fit(locations, values):
    return fit_pipeline(SpatialSample(locations, values))


def _grid(fit):
    locs = fit.sample.locations
    return make_regular_grid(list(zip(locs.min(axis=0), locs.max(axis=0))), (20, 20))


def _maps(fit, thresholds):
    return np.array([m.probabilities for m in risk_maps(fit, _grid(fit), thresholds, 200, 3)])


@pytest.fixture(scope="module")
def base():
    locations, values = synth_dataset(200, seed=1)
    values = np.sqrt(values)
    fit = _fit(locations, values)
    return locations, values, fit, _maps(fit, THRESHOLDS)


@pytest.mark.parametrize("s", [1e-3, 1e4])
def test_scaled_coordinates_scale_the_bandwidths_and_keep_the_maps(base, s):
    locations, values, fit, maps = base
    scaled = _fit(locations * s, values)
    # h comes from the grid on the median nearest-neighbour spacing delta,
    # which median_nn_spacing forms by the Gram shortcut |a|^2 + |b|^2 - 2 a.b:
    # each squared distance errs by about 4 u R^2 (R the largest |x|), so
    # delta by 2 u R^2 / delta^2 relative, on either side of the scaling
    d = pairwise_distances(locations)
    np.fill_diagonal(d, np.inf)
    delta = np.median(d.min(axis=1))
    r2 = np.max(np.sum(locations**2, axis=1))
    h, h_s = fit.bandwidth.diagonal_scales(), scaled.bandwidth.diagonal_scales()
    assert np.all(np.abs(h_s - s * h) <= 8 * U * r2 / delta**2 * s * h)
    # g is a fixed fraction of the largest pair distance, a difference of
    # coordinates about as large as itself: a few roundings each side
    assert abs(scaled.lag_bandwidth - s * fit.lag_bandwidth) <= 16 * U * s * fit.lag_bandwidth
    assert np.array_equal(_maps(scaled, THRESHOLDS), maps, equal_nan=True)


def test_affine_response_keeps_the_selections_and_the_maps(base):
    locations, values, fit, maps = base
    mapped = _fit(locations, 3.0 * values - 7.0)
    assert np.array_equal(mapped.bandwidth.entries, fit.bandwidth.entries)
    assert mapped.lag_bandwidth == fit.lag_bandwidth
    thresholds = tuple(3.0 * c - 7.0 for c in THRESHOLDS)
    assert np.array_equal(_maps(mapped, thresholds), maps, equal_nan=True)


def _operator(fit, nodes, covariance):
    """Per-node offsets and squared gain-row norms of one estimate's
    operator at ``nodes``, with the node mask."""
    engines = list(block_engines(fit.trend_fit, map_targets(fit.trend_fit, nodes), covariance))
    offset = np.concatenate([e.offset for e in engines])
    norms = np.concatenate([np.sum(e.gain**2, axis=1) for e in engines])
    return offset, norms, np.concatenate([e.mask for e in engines])


def test_permuted_sites_keep_the_fit_and_the_operator_moments(base):
    locations, values, fit, _ = base
    n = len(values)
    order = np.random.default_rng(0).permutation(n)
    perm = _fit(locations[order], values[order])
    assert np.array_equal(perm.bandwidth.entries, fit.bandwidth.entries)
    assert perm.lag_bandwidth == fit.lag_bandwidth
    # reordered sums of n terms differ by at most n u of their absolute
    # sums; 1e3 covers the centred 3 x 3 site designs' conditioning and the
    # bias correction's few passes over the residuals
    tol = 1e3 * n * U
    fitted = fit.trend_fit.fitted
    assert np.all(np.abs(perm.trend_fit.fitted - fitted[order]) <= tol * np.abs(fitted).max())
    pilot, pilot_p = fit.pilot_corrected.estimates, perm.pilot_corrected.estimates
    assert np.all(np.abs(pilot_p - pilot) <= tol * np.abs(pilot).max())
    sill = fit.corrected_model.sill
    assert abs(perm.corrected_model.sill - sill) <= tol * sill

    # W f and |gain_i|^2 go through one solve with Sigma each, erring by
    # about n u kappa(Sigma) relative to the terms they add
    nodes = _grid(fit).nodes()
    dists = pairwise_distances(locations)
    for covariance, covariance_p in zip(fit.estimates, perm.estimates):
        bound = 4 * n * U * np.linalg.cond(covariance_matrix(covariance[0], dists))
        offset, norms, mask = _operator(fit, nodes, covariance)
        offset_p, norms_p, mask_p = _operator(perm, nodes, covariance_p)
        assert np.array_equal(mask_p, mask)
        assert np.all(np.abs(offset_p - offset) <= bound * np.abs(offset).max())
        assert np.all(np.abs(norms_p - norms) <= bound * norms)
