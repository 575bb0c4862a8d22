import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import sk_weights_dense
from georisk.geometry import cross_distances, pairwise_distances
from georisk.kriging import build_system, sk_predict
from georisk.variogram import GAUSSIAN_DIM, VariogramModel, covariance_matrix


def exp_model(nugget=0.0, weight=0.3, freq=2.0):
    return VariogramModel(
        nugget=nugget, node_freqs=[freq], node_weights=[weight], kernel_dim=GAUSSIAN_DIM
    )


def test_pure_nugget_system_factor():
    model = VariogramModel(nugget=0.25, node_freqs=[], node_weights=[])
    locs = np.random.default_rng(0).uniform(size=(5, 2))
    system = build_system(locs, model)
    assert_allclose(system.factor.L, 0.5 * np.eye(5), atol=1e-12)


def test_two_point_system_hand_factor():
    model = exp_model()
    locs = np.array([[0.0, 0.0], [0.5, 0.0]])
    system = build_system(locs, model)
    cov = model.sill - model.semivariance(pairwise_distances(locs))
    assert_allclose(system.factor.L @ system.factor.L.T, cov, atol=1e-12)


def test_exact_interpolation_zero_nugget():
    rng = np.random.default_rng(1)
    locs = rng.uniform(size=(15, 2))
    resid = rng.normal(size=15)
    system = build_system(locs, exp_model(nugget=0.0))
    pred = sk_predict(system, resid, locs)
    assert_allclose(pred, resid, atol=1e-8)


def test_far_target_shrinks_to_zero():
    rng = np.random.default_rng(2)
    locs = rng.uniform(size=(10, 2))
    resid = rng.normal(size=10)
    system = build_system(locs, exp_model(freq=5.0))
    pred = sk_predict(system, resid, np.array([[500.0, 500.0]]))
    assert abs(pred[0]) < 1e-6 * np.abs(resid).max()


def test_single_point_scalar_solve():
    model = exp_model(nugget=0.0, weight=0.4, freq=1.0)
    locs = np.array([[0.0, 0.0]])
    resid = np.array([2.0])
    system = build_system(locs, model)
    d = 0.3
    pred = sk_predict(system, resid, np.array([[d, 0.0]]))
    cov_d = model.sill - model.semivariance(d)
    assert pred[0] == pytest.approx((cov_d / model.sill) * 2.0, rel=1e-10)


def test_linearity():
    rng = np.random.default_rng(3)
    locs = rng.uniform(size=(12, 2))
    system = build_system(locs, exp_model(nugget=0.05))
    r1 = rng.normal(size=12)
    r2 = rng.normal(size=12)
    targets = rng.uniform(size=(7, 2))
    a, b = 1.7, -0.4
    combo = sk_predict(system, a * r1 + b * r2, targets)
    parts = a * sk_predict(system, r1, targets) + b * sk_predict(system, r2, targets)
    assert_allclose(combo, parts, atol=1e-10)


def test_matches_dense_inverse_oracle():
    rng = np.random.default_rng(4)
    for n in (5, 12, 30):
        locs = rng.uniform(size=(n, 2))
        resid = rng.normal(size=n)
        model = exp_model(nugget=0.02, weight=0.3, freq=3.0)
        system = build_system(locs, model)
        targets = rng.uniform(size=(9, 2))
        pred = sk_predict(system, resid, targets)
        cov_dd = model.sill - model.semivariance(pairwise_distances(locs))
        c0 = covariance_matrix(model, cross_distances(targets, locs))
        oracle = np.array([sk_weights_dense(cov_dd, c0[t]) @ resid for t in range(9)])
        assert_allclose(pred, oracle, atol=1e-8)


def test_kriging_variance_nonnegative_and_zero_at_data():
    rng = np.random.default_rng(5)
    locs = rng.uniform(size=(10, 2))
    resid = rng.normal(size=10)
    system = build_system(locs, exp_model(nugget=0.0))
    targets = np.vstack([locs[3], rng.uniform(size=(4, 2))])
    pred, var = sk_predict(system, resid, targets, return_variance=True)
    assert var[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(var >= -1e-10)
    assert np.all(var <= system.model.sill + 1e-10)


def test_shrinkage_bound():
    rng = np.random.default_rng(6)
    locs = rng.uniform(size=(20, 2))
    resid = rng.normal(size=20)
    system = build_system(locs, exp_model(nugget=0.05, weight=0.3, freq=2.0))
    targets = rng.uniform(size=(40, 2))
    pred = sk_predict(system, resid, targets)
    assert np.abs(pred).max() <= np.abs(resid).max() * (1.0 + 1e-6)
