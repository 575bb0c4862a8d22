import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import (
    _scaled_kernel,
    _weight_rows,
    dense_bandwidth_scores,
    select_bandwidth_per_candidate,
    select_from_scores,
    solve_e1_rowwise,
    wls_affine_hat_row,
)
from georisk import trend
from georisk.bootstrap import fit_pipeline
from georisk.exceptions import BandwidthTooSmallError, ConfigError, DataError
from georisk.geometry import (
    BandwidthMatrix,
    SpatialSample,
    make_regular_grid,
    pairwise_distances,
)
from georisk.io import synth_dataset
from georisk.numerics import _triweight_1d
from georisk.simulation import (
    _DesignContext,
    simulate_field,
    table1_scenario,
    table3_scenario,
)
from georisk.trend import (
    cgcv_score,
    cv_score,
    default_bandwidth_grid,
    fit_trend,
    gcv_score,
    mase_score,
    median_nn_spacing,
    select_bandwidth,
    smoother_matrix,
)
from georisk.variogram import correlation_matrix


def bench_surface(pts):
    """Smooth benchmark surface used throughout the tests."""
    pts = np.atleast_2d(pts)
    return 2.5 + np.sin(2.0 * np.pi * pts[:, 0]) + 4.0 * (pts[:, 1] - 0.5) ** 2


def unit_grid_sample(nx, ny, values=None):
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (nx, ny)).nodes()
    if values is None:
        values = bench_surface(locs)
    return SpatialSample(locs, values)


def random_sample(rng, n, values=None):
    locs = rng.uniform(size=(n, 2))
    if values is None:
        values = rng.normal(size=n)
    return SpatialSample(locs, values)


def predict(fit, targets):
    """The trend of ``fit`` at ``targets``, each of which has a local fit."""
    rows, bad = trend.prediction_weights(fit, np.atleast_2d(targets))
    assert not bad
    return rows @ fit.sample.values


def weights_at(sample, x, h):
    """s_x, the weight row at point ``x`` at bandwidth ``h``, from the
    engine behind ``prediction_weights``, so that the sites need no fit."""
    local = trend._local_fit(sample, h, points=np.atleast_2d(x))
    assert not local.bad.size
    return local.hat_matrix()[0]


H_MED = BandwidthMatrix.diagonal(0.35, 0.35)
SEARCH_NEIGHBORS = 9  # the search's admissibility rule, 3 (d + 1) kernel neighbors


# ---------------------------------------------------------------------------
# local linear weights
# ---------------------------------------------------------------------------


def test_weights_reproduce_affine():
    rng = np.random.default_rng(0)
    locs = rng.uniform(size=(40, 2))
    a, b = 1.7, np.array([0.8, -2.1])
    y = a + locs @ b
    sample = SpatialSample(locs, y)
    for h in (0.25, 0.5, 0.9):
        hmat = BandwidthMatrix.diagonal(h, h)
        for x in ([0.5, 0.5], [0.25, 0.75], [0.9, 0.1]):
            s = weights_at(sample, np.asarray(x), hmat)
            assert s @ y == pytest.approx(a + np.asarray(x) @ b, abs=1e-10)
            assert s.sum() == pytest.approx(1.0, abs=1e-10)
            moments = s @ (locs - np.asarray(x))
            assert_allclose(moments, [0.0, 0.0], atol=1e-8)


def test_weights_huge_bandwidth_is_ols_hat():
    rng = np.random.default_rng(1)
    locs = rng.uniform(size=(25, 2))
    sample = SpatialSample(locs, rng.normal(size=25))
    x0 = np.array([0.4, 0.6])
    # bandwidth so large that every kernel weight is effectively constant
    h = BandwidthMatrix.diagonal(1e6, 1e6)
    s = weights_at(sample, x0, h)
    oracle = wls_affine_hat_row(locs, x0, np.ones(25))
    assert_allclose(s, oracle, atol=1e-8)


def test_weights_singular_design_raises():
    # a site without a local linear fit raises (a map point is masked)
    sample = SpatialSample([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [1.0, 2.0, 3.0])
    with pytest.raises(BandwidthTooSmallError) as err:
        smoother_matrix(sample, BandwidthMatrix.diagonal(0.1, 0.1))
    assert err.value.neighbors is not None
    assert err.value.neighbors < 3


def test_weights_match_brute_force_wls():
    rng = np.random.default_rng(2)
    locs = rng.uniform(size=(30, 2))
    sample = SpatialSample(locs, rng.normal(size=30))
    h = 0.4
    hmat = BandwidthMatrix.diagonal(h, h)
    for x0 in ([0.5, 0.5], [0.2, 0.8], [0.65, 0.3]):
        x0 = np.asarray(x0)
        u = (locs - x0) / h
        w = np.prod(_triweight_1d(u), axis=-1)
        oracle = wls_affine_hat_row(locs, x0, w)
        ours = weights_at(sample, x0, hmat)
        assert_allclose(ours, oracle, atol=1e-8)


# ---------------------------------------------------------------------------
# smoother matrix
# ---------------------------------------------------------------------------


def test_smoother_constant_data():
    sample = unit_grid_sample(6, 6, values=np.full(36, 2.5))
    s = smoother_matrix(sample, H_MED)
    assert_allclose(s.S @ sample.values, sample.values, atol=1e-10)
    assert_allclose(s.S.sum(axis=1), np.ones(36), atol=1e-10)


def test_smoother_rowwise_equals_per_row_wls():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(15, 50))
        locs = rng.uniform(size=(n, 2))
        sample = SpatialSample(locs, rng.normal(size=n))
        h = float(rng.uniform(0.5, 1.0))
        s = smoother_matrix(sample, BandwidthMatrix.diagonal(h, h)).S
        for i in rng.choice(n, size=4, replace=False):
            u = (locs - locs[i]) / h
            w = np.prod(_triweight_1d(u), axis=-1)
            assert_allclose(s[i], wls_affine_hat_row(locs, locs[i], w), atol=1e-8)


def test_smoother_collinear_rows_match_wls():
    # three sites collinear in the first coordinate
    locs = np.array([[0.2, 0.1], [0.2, 0.5], [0.2, 0.9], [0.7, 0.4], [0.6, 0.8]])
    sample = SpatialSample(locs, np.arange(5.0))
    h = BandwidthMatrix.diagonal(1.5, 1.5)
    s = smoother_matrix(sample, h).S
    for i in range(5):
        u = (locs - locs[i]) / 1.5
        w = np.prod(_triweight_1d(u), axis=-1)
        assert_allclose(s[i], wls_affine_hat_row(locs, locs[i], w), atol=1e-8)


def test_smoother_trace_bounds():
    rng = np.random.default_rng(4)
    sample = unit_grid_sample(8, 8)
    for h in (0.3, 0.5, 0.8, 2.0, 50.0):
        s = smoother_matrix(sample, BandwidthMatrix.diagonal(h, h))
        assert s.trace >= 3.0 - 1e-6
        assert s.trace <= sample.n + 1e-6


def test_smoother_zero_weight_entries_are_zero():
    sample = unit_grid_sample(7, 7)
    h = 0.3
    s = smoother_matrix(sample, BandwidthMatrix.diagonal(h, h)).S
    diff = np.abs(sample.locations[:, None, :] - sample.locations[None, :, :])
    outside = np.any(diff >= h, axis=-1)
    assert np.all(s[outside] == 0.0)


# ---------------------------------------------------------------------------
# fit and predict
# ---------------------------------------------------------------------------


def test_fit_trend_constant_residuals_zero():
    sample = unit_grid_sample(5, 5, values=np.full(25, 2.5))
    fit = fit_trend(sample, H_MED)
    assert_allclose(fit.residuals, np.zeros(25), atol=1e-9)
    assert_allclose(fit.fitted, fit.smoother.S @ sample.values, atol=0)


def test_fit_trend_affine_residuals_zero_mean():
    rng = np.random.default_rng(5)
    locs = rng.uniform(size=(30, 2))
    y = 1.0 + locs @ np.array([2.0, -1.0])
    fit = fit_trend(SpatialSample(locs, y), BandwidthMatrix.diagonal(0.6, 0.6))
    assert_allclose(fit.residuals, np.zeros(30), atol=1e-9)
    assert abs(fit.residuals.mean()) < 1e-9


def test_fit_trend_benchmark_surface_bias():
    # bandwidth pinned by a direct-evaluation oracle run: the triweight
    # product kernel needs h ~ 0.12 for a 0.05 sup-norm bias on this surface
    sample = unit_grid_sample(20, 20)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.12, 0.12))
    truth = bench_surface(sample.locations)
    assert np.abs(fit.fitted - truth).max() < 0.05


def test_predict_at_sample_site_matches_fitted():
    sample = unit_grid_sample(8, 8)
    fit = fit_trend(sample, H_MED)
    pred = predict(fit, sample.locations[12])
    assert pred[0] == pytest.approx(fit.fitted[12], abs=1e-12)


def test_predict_affine_exact_anywhere():
    rng = np.random.default_rng(6)
    locs = rng.uniform(size=(40, 2))
    y = 0.3 + locs @ np.array([1.5, 2.5])
    fit = fit_trend(SpatialSample(locs, y), BandwidthMatrix.diagonal(0.7, 0.7))
    targets = rng.uniform(0.1, 0.9, size=(15, 2))
    assert_allclose(predict(fit, targets), 0.3 + targets @ [1.5, 2.5], atol=1e-9)


def test_predict_benchmark_surface_grid():
    sample = unit_grid_sample(20, 20)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.12, 0.12))
    grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (50, 50))
    pred = predict(fit, grid.nodes())
    truth = bench_surface(grid.nodes())
    assert np.abs(pred - truth).max() < 0.05


def test_predict_failure_lists_nodes():
    sample = unit_grid_sample(5, 5)
    fit = fit_trend(sample, H_MED)
    far = np.array([[25.0, 25.0], [0.5, 0.5]])
    rows, bad = trend.prediction_weights(fit, far)
    assert bad == [0]
    assert not rows[0].any()


def test_prediction_weights_reject_points_of_another_dimension():
    # read on the first axis alone, the 1-D point [0.5] would get a row
    # that sums to 1
    fit = fit_trend(unit_grid_sample(5, 5), H_MED)
    with pytest.raises(DataError, match="1-D against 2-D"):
        trend.prediction_weights(fit, [[0.5]])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_cv_score_equals_explicit_leave_one_out():
    # the hat-diagonal shortcut is exact for local polynomial smoothers:
    # compare against actual delete-one refits
    rng = np.random.default_rng(13)
    locs = rng.uniform(size=(25, 2))
    y = bench_surface(locs) + 0.3 * rng.standard_normal(25)
    sample = SpatialSample(locs, y)
    h = BandwidthMatrix.diagonal(0.8, 0.8)
    by_refit = 0.0
    for i in range(25):
        keep = np.arange(25) != i
        reduced = SpatialSample(locs[keep], y[keep])
        fit = fit_trend(reduced, h)
        pred = predict(fit, locs[i])[0]
        by_refit += (y[i] - pred) ** 2
    by_refit /= 25.0
    assert cv_score(sample, h) == pytest.approx(by_refit, rel=1e-9)


def test_cgcv_equals_gcv_for_identity_correlation():
    rng = np.random.default_rng(7)
    sample = random_sample(rng, 35)
    h = BandwidthMatrix.diagonal(0.5, 0.5)
    g = gcv_score(sample, h)
    c = cgcv_score(sample, h, np.eye(sample.n))
    assert c == pytest.approx(g, abs=1e-12 * max(1.0, g))


def test_cgcv_zero_residuals():
    sample = unit_grid_sample(6, 6, values=np.full(36, 1.0))
    assert cgcv_score(sample, H_MED, np.eye(36)) == pytest.approx(0.0, abs=1e-20)


def test_cgcv_hand_computation():
    rng = np.random.default_rng(8)
    locs = np.array([[0.0, 0.0], [0.3, 0.1], [0.5, 0.55], [0.8, 0.2], [1.0, 1.0]])
    sample = SpatialSample(locs, rng.normal(size=5))
    h = BandwidthMatrix.diagonal(2.0, 2.0)
    r = np.eye(5)
    r[0, 1] = r[1, 0] = 0.4
    s = smoother_matrix(sample, h).S
    resid = sample.values - s @ sample.values
    denom = 1.0 - np.trace(s @ r) / 5.0
    by_hand = np.mean((resid / denom) ** 2)
    assert cgcv_score(sample, h, r) == pytest.approx(by_hand, rel=1e-12)


def test_cgcv_degenerate_denominator_raises():
    sample = unit_grid_sample(4, 4)
    # a correlation-like matrix strong enough to push tr(S R)/n past one
    r = np.ones((16, 16)) * 0.99
    np.fill_diagonal(r, 1.0)
    s = smoother_matrix(sample, BandwidthMatrix.diagonal(5.0, 5.0))
    tr = np.einsum("ij,ji->", s.S, r) / 16.0
    if tr >= 1.0:
        with pytest.raises(BandwidthTooSmallError):
            cgcv_score(sample, BandwidthMatrix.diagonal(5.0, 5.0), r)


def test_mase_affine_zero_variance():
    rng = np.random.default_rng(9)
    locs = rng.uniform(size=(30, 2))
    m = 2.0 + locs @ np.array([1.0, -0.5])
    sample = SpatialSample(locs, m)
    score = mase_score(sample, BandwidthMatrix.diagonal(0.6, 0.6), m, np.zeros((30, 30)))
    assert score == pytest.approx(0.0, abs=1e-16)


def test_mase_matches_dense_evaluation():
    sample = unit_grid_sample(10, 10)
    d = np.linalg.norm(
        sample.locations[:, None, :] - sample.locations[None, :, :], axis=-1
    )
    sigma = 0.12 * np.exp(-3.0 * d / 0.5)
    sigma[np.eye(100, dtype=bool)] = 0.16
    m = bench_surface(sample.locations)
    h = BandwidthMatrix.diagonal(0.3, 0.3)
    s = smoother_matrix(sample, h).S
    brute = ((s @ m - m) @ (s @ m - m)) / 100.0 + np.trace(s @ sigma @ s.T) / 100.0
    assert mase_score(sample, h, m, sigma) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# bandwidth search
# ---------------------------------------------------------------------------


def test_select_single_point_grid():
    sample = unit_grid_sample(7, 7)
    h = BandwidthMatrix.diagonal(0.4, 0.4)
    assert select_bandwidth(sample, "gcv", [h]) is h


def test_select_cgcv_identity_matches_gcv():
    rng = np.random.default_rng(10)
    sample = random_sample(rng, 45)
    grid = default_bandwidth_grid(sample, per_axis=5)
    h_g = select_bandwidth(sample, "gcv", grid)
    h_c = select_bandwidth(sample, "cgcv", grid, correlation=np.eye(sample.n))
    assert_allclose(h_c.entries, h_g.entries)


def test_select_requires_inputs():
    sample = unit_grid_sample(5, 5)
    with pytest.raises(ConfigError):
        select_bandwidth(sample, "cgcv")
    with pytest.raises(ConfigError):
        select_bandwidth(sample, "mase")
    with pytest.raises(ConfigError):
        select_bandwidth(sample, "nope")


def test_select_all_inadmissible_reports_scale():
    sample = unit_grid_sample(6, 6)
    tiny = [BandwidthMatrix.diagonal(1e-4, 1e-4)]
    with pytest.raises(BandwidthTooSmallError, match="doubling"):
        select_bandwidth(sample, "cv", tiny)


def test_default_grid_shape_and_span():
    sample = unit_grid_sample(10, 10)
    grid = default_bandwidth_grid(sample)
    assert len(grid) == 100
    scales = np.array([h.diagonal_scales() for h in grid])
    delta = median_nn_spacing(sample.locations)
    assert scales.min() == pytest.approx(0.5 * delta, rel=1e-12)
    assert scales.max() == pytest.approx(1.0, rel=1e-12)


def test_ties_prefer_larger_determinant():
    # affine data: every admissible bandwidth reproduces exactly, CV = 0
    rng = np.random.default_rng(11)
    locs = rng.uniform(size=(40, 2))
    y = 1.0 + locs @ np.array([0.5, 0.25])
    sample = SpatialSample(locs, y)
    grid = [BandwidthMatrix.diagonal(h, h) for h in (0.5, 0.8, 1.2)]
    chosen = select_bandwidth(sample, "cv", grid)
    assert chosen.det == max(h.det for h in grid)


@pytest.mark.slow
def test_cgcv_smooths_more_than_cv_under_correlation():
    # positively correlated errors: dependence-corrected selection should
    # choose a bandwidth at least as large as plain CV in >= 90% of runs
    rng = np.random.default_rng(12)
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (7, 7)).nodes()
    n = len(locs)
    d = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
    sigma = 0.25 * np.exp(-3.0 * d / 0.6)
    sigma[np.eye(n, dtype=bool)] = 0.25
    corr = sigma / 0.25
    lchol = np.linalg.cholesky(sigma + 1e-12 * np.eye(n))
    grid = [BandwidthMatrix.diagonal(h, h) for h in np.geomspace(0.22, 1.2, 8)]
    wins = 0
    trials = 100
    for _ in range(trials):
        y = bench_surface(locs) + lchol @ rng.standard_normal(n)
        sample = SpatialSample(locs, y)
        h_cv = select_bandwidth(sample, "cv", grid)
        h_cgcv = select_bandwidth(sample, "cgcv", grid, correlation=corr)
        if h_cgcv.det >= h_cv.det:
            wins += 1
    assert wins >= 90


# ---------------------------------------------------------------------------
# moment-based search against the dense hat matrices
# ---------------------------------------------------------------------------


def test_kernel_weights_equal_dense_weights():
    rng = np.random.default_rng(14)
    locs = rng.uniform(size=(300, 2)) * [3.0, 1.0]
    h = BandwidthMatrix.diagonal(0.4, 0.15)
    dense, _ = _scaled_kernel(locs, locs, h)
    assert np.array_equal(trend._kernel_weights(locs, locs, h), dense)
    # the search's stacked W: one first-axis factor times a stack of
    # second-axis factors
    second = trend._axis_factors(locs[:, 1], [0.15, 0.3])
    stacked = trend._axis_factors(locs[:, 0], [0.4]) * second
    for k, h_y in enumerate((0.15, 0.3)):
        dense, _ = _scaled_kernel(locs, locs, BandwidthMatrix.diagonal(0.4, h_y))
        assert np.array_equal(stacked[k], dense)


def test_local_fit_flat_axis_matches_dense_rows():
    # h_1 below the grid spacing: every window is one column of the grid,
    # so the dense design is exactly singular in x; both the dense rows and
    # the local fit clear that axis and give it a unit pivot
    sample = unit_grid_sample(20, 20)
    for h in (BandwidthMatrix.diagonal(0.04, 1.0), BandwidthMatrix.diagonal(0.6, 0.03)):
        fit = trend._local_fit(sample, h, min_neighbors=SEARCH_NEIGHBORS)
        locs = sample.locations
        rows, _ = _weight_rows(locs, locs, h, min_neighbors=SEARCH_NEIGHBORS)
        assert_allclose(fit.hat_matrix(), rows, rtol=0.0, atol=1e-13)
        assert_allclose(fit.smooth(sample.values), rows @ sample.values, rtol=1e-13)


# ---------------------------------------------------------------------------
# rows at other points, against the dense rows
# ---------------------------------------------------------------------------


def test_prediction_masks_nodes_off_a_flat_window():
    # h below the grid spacing on one axis: a node whose window holds a
    # single column (row) of sites and lies off it has no affine fit, so
    # it is masked; every kept row reproduces affine data (to rounding:
    # test_flat_axis_rows_sum_to_one_and_reproduce_affine_data)
    grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (50, 50))
    nodes = grid.nodes()
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (20, 20)).nodes()
    slope = np.array([1.3, -2.1])
    sample = SpatialSample(locs, 0.7 + locs @ slope)
    for scales, axis in (((0.04, 1.0), 0), ((0.6, 0.03), 1)):
        h = BandwidthMatrix.diagonal(*scales)
        seen = _scaled_kernel(nodes, locs, h)[0] > 0.0
        lines = [np.unique(locs[row, axis]) for row in seen]
        off = [
            i for i, line in enumerate(lines)
            if line.size == 1 and abs(line[0] - nodes[i, axis]) > 1e-12
        ]
        assert len(off) > 1000
        fit = fit_trend(sample, h)
        rows, bad = trend.prediction_weights(fit, nodes)
        assert bad == off
        assert not rows[bad].any()
        keep = np.setdiff1d(np.arange(len(nodes)), bad)
        assert np.abs(rows[keep] @ sample.values - (0.7 + nodes[keep] @ slope)).max() <= 1e-8


H_RISKMAP = BandwidthMatrix.diagonal(5.942898252196416, 4.045057152294498)


def _riskmap_design():
    """The benchmark risk map's design: ``synth_dataset(1053, seed=1)``
    under a square-root response, the trend bandwidth its search selects
    and a 50 x 50 grid over the data box."""
    locs, values = synth_dataset(1053, seed=1)
    box = [(locs[:, k].min(), locs[:, k].max()) for k in range(2)]
    fit = fit_trend(SpatialSample(locs, np.sqrt(values)), H_RISKMAP)
    return fit, make_regular_grid(box, (50, 50))


def test_rows_match_dense_rows_at_realistic_size():
    # the same rows by other arithmetic, so they may differ at rounding
    # level only: 1e-12 of the largest entry
    fit, grid = _riskmap_design()
    locs = fit.sample.locations
    rows, bad = trend.prediction_weights(fit, grid.nodes())
    ref, ref_bad = _weight_rows(grid.nodes(), locs, H_RISKMAP, on_singular="mask")
    assert bad == ref_bad
    assert np.abs(rows - ref).max() <= 1e-12 * np.abs(ref).max()
    ref, _ = _weight_rows(locs, locs, H_RISKMAP)
    assert np.abs(fit.smoother.S - ref).max() <= 1e-12 * np.abs(ref).max()


def test_prediction_weights_memory_at_n1053():
    fit, grid = _riskmap_design()
    nodes = grid.nodes()
    tracemalloc.start()
    try:
        trend.prediction_weights(fit, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel matrix, which the rows overwrite, and row-block temporaries
    # (dense rows formed 512 points at a time peaked at 64.4 MB)
    assert peak <= 2 * grid.n_nodes * fit.sample.n * 8 + 4 * 2**20


def _synth_case(n, seed, offset):
    """Square-root synthetic responses, the synthetic trend as the truth,
    and an exponential correlation, with the sites shifted by ``offset``."""
    locs, values = synth_dataset(n, seed=seed)
    sample = SpatialSample(locs + offset, np.sqrt(values))
    corr = np.exp(-3.0 * pairwise_distances(locs) / 8.0)
    true_mean = 1.6 + 0.9 * np.sin(np.pi * locs[:, 0] / 30.0) * np.cos(np.pi * locs[:, 1] / 15.0)
    return sample, {
        "cv": {},
        "gcv": {},
        "cgcv": {"correlation": corr},
        "mase": {"true_mean": true_mean, "covariance": 0.01 * np.eye(n) + 0.09 * corr},
    }


@pytest.mark.parametrize("offset", [0.0, 5e6])
def test_search_matches_dense_rows_at_realistic_size(offset):
    sample, kwargs = _synth_case(1000, 5, offset)
    # the grid comes from the unshifted sites: median_nn_spacing drifts under
    # a large offset, which is not what this test is about
    grid = default_bandwidth_grid(SpatialSample(sample.locations - offset, sample.values))
    ref = dense_bandwidth_scores(
        sample, grid, list(kwargs), **{k: v for kw in kwargs.values() for k, v in kw.items()}
    )
    scorers = {
        "cv": lambda fit: cv_score(sample, fit),
        "gcv": lambda fit: gcv_score(sample, fit),
        "cgcv": lambda fit: cgcv_score(sample, fit, **kwargs["cgcv"]),
        "mase": lambda fit: mase_score(sample, fit, **kwargs["mase"]),
    }
    ours = {c: [] for c in scorers}
    for h in grid:
        try:
            fit = trend._local_fit(sample, h, min_neighbors=SEARCH_NEIGHBORS)
        except BandwidthTooSmallError:
            fit = None
        for c, score in scorers.items():
            try:
                ours[c].append(None if fit is None else score(fit))
            except BandwidthTooSmallError:
                ours[c].append(None)
    for c in scorers:
        assert [s is None for s in ours[c]] == [s is None for s in ref[c]], c
        assert 0 < sum(s is not None for s in ref[c]) < len(grid)
        for a, b in zip(ours[c], ref[c]):
            if b is not None:
                assert abs(a - b) <= 1e-10 * abs(b), c
        chosen = select_bandwidth(sample, c, grid if offset else None, **kwargs[c])
        assert np.array_equal(chosen.entries, select_from_scores(grid, ref[c]).entries), c


def _mase_winners_agree(scenario, replicate):
    design = _DesignContext.truth(scenario, simulate_field(scenario, replicate).locations)
    template = SpatialSample(design.locations, design.m_true)
    kwargs = {"true_mean": design.m_true, "covariance": design.sigma_true}
    grid = default_bandwidth_grid(template)
    ref = dense_bandwidth_scores(template, grid, ["mase"], **kwargs)["mase"]
    chosen = select_bandwidth(template, "mase", **kwargs)
    return np.array_equal(chosen.entries, select_from_scores(grid, ref).entries)


def test_mase_search_matches_dense_rows_on_study_designs():
    # study seed 20240 is the simulation benchmark's seed 1
    assert _mase_winners_agree(table1_scenario("full", seed=20240), 0)
    desk = table3_scenario("desk", seed=20240)
    assert all(_mase_winners_agree(desk, r) for r in range(20))


def test_search_builds_no_hat_matrix_and_scores_each_admissible_candidate_once(monkeypatch):
    sample, kwargs = _synth_case(200, 6, 0.0)
    locs = sample.locations
    grid = default_bandwidth_grid(sample)
    admissible = 0
    for h in grid:
        try:
            _weight_rows(locs, locs, h, min_neighbors=SEARCH_NEIGHBORS)
            admissible += 1
        except BandwidthTooSmallError:
            pass
    assert 0 < admissible < len(grid)

    calls = {}

    def counted(owner, name):
        calls[name] = 0
        fn = getattr(owner, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counted(trend._LocalFit, "hat_matrix")
    for name in ("cv_score", "gcv_score", "cgcv_score", "mase_score"):
        counted(trend, name)
    for criterion, kw in kwargs.items():
        calls["hat_matrix"] = 0
        select_bandwidth(sample, criterion, grid, **kw)
        assert calls[f"{criterion}_score"] == admissible, criterion
        assert calls["hat_matrix"] == (admissible if criterion == "mase" else 0), criterion


def test_cgcv_search_memory_at_n1053():
    locs, values = synth_dataset(1053, seed=1)
    sample = SpatialSample(locs, np.sqrt(values))
    grid = default_bandwidth_grid(sample)
    corr = np.exp(-3.0 * pairwise_distances(locs) / 8.0)
    tracemalloc.start()
    try:
        select_bandwidth(sample, "cgcv", grid, correlation=corr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the x-factor, W and row-block temporaries peaked at 19.1 MB (2.15
    # n x n matrices) with the sites as given; taking them in first-axis
    # order adds one n x n matrix, the reordered correlation (the search
    # that built dense smoother rows per candidate peaked at 66.6 MB)
    assert peak <= 19.1e6 + 8 * sample.n**2


def test_solve_e1_batches_regular_ridged_and_singular_rows():
    # one batched solve: a flat axis cleared with a unit pivot is regular
    # and gets c_k = 0; a cleared axis without its pivot and a zero design
    # are exactly singular, and a NaN entry has no zero pivot but no finite
    # solution: those three come back NaN, with no ridge
    rng = np.random.default_rng(19)
    b = rng.normal(size=(9, 3, 3))
    a = b @ b.transpose(0, 2, 1) + 0.1 * np.eye(3)
    a[1, 1, :] = a[1, :, 1] = 0.0
    a[1, 1, 1] = 1.0
    a[4, 2, :] = a[4, :, 2] = 0.0
    a[6] = 0.0
    a[7, 0, 0] = np.nan
    want = solve_e1_rowwise(a)
    singular = [4, 6, 7]
    assert np.isnan(want[singular]).all()
    assert np.isfinite(np.delete(want, singular, axis=0)).all() and want[1, 1] == 0.0
    assert np.array_equal(trend._solve_e1(a), want, equal_nan=True)
    regular = np.delete(a, singular, axis=0)  # the batched solve does not raise
    assert np.array_equal(trend._solve_e1(regular), solve_e1_rowwise(regular))


def test_solve_e1_singular_stacks_of_study_design_match_rowwise(monkeypatch):
    # the table1 full design's MASE search has stacks in which every site's
    # window is flat on one axis (h below the grid spacing); with a unit
    # pivot on the cleared axis none of those designs is singular, so no
    # stack's batched solve raises, and it gives the row-by-row values
    flat_stacks, raised = [], []
    solve_e1 = trend._solve_e1
    unit_rows = np.eye(3)[1:]

    def recording(a):
        if np.any(np.linalg.slogdet(a)[0] == 0.0):
            raised.append(a.copy())
        if np.any(np.all(a[:, 1:, :] == unit_rows, axis=2)):
            flat_stacks.append(a.copy())
        return solve_e1(a)

    monkeypatch.setattr(trend, "_solve_e1", recording)
    sc = table1_scenario("full")
    _DesignContext.build(sc, simulate_field(sc, 0).locations)
    assert len(raised) == 0
    assert len(flat_stacks) >= 10
    for a in flat_stacks:
        assert np.array_equal(solve_e1(a), solve_e1_rowwise(a))


@pytest.mark.parametrize("scales", [(0.04, 1.0), (0.6, 0.03)])
def test_flat_axis_rows_sum_to_one_and_reproduce_affine_data(scales):
    # h below the grid spacing on one axis: every site's window and many
    # nodes' windows are flat on that axis. Row i's sum is (A c)_0 and its
    # value on affine data is y(p_i) + sum_k slope_k (A c - e1)_k, with A
    # the exact moments of its weights. The computed moments are sums of
    # n = 400 terms of size <= 1 and the 3x3 solve is backward stable, so
    # A c - e1 is within n eps |c|_1 per entry, and forming and summing the
    # row adds n eps |row|_1: hence the bound 2 n eps (|row|_1 + |c|_1)
    # (times max |y| on the data)
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (20, 20)).nodes()
    nodes = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (50, 50)).nodes()
    slope = np.array([1.3, -2.1])
    sample = SpatialSample(locs, 0.7 + locs @ slope)
    h = BandwidthMatrix.diagonal(*scales)
    for points in (locs, nodes):
        fit = trend._local_fit(sample, h, points=points)
        keep = np.setdiff1d(np.arange(fit.n), fit.bad)
        assert keep.size >= 400
        rows, coef = fit.hat_matrix()[keep], fit.coef[keep]
        bound = 2 * sample.n * np.finfo(float).eps * (
            np.abs(rows).sum(axis=1) + np.abs(coef).sum(axis=1)
        )
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= bound)
        affine = np.abs(rows @ sample.values - (0.7 + points[keep] @ slope))
        assert np.all(affine <= bound * np.abs(sample.values).max())


def test_flat_axis_coefficient_is_exactly_zero():
    # a window flat on axis k gets c_k = 0 exactly, and the intercept and
    # the other slope solve the 2x2 design of (1, z_j - p_i) on the other
    # axis alone: here from dense sums, so equal to rounding
    sample = unit_grid_sample(20, 20)
    nodes = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (50, 50)).nodes()
    for scales, axis in (((0.04, 1.0), 0), ((0.6, 0.03), 1)):
        h = BandwidthMatrix.diagonal(*scales)
        for points in (None, nodes):
            fit = trend._local_fit(sample, h, min_neighbors=SEARCH_NEIGHBORS, points=points)
            w = fit.weights / fit.sums[:, None]
            spread = [
                np.where(w > 0.0, fit.z[:, k], -np.inf).max(axis=1)
                - np.where(w > 0.0, fit.z[:, k], np.inf).min(axis=1)
                for k in range(2)
            ]
            flat = np.setdiff1d(np.flatnonzero(spread[axis] == 0.0), fit.bad)
            assert flat.size > 20 and spread[1 - axis][flat].min() > 0.0
            assert np.all(fit.coef[flat, axis + 1] == 0.0)
            other = 1 - axis
            dz = fit.z[None, :, other] - fit.p[flat, None, other]
            m1, m2 = (w[flat] * dz).sum(axis=1), (w[flat] * dz**2).sum(axis=1)
            reduced = np.linalg.solve(
                np.stack([np.ones_like(m1), m1, m1, m2], axis=1).reshape(-1, 2, 2),
                np.tile([[1.0], [0.0]], (flat.size, 1, 1)),
            )[..., 0]
            got = fit.coef[flat][:, [0, other + 1]]
            assert np.abs(got - reduced).max() <= 1e-12 * np.abs(reduced).max()


def test_transect_designs_are_singular_and_the_search_skips_them():
    # 60 sites on the diagonal x = y: the local design of (1, z_j - p_i) is
    # singular at every point in exact arithmetic, and it is solved as it
    # is. A design whose LU factor meets an exact zero pivot has no fit: at
    # the sites of every equal-scale candidate (z_1 = z_2 bitwise) that
    # raises and names the sites, and the search drops each candidate with
    # such a site. The search and the pipeline select h = (0.1400, 1.0)
    t = np.linspace(0.0, 1.0, 60)
    rng = np.random.default_rng(7)
    values = 1.0 + 0.5 * t + 0.3 * np.sin(6.0 * t) + 0.1 * rng.normal(size=t.size)
    sample = SpatialSample(np.column_stack([t, t]), values)
    grid = default_bandwidth_grid(sample)
    equal = [h for h in grid if h.entries[0, 0] == h.entries[1, 1]]
    assert len(equal) == 10
    for h in equal:
        with pytest.raises(BandwidthTooSmallError, match="singular local design") as err:
            fit_trend(sample, h)
        assert err.value.indices and set(err.value.indices) <= set(range(sample.n))
    want = [0.13997778175053385, 1.0]
    assert select_bandwidth(sample, "cv", grid).diagonal_scales().tolist() == want
    assert fit_pipeline(sample).bandwidth.diagonal_scales().tolist() == want


# ---------------------------------------------------------------------------
# the stacked search against the per-candidate loop
# ---------------------------------------------------------------------------


def _stacked_scores(sample, criterion, grid, **kw):
    """Every candidate's score from the stacked pass, None if inadmissible."""
    score = {
        "cv": lambda fit: cv_score(sample, fit),
        "gcv": lambda fit: gcv_score(sample, fit),
        "cgcv": lambda fit: cgcv_score(sample, fit, **kw),
        "mase": lambda fit: mase_score(sample, fit, **kw),
    }[criterion]
    return trend._grid_scores(sample, grid, score, SEARCH_NEIGHBORS)


def _assert_search_matches_loop(sample, criterion, grid, **kw):
    want, ref = select_bandwidth_per_candidate(sample, criterion, grid, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _stacked_scores(sample, criterion, grid, **kw)
        chosen = select_bandwidth(sample, criterion, grid, **kw) if want is not None else None
    assert [s is None for s in ours] == [s is None for s in ref], criterion
    for a, b in zip(ours, ref):
        if b is not None:
            assert abs(a - b) <= 1e-12 * abs(b), criterion
    if want is not None:
        assert np.array_equal(chosen.entries, want.entries), criterion
    return ref


def test_stacked_search_matches_per_candidate_loop_on_study_designs():
    # the first 10 table3 desk designs of study seed 20240 (random sites) and
    # the regular 10 x 10 table1 desk design, whose h_x stacks below the
    # grid spacing hold flat-axis candidates
    cases = [(table3_scenario("desk", seed=20240), r) for r in range(10)]
    cases.append((table1_scenario("desk", seed=20240), 0))
    for scenario, r in cases:
        field = simulate_field(scenario, r)
        design = _DesignContext.truth(scenario, field.locations)
        grid = default_bandwidth_grid(field)
        template = SpatialSample(field.locations, design.m_true)
        for criterion, sample, kw in (
            ("cv", field, {}),
            ("gcv", field, {}),
            ("cgcv", field, {"correlation": correlation_matrix(design.sigma_true)}),
            ("mase", template, {"true_mean": design.m_true, "covariance": design.sigma_true}),
        ):
            ref = _assert_search_matches_loop(sample, criterion, grid, **kw)
            assert 0 < sum(s is not None for s in ref) < len(grid), (r, criterion)


def test_banded_search_matches_per_candidate_loop_at_realistic_size():
    # the risk map's sites (n = 1053) and the table1 full design (n = 400,
    # 20 sites per first coordinate) in first-axis order, so that the
    # stacks are formed and multiplied over bands; every third candidate of
    # each default grid
    sample, kwargs = _synth_case(1053, 1, 0.0)
    order = np.argsort(sample.locations[:, 0], kind="stable")
    ordered = sample.reordered(order)
    corr = kwargs["cgcv"]["correlation"][np.ix_(order, order)]
    grid = default_bandwidth_grid(sample)[::3]
    assert trend._bands(ordered.locations[:, 0], grid[0]) is not None
    for criterion, kw in (("cv", {}), ("cgcv", {"correlation": corr})):
        ref = _assert_search_matches_loop(ordered, criterion, grid, **kw)
        assert 0 < sum(s is not None for s in ref) < len(grid), criterion
    scenario = table1_scenario("full", seed=20240)
    design = _DesignContext.truth(scenario, simulate_field(scenario, 0).locations)
    template = SpatialSample(design.locations, design.m_true)
    assert np.all(np.diff(template.locations[:, 0]) >= 0.0)
    grid = default_bandwidth_grid(template)[::3]
    assert trend._bands(template.locations[:, 0], grid[0]) is not None
    kw = {"true_mean": design.m_true, "covariance": design.sigma_true}
    ref = _assert_search_matches_loop(template, "mase", grid, **kw)
    assert 0 < sum(s is not None for s in ref) < len(grid)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(182, 600),
    log_h=st.floats(-3.0, np.log10(2.0)),
    offset=st.sampled_from([0.0, 1.0, -37.5, 5e6]),
)
def test_bands_hold_every_positive_kernel_weight(seed, n, log_h, offset):
    # first coordinates on [0, 1) (plus an offset), a third of them
    # repeated, and sites at |x_j - x_i| = h up to a few roundings, where
    # the weight is positive but tiny or exactly zero
    rng = np.random.default_rng(seed)
    h = 10.0**log_h
    x = rng.uniform(size=n)
    x[: n // 3] = rng.choice(x[n // 3 :], size=n // 3)
    eps = np.finfo(np.float64).eps
    for k, step in enumerate((0.0, 1.0, 2.0, 4.0, -1.0)):
        for sign in (1.0, -1.0):
            x[n // 3 + 2 * k + (sign < 0)] = x[-1 - k] + sign * h * (1.0 - step * eps)
    x = np.sort(x + offset)
    factor = _triweight_1d((x[None, :] - x[:, None]) / h)
    bands = trend._bands(x, BandwidthMatrix.diagonal(h, 1.0))
    if bands is None:  # every block reaches every column
        return
    rows = np.concatenate([np.arange(n)[sl] for sl, _ in bands])
    assert np.array_equal(rows, np.arange(n))
    for sl, cols in bands:
        positive = factor[sl] > 0.0
        assert not positive[:, : cols.start].any() and not positive[:, cols.stop :].any()


@pytest.mark.parametrize(
    "n, message",
    [(8, "did not help"), (9, "smallest admissible diagonal found by doubling"), (10, None)],
)
def test_smallest_uniform_designs_through_the_pipeline(n, message):
    # n = 8 has fewer sites than the 9 kernel neighbors a candidate needs;
    # n = 9 needs every site in every window, which only doubling reaches;
    # n = 10 selects a bandwidth on the default grid
    rng = np.random.default_rng(n)
    sample = SpatialSample(rng.uniform(size=(n, 2)), rng.normal(size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            fit = fit_pipeline(sample)
            want, _ = select_bandwidth_per_candidate(sample, "cv", default_bandwidth_grid(sample))
            assert fit.report.h_history[0] == tuple(want.diagonal_scales())
            return
        with pytest.raises(BandwidthTooSmallError, match=message) as err:
            fit_pipeline(sample)
    assert err.value.stage == "initial bandwidth (independence CV)"
    assert str(err.value).startswith("[initial bandwidth (independence CV)]")


def test_search_skips_a_wholly_starved_stack():
    field = simulate_field(table3_scenario("desk", seed=20240), 0)
    grid = default_bandwidth_grid(field)
    # an h_x far below the site spacing starves all ten of its candidates
    starved = [BandwidthMatrix.diagonal(1e-4, h.entries[1, 1]) for h in grid[:10]]
    ref = _assert_search_matches_loop(field, "cv", starved + grid[50:70])
    assert ref[:10] == [None] * 10 and any(s is not None for s in ref[10:])
    with pytest.raises(BandwidthTooSmallError, match="doubling"):
        select_bandwidth(field, "cv", starved)


def test_stack_mixing_starved_flat_axis_and_admissible_candidates():
    # rows of 10 sites, 0.1 apart in x and y, plus a row of 5 at y = 0.85:
    # with h_x = 0.95 every window spans its whole row, and h_y = 0.04
    # starves the short row, h_y = 0.07 leaves the rows 0.0 .. 0.7 alone in
    # their windows (no spread in y, each site on its window's line) while
    # the short row's windows reach the rows at 0.8 and 0.9, and h_y = 0.3
    # gives every window spread on both axes
    x = np.arange(10) * 0.1
    rows = [np.column_stack([x, np.full(10, y)]) for y in np.arange(10) * 0.1]
    rows.append(np.column_stack([x[::2] + 0.05, np.full(5, 0.85)]))
    locs = np.vstack(rows)
    rng = np.random.default_rng(21)
    sample = SpatialSample(locs, bench_surface(locs) + 0.1 * rng.normal(size=len(locs)))
    grid = [BandwidthMatrix.diagonal(0.95, h_y) for h_y in (0.04, 0.07, 0.3)]
    w = trend._kernel_weights(locs, locs, grid[1])
    assert np.all(locs[w[0] > 0, 1] == 0.0)  # the first site's window is flat in y
    for criterion in ("cv", "gcv"):
        ref = _assert_search_matches_loop(sample, criterion, grid)
        assert ref[0] is None and ref[1] is not None and ref[2] is not None
