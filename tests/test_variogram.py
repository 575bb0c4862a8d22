import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import (
    bias_corrected_variogram_dense,
    bias_matrix_tripleloop,
    empirical_variogram_dense,
    local_lag_fit_naive,
    local_lag_sums_naive,
    semivariance_dense,
)
from georisk import bootstrap
from georisk.exceptions import (
    BandwidthTooSmallError,
    ConfigError,
    DegenerateScoreError,
)
from georisk.geometry import (
    BandwidthMatrix,
    SpatialSample,
    make_regular_grid,
    pairwise_distances,
)
from georisk.io import synth_dataset
from georisk.numerics import bessel_j0
from georisk.trend import fit_trend, smoother_matrix
from georisk.variogram import (
    EmpiricalVariogram,
    PairTable,
    VariogramModel,
    _lag_base_sums,
    _loo_estimates,
    _pair_loo_score,
    bias_corrected_variogram,
    bias_matrix,
    correlation_matrix,
    covariance_matrix,
    cv_relative_error,
    default_lag_bandwidths,
    default_lag_grid,
    default_node_freqs,
    empirical_variogram,
    fit_shapiro_botha,
    pseudo_covariances,
    select_lag_bandwidth,
)

GAUSS = math.inf


def exp_semivariance(u, c0, c1, rng_):
    u = np.asarray(u, dtype=np.float64)
    return np.where(u == 0.0, 0.0, c0 + c1 * (1.0 - np.exp(-3.0 * u / rng_)))


def gaussian_field_sample(rng, nx=12, ny=12, c0=0.04, c1=0.12, rng_par=0.5):
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (nx, ny)).nodes()
    d = pairwise_distances(locs)
    sigma = (c0 + c1) - exp_semivariance(d, c0, c1, rng_par)
    l = np.linalg.cholesky(sigma + 1e-12 * np.eye(len(locs)))
    eps = l @ rng.standard_normal(len(locs))
    return SpatialSample(locs, eps), d, eps


# ---------------------------------------------------------------------------
# local lag smoothing engines
# ---------------------------------------------------------------------------


def test_base_sums_match_naive():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = int(rng.integers(30, 200))
        d = np.sort(rng.uniform(0.01, 2.0, size=p))
        z = rng.uniform(0.0, 1.0, size=p)
        g = float(rng.uniform(0.08, 1.5))
        targets = np.sort(rng.uniform(0.0, 2.1, size=17))
        s0, s1, s2, t0, t1, cnt = _lag_base_sums(targets, d, z, g)
        for i, t in enumerate(targets):
            u = (d - t) / g
            w = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)
            dd = d - t
            assert s0[i] == pytest.approx(w.sum(), abs=1e-9 * max(1.0, w.sum()))
            assert s1[i] == pytest.approx(w @ dd, abs=1e-9 * max(1.0, np.abs(w @ dd)))
            assert s2[i] == pytest.approx(w @ (dd * dd), rel=1e-8, abs=1e-12)
            assert t0[i] == pytest.approx(w @ z, rel=1e-8, abs=1e-12)
            assert t1[i] == pytest.approx(w @ (dd * z), rel=1e-8, abs=1e-10)
            assert cnt[i] == int(np.sum(np.abs(u) < 1.0))


def test_loo_score_matches_naive():
    rng = np.random.default_rng(1)
    locs = rng.uniform(size=(14, 2))
    resid = rng.normal(size=14)
    sample = SpatialSample(locs, resid)
    d = pairwise_distances(sample)
    iu = np.triu_indices(14, k=1)
    pd = d[iu]
    z = (resid[:, None] - resid[None, :])[iu] ** 2
    g = 0.4
    lags = default_lag_grid(d)

    ours = cv_relative_error(resid, d, lags, g, min_pairs=1)
    total = 0.0
    for p in range(len(pd)):
        gamma = local_lag_fit_naive(pd[p], pd, z, g, exclude=p)
        if gamma is None:
            continue
        gamma *= 0.5
        if gamma > 1e-12:
            total += ((0.5 * z[p] - gamma) / gamma) ** 2
    assert ours == pytest.approx(total, rel=1e-8)


@pytest.fixture(scope="module")
def pairs_n1000():
    """n = 1000 uniform sites (P = 499,500 pairs) and spatially structured
    residuals, as a realistic input to the lag smoother."""
    rng = np.random.default_rng(12)
    locs = rng.uniform(size=(1000, 2))
    resid = np.sin(4.0 * locs[:, 0]) + 0.5 * rng.standard_normal(1000)
    table = PairTable.from_distances(pairwise_distances(locs))
    return table, table.squared_differences(resid)


def test_base_sums_match_naive_at_realistic_size(pairs_n1000):
    table, z = pairs_n1000
    d = table.distances
    rng = np.random.default_rng(13)
    # pair distances (the leave-one-out targets) and free targets, unsorted
    targets = rng.permutation(
        np.r_[d[rng.choice(d.size, 150, replace=False)], rng.uniform(d[0], d[-1], 50)]
    )
    for g in default_lag_bandwidths(table.matrix)[[0, 4, 9]]:
        sums = _lag_base_sums(targets, d, z, g)
        for i, t in enumerate(targets):
            ref, abs_ref, count = local_lag_sums_naive(t, d, z, g)
            assert sums[5][i] == count
            for k in range(5):
                assert abs(sums[k][i] - ref[k]) <= 1e-10 * abs_ref[k]


def test_loo_estimates_match_naive_at_realistic_size(pairs_n1000):
    table, z = pairs_n1000
    d = table.distances
    picks = np.random.default_rng(14).choice(d.size, 100, replace=False)
    for g in default_lag_bandwidths(table.matrix)[[0, 9]]:
        gamma = _loo_estimates(d, z, g)
        for p in picks:
            ref = 0.5 * local_lag_fit_naive(d[p], d, z, g, exclude=p)
            assert gamma[p] == pytest.approx(ref, rel=1e-8)


def test_loo_score_memory_is_bounded_at_n1053():
    # one score may hold at most 40 doubles per pair at any time
    locs, values = synth_dataset(1053, seed=1)
    table = PairTable.from_distances(pairwise_distances(locs))
    z = table.squared_differences(np.sqrt(values) - np.sqrt(values).mean())
    lags = default_lag_grid(table.matrix)
    budget = 40 * table.distances.size * 8
    for g in default_lag_bandwidths(table.matrix):
        tracemalloc.start()
        try:
            _pair_loo_score(table.distances, z, lags, g, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (g, peak / (8 * table.distances.size))


def test_loo_score_holds_at_most_12_doubles_per_pair_at_n1053():
    # the 5 sums, the 2 window bounds, the pair counts and the estimates
    # are the P-length arrays; everything else is formed per block of pairs
    # (one-array estimates and score reached 19.8 doubles per pair)
    locs, values = synth_dataset(1053, seed=1)
    table = PairTable.from_distances(pairwise_distances(locs))
    z = table.squared_differences(np.sqrt(values) - np.sqrt(values).mean())
    lags = default_lag_grid(table.matrix)
    for g in default_lag_bandwidths(table.matrix):
        tracemalloc.start()
        try:
            _pair_loo_score(table.distances, z, lags, g, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * table.distances.size, (g, peak / (8 * table.distances.size))


def test_loo_score_equals_one_array_sum_at_realistic_size(pairs_n1000):
    # the blockwise score adds the same terms in the same order as one sum
    # over every usable pair, so the two are equal, not merely close; the
    # centred values make many estimates negative, so pairs are skipped
    table, z = pairs_n1000
    lags = default_lag_grid(table.matrix)
    skipped = 0
    for values in (z, z - np.median(z)):
        for g in default_lag_bandwidths(table.matrix)[[0, 4, 9]]:
            gamma = _loo_estimates(table.distances, values, g)
            usable = np.isfinite(gamma) & (gamma > 1e-12)
            skipped += int(np.count_nonzero(~usable))
            terms = ((0.5 * values[usable] - gamma[usable]) / gamma[usable]) ** 2
            assert _pair_loo_score(table.distances, values, lags, g, 5) == float(terms.sum())
    assert skipped > 0


# ---------------------------------------------------------------------------
# pair table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def field_n400():
    rng = np.random.default_rng(15)
    sample, d, _ = gaussian_field_sample(rng, 20, 20)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.3, 0.3))
    return fit, d


def test_pair_table_estimates_bit_identical_to_dense_path(field_n400):
    fit, d = field_n400
    lags = default_lag_grid(d)
    table = PairTable.from_distances(d)
    b = bias_matrix(fit.smoother, pseudo_covariances(
        empirical_variogram(fit.residuals, table, lags, 0.2), d
    ))
    diag = np.diag(b)
    corrections = diag[:, None] + diag[None, :] - 2.0 * b
    for corr in (None, corrections):
        ref_est, ref_mass = empirical_variogram_dense(fit.residuals, d, lags, 0.2, corr)
        for dist in (d, table):
            est = empirical_variogram(fit.residuals, dist, lags, 0.2, corrections=corr)
            assert np.array_equal(est.estimates, ref_est)
            assert np.array_equal(est.pair_counts, ref_mass)
    per_pair = table.corrections(b)
    est = empirical_variogram(fit.residuals, table, lags, 0.2, corrections=per_pair)
    assert np.array_equal(est.estimates, empirical_variogram_dense(
        fit.residuals, d, lags, 0.2, corrections
    )[0])
    ref_est, ref_mass = bias_corrected_variogram_dense(fit, d, lags, 0.2)
    for dist in (d, table):
        est = bias_corrected_variogram(fit, dist, lags, 0.2)
        assert np.array_equal(est.estimates, ref_est)
        assert np.array_equal(est.pair_counts, ref_mass)


def test_fit_pipeline_builds_one_pair_table(monkeypatch):
    built = []
    original = PairTable.from_distances.__func__

    def counting(cls, distances):
        built.append(1)
        return original(cls, distances)

    monkeypatch.setattr(PairTable, "from_distances", classmethod(counting))
    rng = np.random.default_rng(16)
    sample, _, _ = gaussian_field_sample(rng, 9, 9)
    fit = bootstrap.fit_pipeline(sample)
    assert fit.report.outer_iterations == 2
    assert len(built) == 1


# ---------------------------------------------------------------------------
# empirical variogram
# ---------------------------------------------------------------------------


def test_flat_variogram_for_iid_residuals():
    rng = np.random.default_rng(2)
    s2 = 0.49
    reps = 60
    n = 100
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (10, 10)).nodes()
    d = pairwise_distances(locs)
    lags = default_lag_grid(d)
    acc = np.zeros_like(lags)
    for _ in range(reps):
        resid = math.sqrt(s2) * rng.standard_normal(n)
        est = empirical_variogram(resid, d, lags, bandwidth=1.0)
        acc += est.estimates
    mean_est = acc / reps
    # moment oracle: E(e_i - e_j)^2 / 2 = s2; allow 3 standard errors of the
    # replicate-mean curve (var of a chi2-like average, bounded crudely)
    se = s2 * math.sqrt(2.0 / (reps * 20))
    assert np.all(np.abs(mean_est - s2) < 3.0 * se + 0.05 * s2)


def test_two_point_single_lag_degenerates_to_point_value():
    resid = np.array([1.5, 0.5])
    locs = np.array([[0.0, 0.0], [1.0, 0.0]])
    d = pairwise_distances(locs)
    est = empirical_variogram(resid, d, np.array([1.0]), bandwidth=0.5, min_pairs=1)
    assert est.estimates[0] == pytest.approx(0.5 * (1.5 - 0.5) ** 2, rel=1e-12)


def test_starved_lag_raises_with_lag_named():
    rng = np.random.default_rng(3)
    locs = rng.uniform(size=(8, 2))
    d = pairwise_distances(locs)
    with pytest.raises(BandwidthTooSmallError, match="lag"):
        empirical_variogram(rng.normal(size=8), d, bandwidth=1e-4)


def test_corrections_recover_error_scale_variogram():
    # realized-covariance identity: with Sigma = eps eps^T the correction
    # built from B(S, Sigma) maps residual differences back to error
    # differences exactly, pair by pair
    rng = np.random.default_rng(4)
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (6, 6)).nodes()
    n = len(locs)
    eps = rng.normal(size=n)
    sample = SpatialSample(locs, eps)
    s = smoother_matrix(sample, BandwidthMatrix.diagonal(0.45, 0.45))
    resid = eps - s.S @ eps

    sigma_realized = np.outer(eps, eps)
    b = bias_matrix(s, sigma_realized)
    diag = np.diag(b)
    corrections = diag[:, None] + diag[None, :] - 2.0 * b

    d = pairwise_distances(locs)
    lags = default_lag_grid(d)
    corrected = empirical_variogram(resid, d, lags, bandwidth=0.3, corrections=corrections)
    target = empirical_variogram(eps, d, lags, bandwidth=0.3)
    assert_allclose(corrected.estimates, target.estimates, atol=1e-8)


# ---------------------------------------------------------------------------
# bias matrix and pseudo-covariances
# ---------------------------------------------------------------------------


def test_bias_matrix_identity_smoother():
    rng = np.random.default_rng(5)
    sigma = rng.normal(size=(5, 5))
    sigma = sigma @ sigma.T
    b = bias_matrix(np.eye(5), sigma)
    assert_allclose(b, -sigma, atol=1e-12)


def test_bias_matrix_zero_smoother():
    sigma = np.eye(4)
    assert_allclose(bias_matrix(np.zeros((4, 4)), sigma), np.zeros((4, 4)), atol=0)


def test_bias_matrix_matches_triple_loop():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(6, 6))
    sigma = rng.normal(size=(6, 6))
    sigma = sigma @ sigma.T
    assert_allclose(bias_matrix(s, sigma), bias_matrix_tripleloop(s, sigma), atol=1e-12)


def test_residual_covariance_identity():
    # Var(eps_hat) for eps_hat = (I - S) eps equals Sigma + B exactly
    rng = np.random.default_rng(7)
    s = rng.normal(size=(7, 7))
    sigma = rng.normal(size=(7, 7))
    sigma = sigma @ sigma.T
    lhs = (np.eye(7) - s) @ sigma @ (np.eye(7) - s).T
    rhs = sigma + bias_matrix(s, sigma)
    assert_allclose(lhs, rhs, atol=1e-10)
    # and the pairwise-difference version
    b = bias_matrix(s, sigma)
    for i in range(7):
        for j in range(7):
            var_hat = lhs[i, i] + lhs[j, j] - 2.0 * lhs[i, j]
            var_err = sigma[i, i] + sigma[j, j] - 2.0 * sigma[i, j]
            corr = b[i, i] + b[j, j] - 2.0 * b[i, j]
            assert var_hat == pytest.approx(var_err + corr, abs=1e-10)


def test_pseudo_covariances_white_noise_pilot():
    s2 = 0.7
    lags = np.linspace(0.1, 1.0, 10)
    pilot = EmpiricalVariogram(lags, np.full(10, s2), np.ones(10))
    locs = np.random.default_rng(8).uniform(size=(9, 2))
    d = pairwise_distances(locs)
    c = pseudo_covariances(pilot, d)
    assert_allclose(np.diag(c), np.full(9, s2), atol=0)
    off = c[~np.eye(9, dtype=bool)]
    assert_allclose(off, np.zeros(off.size), atol=1e-15)


def test_pseudo_covariances_exponential_pilot():
    c0, c1, r = 0.04, 0.12, 0.5
    lags = np.linspace(0.02, 1.0, 25)
    pilot = EmpiricalVariogram(lags, exp_semivariance(lags, c0, c1, r), np.ones(25))
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (7, 7)).nodes()
    d = pairwise_distances(locs)
    c = pseudo_covariances(pilot, d)
    sill = pilot.estimates.max()
    mask = (d >= lags[0]) & (d <= lags[-1]) & ~np.eye(49, dtype=bool)
    expected = np.clip(sill - exp_semivariance(d[mask], c0, c1, r), 0.0, None)
    assert np.abs(c[mask] - expected).max() <= 0.01 * (c0 + c1)


def test_pseudo_covariances_constant_extrapolation():
    lags = np.linspace(0.1, 0.5, 5)
    est = np.array([0.1, 0.2, 0.3, 0.35, 0.4])
    pilot = EmpiricalVariogram(lags, est, np.ones(5))
    locs = np.array([[0.0, 0.0], [10.0, 0.0]])
    d = pairwise_distances(locs)
    c = pseudo_covariances(pilot, d)
    assert c[0, 1] == pytest.approx(est.max() - est[-1], abs=1e-15)


# ---------------------------------------------------------------------------
# bias-corrected pilot
# ---------------------------------------------------------------------------


def test_bias_correction_noise_free_affine():
    locs = np.random.default_rng(9).uniform(size=(40, 2))
    y = 2.0 + locs @ np.array([1.0, -1.0])
    sample = SpatialSample(locs, y)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.7, 0.7))
    d = pairwise_distances(locs)
    est = bias_corrected_variogram(fit, d, bandwidth=0.35)
    assert_allclose(est.estimates, np.zeros_like(est.estimates), atol=1e-12)
    assert est.report.converged
    assert est.report.iterations == 1


def test_bias_correction_max_iter_zero_returns_uncorrected():
    rng = np.random.default_rng(10)
    sample, d, _ = gaussian_field_sample(rng, 8, 8)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.4, 0.4))
    raw = empirical_variogram(fit.residuals, d, bandwidth=0.3)
    capped = bias_corrected_variogram(fit, d, bandwidth=0.3, max_iter=0)
    assert_allclose(capped.estimates, raw.estimates, atol=0)
    assert capped.report.iterations == 0


def test_bias_correction_raises_sill_on_field_data():
    rng = np.random.default_rng(11)
    sample, d, _ = gaussian_field_sample(rng, 12, 12)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.35, 0.35))
    raw = empirical_variogram(fit.residuals, d, bandwidth=0.25)
    corrected = bias_corrected_variogram(fit, d, bandwidth=0.25)
    assert corrected.estimates.max() > raw.estimates.max()


# ---------------------------------------------------------------------------
# lag-bandwidth selection
# ---------------------------------------------------------------------------


def test_cv_relative_error_identical_pairs_score_zero():
    # two pairs with identical separation and values predict each other
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.5], [1.0, 2.5]])
    resid = np.array([0.0, 1.0, 0.0, 1.0])
    d = pairwise_distances(locs)
    score = cv_relative_error(resid, d, np.array([1.0]), bandwidth=0.5, min_pairs=1)
    assert score == pytest.approx(0.0, abs=1e-18)


def test_cv_relative_error_equal_residuals_degenerate():
    locs = np.random.default_rng(12).uniform(size=(10, 2))
    d = pairwise_distances(locs)
    with pytest.raises(DegenerateScoreError):
        cv_relative_error(np.ones(10), d, bandwidth=2.0, min_pairs=1)


def test_select_lag_bandwidth_prefers_informative_scale():
    rng = np.random.default_rng(13)
    sample, d, _ = gaussian_field_sample(rng, 10, 10, c0=0.01, c1=0.3, rng_par=0.4)
    g = select_lag_bandwidth(sample.values, d)
    assert 0.0 < g <= 0.55 * d.max() + 1e-12
    # score at the chosen bandwidth beats a badly mis-scaled one
    lags = default_lag_grid(d)
    chosen = cv_relative_error(sample.values, d, lags, g)
    huge = cv_relative_error(sample.values, d, lags, 0.55 * d.max())
    assert chosen <= huge + 1e-9


# ---------------------------------------------------------------------------
# valid-model fitting and evaluation
# ---------------------------------------------------------------------------


def test_fit_pure_nugget_pilot():
    s2 = 0.36
    lags = np.linspace(0.05, 1.0, 20)
    pilot = EmpiricalVariogram(lags, np.full(20, s2), np.full(20, 12.0))
    model = fit_shapiro_botha(pilot, GAUSS)
    assert model.sill == pytest.approx(s2, rel=0.02)
    fitted = model.semivariance(lags)
    assert np.all(np.abs(fitted - s2) <= 0.02 * s2)


def test_fit_exponential_pilot_within_five_percent_of_sill():
    c0, c1, r = 0.04, 0.12, 0.5
    lags = np.linspace(0.02, 1.0, 25)
    pilot = EmpiricalVariogram(
        lags, exp_semivariance(lags, c0, c1, r), np.full(25, 50.0)
    )
    for dim in (2, 3, GAUSS):
        model = fit_shapiro_botha(pilot, dim)
        fitted = model.semivariance(lags)
        assert np.abs(fitted - pilot.estimates).max() <= 0.05 * 0.16


def test_fit_single_node_flat_pilot():
    s2 = 0.25
    lags = np.linspace(0.1, 1.0, 10)
    pilot = EmpiricalVariogram(lags, np.full(10, s2), np.ones(10))
    model = fit_shapiro_botha(pilot, GAUSS, n_nodes=1)
    fitted = model.semivariance(lags)
    assert np.abs(fitted - s2).max() <= 0.02 * s2


def test_fit_never_beats_nugget_only_fit():
    rng = np.random.default_rng(14)
    lags = np.linspace(0.05, 1.0, 15)
    est = np.abs(rng.normal(0.2, 0.05, size=15))
    w = rng.uniform(1.0, 20.0, size=15)
    pilot = EmpiricalVariogram(lags, est, w)
    model = fit_shapiro_botha(pilot, GAUSS)
    resid_full = np.sum(w * (model.semivariance(lags) - est) ** 2)
    nugget_only = np.sum(w * est) / np.sum(w)
    resid_nugget = np.sum(w * (nugget_only - est) ** 2)
    assert resid_full <= resid_nugget + 1e-10


def test_evaluate_model_conventions():
    model = VariogramModel(nugget=0.3, node_freqs=[], node_weights=[], kernel_dim=GAUSS)
    assert model.semivariance(0.0) == 0.0
    assert model.semivariance(0.1) == pytest.approx(0.3)
    single = VariogramModel(nugget=0.1, node_freqs=[2.0], node_weights=[0.5], kernel_dim=GAUSS)
    u = 0.5  # t*u = 1
    assert single.semivariance(u) == pytest.approx(0.1 + 0.5 * (1.0 - math.exp(-1.0)))


def test_evaluate_gaussian_model_monotone():
    model = VariogramModel(
        nugget=0.05, node_freqs=[1.0, 3.0, 7.0], node_weights=[0.2, 0.1, 0.05]
    )
    u = np.linspace(0.0, 5.0, 200)
    gamma = model.semivariance(u)
    assert np.all(np.diff(gamma[1:]) >= -1e-12)
    assert gamma.max() <= model.sill + 1e-12


def test_evaluate_j0_model_bounded():
    model = VariogramModel(
        nugget=0.0, node_freqs=[2.0, 5.0], node_weights=[0.3, 0.2], kernel_dim=2
    )
    u = np.linspace(0.0, 10.0, 500)
    gamma = model.semivariance(u)
    bound = model.nugget + 2.0 * model.node_weights.sum()
    assert np.all(gamma <= bound + 1e-12)
    assert np.all(gamma >= -1e-12)
    # spot-check the basis kernel itself
    assert model.semivariance(1.0) == pytest.approx(
        0.3 * (1.0 - bessel_j0(2.0)) + 0.2 * (1.0 - bessel_j0(5.0)), rel=1e-12
    )


def _mixture(kernel_dim, k, seed=16):
    rng = np.random.default_rng(seed)
    return VariogramModel(
        nugget=0.05,
        node_freqs=default_node_freqs(0.8, 25, k) if k else [],
        node_weights=rng.uniform(0.01, 0.3, size=k),
        kernel_dim=kernel_dim,
    )


@pytest.mark.parametrize("kernel_dim", [2, 3, GAUSS])
@pytest.mark.parametrize("k", [0, 1, 2, 7, 8, 9, 16, 17, 50, 129])
def test_semivariance_bit_identical_to_dense_sum(kernel_dim, k):
    # every node order numpy's pairwise summation distinguishes (K = 129
    # splits the node axis in two), over many evaluation blocks, with exact
    # zeros
    model = _mixture(kernel_dim, k)
    u = np.random.default_rng(17).uniform(0.0, 1.5, size=(37, 511))
    u[::5, 3] = 0.0
    for x in (u, u[:, 7], u.reshape(37, 7, 73), u.T, 0.0, 0.37):
        got = model.semivariance(x)
        assert np.array_equal(got, semivariance_dense(model, x))
        assert np.shape(got) == np.shape(x)
    assert isinstance(model.semivariance(0.37), float)


def test_semivariance_memory_is_one_output_array():
    # (m, n) = a 50 x 50 map against the n = 1053 sites; the dense sum
    # built several (m, n, K) temporaries, about 500 MB at K = 8
    model = _mixture(GAUSS, 8)
    u = np.random.default_rng(18).uniform(0.0, 1.5, size=(2500, 1053))
    tracemalloc.start()
    try:
        model.semivariance(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * u.size * 8 + 4 * 2**20


# ---------------------------------------------------------------------------
# covariance assembly
# ---------------------------------------------------------------------------


def test_covariance_pure_nugget():
    model = VariogramModel(nugget=0.4, node_freqs=[], node_weights=[])
    locs = np.random.default_rng(15).uniform(size=(6, 2))
    cov = covariance_matrix(model, pairwise_distances(locs))
    assert_allclose(cov, 0.4 * np.eye(6), atol=1e-15)


def test_covariance_two_point_formula():
    model = VariogramModel(nugget=0.1, node_freqs=[1.5], node_weights=[0.4])
    d = np.array([[0.0, 0.7], [0.7, 0.0]])
    cov = covariance_matrix(model, d)
    sigma2 = model.sill
    gamma = model.semivariance(0.7)
    assert_allclose(cov, [[sigma2, sigma2 - gamma], [sigma2 - gamma, sigma2]], atol=1e-15)


def test_covariance_round_trip_identity():
    model = VariogramModel(nugget=0.05, node_freqs=[1.0, 4.0], node_weights=[0.3, 0.2])
    locs = np.random.default_rng(16).uniform(size=(12, 2))
    d = pairwise_distances(locs)
    cov = covariance_matrix(model, d)
    gamma = model.sill - cov
    assert_allclose(gamma, model.semivariance(d), atol=1e-12)


def test_covariance_fitted_model_psd():
    c0, c1, r = 0.04, 0.12, 0.5
    lags = np.linspace(0.02, 1.0, 25)
    pilot = EmpiricalVariogram(lags, exp_semivariance(lags, c0, c1, r), np.full(25, 50.0))
    rng = np.random.default_rng(17)
    for dim in (2, GAUSS):
        model = fit_shapiro_botha(pilot, dim)
        locs = rng.uniform(size=(20, 2))
        cov = covariance_matrix(model, pairwise_distances(locs))
        eigmin = float(np.linalg.eigvalsh(cov).min())
        assert eigmin >= -1e-8 * model.sill


def test_correlation_matrix_basics():
    assert_allclose(correlation_matrix(np.diag([2.0, 3.0])), np.eye(2), atol=0)
    r = correlation_matrix(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert r[0, 1] == pytest.approx(1.0)
    rng = np.random.default_rng(18)
    m = rng.normal(size=(8, 8))
    spd = m @ m.T + np.eye(8)
    r = correlation_matrix(spd)
    assert_allclose(np.diag(r), np.ones(8), atol=1e-15)
    assert np.all(np.abs(r) <= 1.0 + 1e-12)
    with pytest.raises(ConfigError):
        correlation_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
