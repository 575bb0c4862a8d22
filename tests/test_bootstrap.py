import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import bootstrap_replicates_stepwise, exceedance_probabilities_oneshot
from georisk.bootstrap import (
    _NODE_BLOCK,
    _REPLICATE_BLOCK,
    BootstrapEngine,
    PipelineConfig,
    _factorize,
    _variogram_fit,
    build_engine,
    decorrelate_residuals,
    exceedance_probabilities,
    fit_pipeline,
    map_targets,
    resample_indices,
    risk_map,
    risk_map_mode,
    risk_maps,
    rng_stream,
)
from georisk.exceptions import ConfigError, FactorizationError
from georisk.geometry import (
    BandwidthMatrix,
    SpatialSample,
    cross_distances,
    make_regular_grid,
    pairwise_distances,
)
from georisk.io import synth_dataset
from georisk.numerics import CholeskyFactor
from georisk.simulation import (
    _DesignContext,
    simulate_field,
    table1_scenario,
)
from georisk.trend import apply_smoother, prediction_weights
from georisk.variogram import GAUSSIAN_DIM, VariogramModel, select_lag_bandwidth


def bench_surface(pts):
    pts = np.atleast_2d(pts)
    return 2.5 + np.sin(2.0 * np.pi * pts[:, 0]) + 4.0 * (pts[:, 1] - 0.5) ** 2


def exp_gamma(u, c0, c1, r):
    u = np.asarray(u, dtype=np.float64)
    return np.where(u == 0.0, 0.0, c0 + c1 * (1.0 - np.exp(-3.0 * u / r)))


def field_sample(seed=0, nx=8, ny=8, c0=0.04, c1=0.12, r=0.5):
    rng = np.random.default_rng(seed)
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (nx, ny)).nodes()
    d = pairwise_distances(locs)
    sigma = (c0 + c1) - exp_gamma(d, c0, c1, r)
    l = np.linalg.cholesky(sigma + 1e-10 * np.eye(len(locs)))
    y = bench_surface(locs) + l @ rng.standard_normal(len(locs))
    return SpatialSample(locs, y)


@pytest.fixture(scope="module")
def fitted():
    return fit_pipeline(field_sample())


SMALL_GRID = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (7, 7))


# ---------------------------------------------------------------------------
# pipeline fit
# ---------------------------------------------------------------------------


def test_pipeline_noise_free_affine_completes():
    rng = np.random.default_rng(1)
    locs = rng.uniform(size=(40, 2))
    y = 2.0 + locs @ np.array([0.7, -0.4])
    fit = fit_pipeline(SpatialSample(locs, y))
    assert_allclose(fit.trend_fit.residuals, np.zeros(40), atol=1e-9)
    assert fit.corrected_model.sill <= 1e-10
    assert_allclose(fit.pilot_corrected.estimates, 0.0, atol=1e-12)
    assert any("degenerate" in note for note in fit.report.notes)


def test_pipeline_max_outer_one_keeps_initial_bandwidth(fitted):
    sample = field_sample()
    single = fit_pipeline(sample, PipelineConfig(max_outer=1))
    assert len(single.report.h_history) == 1
    assert single.report.outer_iterations == 1


def test_pipeline_explicit_bandwidth_pins_smoother():
    sample = field_sample()
    h = BandwidthMatrix.diagonal(0.3, 0.3)
    fit = fit_pipeline(sample, bandwidth=h)
    assert fit.bandwidth is h
    assert fit.report.outer_iterations == 1


def test_pipeline_factors_reconstruct_covariances(fitted):
    for factor in (fitted.residual_factor, fitted.corrected_factor):
        a = factor.L @ factor.L.T
        rel = np.linalg.norm(a - a.T) / np.linalg.norm(a)
        assert rel < 1e-12
        assert np.all(np.diag(factor.L) > 0.0)


@pytest.mark.slow
def test_pipeline_corrected_sill_bracket():
    # simulated fields around sill 0.16: the data-driven pipeline's corrected
    # sill estimate stays within [0.10, 0.24] in at least 90% of replicates
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (10, 10)).nodes()
    d = pairwise_distances(locs)
    sigma = 0.16 - exp_gamma(d, 0.04, 0.12, 0.5)
    l = np.linalg.cholesky(sigma + 1e-10 * np.eye(100))
    rng = np.random.default_rng(31)
    inside = 0
    reps = 20
    for _ in range(reps):
        y = bench_surface(locs) + l @ rng.standard_normal(100)
        fit = fit_pipeline(SpatialSample(locs, y))
        inside += 0.10 <= fit.corrected_model.sill <= 0.24
    assert inside >= 0.9 * reps


def test_pipeline_stage_labels():
    # duplicate locations trip the distances stage via SpatialSample upstream;
    # an impossible lag bandwidth cap surfaces with its stage label instead
    sample = field_sample()
    cfg = PipelineConfig(min_pairs=10**9)
    with pytest.raises(Exception, match=r"\[lag bandwidth\]|\[variogram"):
        fit_pipeline(sample, cfg)


# ---------------------------------------------------------------------------
# decorrelation
# ---------------------------------------------------------------------------


def test_decorrelate_identity_factor(fitted):
    n = fitted.sample.n
    resid = fitted.trend_fit.residuals
    e = decorrelate_residuals(resid, CholeskyFactor(np.eye(n)))
    assert_allclose(e, resid - resid.mean(), atol=1e-14)


def test_decorrelate_constructed_ones(fitted):
    # residuals built as L @ 1 whiten to the ones vector, which centers to 0
    factor = fitted.residual_factor
    e = decorrelate_residuals(factor.L @ np.ones(fitted.sample.n), factor)
    assert_allclose(e, np.zeros(fitted.sample.n), atol=1e-10)


def test_decorrelate_round_trip(fitted):
    e = decorrelate_residuals(fitted.trend_fit.residuals, fitted.residual_factor)
    assert abs(e.mean()) < 1e-12
    shift = (
        np.linalg.solve(fitted.residual_factor.L, fitted.trend_fit.residuals) - e
    ).mean()
    recon = fitted.residual_factor.L @ (e + shift)
    assert_allclose(recon, fitted.trend_fit.residuals, atol=1e-8)


# ---------------------------------------------------------------------------
# single replicate behavior
# ---------------------------------------------------------------------------


def test_replicate_zero_e_reproduces_smoothed_fit(fitted):
    n = fitted.sample.n
    targets = fitted.sample.locations[:5]
    rows, _ = prediction_weights(fitted.trend_fit, targets)
    engine = build_engine(
        fitted.trend_fit, rows, cross_distances(targets, fitted.sample.locations),
        fitted.corrected_model, fitted.residual_factor, fitted.corrected_factor,
    )
    idx = resample_indices(n, 3, 123, 9)
    zero = dataclasses.replace(engine, e=np.zeros(n))
    assert np.array_equal(zero.replicate_values(idx), np.tile(engine.offset, (3, 1)))
    out = engine.offset
    # with e = 0 the replicate is the fitted surface re-smoothed plus kriging
    # of its self-consistency gap S(SY) - SY
    s = fitted.trend_fit.smoother.S
    y_star = fitted.trend_fit.fitted
    resid_star = y_star - s @ y_star
    expected_gap = np.abs(resid_star).max()
    assert np.abs(out - y_star[:5]).max() <= 5.0 * max(expected_gap, 1e-12)


def test_replicate_resampling_moments(fitted):
    e = decorrelate_residuals(fitted.trend_fit.residuals, fitted.residual_factor)
    l = fitted.corrected_factor.L
    n = fitted.sample.n
    reps = 4000
    rng = rng_stream(99, 1)
    idx = rng.integers(0, n, size=(reps, n))
    eps_star = e[idx] @ l.T
    mean = eps_star.mean(axis=0)
    var = eps_star.var(axis=0)
    s2e = float(np.mean(e**2))
    sigma = l @ l.T
    target_var = s2e * np.diag(sigma)
    se_mean = np.sqrt(target_var / reps)
    assert np.all(np.abs(mean) < 4.0 * se_mean)
    assert np.all(np.abs(var - target_var) < 0.10 * target_var)
    # off-diagonal spot checks: Cov(eps*_i, eps*_j) matches s2e * Sigma_ij
    centered = eps_star - mean[None, :]
    for i, j in ((0, 1), (3, 20), (10, 40)):
        emp = float(np.mean(centered[:, i] * centered[:, j]))
        target = s2e * sigma[i, j]
        se = math.sqrt(target_var[i] * target_var[j] / reps)
        assert abs(emp - target) < 3.5 * se


@pytest.fixture(scope="module")
def full_design():
    """Replicate 0 of the full-scale table1 study: n = 400 sites on a 20x20
    grid, a 50x50 map, and each mode's covariance fitted as in the study."""
    sc = table1_scenario("full")
    ctx = _DesignContext.build(sc, simulate_field(sc, 0).locations)
    trend_fit = apply_smoother(ctx.smoother, simulate_field(sc, 0, ctx))
    g = select_lag_bandwidth(trend_fit.residuals, ctx.site.dists, ctx.site.lag_grid)
    _, resid_model, _, corr_model = _variogram_fit(
        trend_fit, ctx.site.pairs, ctx.site.lag_grid, g, PipelineConfig()
    )
    resid_factor, corr_factor = _factorize((resid_model, corr_model), ctx.site.dists)
    covariances = {
        "theoretical": (sc.model, ctx.factor_true),
        "residual": (resid_model, resid_factor),
        "corrected": (corr_model, corr_factor),
    }
    return sc, ctx, trend_fit, resid_factor, covariances


@pytest.mark.parametrize("mode", ["theoretical", "residual", "corrected"])
def test_operator_matches_stepwise_replicates_full_scale(full_design, mode):
    sc, ctx, trend_fit, resid_factor, covariances = full_design
    model, factor = covariances[mode]
    c0 = model.sill - model.semivariance(ctx.targets.dists)
    engine = build_engine(trend_fit, ctx.targets.rows, ctx.targets.dists, model, resid_factor, factor)
    idx = resample_indices(trend_fit.sample.n, 64, sc.seed, 0)
    values = engine.replicate_values(idx)
    oracle = bootstrap_replicates_stepwise(
        trend_fit.fitted, trend_fit.smoother.S, ctx.targets.rows, c0, factor.L, engine.e, idx
    )
    assert values.shape == (64, ctx.targets.rows.shape[0]) and values.shape[1] > 2000
    assert np.abs(values - oracle).max() <= 1e-12 * np.abs(oracle).max()
    for c in (2.0, 2.5, 3.0):
        assert np.array_equal((values >= c).sum(axis=0), (oracle >= c).sum(axis=0))


@pytest.mark.parametrize("mode", ["theoretical", "residual", "corrected"])
def test_blocked_probabilities_equal_oneshot_full_scale(full_design, mode):
    # 1000 replicates fill two whole blocks; 333 and the ~2500 map nodes
    # leave a partial block
    sc, ctx, trend_fit, resid_factor, covariances = full_design
    model, factor = covariances[mode]
    assert len(ctx.targets.rows) % _NODE_BLOCK and 333 % _REPLICATE_BLOCK
    for b in (1000, 333):
        idx = resample_indices(trend_fit.sample.n, b, sc.seed, 0)
        args = (trend_fit, ctx.targets.rows, ctx.targets.dists, resid_factor, model, factor, idx,
                sc.thresholds)
        assert np.array_equal(
            exceedance_probabilities(*args), exceedance_probabilities_oneshot(*args)
        )


@pytest.fixture(scope="module")
def riskmap_design():
    """The benchmark's risk map at seed 1: ``synth_dataset(1053, seed=1)``
    under a square-root response, fitted at the trend bandwidth its search
    selects, the kept nodes of a 50 x 50 grid over the data box, and 1000
    resampling rows of bootstrap seed 7."""
    locs, values = synth_dataset(1053, seed=1)
    fit = fit_pipeline(
        SpatialSample(locs, np.sqrt(values)),
        bandwidth=BandwidthMatrix.diagonal(5.942898252196416, 4.045057152294498),
    )
    box = [(locs[:, k].min(), locs[:, k].max()) for k in range(2)]
    nodes = make_regular_grid(box, (50, 50)).nodes()
    rows, mask, _ = map_targets(fit.trend_fit, nodes)
    idx = resample_indices(fit.sample.n, 1000, 7)
    return (fit.trend_fit, rows, cross_distances(nodes[~mask], locs), fit.residual_factor,
            fit.corrected_model, fit.corrected_factor, idx, [1.0, 2.0])


def test_blocked_probabilities_equal_oneshot_riskmap(riskmap_design):
    assert np.array_equal(
        exceedance_probabilities(*riskmap_design),
        exceedance_probabilities_oneshot(*riskmap_design),
    )


def test_exceedance_memory_at_riskmap_design(riskmap_design):
    rows = riskmap_design[1]
    m, n = rows.shape
    tracemalloc.start()
    try:
        exceedance_probabilities(*riskmap_design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (m, n) gain and the n x n solve it is built from, one more n x n
    # array and 4 MiB of block temporaries (built in one shot: 72.1 MB)
    assert peak <= 8 * m * n + 2 * 8 * n * n + 4 * 2**20


def test_replicates_are_evaluated_per_block_of_index_rows(fitted, monkeypatch):
    # per block of replicates, never per block of targets: every call
    # sees whole index rows, and the calls add up to B once per map set
    calls = []
    evaluate = BootstrapEngine.replicate_values

    def counted(self, idx):
        calls.append(idx.shape)
        return evaluate(self, idx)

    monkeypatch.setattr(BootstrapEngine, "replicate_values", counted)
    b = 2 * _REPLICATE_BLOCK + 7
    risk_maps(fitted, SMALL_GRID, [2.0, 2.5], n_replicates=b, seed=6)
    n = fitted.sample.n
    assert calls == [(_REPLICATE_BLOCK, n), (_REPLICATE_BLOCK, n), (7, n)]


# ---------------------------------------------------------------------------
# risk maps
# ---------------------------------------------------------------------------


def test_risk_map_threshold_limits(fitted):
    maps = risk_maps(fitted, SMALL_GRID, [-np.inf, np.inf], n_replicates=23, seed=5)
    assert_allclose(maps[0].probabilities, np.ones(SMALL_GRID.n_nodes), atol=0)
    assert_allclose(maps[1].probabilities, np.zeros(SMALL_GRID.n_nodes), atol=0)


def test_risk_map_single_replicate_is_indicator(fitted):
    m = risk_map(fitted, SMALL_GRID, 2.5, n_replicates=1, seed=11)
    vals = m.probabilities[~np.isnan(m.probabilities)]
    assert set(np.unique(vals)).issubset({0.0, 1.0})


def test_risk_map_counts_are_integers(fitted):
    b = 37
    m = risk_map(fitted, SMALL_GRID, 2.5, n_replicates=b, seed=3)
    counts = m.probabilities[~np.isnan(m.probabilities)] * b
    assert_allclose(counts, np.round(counts), atol=1e-9)
    assert np.nanmax(m.probabilities) <= 1.0
    assert np.nanmin(m.probabilities) >= 0.0


def test_risk_maps_monotone_in_threshold(fitted):
    maps = risk_maps(fitted, SMALL_GRID, [2.0, 2.5, 3.0, 3.5], n_replicates=100, seed=2)
    stack = np.array([m.probabilities for m in maps])
    assert np.all(np.diff(stack, axis=0) <= 1e-12)


def test_risk_map_seed_changes_map(fitted):
    a = risk_map(fitted, SMALL_GRID, 2.5, n_replicates=50, seed=1)
    b = risk_map(fitted, SMALL_GRID, 2.5, n_replicates=50, seed=2)
    assert not np.array_equal(a.probabilities, b.probabilities, equal_nan=True)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def test_mode_corrected_equals_risk_maps(fitted):
    via_mode = risk_map_mode(
        fitted.sample, "corrected", SMALL_GRID, [2.5], n_replicates=60, seed=4, fit=fitted
    )
    direct = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=60, seed=4)
    assert np.array_equal(
        via_mode[0].probabilities, direct[0].probabilities, equal_nan=True
    )


def test_mode_residual_differs_from_corrected(fitted):
    res = risk_map_mode(
        fitted.sample, "residual", SMALL_GRID, [2.5], n_replicates=80, seed=4, fit=fitted
    )[0]
    cor = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=80, seed=4)[0]
    assert not np.array_equal(res.probabilities, cor.probabilities, equal_nan=True)


def test_mode_theoretical_requires_truth(fitted):
    with pytest.raises(ConfigError, match="theoretical"):
        risk_map_mode(fitted.sample, "theoretical", SMALL_GRID, [2.5], n_replicates=10, seed=0)


def test_mode_theoretical_runs_with_truth(fitted):
    true_model = VariogramModel(
        nugget=0.04, node_freqs=[6.0], node_weights=[0.12], kernel_dim=GAUSSIAN_DIM
    )
    maps = risk_map_mode(
        fitted.sample,
        "theoretical",
        SMALL_GRID,
        [2.5],
        n_replicates=40,
        seed=8,
        true_model=true_model,
        bandwidth=BandwidthMatrix.diagonal(0.3, 0.3),
    )
    vals = maps[0].probabilities
    assert np.nanmin(vals) >= 0.0 and np.nanmax(vals) <= 1.0


def test_mode_theoretical_factorization_failure_carries_its_stage(fitted):
    class Indefinite:  # covariance -1 at every pair: no ridge repairs it
        sill = -1.0

        @staticmethod
        def semivariance(u):
            return np.zeros_like(u)

    with pytest.raises(FactorizationError) as err:
        risk_map_mode(
            fitted.sample, "theoretical", SMALL_GRID, [2.5], n_replicates=10, seed=0,
            fit=fitted, true_model=Indefinite(), bandwidth=BandwidthMatrix.diagonal(0.3, 0.3),
        )
    assert err.value.stage == "covariance factorization"


def test_unknown_mode_rejected(fitted):
    with pytest.raises(ConfigError):
        risk_map_mode(fitted.sample, "nope", SMALL_GRID, [2.5], n_replicates=10, seed=0)


def test_rng_stream_independent_of_call_order():
    a = rng_stream(5, 2, 7).integers(0, 1000, 4)
    _ = rng_stream(5, 2, 8).integers(0, 1000, 4)
    b = rng_stream(5, 2, 7).integers(0, 1000, 4)
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        rng_stream(-1)
