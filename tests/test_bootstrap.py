import inspect
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import georisk.bootstrap as bootstrap
import georisk.variogram as variogram
from _oracles import (
    blocked_targets,
    bootstrap_engine_oneshot,
    bootstrap_replicates_stepwise,
    exceedance_probabilities_oneshot,
    exceedance_probabilities_per_block,
    kept_rows_and_dists,
    krige_targets,
    kriging_factor,
    resample_indices_rowwise,
    whole_map_engine,
)
from georisk.bootstrap import (
    _DRAW_BLOCK,
    _NODE_BLOCK,
    _REPLICATE_BLOCK,
    MODES,
    BootstrapEngine,
    MapTargets,
    TargetBlock,
    _block_covariances,
    _factorize,
    _pcg64_seed_words,
    _stream_draws,
    _variogram_fit,
    decorrelate_residuals,
    fit_pipeline,
    map_targets,
    mode_covariance,
    mode_gain,
    mode_probabilities,
    prediction_map,
    resample_indices,
    risk_maps,
    rng_stream,
)
from georisk.exceptions import BandwidthTooSmallError, ConfigError
from georisk.geometry import (
    BandwidthMatrix,
    SpatialSample,
    cross_distances,
    make_regular_grid,
    pairwise_distances,
)
from georisk.io import synth_dataset
from georisk.numerics import CholeskyFactor, solve_spd
from georisk.simulation import (
    _DesignContext,
    simulate_field,
    table1_scenario,
)
from georisk.trend import apply_smoother, fit_trend, prediction_weights, select_bandwidth
from georisk.variogram import (
    GAUSSIAN_DIM,
    VariogramModel,
    covariance_matrix,
    select_lag_bandwidth,
)


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


def test_pipeline_max_outer_one_keeps_initial_bandwidth(fitted, monkeypatch):
    # a single pass keeps the CV bandwidth the default fit starts from
    monkeypatch.setattr(bootstrap, "MAX_OUTER", 1)
    single = fit_pipeline(field_sample())
    assert len(single.report.h_history) == 1
    assert single.report.outer_iterations == 1
    assert single.report.h_history[0] == fitted.report.h_history[0]


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
    # duplicate locations trip the distances stage via SpatialSample upstream.
    # The corners of a square have no pair shorter than the widest lag
    # bandwidth candidate, so every candidate starves the first lags (the
    # trend bandwidth is pinned: four sites admit no trend search)
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sample = SpatialSample(locs, np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.raises(BandwidthTooSmallError, match=r"^\[lag bandwidth\] ") as err:
        fit_pipeline(sample, bandwidth=BandwidthMatrix.diagonal(10.0, 10.0))
    assert err.value.stage == "lag bandwidth"


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


def test_resample_indices_hold_each_streams_draws_as_int32():
    # each row is the int64 draw of its own stream, held in half the bytes
    idx = resample_indices(1053, 5, 7, 3)
    assert idx.dtype == np.int32
    for j in range(5):
        draw = rng_stream(7, bootstrap.STREAM_BOOT, 3, j).integers(0, 1053, size=1053)
        assert np.array_equal(idx[j], draw)


class _CountedStreams:
    """``bootstrap.rng_stream`` with a count of its calls, the rows that
    ``_stream_draws`` redraws by their own generator."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.stream = bootstrap.rng_stream
        monkeypatch.setattr(bootstrap, "rng_stream", self)

    def __call__(self, *key):
        self.calls += 1
        return self.stream(*key)


@pytest.mark.parametrize("seed", [0, 7, 20240, 2**32 + 5])
@pytest.mark.parametrize("path", [(), (3,), (1, 2)])
def test_resample_indices_equal_one_generator_per_row(seed, path, monkeypatch):
    # with 1,024 draws per block every size crosses a block of rows: 2,051
    # rows of one draw, 5 of 1,053; a seed of 2^32 + 5 is two entropy
    # words. Under 0.1 s per case
    monkeypatch.setattr(bootstrap, "_DRAW_BLOCK", 1024)
    for n in (1, 2, 100, 400, 1053):
        rows = 2 * max(1, 1024 // n) + 3
        idx = resample_indices(n, rows, seed, *path)
        assert idx.dtype == np.int32
        assert np.array_equal(idx, resample_indices_rowwise(n, rows, seed, *path)), n


@pytest.mark.parametrize("n, seed", [(1053, 20249), (400, 20241)])
def test_resample_indices_redraw_rejected_rows_at_study_sizes(n, seed, monkeypatch):
    # B = 1000 at the block size in use; these streams of study seeds hold
    # draws in Lemire's rejection zone (2 rows at n = 1053, 1 at n = 400),
    # which their own generators redraw. About 0.05 s each
    streams = _CountedStreams(monkeypatch)
    idx = resample_indices(n, 1000, seed, 0)
    assert streams.calls > 0
    assert np.array_equal(idx, resample_indices_rowwise(n, 1000, seed, 0))


def test_bounded_draws_follow_generator_integers_in_a_wide_rejection_zone(monkeypatch):
    # at bound 2^31 + 1 the rejection zone holds 2^31 - 1 of the 2^32
    # products, so about 3 in 4 rows of two draws are redrawn by their
    # generator and the rest keep the batched draw; rows 10..73 of a
    # stream, each equal to Generator.integers. Under 0.01 s
    streams = _CountedStreams(monkeypatch)
    bound, key = 2**31 + 1, [5, bootstrap.STREAM_BOOT, 4]
    out = np.empty((64, 2), dtype=np.int64)
    _stream_draws(key, 10, _pcg64_seed_words(key, np.arange(10, 74)), bound, out)
    assert 0 < streams.calls < 64
    for k in range(64):
        want = streams.stream(*key, 10 + k).integers(0, bound, size=2)
        assert np.array_equal(out[k], want), k


def test_resample_indices_hold_no_array_of_every_draw_at_n1053():
    # bound fixed before running: the int32 result, 4 n B bytes, plus each
    # block's raw outputs, halves, products and rejection flags (17 bytes
    # per draw of at most _DRAW_BLOCK) with room to 24, plus 64 bytes a row
    # for the seed words and their hashing; a (B, n) uint64 array alone
    # (8.4 MB) would break it. Under 0.05 s
    n, b = 1053, 1000
    tracemalloc.start()
    try:
        resample_indices(n, b, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * b + 24 * _DRAW_BLOCK + 64 * b, peak


def test_stream_seeds_must_be_nonnegative_integers(fitted):
    # a float seed used to be truncated (7.9 drew seed 7's stream) and a
    # negative path entry escaped as numpy's ValueError. Under 0.01 s
    assert np.array_equal(
        rng_stream(np.int64(7), np.uint8(2)).integers(0, 100, 5),
        rng_stream(7, 2).integers(0, 100, 5),
    )
    for seed, path in ((7.9, ()), (7.0, ()), (-1, ()), (1, (-2,)), (1, (2.0,)), ("7", ())):
        with pytest.raises(ConfigError):
            rng_stream(seed, *path)
        with pytest.raises(ConfigError):
            resample_indices(10, 2, seed, *path)
    with pytest.raises(ConfigError):
        risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=10, seed=7.5)


def test_replicate_zero_e_reproduces_smoothed_fit(fitted):
    n = fitted.sample.n
    targets = map_targets(fitted.trend_fit, fitted.sample.locations[:5])
    engine = whole_map_engine(
        fitted.trend_fit, targets, (fitted.corrected_model, fitted.corrected_factor)
    )
    idx = resample_indices(n, 3, 123, 9)
    zero = np.zeros(n)
    assert np.array_equal(engine.replicate_values(idx, zero[idx]), np.tile(engine.offset, (3, 1)))
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
    g = select_lag_bandwidth(trend_fit.residuals, ctx.site.pairs, ctx.site.lag_grid)
    _, resid_model, _, corr_model = _variogram_fit(trend_fit, ctx.site.pairs, ctx.site.lag_grid, g)
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
    rows, dists = kept_rows_and_dists(ctx.targets, trend_fit.sample.locations)
    c0 = model.sill - model.semivariance(dists)
    e = decorrelate_residuals(trend_fit.residuals, resid_factor)
    engine = whole_map_engine(trend_fit, ctx.targets, (model, factor))
    idx = resample_indices(trend_fit.sample.n, 64, sc.seed, 0)
    values = engine.replicate_values(idx, e[idx])
    oracle = bootstrap_replicates_stepwise(
        trend_fit.fitted, trend_fit.smoother.S, rows, c0, factor.L, e, idx
    )
    assert values.shape == (64, rows.shape[0]) and values.shape[1] > 2000
    assert np.abs(values - oracle).max() <= 1e-12 * np.abs(oracle).max()
    for c in (2.0, 2.5, 3.0):
        assert np.array_equal((values >= c).sum(axis=0), (oracle >= c).sum(axis=0))


def _per_replicate_gain(sc, ctx, trend_fit):
    return whole_map_engine(trend_fit, ctx.targets, (sc.model, ctx.factor_true)).gain


def test_held_gain_equals_per_replicate_gain_full_scale(full_design):
    # the design context's theoretical gain (n = 400 sites, 2500 map nodes)
    # is the bits of the gain a replicate's own operator forms. About 0.1 s
    # after the shared fixture.
    sc, ctx, trend_fit, _, _ = full_design
    assert ctx.gain.shape == (ctx.targets.n_nodes - ctx.targets.mask.sum(), sc.n)
    assert np.array_equal(ctx.gain, _per_replicate_gain(sc, ctx, trend_fit))


def test_held_gain_equals_per_replicate_gain_desk():
    # as above at the desk design (n = 100 sites, 625 map nodes). About 0.1 s.
    sc = table1_scenario("desk")
    ctx = _DesignContext.build(sc, simulate_field(sc, 0).locations)
    trend_fit = apply_smoother(ctx.smoother, simulate_field(sc, 3, ctx))
    assert np.array_equal(ctx.gain, _per_replicate_gain(sc, ctx, trend_fit))


def test_held_gain_is_read_only(full_design):
    # replicates evaluated on several threads share the held gain, so no
    # caller may write to it, through the whole array or a block's rows
    ctx = full_design[1]
    rows = ctx.gain[:_NODE_BLOCK]
    assert rows.flags.c_contiguous
    with pytest.raises(ValueError):
        ctx.gain[0, 0] = 0.0
    with pytest.raises(ValueError):
        rows += 1.0


@pytest.mark.parametrize("mode", ["theoretical", "residual", "corrected"])
def test_blocked_probabilities_equal_oneshot_full_scale(full_design, mode):
    # 2 * _REPLICATE_BLOCK + 7 replicates fill two whole blocks of
    # resampling rows and leave a partial third; 333 and the ~2500 map
    # nodes leave a partial block
    sc, ctx, trend_fit, resid_factor, covariances = full_design
    model, factor = covariances[mode]
    assert ctx.targets.n_nodes % _NODE_BLOCK and 333 % _REPLICATE_BLOCK
    estimates = (covariances["residual"], covariances["corrected"])
    for b in (2 * _REPLICATE_BLOCK + 7, 333):
        idx = resample_indices(trend_fit.sample.n, b, sc.seed, 0)
        probs = mode_probabilities(
            trend_fit, ctx.targets, idx, sc.thresholds, (mode,), estimates,
            covariances["theoretical"],
        )[mode]
        args = (trend_fit, ctx.targets, resid_factor, model, factor, idx, sc.thresholds)
        assert np.array_equal(probs, exceedance_probabilities_oneshot(*args))


def _full_rows(trend_fit, nodes):
    """The kept nodes' full smoother rows at ``nodes`` and those nodes."""
    rows, bad = prediction_weights(trend_fit, nodes)
    keep = np.ones(len(nodes), dtype=bool)
    keep[bad] = False
    return rows[keep], nodes[keep]


def test_held_blocks_keep_banded_rows_full_scale(full_design):
    # every held block of the table1 full design keeps its kept nodes' full
    # prediction_weights rows on its band, as one contiguous array, and
    # their coordinates; the full rows are zero outside the band, and each
    # band spans at most _BAND_SHARE of the sites, so the banded path runs.
    # Under 0.1 s after the shared fixture.
    sc, ctx, trend_fit, _, _ = full_design
    nodes = sc.prediction_grid().nodes()
    n = trend_fit.sample.n
    blocks = ctx.targets.blocks
    assert len(blocks) == -(-len(nodes) // _NODE_BLOCK)
    for lo, block in zip(range(0, len(nodes), _NODE_BLOCK), blocks):
        full, kept_nodes = _full_rows(trend_fit, nodes[lo:lo + _NODE_BLOCK])
        band = block.band
        assert band != slice(None) and band.stop - band.start <= bootstrap._BAND_SHARE * n
        assert block.rows.flags.c_contiguous
        assert np.array_equal(block.rows, full[:, band])
        assert not full[:, :band.start].any() and not full[:, band.stop:].any()
        assert np.array_equal(block.nodes, kept_nodes)


def test_held_and_replicate_gains_equal_dense_formula_full_scale(full_design):
    # the design's held theoretical gain and one replicate's residual- and
    # corrected-mode gains equal, per target block, T L + C0 Sigma^-1 (L - S L)
    # formed from the full prediction_weights rows, the block's C0
    # (_block_covariances, checked against the distances in the tests
    # below) and solve_spd: array-equal with T taken over the
    # block's band, as the operator multiplies it. Over every column the
    # product adds the exact zeros outside the band in another order, so
    # it may differ in the last bits: T L within 2 n u (|T| @ |L|), plus
    # 2 u |gain| for the rounding of the sum with the C0 term (u = 2^-53).
    # The bound written before the first run lacked that second term, and
    # that run failed on it. About 0.5 s after the shared fixture.
    sc, ctx, trend_fit, _, covariances = full_design
    nodes = sc.prediction_grid().nodes()
    sites = trend_fit.sample.locations
    S = trend_fit.smoother.S
    n = trend_fit.sample.n
    u = np.finfo(float).eps / 2
    gains = {
        "theoretical": ctx.gain,
        "residual": whole_map_engine(trend_fit, ctx.targets, covariances["residual"]).gain,
        "corrected": whole_map_engine(trend_fit, ctx.targets, covariances["corrected"]).gain,
    }
    for mode, gain in gains.items():
        model, factor = covariances[mode]
        L = factor.L
        solved = solve_spd(factor, L - S @ L)
        banded, dense, scale = [], [], []
        for lo, block in zip(range(0, len(nodes), _NODE_BLOCK), ctx.targets.blocks):
            full, kept_nodes = _full_rows(trend_fit, nodes[lo:lo + _NODE_BLOCK])
            c0_term = _block_covariances(model, kept_nodes, sites) @ solved
            banded.append(full[:, block.band] @ L[block.band] + c0_term)
            dense.append(full @ L + c0_term)
            scale.append(np.abs(full) @ np.abs(L))
        assert np.array_equal(gain, np.concatenate(banded)), mode
        bound = 2 * n * u * np.concatenate(scale) + 2 * u * np.abs(gain)
        assert np.all(np.abs(gain - np.concatenate(dense)) <= bound), mode


# ---------------------------------------------------------------------------
# node-to-site covariances
# ---------------------------------------------------------------------------


U = np.finfo(float).eps / 2


def _check_covariances(model, nodes, sites, c0):
    """C0 from nodes to sites against sill - semivariance at the distances:
    the sill exactly where a distance is 0 and nowhere else (the model has
    a nugget), and elsewhere within 8 (K + 1) u sill. The bound, set before
    running: the factor tables give each of the K node terms and the
    distance path its semivariance terms and the difference from the sill
    to a few ulps of the sill, and exp(-t^2 u^2) moves by at most
    |x| e^-x (x = t^2 u^2), under 1/e, times the relative rounding of x."""
    assert model.nugget > 0.0
    dists = cross_distances(nodes, sites)
    want = model.sill - model.semivariance(dists)
    assert np.array_equal(c0 == model.sill, dists == 0.0)
    bound = 8 * (model.node_weights.size + 1) * U * model.sill
    assert np.abs(c0 - want).max() <= bound
    return dists


def _axes(points):
    return [np.unique(c, return_inverse=True) for c in points.T]


def _map_covariances(model, nodes, sites):
    return np.concatenate([
        _block_covariances(model, nodes[lo:lo + _NODE_BLOCK], sites)
        for lo in range(0, len(nodes), _NODE_BLOCK)
    ])


def test_block_covariances_from_factor_tables_table1_full(full_design):
    # the table1 full design: 2,500 nodes x 400 sites, replicate 0's two
    # fitted Gaussian-basis models. Node 0 sits on site 0; nodes 49, 2450
    # and 2499 sit 1.1e-16 from a corner site and are not coincident.
    # About 0.3 s after the shared fixture.
    sc, _, trend_fit, _, covariances = full_design
    nodes, sites = sc.prediction_grid().nodes(), trend_fit.sample.locations
    for mode in ("residual", "corrected"):
        model = covariances[mode][0]
        assert model.axis_product and model.node_weights.size
        c0 = _map_covariances(model, nodes, sites)
        dists = _check_covariances(model, nodes, sites, c0)
        assert dists[0, 0] == 0.0 and c0[0, 0] == model.sill
        near = dists[[49, 2450, 2499]].min(axis=1)
        assert np.all((near > 0.0) & (near < 2e-16))
        assert np.all(c0[[49, 2450, 2499]].max(axis=1) < model.sill)


def test_block_covariances_from_factor_tables_riskmap(riskmap_fit):
    # the benchmark's risk map: 2,500 nodes of the 50 x 50 grid x 1,053
    # sites, both fitted models. About 1 s after the shared fixture.
    fit, grid = riskmap_fit
    for model in (fit.residual_model, fit.corrected_model):
        assert model.axis_product and model.node_weights.size
        _check_covariances(
            model, grid.nodes(), fit.sample.locations,
            _map_covariances(model, grid.nodes(), fit.sample.locations),
        )


def test_block_covariances_of_other_models_read_the_distances():
    # the simulation's exponential truth and the Bessel and sinc bases keep
    # the distance path bit for bit, as does a Gaussian-basis model on a
    # scattered block, whose distinct coordinates outnumber half its nodes
    # (its tables would hold more than its C0). Under 0.1 s.
    sc = table1_scenario("full")
    nodes = sc.prediction_grid().nodes()[:_NODE_BLOCK]
    sites = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (20, 20)).nodes()
    scattered = np.random.default_rng(3).uniform(size=(_NODE_BLOCK, 2))
    freqs, weights = [4.0, 9.0], [0.08, 0.03]
    cases = [(sc.model, nodes), (VariogramModel(0.02, freqs, weights), scattered)]
    cases += [(VariogramModel(0.02, freqs, weights, kernel_dim=k), nodes) for k in (2, 3)]
    for model, points in cases:
        want = covariance_matrix(model, cross_distances(points, sites))
        assert np.array_equal(_block_covariances(model, points, sites), want)
    with pytest.raises(ConfigError):
        VariogramModel(0.02, freqs, weights, kernel_dim=2).axis_covariances(_axes(nodes), sites)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axis_covariances_on_scattered_and_grid_points(dim):
    # 1-, 2- and 3-D grid points, three of them moved onto sites, and
    # scattered points: three on sites, one 1e-13 from a site and one off
    # a site by a squared difference that underflows to 0 on its one
    # differing axis (a distance of 0). The 2- and 3-D grids share their
    # coordinates enough for the dispatch to take the tables; a 1-D grid
    # does not. Under 0.1 s each.
    rng = np.random.default_rng(dim)
    model = VariogramModel(0.03, [2.0, 5.0, 11.0], [0.05, 0.02, 0.01])
    sites = rng.uniform(size=(60, dim))
    sites[-1] = 0.0
    side = {1: 300, 2: 20, 3: 7}[dim]
    grid = make_regular_grid([(0.0, 1.0)] * dim, (side,) * dim).nodes()
    grid[[5, 17, 40]] = sites[:3]
    scattered = rng.uniform(size=(200, dim))
    scattered[[0, 1, 2]] = sites[3:6]
    scattered[3] = sites[6] + 1e-13
    scattered[4, 0] = 1e-170  # the rest of its coordinates 0, as site 59's
    scattered[4, 1:] = 0.0
    c0 = model.axis_covariances(_axes(grid), sites)
    assert np.count_nonzero(_check_covariances(model, grid, sites, c0) == 0.0) >= 3
    shared = 2 * sum(len(c) for c, _ in _axes(grid)) <= len(grid)
    assert shared == (dim > 1)
    if shared:
        assert np.array_equal(_block_covariances(model, grid, sites), c0)
    c0 = model.axis_covariances(_axes(scattered), sites)
    dists = _check_covariances(model, scattered, sites, c0)
    assert np.count_nonzero(dists == 0.0) == 4 and dists[3, 6] > 0.0


def test_block_covariances_memory_table1_block(full_design):
    # one 256-node block of the table1 full map against its 400 sites, the
    # corrected model. Bound, set before running: no more than the block's
    # distances and covariances, two (256, n) doubles, which the distance
    # path holds beside its semivariance.
    sc, _, trend_fit, _, covariances = full_design
    model = covariances["corrected"][0]
    nodes = sc.prediction_grid().nodes()[:_NODE_BLOCK]
    sites = trend_fit.sample.locations
    tracemalloc.start()
    try:
        _block_covariances(model, nodes, sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * _NODE_BLOCK * len(sites)


def test_held_targets_bytes_full_scale(full_design):
    # the held targets of the table1 full design (m = 2,500 nodes, n = 400
    # sites): every block's banded rows, mask and node coordinates. Bound,
    # set before running: each band spans at most n / 2 = 200 columns, so
    # 8 m n / 2 bytes of rows plus 17 m bytes of coordinates and mask,
    # 4,042,500 bytes; the rows over every column and the distances took
    # 16 m n = 16,000,000 bytes. Under 0.1 s after the shared fixture.
    sc, ctx, trend_fit, _, _ = full_design
    m, n = ctx.targets.n_nodes, trend_fit.sample.n
    held = sum(
        array.nbytes
        for block in ctx.targets.blocks
        for array in (block.rows, block.mask, block.nodes)
    )
    bound = 8 * m * n // 2 + 17 * m
    assert bound == 4_042_500 and held <= bound


def test_node_blocks_equal_oneshot_full_scale_held_gain(full_design):
    # every mode from one call, so from one gather of the resampled
    # residuals, the theoretical one reading the design's held gain per
    # target block as views; two whole blocks of resampling rows and a
    # partial third. About 1 s after the shared fixture.
    sc, ctx, trend_fit, resid_factor, covariances = full_design
    idx = resample_indices(trend_fit.sample.n, 2 * _REPLICATE_BLOCK + 7, sc.seed, 0)
    probs = mode_probabilities(
        trend_fit, ctx.targets, idx, sc.thresholds, MODES,
        (covariances["residual"], covariances["corrected"]),
        (*covariances["theoretical"], ctx.gain),
    )
    for mode in MODES:
        args = (trend_fit, ctx.targets, resid_factor, *covariances[mode], idx, sc.thresholds)
        assert np.array_equal(probs[mode], exceedance_probabilities_per_block(*args)), mode


def _check_mean_identity(trend_fit, targets, covariance, resid_factor, idx):
    """The bootstrap mean identity of one covariance entry: the mean of the
    replicate values over the rows ``idx`` is offset + gain @ mean(e[idx]),
    and the offset, gain L^-1 f, is the dense W f of the one-shot operator.

    Bounds, set before running (u = 2^-53). A value and the identity's
    right side are each a sum of n + 1 products, so each errs by at most
    (n + 1) u times the sum of the absolute products, scale = |offset| +
    |gain| @ max|e|; the mean of b values adds at most ceil(log2 b) u
    relative to that scale, so they agree to 2 (n + 1 + ceil(log2 b)) u
    scale per node. The offset solves through L and the oracle through
    Sigma = L L^T, each erring by at most about n u kappa(Sigma) relative to
    the terms it adds, so they agree to 4 n u kappa(Sigma) times the
    largest of |gain| @ |L^-1 f|, |T| @ |f| and |C0| @ |Sigma^-1 (f - S f)|.
    """
    model, factor, *_ = covariance
    u = np.finfo(float).eps / 2
    n, b = trend_fit.sample.n, len(idx)
    e = decorrelate_residuals(trend_fit.residuals, resid_factor)
    assert abs(e.mean()) <= 1e-15 * np.abs(e).max()
    engine = whole_map_engine(trend_fit, targets, covariance)
    values = engine.replicate_values(idx, e[idx])
    want = engine.offset + engine.gain @ e[idx].mean(axis=0)
    scale = np.abs(engine.offset) + np.abs(engine.gain) @ np.abs(e[idx]).max(axis=0)
    assert np.all(
        np.abs(values.mean(axis=0) - want) <= 2 * (n + 1 + math.ceil(math.log2(b))) * u * scale
    )
    rows, dists = kept_rows_and_dists(targets, trend_fit.sample.locations)
    c0 = covariance_matrix(model, dists)
    oracle = bootstrap_engine_oneshot(trend_fit, rows, c0, factor).offset
    f = trend_fit.fitted
    sigma = factor.L @ factor.L.T
    x = np.linalg.solve(sigma, f - trend_fit.smoother.S @ f)
    terms = max(
        (np.abs(engine.gain) @ np.abs(np.linalg.solve(factor.L, f))).max(),
        (np.abs(rows) @ np.abs(f)).max(),
        (np.abs(c0) @ np.abs(x)).max(),
    )
    assert np.abs(engine.offset - oracle).max() <= 4 * n * u * np.linalg.cond(sigma) * terms
    return engine


@pytest.mark.parametrize("mode", ["theoretical", "residual", "corrected"])
def test_bootstrap_mean_identity_full_scale(full_design, mode):
    # the table1 full design, the theoretical mode through the design's
    # held gain; one block of 1000 resampling rows. The held gain reads only
    # the targets' mask: blocks holding masks alone give the same offset.
    # About 1 s per mode after the shared fixture.
    sc, ctx, trend_fit, resid_factor, covariances = full_design
    covariance = covariances[mode]
    if mode == "theoretical":
        covariance = (*covariance, ctx.gain)
    idx = resample_indices(trend_fit.sample.n, _REPLICATE_BLOCK, sc.seed, 0)
    engine = _check_mean_identity(trend_fit, ctx.targets, covariance, resid_factor, idx)
    if mode == "theoretical":
        masks_only = MapTargets(
            ctx.targets.n_nodes,
            tuple(
                TargetBlock(rows=None, mask=block.mask, nodes=None)
                for block in ctx.targets.blocks
            ),
        )
        held = whole_map_engine(trend_fit, masks_only, covariance)
        assert np.array_equal(held.offset, engine.offset)
        assert np.array_equal(held.mask, engine.mask)


def test_bootstrap_variance_identity_full_scale(full_design):
    # Var*[Y_i] = mean(e^2) |gain_i|^2 at every kept node, all three modes
    # from one set of 1000 resampling rows at a fixed seed, the theoretical
    # one through the design's held gain.
    #
    # Bound, set before running. A replicate value is Y_i = offset_i +
    # sum_k a_k e*_k, a = gain_i, with the e*_k drawn i.i.d. from the
    # centred e. With m2 = mean(e^2) and m4 = mean(e^4) it has variance
    # s = m2 |a|_2^2 and fourth central moment mu4 = 3 s^2 + (m4 - 3 m2^2)
    # |a|_4^4. The sample variance v of b i.i.d. replicates has standard
    # deviation sd = sqrt((mu4 - s^2 (b - 3) / (b - 1)) / b), and each node
    # must hold |v - s| <= 6 sd. Under the normal approximation to v at
    # b = 1000 one node breaks that with probability 2 Phi(-6) = 2.0e-9,
    # so by the union bound over the 7,500 kept nodes of the three modes a
    # correct bootstrap fails this test with probability below 1.5e-5.
    # About 0.5 s after the shared fixture.
    sc, ctx, trend_fit, resid_factor, covariances = full_design
    e = decorrelate_residuals(trend_fit.residuals, resid_factor)
    m2, m4 = np.mean(e**2), np.mean(e**4)
    b = _REPLICATE_BLOCK
    idx = resample_indices(trend_fit.sample.n, b, sc.seed, 0)
    draws = e[idx]
    checked = 0
    for mode in MODES:
        covariance = covariances[mode]
        if mode == "theoretical":
            covariance = (*covariance, ctx.gain)
        engine = whole_map_engine(trend_fit, ctx.targets, covariance)
        v = engine.replicate_values(idx, draws).var(axis=0, ddof=1)
        s = m2 * np.einsum("ij,ij->i", engine.gain, engine.gain)
        mu4 = 3.0 * s**2 + (m4 - 3.0 * m2**2) * np.sum(engine.gain**4, axis=1)
        sd = np.sqrt((mu4 - s**2 * (b - 3) / (b - 1)) / b)
        # the check has power: it tells a variance 30% off
        assert np.all(6.0 * sd <= 0.3 * s), mode
        assert np.all(np.abs(v - s) <= 6.0 * sd), mode
        checked += len(s)
    assert checked == 3 * np.count_nonzero(~ctx.targets.mask)


@pytest.fixture(scope="module")
def riskmap_fit():
    """The benchmark's risk-map fit at seed 1: ``synth_dataset(1053,
    seed=1)`` under a square-root response, fitted at the trend bandwidth
    its search selects, and a 50 x 50 grid over the data box."""
    locs, values = synth_dataset(1053, seed=1)
    fit = fit_pipeline(
        SpatialSample(locs, np.sqrt(values)),
        bandwidth=BandwidthMatrix.diagonal(5.942898252196416, 4.045057152294498),
    )
    box = [(locs[:, k].min(), locs[:, k].max()) for k in range(2)]
    return fit, make_regular_grid(box, (50, 50))


@pytest.fixture(scope="module")
def riskmap_design(riskmap_fit):
    """The benchmark's risk map at seed 1: its fit, the held targets of the
    50 x 50 grid, 1000 resampling rows of bootstrap seed 7 and two
    thresholds."""
    fit, grid = riskmap_fit
    targets = map_targets(fit.trend_fit, grid.nodes())
    idx = resample_indices(fit.sample.n, 1000, 7)
    return fit, targets, idx, [1.0, 2.0]


def _corrected_probabilities(fit, targets, idx, thresholds):
    return mode_probabilities(
        fit.trend_fit, targets, idx, thresholds, ("corrected",), fit.estimates
    )["corrected"]


def test_blocked_probabilities_equal_oneshot_riskmap(riskmap_design):
    # two whole blocks of resampling rows and a partial third, the first
    # 1000 rows those of the shared design
    fit, targets, _, thresholds = riskmap_design
    idx = resample_indices(fit.sample.n, 2 * _REPLICATE_BLOCK + 7, 7)
    assert np.array_equal(
        _corrected_probabilities(fit, targets, idx, thresholds),
        exceedance_probabilities_oneshot(
            fit.trend_fit, targets, fit.residual_factor,
            fit.corrected_model, fit.corrected_factor, idx, thresholds,
        ),
    )


def test_node_blocks_equal_oneshot_on_widened_riskmap_grid(riskmap_fit):
    # the data box widened by 20% a side masks 690 of the 2500 nodes,
    # some blocks in part, and the last of the ten blocks holds 196 nodes;
    # two whole blocks of resampling rows and a partial third. Each block
    # is compared with its own one-shot reference. About 5 s.
    fit, grid = riskmap_fit
    locs = fit.sample.locations
    box = [(locs[:, k].min(), locs[:, k].max()) for k in range(2)]
    box = [(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)) for lo, hi in box]
    grid = make_regular_grid(box, grid.dims)
    targets = map_targets(fit.trend_fit, grid.nodes())
    masks = [block.mask for block in targets.blocks]
    assert targets.mask.sum() == 690 and targets.n_nodes % _NODE_BLOCK
    assert any(mask.any() and not mask.all() for mask in masks)
    b = 2 * _REPLICATE_BLOCK + 7
    idx = resample_indices(fit.sample.n, b, 7)
    thresholds = [1.0, 2.0]
    probs = mode_probabilities(
        fit.trend_fit, targets, idx, thresholds, ("residual", "corrected"), fit.estimates
    )
    for mode, (model, factor) in zip(("residual", "corrected"), fit.estimates):
        want = exceedance_probabilities_per_block(
            fit.trend_fit, targets, fit.residual_factor, model, factor, idx, thresholds
        )
        assert np.array_equal(probs[mode], want, equal_nan=True), mode
    maps = risk_maps(fit, grid, thresholds, n_replicates=b, seed=7)
    assert np.array_equal(
        np.array([m.probabilities for m in maps]), probs["corrected"], equal_nan=True
    )


@pytest.mark.parametrize("mode", ["residual", "corrected"])
def test_bootstrap_mean_identity_riskmap(riskmap_design, mode):
    # the bounds of _check_mean_identity at n = 1053, 2500 map nodes and
    # the first 1000 resampling rows of bootstrap seed 7. About 3 s per mode
    # after the shared fixture.
    fit, targets, idx, _ = riskmap_design
    covariance = dict(zip(("residual", "corrected"), fit.estimates))[mode]
    _check_mean_identity(
        fit.trend_fit, targets, covariance, fit.residual_factor, idx[:_REPLICATE_BLOCK]
    )


def test_exceedance_memory_at_riskmap_design(riskmap_design):
    m, n = riskmap_design[1].n_nodes, riskmap_design[0].sample.n
    tracemalloc.start()
    try:
        _corrected_probabilities(*riskmap_design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (m, n) gain and the n x n solve it is built from, one more n x n
    # array and 4 MiB of block temporaries (built in one shot: 72.1 MB)
    assert peak <= 8 * m * n + 2 * 8 * n * n + 4 * 2**20


def test_risk_maps_memory_at_riskmap_design(riskmap_fit):
    fit, grid = riskmap_fit
    m, n, b = grid.n_nodes, fit.sample.n, 1000
    tracemalloc.start()
    try:
        risk_maps(fit, grid, [1.0, 2.0], n_replicates=b, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (m, n) gain, two n x n solves, the (B, n) resampling indices and
    # 4 MiB of block temporaries; no (m, n) smoother rows or distances,
    # since each target block is formed inside the operator loop (holding
    # all of them peaked at 87.7 MB)
    assert peak <= 8 * m * n + 2 * 8 * n * n + 8 * b * n + 4 * 2**20


def test_risk_maps_memory_without_whole_map_gain(riskmap_fit):
    # the bound of the test above without its (m, n) gain term. Set before
    # running: the (B, n) resampling indices and the (B, n) draws gathered
    # from them, then either the n x n solve with the right-hand side it is
    # formed from, or the solve and one target block: at most six (256, n)
    # doubles (its smoother rows and distances, the semivariance and C0,
    # its gain rows and the previous block's), plus 4 MiB of smaller
    # temporaries, among them one (1000, 256) block of replicate values
    fit, grid = riskmap_fit
    n, b = fit.sample.n, 1000
    tracemalloc.start()
    try:
        risk_maps(fit, grid, [1.0, 2.0], n_replicates=b, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * b * n + 8 * n * n + max(8 * n * n, 6 * 8 * _NODE_BLOCK * n) + 4 * 2**20


def test_risk_maps_memory_grows_only_by_per_node_outputs(fitted):
    # n = 64 sites. A 120 x 120 grid holds 13,500 nodes more than a 30 x 30
    # one; a whole-map gain would add 8 n = 512 bytes per node. Set before
    # running: per node, risk_maps holds its coordinates (two doubles, four
    # while they are formed) and one probability per threshold, so the
    # peaks differ by at most 8 (4 + 2) bytes per node, plus 64 KiB. About 1 s.
    peaks = []
    for k in (30, 120):
        grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (k, k))
        tracemalloc.start()
        try:
            risk_maps(fitted, grid, [2.0, 2.5], n_replicates=200, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * (4 + 2) * (120**2 - 30**2) + 2**16


@pytest.mark.parametrize("widen", [0.0, 0.2])
def test_prediction_map_equals_whole_map_kriging(riskmap_fit, widen):
    # 2500 nodes: nine full node blocks and a partial last one. The data
    # box masks no node; widened by 20% a side it masks 690, some blocks
    # in part. Each kept node's smoother row and covariances are formed as
    # in the whole-map reference. The reference is taken per node block
    # too, since OpenBLAS gives a block of rows of a product the bits of
    # the same rows of the whole product only where it splits the rows
    # alike (single-threaded it does; on two threads one node of 2500
    # differs by an ulp). Per block the maps are array-equal; against the
    # whole-map products they agree to 1e-12 relative.
    fit, grid = riskmap_fit
    if widen:
        locs = fit.sample.locations
        box = [(locs[:, k].min(), locs[:, k].max()) for k in range(2)]
        box = [(lo - widen * (hi - lo), hi + widen * (hi - lo)) for lo, hi in box]
        grid = make_regular_grid(box, grid.dims)
    nodes = grid.nodes()
    assert len(nodes) > _NODE_BLOCK and len(nodes) % _NODE_BLOCK
    trend, prediction = prediction_map(
        fit.trend_fit, nodes, fit.corrected_model, fit.corrected_factor
    )
    rows, bad = prediction_weights(fit.trend_fit, nodes)
    mask = np.zeros(len(nodes), dtype=bool)
    mask[bad] = True
    assert mask.sum() == (690 if widen else 0)
    assert np.array_equal(np.isnan(trend), mask) and np.array_equal(np.isnan(prediction), mask)
    residuals, values = fit.trend_fit.residuals, fit.sample.values

    def krige(targets):
        return krige_targets(
            fit.corrected_model, fit.corrected_factor, fit.sample.locations, residuals, targets
        )

    for lo in range(0, len(nodes), _NODE_BLOCK):
        keep = lo + np.flatnonzero(~mask[lo:lo + _NODE_BLOCK])
        block_trend = rows[keep] @ values
        assert np.array_equal(trend[keep], block_trend)
        assert np.array_equal(
            prediction[keep], block_trend + krige(nodes[keep])
        )
    reference = rows[~mask] @ values
    krig = krige(nodes[~mask])
    assert_allclose(trend[~mask], reference, rtol=1e-12, atol=0)
    assert_allclose(prediction[~mask], reference + krig, rtol=1e-12, atol=0)


def test_prediction_map_coincident_nodes_beyond_first_block():
    # 400 nodes (k // 20, k % 20): node 305 is a site, node 350 lies 1e-13
    # from one, both in the second node block. Under a nugget the plain
    # kriging formula does not return the residual at 1e-13, so the
    # coincidence rule is what puts it there.
    grid = make_regular_grid([(0.0, 19.0), (0.0, 19.0)], (20, 20))
    nodes = grid.nodes()
    rng = np.random.default_rng(11)
    on_nodes = [305, 350]
    locs = np.vstack([
        rng.uniform(0.0, 19.0, size=(118, 2)), nodes[305], nodes[350] + [1e-13, 0.0]
    ])
    sites = [118, 119]
    sample = SpatialSample(locs, rng.normal(size=120))
    trend_fit = fit_trend(sample, BandwidthMatrix.diagonal(5.0, 5.0))
    r = trend_fit.residuals
    model = VariogramModel(nugget=0.05, node_freqs=[0.5], node_weights=[0.3])
    factor = kriging_factor(sample.locations, model)
    trend, prediction = prediction_map(trend_fit, nodes, model, factor)
    pred = krige_targets(model, factor, sample.locations, r, nodes)
    c0 = covariance_matrix(model, cross_distances(nodes[on_nodes], sample.locations))
    plain = c0 @ solve_spd(factor, r)
    assert abs(plain[1] - r[sites[1]]) > 1e-3
    assert np.isfinite(trend[on_nodes]).all()
    assert np.array_equal(prediction[on_nodes], trend[on_nodes] + r[sites])
    assert np.array_equal(pred[on_nodes], r[sites])


def test_prediction_map_memory_at_riskmap_design(riskmap_fit):
    fit, grid = riskmap_fit
    nodes = grid.nodes()
    m, n = len(nodes), fit.sample.n
    tracemalloc.start()
    try:
        prediction_map(fit.trend_fit, nodes, fit.corrected_model, fit.corrected_factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one node block at a time: its smoother rows and distances, the
    # semivariance and C0 formed from them, and a distance or row
    # temporary, at most five (256, n) doubles, plus O(m + n) vectors;
    # kriging all nodes at once would hold three (m, n) arrays, 21 MB each
    assert peak <= 5 * 8 * _NODE_BLOCK * n + 8 * 8 * (m + n)


def test_replicates_are_evaluated_per_block_of_index_rows(fitted, monkeypatch):
    # per block of replicates within each target block: every call sees
    # whole index rows, and the 49 nodes of SMALL_GRID make one target
    # block, so the calls add up to B once per map set
    calls = []
    evaluate = BootstrapEngine.replicate_values

    def counted(self, idx, draws):
        calls.append(idx.shape)
        return evaluate(self, idx, draws)

    monkeypatch.setattr(BootstrapEngine, "replicate_values", counted)
    b = 2 * _REPLICATE_BLOCK + 7
    risk_maps(fitted, SMALL_GRID, [2.0, 2.5], n_replicates=b, seed=6)
    n = fitted.sample.n
    assert calls == [(_REPLICATE_BLOCK, n), (_REPLICATE_BLOCK, n), (7, n)]


# ---------------------------------------------------------------------------
# risk maps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sparse_fit():
    """``synth_dataset(120, seed=3)`` under a square-root response, fitted
    by the full pipeline (trend bandwidth about 9.6 on both axes)."""
    locs, values = synth_dataset(120, seed=3)
    return fit_pipeline(SpatialSample(locs, np.sqrt(values)))


# (grid, masked nodes) over data on [0, 60] x [0, 30]; nodes run x-major
HOSTILE_GRIDS = {
    # the first 256 nodes all have x < -326
    "first block masked": (make_regular_grid([(-600.0, 60.0), (0.0, 30.0)], (30, 20)), 540),
    "past the hull": (make_regular_grid([(500.0, 600.0), (500.0, 600.0)], (5, 7)), 35),
    # 256 + 44 nodes, masked columns at both x ends
    "partial last block": (make_regular_grid([(-15.0, 75.0), (0.0, 30.0)], (20, 15)), 62),
}


@pytest.mark.parametrize("name", list(HOSTILE_GRIDS))
def test_risk_maps_on_hostile_grids(sparse_fit, name):
    grid, n_masked = HOSTILE_GRIDS[name]
    nodes = grid.nodes()
    trend_fit = sparse_fit.trend_fit
    # the mask and kept rows of the whole grid at once
    rows, bad = prediction_weights(trend_fit, nodes)
    mask = np.zeros(len(nodes), dtype=bool)
    mask[bad] = True
    assert mask.sum() == n_masked
    if name == "first block masked":
        assert mask[:_NODE_BLOCK].all() and not mask.all()
    elif name == "partial last block":
        tail = mask[-(len(nodes) % _NODE_BLOCK):]
        assert tail.any() and not tail.all()

    maps = risk_maps(sparse_fit, grid, [1.0, 1.5], n_replicates=100, seed=5)
    for m in maps:
        assert m.n_masked == n_masked
        assert np.array_equal(np.isnan(m.probabilities), mask)
    targets = blocked_targets(rows[~mask], mask, nodes[~mask])
    oneshot = exceedance_probabilities_oneshot(
        trend_fit, targets, sparse_fit.residual_factor,
        *mode_covariance("corrected", sparse_fit.estimates),
        resample_indices(sparse_fit.sample.n, 100, 5), [1.0, 1.5],
    )
    assert np.array_equal(np.array([m.probabilities for m in maps]), oneshot, equal_nan=True)


def test_risk_map_threshold_limits(fitted):
    maps = risk_maps(fitted, SMALL_GRID, [-np.inf, np.inf], n_replicates=23, seed=5)
    assert_allclose(maps[0].probabilities, np.ones(SMALL_GRID.n_nodes), atol=0)
    assert_allclose(maps[1].probabilities, np.zeros(SMALL_GRID.n_nodes), atol=0)


def test_risk_map_single_replicate_is_indicator(fitted):
    m = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=1, seed=11)[0]
    vals = m.probabilities[~np.isnan(m.probabilities)]
    assert set(np.unique(vals)).issubset({0.0, 1.0})


def test_risk_map_counts_are_integers(fitted):
    b = 37
    m = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=b, seed=3)[0]
    counts = m.probabilities[~np.isnan(m.probabilities)] * b
    assert_allclose(counts, np.round(counts), atol=1e-9)
    assert np.nanmax(m.probabilities) <= 1.0
    assert np.nanmin(m.probabilities) >= 0.0


def test_risk_maps_monotone_in_threshold(fitted):
    maps = risk_maps(fitted, SMALL_GRID, [2.0, 2.5, 3.0, 3.5], n_replicates=100, seed=2)
    stack = np.array([m.probabilities for m in maps])
    assert np.all(np.diff(stack, axis=0) <= 1e-12)


def test_risk_map_seed_changes_map(fitted):
    a = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=50, seed=1)[0]
    b = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=50, seed=2)[0]
    assert not np.array_equal(a.probabilities, b.probabilities, equal_nan=True)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def test_mode_corrected_equals_risk_maps(fitted):
    # the default maps are the corrected mode's probabilities at the map
    # targets, masked nodes NaN
    direct = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=60, seed=4)
    via_mode = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=60, seed=4, mode="corrected")
    targets = map_targets(fitted.trend_fit, SMALL_GRID.nodes())
    idx = resample_indices(fitted.sample.n, 60, 4)
    probs = mode_probabilities(
        fitted.trend_fit, targets, idx, [2.5], ("corrected",), fitted.estimates
    )["corrected"]
    assert np.array_equal(via_mode[0].probabilities, direct[0].probabilities, equal_nan=True)
    assert np.array_equal(direct[0].probabilities, probs[0], equal_nan=True)
    assert np.array_equal(np.isnan(probs[0]), targets.mask)


def test_mode_residual_differs_from_corrected(fitted):
    res = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=80, seed=4, mode="residual")[0]
    cor = risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=80, seed=4)[0]
    assert not np.array_equal(res.probabilities, cor.probabilities, equal_nan=True)


def test_mode_theoretical_requires_truth(fitted):
    with pytest.raises(ConfigError, match="theoretical"):
        risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=10, seed=0, mode="theoretical")
    with pytest.raises(ConfigError, match="theoretical"):
        mode_covariance("theoretical", fitted.estimates)


def test_mode_theoretical_runs_with_truth(fitted):
    # a simulation's true covariance recorrelates and kriges in its place
    true_model = VariogramModel(
        nugget=0.04, node_freqs=[6.0], node_weights=[0.12], kernel_dim=GAUSSIAN_DIM
    )
    (true_factor,) = _factorize((true_model,), pairwise_distances(fitted.sample))
    targets = map_targets(fitted.trend_fit, SMALL_GRID.nodes())
    theoretical = (
        true_model, true_factor,
        mode_gain(fitted.trend_fit, targets, true_model, true_factor),
    )
    assert mode_covariance("theoretical", fitted.estimates, theoretical) is theoretical
    idx = resample_indices(fitted.sample.n, 40, 8)
    probs = mode_probabilities(
        fitted.trend_fit, targets, idx, [2.5], ("theoretical",), fitted.estimates, theoretical
    )["theoretical"]
    assert probs.shape == (1, SMALL_GRID.n_nodes)
    assert np.array_equal(np.isnan(probs[0]), targets.mask)
    kept = probs[0, ~targets.mask]
    assert kept.min() >= 0.0 and kept.max() <= 1.0
    # an entry without its gain forms it with the offset, to the same bits
    formed = mode_probabilities(
        fitted.trend_fit, targets, idx, [2.5], ("theoretical",), fitted.estimates,
        theoretical[:2],
    )["theoretical"]
    assert np.array_equal(formed, probs, equal_nan=True)


def test_unknown_mode_rejected(fitted):
    with pytest.raises(ConfigError):
        risk_maps(fitted, SMALL_GRID, [2.5], n_replicates=10, seed=0, mode="nope")


@pytest.mark.parametrize("thresholds", [[np.nan], [2.5, np.nan], [2.5, 2.5], [], np.array([2.0, 2.0])])
def test_risk_maps_rejects_nan_or_repeated_thresholds(fitted, thresholds):
    # a NaN threshold gave an all-zero map, and a repeated one the same map
    # twice; -inf and inf stay the limits (test_risk_map_threshold_limits).
    # Under 0.1 s each
    with pytest.raises(ConfigError, match="threshold"):
        risk_maps(fitted, SMALL_GRID, thresholds, n_replicates=10, seed=0)


def test_rng_stream_independent_of_call_order():
    a = rng_stream(5, 2, 7).integers(0, 1000, 4)
    _ = rng_stream(5, 2, 8).integers(0, 1000, 4)
    b = rng_stream(5, 2, 7).integers(0, 1000, 4)
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        rng_stream(-1)


def test_traced_parameters_keep_their_names():
    # bench/tracer.py reads these parameters by name from the signatures of
    # the functions it wraps, and wraps default_lag_bandwidths by its public
    # name, so a rename fails here and not only in a traced benchmark run.
    # Under 0.1 s.
    for fn, name in (
        (select_lag_bandwidth, "residuals"),
        (select_lag_bandwidth, "candidates"),
        (select_bandwidth, "search_grid"),
        (BootstrapEngine.replicate_values, "idx"),
    ):
        assert name in inspect.signature(fn).parameters, (fn.__qualname__, name)
    assert callable(getattr(variogram, "default_lag_bandwidths", None))
