import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import (
    bias_corrected_variogram_dense,
    bias_iteration_dense,
    bias_matrix_dense,
    bias_matrix_tripleloop,
    empirical_variogram_dense,
    lag_sums_naive_many,
    local_lag_fit_naive,
    local_lag_sums_naive,
    pair_lag_base_sums_per_segment,
    segment_pass_stacked,
    semivariance_dense,
)
from georisk import bootstrap, variogram
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
from georisk.simulation import (
    _DesignContext,
    simulate_field,
    table1_scenario,
    table2_scenarios,
    table3_scenario,
)
from georisk.trend import apply_smoother, fit_trend, smoother_matrix
from georisk.variogram import (
    DEFAULT_MIN_PAIRS,
    EmpiricalVariogram,
    PairTable,
    VariogramModel,
    _intercepts,
    _lag_base_sums,
    _loo_estimates,
    _pair_loo_score,
    _pair_window_ends,
    bias_corrected_variogram,
    bias_matrix,
    correlation_matrix,
    covariance_matrix,
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


def _cv_relative_error(resid, d, lags, g, min_pairs=DEFAULT_MIN_PAIRS):
    """The leave-one-pair-out relative squared error that
    ``select_lag_bandwidth`` minimizes, of ``resid`` at lag bandwidth ``g``
    on sites with distance matrix ``d``."""
    table = PairTable.from_distances(d)
    z = table.squared_differences(resid)
    return _pair_loo_score(table.distances, z, np.asarray(lags), g, min_pairs)


def _window_counts(d, g):
    """The pairs in each pair's open window (d_i - g, d_i + g), from the
    window starts and ends ``_lag_base_sums`` sums between."""
    left = np.searchsorted(d, d - g, side="right")
    return _pair_window_ends(d, left, g) - left


def test_base_sums_match_naive():
    # the sums at every pair's own distance, the leave-one-out targets
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = int(rng.integers(30, 200))
        d = np.sort(rng.uniform(0.01, 2.0, size=p))
        z = rng.uniform(0.0, 1.0, size=p)
        g = float(rng.uniform(0.08, 1.5))
        s0, s1, s2, t0, t1 = _lag_base_sums(d, z, g)
        cnt = _window_counts(d, g)
        for i, t in enumerate(d):
            u = (d - t) / g
            w = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)
            dd = d - t
            assert s0[i] == pytest.approx(w.sum(), abs=1e-9 * max(1.0, w.sum()))
            assert s1[i] == pytest.approx(w @ dd, abs=1e-9 * max(1.0, np.abs(w @ dd)))
            assert s2[i] == pytest.approx(w @ (dd * dd), rel=1e-8, abs=1e-12)
            assert t0[i] == pytest.approx(w @ z, rel=1e-8, abs=1e-12)
            assert t1[i] == pytest.approx(w @ (dd * z), rel=1e-8, abs=1e-10)
            assert cnt[i] == int(np.sum(np.abs(u) < 1.0))


def test_intercepts_of_degenerate_windows_do_not_warn():
    # both branches of the vectorized choice are evaluated at every entry,
    # so an empty window (no weight: NaN) and a singular design (one
    # distance: the local constant) must come out without a warning. At
    # n = 1053 no leave-one-out window is empty, so only small inputs meet
    # this. Under 0.1 s.
    s0, s1, s2, t0, t1 = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],  # no pair in the window
        [2.0, 0.0, 0.0, 1.0, 0.0],  # two pairs at the target itself
        [3.0, 0.3, 0.5, 0.9, 0.1],  # a regular design
    ]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = _intercepts(s0, s1, s2, t0, t1)
    assert np.isnan(alpha[0])
    assert alpha[1] == 0.5
    assert alpha[2] == (0.5 * 0.9 - 0.3 * 0.1) / (3.0 * 0.5 - 0.3 * 0.3)


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
    lags = default_lag_grid(pd)

    ours = _cv_relative_error(resid, d, lags, g, min_pairs=1)
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
def residuals_n1000():
    """n = 1000 uniform sites (P = 499,500 pairs) and spatially structured
    residuals, as a realistic input to the lag smoother: the pair table
    and the residuals."""
    rng = np.random.default_rng(12)
    locs = rng.uniform(size=(1000, 2))
    resid = np.sin(4.0 * locs[:, 0]) + 0.5 * rng.standard_normal(1000)
    return PairTable.from_distances(pairwise_distances(locs)), resid


@pytest.fixture(scope="module")
def pairs_n1000(residuals_n1000):
    """The pair table of ``residuals_n1000`` and its squared differences."""
    table, resid = residuals_n1000
    return table, table.squared_differences(resid)


def test_base_sums_match_naive_at_realistic_size(pairs_n1000):
    table, z = pairs_n1000
    d = table.distances
    # the sums at 150 sampled pairs' own distances, the leave-one-out targets
    rows = np.random.default_rng(13).choice(d.size, 150, replace=False)
    for g in default_lag_bandwidths(d)[[0, 4, 9]]:
        sums = _lag_base_sums(d, z, g)
        counts = _window_counts(d, g)
        for i in rows:
            ref, abs_ref, count = local_lag_sums_naive(d[i], d, z, g)
            assert counts[i] == count
            for k in range(5):
                assert abs(sums[k][i] - ref[k]) <= 1e-10 * abs_ref[k]


def test_loo_estimates_match_naive_at_realistic_size(pairs_n1000):
    table, z = pairs_n1000
    d = table.distances
    picks = np.random.default_rng(14).choice(d.size, 100, replace=False)
    for g in default_lag_bandwidths(table.distances)[[0, 9]]:
        gamma = _loo_estimates(d, z, g)
        for p in picks:
            ref = 0.5 * local_lag_fit_naive(d[p], d, z, g, exclude=p)
            assert gamma[p] == pytest.approx(ref, rel=1e-8)


def test_loo_score_holds_at_most_12_doubles_per_pair_at_n1053():
    # the 5 sums, the 2 window bounds, the pair counts and the estimates
    # are the P-length arrays; everything else is formed per block of pairs
    # (one-array estimates and score reached 19.8 doubles per pair)
    locs, values = synth_dataset(1053, seed=1)
    table = PairTable.from_distances(pairwise_distances(locs))
    z = table.squared_differences(np.sqrt(values) - np.sqrt(values).mean())
    lags = default_lag_grid(table.distances)
    for g in default_lag_bandwidths(table.distances):
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
    lags = default_lag_grid(table.distances)
    skipped = 0
    for values in (z, z - np.median(z)):
        for g in default_lag_bandwidths(table.distances)[[0, 4, 9]]:
            gamma = _loo_estimates(table.distances, values, g)
            usable = np.isfinite(gamma) & (gamma > 1e-12)
            skipped += int(np.count_nonzero(~usable))
            terms = ((0.5 * values[usable] - gamma[usable]) / gamma[usable]) ** 2
            assert _pair_loo_score(table.distances, values, lags, g, 5) == float(terms.sum())
    assert skipped > 0


@pytest.fixture(scope="module", params=["table3", "table1"])
def desk_pairs(request):
    """P = 4,950 pairs of a desk design of study seed 20240 and its centred
    field values: the random table3 sites, or the regular 10 x 10 table1
    grid, whose repeated distances fall on segment edges."""
    make = table3_scenario if request.param == "table3" else table1_scenario
    field = simulate_field(make("desk", seed=20240), 0)
    table = PairTable.from_distances(pairwise_distances(field.locations))
    return request.param, table, field.values - field.values.mean()


def test_chunked_sums_match_direct_sums_at_desk_size(desk_pairs):
    # every pair as a target, as in the leave-one-out score, for all ten
    # default candidates, checked at a spread of targets that includes every
    # repeated distance: counts exact, sums within 1e-10 of the sum of the
    # absolute values of their terms. On the regular grid a narrow window
    # can hold only pairs at the target's own distance, so that S1 and T1
    # are sums of zeros there; moments about a segment centre carry them to
    # about 1e-14 (as the per-segment sums did), so the bound there adds
    # 1e-10 g^p times the window's zero-order sum, the largest the terms'
    # scale (d - t)^p can reach
    design, table, resid = desk_pairs
    d, z = table.distances, table.squared_differences(resid)
    assert d.size == 4950
    # every 8th target and the first pair at each repeated distance
    _, first, repeats = np.unique(d, return_index=True, return_counts=True)
    checked = np.union1d(np.arange(0, d.size, 8), first[repeats > 1])
    for g in default_lag_bandwidths(table.distances):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = _lag_base_sums(d, z, g)
        counts = _window_counts(d, g)
        for k0 in range(0, checked.size, 250):
            rows = checked[k0:k0 + 250]
            ref, abs_ref, count = lag_sums_naive_many(d[rows], d, z, g)
            assert np.array_equal(counts[rows], count), g
            for k, p in enumerate((0, 1, 2, 0, 1)):
                scale = abs_ref[k]
                if design == "table1":
                    scale = scale + g**p * abs_ref[0 if k < 3 else 3]
                assert np.all(np.abs(sums[k][rows] - ref[k]) <= 1e-10 * scale), (g, k)


def _loo_scores(table, resid, lags):
    """The leave-one-pair-out score of each default candidate, None where
    the candidate is inadmissible on the lag grid."""
    z = table.squared_differences(resid)
    scores = []
    for g in default_lag_bandwidths(table.distances):
        try:
            scores.append(_pair_loo_score(table.distances, z, lags, g, 5))
        except BandwidthTooSmallError:
            scores.append(None)
    return scores


def test_chunked_lag_search_selects_as_per_segment_sums(desk_pairs, monkeypatch):
    # under 0.5 s per design
    _, table, resid = desk_pairs
    _assert_selects_as_per_segment_sums(table, resid, monkeypatch)


def test_lag_search_selects_as_per_segment_sums_at_realistic_size(residuals_n1000, monkeypatch):
    # P = 499,500 pairs, all ten default candidates admissible or not as
    # the per-segment oracle finds them. About 9 s
    table, resid = residuals_n1000
    _assert_selects_as_per_segment_sums(table, resid, monkeypatch)


def _assert_selects_as_per_segment_sums(table, resid, monkeypatch):
    """The lag search selects the g it selects from the per-segment sums of
    ``_oracles``, and every candidate scores within 1e-10 of its score
    there, inadmissible where it is inadmissible there."""
    lags = default_lag_grid(table.distances)
    chosen = select_lag_bandwidth(resid, table, lags)
    scores = _loo_scores(table, resid, lags)

    def per_segment(d, z, g, counts=None):
        # where distances repeat the search asks for sums at each distinct
        # distance: the per-segment sums at every pair, read at the first
        # pair of each distance
        if counts is None:
            return pair_lag_base_sums_per_segment(d, z, g)
        first = np.cumsum(counts) - counts
        pair_z = table.squared_differences(resid)
        return pair_lag_base_sums_per_segment(table.distances, pair_z, g)[:, first]

    monkeypatch.setattr(variogram, "_lag_base_sums", per_segment)
    assert select_lag_bandwidth(resid, table, lags) == chosen
    ref = _loo_scores(table, resid, lags)
    assert [s is None for s in scores] == [s is None for s in ref]
    assert sum(s is not None for s in ref) >= 5
    for score, want in zip(scores, ref):
        if want is not None:
            assert score == pytest.approx(want, rel=1e-10)


def test_pair_table_levels_only_where_distances_repeat():
    # a regular grid's table holds its distinct distances, the pairs at
    # each and each pair's level (int32), carried over by relabeling; a
    # random design's distances do not repeat, so its table holds no
    # per-pair level array. Under 0.1 s.
    grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (10, 10)).nodes()
    table = PairTable.from_distances(pairwise_distances(grid))
    levels = table.levels
    assert levels.index.dtype == np.int32 and levels.index.size == table.distances.size
    assert np.array_equal(levels.distances, np.unique(table.distances))
    assert np.array_equal(levels.distances[levels.index], table.distances)
    assert np.array_equal(levels.counts, np.bincount(levels.index))
    order = np.random.default_rng(4).permutation(100)
    assert table.relabeled(order).levels is levels
    random = np.random.default_rng(5).uniform(size=(100, 2))
    assert PairTable.from_distances(pairwise_distances(random)).levels is None


@pytest.fixture(scope="module")
def grid_32():
    """The pair table of a 32 x 32 regular grid (n = 1024, P = 523,776
    pairs at 1,133 distinct distances) and structured residuals."""
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (32, 32)).nodes()
    table = PairTable.from_distances(pairwise_distances(locs))
    rng = np.random.default_rng(16)
    return table, np.sin(4.0 * locs[:, 0]) + 0.5 * rng.standard_normal(len(locs))


def test_level_sums_match_naive_at_realistic_size(grid_32):
    # the sums taken once per distinct distance, read at 150 sampled pairs,
    # against direct sums over each pair's window, with the bound of
    # test_chunked_sums_match_direct_sums_at_desk_size for a regular grid.
    # About 5 s.
    table, resid = grid_32
    d, levels = table.distances, table.levels
    assert d.size == 523_776 and levels.distances.size == 1_133
    z = table.squared_differences(resid)
    z_levels = levels.sums(z)
    rows = np.random.default_rng(17).choice(d.size, 150, replace=False)
    for g in default_lag_bandwidths(d)[[0, 4, 9]]:
        sums = _lag_base_sums(levels.distances, z_levels, g, levels.counts)
        for i in rows:
            lo, hi = np.searchsorted(d, d[i] - g), np.searchsorted(d, d[i] + g, side="right")
            ref, abs_ref, _ = local_lag_sums_naive(d[i], d[lo:hi], z[lo:hi], g)
            for k, p in enumerate((0, 1, 2, 0, 1)):
                scale = abs_ref[k] + g**p * abs_ref[0 if k < 3 else 3]
                assert abs(sums[k][levels.index[i]] - ref[k]) <= 1e-10 * scale, (g, k)


def test_level_scores_match_per_pair_engine_at_realistic_size(grid_32):
    # all ten default candidates scored over distinct distances and pair by
    # pair: the same inadmissible candidates and the same winner; every
    # leave-one-out estimate within 1e-10 of the largest, and each score
    # within 1e-10 relative plus the first-order change of its terms
    # ((z/2 - gamma)/gamma)^2 under that change of their estimates. The
    # second part matters at the two narrowest candidates: the far corner
    # pair's estimate is 1.1e-8, the fit through two distinct distances
    # cancelling terms of about 1e-2, so its term is about 9e14 and moves
    # by about 7e8 between the engines, with the estimates 4.6e-15 apart.
    # About 4 s, most of it the per-pair engine.
    table, resid = grid_32
    d = table.distances
    z = table.squared_differences(resid)
    lags = default_lag_grid(d)
    levels = (table.levels, table.levels.sums(z))
    by_level, by_pair = [], []
    for g in default_lag_bandwidths(d):
        try:
            score = _pair_loo_score(d, z, lags, g, 5, levels)
        except BandwidthTooSmallError:
            by_level.append(np.inf)
            by_pair.append(np.inf)
            continue
        got, want = _loo_estimates(d, z, g, levels), _loo_estimates(d, z, g)
        used = np.isfinite(want) & (want > 1e-12)
        assert np.array_equal(used, np.isfinite(got) & (got > 1e-12))
        delta = 1e-10 * want[used].max()
        assert np.all(np.abs(got[used] - want[used]) <= delta), g
        half_z, gamma = 0.5 * z[used], want[used]
        terms = ((half_z - gamma) / gamma) ** 2
        slope = 2.0 * np.abs(half_z / gamma - 1.0) * half_z / gamma**2
        assert abs(score - terms.sum()) <= 1e-10 * terms.sum() + delta * slope.sum(), g
        by_level.append(score)
        by_pair.append(float(terms.sum()))
    assert sum(np.isfinite(by_pair)) >= 5
    assert np.argmin(by_level) == np.argmin(by_pair)
    assert select_lag_bandwidth(resid, table, lags) == default_lag_bandwidths(d)[np.argmin(by_pair)]


def test_level_sums_in_lone_segments_match_per_pair_sums(monkeypatch):
    # the n = 1053 risk-map sites with site 0 given twice: 1,052 distances
    # repeat, so the table has levels, and nearly all of its 554,931 pairs
    # are levels of one pair in segments longer than a stack, which take
    # the lone-segment path with the counts. Every pair's level sums equal
    # its per-pair sums within 1e-10 of their scale: S0, S2 and T0 have
    # nonnegative terms, and |d - t| < g in a window, so the absolute terms
    # of S_k and T_k sum to at most g^k S0 and g^k T0. About 2 s.
    locs, values = synth_dataset(1053, seed=1)
    locs, values = np.vstack([locs, locs[:1]]), np.r_[values, values[0]]
    table = PairTable.from_distances(pairwise_distances(locs))
    levels = table.levels
    assert np.count_nonzero(levels.counts > 1) == 1052
    z = table.squared_differences(np.sqrt(values) - np.sqrt(values).mean())
    weighted = []

    def lone(*args, **kwargs):
        weighted.append("counts" in kwargs)
        return segment_pass(*args, **kwargs)

    segment_pass = variogram._segment_pass
    monkeypatch.setattr(variogram, "_segment_pass", lone)
    for g in default_lag_bandwidths(table.distances)[[0, 4, 9]]:
        per_pair = _lag_base_sums(table.distances, z, g)
        weighted.clear()
        by_level = _lag_base_sums(levels.distances, levels.sums(z), g, levels.counts)
        assert weighted and all(weighted), g
        got = by_level[:, levels.index]
        for k, p in enumerate((0, 1, 2, 0, 1)):
            scale = g**p * per_pair[0 if k < 3 else 3]
            assert np.all(np.abs(got[k] - per_pair[k]) <= 1e-10 * scale), (g, k)


@pytest.mark.parametrize("design", ["table1-full", "table1-desk", "table2-desk"])
def test_level_search_selects_as_per_pair_engine_on_study_designs(design):
    # the lag bandwidth the study selects on its regular design, for the
    # first 10 replicates of study seed 20240 (each of the three table2
    # ranges), is the one the per-pair engine selects from the same table
    # without its levels. About 5 s for table1 full, 1 s for the others.
    scale = design.split("-")[1]
    scenarios = table2_scenarios(scale) if design.startswith("table2") else [table1_scenario(scale)]
    for sc in scenarios:
        ctx = _DesignContext.build(sc, simulate_field(sc, 0).locations)
        pairs, lags = ctx.site.pairs, ctx.site.lag_grid
        assert pairs.levels is not None
        per_pair = dataclasses.replace(pairs, levels=None)
        for rep in range(10):
            resid = apply_smoother(ctx.smoother, simulate_field(sc, rep, ctx)).residuals
            assert select_lag_bandwidth(resid, pairs, lags) == select_lag_bandwidth(
                resid, per_pair, lags
            ), (sc.name, rep)


@pytest.fixture(scope="module")
def pairs_n1053():
    """The pair table of ``synth_dataset(1053, seed=1)`` (P = 553,878) and
    its centred square-root residuals' squared differences."""
    locs, values = synth_dataset(1053, seed=1)
    table = PairTable.from_distances(pairwise_distances(locs))
    return table, table.squared_differences(np.sqrt(values) - np.sqrt(values).mean())


def test_lone_segment_pass_equals_stacked_path_at_n1053(pairs_n1053, monkeypatch):
    # A lone segment reads its pairs as slices into one reused block and
    # its bounds straight from the window starts and ends; the stacked path
    # gathers them through index arrays. Both form every running sum and
    # contraction in the same order, so sums and counts are the same bits
    # at the narrowest, middle and widest default candidates. About 2 s.
    table, z = pairs_n1053
    d = table.distances
    lone = []

    def stacked(*args):
        lone.append(args[4] - args[3])
        return segment_pass_stacked(*args)

    for g in default_lag_bandwidths(table.distances)[[0, 4, 9]]:
        fast = _lag_base_sums(d, z, g)
        lone.clear()
        with monkeypatch.context() as patch:
            patch.setattr(variogram, "_segment_pass", stacked)
            ref = _lag_base_sums(d, z, g)
        # most pairs lie in lone segments, some longer than one block
        assert sum(lone) > d.size // 2 and max(lone) > variogram._SUM_BLOCK, g
        for got, want in zip(fast, ref):
            assert np.array_equal(got, want), g


def test_pair_window_ends_equal_searchsorted(pairs_n1053):
    # the ends counted from the window starts, checked and re-searched
    # where rounding moved them, are the searchsorted bounds: at n = 1053,
    # on the 20 x 20 regular grid (many tied distances) and on sites 0.1
    # apart on a line, whose exactly repeated distances put window bounds
    # on ties and where the count alone misses some ends. About 1 s.
    grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (20, 20)).nodes()
    line = 0.1 * np.arange(60.0)[:, None] * [1.0, 0.0]
    designs = [pairs_n1053[0]] + [PairTable.from_distances(pairwise_distances(x)) for x in (grid, line)]
    moved = 0
    for table in designs:
        d = table.distances
        for g in np.r_[default_lag_bandwidths(table.distances), 0.1, 0.2, 0.3]:
            left = np.searchsorted(d, d - g, side="right")
            want = np.searchsorted(d, d + g, side="left")
            counted = np.cumsum(np.bincount(left, minlength=d.size)[:d.size])
            moved += int(np.count_nonzero(counted != want))
            assert np.array_equal(_pair_window_ends(d, left, g), want), g
    assert moved > 0


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
    table = PairTable.from_distances(d)
    lags = default_lag_grid(table.distances)
    b = bias_matrix(fit.smoother.S, pseudo_covariances(
        empirical_variogram(fit.residuals, table, lags, 0.2), table
    ))
    diag = np.diag(b)
    corrections = diag[:, None] + diag[None, :] - 2.0 * b
    for dense, per_pair in ((None, None), (corrections, table.corrections(b))):
        ref_est, ref_mass = empirical_variogram_dense(fit.residuals, d, lags, 0.2, dense)
        est = empirical_variogram(fit.residuals, table, lags, 0.2, corrections=per_pair)
        assert np.array_equal(est.estimates, ref_est)
        assert np.array_equal(est.pair_counts, ref_mass)
    ref_est, ref_mass = bias_corrected_variogram_dense(fit, d, lags, 0.2)
    est = bias_corrected_variogram(fit, table, lags, 0.2)
    assert np.array_equal(est.estimates, ref_est)
    assert np.array_equal(est.pair_counts, ref_mass)


@pytest.fixture(scope="module")
def riskmap_bias_design():
    """The benchmark risk map's first bias correction: ``synth_dataset(1053,
    seed=1)`` under a square-root response, the trend at the bandwidth its
    CV search selects and the lag bandwidth the pipeline selects there."""
    locs, values = synth_dataset(1053, seed=1)
    fit = fit_trend(
        SpatialSample(locs, np.sqrt(values)),
        BandwidthMatrix.diagonal(5.94289825208083, 2.4520523130490615),
    )
    table = PairTable.from_distances(pairwise_distances(locs))
    return fit, table, default_lag_grid(table.distances), 2.086469071864711


@pytest.fixture(scope="module")
def table1_bias_design():
    """The table1 full study's design at study seed 20240: a regular 20 x 20
    grid, so that every first coordinate is shared by 20 sites, its MASE
    smoother, the first replicate's residuals and the study's lag
    bandwidth."""
    scenario = table1_scenario("full", seed=20240)
    design = _DesignContext.build(scenario, simulate_field(scenario, 0).locations)
    fit = apply_smoother(design.smoother, simulate_field(scenario, 0, design))
    table, lags = design.site.pairs, design.site.lag_grid
    return fit, table, lags, select_lag_bandwidth(fit.residuals, table, lags)


@pytest.fixture(params=["riskmap", "table1"])
def bias_design(request):
    return request.getfixturevalue(f"{request.param}_bias_design")


def test_banded_bias_matrix_matches_dense_products(bias_design):
    # B of S and Sigma in first-axis order, formed over the row blocks'
    # bands, against the dense products in the order given, relabeled
    fit, table, lags, g = bias_design
    order = np.argsort(fit.sample.locations[:, 0], kind="stable")
    sigma = pseudo_covariances(empirical_variogram(fit.residuals, table, lags, g), table)
    s = fit.smoother.S[np.ix_(order, order)]
    assert variogram._row_bands(s) is not None
    ref = bias_matrix_dense(fit.smoother.S, sigma)[np.ix_(order, order)]
    b = bias_matrix(s, sigma[np.ix_(order, order)])
    assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bias_corrected_variogram_matches_dense_iteration(bias_design):
    fit, table, lags, g = bias_design
    est = bias_corrected_variogram(fit, table, lags, g)
    ref, mass, iterations, converged, change = bias_iteration_dense(
        fit, pairwise_distances(fit.sample), lags, g, bias_matrix=bias_matrix_dense
    )
    assert_allclose(est.estimates, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(est.pair_counts, mass)
    report = est.report
    assert (report.iterations, report.converged) == (iterations, converged)
    assert report.max_rel_change == pytest.approx(change, rel=1e-9)


def test_bias_corrected_variogram_memory_at_n1053(riskmap_bias_design):
    fit, table, lags, g = riskmap_bias_design
    n = fit.sample.n
    tracemalloc.start()
    try:
        bias_corrected_variogram(fit, table, lags, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the correction with the sites as given peaked at 31.2 MB (3.5 n x n
    # matrices); taking them in first-axis order may add one n x n matrix
    assert peak <= 31.2e6 + 8 * n * n


def test_bias_correction_runs_all_five_steps_on_data(bias_design):
    # the BIAS_TOL exit does not fire on data: the iteration takes all five
    # steps, and here the last step has the smallest relative change, so it
    # is the one reported. About 2 s for both designs, fixtures included.
    fit, table, lags, g = bias_design
    report = bias_corrected_variogram(fit, table, lags, g).report
    assert (report.iterations, report.converged) == (5, False)


def test_bias_correction_reports_the_step_with_the_smallest_change():
    # on the 6 x 6 desk table1 design under the pipeline's bandwidth the
    # relative change is smallest at step 3 (0.2084, against 0.2893 at
    # step 5), so the best-iterate rule reports step 3, not the last.
    # Under 1 s.
    sc = table1_scenario("desk", nx=6, ny=6, n_boot=20, bandwidth_criterion="pipeline")
    design = _DesignContext.build(sc, simulate_field(sc, 1).locations)
    report = bootstrap.fit_pipeline(simulate_field(sc, 1, design)).pilot_corrected.report
    assert (report.iterations, report.converged) == (3, False)
    assert report.max_rel_change == pytest.approx(0.2084, abs=1e-4)


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
    _, table, lags = bootstrap.site_design(locs)
    acc = np.zeros_like(lags)
    for _ in range(reps):
        resid = math.sqrt(s2) * rng.standard_normal(n)
        est = empirical_variogram(resid, table, lags, bandwidth=1.0)
        acc += est.estimates
    mean_est = acc / reps
    # moment oracle: E(e_i - e_j)^2 / 2 = s2; allow 3 standard errors of the
    # replicate-mean curve (var of a chi2-like average, bounded crudely)
    se = s2 * math.sqrt(2.0 / (reps * 20))
    assert np.all(np.abs(mean_est - s2) < 3.0 * se + 0.05 * s2)


def test_two_point_single_lag_degenerates_to_point_value():
    resid = np.array([1.5, 0.5])
    locs = np.array([[0.0, 0.0], [1.0, 0.0]])
    table = PairTable.from_distances(pairwise_distances(locs))
    est = empirical_variogram(resid, table, np.array([1.0]), bandwidth=0.5, min_pairs=1)
    assert est.estimates[0] == pytest.approx(0.5 * (1.5 - 0.5) ** 2, rel=1e-12)


def test_starved_lag_raises_with_lag_named():
    rng = np.random.default_rng(3)
    _, table, lags = bootstrap.site_design(rng.uniform(size=(8, 2)))
    with pytest.raises(BandwidthTooSmallError, match="lag"):
        empirical_variogram(rng.normal(size=8), table, lags, bandwidth=1e-4)


def test_starved_lag_raises_the_same_error_in_estimation_and_loo_score():
    # one admissibility rule on the lag grid: estimation and the
    # leave-one-pair-out score name the same starved lags and the same
    # smallest pair count in the same message. Under 0.1 s.
    rng = np.random.default_rng(3)
    locs = rng.uniform(size=(8, 2))
    d = pairwise_distances(locs)
    resid = rng.normal(size=8)
    lags = default_lag_grid(PairTable.from_distances(d).distances)
    with pytest.raises(BandwidthTooSmallError) as est:
        empirical_variogram(resid, PairTable.from_distances(d), lags, 0.05)
    with pytest.raises(BandwidthTooSmallError) as loo:
        _cv_relative_error(resid, d, lags, 0.05)
    est, loo = est.value, loo.value
    assert 0 < len(est.indices) < lags.size
    assert est.neighbors is not None and est.neighbors < DEFAULT_MIN_PAIRS
    assert (str(loo), loo.indices, loo.neighbors) == (str(est), est.indices, est.neighbors)
    assert str(est).endswith("enlarge the lag bandwidth")


def test_one_site_lag_grid_raises_config_error():
    # the lag grid and the lag-bandwidth candidates take the largest pair
    # distance, of which one site has none: the same ConfigError from its
    # empty pair distances
    distances = PairTable.from_distances(pairwise_distances(np.zeros((1, 2)))).distances
    for default in (default_lag_grid, default_lag_bandwidths):
        with pytest.raises(ConfigError, match="at least two distinct sites"):
            default(distances)
    with pytest.raises(ConfigError, match="at least two distinct sites"):
        bootstrap.site_design(np.zeros((1, 2)))


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
    b = bias_matrix(s.S, sigma_realized)

    _, table, lags = bootstrap.site_design(locs)
    corrected = empirical_variogram(resid, table, lags, 0.3, corrections=table.corrections(b))
    target = empirical_variogram(eps, table, lags, bandwidth=0.3)
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
    c = pseudo_covariances(pilot, PairTable.from_distances(d))
    assert_allclose(np.diag(c), np.full(9, s2), atol=0)
    off = c[~np.eye(9, dtype=bool)]
    assert_allclose(off, np.zeros(off.size), atol=1e-15)


def test_pseudo_covariances_exponential_pilot():
    c0, c1, r = 0.04, 0.12, 0.5
    lags = np.linspace(0.02, 1.0, 25)
    pilot = EmpiricalVariogram(lags, exp_semivariance(lags, c0, c1, r), np.ones(25))
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (7, 7)).nodes()
    d = pairwise_distances(locs)
    c = pseudo_covariances(pilot, PairTable.from_distances(d))
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
    c = pseudo_covariances(pilot, PairTable.from_distances(d))
    assert c[0, 1] == pytest.approx(est.max() - est[-1], abs=1e-15)


# ---------------------------------------------------------------------------
# bias-corrected pilot
# ---------------------------------------------------------------------------


def test_bias_correction_noise_free_affine():
    locs = np.random.default_rng(9).uniform(size=(40, 2))
    y = 2.0 + locs @ np.array([1.0, -1.0])
    sample = SpatialSample(locs, y)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.7, 0.7))
    _, table, lags = bootstrap.site_design(locs)
    est = bias_corrected_variogram(fit, table, lags, 0.35)
    assert_allclose(est.estimates, np.zeros_like(est.estimates), atol=1e-12)
    assert est.report.converged
    assert est.report.iterations == 1


def test_bias_correction_raises_sill_on_field_data():
    rng = np.random.default_rng(11)
    sample, _, _ = gaussian_field_sample(rng, 12, 12)
    fit = fit_trend(sample, BandwidthMatrix.diagonal(0.35, 0.35))
    _, table, lags = bootstrap.site_design(sample)
    raw = empirical_variogram(fit.residuals, table, lags, 0.25)
    corrected = bias_corrected_variogram(fit, table, lags, 0.25)
    assert corrected.estimates.max() > raw.estimates.max()


# ---------------------------------------------------------------------------
# lag-bandwidth selection
# ---------------------------------------------------------------------------


def test_cv_relative_error_identical_pairs_score_zero():
    # two pairs with identical separation and values predict each other
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.5], [1.0, 2.5]])
    resid = np.array([0.0, 1.0, 0.0, 1.0])
    d = pairwise_distances(locs)
    score = _cv_relative_error(resid, d, np.array([1.0]), 0.5, min_pairs=1)
    assert score == pytest.approx(0.0, abs=1e-18)


def test_cv_relative_error_equal_residuals_degenerate():
    locs = np.random.default_rng(12).uniform(size=(10, 2))
    d = pairwise_distances(locs)
    with pytest.raises(DegenerateScoreError):
        _cv_relative_error(
            np.ones(10), d, default_lag_grid(PairTable.from_distances(d).distances), 2.0,
            min_pairs=1,
        )


def test_select_lag_bandwidth_prefers_informative_scale():
    rng = np.random.default_rng(13)
    sample, d, _ = gaussian_field_sample(rng, 10, 10, c0=0.01, c1=0.3, rng_par=0.4)
    _, table, lags = bootstrap.site_design(sample)
    g = select_lag_bandwidth(sample.values, table, lags)
    assert 0.0 < g <= 0.55 * d.max() + 1e-12
    # score at the chosen bandwidth beats a badly mis-scaled one
    chosen = _cv_relative_error(sample.values, d, lags, g)
    huge = _cv_relative_error(sample.values, d, lags, 0.55 * d.max())
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


@pytest.mark.parametrize("nugget, freqs, weights", [
    (math.nan, [1.0], [0.1]), (math.inf, [1.0], [0.1]), (-0.1, [1.0], [0.1]),
    (0.1, [math.inf], [0.1]), (0.1, [math.nan], [0.1]), (0.1, [0.0], [0.1]), (0.1, [-1.0], [0.1]),
    (0.1, [1.0], [math.nan]), (0.1, [1.0], [math.inf]), (0.1, [1.0, 2.0], [0.1, -0.1]),
])
def test_variogram_model_rejects_bad_parameters(nugget, freqs, weights):
    # NaN passes every < and <= check, so a NaN nugget built a model with a
    # NaN sill, and infinite or NaN nodes built too
    with pytest.raises(ConfigError, match="finite"):
        VariogramModel(nugget=nugget, node_freqs=freqs, node_weights=weights)


def test_variogram_model_keeps_zero_nugget_and_weights():
    # the edges a fit produces stay legal: no nugget, zero node weights and
    # no nodes at all
    assert VariogramModel(0.0, [1.0, 2.0], [0.0, 0.2]).sill == 0.2
    assert VariogramModel(0.0, [], []).sill == 0.0


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
