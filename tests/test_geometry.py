import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import kriging_factor
from georisk.bootstrap import prediction_map
from georisk.exceptions import DataError
from georisk.geometry import (
    BandwidthMatrix,
    RegularGrid,
    SpatialSample,
    cross_distances,
    make_regular_grid,
    pairwise_distances,
)
from georisk.trend import fit_trend
from georisk.variogram import VariogramModel


def test_sample_basic_construction():
    s = SpatialSample([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
    assert s.n == 2
    assert s.d == 2
    assert not s.locations.flags.writeable


def test_sample_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        SpatialSample([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0])


def test_sample_rejects_nonfinite():
    with pytest.raises(DataError):
        SpatialSample([[0.0, np.nan]], [1.0])
    with pytest.raises(DataError):
        SpatialSample([[0.0, 0.0]], [np.inf])


def test_sample_rejects_length_mismatch():
    with pytest.raises(DataError):
        SpatialSample([[0.0, 0.0], [1.0, 1.0]], [1.0])


def test_make_grid_corners():
    g = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (2, 2))
    nodes = {tuple(p) for p in g.nodes()}
    assert nodes == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_make_grid_50x50_spacing():
    g = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (50, 50))
    assert g.n_nodes == 2500
    assert_allclose(g.spacing, (1.0 / 49.0, 1.0 / 49.0), rtol=0, atol=0)
    nodes = g.nodes()
    assert_allclose(nodes[0], (0.0, 0.0))
    assert_allclose(nodes[-1], (1.0, 1.0))


def test_make_grid_single_cell():
    g = make_regular_grid([(2.0, 3.0), (5.0, 9.0)], (1, 1))
    assert g.n_nodes == 1
    assert_allclose(g.nodes()[0], (2.0, 5.0))


def test_make_grid_rejects_degenerate_bounds():
    with pytest.raises(DataError, match="degenerate"):
        make_regular_grid([(1.0, 1.0), (0.0, 1.0)], (2, 2))


def test_grid_nodes_reproducible():
    g = make_regular_grid([(0.0, 1.0), (0.0, 2.0)], (7, 9))
    a = g.nodes()
    b = make_regular_grid([(0.0, 1.0), (0.0, 2.0)], (7, 9)).nodes()
    assert a.shape == (63, 2)
    assert np.array_equal(a, b)


def test_pairwise_three_four_five():
    s = SpatialSample([[0.0, 0.0], [3.0, 4.0]], [0.0, 0.0])
    d = pairwise_distances(s)
    assert d[0, 0] == 0.0
    assert d[0, 1] == pytest.approx(5.0, abs=1e-14)
    assert d[1, 0] == d[0, 1]


def test_pairwise_single_point():
    s = SpatialSample([[1.0, 2.0]], [0.0])
    assert pairwise_distances(s).shape == (1, 1)
    assert pairwise_distances(s)[0, 0] == 0.0


def test_pairwise_grid_max_distance():
    g = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (10, 10))
    d = pairwise_distances(g.nodes())
    # brute-force maximum over all pairs
    locs = g.nodes()
    brute = 0.0
    for i in range(len(locs)):
        diff = locs - locs[i]
        brute = max(brute, float(np.sqrt((diff**2).sum(axis=1)).max()))
    assert d.max() == pytest.approx(brute, rel=1e-14)
    assert d.max() == pytest.approx(np.sqrt(2.0), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False),
            st.floats(-50, 50, allow_nan=False),
        ),
        min_size=3,
        max_size=12,
        unique=True,
    )
)
def test_pairwise_triangle_inequality(points):
    locs = np.asarray(points, dtype=np.float64)
    d = pairwise_distances(locs)
    assert_allclose(d, d.T, rtol=0, atol=0)
    n = len(points)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_cross_distances_matches_pairwise():
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(6, 2))
    d = cross_distances(a, a)
    assert_allclose(d, pairwise_distances(a), atol=1e-12)


@pytest.mark.parametrize("a, b, dims", [
    ([[0.0]], [[0.0, 5.0], [1.0, 1.0]], "1-D against 2-D"),
    ([[0.0, 5.0], [1.0, 1.0]], [[0.0]], "2-D against 1-D"),
])
def test_cross_distances_rejects_mixed_dimensions(a, b, dims):
    # neither order may drop an axis or fail with a bare IndexError
    with pytest.raises(DataError, match=dims):
        cross_distances(a, b)


def test_prediction_map_rejects_nodes_of_another_dimension():
    # read on its first axis alone, the 1-D node [0.0] would coincide
    # with the site (0, 5) and be kriged to its residual
    sites = np.array([[0.0, 5.0], [1.0, 1.0], [3.0, 2.0], [2.0, 4.0], [4.0, 0.5]])
    sample = SpatialSample(sites, [2.0, -1.0, 0.5, 1.5, 0.0])
    trend_fit = fit_trend(sample, BandwidthMatrix.diagonal(50.0, 50.0))
    model = VariogramModel(nugget=0.1, node_freqs=[1.0], node_weights=[0.5])
    with pytest.raises(DataError, match="1-D against 2-D"):
        prediction_map(trend_fit, np.array([[0.0]]), model, kriging_factor(sites, model))


def _einsum_distances(a, b):
    """Distances as sqrt(einsum) over the full (m, n, d) differences."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m, n", [(2500, 1053), (2500, 400), (1053, 1053)])
def test_distances_equal_einsum_formula(d, m, n):
    # per-axis squares are added in the einsum's order, so d <= 2 is
    # array-equal; from d = 3 the order may differ, by a few rounding steps
    rng = np.random.default_rng(d * m + n)
    scale = np.array([60.0, 30.0, 10.0])[:d]
    a = rng.uniform(size=(m, d)) * scale
    b = rng.uniform(size=(n, d)) * scale
    oracle = _einsum_distances(a, b)
    cross = cross_distances(a, b)
    pair = pairwise_distances(b)
    pair_oracle = _einsum_distances(b, b)
    np.fill_diagonal(pair_oracle, 0.0)
    if d <= 2:
        assert np.array_equal(cross, oracle) and np.array_equal(pair, pair_oracle)
    else:
        assert np.all(np.abs(cross - oracle) <= 1e-15 * oracle)
        assert np.all(np.abs(pair - pair_oracle) <= 1e-15 * pair_oracle)


def test_bandwidth_matrix_diagonal():
    h = BandwidthMatrix.diagonal(0.5, 0.25)
    assert h.det == pytest.approx(0.125)
    assert_allclose(h.diagonal_scales(), [0.5, 0.25])


def test_bandwidth_matrix_rejects_indefinite():
    with pytest.raises(DataError):
        BandwidthMatrix([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DataError):
        BandwidthMatrix([[1.0, 0.5], [0.0, 1.0]])


def test_bandwidth_matrix_checks_finite_then_diagonal_then_positive():
    with pytest.raises(DataError, match="finite"):
        BandwidthMatrix([[1.0, np.nan], [np.nan, -1.0]])
    with pytest.raises(DataError, match="diagonal"):
        BandwidthMatrix([[0.5, 0.1], [0.1, -0.3]])
    with pytest.raises(DataError, match="positive definite"):
        BandwidthMatrix([[0.5, 0.0], [0.0, -0.3]])


@pytest.mark.parametrize(
    "scales, message",
    [((0.0, 0.3), "positive definite"), ((0.4, -0.3), "positive definite"),
     ((np.nan, 0.3), "finite"), ((0.4, np.inf), "finite")],
)
def test_bandwidth_matrix_diagonal_rejects_bad_scales(scales, message):
    with pytest.raises(DataError, match=message):
        BandwidthMatrix.diagonal(*scales)
    # the general constructor rejects the same matrices with the same message
    with pytest.raises(DataError, match=message):
        BandwidthMatrix(np.diag(scales))


def test_bandwidth_matrix_diagonal_equals_general_constructor():
    for scales in ((0.5, 0.25), (1e-4, 3e3), (0.1,), (0.2, 0.3, 0.7)):
        fast, general = BandwidthMatrix.diagonal(*scales), BandwidthMatrix(np.diag(scales))
        assert np.array_equal(fast.entries, general.entries)
        assert not fast.entries.flags.writeable
        assert fast.det == general.det


def test_regular_grid_validation():
    with pytest.raises(DataError):
        RegularGrid((0.0,), (0.0,), (3,))
    with pytest.raises(DataError):
        RegularGrid((0.0,), (1.0,), (0,))
