import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import (
    chol_lower,
    chol_ridged,
    erfc_asymptotic,
    j0_series_decimal,
    normal_cdf_oracle,
    solve_lower_rowwise,
    solve_lower_t_rowwise,
    trapezoid_2d,
)
from georisk.exceptions import ConvergenceError, FactorizationError
from georisk.geometry import pairwise_distances
from georisk import numerics
from georisk.io import synth_dataset
from georisk.numerics import (
    CholeskyFactor,
    _triweight_1d,
    bessel_j0,
    cholesky,
    nnls,
    normal_cdf,
    solve_lower,
    solve_lower_t,
    solve_spd,
)

# ---------------------------------------------------------------------------
# triweight kernel
# ---------------------------------------------------------------------------


def triweight_kernel(u):
    """The trend's product kernel: one univariate factor per coordinate on
    the last axis."""
    return np.prod(_triweight_1d(u), axis=-1)


def test_triweight_at_origin():
    assert triweight_kernel(np.array([0.0, 0.0])) == pytest.approx((35.0 / 32.0) ** 2)


def test_triweight_boundary_support():
    assert triweight_kernel(np.array([1.0, 0.5])) == 0.0
    assert triweight_kernel(np.array([0.3, -1.2])) == 0.0


def test_triweight_integrates_to_one():
    integral = trapezoid_2d(triweight_kernel, -1.0, 1.0, 2001)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_triweight_1d_integrates_to_one():
    xs = np.linspace(-1.0, 1.0, 20001)
    assert np.trapezoid(_triweight_1d(xs), xs) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
)
def test_triweight_even_symmetry(u):
    u = np.asarray(u)
    assert triweight_kernel(u) == triweight_kernel(-u)
    assert triweight_kernel(u) >= 0.0


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------


def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_at_one():
    assert bessel_j0(1.0) == pytest.approx(0.7651976866, abs=1e-9)
    assert bessel_j0(1.0) == pytest.approx(j0_series_decimal(1.0), abs=1e-12)


def _bisect_oracle_zero(lo, hi, tol=1e-12):
    flo = j0_series_decimal(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = j0_series_decimal(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_j0_first_zero():
    zero = _bisect_oracle_zero(2.0, 3.0)
    assert zero == pytest.approx(2.404825557695773, abs=1e-9)
    assert abs(bessel_j0(zero)) < 1e-8


def test_j0_against_series_oracle_1000_points():
    xs = np.logspace(-3, math.log10(160.0), 1000)
    ours = bessel_j0(xs)
    oracle = np.array([j0_series_decimal(x) for x in xs])
    err = np.abs(ours - oracle)
    assert err.max() < 1e-10
    assert np.all(np.abs(ours) <= 1.0 + 1e-12)


def test_j0_sign_alternates_between_zeros():
    # first five zeros located on the oracle
    brackets = [(2.0, 3.0), (5.0, 6.0), (8.0, 9.0), (11.0, 12.0), (14.0, 15.0)]
    zeros = [_bisect_oracle_zero(lo, hi) for lo, hi in brackets]
    midpoints = [1.0]
    for a, b in zip(zeros[:-1], zeros[1:]):
        midpoints.append(0.5 * (a + b))
    signs = np.sign([bessel_j0(m) for m in midpoints])
    assert np.all(signs[:-1] * signs[1:] == -1.0)


def test_j0_value_does_not_depend_on_the_other_arguments():
    # near a zero J0 rests on the last series terms; each element stops its
    # series at its own first term below 1e-18, whatever else is in the call
    z = 2.404825557695773
    whole = np.r_[z, np.linspace(0.0, 40.0, 20001)]
    one_call = bessel_j0(whole)
    assert bessel_j0(z) == one_call[0]
    pieces = [bessel_j0(whole[i:i + 4096]) for i in range(0, whole.size, 4096)]
    assert np.array_equal(np.concatenate(pieces), one_call)
    assert np.array_equal([bessel_j0(x) for x in whole[::97]], one_call[::97])


# ---------------------------------------------------------------------------
# normal CDF
# ---------------------------------------------------------------------------


def test_normal_cdf_at_zero():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_975_quantile():
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_normal_cdf_tail():
    assert normal_cdf(-8.0) < 1e-14
    tail_oracle = 0.5 * erfc_asymptotic(8.0 / math.sqrt(2.0))
    assert normal_cdf(-8.0) == pytest.approx(tail_oracle, rel=1e-9)


def test_normal_cdf_against_series_oracle():
    zs = np.linspace(-7.5, 7.5, 301)
    ours = normal_cdf(zs)
    oracle = np.array([normal_cdf_oracle(z) for z in zs])
    assert np.abs(ours - oracle).max() < 1e-12


def test_normal_cdf_symmetry():
    zs = np.linspace(-10, 10, 401)
    total = normal_cdf(zs) + normal_cdf(-zs)
    assert np.abs(total - 1.0).max() < 1e-12


def test_normal_cdf_monotone():
    zs = np.linspace(-12, 12, 2001)
    vals = normal_cdf(zs)
    assert np.all(np.diff(vals) >= -1e-13)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


# ---------------------------------------------------------------------------
# Cholesky and triangular solves
# ---------------------------------------------------------------------------


def test_cholesky_identity():
    f = cholesky(np.eye(4))
    assert_allclose(f.L, np.eye(4), atol=0)
    assert f.ridge == 0.0


def test_cholesky_hand_case():
    f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert_allclose(f.L, expected, atol=1e-14)
    assert_allclose(f.L @ f.L.T, [[4.0, 2.0], [2.0, 3.0]], atol=1e-14)


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(FactorizationError) as err:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert err.value.pivot == 1


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_ridge_recovers_singular():
    a = np.ones((3, 3))  # rank one, PSD but singular
    f = cholesky(a)
    assert f.ridge > 0.0
    assert_allclose(f.L @ f.L.T, a + f.ridge * np.eye(3), atol=1e-10)


def test_cholesky_roundtrip_random_spd():
    rng = np.random.default_rng(42)
    for n in (2, 5, 17, 40):
        m = rng.normal(size=(n, n))
        a = m @ m.T + np.eye(n)
        f = cholesky(a)
        rel = np.linalg.norm(f.L @ f.L.T - a) / np.linalg.norm(a)
        assert rel < 1e-10
        assert np.all(np.diag(f.L) > 0.0)


def test_solve_lower_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert_allclose(solve_lower(CholeskyFactor(np.eye(3)), b), b, atol=0)


def test_solve_lower_hand_case():
    L = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    b = np.array([2.0, 1.0 + math.sqrt(2.0)])
    x = solve_lower(L, b)
    assert_allclose(x, [1.0, 1.0], atol=1e-14)
    assert_allclose(L @ x, b, atol=1e-14)


def test_solve_lower_zero_rhs():
    L = np.tril(np.random.default_rng(1).uniform(0.5, 2.0, size=(5, 5)))
    assert_allclose(solve_lower(L, np.zeros(5)), np.zeros(5), atol=0)


def test_solve_lower_matrix_rhs_and_spd():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    a = m @ m.T + np.eye(6)
    f = cholesky(a)
    b = rng.normal(size=(6, 3))
    x = solve_spd(f, b)
    assert_allclose(a @ x, b, atol=1e-9)
    y = solve_lower(f, b)
    assert_allclose(f.L @ y, b, atol=1e-10)
    z = solve_lower_t(f, b)
    assert_allclose(f.L.T @ z, b, atol=1e-10)


@pytest.fixture(scope="module")
def synth_covariance():
    """The exponential covariance that draws ``synth_dataset(1053, seed=1)``."""
    locs, _ = synth_dataset(1053, seed=1)
    return 0.01 * np.eye(1053) + 0.09 * np.exp(-3.0 * pairwise_distances(locs) / 8.0)


def test_cholesky_matches_columnwise_oracle_at_n1053(synth_covariance):
    f = cholesky(synth_covariance)
    ref, pivot = chol_lower(synth_covariance)
    assert pivot is None and f.ridge == 0.0
    assert np.abs(f.L - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1053])
def test_solves_match_rowwise_oracle_across_blocks(synth_covariance, n):
    # block edges at 64 and 128 fall inside and on either side of n
    f = cholesky(synth_covariance[:n, :n])
    rng = np.random.default_rng(n)
    for b in (rng.normal(size=n), rng.normal(size=(n, n))):
        y = solve_lower_rowwise(f.L, b)
        z = solve_lower_t_rowwise(f.L, b)
        x = solve_lower_t_rowwise(f.L, y)
        for got, ref in ((solve_lower(f, b), y), (solve_lower_t(f, b), z), (solve_spd(f, b), x)):
            assert got.shape == b.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _nan_pair(a, i, j):
    a = a.copy()
    a[i, j] = a[j, i] = np.nan
    return a


def _inf_diagonal(a, i):
    a = a.copy()
    a[i, i] = np.inf
    return a


def test_cholesky_rejects_non_finite_entries_with_oracle_pivot(synth_covariance, monkeypatch):
    # LAPACK may return a non-finite factor here without an error, so such
    # input is rejected before any attempt: no factorization, no warning
    # from the symmetry check, and the first row holding a NaN or an
    # infinity as the pivot
    small = np.array([[1.0, 0.5], [0.5, 1.0]])
    big = synth_covariance[:300, :300]
    cases = [
        _nan_pair(small, 0, 1), _inf_diagonal(small, 1),
        _nan_pair(big, 170, 90), _inf_diagonal(big, 200),
    ]
    pivots = [int(np.flatnonzero(~np.isfinite(a).all(axis=1))[0]) for a in cases]
    assert pivots == [0, 1, 90, 200]
    attempts = []
    monkeypatch.setattr(numerics, "_lapack_factor", lambda a: attempts.append(a))
    for a, pivot in zip(cases, pivots):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError) as err:
                cholesky(a)
        assert err.value.pivot == pivot
    assert attempts == []


def test_solve_spd_with_a_square_right_hand_side_holds_one_copy(synth_covariance):
    # the forward result is the only n x n array made: 1.25 n^2 doubles
    # leave room for the block temporaries (two copies: 2.06 n^2)
    f = cholesky(synth_covariance)
    b = synth_covariance
    n = len(b)
    tracemalloc.start()
    try:
        x = solve_spd(f, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n
    assert np.array_equal(x, solve_lower_t(f, solve_lower(f, b)))


def test_solves_with_a_ridged_factor_match_the_full_solve_at_n1000():
    # a Gaussian covariance without nugget on 1000 random sites is singular
    # to rounding, so its factor is ridged, and the diagonal blocks whose
    # inverses the solves apply are far from orthogonal. Bound, set before
    # running: the solve of the ridged matrix A and numpy's LU solve of the
    # same A each err by at most about n u kappa(A) relative (u = 2^-53), so
    # they differ by at most 2 n u kappa(A) in the Frobenius norm, for one
    # right-hand side and for 40. About 1.5 s.
    n = 1000
    locs = np.random.default_rng(21).uniform(size=(n, 2))
    a = np.exp(-np.square(pairwise_distances(locs) / 0.3))
    f = cholesky(a)
    assert f.ridge > 0.0
    ridged = a + f.ridge * np.eye(n)
    bound = 2 * n * (np.finfo(float).eps / 2) * np.linalg.cond(ridged)
    rng = np.random.default_rng(22)
    for b in (rng.normal(size=n), rng.normal(size=(n, 40))):
        x = solve_spd(f, b)
        ref = np.linalg.solve(ridged, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)


def test_cholesky_indefinite_pivot_beyond_first_block(synth_covariance):
    a = synth_covariance[:300, :300].copy()
    v = np.zeros(300)
    v[70:] = np.random.default_rng(3).normal(size=230)
    a -= 10.0 * np.outer(v, v) / (v @ v)
    _, _, pivot = chol_ridged(a)
    assert pivot is not None and pivot > 64
    with pytest.raises(FactorizationError) as err:
        cholesky(a)
    assert err.value.pivot == pivot


# ---------------------------------------------------------------------------
# NNLS
# ---------------------------------------------------------------------------


def test_nnls_clamps_negative_coordinate():
    x = nnls(np.eye(2), np.array([3.0, -1.0]))
    assert_allclose(x, [3.0, 0.0], atol=1e-12)


def test_nnls_zero_rhs():
    x = nnls(np.random.default_rng(3).normal(size=(6, 4)), np.zeros(6))
    assert_allclose(x, np.zeros(4), atol=0)


def test_nnls_interior_matches_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(10, 3))
        x_true = rng.uniform(0.5, 2.0, size=3)
        b = a @ x_true + 0.01 * rng.normal(size=10)
        x_ls = np.linalg.solve(a.T @ a, a.T @ b)
        if np.any(x_ls <= 0.0):
            continue
        x = nnls(a, b)
        assert_allclose(x, x_ls, atol=1e-8)


def test_nnls_weighted_matches_scaled_problem():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=12)
    w = rng.uniform(0.5, 3.0, size=12)
    x_w = nnls(a, b, weights=w)
    x_scaled = nnls(a * np.sqrt(w)[:, None], b * np.sqrt(w))
    assert_allclose(x_w, x_scaled, atol=1e-10)


def test_nnls_objective_never_beats_unconstrained():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=8)
        x = nnls(a, b)
        assert np.all(x >= 0.0)
        x_free = np.linalg.lstsq(a, b, rcond=None)[0]
        obj = np.sum((a @ x - b) ** 2)
        obj_free = np.sum((a @ x_free - b) ** 2)
        assert obj >= obj_free - 1e-10
        if np.all(x_free >= -1e-8):
            assert obj == pytest.approx(obj_free, abs=1e-8)


def test_nnls_iteration_cap_raises():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(30, 8))
    b = rng.normal(size=30) + a @ rng.uniform(0.1, 1.0, size=8)
    with pytest.raises(ConvergenceError):
        nnls(a, b, max_iter=0)
