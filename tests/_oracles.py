"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (series,
quadrature, brute-force linear algebra) and kept separate from the package
code paths it checks.
"""

from decimal import Decimal, getcontext

import numpy as np


def j0_series_decimal(x, digits=90):
    """Bessel J0 by the ascending series in high-precision decimal arithmetic.

    Usable for any x reachable in the tests (cancellation is absorbed by the
    working precision).
    """
    getcontext().prec = digits
    xd = Decimal(repr(float(x)))
    q = xd * xd / 4
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    while True:
        k += 1
        term = -term * q / (k * k)
        total += term
        if abs(term) < Decimal(10) ** (-digits + 10) and k > float(x):
            break
        if k > 5000:  # pragma: no cover - safety stop
            raise RuntimeError("series did not terminate")
    return float(total)


def erf_series_decimal(x, digits=60):
    """erf(x) from its Maclaurin series in decimal arithmetic."""
    getcontext().prec = digits
    xd = Decimal(repr(float(x)))
    x2 = xd * xd
    term = xd
    total = xd
    k = 0
    while True:
        k += 1
        term = -term * x2 / k
        total += term / (2 * k + 1)
        if abs(term) < Decimal(10) ** (-digits + 10) and k > float(x) ** 2:
            break
        if k > 5000:  # pragma: no cover
            raise RuntimeError("series did not terminate")
    two_over_sqrt_pi = Decimal(2) / Decimal(repr(np.pi)).sqrt()
    return float(two_over_sqrt_pi * total)


def normal_cdf_oracle(z):
    """Phi(z) for |z| <= ~7 via the decimal erf series."""
    a = abs(z) / np.sqrt(2.0)
    phi_abs = 0.5 + 0.5 * erf_series_decimal(a)
    return phi_abs if z >= 0 else 1.0 - phi_abs


def erfc_asymptotic(x, terms=12):
    """Tail oracle: the divergent asymptotic expansion of erfc, truncated.

    Accurate to far below the tail magnitude for x >= 5.
    """
    inv2x2 = 1.0 / (2.0 * x * x)
    s = 1.0
    term = 1.0
    for k in range(1, terms):
        term *= -(2 * k - 1) * inv2x2
        s += term
    return np.exp(-x * x) / (x * np.sqrt(np.pi)) * s


def trapezoid_2d(f, lo, hi, nodes):
    """2-D trapezoid quadrature of f over [lo, hi]^2 on a nodes x nodes grid."""
    xs = np.linspace(lo, hi, nodes)
    w = np.full(nodes, (hi - lo) / (nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vals = f(np.stack([xx, yy], axis=-1))
    return float(np.einsum("i,j,ij->", w, w, vals))


def wls_affine_hat_row(locations, x0, weights):
    """Brute-force weighted least squares hat vector at x0 for an affine fit.

    Solves the normal equations densely with numpy.linalg and returns the row
    mapping observations to the fitted intercept at x0.
    """
    locs = np.asarray(locations, dtype=np.float64)
    design = np.column_stack([np.ones(len(locs)), locs - np.asarray(x0)])
    w = np.asarray(weights, dtype=np.float64)
    a = design.T @ (design * w[:, None])
    rhs = design.T * w[None, :]
    coef_rows = np.linalg.solve(a, rhs)
    return coef_rows[0]


def bias_matrix_tripleloop(s, sigma):
    """Naive O(n^3) evaluation of S Sigma S^T - Sigma S^T - S Sigma."""
    s = np.asarray(s, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    n = s.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc -= sigma[i, k] * s[j, k] + s[i, k] * sigma[k, j]
                for l in range(n):
                    acc += s[i, k] * sigma[k, l] * s[j, l]
            out[i, j] = acc
    return out


def local_lag_fit_naive(target, pair_dists, pair_z, bandwidth, exclude=None):
    """Local linear fit of z on distance at a single lag, direct O(pairs).

    Returns the fitted intercept (None when no pair carries weight), using
    the triweight kernel. ``exclude`` drops one pair index.
    """
    d = np.asarray(pair_dists, dtype=np.float64)
    z = np.asarray(pair_z, dtype=np.float64)
    keep = np.ones(len(d), dtype=bool)
    if exclude is not None:
        keep[exclude] = False
    u = (d[keep] - target) / bandwidth
    w = np.clip(1.0 - u * u, 0.0, None) ** 3
    if not np.any(w > 0):
        return None
    t = d[keep] - target
    s0 = np.sum(w)
    s1 = np.sum(w * t)
    s2 = np.sum(w * t * t)
    t0 = np.sum(w * z[keep])
    t1 = np.sum(w * t * z[keep])
    den = s0 * s2 - s1 * s1
    if den <= 1e-10 * max(s0 * s2, 1e-300):
        return t0 / s0
    return (s2 * t0 - s1 * t1) / den


def local_lag_sums_naive(target, pair_dists, pair_z, bandwidth):
    """Direct triweight window sums at one target over the open window
    (target - g, target + g): returns the five sums S0, S1, S2, T0, T1
    (S_k = sum K(u)(d - t)^k, T_k = sum K(u)(d - t)^k z), the sums of the
    absolute values of their terms, and the number of pairs in the window.
    """
    d = np.asarray(pair_dists, dtype=np.float64)
    z = np.asarray(pair_z, dtype=np.float64)
    inside = np.abs(d - target) < bandwidth
    dd = d[inside] - target
    u = dd / bandwidth
    w = (1.0 - u * u) ** 3
    terms = (w, w * dd, w * dd * dd, w * z[inside], w * dd * z[inside])
    sums = np.array([t.sum() for t in terms])
    abs_sums = np.array([np.abs(t).sum() for t in terms])
    return sums, abs_sums, int(inside.sum())


def _lag_fit_dense(targets, d_sorted, z_sorted, bandwidth):
    """Windowed local linear fit of z on distance at each target."""
    alpha = np.empty(len(targets))
    mass = np.empty(len(targets))
    for i, t in enumerate(targets):
        lo = np.searchsorted(d_sorted, t - bandwidth, side="right")
        hi = np.searchsorted(d_sorted, t + bandwidth, side="left")
        dd = d_sorted[lo:hi] - t
        u = dd / bandwidth
        w = 1.0 - u * u
        w = w * w * w
        z = z_sorted[lo:hi]
        s0 = w.sum()
        s1 = w @ dd
        s2 = w @ (dd * dd)
        t0 = w @ z
        t1 = w @ (dd * z)
        den = s0 * s2 - s1 * s1
        if den <= 1e-10 * max(s0 * s2, 1e-300):
            alpha[i] = t0 / s0 if s0 > 0.0 else np.nan
        else:
            alpha[i] = (s2 * t0 - s1 * t1) / den
        mass[i] = s0
    return alpha, mass


def empirical_variogram_dense(residuals, distances, lag_grid, bandwidth, corrections=None):
    """Lag-grid estimates and pair weights from n x n matrices: squared
    differences and corrections formed for all site pairs, then the upper
    triangle taken and stably sorted by distance for every call."""
    r = np.asarray(residuals, dtype=np.float64)
    d = np.asarray(distances, dtype=np.float64)
    iu = np.triu_indices(d.shape[0], k=1)
    z = np.square(r[:, None] - r[None, :])[iu]
    if corrections is not None:
        z = z - np.asarray(corrections, dtype=np.float64)[iu]
    order = np.argsort(d[iu], kind="stable")
    alpha, mass = _lag_fit_dense(lag_grid, d[iu][order], z[order], bandwidth)
    return np.clip(0.5 * alpha, 0.0, None), mass


def bias_corrected_variogram_dense(
    trend_fit, distances, lag_grid, bandwidth, max_iter=5, tol=1e-3
):
    """The plug-in bias iteration with dense n x n corrections
    B_ii + B_jj - 2 B_ij; returns the estimates and pair weights of the
    iterate the package reports (the converged one, else the one with the
    smallest change)."""
    from georisk.variogram import EmpiricalVariogram, bias_matrix, pseudo_covariances

    d = np.asarray(distances, dtype=np.float64)
    est, mass = empirical_variogram_dense(trend_fit.residuals, d, lag_grid, bandwidth)
    best = None
    for _ in range(max_iter):
        pilot = EmpiricalVariogram(lag_grid, est, mass)
        b = bias_matrix(trend_fit.smoother, pseudo_covariances(pilot, d))
        diag = np.diag(b)
        corrections = diag[:, None] + diag[None, :] - 2.0 * b
        new_est, new_mass = empirical_variogram_dense(
            trend_fit.residuals, d, lag_grid, bandwidth, corrections
        )
        change = float(np.max(np.abs(new_est - est) / np.maximum(np.abs(est), 1e-12)))
        est, mass = new_est, new_mass
        if best is None or change < best[0]:
            best = (change, est, mass)
        if change < tol:
            return est, mass
    return best[1], best[2]


def sk_weights_dense(cov_dd, cov_d0):
    """Simple kriging weights via an explicit dense inverse."""
    return np.linalg.inv(cov_dd) @ cov_d0


def bootstrap_replicates_stepwise(fitted, smoother, target_rows, c0, factor_l, e, idx):
    """Bootstrap replicate values built step by step, one block of index rows.

    Recorrelates the resampled residuals with ``factor_l``, rebuilds the
    responses around the fitted trend, re-smooths them, solves the kriging
    system L L^T alpha = residuals by forward then back substitution, and
    adds the kriged residuals to the re-smoothed trend at the targets.
    """
    L = np.asarray(factor_l, dtype=np.float64)
    y_star = fitted[None, :] + e[idx] @ L.T
    resid_star = (y_star - y_star @ smoother.T).T  # (n, b)
    n = L.shape[0]
    z = resid_star.copy()
    for i in range(n):
        z[i] = (z[i] - L[i, :i] @ z[:i]) / L[i, i]
    alpha = z
    for i in range(n - 1, -1, -1):
        alpha[i] = (alpha[i] - L[i + 1 :, i] @ alpha[i + 1 :]) / L[i, i]
    return y_star @ target_rows.T + alpha.T @ c0.T


def bootstrap_engine_oneshot(trend_fit, target_rows, c0, decorr_factor, factor):
    """The bootstrap operator formed in one shot from the full (m, n) target
    covariances ``c0``: offset = T f + c0 Sigma^-1 (I - S) f and
    gain = T L + c0 Sigma^-1 (I - S) L, each as one product over all
    targets."""
    from georisk.bootstrap import BootstrapEngine, decorrelate_residuals
    from georisk.numerics import solve_spd

    s = trend_fit.smoother.S
    f = trend_fit.fitted
    L = factor.L
    offset = target_rows @ f + c0 @ solve_spd(factor, f - s @ f)
    gain = target_rows @ L
    gain += c0 @ solve_spd(factor, L - s @ L)
    e = decorrelate_residuals(trend_fit.residuals, decorr_factor)
    return BootstrapEngine(offset=offset, gain=gain, e=e)


def exceedance_probabilities_oneshot(
    trend_fit, target_rows, target_dists, decorr_factor, model, factor, idx, thresholds
):
    """Exceedance frequencies from the one-shot operator, every replicate
    evaluated in one product, as the mean of booleans per target."""
    from georisk.variogram import covariance_matrix

    c0 = covariance_matrix(model, target_dists)
    engine = bootstrap_engine_oneshot(trend_fit, target_rows, c0, decorr_factor, factor)
    values = engine.replicate_values(idx)
    return np.array([(values >= c).mean(axis=0) for c in thresholds])


def _scaled_kernel(eval_points, locations, bandwidth):
    """Product triweight kernel weights and bandwidth-scaled differences
    u = H^-1 (x_j - e_i) for every pair at once.

    The 1/det(H) normalization is a per-row constant and cancels in the
    local linear weights, so it is omitted.
    """
    from georisk.numerics import _triweight_1d as k1

    diffs = locations[None, :, :] - eval_points[:, None, :]
    if bandwidth.is_diagonal:
        u = diffs / bandwidth.diagonal_scales()[None, None, :]
    else:
        u = diffs @ bandwidth.inverse
    if u.shape[-1] == 2:
        w = k1(u[..., 0]) * k1(u[..., 1])
    else:
        w = np.prod(k1(u), axis=-1)
    return w, u


def _weight_rows(
    eval_points,
    locations,
    bandwidth,
    min_neighbors=None,
    on_singular="raise",
):
    """Dense local linear weight rows for arbitrary evaluation points: the
    reference for ``trend._LocalFit``.

    Each chunk of 512 points forms its kernel weights and scaled
    differences u in full and solves every point's design of (1, u_j) from
    unit-sum weighted sums of them. Returns (rows, bad) where rows is
    (m, n) and bad lists evaluation-point indices with a singular or
    starved local design. With on_singular "raise" any bad point aborts;
    with "mask" the offending rows are zeroed and reported.
    """
    from georisk.trend import _singular_design_error

    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    locations = np.asarray(locations, dtype=np.float64)
    m, d = eval_points.shape
    n = locations.shape[0]
    if min_neighbors is None:
        min_neighbors = d + 1

    rows = np.zeros((m, n))
    bad_all = np.zeros(m, dtype=bool)
    counts_all = np.empty(m, dtype=np.int64)
    for start in range(0, m, 512):
        sl = slice(start, min(start + 512, m))
        _weight_rows_chunk(
            eval_points[sl],
            locations,
            bandwidth,
            min_neighbors,
            rows[sl],
            bad_all[sl],
            counts_all[sl],
        )

    bad_idx = np.flatnonzero(bad_all)
    if bad_idx.size and on_singular == "raise":
        raise _singular_design_error(bad_idx, counts_all[bad_idx].min(), min_neighbors)
    return rows, bad_idx.tolist()


def _weight_rows_chunk(
    eval_points, locations, bandwidth, min_neighbors, rows_out, bad_out, counts_out
):
    from georisk.trend import _solve_e1

    m, d = eval_points.shape
    w, u = _scaled_kernel(eval_points, locations, bandwidth)
    counts = (w > 0.0).sum(axis=1)
    counts_out[:] = counts
    bad = counts < min_neighbors
    sums = np.where(bad, 1.0, w.sum(axis=1))
    wn = w / sums[:, None]

    # normal-equation moments of the design (1, u_j) with unit-sum weights,
    # so the systems stay O(1) regardless of bandwidth scale
    a = np.empty((m, d + 1, d + 1))
    a[:, 0, 0] = 1.0
    if d == 2:
        u0 = u[..., 0]
        u1 = u[..., 1]
        wu0 = wn * u0
        wu1 = wn * u1
        a[:, 0, 1] = a[:, 1, 0] = wu0.sum(axis=1)
        a[:, 0, 2] = a[:, 2, 0] = wu1.sum(axis=1)
        a[:, 1, 1] = (wu0 * u0).sum(axis=1)
        a[:, 1, 2] = a[:, 2, 1] = (wu0 * u1).sum(axis=1)
        a[:, 2, 2] = (wu1 * u1).sum(axis=1)
    else:
        first = np.einsum("mn,mnd->md", wn, u)
        a[:, 0, 1:] = first
        a[:, 1:, 0] = first
        a[:, 1:, 1:] = np.einsum("mn,mnj,mnk->mjk", wn, u, u)

    good_idx = np.flatnonzero(~bad)
    if good_idx.size:
        coef = _solve_e1(a[good_idx])
        singular = np.flatnonzero(np.isnan(coef[:, 0]))
        if singular.size:
            bad[good_idx[singular]] = True
            good_idx = np.flatnonzero(~bad)
            coef = np.delete(coef, singular, axis=0)
        if good_idx.size:
            if d == 2:
                rows_out[good_idx] = wn[good_idx] * (
                    coef[:, :1]
                    + coef[:, 1:2] * u0[good_idx]
                    + coef[:, 2:3] * u1[good_idx]
                )
            else:
                rows_out[good_idx] = wn[good_idx] * (
                    coef[:, :1] + np.einsum("mk,mnk->mn", coef[:, 1:], u[good_idx])
                )
    bad_out[:] = bad


def dense_bandwidth_scores(
    sample, grid, criteria, correlation=None, true_mean=None, covariance=None
):
    """Trend bandwidth criteria from explicit hat matrices, one per candidate.

    For each candidate the dense smoother rows come from ``_weight_rows``
    with the search's neighbor rule, and each criterion in ``criteria`` is
    evaluated on S directly. Returns {criterion: scores}, one score per
    candidate, None where the candidate is inadmissible (starved or
    singular rows, or a degenerate denominator).
    """
    from georisk.exceptions import BandwidthTooSmallError
    from georisk.trend import _MIN_NEIGHBORS_FACTOR

    y = sample.values
    n = sample.n
    min_neighbors = _MIN_NEIGHBORS_FACTOR * (sample.d + 1)
    scores = {c: [] for c in criteria}
    for h in grid:
        try:
            S, _ = _weight_rows(sample.locations, sample.locations, h, min_neighbors)
        except BandwidthTooSmallError:
            for c in criteria:
                scores[c].append(None)
            continue
        resid = y - S @ y
        for c in criteria:
            if c == "mase":
                bias = S @ true_mean - true_mean
                var_term = float(np.einsum("ij,ij->", S @ covariance, S))
                scores[c].append(float(bias @ bias + var_term) / n)
                continue
            if c == "cv":
                denom = 1.0 - np.diag(S)
            elif c == "gcv":
                denom = 1.0 - np.trace(S) / n
            else:
                denom = 1.0 - float(np.einsum("ij,ji->", S, correlation)) / n
            ok = np.all(denom > 1e-12)
            scores[c].append(float(np.mean((resid / denom) ** 2)) if ok else None)
    return scores


def select_from_scores(grid, scores):
    """The search's winner among scored candidates: the smallest score, ties
    within 1e-12 relative going to the larger determinant."""
    best = None
    for h, score in zip(grid, scores):
        if score is None:
            continue
        if best is None:
            best = (score, h)
            continue
        tol = 1e-12 * max(1.0, abs(score), abs(best[0]))
        if score < best[0] - tol or (abs(score - best[0]) <= tol and h.det > best[1].det):
            best = (score, h)
    return best[1]


def semivariance_dense(model, u):
    """gamma of a Shapiro-Botha model from one (..., K) array of node terms
    summed over its last axis, the nugget added and 0 at u = 0."""
    from georisk.variogram import _basis_kernel

    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.full(u.shape, model.nugget)
    if model.node_weights.size:
        kappa = _basis_kernel(model.kernel_dim)
        arg = u[..., None] * model.node_freqs
        out = out + ((1.0 - kappa(arg)) * model.node_weights).sum(axis=-1)
    out = np.where(u == 0.0, 0.0, out)
    return float(out[0]) if scalar else out


def solve_e1_rowwise(a, ridge=1e-10):
    """A c = e1 for each p x p system of a stack, one system at a time: the
    system as it is, else with ridge * trace(A) added to its diagonal, else
    NaN (a solve that raises or returns non-finite values fails)."""
    m, p, _ = a.shape
    e1 = np.zeros(p)
    e1[0] = 1.0
    out = np.full((m, p), np.nan)
    for i in range(m):
        for mat in (a[i], a[i] + ridge * np.trace(a[i]) * np.eye(p)):
            try:
                sol = np.linalg.solve(mat, e1)
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(sol)):
                out[i] = sol
                break
    return out


def chol_lower(a):
    """Unblocked lower Cholesky, column by column: (L, failing pivot or None).

    A pivot fails unless it is positive and finite, so NaN or infinite
    entries stop the factorization at the first column they reach.
    """
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        s = a[j, j] - L[j, :j] @ L[j, :j]
        if not (s > 0.0) or not np.isfinite(s):
            return L, j
        ljj = np.sqrt(s)
        L[j, j] = ljj
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / ljj
    return L, None


def chol_ridged(a, deltas=(1e-10, 1e-9, 1e-8, 1e-7, 1e-6)):
    """chol_lower of ``a``, else of ``a`` plus delta * mean(diag(a)) on its
    diagonal for each delta in turn: (L, ridge, None) from the first attempt
    that factors, or (None, last ridge, failing pivot of the last attempt)."""
    a = 0.5 * (a + a.T)
    mean_diag = float(np.mean(np.diag(a)))
    base = mean_diag if mean_diag > 0.0 else 1.0
    for ridge in (0.0, *(delta * base for delta in deltas)):
        L, pivot = chol_lower(a + ridge * np.eye(len(a)) if ridge else a)
        if pivot is None:
            return L, ridge, None
    return None, ridge, pivot


def solve_lower_rowwise(L, b):
    """Forward substitution L x = b, one row at a time."""
    x = np.array(b, dtype=np.float64).reshape(len(L), -1)
    for i in range(len(L)):
        x[i] -= L[i, :i] @ x[:i]
        x[i] /= L[i, i]
    return x.reshape(np.shape(b))


def solve_lower_t_rowwise(L, b):
    """Back substitution L^T x = b, one row at a time from the bottom."""
    x = np.array(b, dtype=np.float64).reshape(len(L), -1)
    for i in range(len(L) - 1, -1, -1):
        x[i] -= L[i + 1 :, i] @ x[i + 1 :]
        x[i] /= L[i, i]
    return x.reshape(np.shape(b))
