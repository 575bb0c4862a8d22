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


def bias_matrix_dense(s, sigma):
    """S Sigma S^T - Sigma S^T - S Sigma from dense products of the whole
    matrices, for symmetric Sigma."""
    s_sigma = s @ sigma
    return s_sigma @ s.T - s_sigma.T - s_sigma


def bias_iteration_dense(
    trend_fit, distances, lag_grid, bandwidth, max_iter=5, tol=1e-3, bias_matrix=None
):
    """The plug-in bias iteration with dense n x n corrections
    B_ii + B_jj - 2 B_ij, B from ``bias_matrix`` (the package's by
    default) on the sites as given; returns the estimates and pair weights
    of the iterate the package reports (the converged one, else the one
    with the smallest change), its iteration, whether it converged and its
    maximum relative change."""
    from georisk import variogram
    from georisk.variogram import EmpiricalVariogram, PairTable, pseudo_covariances

    bias = variogram.bias_matrix if bias_matrix is None else bias_matrix
    d = np.asarray(distances, dtype=np.float64)
    pairs = PairTable.from_distances(d)
    est, mass = empirical_variogram_dense(trend_fit.residuals, d, lag_grid, bandwidth)
    best = None
    for iteration in range(1, max_iter + 1):
        pilot = EmpiricalVariogram(lag_grid, est, mass)
        b = bias(trend_fit.smoother.S, pseudo_covariances(pilot, pairs))
        diag = np.diag(b)
        corrections = diag[:, None] + diag[None, :] - 2.0 * b
        new_est, new_mass = empirical_variogram_dense(
            trend_fit.residuals, d, lag_grid, bandwidth, corrections
        )
        change = float(np.max(np.abs(new_est - est) / np.maximum(np.abs(est), 1e-12)))
        est, mass = new_est, new_mass
        if best is None or change < best[0]:
            best = (change, est, mass, iteration)
        if change < tol:
            return est, mass, iteration, True, change
    return best[1], best[2], best[3], False, best[0]


def bias_corrected_variogram_dense(
    trend_fit, distances, lag_grid, bandwidth, max_iter=5, tol=1e-3
):
    """The estimates and pair weights of ``bias_iteration_dense``."""
    return bias_iteration_dense(trend_fit, distances, lag_grid, bandwidth, max_iter, tol)[:2]


def sk_weights_dense(cov_dd, cov_d0):
    """Simple kriging weights via an explicit dense inverse."""
    return np.linalg.inv(cov_dd) @ cov_d0


def kriging_factor(locations, model):
    """The package's Cholesky factor of the data-data covariance of
    ``model`` at ``locations``."""
    from georisk.geometry import pairwise_distances
    from georisk.numerics import cholesky
    from georisk.variogram import covariance_matrix

    return cholesky(covariance_matrix(model, pairwise_distances(locations)))


def krige_targets(model, factor, locations, residuals, targets):
    """The package's simple kriging of ``residuals`` at ``targets``: all
    targets as one block of ``kriging.krige_block``, with Sigma^-1 r
    solved through ``factor``."""
    from georisk.geometry import cross_distances
    from georisk.kriging import krige_block
    from georisk.numerics import solve_spd

    alpha = solve_spd(factor, residuals)
    return krige_block(model, residuals, alpha, cross_distances(targets, locations))


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


def bootstrap_engine_oneshot(trend_fit, target_rows, c0, factor):
    """The bootstrap operator formed in one shot from the full (m, n) target
    covariances ``c0``: offset = T f + c0 Sigma^-1 (I - S) f and
    gain = T L + c0 Sigma^-1 (I - S) L, each as one product over all
    targets."""
    from georisk.bootstrap import BootstrapEngine
    from georisk.numerics import solve_spd

    s = trend_fit.smoother.S
    f = trend_fit.fitted
    L = factor.L
    offset = target_rows @ f + c0 @ solve_spd(factor, f - s @ f)
    gain = target_rows @ L
    gain += c0 @ solve_spd(factor, L - s @ L)
    return BootstrapEngine(offset=offset, gain=gain, mask=np.zeros(len(offset), dtype=bool))


def whole_map_engine(trend_fit, targets, covariance):
    """The block engines of ``bootstrap.block_engines`` joined into one
    engine over every kept node: their offsets, gain rows and masks
    concatenated in block order."""
    from georisk.bootstrap import BootstrapEngine, block_engines

    engines = list(block_engines(trend_fit, targets, covariance))
    return BootstrapEngine(
        offset=np.concatenate([engine.offset for engine in engines]),
        gain=np.concatenate([engine.gain for engine in engines]),
        mask=np.concatenate([engine.mask for engine in engines]),
    )


def kept_rows_and_dists(targets, sites):
    """The kept nodes' full smoother rows (zero outside each block's band)
    and their distances to ``sites`` of held map targets, each as one array
    over all blocks."""
    from georisk.geometry import cross_distances

    rows = []
    for block in targets.blocks:
        full = np.zeros((len(block.rows), len(sites)))
        full[:, block.band] = block.rows
        rows.append(full)
    nodes = np.concatenate([block.nodes for block in targets.blocks])
    return np.concatenate(rows), cross_distances(nodes, sites)


def blocked_targets(rows, mask, nodes):
    """Held map targets of the nodes marked by ``mask``, from the kept
    nodes' full ``rows`` formed all at once and their coordinates
    ``nodes``, cut into blocks of ``_NODE_BLOCK`` nodes as ``map_targets``
    cuts them."""
    from georisk.bootstrap import _NODE_BLOCK, MapTargets, TargetBlock

    blocks = []
    kept = 0
    for lo in range(0, len(mask), _NODE_BLOCK):
        block_mask = mask[lo:lo + _NODE_BLOCK]
        rows_of = slice(kept, kept + np.count_nonzero(~block_mask))
        blocks.append(TargetBlock(rows[rows_of], block_mask, nodes[rows_of]))
        kept = rows_of.stop
    return MapTargets(len(mask), tuple(blocks))


def exceedance_probabilities_oneshot(
    trend_fit, targets, decorr_factor, model, factor, idx, thresholds
):
    """Exceedance frequencies from the one-shot operator at held map
    ``targets``, every replicate evaluated in one product, as the mean of
    booleans per kept node; NaN at the masked nodes."""
    from georisk.bootstrap import decorrelate_residuals
    from georisk.variogram import covariance_matrix

    rows, dists = kept_rows_and_dists(targets, trend_fit.sample.locations)
    c0 = covariance_matrix(model, dists)
    engine = bootstrap_engine_oneshot(trend_fit, rows, c0, factor)
    e = decorrelate_residuals(trend_fit.residuals, decorr_factor)
    values = engine.replicate_values(idx, e[idx])
    probs = np.full((len(thresholds), targets.n_nodes), np.nan)
    probs[:, ~targets.mask] = [(values >= c).mean(axis=0) for c in thresholds]
    return probs


def exceedance_probabilities_per_block(
    trend_fit, targets, decorr_factor, model, factor, idx, thresholds
):
    """``exceedance_probabilities_oneshot`` taken one target block of held
    ``targets`` at a time and joined in block order: each block's operator
    is formed in one shot from its own rows and covariances, and every
    replicate is evaluated against it in one product. OpenBLAS gives a
    block of rows of a product the bits of the same rows of the whole
    product only where it splits the rows alike, which on two threads it
    need not, so a blocked result is compared with this reference."""
    from georisk.bootstrap import MapTargets

    return np.concatenate(
        [
            exceedance_probabilities_oneshot(
                trend_fit, MapTargets(len(block.mask), (block,)), decorr_factor,
                model, factor, idx, thresholds,
            )
            for block in targets.blocks
        ],
        axis=1,
    )


def _scaled_kernel(eval_points, locations, bandwidth):
    """Product triweight kernel weights and bandwidth-scaled differences
    u = H^-1 (x_j - e_i) for every pair at once.

    The 1/det(H) normalization is a per-row constant and cancels in the
    local linear weights, so it is omitted.
    """
    from georisk.numerics import _triweight_1d as k1

    diffs = locations[None, :, :] - eval_points[:, None, :]
    u = diffs / bandwidth.diagonal_scales()[None, None, :]
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
    starved local design, or off the line of a window flat on one axis.
    With on_singular "raise" any bad point aborts; with "mask" the
    offending rows are zeroed and reported.
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

    # an axis on which every site of the window has one coordinate has no
    # slope: its row and column are cleared and its pivot set to 1, so that
    # coefficient is 0; a point off that line has no affine fit
    window = w > 0.0
    for k in range(d):
        lo = np.where(window, u[..., k], np.inf).min(axis=1)
        hi = np.where(window, u[..., k], -np.inf).max(axis=1)
        flat = ~bad & (lo == hi)
        bad |= flat & (lo != 0.0)
        a[flat, k + 1, :] = 0.0
        a[flat, :, k + 1] = 0.0
        a[flat, k + 1, k + 1] = 1.0

    good_idx = np.flatnonzero(~bad)
    if good_idx.size:
        e1 = np.zeros((good_idx.size, d + 1, 1))
        e1[:, 0] = 1.0
        try:
            coef = np.linalg.solve(a[good_idx], e1)[..., 0]
        except np.linalg.LinAlgError:
            coef = solve_e1_rowwise(a[good_idx])
        coef[~np.isfinite(coef).all(axis=1)] = np.nan
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


def solve_e1_rowwise(a):
    """A c = e1 for each p x p system of a stack, one system at a time, NaN
    where the solve raises or returns non-finite values."""
    m, p, _ = a.shape
    e1 = np.zeros(p)
    e1[0] = 1.0
    out = np.full((m, p), np.nan)
    for i in range(m):
        try:
            sol = np.linalg.solve(a[i], e1)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            out[i] = sol
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


def select_bandwidth_per_candidate(sample, criterion, grid, **kwargs):
    """The trend bandwidth search one candidate at a time: each candidate's
    local fit at the sites (``_local_fit`` with the search's neighbor rule),
    scored by the public criterion. Returns (winner, scores), None for an
    inadmissible candidate, ties going as in ``select_from_scores``."""
    from georisk import trend
    from georisk.exceptions import BandwidthTooSmallError

    score = {
        "cv": trend.cv_score,
        "gcv": trend.gcv_score,
        "cgcv": lambda s, fit: trend.cgcv_score(s, fit, kwargs["correlation"]),
        "mase": lambda s, fit: trend.mase_score(s, fit, kwargs["true_mean"], kwargs["covariance"]),
    }[criterion]
    min_neighbors = trend._MIN_NEIGHBORS_FACTOR * (sample.d + 1)
    scores = []
    for h in grid:
        try:
            scores.append(score(sample, trend._local_fit(sample, h, min_neighbors)))
        except BandwidthTooSmallError:
            scores.append(None)
    admissible = [s for s in scores if s is not None]
    return (select_from_scores(grid, scores) if admissible else None), scores


def _add_moment_sums(out, moments, q, update=np.add):
    """Apply ``update`` to ``out`` (5, E) with the five sums over pair sets
    with moments (17,) or (17, E), seen from targets at offsets q (E,)."""
    from georisk.variogram import _SHIFT_S, _SHIFT_T, _powers

    q_pow = _powers(q, 9)
    parts = ((out[:3], _SHIFT_S, moments[:9]), (out[3:], _SHIFT_T, moments[9:]))
    for dest, coef, part in parts:
        by_power = (coef @ part).reshape((dest.shape[0], 9) + moments.shape[1:])
        if moments.ndim == 2:
            sums = np.einsum("kje,je->ke", by_power, q_pow)
        else:
            sums = by_power @ q_pow
        update(dest, sums, out=dest)


def _segment_pass_one(out, t, d_sorted, z_sorted, p0, p1, centre, g, bounds, block=16384):
    """One pass over the pairs p0..p1-1 of one segment, in blocks of
    running sums; hands out the moments at the window bounds listed in
    ``bounds`` (i0, positions, update) and returns the segment's total."""
    from georisk.variogram import _powers

    carry = np.zeros(17)
    for k0 in range(p0, p1, block):
        k1 = min(k0 + block, p1)
        running = np.empty((17, k1 - k0))
        running[:9] = _powers((d_sorted[k0:k1] - centre) / g, 9)
        np.multiply(running[:8], z_sorted[k0:k1], out=running[9:])
        np.cumsum(running, axis=1, out=running)
        for i0, positions, update in bounds:
            e0 = int(np.searchsorted(positions, k0, side="right"))
            e1 = int(np.searchsorted(positions, k1, side="right"))
            for c0 in range(e0, e1, block):
                c1 = min(c0 + block, e1)
                moments = np.take(running, positions[c0:c1] - (k0 + 1), axis=1)
                moments += carry[:, None]
                rows = slice(i0 + c0, i0 + c1)
                _add_moment_sums(out[:, rows], moments, (centre - t[rows]) / g, update)
        carry = carry + running[:, -1]
    return carry


def lag_base_sums_per_segment(targets, d_sorted, z_sorted, bandwidth, block=16384):
    """``variogram._lag_base_sums`` one width-g segment at a time: for each
    segment one pass hands out the head moments at the window bounds that
    fall in it, then each target adds the totals of its segment and the one
    before. Returns (S0, S1, S2, T0, T1) for the targets in the order
    given."""
    t = np.asarray(targets, dtype=np.float64).ravel()
    g = float(bandwidth)
    order = np.argsort(t, kind="stable")
    t = t[order]
    left = np.searchsorted(d_sorted, t - g, side="right")
    right = np.searchsorted(d_sorted, t + g, side="left")
    sums = np.zeros((5, t.size))
    origin = min(t[0], d_sorted[0])
    target_seg = np.floor((t - origin) / g)
    firsts = np.r_[0, np.flatnonzero(target_seg[1:] != target_seg[:-1]) + 1]
    spans = {
        s: (i0, i1) for s, i0, i1 in zip(target_seg[firsts], firsts, np.r_[firsts[1:], t.size])
    }
    segments = np.unique(np.add.outer([-1.0, 0.0, 1.0], list(spans)))
    starts = np.searchsorted(d_sorted, origin + segments * g, side="left")
    stops = np.searchsorted(d_sorted, origin + (segments + 1.0) * g, side="left")
    totals = {}
    for s, p0, p1 in zip(segments, starts, stops):
        if p0 == p1:
            continue
        bounds = []
        if s + 1 in spans:
            i0, i1 = spans[s + 1]
            bounds.append((i0, np.clip(left[i0:i1], p0, p1), np.subtract))
        if s - 1 in spans:
            i0, i1 = spans[s - 1]
            bounds.append((i0, np.clip(right[i0:i1], p0, p1), np.add))
        centre = origin + (s + 0.5) * g
        totals[s] = (centre, _segment_pass_one(sums, t, d_sorted, z_sorted, p0, p1, centre, g, bounds, block))
    for s, (i0, i1) in spans.items():
        for key in (s - 1, s):
            if key in totals:
                centre, total = totals[key]
                _add_moment_sums(sums[:, i0:i1], total, (centre - t[i0:i1]) / g)
    unsorted = np.empty_like(sums)
    unsorted[:, order] = sums
    unsorted[1] *= g
    unsorted[2] *= g * g
    unsorted[4] *= g
    return unsorted


def pair_lag_base_sums_per_segment(d_sorted, z_sorted, bandwidth):
    """``lag_base_sums_per_segment`` at every pair's own distance: the
    reference for ``variogram._lag_base_sums``, same arguments."""
    return lag_base_sums_per_segment(d_sorted, d_sorted, z_sorted, bandwidth)


def lag_sums_naive_many(targets, pair_dists, pair_z, bandwidth):
    """``local_lag_sums_naive`` at many targets at once: (sums, abs_sums,
    counts) with sums and abs_sums of shape (5, targets)."""
    d = np.asarray(pair_dists, dtype=np.float64)
    z = np.asarray(pair_z, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    dd = d[None, :] - t[:, None]
    inside = np.abs(dd) < bandwidth
    u = dd / bandwidth
    w = np.where(inside, (1.0 - u * u) ** 3, 0.0)
    terms = (w, w * dd, w * dd * dd, w * z, w * dd * z)
    sums = np.array([x.sum(axis=1) for x in terms])
    abs_sums = np.array([np.abs(x).sum(axis=1) for x in terms])
    return sums, abs_sums, inside.sum(axis=1)


def chunk_pass_stacked(out, d_sorted, z_sorted, p0, p1, centres, g, bounds):
    """The padded-stack pass of ``variogram._chunk_pass`` for a chunk of one
    or more segments, the reference for ``variogram._segment_pass``: a lone
    segment is summed in blocks of 16,384 pairs gathered through a column
    index matrix, and the earlier blocks' total is gathered per entry.
    ``bounds`` lists (r0, seg, rel, update) as for ``_chunk_pass``; returns
    the segments' total moments (17, segments)."""
    from georisk.variogram import _CONTRACT_BLOCK, _SUM_BLOCK, _by_power, _powers, _sums

    count = p1 - p0
    longest = int(count.max())
    width = _SUM_BLOCK if count.size == 1 else longest
    carry = np.zeros((17, count.size))
    for c0 in range(0, longest, width):
        c1 = min(c0 + width, longest)
        cols = np.minimum(p0[:, None] + np.arange(c0, c1), p1[:, None] - 1)
        running = np.empty((17, count.size, c1 - c0 + 1))
        running[:, :, 0] = 0.0
        running[:9, :, 1:] = _powers((d_sorted[cols] - centres[:, None]) / g, 9)
        np.multiply(running[:8, :, 1:], z_sorted[cols], out=running[9:, :, 1:])
        np.cumsum(running, axis=2, out=running)
        flat = running.reshape(17, -1)
        for r0, seg, rel, update in bounds:
            lo, hi = 0, rel.size
            if count.size == 1:
                lo, hi = np.searchsorted(rel, [c0, c1], side="right")
                lo = lo if c0 else 0
            for e0 in range(lo, hi, _CONTRACT_BLOCK):
                e = slice(e0, min(e0 + _CONTRACT_BLOCK, hi))
                j = seg[e]
                moments = np.take(flat, j * (c1 - c0 + 1) + (rel[e] - c0), axis=1)
                if c0:
                    moments += carry[:, j]
                dest = out[:, r0 + e.start:r0 + e.stop]
                q = (centres[j] - d_sorted[r0 + e.start:r0 + e.stop]) / g
                update(dest, _sums(_by_power(moments), q), out=dest)
        carry = carry + running[:, np.arange(count.size), np.minimum(count, c1) - c0]
    return carry


def segment_pass_stacked(out, d_sorted, z_sorted, p0, p1, centre, g, bounds, running):
    """``variogram._segment_pass`` through ``chunk_pass_stacked``: each
    bound's positions become counts of the segment's pairs before them
    (clipped to the segment), and ``running`` is not used."""
    rel_bounds = [
        (r0, np.zeros(positions.size, dtype=np.int64), np.clip(positions, p0, p1) - p0, update)
        for r0, positions, update in bounds
    ]
    segment = (np.array([p0]), np.array([p1]), np.array([centre]))
    return chunk_pass_stacked(out, d_sorted, z_sorted, *segment, g, rel_bounds)[:, 0]


def resample_indices_rowwise(n: int, n_replicates: int, seed: int, *path: int) -> np.ndarray:
    """``bootstrap.resample_indices`` with one Generator per row: row j is
    ``rng_stream(seed, STREAM_BOOT, *path, j).integers(0, n, size=n)``,
    held as int32."""
    from georisk.bootstrap import STREAM_BOOT, rng_stream

    idx = np.empty((n_replicates, n), dtype=np.int32)
    for j in range(n_replicates):
        idx[j] = rng_stream(seed, STREAM_BOOT, *path, j).integers(0, n, size=n)
    return idx


def scenario_rows_per_replicate_operators(scenario, modes):
    """``run_scenario(scenario, modes).rows`` for a study whose replicates
    all succeed, with every mode's operator, the theoretical one included,
    built per replicate from a (model, factor) entry that holds no gain,
    one mode per ``mode_probabilities`` call. A regular design has one
    design context for the study, and under the MASE criterion its lag
    bandwidth is tuned once, on the first replicate's residuals; the
    uniform design builds a context per replicate from its drawn sites and
    tunes the lag bandwidth on each replicate's residuals."""
    from georisk.bootstrap import (
        _factorize, _variogram_fit, fit_pipeline, map_targets, mode_probabilities,
        resample_indices,
    )
    from georisk.simulation import _DesignContext, simulate_field, true_risk
    from georisk.trend import apply_smoother
    from georisk.variogram import select_lag_bandwidth

    nodes = scenario.prediction_grid().nodes()
    regular = scenario.design == "regular"
    mase = scenario.bandwidth_criterion == "mase"

    def design_of(r):
        return _DesignContext.build(scenario, simulate_field(scenario, r).locations)

    if regular:
        design = design_of(0)
        if mase:
            residuals0 = apply_smoother(
                design.smoother, simulate_field(scenario, 0, design)
            ).residuals
            g = select_lag_bandwidth(residuals0, design.site.pairs, design.site.lag_grid)
    pools = {(m, c): [] for m in modes for c in scenario.thresholds}
    for r in range(scenario.n_replicates):
        if not regular:
            design = design_of(r)
        pairs, lag_grid = design.site.pairs, design.site.lag_grid
        sample = simulate_field(scenario, r, design)
        if mase:
            trend_fit = apply_smoother(design.smoother, sample)
            if not regular:
                g = select_lag_bandwidth(trend_fit.residuals, pairs, lag_grid)
            _, resid_model, _, corr_model = _variogram_fit(trend_fit, pairs, lag_grid, g)
            models = (resid_model, corr_model)
            estimates = tuple(zip(models, _factorize(models, design.site.dists)))
            targets = design.targets
        else:
            fit = fit_pipeline(sample)
            trend_fit, estimates = fit.trend_fit, fit.estimates
            targets = map_targets(trend_fit, nodes)
        theoretical = (scenario.model, design.factor_true)
        idx = resample_indices(sample.n, scenario.n_boot, scenario.seed, r)
        keep = ~targets.mask
        for mode in modes:
            probs = mode_probabilities(
                trend_fit, targets, idx, scenario.thresholds, (mode,), estimates, theoretical
            )[mode]
            for c, p in zip(scenario.thresholds, probs):
                truth = true_risk(nodes, c, scenario)
                pools[(mode, c)].append((truth[keep] - p[keep]) ** 2)
    rows = []
    for mode in modes:
        for c in scenario.thresholds:
            pooled = np.concatenate(pools[(mode, c)])
            rows.append({
                "scenario": scenario.name, "mode": mode, "threshold": float(c),
                "n": scenario.n, "N": scenario.n_replicates, "B": scenario.n_boot,
                "mean_se": float(np.mean(pooled)), "median_se": float(np.median(pooled)),
                "sd_se": float(np.std(pooled)), "failures": 0,
            })
    return rows
