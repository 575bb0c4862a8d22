"""Isotropic variogram estimation from detrended residuals.

Local linear smoothing of squared residual differences against pair
distance gives a pilot semivariogram. Removing a trend distorts residual
covariances, so the pilot is iteratively corrected with a plug-in bias
matrix built from pseudo-covariances, and a valid isotropic model (a
nonnegative mixture of basis kernels plus a nugget) is fitted to the
corrected estimates by weighted non-negative least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BandwidthTooSmallError,
    ConfigError,
    DegenerateScoreError,
)
from .numerics import bessel_j0, nnls
from .trend import TrendFit

LAG_RANGE_FRACTION = 0.55  # lags live inside 55% of the largest distance
DEFAULT_N_LAGS = 25
DEFAULT_MIN_PAIRS = 5
GAUSSIAN_DIM = math.inf


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BiasCorrectionReport:
    iterations: int
    converged: bool
    max_rel_change: float


@dataclass(frozen=True, eq=False)
class EmpiricalVariogram:
    """Semivariogram estimates on an increasing lag grid.

    pair_counts holds the effective local pair weight per lag (kernel mass
    normalized so an exactly centered pair counts as one).
    """

    lags: np.ndarray
    estimates: np.ndarray
    pair_counts: np.ndarray
    report: BiasCorrectionReport | None = field(default=None, compare=False)

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=np.float64)
        est = np.asarray(self.estimates, dtype=np.float64)
        cnt = np.asarray(self.pair_counts, dtype=np.float64)
        if lags.ndim != 1 or lags.shape != est.shape or lags.shape != cnt.shape:
            raise ConfigError("lags, estimates and pair_counts must be 1-D and aligned")
        if lags.size and (np.any(lags <= 0.0) or np.any(np.diff(lags) <= 0.0)):
            raise ConfigError("lags must be positive and strictly increasing")
        if np.any(~np.isfinite(est)) or np.any(est < 0.0):
            raise ConfigError("estimates must be finite and nonnegative")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "pair_counts", cnt)

    @property
    def max_lag(self) -> float:
        return float(self.lags[-1])


def _basis_kernel(kernel_dim):
    if kernel_dim == 2:
        return bessel_j0
    if kernel_dim == 3:
        return lambda x: np.sinc(np.asarray(x, dtype=np.float64) / np.pi)
    if kernel_dim == GAUSSIAN_DIM:
        return lambda x: np.exp(-np.square(np.asarray(x, dtype=np.float64)))
    raise ConfigError(f"kernel_dim must be 2, 3 or inf, got {kernel_dim!r}")


_EVAL_BLOCK = 8192  # node-term values semivariance forms at a time


@dataclass(frozen=True, eq=False)
class VariogramModel:
    """Valid isotropic semivariogram: nugget plus a nonnegative mixture of
    basis kernels, gamma(u) = nugget + sum b_k (1 - kappa(t_k u)) for u > 0
    and gamma(0) = 0."""

    nugget: float
    node_freqs: np.ndarray
    node_weights: np.ndarray
    kernel_dim: float = GAUSSIAN_DIM

    def __post_init__(self):
        freqs = np.asarray(self.node_freqs, dtype=np.float64).ravel()
        weights = np.asarray(self.node_weights, dtype=np.float64).ravel()
        if freqs.shape != weights.shape:
            raise ConfigError("node_freqs and node_weights must align")
        if np.any(freqs <= 0.0):
            raise ConfigError("node frequencies must be positive")
        if self.nugget < 0.0 or np.any(weights < 0.0):
            raise ConfigError("nugget and node weights must be nonnegative")
        _basis_kernel(self.kernel_dim)
        object.__setattr__(self, "nugget", float(self.nugget))
        object.__setattr__(self, "node_freqs", freqs)
        object.__setattr__(self, "node_weights", weights)

    @property
    def sill(self) -> float:
        return self.nugget + float(self.node_weights.sum())

    def semivariance(self, u):
        """gamma at every entry of ``u``, bit-identical to
        ``nugget + ((1 - kappa(u[..., None] * t)) * b).sum(axis=-1)`` with
        0 at u = 0, without building that (..., K) array.

        A fitted model keeps only its positive-weight nodes, usually fewer
        than 8. numpy's sum adds fewer than 8 values one after another, so
        such a model adds its node terms node by node over blocks of
        ``_EVAL_BLOCK`` entries, which is faster than a sum per entry. From
        8 nodes on, the formula itself is applied to blocks of
        ``_EVAL_BLOCK // K`` entries.
        """
        u = np.asarray(u, dtype=np.float64)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        out = np.full(u.shape, self.nugget)
        freqs, weights = self.node_freqs, self.node_weights
        if weights.size:
            kappa = _basis_kernel(self.kernel_dim)
            flat_u, flat_out = u.reshape(-1), out.reshape(-1)
            by_node = weights.size < 8
            step = _EVAL_BLOCK if by_node else max(1, _EVAL_BLOCK // weights.size)
            for b0 in range(0, flat_u.size, step):
                ub = flat_u[b0:b0 + step]
                if by_node:
                    terms = ((1.0 - kappa(ub * t)) * w for t, w in zip(freqs, weights))
                    total = next(terms)
                    for term in terms:
                        total += term
                else:
                    total = ((1.0 - kappa(ub[:, None] * freqs)) * weights).sum(axis=-1)
                flat_out[b0:b0 + step] += total
        out[u == 0.0] = 0.0
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Pair bookkeeping and local linear smoothing over lag
# ---------------------------------------------------------------------------


def default_lag_grid(distances, n_lags: int = DEFAULT_N_LAGS) -> np.ndarray:
    """Equally spaced lags from u_max/n_lags*... up to 55% of the largest
    pair distance (u_max), starting at u_max/50."""
    d = np.asarray(distances, dtype=np.float64)
    d_max = float(d.max())
    if d_max <= 0.0:
        raise ConfigError("need at least two distinct sites for a lag grid")
    u_max = LAG_RANGE_FRACTION * d_max
    return np.linspace(u_max / 50.0, u_max, n_lags)


@dataclass(frozen=True, eq=False)
class PairTable:
    """The site pairs of one sample, sorted by distance.

    ``distances`` holds the upper-triangle pair distances in stable
    ascending order and ``rows``/``cols`` the two sites of each pair
    (row < col); ``matrix`` is the distance matrix the table was built
    from. Build it once per sample with ``from_distances`` and pass it to
    every lag-smoothing call: per-pair values are then gathered at the P
    pairs instead of being formed as n x n matrices and re-sorted.
    """

    matrix: np.ndarray
    distances: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def from_distances(cls, distances) -> "PairTable":
        d = np.asarray(distances, dtype=np.float64)
        rows, cols = np.triu_indices(d.shape[0], k=1)
        pd = d[rows, cols]
        order = np.argsort(pd, kind="stable")
        return cls(matrix=d, distances=pd[order], rows=rows[order], cols=cols[order])

    def squared_differences(self, values) -> np.ndarray:
        """(v_i - v_j)^2 at every pair."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.shape[0] != self.matrix.shape[0]:
            raise ConfigError(
                f"{v.shape[0]} values for a pair table over {self.matrix.shape[0]} sites"
            )
        return np.square(v[self.rows] - v[self.cols])

    def corrections(self, bias) -> np.ndarray:
        """B_ii + B_jj - 2 B_ij at every pair: the trend-removal bias of
        (e_i - e_j)^2 for a bias matrix B."""
        b = np.asarray(bias, dtype=np.float64)
        diag = np.diag(b)
        return diag[self.rows] + diag[self.cols] - 2.0 * b[self.rows, self.cols]


def _pair_table(distances) -> PairTable:
    """The pair table of ``distances``, built from a distance matrix if
    needed: the one place where a matrix becomes a pair table."""
    if isinstance(distances, PairTable):
        return distances
    return PairTable.from_distances(distances)


def _triweight_poly(u):
    w = 1.0 - u * u
    return w * w * w


def _lag_fits_direct(targets, d_sorted, z_sorted, bandwidth):
    """Local linear fit of z on distance at each target (direct windowed
    sums). Returns (alpha, weight_mass, pair_count) arrays."""
    targets = np.asarray(targets, dtype=np.float64)
    alpha = np.empty(targets.shape)
    mass = np.empty(targets.shape)
    count = np.empty(targets.shape, dtype=np.int64)
    for i, t in enumerate(targets):
        lo = np.searchsorted(d_sorted, t - bandwidth, side="right")
        hi = np.searchsorted(d_sorted, t + bandwidth, side="left")
        count[i] = hi - lo
        if hi <= lo:
            alpha[i] = np.nan
            mass[i] = 0.0
            continue
        dd = d_sorted[lo:hi] - t
        w = _triweight_poly(dd / bandwidth)
        z = z_sorted[lo:hi]
        s0 = w.sum()
        s1 = w @ dd
        s2 = w @ (dd * dd)
        t0 = w @ z
        t1 = w @ (dd * z)
        alpha[i] = _intercept(s0, s1, s2, t0, t1)
        mass[i] = s0
    return alpha, mass, count


def _intercept(s0, s1, s2, t0, t1):
    den = s0 * s2 - s1 * s1
    if den <= 1e-10 * max(s0 * s2, 1e-300):
        return t0 / s0 if s0 > 0.0 else np.nan
    return (s2 * t0 - s1 * t1) / den


def _shift_matrices():
    """Coefficients with sum k = sum_(j,m) C_k[j, m] q^j M_m.

    With u = a + q, the five summands u^k (1 - u^2)^3 (k = 0, 1, 2, then
    k = 0, 1 times z) are polynomials sum_p c_p u^p of degree <= 8, and
    u^p = sum_m C(p, m) a^m q^(p-m). So the k-th sum over a set of pairs is
    a fixed 9 x 9 matrix C_k[j, m] = c_(m+j) C(m+j, m) contracted with the
    set's moments M_m of a (sum a^m for S_k, sum a^m z for T_k) and the
    powers q^j. Returns the S rows (27, 9) and the T rows (18, 8).
    """
    coef = np.zeros((5, 9, 9))
    for k, power in enumerate((0, 1, 2, 0, 1)):
        poly = np.zeros(9)
        poly[power:power + 7:2] = (1.0, -3.0, 3.0, -1.0)
        for m in range(9):
            for j in range(9 - m):
                coef[k, j, m] = poly[m + j] * math.comb(m + j, m)
    # T1 has degree 7, so the z-weighted moments stop at m = 7
    return coef[:3].reshape(27, 9), coef[3:, :, :8].reshape(18, 8)


_SHIFT_S, _SHIFT_T = _shift_matrices()
_SUM_BLOCK = 16384  # pairs per block of running sums, targets per contraction


def _powers(x, count):
    """Rows x^0 .. x^(count-1)."""
    out = np.empty((count,) + np.shape(x))
    out[0] = 1.0
    if count > 1:
        out[1] = x
    for m in range(2, count):
        np.multiply(out[m - 1], x, out=out[m])
    return out


def _add_sums(out, moments, q, update=np.add):
    """Apply ``update`` to ``out`` (5, E) with the five sums over pair sets
    with moments (17,) or (17, E), seen from targets at offsets q (E,)."""
    q_pow = _powers(q, 9)
    parts = ((out[:3], _SHIFT_S, moments[:9]), (out[3:], _SHIFT_T, moments[9:]))
    for dest, coef, part in parts:
        by_power = (coef @ part).reshape((dest.shape[0], 9) + moments.shape[1:])
        if moments.ndim == 2:
            sums = np.einsum("kje,je->ke", by_power, q_pow)
        else:
            sums = by_power @ q_pow
        update(dest, sums, out=dest)


def _segment_pass(out, t, d_sorted, z_sorted, p0, p1, centre, g, bounds):
    """One pass over the pairs p0..p1-1 of one segment; returns their
    total moments.

    Block by block it forms the running sums from p0 of a^m (m <= 8) and
    a^m z (m <= 7), a = (d - centre)/g; each block sums from zero and the
    earlier blocks' total is added to the values it hands out. ``bounds``
    lists (i0, positions, update): for the k-th position p (p0 <= p <= p1,
    nondecreasing) the moments of pairs p0..p-1, seen from target i0 + k,
    are applied with ``update`` to that target's column of ``out``.
    """
    carry = np.zeros(17)
    for k0 in range(p0, p1, _SUM_BLOCK):
        k1 = min(k0 + _SUM_BLOCK, p1)
        running = np.empty((17, k1 - k0))
        running[:9] = _powers((d_sorted[k0:k1] - centre) / g, 9)
        np.multiply(running[:8], z_sorted[k0:k1], out=running[9:])
        np.cumsum(running, axis=1, out=running)
        # the moments at p0 are zero, so each block serves (k0, k1]
        for i0, positions, update in bounds:
            e0 = int(np.searchsorted(positions, k0, side="right"))
            e1 = int(np.searchsorted(positions, k1, side="right"))
            for c0 in range(e0, e1, _SUM_BLOCK):
                c1 = min(c0 + _SUM_BLOCK, e1)
                moments = np.take(running, positions[c0:c1] - (k0 + 1), axis=1)
                moments += carry[:, None]
                rows = slice(i0 + c0, i0 + c1)
                _add_sums(out[:, rows], moments, (centre - t[rows]) / g, update)
        carry = carry + running[:, -1]
    return carry


def _lag_base_sums(targets, d_sorted, z_sorted, bandwidth):
    """Triweight-weighted local-linear sums of z on distance at many targets.

    For each target t, with K(u) = (1 - u^2)^3 on |u| < 1, u = (d - t)/g,
    over the pairs in the open window (t - g, t + g): S_k = sum K(u)(d - t)^k
    for k = 0, 1, 2 and T_k = sum K(u)(d - t)^k z for k = 0, 1. Returns
    (S0, S1, S2, T0, T1, count), count being the pairs in each window.

    Pairs and targets are cut into width-g segments on one common origin;
    each segment has one centre. A target in segment s has its window start
    in segment s - 1 and end in segment s + 1, so its sums add the tail of
    s - 1 from the window start, all of s, and the head of s + 1 up to the
    window end. One pass over each segment (``_segment_pass``) forms
    running sums local to that segment, never over all P pairs, and hands
    out the tail and head moments at the window bounds that fall in it.
    Moments about a segment's centre (|a| <= 1/2) become kernel-weighted
    sums for a target at q = (centre - t)/g (|q| <= 3/2) through fixed
    9 x 9 coefficient matrices applied to the powers of q
    (``_shift_matrices``). Apart from a few arrays with one value per
    target (window bounds, results), work runs in blocks of at most
    ``_SUM_BLOCK`` pairs and targets, so memory does not grow with P.

    A pair that rounding puts on the wrong side of a segment edge, just
    past a window bound, is dropped or counted with weight below 1e-40.
    """
    t = np.asarray(targets, dtype=np.float64).ravel()
    g = float(bandwidth)
    order = None
    if np.any(t[1:] < t[:-1]):
        order = np.argsort(t, kind="stable")
        t = t[order]
    left = np.searchsorted(d_sorted, t - g, side="right")
    right = np.searchsorted(d_sorted, t + g, side="left")
    sums = np.zeros((5, t.size))
    if t.size and d_sorted.size:
        origin = min(t[0], d_sorted[0])
        target_seg = np.floor((t - origin) / g)
        firsts = np.r_[0, np.flatnonzero(target_seg[1:] != target_seg[:-1]) + 1]
        spans = {
            s: (i0, i1)
            for s, i0, i1 in zip(target_seg[firsts], firsts, np.r_[firsts[1:], t.size])
        }
        del target_seg
        # the segments some window meets, and their pairs
        segments = np.unique(np.add.outer([-1.0, 0.0, 1.0], list(spans)))
        starts = np.searchsorted(d_sorted, origin + segments * g, side="left")
        stops = np.searchsorted(d_sorted, origin + (segments + 1.0) * g, side="left")
        totals = {}
        for s, p0, p1 in zip(segments, starts, stops):
            if p0 == p1:
                continue
            bounds = []
            if s + 1 in spans:  # window starts of the next segment's targets
                i0, i1 = spans[s + 1]
                bounds.append((i0, np.clip(left[i0:i1], p0, p1), np.subtract))
            if s - 1 in spans:  # window ends of the previous segment's targets
                i0, i1 = spans[s - 1]
                bounds.append((i0, np.clip(right[i0:i1], p0, p1), np.add))
            centre = origin + (s + 0.5) * g
            total = _segment_pass(sums, t, d_sorted, z_sorted, p0, p1, centre, g, bounds)
            totals[s] = (centre, total)
        # the tail of s - 1 is its total minus the moments handed out above
        for s, (i0, i1) in spans.items():
            for key in (s - 1, s):
                if key in totals:
                    centre, total = totals[key]
                    for c0 in range(i0, i1, _SUM_BLOCK):
                        rows = slice(c0, min(c0 + _SUM_BLOCK, i1))
                        _add_sums(sums[:, rows], total, (centre - t[rows]) / g)
    if order is not None:
        unsorted = np.empty_like(sums)
        unsorted[:, order] = sums
        sums = unsorted
        count = np.empty_like(left)
        count[order] = right - left
    else:
        count = right - left
    sums[1] *= g
    sums[2] *= g * g
    sums[4] *= g
    return (*sums, count)


# ---------------------------------------------------------------------------
# Empirical estimation
# ---------------------------------------------------------------------------


def empirical_variogram(
    residuals,
    distances,
    lag_grid=None,
    bandwidth=None,
    corrections=None,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> EmpiricalVariogram:
    """Local linear semivariogram of residuals on a scalar lag grid.

    Squared residual differences (optionally minus ``corrections``) are
    smoothed against pair distance with a univariate triweight kernel of
    scale ``bandwidth``; the stored estimate is half the fitted intercept,
    clamped at zero. Every lag must carry at least ``min_pairs`` pairs with
    nonzero kernel weight. ``distances`` is a PairTable or a distance
    matrix; ``corrections`` is an n x n matrix or one value per pair in the
    table's order.
    """
    resid = np.asarray(residuals, dtype=np.float64).ravel()
    if resid.size < 2:
        raise ConfigError("need at least two residuals")
    pairs = _pair_table(distances)
    if lag_grid is None:
        lag_grid = default_lag_grid(pairs.matrix)
    lag_grid = np.asarray(lag_grid, dtype=np.float64)
    if bandwidth is None or bandwidth <= 0.0:
        raise ConfigError("a positive lag bandwidth is required")

    z_sorted = pairs.squared_differences(resid)
    if corrections is not None:
        corr = np.asarray(corrections, dtype=np.float64)
        z_sorted = z_sorted - (corr[pairs.rows, pairs.cols] if corr.ndim == 2 else corr)
    alpha, mass, count = _lag_fits_direct(lag_grid, pairs.distances, z_sorted, bandwidth)
    starved = count < min_pairs
    if np.any(starved):
        k = int(np.argmax(starved))
        raise BandwidthTooSmallError(
            f"lag {lag_grid[k]:.6g} has only {int(count[k])} pairs with nonzero "
            f"kernel weight (need >= {min_pairs}); enlarge the lag bandwidth",
            indices=np.flatnonzero(starved).tolist(),
            neighbors=int(count[starved].min()),
        )
    estimates = np.clip(0.5 * alpha, 0.0, None)
    return EmpiricalVariogram(lags=lag_grid, estimates=estimates, pair_counts=mass)


def bias_matrix(smoother, covariance) -> np.ndarray:
    """The distortion of the residual covariance that trend removal induces,
    S Sigma S^T - Sigma S^T - S Sigma, for a hat matrix S and a symmetric
    Sigma, so that Sigma S^T = (S Sigma)^T."""
    s = smoother.S if hasattr(smoother, "S") else np.asarray(smoother, dtype=np.float64)
    sigma = np.asarray(covariance, dtype=np.float64)
    s_sigma = s @ sigma
    b = s_sigma @ s.T
    b -= s_sigma.T
    b -= s_sigma
    return b


def pseudo_covariances(pilot: EmpiricalVariogram, distances) -> np.ndarray:
    """Covariance surrogate from a pilot estimate: sill = max pilot value,
    C(d) = max(sill - gamma(d), 0) with gamma linearly interpolated on the
    lag grid (constant beyond its ends); unit-lag variance on the diagonal.
    """
    d = np.asarray(distances, dtype=np.float64)
    sill = float(pilot.estimates.max()) if pilot.estimates.size else 0.0
    gamma = np.interp(d.ravel(), pilot.lags, pilot.estimates).reshape(d.shape)
    c = np.clip(sill - gamma, 0.0, None)
    np.fill_diagonal(c, sill)
    return c


DEFAULT_BIAS_MAX_ITER = 5
# The plug-in iteration amplifies pilot noise: run to convergence it settles
# far above the true sill (~+50% at n = 100..400 in calibration runs), while
# a small cap lands the corrected sill near the truth and preserves the
# expected ordering of the bootstrap variants. Five steps is that compromise.


def bias_corrected_variogram(
    trend_fit: TrendFit,
    distances,
    lag_grid=None,
    bandwidth=None,
    max_iter: int = DEFAULT_BIAS_MAX_ITER,
    tol: float = 1e-3,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> EmpiricalVariogram:
    """Iteratively bias-corrected pilot semivariogram.

    Alternates between approximating the residual-covariance distortion from
    the current pilot (via pseudo-covariances) and re-estimating the pilot
    from corrected squared differences, until the maximum relative change
    over the lag grid drops below ``tol`` or ``max_iter`` is reached. On
    non-convergence the best iterate is returned with a flag in ``report``.
    ``distances`` is a PairTable or a distance matrix.
    """
    pairs = _pair_table(distances)
    if lag_grid is None:
        lag_grid = default_lag_grid(pairs.matrix)
    est = empirical_variogram(
        trend_fit.residuals, pairs, lag_grid, bandwidth, min_pairs=min_pairs
    )
    if max_iter <= 0:
        report = BiasCorrectionReport(iterations=0, converged=False, max_rel_change=np.inf)
        return EmpiricalVariogram(est.lags, est.estimates, est.pair_counts, report=report)

    s = trend_fit.smoother
    best = None
    current = est
    change = np.inf
    for iteration in range(1, max_iter + 1):
        c_hat = pseudo_covariances(current, pairs.matrix)
        corrections = pairs.corrections(bias_matrix(s, c_hat))
        updated = empirical_variogram(
            trend_fit.residuals, pairs, lag_grid, bandwidth,
            corrections=corrections, min_pairs=min_pairs,
        )
        scale = np.maximum(np.abs(current.estimates), 1e-12)
        change = float(np.max(np.abs(updated.estimates - current.estimates) / scale))
        current = updated
        if best is None or change < best[0]:
            best = (change, current, iteration)
        if change < tol:
            report = BiasCorrectionReport(iterations=iteration, converged=True, max_rel_change=change)
            return EmpiricalVariogram(
                current.lags, current.estimates, current.pair_counts, report=report
            )
    change_best, est_best, it_best = best
    report = BiasCorrectionReport(iterations=it_best, converged=False, max_rel_change=change_best)
    return EmpiricalVariogram(
        est_best.lags, est_best.estimates, est_best.pair_counts, report=report
    )


# ---------------------------------------------------------------------------
# Lag-bandwidth cross-validation
# ---------------------------------------------------------------------------


def _loo_estimates(pd_sorted, z_sorted, bandwidth) -> np.ndarray:
    """Leave-one-pair-out semivariogram estimate at every pair's own
    distance (NaN where the fit is undefined), formed ``_SUM_BLOCK`` pairs
    at a time."""
    sums = _lag_base_sums(pd_sorted, pd_sorted, z_sorted, bandwidth)[:5]
    gamma = np.empty(pd_sorted.size)
    for k0 in range(0, pd_sorted.size, _SUM_BLOCK):
        blk = slice(k0, k0 + _SUM_BLOCK)
        s0, s1, s2, t0, t1 = (x[blk] for x in sums)
        s0_loo = s0 - 1.0  # own pair sits exactly at the target: K(0) = 1
        t0_loo = t0 - z_sorted[blk]
        den = s0_loo * s2 - s1 * s1
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(
                den > 1e-10 * np.maximum(s0_loo * s2, 1e-300),
                (s2 * t0_loo - s1 * t1) / den,
                np.where(s0_loo > 0.0, t0_loo / np.maximum(s0_loo, 1e-300), np.nan),
            )
        np.multiply(0.5, alpha, out=gamma[blk])
    return gamma


def _pair_loo_score(pd_sorted, z_sorted, lag_grid, bandwidth, min_pairs) -> float:
    # admissibility on the lag grid, as for estimation
    lo = np.searchsorted(pd_sorted, lag_grid - bandwidth, side="right")
    hi = np.searchsorted(pd_sorted, lag_grid + bandwidth, side="left")
    starved = (hi - lo) < min_pairs
    if np.any(starved):
        k = int(np.argmax(starved))
        raise BandwidthTooSmallError(
            f"lag {lag_grid[k]:.6g} has only {int(hi[k] - lo[k])} pairs with "
            f"nonzero kernel weight (need >= {min_pairs})",
            indices=np.flatnonzero(starved).tolist(),
        )

    # The usable pairs' terms overwrite the estimates from the front, block
    # by block: a block's terms never reach past its own end, and they are
    # written after its estimates are read. So one sum over the packed terms
    # adds them in the order a sum over all usable pairs at once would.
    terms = _loo_estimates(pd_sorted, z_sorted, bandwidth)
    used = 0
    for k0 in range(0, terms.size, _SUM_BLOCK):
        gamma = terms[k0:k0 + _SUM_BLOCK]
        usable = np.isfinite(gamma) & (gamma > 1e-12)
        gamma = gamma[usable]
        z = z_sorted[k0:k0 + _SUM_BLOCK][usable]
        terms[used:used + gamma.size] = ((0.5 * z - gamma) / gamma) ** 2
        used += gamma.size
    if not used:
        raise DegenerateScoreError(
            f"all {pd_sorted.size} pairs were skipped in the leave-one-pair-out score"
        )
    return float(terms[:used].sum())


def cv_relative_error(
    residuals,
    distances,
    lag_grid=None,
    bandwidth=None,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> float:
    """Leave-one-pair-out relative squared error of semivariogram estimates.

    For every pair the local linear fit is re-evaluated at the pair's own
    distance with that pair removed; pairs whose leave-one-out estimate is
    not positive (<= 1e-12) are skipped. Raises DegenerateScoreError when
    every pair is skipped. The lag grid is only used to check that the
    candidate bandwidth is admissible for the eventual estimation.
    ``distances`` is a PairTable or a distance matrix.
    """
    pairs = _pair_table(distances)
    if lag_grid is None:
        lag_grid = default_lag_grid(pairs.matrix)
    lag_grid = np.asarray(lag_grid, dtype=np.float64)
    if bandwidth is None or bandwidth <= 0.0:
        raise ConfigError("a positive lag bandwidth is required")
    z_sorted = pairs.squared_differences(residuals)
    return _pair_loo_score(pairs.distances, z_sorted, lag_grid, bandwidth, min_pairs)


def default_lag_bandwidths(distances, n_candidates: int = 10) -> np.ndarray:
    d_max = float(np.asarray(distances).max())
    u_max = LAG_RANGE_FRACTION * d_max
    return np.geomspace(u_max / 25.0, u_max, n_candidates)


def select_lag_bandwidth(
    residuals,
    distances,
    lag_grid=None,
    candidates=None,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> float:
    """Pick the lag bandwidth minimizing the leave-one-pair-out score over a
    log-spaced candidate set; inadmissible candidates are skipped.
    ``distances`` is a PairTable or a distance matrix."""
    pairs = _pair_table(distances)
    if candidates is None:
        candidates = default_lag_bandwidths(pairs.matrix)
    if lag_grid is None:
        lag_grid = default_lag_grid(pairs.matrix)
    lag_grid = np.asarray(lag_grid, dtype=np.float64)
    pd_sorted = pairs.distances
    z_sorted = pairs.squared_differences(residuals)
    best = None
    degenerate = 0
    for g in candidates:
        try:
            score = _pair_loo_score(pd_sorted, z_sorted, lag_grid, float(g), min_pairs)
        except BandwidthTooSmallError:
            continue
        except DegenerateScoreError:
            degenerate += 1
            continue
        if best is None or score < best[0]:
            best = (score, float(g))
    if best is None:
        if degenerate:
            raise DegenerateScoreError(
                "every candidate lag bandwidth produced a degenerate score"
            )
        raise BandwidthTooSmallError(
            "no admissible lag bandwidth among the candidates; largest was "
            f"{float(np.max(candidates)):.6g}"
        )
    return best[1]


# ---------------------------------------------------------------------------
# Valid-model fitting and covariance assembly
# ---------------------------------------------------------------------------


def default_node_freqs(max_lag: float, n_lags: int, n_nodes: int | None = None) -> np.ndarray:
    """Basis-kernel frequencies resolvable over the observed lag window:
    t_k = k pi / u_max, k = 1..K with K = min(2 * n_lags, 50) by default."""
    k = n_nodes if n_nodes is not None else min(2 * n_lags, 50)
    if k < 1:
        raise ConfigError("need at least one basis node")
    return np.arange(1, k + 1) * (np.pi / max_lag)


def fit_shapiro_botha(
    pilot: EmpiricalVariogram,
    kernel_dim: float = GAUSSIAN_DIM,
    n_nodes: int | None = None,
) -> VariogramModel:
    """Weighted NNLS fit of a valid isotropic model to a pilot estimate.

    The nugget enters as one more nonnegative coordinate (a column of ones),
    weights are the pilot pair counts, and negative pilot values have
    already been clamped at zero by construction.
    """
    if pilot.lags.size < 2:
        raise ConfigError("pilot needs at least two lags")
    freqs = default_node_freqs(pilot.max_lag, pilot.lags.size, n_nodes)
    kappa = _basis_kernel(kernel_dim)
    design = np.empty((pilot.lags.size, freqs.size + 1))
    design[:, 0] = 1.0
    design[:, 1:] = 1.0 - kappa(pilot.lags[:, None] * freqs[None, :])
    weights = np.maximum(pilot.pair_counts, 1e-12)
    coef = nnls(design, pilot.estimates, weights=weights)
    nugget = coef[0]
    node_w = coef[1:]
    keep = node_w > 0.0
    return VariogramModel(
        nugget=nugget,
        node_freqs=freqs[keep],
        node_weights=node_w[keep],
        kernel_dim=kernel_dim,
    )


def covariance_matrix(model, distances) -> np.ndarray:
    """Covariances sill - gamma(d) with the sill on the diagonal."""
    d = np.asarray(distances, dtype=np.float64)
    return model.sill - model.semivariance(d)


def correlation_matrix(covariance) -> np.ndarray:
    """Normalize a covariance matrix to unit diagonal."""
    cov = np.asarray(covariance, dtype=np.float64)
    diag = np.diag(cov)
    if np.any(diag <= 0.0):
        raise ConfigError("covariance matrix has a nonpositive diagonal entry")
    scale = 1.0 / np.sqrt(diag)
    return cov * scale[:, None] * scale[None, :]
