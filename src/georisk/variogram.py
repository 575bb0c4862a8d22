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
from typing import NamedTuple

import numpy as np

from .exceptions import (
    BandwidthTooSmallError,
    ConfigError,
    DegenerateScoreError,
)
from .numerics import bessel_j0, nnls
from .trend import TrendFit, _row_blocks

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
_FACTOR_ROWS = 32  # points axis_covariances accumulates a node's products over at a time


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
        # written so that NaN, for which every comparison is false, fails
        if not np.all((0.0 < freqs) & (freqs < math.inf)):
            raise ConfigError("node frequencies must be finite and positive")
        if not (0.0 <= self.nugget < math.inf and np.all((0.0 <= weights) & (weights < math.inf))):
            raise ConfigError("nugget and node weights must be finite and nonnegative")
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

    @property
    def axis_product(self) -> bool:
        """Whether the covariance at u > 0, sum b_k kappa(t_k u), is a
        product over coordinate axes in every term: true of the Gaussian
        basis, exp(-t^2 u^2) = prod_a exp(-t^2 (x_a - s_a)^2)."""
        return self.kernel_dim == GAUSSIAN_DIM

    def axis_covariances(self, axes, sites: np.ndarray) -> np.ndarray:
        """(m, n) covariances sill - gamma from m points to the (n, d)
        ``sites`` of an ``axis_product`` model, from per-axis factor tables.

        ``axes`` gives the points one axis at a time: for axis a, the pair
        (coords, index) of their distinct coordinates on that axis and each
        point's index into them. Node k's table for axis a holds
        exp(-t_k^2 (coords - s_a)^2) (len(coords) x n, weighted by b_k on
        the first axis); a point's covariances are the sum over k of the
        product of its rows of the tables. One node's tables exist at a
        time, refilled in place for the next, and each node's products are
        accumulated in place ``_FACTOR_ROWS`` points at a time. A pair
        whose squared difference is 0 on every axis, which is where its
        distance is 0, takes the sill.
        """
        if not self.axis_product:
            raise ConfigError("only a Gaussian-basis model factors over axes")
        index = [idx for _, idx in axes]
        squares = []
        for a, (coords, _) in enumerate(axes):
            diff = np.subtract.outer(coords, sites[:, a])
            squares.append(np.square(diff, out=diff))
        m, n = len(index[0]), sites.shape[0]
        out = np.empty((m, n)) if self.node_weights.size else np.zeros((m, n))
        term = np.empty((min(_FACTOR_ROWS, m), n))
        factor = np.empty_like(term)
        tables = [np.empty_like(sq) for sq in squares]
        for k, (t, w) in enumerate(zip(self.node_freqs, self.node_weights)):
            for table, sq in zip(tables, squares):
                np.exp(np.multiply(sq, -t * t, out=table), out=table)
            tables[0] *= w
            for lo in range(0, m, _FACTOR_ROWS):
                rows = slice(lo, min(lo + _FACTOR_ROWS, m))
                size = rows.stop - lo
                # the first node's products are written in place, the
                # others formed in ``term`` and added. Under mode "clip"
                # np.take writes ``out`` directly instead of buffering it;
                # every index is in range.
                prod = out[rows] if k == 0 else term[:size]
                np.take(tables[0], index[0][rows], axis=0, out=prod, mode="clip")
                for table, idx in zip(tables[1:], index[1:]):
                    np.take(table, idx[rows], axis=0, out=factor[:size], mode="clip")
                    prod *= factor[:size]
                if k:
                    out[rows] += prod
        # the sites with a zero squared difference on every axis, then the
        # points that meet them on every axis
        zeros = [sq == 0.0 for sq in squares]
        hit_sites = np.flatnonzero(np.logical_and.reduce([z.any(axis=0) for z in zeros]))
        if hit_sites.size:
            hit = np.ones((m, hit_sites.size), dtype=bool)
            for z, idx in zip(zeros, index):
                hit &= z[:, hit_sites][idx]
            points, col = np.nonzero(hit)
            out[points, hit_sites[col]] = self.sill
        return out


# ---------------------------------------------------------------------------
# Pair bookkeeping and local linear smoothing over lag
# ---------------------------------------------------------------------------


def _lag_range(pair_distances) -> float:
    """u_max, 55% of the largest of the ``pair_distances`` (a
    ``PairTable``'s distances)."""
    d_max = float(np.max(pair_distances, initial=0.0))
    if d_max <= 0.0:
        raise ConfigError("need at least two distinct sites for a lag grid")
    return LAG_RANGE_FRACTION * d_max


def default_lag_grid(pair_distances) -> np.ndarray:
    """``DEFAULT_N_LAGS`` equally spaced lags from u_max/50 to u_max, 55% of
    the largest of the ``pair_distances``."""
    u_max = _lag_range(pair_distances)
    return np.linspace(u_max / 50.0, u_max, DEFAULT_N_LAGS)


class DistanceLevels(NamedTuple):
    """The distinct distances of a pair table whose distances repeat, as on
    a regular grid: ``distances`` ascending, ``counts`` the number of pairs
    at each, and ``index`` each pair's level as int32."""

    distances: np.ndarray
    counts: np.ndarray
    index: np.ndarray

    def sums(self, values) -> np.ndarray:
        """The sum of the per-pair ``values`` at each level."""
        return np.bincount(self.index, weights=values, minlength=self.distances.size)


@dataclass(frozen=True, eq=False)
class PairTable:
    """The site pairs of one sample, sorted by distance.

    ``distances`` holds the upper-triangle pair distances in stable
    ascending order and ``rows``/``cols`` the two sites of each pair
    (row < col) as int32, which any n whose n x n distance matrix fits in
    memory allows; ``n`` is the number of sites. ``levels`` holds the
    distinct distances (``DistanceLevels``) when some distance repeats, and
    is None otherwise: the levels are then the distances themselves, and
    the table holds no per-pair level array. ``bootstrap.site_design``
    builds it once per sample with ``from_distances``, and every
    lag-smoothing call takes it: per-pair values are then gathered at the P
    pairs instead of being formed as n x n matrices and re-sorted.
    """

    n: int
    distances: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    levels: DistanceLevels | None = None

    @classmethod
    def from_distances(cls, distances) -> "PairTable":
        d = np.asarray(distances, dtype=np.float64)
        rows, cols = np.triu_indices(d.shape[0], k=1)
        pd = d[rows, cols]
        order = np.argsort(pd, kind="stable")
        rows = rows.astype(np.int32)[order]
        cols = cols.astype(np.int32)[order]
        pd = pd[order]
        new = np.empty(pd.size, dtype=bool)  # the first pair at each distance
        new[:1] = True
        np.not_equal(pd[1:], pd[:-1], out=new[1:])
        levels = None
        if not new.all():
            starts = np.flatnonzero(new)
            levels = DistanceLevels(
                pd[starts], np.diff(np.r_[starts, pd.size]), np.cumsum(new, dtype=np.int32) - 1
            )
        return cls(n=d.shape[0], distances=pd, rows=rows, cols=cols, levels=levels)

    def squared_differences(self, values) -> np.ndarray:
        """(v_i - v_j)^2 at every pair."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.shape[0] != self.n:
            raise ConfigError(f"{v.shape[0]} values for a pair table over {self.n} sites")
        return np.square(v[self.rows] - v[self.cols])

    def relabeled(self, order) -> "PairTable":
        """The same pairs, in the same order, with site ``order[k]`` renamed
        k (``order`` a permutation of the sites), so that ``rows``/``cols``
        index arrays held in that order and a row may exceed its column."""
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        return PairTable(
            n=self.n, distances=self.distances, rows=rank[self.rows], cols=rank[self.cols],
            levels=self.levels,
        )

    def corrections(self, bias) -> np.ndarray:
        """B_ii + B_jj - 2 B_ij at every pair: the trend-removal bias of
        (e_i - e_j)^2 for a bias matrix B."""
        b = np.asarray(bias, dtype=np.float64)
        diag = np.diag(b)
        return diag[self.rows] + diag[self.cols] - 2.0 * b[self.rows, self.cols]


def _lag_windows(lags, d_sorted, bandwidth, min_pairs):
    """The window lo..hi-1 of sorted pairs with nonzero kernel weight at
    each lag, (lo, hi). The lag grid's admissibility rule: raises
    BandwidthTooSmallError, naming the starved lags and their smallest
    pair count, when some lag has fewer than ``min_pairs`` pairs."""
    lo = np.searchsorted(d_sorted, lags - bandwidth, side="right")
    hi = np.searchsorted(d_sorted, lags + bandwidth, side="left")
    count = hi - lo
    starved = count < min_pairs
    if np.any(starved):
        k = int(np.argmax(starved))
        raise BandwidthTooSmallError(
            f"lag {lags[k]:.6g} has only {int(count[k])} pairs with nonzero "
            f"kernel weight (need >= {min_pairs}); enlarge the lag bandwidth",
            indices=np.flatnonzero(starved).tolist(),
            neighbors=int(count[starved].min()),
        )
    return lo, hi


def _triweight_poly(u):
    w = 1.0 - u * u
    return w * w * w


def _lag_fits_direct(lags, lo, hi, d_sorted, z_sorted, bandwidth):
    """Local linear fit of z on distance at each lag from the direct sums
    over its window of pairs lo..hi-1. Returns (alpha, weight_mass)."""
    sums = np.empty((5, len(lags)))
    for i, t in enumerate(lags):
        dd = d_sorted[lo[i]:hi[i]] - t
        w = _triweight_poly(dd / bandwidth)
        z = z_sorted[lo[i]:hi[i]]
        sums[:, i] = w.sum(), w @ dd, w @ (dd * dd), w @ z, w @ (dd * z)
    return _intercepts(*sums), sums[0]


def _intercepts(s0, s1, s2, t0, t1):
    """The local linear intercepts (s2 t0 - s1 t1) / (s0 s2 - s1^2) from the
    weighted sums S_k = sum w (d - t)^k and T_k = sum w (d - t)^k z; a
    local constant t0 / s0 where the design is near singular, and NaN
    where no weight is left."""
    den = s0 * s2 - s1 * s1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            den > 1e-10 * np.maximum(s0 * s2, 1e-300),
            (s2 * t0 - s1 * t1) / den,
            np.where(s0 > 0.0, t0 / s0, np.nan),
        )


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
    return coef[:3].reshape(27, 9), np.ascontiguousarray(coef[3:, :, :8].reshape(18, 8))


_SHIFT_S, _SHIFT_T = _shift_matrices()
_SUM_BLOCK = 16384  # pairs per block of running sums
_STACK_PAIRS = _SUM_BLOCK // 8  # pairs in one padded stack of several segments
_CONTRACT_BLOCK = 4096  # targets per contraction of moments into sums


def _powers(x, count):
    """Rows x^0 .. x^(count-1)."""
    out = np.empty((count,) + np.shape(x))
    out[0] = 1.0
    if count > 1:
        out[1] = x
    for m in range(2, count):
        np.multiply(out[m - 1], x, out=out[m])
    return out


def _by_power(moments) -> np.ndarray:
    """The coefficients (5, 9, E) of q^0 .. q^8 in the five sums over E
    pair sets with moments (17, E)."""
    out = np.empty((5, 9, moments.shape[1]))
    np.matmul(_SHIFT_S, moments[:9], out=out[:3].reshape(27, -1))
    np.matmul(_SHIFT_T, moments[9:], out=out[3:].reshape(18, -1))
    return out


def _sums(by_power, q) -> np.ndarray:
    """The five sums (5, E) whose coefficients by power of q are
    ``by_power`` (5, 9, E), seen from targets at offsets q (E,)."""
    return np.einsum("kje,je->ke", by_power, _powers(q, 9))


def _segment_chunks(lengths):
    """Runs (a, b) of consecutive segments whose padded stack, segments x
    longest, holds at most ``_STACK_PAIRS`` pairs; a longer segment is a
    run of its own."""
    a = 0
    while a < len(lengths):
        b, longest = a + 1, lengths[a]
        while b < len(lengths) and (b + 1 - a) * max(longest, lengths[b]) <= _STACK_PAIRS:
            longest = max(longest, lengths[b])
            b += 1
        yield a, b
        a = b


def _chunk_pass(out, d_sorted, z_sorted, p0, p1, centres, g, bounds, *, counts=None):
    """One pass over the pairs of a stack of several segments, p0[j]..p1[j]-1
    for segment j; returns their total moments (17, segments).

    The segments are stacked into one padded (segments x longest) array
    (entries past a segment's end repeat its last pair and are never read)
    after a leading zero column, and the running sums from each segment's
    start of a^m (m <= 8) and a^m z (m <= 7), a = (d - centre)/g, are
    formed along its rows. ``bounds`` lists (r0, seg, rel, update): for the
    k-th entry, the sums over the first rel[k] pairs of segment seg[k], seen
    from target r0 + k, are applied with ``update`` to that target's column
    of ``out``, ``_CONTRACT_BLOCK`` entries per contraction. With
    ``counts`` the entries are distinct distances, each standing for
    counts[k] pairs (see ``_lag_base_sums``).
    """
    count = p1 - p0
    width = int(count.max()) + 1
    cols = np.minimum(p0[:, None] + np.arange(width - 1), p1[:, None] - 1)
    running = np.empty((17, count.size, width))
    running[:, :, 0] = 0.0
    running[:9, :, 1:] = _powers((d_sorted[cols] - centres[:, None]) / g, 9)
    np.multiply(running[:8, :, 1:], z_sorted[cols], out=running[9:, :, 1:])
    if counts is not None:
        running[:9, :, 1:] *= counts[cols]
    np.cumsum(running, axis=2, out=running)
    flat = running.reshape(17, -1)
    for r0, seg, rel, update in bounds:
        for e0 in range(0, rel.size, _CONTRACT_BLOCK):
            e = slice(e0, min(e0 + _CONTRACT_BLOCK, rel.size))
            j = seg[e]
            moments = np.take(flat, j * width + rel[e], axis=1)
            dest = out[:, r0 + e.start:r0 + e.stop]
            q = (centres[j] - d_sorted[r0 + e.start:r0 + e.stop]) / g
            update(dest, _sums(_by_power(moments), q), out=dest)
    return running[:, np.arange(count.size), count]


def _segment_pass(out, d_sorted, z_sorted, p0, p1, centre, g, bounds, running, *, counts=None):
    """One pass over the pairs p0..p1-1 of a lone segment; returns their
    total moments (17,).

    The pairs are read as slices, ``_SUM_BLOCK`` at a time. Each block
    writes a = (d - centre)/g, its powers a^m (m <= 8) and a^m z (m <= 7)
    straight into ``running`` (17, at least block + 1; column 0 holds zeros
    and is never written) and turns them into running sums from the block's
    start; the earlier blocks' total (carry) is added to the moments the
    block hands out. ``bounds`` lists (r0, positions, update), positions
    being nondecreasing window bounds into the pairs: the sums over the
    segment's pairs before positions[k] (clipped to the segment), seen from
    target r0 + k, are applied with ``update`` to that target's column of
    ``out``, ``_CONTRACT_BLOCK`` targets per contraction. ``counts`` is as
    for ``_chunk_pass``.
    """
    count = p1 - p0
    carry = np.zeros(17)
    for c0 in range(0, count, _SUM_BLOCK):
        k0, k1 = p0 + c0, min(p0 + c0 + _SUM_BLOCK, p1)
        block = running[:, :k1 - k0 + 1]
        a = block[1, 1:]
        np.subtract(d_sorted[k0:k1], centre, out=a)
        a /= g
        block[0, 1:] = 1.0
        for m in range(2, 9):
            np.multiply(block[m - 1, 1:], a, out=block[m, 1:])
        np.multiply(block[:8, 1:], z_sorted[k0:k1], out=block[9:, 1:])
        if counts is not None:
            block[:9, 1:] *= counts[k0:k1]
        np.cumsum(block, axis=1, out=block)
        for r0, positions, update in bounds:
            # the targets this block serves, k0 < bound <= k1 (a bound at or
            # before the segment's start, in the first block, reads column 0)
            lo = np.searchsorted(positions, k0, side="right") if c0 else 0
            hi = np.searchsorted(positions, k1, side="right") if k1 < p1 else positions.size
            for e0 in range(lo, hi, _CONTRACT_BLOCK):
                e = slice(e0, min(e0 + _CONTRACT_BLOCK, hi))
                moments = np.take(block, np.clip(positions[e], k0, k1) - k0, axis=1)
                if c0:
                    moments += carry[:, None]
                dest = out[:, r0 + e.start:r0 + e.stop]
                q = (centre - d_sorted[r0 + e.start:r0 + e.stop]) / g
                update(dest, _sums(_by_power(moments), q), out=dest)
        carry += block[:, -1]
    return carry


def _neighbour_entries(p0, p1, adjoins, a, lo, hi, step, positions):
    """The bound entries of the pairs of segments lo..hi-1, each handed out
    by its neighbour k + ``step`` in a chunk starting at segment ``a``: the
    first pair's row, the chunk segment each bound falls in, and how many
    of that segment's pairs lie before the bound (``positions`` clipped to
    the segment; 0, which hands out nothing, where the two segments do not
    adjoin)."""
    k = np.repeat(np.arange(lo, hi), p1[lo:hi] - p0[lo:hi])
    j = k + step
    r0 = p0[lo]
    rel = np.clip(positions[r0:p1[hi - 1]], p0[j], p1[j]) - p0[j]
    rel[~adjoins[np.minimum(k, j)]] = 0
    return r0, j - a, rel


def _pair_window_ends(d_sorted, left, g):
    """``np.searchsorted(d_sorted, d_sorted + g, side="left")``, given the
    window starts ``left = np.searchsorted(d_sorted, d_sorted - g,
    side="right")``.

    Pair k lies before the end of pair i's window when d_k < d_i + g, that
    is, up to rounding, when pair i lies past the start of pair k's window,
    left[k] <= i; so the ends are the running count of the starts. Each end
    r is then checked, d[r - 1] < d_i + g <= d[r] (with d[-1] = -inf and
    d[P] = +inf), which holds for the searchsorted bound alone, and the few
    that rounding moved are searched again.
    """
    size = d_sorted.size
    ends = np.cumsum(np.bincount(left, minlength=size)[:size], dtype=left.dtype)
    reach = d_sorted + g
    padded = np.concatenate(([-np.inf], d_sorted, [np.inf]))
    moved = np.flatnonzero(~((padded[ends] < reach) & (reach <= padded[ends + 1])))
    ends[moved] = np.searchsorted(d_sorted, reach[moved], side="left")
    return ends


def _lag_base_sums(d_sorted, z_sorted, bandwidth, counts=None):
    """Triweight-weighted local-linear sums of z on distance at every pair's
    own distance, the leave-one-out targets.

    For the pair at d_i, with K(u) = (1 - u^2)^3 on |u| < 1, u = (d - d_i)/g,
    over the pairs in the open window (d_i - g, d_i + g), itself included:
    S_k = sum K(u)(d - d_i)^k for k = 0, 1, 2 and T_k = sum K(u)(d - d_i)^k z
    for k = 0, 1. Returns them as the rows of one (5, P) array.

    With ``counts``, the sums are taken once per distinct distance: then
    ``d_sorted`` holds the distinct distances (``DistanceLevels``), counts[i]
    the pairs at d_sorted[i] and z_sorted[i] the sum of their z, so that the
    z-free moments are weighted by the counts, and every pair at d_i has the
    i-th column. On the 20 x 20 grid that is 473 targets for 79,800 pairs.
    The passes are handed ``counts`` only when it is given.

    The pairs are cut into width-g segments, the runs of
    floor((d - d_0)/g), each with one centre; a segment's targets are its
    own pairs. A target in segment s has its window start in segment s - 1
    and end in segment s + 1, so its sums are all of s - 1 and s, less the
    head of s - 1 before the window start, plus the head of s + 1 up to
    the window end, where those neighbours hold pairs. The window ends are
    counted from the window starts (``_pair_window_ends``).

    Consecutive segments are chunked so that a chunk's padded stack,
    segments x longest, holds at most ``_STACK_PAIRS`` pairs, and a longer
    segment is a chunk of its own: at P = 4,950 (n = 100) a chunk holds
    several segments (``_chunk_pass``), and at n = 1053 most chunks hold
    one, read as slices and summed in blocks of ``_SUM_BLOCK`` pairs in one
    buffer per call (``_segment_pass``). One pass over each chunk forms
    running sums local to each of its segments, never over all P pairs,
    and hands out the head moments at the window starts of the next
    segments' pairs and the window ends of the previous segments' pairs,
    one contraction per kind of bound and block of ``_CONTRACT_BLOCK``
    targets. Moments about a segment's centre (|a| <= 1/2) become
    kernel-weighted sums for a target at q = (centre - d_i)/g (|q| <= 3/2)
    through fixed 9 x 9 coefficient matrices applied to the powers of q
    (``_shift_matrices``). The totals of s - 1 and then s are applied last,
    one segment at a time. Apart from a few arrays with one value per pair
    (window bounds, results), work runs in blocks, so memory does not grow
    with P.

    A pair that rounding puts on the wrong side of a segment edge, just
    past a window bound, is dropped or counted with weight below 1e-40.
    """
    d = d_sorted
    g = float(bandwidth)
    # int32 window bounds, where every position fits, halve their share
    # of the working set
    bound = np.int32 if d.size < 2**31 else np.intp
    left = np.searchsorted(d, d - g, side="right").astype(bound)
    right = _pair_window_ends(d, left, g)
    sums = np.zeros((5, d.size))
    if d.size:
        seg = np.floor((d - d[0]) / g)
        p0 = np.r_[0, np.flatnonzero(seg[1:] != seg[:-1]) + 1]
        p1 = np.r_[p0[1:], d.size]
        seg = seg[p0]
        # segment j + 1 is the width-g segment after j (never for the last)
        adjoins = np.r_[np.diff(seg) == 1.0, False]
        centres = d[0] + (seg + 0.5) * g
        totals = np.empty((17, seg.size))
        weights = {} if counts is None else {"counts": counts}
        running = None  # the lone segments' block of running sums
        for a, b in _segment_chunks(p1 - p0):
            if b - a == 1:
                if running is None:
                    running = np.empty((17, min(_SUM_BLOCK, int((p1 - p0).max())) + 1))
                    running[:, 0] = 0.0
                # window starts of the next segment's pairs, then window ends
                # of the previous segment's pairs
                bounds = []
                if adjoins[a]:
                    bounds.append((p0[a + 1], left[p0[a + 1]:p1[a + 1]], np.subtract))
                if a > 0 and adjoins[a - 1]:
                    bounds.append((p0[a - 1], right[p0[a - 1]:p1[a - 1]], np.add))
                totals[:, a] = _segment_pass(
                    sums, d, z_sorted, p0[a], p1[a], centres[a], g, bounds, running, **weights
                )
                continue
            # window starts of segments a + 1 .. b (the last if it adjoins
            # the chunk), then window ends of segments a - 1 (if it adjoins
            # the chunk) .. b - 2
            last = b + 1 if adjoins[b - 1] else b
            first = a - 1 if a > 0 and adjoins[a - 1] else a
            bounds = [
                (*_neighbour_entries(p0, p1, adjoins, a, a + 1, last, -1, left), np.subtract),
                (*_neighbour_entries(p0, p1, adjoins, a, first, b - 1, 1, right), np.add),
            ]
            totals[:, a:b] = _chunk_pass(
                sums, d, z_sorted, p0[a:b], p1[a:b], centres[a:b], g, bounds, **weights
            )
        # the tail of s - 1 is its total minus the moments handed out above;
        # each target takes that total, then the total of its own segment
        by_power = _by_power(totals)
        for k in range(seg.size):
            for j in (k - 1, k) if k and adjoins[k - 1] else (k,):
                for c0 in range(p0[k], p1[k], _CONTRACT_BLOCK):
                    rows = slice(c0, min(c0 + _CONTRACT_BLOCK, p1[k]))
                    sums[:, rows] += by_power[:, :, j] @ _powers((centres[j] - d[rows]) / g, 9)
    sums[1] *= g
    sums[2] *= g * g
    sums[4] *= g
    return sums


# ---------------------------------------------------------------------------
# Empirical estimation
# ---------------------------------------------------------------------------


def empirical_variogram(
    residuals,
    pairs: PairTable,
    lag_grid,
    bandwidth,
    corrections=None,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> EmpiricalVariogram:
    """Local linear semivariogram of residuals on a scalar lag grid.

    Squared residual differences at the ``pairs`` (optionally minus
    ``corrections``, one value per pair in the table's order) are smoothed
    against pair distance with a univariate triweight kernel of scale
    ``bandwidth``; the stored estimate is half the fitted intercept,
    clamped at zero. Every lag must carry at least ``min_pairs`` pairs with
    nonzero kernel weight.
    """
    resid = np.asarray(residuals, dtype=np.float64).ravel()
    if resid.size < 2:
        raise ConfigError("need at least two residuals")
    lag_grid = np.asarray(lag_grid, dtype=np.float64)
    if bandwidth <= 0.0:
        raise ConfigError("a positive lag bandwidth is required")

    z_sorted = pairs.squared_differences(resid)
    if corrections is not None:
        z_sorted = z_sorted - corrections
    lo, hi = _lag_windows(lag_grid, pairs.distances, bandwidth, min_pairs)
    alpha, mass = _lag_fits_direct(lag_grid, lo, hi, pairs.distances, z_sorted, bandwidth)
    estimates = np.clip(0.5 * alpha, 0.0, None)
    return EmpiricalVariogram(lags=lag_grid, estimates=estimates, pair_counts=mass)


def _row_bands(s):
    """(rows, cols) slices of each row block of a square S (the trend's
    blocks of about 2^15 entries, so one block up to n = 181) and the
    columns from its first to its last nonzero, widened to the block's own
    columns, or None when every block spans every column."""
    n = s.shape[0]
    bands = []
    for sl in _row_blocks(n, n):
        rows = slice(sl.start, min(sl.stop, n))
        nonzero = np.flatnonzero((s[rows] != 0.0).any(axis=0))
        lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (n, 0)
        bands.append((rows, slice(min(lo, rows.start), max(hi, rows.stop))))
    if all(cols.start == 0 and cols.stop == n for _, cols in bands):
        return None
    return bands


def bias_matrix(smoother, covariance) -> np.ndarray:
    """The distortion of the residual covariance that trend removal induces,
    S Sigma S^T - Sigma S^T - S Sigma, for a hat matrix S (an n x n array)
    and a symmetric Sigma, so that Sigma S^T = (S Sigma)^T.

    When some row block of S is zero outside a band of columns (a compact
    kernel with the sites in first-axis order), B is formed one block of
    rows at a time as (S - I) Sigma (S - I)^T - Sigma, each product running
    over the blocks' bands only; otherwise it comes from the dense
    products.
    """
    s = np.asarray(smoother, dtype=np.float64)
    sigma = np.asarray(covariance, dtype=np.float64)
    bands = _row_bands(s)
    if bands is None:
        s_sigma = s @ sigma
        b = s_sigma @ s.T
        b -= s_sigma.T
        b -= s_sigma
        return b
    blocks = []  # the bands of S - I
    for rows, cols in bands:
        block = s[rows, cols].copy()
        k = np.arange(rows.stop - rows.start)
        block[k, k + rows.start - cols.start] -= 1.0
        blocks.append((rows, cols, block))
    # a block of rows of B needs only the same rows of (S - I) Sigma
    b = np.empty(s.shape)
    for rows, cols, block in blocks:
        t = block @ sigma[cols]
        for rows2, cols2, block2 in blocks:
            b[rows, rows2] = t[:, cols2] @ block2.T
        b[rows] -= sigma[rows]
    return b


def pseudo_covariances(pilot: EmpiricalVariogram, pairs: PairTable) -> np.ndarray:
    """Covariance surrogate from a pilot estimate: sill = max pilot value,
    C(d) = max(sill - gamma(d), 0) with gamma linearly interpolated on the
    lag grid (constant beyond its ends); unit-lag variance on the diagonal.
    C is formed once per pair, at the sorted pair distances, and written to
    both triangles.
    """
    sill = float(pilot.estimates.max()) if pilot.estimates.size else 0.0
    values = np.interp(pairs.distances, pilot.lags, pilot.estimates)
    np.subtract(sill, values, out=values)
    np.maximum(values, 0.0, out=values)
    c = np.empty((pairs.n, pairs.n))
    c[pairs.rows, pairs.cols] = values
    c[pairs.cols, pairs.rows] = values
    np.fill_diagonal(c, sill)
    return c


BIAS_MAX_ITER = 5
BIAS_TOL = 1e-3
# The plug-in iteration amplifies pilot noise, and the corrected sill keeps
# growing with the step count: run to convergence it settles far above the
# true sill (~+50% at n = 100..400 in calibration runs), while a small cap
# lands the corrected sill near the truth and preserves the expected
# ordering of the bootstrap variants. Five steps is that compromise. The
# BIAS_TOL exit fires only on noise-free input, so on data all five steps
# run and the step with the smallest relative change is reported. That is
# the last step on the n = 1053 risk map and the first full table1
# replicate, but step 3 on the desk table1 designs of 6 x 6 sites under the
# pipeline's bandwidth (largest change 0.2084 at step 3, 0.2893 at step 5)
# and of 5 x 5 sites in the pipeline's first pass (0.2400 at step 3, 1.0
# at step 5).


def bias_corrected_variogram(
    trend_fit: TrendFit,
    pairs: PairTable,
    lag_grid,
    bandwidth,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> EmpiricalVariogram:
    """Iteratively bias-corrected pilot semivariogram.

    Alternates between approximating the residual-covariance distortion from
    the current pilot (via pseudo-covariances) and re-estimating the pilot
    from corrected squared differences, until the maximum relative change
    over the lag grid drops below ``BIAS_TOL`` or ``BIAS_MAX_ITER`` steps
    are taken. The step with the smallest change is returned (the last one
    when the iteration converged); ``report`` holds its number, its change
    and whether that change is below ``BIAS_TOL``.

    The correction takes the sites in first-axis order: S, each
    pseudo-covariance matrix and each bias matrix are held in that order
    (the pair table relabeled once), so that ``bias_matrix`` multiplies
    each block of rows of S over its band only. The pairs keep their order,
    so the squared differences are those of the sites as given.
    """
    order = np.argsort(trend_fit.sample.locations[:, 0], kind="stable")
    pairs = pairs.relabeled(order)
    residuals = trend_fit.residuals[order]
    current = empirical_variogram(residuals, pairs, lag_grid, bandwidth, min_pairs=min_pairs)
    s = trend_fit.smoother.S[np.ix_(order, order)]
    best = None
    for iteration in range(1, BIAS_MAX_ITER + 1):
        # no n x n or per-pair array outlives its step
        updated = empirical_variogram(
            residuals, pairs, lag_grid, bandwidth,
            corrections=pairs.corrections(bias_matrix(s, pseudo_covariances(current, pairs))),
            min_pairs=min_pairs,
        )
        scale = np.maximum(np.abs(current.estimates), 1e-12)
        change = float(np.max(np.abs(updated.estimates - current.estimates) / scale))
        current = updated
        if best is None or change < best[0]:
            best = (change, current, iteration)
        if change < BIAS_TOL:
            break
    change, est, iteration = best
    report = BiasCorrectionReport(
        iterations=iteration, converged=change < BIAS_TOL, max_rel_change=change
    )
    return EmpiricalVariogram(est.lags, est.estimates, est.pair_counts, report=report)


# ---------------------------------------------------------------------------
# Lag-bandwidth cross-validation
# ---------------------------------------------------------------------------


def _loo_estimates(pd_sorted, z_sorted, bandwidth, levels=None) -> np.ndarray:
    """Leave-one-pair-out semivariogram estimate at every pair's own
    distance (NaN where the fit is undefined), formed ``_SUM_BLOCK`` pairs
    at a time.

    ``levels`` is None, or for a table whose distances repeat its
    ``DistanceLevels`` and the sum of z at each level: the window sums are
    then taken once per level, and each pair reads its level's.

    Per pair the estimates overwrite row 0 of the sums, block by block,
    each after its block is read, so they need no array of their own; the
    levels' sums have one column per level, so that path writes a new
    array."""
    if levels is None:
        sums = _lag_base_sums(pd_sorted, z_sorted, bandwidth)
        gamma = sums[0]
    else:
        (distances, counts, index), z_levels = levels
        sums = _lag_base_sums(distances, z_levels, bandwidth, counts)
        gamma = np.empty(pd_sorted.size)
    for k0 in range(0, pd_sorted.size, _SUM_BLOCK):
        blk = slice(k0, k0 + _SUM_BLOCK)
        s0, s1, s2, t0, t1 = sums[:, blk] if levels is None else sums[:, index[blk]]
        # own pair sits exactly at the target: K(0) = 1
        alpha = _intercepts(s0 - 1.0, s1, s2, t0 - z_sorted[blk], t1)
        np.multiply(0.5, alpha, out=gamma[blk])
    return gamma


def _pair_loo_score(pd_sorted, z_sorted, lag_grid, bandwidth, min_pairs, levels=None) -> float:
    """The leave-one-pair-out relative squared error at ``bandwidth``;
    ``levels`` as for ``_loo_estimates``."""
    _lag_windows(lag_grid, pd_sorted, bandwidth, min_pairs)  # as for estimation

    # The usable pairs' terms overwrite the estimates from the front, block
    # by block: a block's terms never reach past its own end, and they are
    # written after its estimates are read. So one sum over the packed terms
    # adds them in the order a sum over all usable pairs at once would.
    terms = _loo_estimates(pd_sorted, z_sorted, bandwidth, levels)
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


def default_lag_bandwidths(pair_distances) -> np.ndarray:
    """Ten log-spaced lag bandwidths from u_max/25 to u_max, 55% of the
    largest of the ``pair_distances``."""
    u_max = _lag_range(pair_distances)
    return np.geomspace(u_max / 25.0, u_max, 10)


def select_lag_bandwidth(
    residuals,
    pairs: PairTable,
    lag_grid,
    candidates=None,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> float:
    """Pick the lag bandwidth minimizing the leave-one-pair-out relative
    squared error over a log-spaced candidate set.

    For every pair the local linear fit is re-evaluated at the pair's own
    distance with that pair removed; pairs whose leave-one-out estimate is
    not positive (<= 1e-12) are skipped. The lag grid is only used to check
    that a candidate is admissible for the eventual estimation;
    inadmissible candidates, and those whose every pair is skipped, are
    passed over. Where the table's distances repeat, the sums of z at its
    distinct distances are formed once and serve every candidate."""
    if candidates is None:
        candidates = default_lag_bandwidths(pairs.distances)
    lag_grid = np.asarray(lag_grid, dtype=np.float64)
    pd_sorted = pairs.distances
    z_sorted = pairs.squared_differences(residuals)
    levels = pairs.levels
    if levels is not None:
        levels = (levels, levels.sums(z_sorted))
    best = None
    degenerate = 0
    for g in candidates:
        try:
            score = _pair_loo_score(pd_sorted, z_sorted, lag_grid, float(g), min_pairs, levels)
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
