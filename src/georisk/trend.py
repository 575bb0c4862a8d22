"""Local linear trend estimation and bandwidth selection.

The smoother is the multivariate local linear estimator: at a point x the
fitted value is the intercept of a kernel-weighted affine fit, a linear
functional s_x of the observations. Stacking the s_x rows at the sample
sites gives the hat matrix S of the fitted trend, which the bootstrap
reuses; rows at the map nodes give its trend predictions.

One engine, ``_local_fit``, builds every row. It forms the kernel matrix W
between the evaluation points and the sites one row block at a time,
solves each point's 3x3 local design about the centred coordinates z and
returns a ``_LocalFit``, whose ``hat_matrix`` gives the rows. At the sites
the designs come from the moments W @ [1, z, z z^T], one n x 6 matrix
product; at other points they are summed over each point's window. A point
whose window has no spread on an axis while the point lies off that line
has no affine fit: it is masked or raises, as are points with too few
neighbors or a singular design.

The bandwidth search never forms S. For each candidate it builds W at the
sites (the product kernel's first-axis factor is shared by the candidates
with the same h_1) and solves the designs; the fitted values and diag S
follow from W @ [y, z y]. CV, GCV and CGCV need nothing else but tr(S R),
which comes from (W o R^T) @ [1, z]. Only the simulation's MASE oracle
builds the rows, for tr(S Sigma S^T). One candidate takes a few O(n^2)
passes and one n x 6 matrix product (MASE adds an n^3 product), and the
winner's S is built once, by ``smoother_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import BandwidthTooSmallError, ConfigError
from .geometry import BandwidthMatrix, RegularGrid, SpatialSample
from .numerics import PRODUCT_KERNELS

_LOCAL_RIDGE = 1e-10
_MIN_NEIGHBORS_FACTOR = 3  # admissibility asks for 3 (d+1) kernel neighbors


@dataclass(frozen=True, eq=False)
class SmootherMatrix:
    """Hat matrix of the local linear smoother at the sample sites."""

    S: np.ndarray
    bandwidth: BandwidthMatrix
    kernel: str = "triweight"

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.S))

    # the interface the bandwidth criteria score, shared with ``_LocalFit``

    def smooth(self, v) -> np.ndarray:
        """S v, the smoother applied to data v."""
        return self.S @ v

    def hat_diagonal(self) -> np.ndarray:
        return np.diag(self.S)

    def trace_with(self, r) -> float:
        """tr(S R)."""
        return float(np.einsum("ij,ji->", self.S, r))

    def hat_matrix(self) -> np.ndarray:
        return self.S


@dataclass(frozen=True, eq=False)
class TrendFit:
    """A fitted trend: sample, smoother, fitted values, residuals."""

    sample: SpatialSample
    smoother: SmootherMatrix
    fitted: np.ndarray
    residuals: np.ndarray


def _singular_design_error(bad_idx, worst, min_neighbors) -> BandwidthTooSmallError:
    worst = int(worst)
    return BandwidthTooSmallError(
        f"singular local design at {bad_idx.size} evaluation point(s) "
        f"{bad_idx[:8].tolist()}{'...' if bad_idx.size > 8 else ''}; "
        f"smallest effective neighbor count {worst} "
        f"(need >= {min_neighbors})",
        indices=bad_idx.tolist(),
        neighbors=worst,
    )


def _solve_e1(a):
    """Solve A c = e1 for a stack of small SPD-ish systems.

    Rows that are exactly singular, or whose solution is not finite, get a
    scaled ridge (as in ``_solve_e1_single``); rows that stay singular come
    back as NaN. Both passes solve their rows in one batch.
    """
    m, p, _ = a.shape
    e1 = np.zeros((m, p))
    e1[:, 0] = 1.0
    try:
        out = np.linalg.solve(a, e1[..., None])[..., 0]
        ridged = np.zeros(m, dtype=bool)
    except np.linalg.LinAlgError:
        out = _solve_nonsingular(a, e1)
        ridged = ~np.isfinite(out).all(axis=1)
        if ridged.any():
            sub = a[ridged]
            ridge = _LOCAL_RIDGE * np.trace(sub, axis1=1, axis2=2)
            sol = _solve_nonsingular(sub + ridge[:, None, None] * np.eye(p), e1[ridged])
            sol[~np.isfinite(sol).all(axis=1)] = np.nan
            out[ridged] = sol
    # a batched solve may contain garbage for ill-conditioned rows on some
    # BLAS builds; validate the unridged rows via the residual of e1
    resid = np.abs(np.einsum("mij,mj->mi", a, out) - e1).max(axis=1)
    shaky = np.flatnonzero(~ridged & (~np.isfinite(resid) | (resid > 1e-6)))
    for i in shaky:
        out[i] = _solve_e1_single(a[i])
    return out


def _solve_nonsingular(a, b):
    """``np.linalg.solve`` of each system of a stack in one batch, with NaN
    rows for the exactly singular ones (a zero pivot in the LU factor)."""
    out = np.full(b.shape, np.nan)
    with np.errstate(invalid="ignore"):  # NaN entries: sign NaN, solved as regular
        regular = np.linalg.slogdet(a)[0] != 0.0
    if regular.any():
        out[regular] = np.linalg.solve(a[regular], b[regular][..., None])[..., 0]
    return out


def _solve_e1_single(a):
    p = a.shape[0]
    e1 = np.zeros(p)
    e1[0] = 1.0
    for attempt in range(2):
        mat = a if attempt == 0 else a + _LOCAL_RIDGE * np.trace(a) * np.eye(p)
        try:
            sol = np.linalg.solve(mat, e1)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            return sol
    return np.full(p, np.nan)


def local_linear_weights(
    sample: SpatialSample,
    x,
    bandwidth: BandwidthMatrix,
    kernel: str = "triweight",
) -> np.ndarray:
    """Weight vector s_x mapping observations to the fitted value at x.

    The weights reproduce affine functions: they sum to one and are
    orthogonal to the centered coordinates.
    """
    return _local_fit(sample, bandwidth, kernel, points=x).hat_matrix()[0]


def smoother_matrix(
    sample: SpatialSample,
    bandwidth: BandwidthMatrix,
    kernel: str = "triweight",
) -> SmootherMatrix:
    """Hat matrix with row i equal to the weight vector at sample site i."""
    rows = _local_fit(sample, bandwidth, kernel).hat_matrix()
    return SmootherMatrix(S=rows, bandwidth=bandwidth, kernel=kernel)


def apply_smoother(smoother: SmootherMatrix, sample: SpatialSample) -> TrendFit:
    """Build a TrendFit from a precomputed smoother (fixed-design reuse)."""
    fitted = smoother.S @ sample.values
    return TrendFit(
        sample=sample,
        smoother=smoother,
        fitted=fitted,
        residuals=sample.values - fitted,
    )


def fit_trend(
    sample: SpatialSample,
    bandwidth: BandwidthMatrix,
    kernel: str = "triweight",
) -> TrendFit:
    """Fit the trend at the sample sites and return fitted values/residuals."""
    return apply_smoother(smoother_matrix(sample, bandwidth, kernel), sample)


def prediction_weights(
    fit: TrendFit,
    targets,
    on_singular: str = "raise",
):
    """Weight rows mapping observations to trend predictions at targets.

    Returns (rows, bad_indices); with on_singular "mask" failed targets get
    zero rows and are listed instead of raising.
    """
    points = targets.nodes() if isinstance(targets, RegularGrid) else targets
    local = _local_fit(
        fit.sample,
        fit.smoother.bandwidth,
        fit.smoother.kernel,
        points=points,
        on_singular=on_singular,
    )
    return local.hat_matrix(out=local.weights), local.bad.tolist()


def predict_trend(fit: TrendFit, targets) -> np.ndarray:
    """Trend estimate at target points, using the bandwidth of the fit."""
    rows, _ = prediction_weights(fit, targets)
    return rows @ fit.sample.values


# ---------------------------------------------------------------------------
# The local linear engine: kernel weights, local designs and rows
# ---------------------------------------------------------------------------


_BLOCK_ENTRIES = 2**15
_FLAT_AXIS_TOL = 1024 * np.finfo(np.float64).eps


def _row_blocks(m: int, n: int):
    """Row slices of an (m, n) matrix holding about 2^15 entries each, so
    that the elementwise temporaries of one block stay in cache."""
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, m, step):
        yield slice(start, start + step)


def _kernel_weights(
    points, locations, bandwidth: BandwidthMatrix, kernel: str, min_neighbors: int = 0,
    first_axis=None,
):
    """Kernel matrix W_ij = K(H^-1 (x_j - p_i)) between points p and sites x.

    The 1/det(H) normalization is a per-row constant that cancels in the
    local linear weights, so it is omitted. W is filled one row block at a
    time, and the first block with a point that has fewer than
    ``min_neighbors`` positive weights raises BandwidthTooSmallError. For a
    diagonal H the univariate factors are multiplied per block;
    ``first_axis`` may pass in the first axis's factor, which depends on
    h_1 alone.
    """
    m, d = points.shape
    n = locations.shape[0]
    k1 = PRODUCT_KERNELS[kernel]
    scales = bandwidth.diagonal_scales()

    def factor(axis, sl):
        return k1((locations[None, :, axis] - points[sl, None, axis]) / scales[axis])

    w = np.empty((m, n))
    for sl in _row_blocks(m, n):
        if bandwidth.is_diagonal:
            block = factor(0, sl) if first_axis is None else first_axis[sl]
            for axis in range(1, d):
                block = block * factor(axis, sl)
        else:
            u = (locations[None, :, :] - points[sl, None, :]) @ bandwidth.inverse
            block = k1(u[..., 0])
            for axis in range(1, d):
                block = block * k1(u[..., axis])
        counts = np.count_nonzero(block, axis=1)
        starved = np.flatnonzero(counts < min_neighbors)
        if starved.size:
            raise _singular_design_error(starved + sl.start, counts[starved].min(), min_neighbors)
        w[sl] = block
    return w


@dataclass(frozen=True, eq=False)
class _LocalFit:
    """The local linear smoother at m evaluation points, without its rows.

    Row i is W_ij / sum_j W_ij * (c_i0 + c_i . (z_j - p_i)), with W the
    kernel matrix between the points and the n sample sites, z the sites'
    centred coordinates mapped by H^-1, p the points in that frame and c_i
    the solution of point i's unit-sum local design; the points listed in
    ``bad`` have c_i = 0, so zero rows. At the sites (p = z) the criteria
    use the hat matrix only through its products with a few vectors, which
    come from the moments W @ [v, z v]. ``SmootherMatrix`` offers the same
    methods on an explicit hat matrix.
    """

    weights: np.ndarray
    sums: np.ndarray
    coef: np.ndarray
    z: np.ndarray
    p: np.ndarray
    bad: np.ndarray

    @property
    def n(self) -> int:
        return self.sums.shape[0]

    def _apply(self, moments) -> np.ndarray:
        # sum_j W_ij (c_i0 + c_i . (z_j - p_i)) v_j / sum_j W_ij from the
        # moments [sum_j W_ij v_j, sum_j W_ij z_j v_j]
        c = self.coef
        out = c[:, 0] * moments[:, 0]
        for k in range(self.z.shape[1]):
            out += c[:, k + 1] * (moments[:, k + 1] - self.p[:, k] * moments[:, 0])
        return out / self.sums

    def smooth(self, v) -> np.ndarray:
        """S v, the smoother applied to data v."""
        v = np.asarray(v, dtype=np.float64)
        return self._apply(self.weights @ np.column_stack([v, self.z * v[:, None]]))

    def hat_diagonal(self) -> np.ndarray:
        """diag S, at the sites."""
        return self.coef[:, 0] * np.diagonal(self.weights) / self.sums

    @property
    def trace(self) -> float:
        return float(self.hat_diagonal().sum())

    def trace_with(self, r) -> float:
        """tr(S R) at the sites, from the moments of W o R^T."""
        basis = np.column_stack([np.ones(self.n), self.z])
        moments = np.empty_like(basis)
        for sl in _row_blocks(self.n, self.n):
            moments[sl] = (self.weights[sl] * r[:, sl].T) @ basis
        return float(self._apply(moments).sum())

    def hat_matrix(self, out=None) -> np.ndarray:
        """The rows, written into ``out`` if given. ``out`` may be
        ``weights``: each row block is read before it is overwritten."""
        m, n = self.weights.shape
        rows = np.empty((m, n)) if out is None else out
        c = self.coef
        for sl in _row_blocks(m, n):
            lin = np.repeat(c[sl, :1], n, axis=1)
            for k in range(self.z.shape[1]):
                lin += c[sl, k + 1 : k + 2] * (self.z[None, :, k] - self.p[sl, None, k])
            rows[sl] = self.weights[sl] / self.sums[sl, None] * lin
        return rows


def _local_fit(
    sample: SpatialSample,
    bandwidth: BandwidthMatrix,
    kernel: str = "triweight",
    min_neighbors: int | None = None,
    first_axis=None,
    points=None,
    on_singular: str = "raise",
) -> _LocalFit:
    """Local linear fit at ``points``, by default at the sample sites.

    Each point's unit-sum design of (1, z_j - p_i) comes, at the sites,
    from the moments W @ [1, z, z z^T] about the centred coordinates, one
    n x 6 product; at other points it is summed directly over the point's
    window, block by block, which stays accurate where a point lies outside
    its window's hull.

    A point is bad when it has fewer than ``min_neighbors`` positive
    weights, when its window has no spread on an axis but the point lies off
    that line, or when its design stays singular. With on_singular "raise" a
    bad point raises BandwidthTooSmallError (at the sites, the first row
    block with a starved site raises before any design is built); with
    "mask" the bad points get zero rows and are listed in ``bad``.
    """
    if on_singular not in ("raise", "mask"):
        raise ConfigError(f"unknown on_singular {on_singular!r}; expected 'raise' or 'mask'")
    locs = sample.locations
    n, d = locs.shape
    if min_neighbors is None:
        min_neighbors = d + 1
    centre = locs.mean(axis=0)

    def frame(x):
        if bandwidth.is_diagonal:
            return (x - centre) / bandwidth.diagonal_scales()
        return (x - centre) @ bandwidth.inverse

    z = frame(locs)
    if points is None:
        weights = _kernel_weights(locs, locs, bandwidth, kernel, min_neighbors, first_axis)
        p, starved = z, np.zeros(n, dtype=bool)
        pairs = [(k, j) for k in range(d) for j in range(k, d)]
        basis = np.column_stack([np.ones(n), z] + [z[:, k] * z[:, j] for k, j in pairs])
        moments = weights @ basis
        sums = moments[:, 0]
        mean = moments[:, 1:] / sums[:, None]
        # each second moment of (1, z_j - z_i) is the weighted covariance
        # plus the product of the shifts, so z_i^2 never cancels against
        # the raw moment
        shift = mean[:, :d] - z
        a = np.empty((n, d + 1, d + 1))
        a[:, 0, 1:] = a[:, 1:, 0] = shift
        for col, (k, j) in enumerate(pairs, start=d):
            a[:, k + 1, j + 1] = a[:, j + 1, k + 1] = (
                mean[:, col] - mean[:, k] * mean[:, j]
            ) + shift[:, k] * shift[:, j]
    else:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        weights = _kernel_weights(points, locs, bandwidth, kernel)
        p = frame(points)
        m = len(p)
        sums = weights.sum(axis=1)
        sums[sums == 0.0] = 1.0
        counts = np.empty(m, dtype=np.int64)
        a = np.empty((m, d + 1, d + 1))
        for sl in _row_blocks(m, n):
            counts[sl] = np.count_nonzero(weights[sl], axis=1)
            wn = weights[sl] / sums[sl, None]
            dz = [z[None, :, k] - p[sl, None, k] for k in range(d)]
            for k in range(d):
                wdz = wn * dz[k]
                a[sl, 0, k + 1] = a[sl, k + 1, 0] = wdz.sum(axis=1)
                for j in range(k, d):
                    a[sl, k + 1, j + 1] = a[sl, j + 1, k + 1] = (wdz * dz[j]).sum(axis=1)
        starved = counts < min_neighbors
        a[starved] = np.eye(d + 1)
        shift = a[:, 0, 1:].copy()
        mean = p + shift
    a[:, 0, 0] = 1.0

    # a window with no spread on an axis (a regular design with h below the
    # spacing) has a weighted variance at rounding level there (observed
    # <= 2e-15 of the raw moment, genuine values >= 1e-5 of it). A point on
    # that line takes the ridged solve with that axis cleared, so c_k = 0;
    # a point off the line has no affine fit
    offline = np.zeros(len(p), dtype=bool)
    for k in range(d):
        second = a[:, k + 1, k + 1]
        bound = _FLAT_AXIS_TOL * (second + mean[:, k] ** 2)
        flat = second - shift[:, k] ** 2 <= bound
        offline |= flat & (shift[:, k] ** 2 > bound)
        a[flat, k + 1, :] = 0.0
        a[flat, :, k + 1] = 0.0
    coef = _solve_e1(a)
    bad = np.flatnonzero(starved | offline | np.isnan(coef[:, 0]))
    if bad.size:
        if on_singular == "raise":
            counts = np.count_nonzero(weights[bad], axis=1)
            raise _singular_design_error(bad, counts.min(), min_neighbors)
        coef[bad] = 0.0
    return _LocalFit(weights=weights, sums=sums, coef=coef, z=z, p=p, bad=bad)


# ---------------------------------------------------------------------------
# Bandwidth selection criteria
# ---------------------------------------------------------------------------


def _smoother(sample: SpatialSample, bandwidth, kernel: str):
    """What a criterion scores: a hat matrix or local fit as given, or the
    local fit at a bandwidth."""
    if isinstance(bandwidth, BandwidthMatrix):
        return _local_fit(sample, bandwidth, kernel)
    return bandwidth


def cv_score(sample: SpatialSample, bandwidth, kernel: str = "triweight") -> float:
    """Leave-one-out CV via the hat-diagonal shortcut (exact for linear
    smoothers)."""
    s = _smoother(sample, bandwidth, kernel)
    resid = sample.values - s.smooth(sample.values)
    denom = 1.0 - s.hat_diagonal()
    if np.any(denom <= 1e-12):
        raise BandwidthTooSmallError(
            "hat diagonal reaches one; bandwidth too small for leave-one-out"
        )
    return float(np.mean((resid / denom) ** 2))


def gcv_score(sample: SpatialSample, bandwidth, kernel: str = "triweight") -> float:
    """Generalized cross-validation score."""
    s = _smoother(sample, bandwidth, kernel)
    resid = sample.values - s.smooth(sample.values)
    denom = 1.0 - s.trace / s.n
    if denom <= 1e-12:
        raise BandwidthTooSmallError("tr(S)/n reaches one; bandwidth too small")
    return float(np.mean((resid / denom) ** 2))


def cgcv_score(
    sample: SpatialSample,
    bandwidth,
    correlation: np.ndarray,
    kernel: str = "triweight",
) -> float:
    """Dependence-corrected GCV: the denominator uses tr(S R)/n so that
    positively correlated errors no longer reward undersmoothing."""
    s = _smoother(sample, bandwidth, kernel)
    r = np.asarray(correlation, dtype=np.float64)
    denom = 1.0 - s.trace_with(r) / s.n
    if denom <= 1e-12:
        raise BandwidthTooSmallError(
            "tr(S R)/n reaches one; bandwidth too small for the given dependence"
        )
    resid = sample.values - s.smooth(sample.values)
    return float(np.mean((resid / denom) ** 2))


def mase_score(
    sample: SpatialSample,
    bandwidth,
    true_mean: np.ndarray,
    covariance: np.ndarray,
    kernel: str = "triweight",
) -> float:
    """Mean average squared error of the smoother against a known truth:
    squared-bias term plus tr(S Sigma S^T)/n. Simulation oracle only."""
    s = _smoother(sample, bandwidth, kernel)
    m = np.asarray(true_mean, dtype=np.float64)
    sigma = np.asarray(covariance, dtype=np.float64)
    bias = s.smooth(m) - m
    rows = s.hat_matrix()
    var_term = float(np.einsum("ij,ij->", rows @ sigma, rows))
    return float(bias @ bias + var_term) / s.n


# ---------------------------------------------------------------------------
# Bandwidth search
# ---------------------------------------------------------------------------


def median_nn_spacing(locations) -> float:
    locs = np.asarray(locations, dtype=np.float64)
    n = locs.shape[0]
    if n < 2:
        raise ConfigError("need at least two sites for a bandwidth grid")
    sq = np.sum(locs**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * locs @ locs.T
    np.fill_diagonal(d2, np.inf)
    return float(np.median(np.sqrt(np.maximum(d2.min(axis=1), 0.0))))


def default_bandwidth_grid(sample: SpatialSample, per_axis: int = 10):
    """Log-spaced diagonal bandwidth grid from half the median nearest
    neighbor spacing up to the full data range per axis."""
    delta = median_nn_spacing(sample.locations)
    lo = 0.5 * delta
    grids = []
    for axis in range(sample.d):
        span = float(np.ptp(sample.locations[:, axis]))
        hi = max(span, 2.0 * lo)
        grids.append(np.geomspace(lo, hi, per_axis))
    axes = np.meshgrid(*grids, indexing="ij")
    combos = np.stack([a.ravel() for a in axes], axis=-1)
    return [BandwidthMatrix.diagonal(*row) for row in combos]


_CRITERIA = ("cv", "gcv", "cgcv", "mase")


def select_bandwidth(
    sample: SpatialSample,
    criterion: str,
    search_grid=None,
    *,
    correlation=None,
    true_mean=None,
    covariance=None,
    kernel: str = "triweight",
):
    """Exhaustive criterion minimization over a diagonal bandwidth grid.

    Inadmissible grid points (fewer than 3(d+1) kernel neighbors somewhere,
    or a degenerate criterion denominator) are skipped. Ties go to the
    larger determinant, i.e. the smoother fit. Raises if nothing on the
    grid is admissible, reporting the smallest admissible scale found by
    doubling the largest candidate.

    Each candidate is scored from its local fit (kernel moments), never from
    a hat matrix. Consecutive diagonal candidates with the same first scale,
    as in the default grid, share that axis's kernel factor.
    """
    if criterion not in _CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}; expected one of {_CRITERIA}")
    if criterion == "cgcv" and correlation is None:
        raise ConfigError("cgcv requires a correlation matrix")
    if criterion == "mase" and (true_mean is None or covariance is None):
        raise ConfigError("mase requires true_mean and covariance")
    if search_grid is None:
        search_grid = default_bandwidth_grid(sample)
    search_grid = list(search_grid)
    if not search_grid:
        raise ConfigError("empty bandwidth search grid")

    def score(fit):
        if criterion == "cv":
            return cv_score(sample, fit)
        if criterion == "gcv":
            return gcv_score(sample, fit)
        if criterion == "cgcv":
            return cgcv_score(sample, fit, correlation)
        return mase_score(sample, fit, true_mean, covariance)

    min_neighbors = _MIN_NEIGHBORS_FACTOR * (sample.d + 1)
    first_scale, first_axis = None, None
    best = None
    for h in search_grid:
        if h.is_diagonal and h.entries[0, 0] != first_scale:
            first_axis = None  # release the old factor before building the next
            first_scale = h.entries[0, 0]
            x1 = sample.locations[:, :1]
            first_axis = _kernel_weights(x1, x1, BandwidthMatrix.diagonal(first_scale), kernel)
        value = _candidate_score(
            sample, h, score, kernel, min_neighbors, first_axis if h.is_diagonal else None
        )
        if value is None:
            continue
        if best is None:
            best = (value, h)
            continue
        tol = 1e-12 * max(1.0, abs(value), abs(best[0]))
        if value < best[0] - tol:
            best = (value, h)
        elif abs(value - best[0]) <= tol and h.det > best[1].det:
            best = (value, h)
    if best is not None:
        return best[1]

    # nothing admissible: probe upward from the largest candidate and report
    probe = max(search_grid, key=lambda h: h.det)
    scales = probe.diagonal_scales() if probe.is_diagonal else np.diag(probe.entries)
    for _ in range(40):
        scales = scales * 2.0
        h = BandwidthMatrix.diagonal(*scales)
        if _candidate_score(sample, h, score, kernel, min_neighbors) is not None:
            raise BandwidthTooSmallError(
                "no admissible bandwidth on the search grid; smallest admissible "
                f"diagonal found by doubling is {scales.tolist()}"
            )
    raise BandwidthTooSmallError(
        "no admissible bandwidth on the search grid and doubling the largest "
        "candidate 40 times did not help"
    )


def _candidate_score(sample, h, score, kernel, min_neighbors, first_axis=None):
    """The criterion at one candidate, or None when it is inadmissible."""
    try:
        return score(_local_fit(sample, h, kernel, min_neighbors, first_axis))
    except BandwidthTooSmallError:
        return None
