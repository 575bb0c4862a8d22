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
has no affine fit: a site raises and a map point is masked, as are points
with too few neighbors or a singular design.

H is diagonal, one scale per axis, so the kernel is a product of
univariate triweights. The bandwidth search never forms S. Consecutive
candidates with the same h_1 are scored as one stack of kernel matrices W
at the sites, up to ``_STACK_ENTRIES`` entries (the ten candidates of one
h_1 of the default grid at n = 100, one candidate from n = 363 on): the
first axis's factor is built once per h_1, and the other axes' factors
once per search when the stacks share their scales. The neighbor counts
are read from the stack, and a candidate with a starved site is dropped
before any design is built; the others' moments W @ [1, z, z z^T] and 3x3
solves run as one batch (``_site_designs``, ``_local_coef``). Each
admissible candidate's ``_LocalFit`` is then a slice of the stack, scored
by the public criterion: the fitted values and diag S follow from
W @ [y, z y]. CV, GCV and CGCV need nothing else but tr(S R), which comes
from (W o R^T) @ [1, z]. Only the simulation's MASE oracle builds the
rows, for tr(S Sigma S^T). One candidate takes a few O(n^2) passes and one n x 6
matrix product (MASE adds an n^3 product), and the winner's S is built
once, by ``smoother_matrix``.

The search takes the sites in first-axis order. The compact kernel then
gives each row block of W one contiguous band of columns, those within h_1
of its rows (``_bands``), and W, its moments, the CGCV trace and the MASE
rows are formed over the bands only; a band that spans every column runs
as the dense code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import BandwidthTooSmallError, ConfigError
from .geometry import BandwidthMatrix, SpatialSample
from .numerics import _triweight_1d

_LOCAL_RIDGE = 1e-10
_MIN_NEIGHBORS_FACTOR = 3  # admissibility asks for 3 (d+1) kernel neighbors


@dataclass(frozen=True, eq=False)
class SmootherMatrix:
    """Hat matrix of the local linear smoother at the sample sites."""

    S: np.ndarray
    bandwidth: BandwidthMatrix

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.S))


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


def smoother_matrix(sample: SpatialSample, bandwidth: BandwidthMatrix) -> SmootherMatrix:
    """Hat matrix with row i equal to the weight vector at sample site i."""
    return SmootherMatrix(S=_local_fit(sample, bandwidth).hat_matrix(), bandwidth=bandwidth)


def apply_smoother(smoother: SmootherMatrix, sample: SpatialSample) -> TrendFit:
    """Build a TrendFit from a precomputed smoother (fixed-design reuse)."""
    fitted = smoother.S @ sample.values
    return TrendFit(
        sample=sample,
        smoother=smoother,
        fitted=fitted,
        residuals=sample.values - fitted,
    )


def fit_trend(sample: SpatialSample, bandwidth: BandwidthMatrix) -> TrendFit:
    """Fit the trend at the sample sites and return fitted values/residuals."""
    return apply_smoother(smoother_matrix(sample, bandwidth), sample)


def prediction_weights(fit: TrendFit, targets):
    """Weight rows mapping observations to trend predictions at target
    points. Returns (rows, bad_indices): targets without a local linear fit
    get zero rows and are listed instead of raising."""
    local = _local_fit(fit.sample, fit.smoother.bandwidth, points=targets)
    return local.hat_matrix(out=local.weights), local.bad.tolist()


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


def _bands(coords, bandwidth: BandwidthMatrix):
    """The column band of each row block of the kernel matrix at sites with
    first coordinates ``coords``: a tuple of (rows, cols) slices over
    ``_row_blocks(n, n)``, or None when every block reaches every column.

    With the sites in first-axis order, the positive weights of row i lie
    where |x_j - x_i| < h_1, one contiguous run of columns, so a block's
    band runs from its first row's run start to its last row's run end. A
    weight counted as positive has |fl(x_j - x_i) / h_1| < 1, hence
    |x_j - x_i| < h_1 (1 + 2 eps); the reach is widened further to cover
    the rounding of the band ends, so the band holds every positive
    weight, however small. Sites in another order get full rows.
    """
    n = coords.size
    if np.any(coords[1:] < coords[:-1]):
        return None
    h = bandwidth.entries[0, 0]
    reach = h + 16.0 * np.finfo(np.float64).eps * (h + max(abs(coords[0]), abs(coords[-1])))
    blocks = list(_row_blocks(n, n))
    first = np.array([sl.start for sl in blocks])
    last = np.minimum(first + (blocks[0].stop - blocks[0].start), n) - 1
    lo = np.searchsorted(coords, coords[first] - reach, side="left")
    hi = np.searchsorted(coords, coords[last] + reach, side="right")
    if lo.max() == 0 and hi.min() == n:
        return None
    return tuple((sl, slice(a, b)) for sl, a, b in zip(blocks, lo.tolist(), hi.tolist()))


def _blocks(m: int, n: int, bands):
    """The (rows, cols) slices an (m, n) kernel matrix is formed and read
    in: its ``bands``, or each row block of ``_row_blocks`` with every
    column."""
    if bands is not None:
        return bands
    return [(sl, slice(0, n)) for sl in _row_blocks(m, n)]


def _band_product(w, m, bands):
    """w @ m for kernel matrices w (..., n, n) that are zero outside
    ``bands``: one product per row block over its band, or the one dense
    product when ``bands`` is None. Entries of w outside the bands are not
    read."""
    if bands is None:
        return w @ m
    out = np.empty(w.shape[:-1] + m.shape[-1:])
    for rows, cols in bands:
        out[..., rows, :] = w[..., rows, cols] @ m[..., cols, :]
    return out


def _kernel_weights(points, locations, bandwidth: BandwidthMatrix, min_neighbors: int = 0):
    """Kernel matrix W_ij = K(H^-1 (x_j - p_i)) between points p and sites x,
    K the product triweight kernel.

    The 1/det(H) normalization is a per-row constant that cancels in the
    local linear weights, so it is omitted. W is filled one row block at a
    time, as the product of the axes' univariate factors, and the first
    block with a point that has fewer than ``min_neighbors`` positive
    weights raises BandwidthTooSmallError.
    """
    m, d = points.shape
    n = locations.shape[0]
    scales = bandwidth.diagonal_scales()

    def factor(axis, sl):
        return _triweight_1d((locations[None, :, axis] - points[sl, None, axis]) / scales[axis])

    w = np.empty((m, n))
    for sl in _row_blocks(m, n):
        block = factor(0, sl)
        for axis in range(1, d):
            block = block * factor(axis, sl)
        counts = np.count_nonzero(block, axis=1)
        starved = np.flatnonzero(counts < min_neighbors)
        if starved.size:
            raise _singular_design_error(starved + sl.start, counts[starved].min(), min_neighbors)
        w[sl] = block
    return w


def _axis_factors(coords, scales, bands=None) -> np.ndarray:
    """The univariate triweight factors K((c_j - c_i) / s) of one axis at
    the sites, one n x n matrix per scale s, filled one row block at a time
    over its band (entries outside ``bands`` are left unset)."""
    n = coords.size
    out = np.empty((len(scales), n, n))
    for k, s in enumerate(scales):
        for sl, cols in _blocks(n, n, bands):
            out[k, sl, cols] = _triweight_1d((coords[None, cols] - coords[sl, None]) / s)
    return out


@dataclass(frozen=True, eq=False)
class _LocalFit:
    """The local linear smoother at m evaluation points, without its rows.

    Row i is W_ij / sum_j W_ij * (c_i0 + c_i . (z_j - p_i)), with W the
    kernel matrix between the points and the n sample sites, z the sites'
    centred coordinates mapped by H^-1, p the points in that frame and c_i
    the solution of point i's unit-sum local design; the points listed in
    ``bad`` have c_i = 0, so zero rows. At the sites (p = z) the criteria
    use the hat matrix only through its products with a few vectors, which
    come from the moments W @ [v, z v].

    The search's fits carry the ``bands`` of W (``_bands``): every product
    then runs over each row block's band only, and the entries of W outside
    the bands are never read.
    """

    weights: np.ndarray
    sums: np.ndarray
    coef: np.ndarray
    z: np.ndarray
    p: np.ndarray
    bad: np.ndarray
    bands: tuple | None = None

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
        return self._apply(
            _band_product(self.weights, np.column_stack([v, self.z * v[:, None]]), self.bands)
        )

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
        for sl, cols in _blocks(self.n, self.n, self.bands):
            moments[sl] = (self.weights[sl, cols] * r[cols, sl].T) @ basis[cols]
        return float(self._apply(moments).sum())

    def variance_trace(self, sigma) -> float:
        """tr(S Sigma S^T) at the sites, over each row block's band."""
        rows = self.hat_matrix()
        if self.bands is None:
            return float(np.einsum("ij,ij->", rows @ sigma, rows))
        return float(sum(
            np.einsum("ij,ij->", rows[sl, cols] @ sigma[cols, cols], rows[sl, cols])
            for sl, cols in self.bands
        ))

    def hat_matrix(self, out=None) -> np.ndarray:
        """The rows (zero outside the bands), written into ``out`` if given.
        ``out`` may be ``weights``: each row block is read before it is
        overwritten."""
        m, n = self.weights.shape
        if out is None:
            out = np.empty((m, n)) if self.bands is None else np.zeros((m, n))
        c = self.coef
        for sl, cols in _blocks(m, n, self.bands):
            lin = np.repeat(c[sl, :1], cols.stop - cols.start, axis=1)
            for k in range(self.z.shape[1]):
                lin += c[sl, k + 1 : k + 2] * (self.z[None, cols, k] - self.p[sl, None, k])
            out[sl, cols] = self.weights[sl, cols] / self.sums[sl, None] * lin
        return out


def _site_designs(weights, z, bands=None):
    """The unit-sum local designs of (1, z_j - z_i) at the sites, for a
    stack of kernel matrices W (k, n, n) with ``bands`` and frames z
    (k, n, d).

    The designs come from the moments W @ [1, z, z z^T], one n x 6 product
    per kernel matrix (per row block over its band). Returns (sums, a,
    shift, mean): the row sums of W, the designs (k, n, d+1, d+1), the
    weighted mean offsets of the window from each site and the normalized
    moments.
    """
    n, d = z.shape[1:]
    pairs = [(k, j) for k in range(d) for j in range(k, d)]
    basis = np.concatenate(
        [np.ones(z.shape[:2] + (1,)), z] + [z[..., k, None] * z[..., j, None] for k, j in pairs],
        axis=2,
    )
    moments = _band_product(weights, basis, bands)
    sums = moments[..., 0]
    mean = moments[..., 1:] / sums[..., None]
    # each second moment of (1, z_j - z_i) is the weighted covariance plus
    # the product of the shifts, so z_i^2 never cancels against the raw
    # moment
    shift = mean[..., :d] - z
    a = np.empty(z.shape[:2] + (d + 1, d + 1))
    a[..., 0, 1:] = a[..., 1:, 0] = shift
    for col, (k, j) in enumerate(pairs, start=d):
        a[..., k + 1, j + 1] = a[..., j + 1, k + 1] = (
            mean[..., col] - mean[..., k] * mean[..., j]
        ) + shift[..., k] * shift[..., j]
    a[..., 0, 0] = 1.0
    return sums, a, shift, mean


def _local_coef(a, shift, mean):
    """Solve the unit-sum designs a (m, d+1, d+1), given each window's shift
    and mean (m, >= d) in the H^-1 frame; returns (coef, offline).

    A window with no spread on an axis (a regular design with h below the
    spacing) has a weighted variance at rounding level there (observed
    <= 2e-15 of the raw moment, genuine values >= 1e-5 of it). A point on
    that line takes the ridged solve with that axis cleared, so c_k = 0; a
    point off the line has no affine fit and is flagged ``offline``. Rows
    whose design stays singular come back as NaN.
    """
    d = shift.shape[1]
    offline = np.zeros(len(a), dtype=bool)
    for k in range(d):
        second = a[:, k + 1, k + 1]
        bound = _FLAT_AXIS_TOL * (second + mean[:, k] ** 2)
        flat = second - shift[:, k] ** 2 <= bound
        offline |= flat & (shift[:, k] ** 2 > bound)
        a[flat, k + 1, :] = 0.0
        a[flat, :, k + 1] = 0.0
    return _solve_e1(a), offline


def _local_fit(
    sample: SpatialSample,
    bandwidth: BandwidthMatrix,
    min_neighbors: int | None = None,
    points=None,
) -> _LocalFit:
    """Local linear fit at ``points``, by default at the sample sites.

    Each point's unit-sum design of (1, z_j - p_i) comes, at the sites,
    from the moments W @ [1, z, z z^T] about the centred coordinates
    (``_site_designs``); at other points it is summed directly over the
    point's window, block by block, which stays accurate where a point lies
    outside its window's hull.

    A point is bad when it has fewer than ``min_neighbors`` positive
    weights, when its window has no spread on an axis but the point lies off
    that line, or when its design stays singular. At the sites a bad site
    raises BandwidthTooSmallError (the first row block with a starved site
    raises before any design is built); other points are masked: the bad
    points get zero rows and are listed in ``bad``.
    """
    locs = sample.locations
    n, d = locs.shape
    if min_neighbors is None:
        min_neighbors = d + 1
    centre = locs.mean(axis=0)
    z = (locs - centre) / bandwidth.diagonal_scales()  # the H^-1 frame
    if points is None:
        weights = _kernel_weights(locs, locs, bandwidth, min_neighbors)
        p, starved = z, np.zeros(n, dtype=bool)
        sums, a, shift, mean = (x[0] for x in _site_designs(weights[None], z[None]))
    else:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        weights = _kernel_weights(points, locs, bandwidth)
        p = (points - centre) / bandwidth.diagonal_scales()
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
        a[:, 0, 0] = 1.0
        shift = a[:, 0, 1:].copy()
        mean = p + shift
    coef, offline = _local_coef(a, shift, mean)
    bad = np.flatnonzero(starved | offline | np.isnan(coef[:, 0]))
    if bad.size:
        if points is None:
            counts = np.count_nonzero(weights[bad], axis=1)
            raise _singular_design_error(bad, counts.min(), min_neighbors)
        coef[bad] = 0.0
    return _LocalFit(weights=weights, sums=sums, coef=coef, z=z, p=p, bad=bad)


# ---------------------------------------------------------------------------
# Bandwidth selection criteria
# ---------------------------------------------------------------------------


def _smoother(sample: SpatialSample, bandwidth):
    """What a criterion scores: a local fit as given, or the local fit at
    a bandwidth."""
    if isinstance(bandwidth, BandwidthMatrix):
        return _local_fit(sample, bandwidth)
    return bandwidth


def cv_score(sample: SpatialSample, bandwidth) -> float:
    """Leave-one-out CV via the hat-diagonal shortcut (exact for linear
    smoothers)."""
    s = _smoother(sample, bandwidth)
    resid = sample.values - s.smooth(sample.values)
    denom = 1.0 - s.hat_diagonal()
    if np.any(denom <= 1e-12):
        raise BandwidthTooSmallError(
            "hat diagonal reaches one; bandwidth too small for leave-one-out"
        )
    return float(np.mean((resid / denom) ** 2))


def gcv_score(sample: SpatialSample, bandwidth) -> float:
    """Generalized cross-validation score."""
    s = _smoother(sample, bandwidth)
    resid = sample.values - s.smooth(sample.values)
    denom = 1.0 - s.trace / s.n
    if denom <= 1e-12:
        raise BandwidthTooSmallError("tr(S)/n reaches one; bandwidth too small")
    return float(np.mean((resid / denom) ** 2))


def cgcv_score(sample: SpatialSample, bandwidth, correlation: np.ndarray) -> float:
    """Dependence-corrected GCV: the denominator uses tr(S R)/n so that
    positively correlated errors no longer reward undersmoothing."""
    s = _smoother(sample, bandwidth)
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
) -> float:
    """Mean average squared error of the smoother against a known truth:
    squared-bias term plus tr(S Sigma S^T)/n. Simulation oracle only."""
    s = _smoother(sample, bandwidth)
    m = np.asarray(true_mean, dtype=np.float64)
    sigma = np.asarray(covariance, dtype=np.float64)
    bias = s.smooth(m) - m
    return float(bias @ bias + s.variance_trace(sigma)) / s.n


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
    return [BandwidthMatrix.diagonal(*row) for row in combos.tolist()]


_CRITERIA = ("cv", "gcv", "cgcv", "mase")


def select_bandwidth(
    sample: SpatialSample,
    criterion: str,
    search_grid=None,
    *,
    correlation=None,
    true_mean=None,
    covariance=None,
):
    """Exhaustive criterion minimization over a diagonal bandwidth grid.

    Inadmissible grid points (fewer than 3(d+1) kernel neighbors somewhere,
    or a degenerate criterion denominator) are skipped. Ties go to the
    larger determinant, i.e. the smoother fit. Raises if nothing on the
    grid is admissible, reporting the smallest admissible scale found by
    doubling the largest candidate.

    Each candidate is scored from its local fit (kernel moments), never from
    a hat matrix; consecutive candidates with the same first scale,
    as in the default grid, are scored as one stack (``_grid_scores``). The
    search takes the sites in first-axis order, and with them the
    correlation, true mean and covariance, which no criterion depends on:
    each row block of a kernel matrix then reaches one band of columns.
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
    order = np.argsort(sample.locations[:, 0], kind="stable")
    sample = sample.reordered(order)
    if correlation is not None:
        # the CGCV trace reads R^T by rows, so R is held as its transpose
        r = np.asarray(correlation, dtype=np.float64)
        correlation = np.ascontiguousarray(r.T[np.ix_(order, order)]).T
    if true_mean is not None:
        true_mean = np.asarray(true_mean, dtype=np.float64)[order]
    if covariance is not None:
        covariance = np.asarray(covariance, dtype=np.float64)[np.ix_(order, order)]

    def score(fit):
        if criterion == "cv":
            return cv_score(sample, fit)
        if criterion == "gcv":
            return gcv_score(sample, fit)
        if criterion == "cgcv":
            return cgcv_score(sample, fit, correlation)
        return mase_score(sample, fit, true_mean, covariance)

    min_neighbors = _MIN_NEIGHBORS_FACTOR * (sample.d + 1)
    best = None
    for h, value in zip(search_grid, _grid_scores(sample, search_grid, score, min_neighbors)):
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
    scales = probe.diagonal_scales()
    for _ in range(40):
        scales = scales * 2.0
        h = BandwidthMatrix.diagonal(*scales)
        if _grid_scores(sample, [h], score, min_neighbors)[0] is not None:
            raise BandwidthTooSmallError(
                "no admissible bandwidth on the search grid; smallest admissible "
                f"diagonal found by doubling is {scales.tolist()}"
            )
    raise BandwidthTooSmallError(
        "no admissible bandwidth on the search grid and doubling the largest "
        "candidate 40 times did not help"
    )


_STACK_ENTRIES = 4 * _BLOCK_ENTRIES  # kernel entries one stacked search pass holds


def _grid_scores(sample, grid, score, min_neighbors) -> list:
    """The criterion ``score`` at every candidate of ``grid``, in order, or
    None where the candidate is inadmissible.

    Consecutive candidates with the same h_1 form one stack of at
    most ``_STACK_ENTRIES`` kernel entries: 10 candidates of the default
    grid at n = 100, one from n = 363 on. The stack's W is the first axis's
    factor, built once per h_1, times the other axes' factors, each formed
    only over the ``_bands`` of h_1 (every column at n <= 181, where one
    row block holds every row). When stacks
    hold several candidates those factors are built whole and kept for the
    next stack with the same scales (every stack of the default grid at
    small n); a stack of one forms them per row block of W, so that a
    starved candidate stops early.
    """
    locs = sample.locations
    n, d = locs.shape
    per_stack = max(1, _STACK_ENTRIES // (n * n))
    values = []
    first, first_factor, bands = None, None, None
    trailing, factors = None, None
    i = 0
    while i < len(grid):
        j = i + 1
        if grid[i].entries[0, 0] != first:
            first_factor = None  # release the old factor before building the next
            first = grid[i].entries[0, 0]
            bands = _bands(locs[:, 0], grid[i])
            first_factor = _axis_factors(locs[:, 0], [first], bands)[0]
        while j < len(grid) and j - i < per_stack and grid[j].entries[0, 0] == first:
            j += 1
        scales = np.array([h.diagonal_scales() for h in grid[i:j]])
        if per_stack > 1 and (trailing is None or not np.array_equal(trailing, scales[:, 1:])):
            factors = None
            factors = [_axis_factors(locs[:, k], scales[:, k]) for k in range(1, d)]
            trailing = scales[:, 1:]
        w, fed = _stacked_weights(locs, first_factor, scales, factors, min_neighbors, bands)
        values += _stack_scores(sample, grid[i:j], w, fed, score, bands)
        w = None
        i = j
    return values


def _stacked_weights(locs, first_factor, scales, factors, min_neighbors, bands):
    """The stack's kernel matrices (k, n, n), the first axis's factor times
    the other axes' ``factors`` (formed per row block from ``scales`` when
    None), and which candidates have at least ``min_neighbors`` positive
    weights at every site. W is filled one row block at a time over its
    band, which holds every positive weight, and stops once every candidate
    has a starved site."""
    n, d = locs.shape
    w = np.empty((len(scales), n, n))
    fed = np.ones(len(scales), dtype=bool)
    for sl, cols in _blocks(n, n, bands):
        w[:, sl, cols] = first_factor[sl, cols]
        for k in range(1, d):
            if factors is None:
                u = (locs[None, cols, k] - locs[sl, None, k]) / scales[:, k, None, None]
                w[:, sl, cols] *= _triweight_1d(u)
            else:
                w[:, sl, cols] *= factors[k - 1][:, sl, cols]
        fed &= np.count_nonzero(w[:, sl, cols], axis=2).min(axis=1) >= min_neighbors
        if not fed.any():
            break
    return w, fed


def _stack_scores(sample, stack, weights, fed, score, bands) -> list:
    """The criterion at each bandwidth of ``stack``, whose kernel matrices
    at the sites are ``weights`` (k, n, n) with ``bands``, or None where it
    is inadmissible.

    Only the ``fed`` candidates (no starved site) are scored. Their designs
    are formed and solved in one batch (``_site_designs``, ``_local_coef``);
    a candidate with an off-line flat window or a singular design is
    dropped, and ``score`` is called once on each remaining candidate's
    local fit.
    """
    locs = sample.locations
    n, d = locs.shape
    values = [None] * len(stack)
    fed = np.flatnonzero(fed)
    if not fed.size:
        return values
    if fed.size < len(stack):
        weights = weights[fed]
    centred = locs - locs.mean(axis=0)
    z = np.stack([centred / stack[k].diagonal_scales() for k in fed])
    sums, a, shift, mean = _site_designs(weights, z, bands)
    coef, offline = _local_coef(
        a.reshape(-1, d + 1, d + 1), shift.reshape(-1, d), mean.reshape(-1, mean.shape[-1])
    )
    coef = coef.reshape(len(fed), n, d + 1)
    bad = (offline | np.isnan(coef[..., 0].ravel())).reshape(len(fed), n).any(axis=1)
    none_bad = np.empty(0, dtype=np.intp)
    for k in np.flatnonzero(~bad):
        fit = _LocalFit(
            weights=weights[k], sums=sums[k], coef=coef[k], z=z[k], p=z[k], bad=none_bad,
            bands=bands,
        )
        try:
            values[fed[k]] = score(fit)
        except BandwidthTooSmallError:
            pass
    return values
