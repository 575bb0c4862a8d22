"""Semiparametric bootstrap for unconditional exceedance-probability maps.

The pipeline alternates trend and variogram estimation (independence CV for
the initial bandwidth, dependence-corrected GCV afterwards) and factorizes
both the residual-scale and the bias-corrected covariance estimates. The
sites' distances, pair table and lag grid come from ``site_design``, which
the simulation's design contexts share.

The bootstrap whitens the residuals with the residual-scale factor and
resamples them with replacement. A replicate recorrelates its resample e*
with a covariance factor L (Sigma = L L^T), adds it to the fitted trend f,
re-smooths the result with the same bandwidth and adds simple kriging of
its own residuals. Every step is linear in e*, so a replicate's map values
are ``offset + gain @ e*`` with

    W = T + C0 Sigma^-1 (I - S),    offset = W f,    gain = W L,

where T holds the smoother rows at the map nodes, C0 the covariances from
the nodes to the sites and S the hat matrix. ``build_engine`` forms this
operator once per covariance mode: it solves Sigma^-1 (I - S) against f
and L once, then builds ``offset`` and ``gain`` per block of map nodes,
each block with its own rows of C0, so no full C0 is formed. Replicates
are evaluated per block of resampling rows, one matrix product each, and
exceedance probabilities are the integer exceedance counts over all
blocks divided by the number of replicates.

A covariance mode names the (model, factor) that recorrelates and kriges:
the bias-corrected estimate, the residual-scale estimate or, in a
simulation, the true covariance. ``mode_covariance`` resolves a mode and
``mode_probabilities`` evaluates several from one set of resampling rows
at the ``map_targets`` (smoother rows, mask and kept-node distances).
``risk_maps`` draws a fitted pipeline's maps under one of the two
estimates; the simulation study, which alone knows the true covariance,
calls ``mode_probabilities`` itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConfigError, DegenerateScoreError, GeoriskError
from .geometry import (
    BandwidthMatrix,
    RegularGrid,
    SpatialSample,
    cross_distances,
    pairwise_distances,
)
from .numerics import CholeskyFactor, cholesky, solve_lower, solve_spd
from .trend import (
    TrendFit,
    default_bandwidth_grid,
    fit_trend,
    prediction_weights,
    select_bandwidth,
)
from .variogram import (
    BiasCorrectionReport,
    EmpiricalVariogram,
    PairTable,
    VariogramModel,
    bias_corrected_variogram,
    correlation_matrix,
    covariance_matrix,
    default_lag_bandwidths,
    default_lag_grid,
    empirical_variogram,
    fit_shapiro_botha,
    select_lag_bandwidth,
)

STREAM_FIELD = 1
STREAM_BOOT = 2
STREAM_SYNTH = 3


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic, scheduling-independent generator for (seed, path)."""
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


# ---------------------------------------------------------------------------
# Pipeline fit
# ---------------------------------------------------------------------------


MAX_OUTER = 2  # trend/variogram passes: the CV pass and one CGCV refresh
H_TOL = 0.01  # relative per-axis bandwidth change that ends the passes early


@dataclass(frozen=True)
class PipelineReport:
    outer_iterations: int
    h_history: tuple
    h_converged: bool
    lag_bandwidth: float
    bias: BiasCorrectionReport | None
    notes: tuple = ()


@dataclass(frozen=True, eq=False)
class PipelineFit:
    """Everything the bootstrap needs: the fitted trend and both variogram
    models with their covariance factors."""

    sample: SpatialSample
    trend_fit: TrendFit
    bandwidth: BandwidthMatrix
    lag_grid: np.ndarray
    lag_bandwidth: float
    pilot_uncorrected: EmpiricalVariogram
    pilot_corrected: EmpiricalVariogram
    residual_model: VariogramModel
    corrected_model: VariogramModel
    residual_factor: CholeskyFactor
    corrected_factor: CholeskyFactor
    report: PipelineReport

    @property
    def estimates(self) -> tuple:
        """The (model, factor) pairs of the residual-scale and the
        bias-corrected covariance estimates, as ``mode_covariance`` takes
        them."""
        return (
            (self.residual_model, self.residual_factor),
            (self.corrected_model, self.corrected_factor),
        )


@contextmanager
def _stage(label: str):
    try:
        yield
    except GeoriskError as err:
        err.stage = label
        message = err.args[0] if err.args else ""
        err.args = (f"[{label}] {message}",) + err.args[1:]
        raise


def _h_scales(h: BandwidthMatrix) -> np.ndarray:
    return h.diagonal_scales() if h.is_diagonal else np.diag(h.entries)


def _rel_change(old: BandwidthMatrix, new: BandwidthMatrix) -> float:
    a = _h_scales(old)
    b = _h_scales(new)
    return float(np.max(np.abs(b - a) / np.maximum(np.abs(a), 1e-300)))


class SiteDesign(NamedTuple):
    """What the variogram stages need of the sample sites: their distance
    matrix, the pair table sorted by distance and the lag grid."""

    dists: np.ndarray
    pairs: PairTable
    lag_grid: np.ndarray


def site_design(locations) -> SiteDesign:
    """The site design of ``locations`` (a SpatialSample or an (n, d)
    coordinate array)."""
    dists = pairwise_distances(locations)
    return SiteDesign(dists, PairTable.from_distances(dists), default_lag_grid(dists))


def fit_pipeline(
    sample: SpatialSample,
    *,
    bandwidth: BandwidthMatrix | None = None,
) -> PipelineFit:
    """Alternating trend/variogram fit.

    Without an explicit ``bandwidth`` the first pass selects it by CV under
    an independence working assumption; each further pass re-selects it with
    the dependence-corrected GCV built from the current bias-corrected
    covariance estimate, stopping after ``MAX_OUTER`` passes or when the
    bandwidth moves by less than ``H_TOL`` per axis. An explicit bandwidth
    pins the smoother and runs a single pass.
    """
    notes: list[str] = []
    with _stage("distances"):
        dists, pairs, lag_grid = site_design(sample)

    search_grid = None
    if bandwidth is None:
        search_grid = default_bandwidth_grid(sample)
        with _stage("initial bandwidth (independence CV)"):
            h = select_bandwidth(sample, "cv", search_grid)
        max_outer = MAX_OUTER
    else:
        h = bandwidth
        max_outer = 1

    h_history = [tuple(_h_scales(h))]
    h_converged = False
    outer = 0
    while True:
        outer += 1
        with _stage("trend"):
            trend = fit_trend(sample, h)
        with _stage("lag bandwidth"):
            g = _select_lag_bandwidth_with_fallback(trend.residuals, pairs, lag_grid, notes)
        pilot_unc, residual_model, pilot_corr, corrected_model = _variogram_fit(
            trend, pairs, lag_grid, g
        )

        if outer >= max_outer:
            break
        if corrected_model.sill <= 1e-14 * max(1.0, float(np.var(sample.values))):
            notes.append("flat corrected variogram; dependence-aware reselection skipped")
            h_converged = True
            break
        with _stage("bandwidth refresh (CGCV)"):
            h_new = _cgcv_bandwidth(sample, corrected_model, dists, search_grid)
        h_history.append(tuple(_h_scales(h_new)))
        if _rel_change(h, h_new) < H_TOL:
            h_converged = True
            break
        h = h_new

    residual_factor, corrected_factor = _factorize((residual_model, corrected_model), dists)
    report = PipelineReport(
        outer_iterations=outer,
        h_history=tuple(h_history),
        h_converged=h_converged,
        lag_bandwidth=g,
        bias=pilot_corr.report,
        notes=tuple(notes),
    )
    return PipelineFit(
        sample=sample,
        trend_fit=trend,
        bandwidth=h,
        lag_grid=lag_grid,
        lag_bandwidth=g,
        pilot_uncorrected=pilot_unc,
        pilot_corrected=pilot_corr,
        residual_model=residual_model,
        corrected_model=corrected_model,
        residual_factor=residual_factor,
        corrected_factor=corrected_factor,
        report=report,
    )


def _cgcv_bandwidth(sample, model, dists, search_grid) -> BandwidthMatrix:
    """The bandwidth the dependence-corrected GCV selects under the
    correlation of ``model`` at the sites. The n x n covariance and
    correlation live only inside this call, so the next pass does not
    carry them."""
    corr = correlation_matrix(covariance_matrix(model, dists))
    return select_bandwidth(sample, "cgcv", search_grid, correlation=corr)


def _variogram_fit(trend: TrendFit, pairs: PairTable, lag_grid, g: float):
    """The uncorrected and bias-corrected pilot variograms of the trend's
    residuals at lag bandwidth ``g``, each with its Shapiro-Botha model:
    (pilot_uncorrected, residual_model, pilot_corrected, corrected_model)."""
    with _stage("variogram (uncorrected)"):
        pilot_unc = empirical_variogram(trend.residuals, pairs, lag_grid, g)
        residual_model = fit_shapiro_botha(pilot_unc)
    with _stage("variogram (bias-corrected)"):
        pilot_corr = bias_corrected_variogram(trend, pairs, lag_grid, g)
        corrected_model = fit_shapiro_botha(pilot_corr)
    return pilot_unc, residual_model, pilot_corr, corrected_model


def _factorize(models, dists: np.ndarray) -> tuple:
    """Covariance factors of the variogram ``models`` at the sites."""
    with _stage("covariance factorization"):
        return tuple(cholesky(covariance_matrix(model, dists)) for model in models)


def _select_lag_bandwidth_with_fallback(residuals, pairs, lag_grid, notes):
    candidates = default_lag_bandwidths(pairs.matrix)
    try:
        return select_lag_bandwidth(residuals, pairs, lag_grid, candidates)
    except DegenerateScoreError:
        # residuals carry no usable variation (e.g. noise-free affine data);
        # the widest candidate keeps every lag admissible
        g = float(np.max(candidates))
        notes.append(
            f"lag-bandwidth cross-validation degenerate; fell back to {g:.6g}"
        )
        return g


def decorrelate_residuals(residuals, factor: CholeskyFactor) -> np.ndarray:
    """Residuals whitened by a lower covariance factor, then centered."""
    e = solve_lower(factor, residuals)
    return e - e.mean()


# ---------------------------------------------------------------------------
# Bootstrap operator
# ---------------------------------------------------------------------------


_NODE_BLOCK = 256  # map nodes per block of the operator build
_REPLICATE_BLOCK = 500  # resampling rows per block of map values


@dataclass(frozen=True, eq=False)
class BootstrapEngine:
    """One map's bootstrap as an affine map of the resampled residuals.

    The replicate that draws resampling indices ``idx`` has the map values
    ``offset + e[idx] @ gain.T``, where ``e`` are the whitened residuals,
    ``offset`` (one value per target) is what the fitted trend itself maps
    to, and ``gain`` (targets x data sites) is what a unit residual maps to.
    """

    offset: np.ndarray
    gain: np.ndarray
    e: np.ndarray

    def replicate_values(self, idx: np.ndarray) -> np.ndarray:
        """(b, n_targets) map values for a block of resampling index rows."""
        values = self.e[idx] @ self.gain.T
        values += self.offset
        return values


def build_engine(
    trend_fit: TrendFit,
    target_rows: np.ndarray,
    target_dists: np.ndarray,
    model,
    decorr_factor: CholeskyFactor,
    factor: CholeskyFactor,
) -> BootstrapEngine:
    """The bootstrap operator of one covariance mode.

    ``decorr_factor`` whitens the residuals. ``model`` with its ``factor``
    (Sigma = L L^T) recorrelates a resample e*, giving y* = f + L e* around
    the fitted trend f; y* is re-smoothed (target rows T, hat matrix S) and
    completed by simple kriging of its residuals with the same Sigma and
    the covariances C0 of the model at the target-to-site distances
    ``target_dists``. Each step is linear, so the map values are W y* with
    W = T + C0 Sigma^-1 (I - S): offset = W f and gain = W L. The two
    solves run once; the rows of offset and gain are built per block of
    ``_NODE_BLOCK`` targets, each from that block's rows of C0.
    """
    s = trend_fit.smoother.S
    f = trend_fit.fitted
    L = factor.L
    x_off = solve_spd(factor, f - s @ f)
    x_gain = solve_spd(factor, L - s @ L)
    offset = np.empty(len(target_rows))
    gain = np.empty((len(target_rows), L.shape[1]))
    for lo in range(0, len(target_rows), _NODE_BLOCK):
        blk = slice(lo, lo + _NODE_BLOCK)
        c0 = covariance_matrix(model, target_dists[blk])
        offset[blk] = target_rows[blk] @ f + c0 @ x_off
        gain[blk] = target_rows[blk] @ L
        gain[blk] += c0 @ x_gain
    e = decorrelate_residuals(trend_fit.residuals, decorr_factor)
    return BootstrapEngine(offset=offset, gain=gain, e=e)


def resample_indices(n: int, n_replicates: int, seed: int, *path: int) -> np.ndarray:
    """(n_replicates, n) indices drawn with replacement; row j comes from
    its own stream (seed, STREAM_BOOT, *path, j)."""
    if n_replicates < 1:
        raise ConfigError("need at least one bootstrap replicate")
    idx = np.empty((n_replicates, n), dtype=np.intp)
    for j in range(n_replicates):
        idx[j] = rng_stream(seed, STREAM_BOOT, *path, j).integers(0, n, size=n)
    return idx


def exceedance_probabilities(
    trend_fit: TrendFit,
    target_rows: np.ndarray,
    target_dists: np.ndarray,
    decorr_factor: CholeskyFactor,
    model,
    factor: CholeskyFactor,
    idx: np.ndarray,
    thresholds,
) -> np.ndarray:
    """(len(thresholds), n_targets) replicate frequencies of values >= c.

    ``model`` with its ``factor`` is the covariance that recorrelates and
    kriges; ``target_dists`` are the target-to-site distances. The operator
    lives only inside this call, so one mode's arrays are freed before the
    next mode's. Replicates are evaluated ``_REPLICATE_BLOCK`` index rows
    at a time, and only their exceedance counts are kept.
    """
    engine = build_engine(trend_fit, target_rows, target_dists, model, decorr_factor, factor)
    counts = np.zeros((len(thresholds), len(target_rows)), dtype=np.intp)
    for lo in range(0, len(idx), _REPLICATE_BLOCK):
        values = engine.replicate_values(idx[lo:lo + _REPLICATE_BLOCK])
        for count, c in zip(counts, thresholds):
            count += np.count_nonzero(values >= c, axis=0)
        del values  # free this block before the next one is formed
    return counts / len(idx)


# ---------------------------------------------------------------------------
# Covariance modes
# ---------------------------------------------------------------------------


MODES = ("theoretical", "residual", "corrected")


def _check_mode(mode: str, truth_known: bool = True) -> None:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "theoretical" and not truth_known:
        raise ConfigError(
            "theoretical mode needs the true covariance, which only a simulation knows"
        )


def mode_covariance(mode: str, estimates, theoretical=None) -> tuple:
    """The (model, factor) that recorrelates and kriges in ``mode``.

    ``estimates`` holds the (model, factor) pairs of the residual-scale and
    the bias-corrected estimates (``PipelineFit.estimates``); "residual"
    and "corrected" pick them. "theoretical" picks ``theoretical``, the
    true covariance's pair, which only a simulation knows.
    """
    _check_mode(mode, theoretical is not None)
    residual, corrected = estimates
    return {"theoretical": theoretical, "residual": residual, "corrected": corrected}[mode]


def mode_probabilities(
    trend_fit: TrendFit, targets, idx, thresholds, modes, estimates, theoretical=None
) -> dict:
    """{mode: (len(thresholds), kept nodes) exceedance probabilities} at the
    map ``targets``, every mode from the same resampling rows ``idx``.

    Decorrelation always whitens with the residual-scale factor; the modes
    differ only in the covariance that recorrelates and kriges. Each mode's
    operator is freed before the next one is built.
    """
    decorr_factor = estimates[0][1]
    return {
        mode: exceedance_probabilities(
            trend_fit, targets.rows, targets.dists, decorr_factor,
            *mode_covariance(mode, estimates, theoretical), idx, thresholds,
        )
        for mode in modes
    }


# ---------------------------------------------------------------------------
# Risk maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RiskMap:
    """Per-node exceedance probabilities; masked nodes are NaN."""

    grid: RegularGrid
    threshold: float
    probabilities: np.ndarray
    n_replicates: int
    seed: int
    n_masked: int = 0


class MapTargets(NamedTuple):
    """The map nodes a trend can predict at: their smoother rows, the mask
    of the nodes whose local design is singular, and the kept nodes'
    distances to the sample sites."""

    rows: np.ndarray
    mask: np.ndarray
    dists: np.ndarray


def map_targets(trend_fit: TrendFit, nodes: np.ndarray) -> MapTargets:
    """The trend's map targets at ``nodes``."""
    rows, bad = prediction_weights(trend_fit, nodes, on_singular="mask")
    mask = np.zeros(len(nodes), dtype=bool)
    mask[bad] = True
    rows = rows[~mask]  # the full rows die here, before the distances exist
    return MapTargets(rows, mask, cross_distances(nodes[~mask], trend_fit.sample.locations))


def risk_maps(
    fit: PipelineFit,
    grid: RegularGrid,
    thresholds,
    n_replicates: int = 1000,
    seed: int = 0,
    mode: str = "corrected",
) -> list[RiskMap]:
    """Exceedance-probability maps for several thresholds from one shared
    set of replicates (probabilities are monotone across thresholds).

    ``mode`` names the covariance estimate that recorrelates and kriges:
    the bias-corrected one of the full pipeline ("corrected") or the raw
    residual-scale one ("residual"); see ``mode_covariance``. Nodes whose
    local design is singular are masked.
    """
    _check_mode(mode, truth_known=False)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    targets = map_targets(fit.trend_fit, grid.nodes())
    idx = resample_indices(fit.sample.n, n_replicates, seed)
    probs = mode_probabilities(
        fit.trend_fit, targets, idx, thresholds, (mode,), fit.estimates
    )[mode]
    maps = []
    for c, p in zip(thresholds, probs):
        full = np.full(len(targets.mask), np.nan)
        full[~targets.mask] = p
        maps.append(
            RiskMap(
                grid=grid,
                threshold=float(c),
                probabilities=full,
                n_replicates=n_replicates,
                seed=seed,
                n_masked=int(targets.mask.sum()),
            )
        )
    return maps
