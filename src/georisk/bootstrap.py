"""Semiparametric bootstrap for unconditional exceedance-probability maps.

The pipeline alternates trend and variogram estimation (independence CV for
the initial bandwidth, dependence-corrected GCV afterwards) and factorizes
both the residual-scale and the bias-corrected covariance estimates.

The bootstrap whitens the residuals with the residual-scale factor and
resamples them with replacement. A replicate recorrelates its resample e*
with a covariance factor L (Sigma = L L^T), adds it to the fitted trend f,
re-smooths the result with the same bandwidth and adds simple kriging of
its own residuals. Every step is linear in e*, so a replicate's map values
are ``offset + gain @ e*`` with

    W = T + C0 Sigma^-1 (I - S),    offset = W f,    gain = W L,

where T holds the smoother rows at the map nodes, C0 the covariances from
the nodes to the sites and S the hat matrix. ``build_engine`` forms this
operator once per covariance mode, so a block of replicates costs one
matrix product. Exceedance probabilities are replicate frequencies per map
node.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DegenerateScoreError, GeoriskError
from .geometry import (
    BandwidthMatrix,
    RegularGrid,
    SpatialSample,
    cross_distances,
    pairwise_distances,
)
from .kriging import KrigingSystem
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
    GAUSSIAN_DIM,
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
# Pipeline configuration and fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    kernel: str = "triweight"
    bandwidth_per_axis: int = 10
    max_outer: int = 2
    h_tol: float = 0.01
    n_lags: int = 25
    lag_candidates: int = 10
    kernel_dim: float = GAUSSIAN_DIM
    n_nodes: int | None = None
    bias_max_iter: int = 5
    bias_tol: float = 1e-3
    min_pairs: int = 5


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
    """Everything the bootstrap needs: the fitted trend, both variogram
    models, their covariance factors, and a reusable kriging system built
    on the bias-corrected model."""

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
    kriging: KrigingSystem
    report: PipelineReport


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


def fit_pipeline(
    sample: SpatialSample,
    config: PipelineConfig | None = None,
    *,
    bandwidth: BandwidthMatrix | None = None,
) -> PipelineFit:
    """Alternating trend/variogram fit.

    Without an explicit ``bandwidth`` the first pass selects it by CV under
    an independence working assumption; each further pass re-selects it with
    the dependence-corrected GCV built from the current bias-corrected
    covariance estimate, stopping after ``max_outer`` passes or when the
    bandwidth moves by less than ``h_tol`` per axis. An explicit bandwidth
    pins the smoother and runs a single pass.
    """
    cfg = config or PipelineConfig()
    notes: list[str] = []
    with _stage("distances"):
        dists = pairwise_distances(sample)
        lag_grid = default_lag_grid(dists, cfg.n_lags)

    search_grid = None
    if bandwidth is None:
        search_grid = default_bandwidth_grid(sample, cfg.bandwidth_per_axis)
        with _stage("initial bandwidth (independence CV)"):
            h = select_bandwidth(sample, "cv", search_grid, kernel=cfg.kernel)
        max_outer = max(1, cfg.max_outer)
    else:
        h = bandwidth
        max_outer = 1

    h_history = [tuple(_h_scales(h))]
    h_converged = False
    outer = 0
    while True:
        outer += 1
        with _stage("trend"):
            trend = fit_trend(sample, h, cfg.kernel)
        with _stage("lag bandwidth"):
            g = _select_lag_bandwidth_with_fallback(
                trend.residuals, dists, lag_grid, cfg, notes
            )
        with _stage("variogram (uncorrected)"):
            pilot_unc = empirical_variogram(
                trend.residuals, dists, lag_grid, g, min_pairs=cfg.min_pairs
            )
            residual_model = fit_shapiro_botha(pilot_unc, cfg.kernel_dim, cfg.n_nodes)
        with _stage("variogram (bias-corrected)"):
            pilot_corr = bias_corrected_variogram(
                trend, dists, lag_grid, g,
                max_iter=cfg.bias_max_iter, tol=cfg.bias_tol, min_pairs=cfg.min_pairs,
            )
            corrected_model = fit_shapiro_botha(pilot_corr, cfg.kernel_dim, cfg.n_nodes)

        if outer >= max_outer:
            break
        if corrected_model.sill <= 1e-14 * max(1.0, float(np.var(sample.values))):
            notes.append("flat corrected variogram; dependence-aware reselection skipped")
            h_converged = True
            break
        with _stage("bandwidth refresh (CGCV)"):
            sigma = covariance_matrix(corrected_model, dists)
            corr = correlation_matrix(sigma)
            h_new = select_bandwidth(
                sample, "cgcv", search_grid, correlation=corr, kernel=cfg.kernel
            )
        h_history.append(tuple(_h_scales(h_new)))
        if _rel_change(h, h_new) < cfg.h_tol:
            h_converged = True
            break
        h = h_new

    with _stage("covariance factorization"):
        sigma_resid = covariance_matrix(residual_model, dists)
        residual_factor = cholesky(sigma_resid, ridge_policy="auto")
        sigma_corr = covariance_matrix(corrected_model, dists)
        corrected_factor = cholesky(sigma_corr, ridge_policy="auto")

    kriging = KrigingSystem(
        locations=sample.locations, factor=corrected_factor, model=corrected_model
    )
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
        kriging=kriging,
        report=report,
    )


def _select_lag_bandwidth_with_fallback(residuals, dists, lag_grid, cfg, notes):
    candidates = default_lag_bandwidths(dists, cfg.lag_candidates)
    try:
        return select_lag_bandwidth(
            residuals, dists, lag_grid, candidates, min_pairs=cfg.min_pairs
        )
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
    c0: np.ndarray,
    decorr_factor: CholeskyFactor,
    factor: CholeskyFactor,
) -> BootstrapEngine:
    """The bootstrap operator of one covariance mode.

    ``decorr_factor`` whitens the residuals. ``factor`` (Sigma = L L^T)
    recorrelates a resample e*, giving y* = f + L e* around the fitted
    trend f; y* is re-smoothed (target rows T, hat matrix S) and completed
    by simple kriging of its residuals with the same Sigma and the target
    covariances ``c0``. Each step is linear, so the map values are W y*
    with W = T + c0 Sigma^-1 (I - S): offset = W f and gain = W L.
    """
    s = trend_fit.smoother.S
    f = trend_fit.fitted
    L = factor.L
    offset = target_rows @ f + c0 @ solve_spd(factor, f - s @ f)
    gain = target_rows @ L
    gain += c0 @ solve_spd(factor, L - s @ L)
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
    kriges; ``target_dists`` are the target-to-site distances. The target
    covariances, the operator and the replicate values live only inside
    this call, so one mode's arrays are freed before the next mode's.
    """
    c0 = model.sill - model.semivariance(target_dists)
    engine = build_engine(trend_fit, target_rows, c0, decorr_factor, factor)
    del c0
    values = engine.replicate_values(idx)
    return np.array([(values >= c).mean(axis=0) for c in thresholds])


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


def _risk_maps(fit, model, factor, grid, thresholds, n_replicates, seed):
    """Maps under the covariance ``model``/``factor``; nodes whose local
    design is singular are masked."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    nodes = grid.nodes()
    rows, bad = prediction_weights(fit.trend_fit, nodes, on_singular="mask")
    mask = np.zeros(len(nodes), dtype=bool)
    mask[bad] = True
    keep = ~mask
    idx = resample_indices(fit.sample.n, n_replicates, seed)
    probs = exceedance_probabilities(
        fit.trend_fit, rows[keep], cross_distances(nodes[keep], fit.sample.locations),
        fit.residual_factor, model, factor, idx, thresholds,
    )
    maps = []
    for c, p in zip(thresholds, probs):
        full = np.full(len(nodes), np.nan)
        full[keep] = p
        maps.append(
            RiskMap(
                grid=grid,
                threshold=float(c),
                probabilities=full,
                n_replicates=n_replicates,
                seed=seed,
                n_masked=int(mask.sum()),
            )
        )
    return maps


def risk_maps(
    fit: PipelineFit,
    grid: RegularGrid,
    thresholds,
    n_replicates: int = 1000,
    seed: int = 0,
) -> list[RiskMap]:
    """Exceedance-probability maps for several thresholds from one shared
    set of replicates (probabilities are monotone across thresholds)."""
    return _risk_maps(
        fit, fit.corrected_model, fit.corrected_factor, grid, thresholds, n_replicates, seed
    )


def risk_map(
    fit: PipelineFit,
    grid: RegularGrid,
    threshold: float,
    n_replicates: int = 1000,
    seed: int = 0,
) -> RiskMap:
    """Single-threshold convenience wrapper around risk_maps."""
    return risk_maps(fit, grid, [threshold], n_replicates, seed)[0]


MODES = ("theoretical", "residual", "corrected")


def risk_map_mode(
    sample: SpatialSample,
    mode: str,
    grid: RegularGrid,
    thresholds,
    n_replicates: int = 1000,
    seed: int = 0,
    *,
    config: PipelineConfig | None = None,
    fit: PipelineFit | None = None,
    true_model=None,
    bandwidth: BandwidthMatrix | None = None,
) -> list[RiskMap]:
    """Bootstrap maps with the covariance role played by a chosen estimate.

    Decorrelation always whitens with the residual-scale factor; the modes
    differ in the covariance used to recorrelate and krige: the
    bias-corrected model ("corrected", the full pipeline), the raw
    residual-scale model ("residual"), or a known true model
    ("theoretical", only available when ``true_model`` and a bandwidth are
    supplied by a simulation harness).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "theoretical" and (true_model is None or bandwidth is None):
        raise ConfigError(
            "theoretical mode needs the simulation truth (true_model and bandwidth)"
        )
    if fit is None:
        fit = fit_pipeline(sample, config, bandwidth=bandwidth)
    if mode == "theoretical":
        sigma = covariance_matrix(true_model, pairwise_distances(fit.sample))
        model, factor = true_model, cholesky(sigma, ridge_policy="auto")
    elif mode == "residual":
        model, factor = fit.residual_model, fit.residual_factor
    else:
        model, factor = fit.corrected_model, fit.corrected_factor
    return _risk_maps(fit, model, factor, grid, thresholds, n_replicates, seed)
