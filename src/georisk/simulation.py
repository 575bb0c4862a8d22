"""Monte Carlo harness: Gaussian field simulation and scenario evaluation.

Fields follow a fixed smooth trend plus zero-mean Gaussian errors with an
isotropic exponential covariogram, so every unconditional exceedance
probability has a closed form against which bootstrap maps are scored. The
runner replays a scenario N times, fits the bootstrap machinery per
replicate under one or more covariance choices (true matrix, raw residual
estimate, bias-corrected estimate), and aggregates squared-error summaries
of the estimated maps.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bootstrap import (
    STREAM_FIELD,
    MODES,
    PipelineConfig,
    exceedance_probabilities,
    fit_pipeline,
    resample_indices,
    rng_stream,
)
from .exceptions import ConfigError, GeoriskError
from .geometry import (
    BandwidthMatrix,
    RegularGrid,
    SpatialSample,
    cross_distances,
    make_regular_grid,
    pairwise_distances,
)
from .numerics import CholeskyFactor, cholesky, normal_cdf
from .trend import apply_smoother, prediction_weights, select_bandwidth, smoother_matrix
from .variogram import (
    bias_corrected_variogram,
    covariance_matrix,
    default_lag_grid,
    empirical_variogram,
    fit_shapiro_botha,
    select_lag_bandwidth,
)

FAILURE_GATE = 0.05  # a run with more than 5% failed replicates is invalid


def true_trend(x) -> np.ndarray:
    """Benchmark trend surface 2.5 + sin(2 pi x1) + 4 (x2 - 1/2)^2."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = 2.5 + np.sin(2.0 * np.pi * pts[:, 0]) + 4.0 * (pts[:, 1] - 0.5) ** 2
    return out if np.asarray(x).ndim > 1 else float(out[0])


def exp_variogram(u, nugget: float, partial_sill: float, practical_range: float):
    """Exponential semivariogram: zero at the origin, then
    nugget + partial_sill (1 - exp(-3 u / range))."""
    u = np.asarray(u, dtype=np.float64)
    gamma = nugget + partial_sill * (1.0 - np.exp(-3.0 * u / practical_range))
    out = np.where(u == 0.0, 0.0, gamma)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialVariogram:
    """True-model adapter with the same evaluation protocol as fitted
    variogram models (sill and semivariance)."""

    nugget: float
    partial_sill: float
    practical_range: float

    @property
    def sill(self) -> float:
        return self.nugget + self.partial_sill

    def semivariance(self, u):
        return exp_variogram(u, self.nugget, self.partial_sill, self.practical_range)


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration. ``design`` "regular" fixes the sample
    sites on a grid; "uniform" redraws them uniformly per replicate."""

    name: str = "custom"
    nx: int = 10
    ny: int = 10
    design: str = "regular"
    nugget: float = 0.04
    partial_sill: float = 0.12
    practical_range: float = 0.5
    thresholds: tuple = (2.5,)
    n_replicates: int = 100
    n_boot: int = 200
    seed: int = 20240
    grid_nx: int = 25
    grid_ny: int = 25
    scale: str = "desk"
    bandwidth_criterion: str = "mase"

    def __post_init__(self):
        if self.nugget < 0.0 or self.partial_sill <= 0.0 or self.practical_range <= 0.0:
            raise ConfigError(
                "scenario needs nugget >= 0, partial_sill > 0 and practical_range > 0"
            )
        if self.design not in ("regular", "uniform"):
            raise ConfigError("design must be 'regular' or 'uniform'")
        if self.bandwidth_criterion not in ("mase", "pipeline"):
            raise ConfigError("bandwidth_criterion must be 'mase' or 'pipeline'")
        if not self.thresholds:
            raise ConfigError("at least one threshold is required")
        if min(self.nx, self.ny, self.grid_nx, self.grid_ny) < 2:
            raise ConfigError("sample and prediction grids need at least 2 nodes per axis")
        if self.n_replicates < 1 or self.n_boot < 1:
            raise ConfigError("n_replicates and n_boot must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        object.__setattr__(self, "thresholds", tuple(float(c) for c in self.thresholds))

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def sigma2(self) -> float:
        return self.nugget + self.partial_sill

    @property
    def model(self) -> ExponentialVariogram:
        return ExponentialVariogram(self.nugget, self.partial_sill, self.practical_range)

    def prediction_grid(self) -> RegularGrid:
        return make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (self.grid_nx, self.grid_ny))


def _scale_params(scale: str):
    if scale == "desk":
        return dict(nx=10, ny=10, n_replicates=100, n_boot=200, grid_nx=25, grid_ny=25)
    if scale == "full":
        return dict(nx=20, ny=20, n_replicates=1000, n_boot=1000, grid_nx=50, grid_ny=50)
    raise ConfigError("scale must be 'desk' or 'full'")


def table1_scenario(scale: str = "desk", **overrides) -> Scenario:
    """Benchmark scenario: threshold 2.5, sill 0.16, range 0.5, nugget 25%."""
    params = _scale_params(scale)
    params.update(
        name=f"table1-{scale}",
        design="regular",
        nugget=0.04,
        partial_sill=0.12,
        practical_range=0.5,
        thresholds=(2.5,),
        scale=scale,
    )
    params.update(overrides)
    return Scenario(**params)


def table2_scenarios(scale: str = "desk", nugget_frac: float = 0.25, **overrides):
    """Dependence sweep: practical range 0.25/0.50/0.75 at a fixed nugget
    fraction of sill 0.16."""
    sigma2 = 0.16
    out = []
    for r in (0.25, 0.5, 0.75):
        params = _scale_params(scale)
        params.update(
            name=f"table2-{scale}-r{r:g}-nug{int(round(nugget_frac * 100))}",
            design="regular",
            nugget=nugget_frac * sigma2,
            partial_sill=(1.0 - nugget_frac) * sigma2,
            practical_range=r,
            thresholds=(2.5,),
            scale=scale,
        )
        params.update(overrides)
        out.append(Scenario(**params))
    return out


def table3_scenario(scale: str = "desk", **overrides) -> Scenario:
    """Benchmark scenario on uniformly random sample locations."""
    params = _scale_params(scale)
    params.update(
        name=f"table3-{scale}",
        design="uniform",
        nugget=0.04,
        partial_sill=0.12,
        practical_range=0.5,
        thresholds=(2.5,),
        scale=scale,
    )
    params.update(overrides)
    return Scenario(**params)


# ---------------------------------------------------------------------------
# Field simulation
# ---------------------------------------------------------------------------

_context_cache: dict = {}


def _regular_context(scenario: Scenario):
    """Location-dependent precompute shared by all replicates of a fixed
    design: true covariance factor, bandwidth, smoother, grid weights."""
    key = (
        scenario.nx, scenario.ny, scenario.nugget, scenario.partial_sill,
        scenario.practical_range, scenario.grid_nx, scenario.grid_ny,
        scenario.bandwidth_criterion, scenario.seed,
    )
    ctx = _context_cache.get(key)
    if ctx is not None:
        return ctx
    locs = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (scenario.nx, scenario.ny)).nodes()
    ctx = _DesignContext.build(scenario, locs)
    if len(_context_cache) > 8:
        _context_cache.clear()
    _context_cache[key] = ctx
    return ctx


@dataclass(frozen=True, eq=False)
class _DesignContext:
    locations: np.ndarray
    dists: np.ndarray
    m_true: np.ndarray
    sigma_true: np.ndarray
    factor_true: CholeskyFactor
    bandwidth: BandwidthMatrix | None
    smoother: object | None
    lag_grid: np.ndarray
    grid_rows: np.ndarray | None
    grid_mask: np.ndarray | None
    cross_d: np.ndarray | None

    @classmethod
    def build(cls, scenario: Scenario, locations, with_grid=True):
        dists = pairwise_distances(locations)
        m_true = true_trend(locations)
        model = scenario.model
        sigma_true = covariance_matrix(model, dists)
        factor_true = cholesky(sigma_true, ridge_policy="auto")
        lag_grid = default_lag_grid(dists)
        bandwidth = None
        smoother = None
        grid_rows = None
        grid_mask = None
        cross_d = None
        if scenario.bandwidth_criterion == "mase":
            template = SpatialSample(locations, m_true)
            bandwidth = select_bandwidth(
                template, "mase", true_mean=m_true, covariance=sigma_true
            )
            smoother = smoother_matrix(template, bandwidth)
            if with_grid:
                grid_nodes = scenario.prediction_grid().nodes()
                fit_stub = apply_smoother(smoother, template)
                rows, bad = prediction_weights(fit_stub, grid_nodes, on_singular="mask")
                grid_mask = np.zeros(len(grid_nodes), dtype=bool)
                grid_mask[bad] = True
                grid_rows = rows[~grid_mask]
                cross_d = cross_distances(grid_nodes[~grid_mask], locations)
        return cls(
            locations=locations,
            dists=dists,
            m_true=m_true,
            sigma_true=sigma_true,
            factor_true=factor_true,
            bandwidth=bandwidth,
            smoother=smoother,
            lag_grid=lag_grid,
            grid_rows=grid_rows,
            grid_mask=grid_mask,
            cross_d=cross_d,
        )


def simulate_field(scenario: Scenario, replicate_index: int) -> SpatialSample:
    """Draw one field replicate: trend plus correlated Gaussian errors from
    the replicate's own deterministic stream."""
    rng = rng_stream(scenario.seed, STREAM_FIELD, replicate_index)
    if scenario.design == "regular":
        ctx = _regular_context(scenario)
        eps = ctx.factor_true.L @ rng.standard_normal(scenario.n)
        return SpatialSample(ctx.locations, ctx.m_true + eps)
    locs = rng.uniform(size=(scenario.n, 2))
    dists = pairwise_distances(locs)
    sigma = covariance_matrix(scenario.model, dists)
    factor = cholesky(sigma, ridge_policy="auto")
    eps = factor.L @ rng.standard_normal(scenario.n)
    return SpatialSample(locs, true_trend(locs) + eps)


def true_risk(x0, threshold: float, scenario: Scenario):
    """Closed-form unconditional exceedance probability of the scenario."""
    if scenario.sigma2 <= 0.0:
        raise ConfigError("scenario variance must be positive")
    m = true_trend(x0)
    return normal_cdf((np.asarray(m) - threshold) / math.sqrt(scenario.sigma2))


def se_metrics(true_map, estimated_map) -> dict:
    """Mean, median and standard deviation of squared errors over the
    unmasked nodes of an estimated probability map."""
    t = np.asarray(true_map, dtype=np.float64).ravel()
    e = np.asarray(estimated_map, dtype=np.float64).ravel()
    if t.shape != e.shape:
        raise ConfigError("maps must share one grid")
    keep = ~np.isnan(e)
    if not keep.any():
        raise ConfigError("all map nodes are masked")
    se = (t[keep] - e[keep]) ** 2
    return {
        "mean": float(se.mean()),
        "median": float(np.median(se)),
        "sd": float(se.std()),
        "n": int(se.size),
    }


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateRecord:
    index: int
    failed: bool
    error: str = ""
    sill_uncorrected: float = math.nan
    sill_corrected: float = math.nan
    mean_se: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    modes: tuple
    rows: list
    replicates: list
    n_failures: int
    valid: bool

    def write_csv(self, path):
        fieldnames = [
            "scenario", "mode", "threshold", "n", "N", "B",
            "mean_se", "median_se", "sd_se", "failures",
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _fmt(row[k]) for k in fieldnames})

    def write_json(self, path):
        payload = {
            "scenario": asdict(self.scenario),
            "modes": list(self.modes),
            "seed": self.scenario.seed,
            "rows": self.rows,
            "failures": self.n_failures,
            "valid": self.valid,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return v


def run_scenario(
    scenario: Scenario,
    modes=MODES,
    threads: int = 1,
    pipeline_config: PipelineConfig | None = None,
) -> ScenarioResult:
    """Simulate, fit and score ``scenario.n_replicates`` field replicates.

    Per replicate and mode a full bootstrap map is computed for every
    threshold and scored against the closed-form truth; squared errors are
    pooled over replicates and nodes. Replicates whose pipeline fails are
    dropped and counted; a run with more than 5% failures is flagged
    invalid.
    """
    modes = tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}")

    grid_nodes = scenario.prediction_grid().nodes()
    truth_maps = {
        c: true_risk(grid_nodes, c, scenario) for c in scenario.thresholds
    }
    ctx = _regular_context(scenario) if scenario.design == "regular" else None
    shared_g = None
    if ctx is not None and scenario.bandwidth_criterion == "mase":
        # lag bandwidth tuned once on the first replicate's residuals
        sample0 = simulate_field(scenario, 0)
        resid0 = sample0.values - ctx.smoother.S @ sample0.values
        shared_g = select_lag_bandwidth(resid0, ctx.dists, ctx.lag_grid)

    records: list = [None] * scenario.n_replicates
    pools = {(m, c): [] for m in modes for c in scenario.thresholds}

    def one_replicate(r: int) -> ReplicateRecord:
        sample = simulate_field(scenario, r)
        return _evaluate_replicate(
            scenario, sample, r, modes, truth_maps, ctx, shared_g, pipeline_config
        )

    def guarded(r: int):
        try:
            records[r] = one_replicate(r)
        except (GeoriskError, np.linalg.LinAlgError) as err:
            records[r] = ReplicateRecord(index=r, failed=True, error=str(err))

    if threads <= 1:
        for r in range(scenario.n_replicates):
            guarded(r)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(guarded, range(scenario.n_replicates)))

    n_failures = sum(1 for rec in records if rec.failed)
    for rec in records:
        if rec.failed:
            continue
        for key, se_values in rec.mean_se.items():
            pools[key].append(se_values)

    rows = []
    for mode in modes:
        for c in scenario.thresholds:
            chunks = pools[(mode, c)]
            pooled = np.concatenate(chunks) if chunks else np.array([math.nan])
            rows.append(
                {
                    "scenario": scenario.name,
                    "mode": mode,
                    "threshold": float(c),
                    "n": scenario.n,
                    "N": scenario.n_replicates,
                    "B": scenario.n_boot,
                    "mean_se": float(np.mean(pooled)),
                    "median_se": float(np.median(pooled)),
                    "sd_se": float(np.std(pooled)),
                    "failures": n_failures,
                }
            )
    # replicate records keep their per-replicate mean only
    slim = []
    for rec in records:
        if rec.failed:
            slim.append(rec)
        else:
            slim.append(
                ReplicateRecord(
                    index=rec.index,
                    failed=False,
                    sill_uncorrected=rec.sill_uncorrected,
                    sill_corrected=rec.sill_corrected,
                    mean_se={k: float(np.mean(v)) for k, v in rec.mean_se.items()},
                )
            )
    valid = n_failures <= FAILURE_GATE * scenario.n_replicates
    return ScenarioResult(
        scenario=scenario,
        modes=modes,
        rows=rows,
        replicates=slim,
        n_failures=n_failures,
        valid=valid,
    )


def _evaluate_replicate(
    scenario, sample, r, modes, truth_maps, ctx, shared_g, pipeline_config
):
    grid_nodes = scenario.prediction_grid().nodes()
    model_true = scenario.model

    if scenario.bandwidth_criterion == "pipeline":
        fit = fit_pipeline(sample, pipeline_config)
        trend_fit = fit.trend_fit
        dists = pairwise_distances(sample)
        resid_model, corr_model = fit.residual_model, fit.corrected_model
        resid_factor, corr_factor = fit.residual_factor, fit.corrected_factor
        factor_true = (
            ctx.factor_true if ctx is not None
            else cholesky(covariance_matrix(model_true, dists), ridge_policy="auto")
        )
        rows, bad = prediction_weights(trend_fit, grid_nodes, on_singular="mask")
        mask = np.zeros(len(grid_nodes), dtype=bool)
        mask[bad] = True
        grid_rows = rows[~mask]
        cross_d = cross_distances(grid_nodes[~mask], sample.locations)
    elif ctx is not None:
        dists = ctx.dists
        factor_true = ctx.factor_true
        trend_fit = apply_smoother(ctx.smoother, sample)
        g = shared_g
        mask = ctx.grid_mask
        grid_rows = ctx.grid_rows
        cross_d = ctx.cross_d
        resid_model, corr_model, resid_factor, corr_factor = _fit_models(
            trend_fit, dists, ctx.lag_grid, g
        )
    else:
        # random design: every location-dependent piece is rebuilt
        dists = pairwise_distances(sample)
        sigma_true = covariance_matrix(model_true, dists)
        factor_true = cholesky(sigma_true, ridge_policy="auto")
        m_true_r = true_trend(sample.locations)
        bandwidth = select_bandwidth(
            sample, "mase", true_mean=m_true_r, covariance=sigma_true
        )
        trend_fit = apply_smoother(smoother_matrix(sample, bandwidth), sample)
        lag_grid = default_lag_grid(dists)
        g = select_lag_bandwidth(trend_fit.residuals, dists, lag_grid)
        rows, bad = prediction_weights(trend_fit, grid_nodes, on_singular="mask")
        mask = np.zeros(len(grid_nodes), dtype=bool)
        mask[bad] = True
        grid_rows = rows[~mask]
        cross_d = cross_distances(grid_nodes[~mask], sample.locations)
        resid_model, corr_model, resid_factor, corr_factor = _fit_models(
            trend_fit, dists, lag_grid, g
        )

    idx = resample_indices(sample.n, scenario.n_boot, scenario.seed, r)
    # decorrelation always whitens with the residual-scale factor; the modes
    # differ in the covariance used to recorrelate and krige
    covariances = {
        "theoretical": (model_true, factor_true),
        "residual": (resid_model, resid_factor),
        "corrected": (corr_model, corr_factor),
    }
    mean_se = {}
    for mode in modes:
        model, factor = covariances[mode]
        probs = exceedance_probabilities(
            trend_fit, grid_rows, cross_d, resid_factor, model, factor, idx,
            scenario.thresholds,
        )
        for c, p in zip(scenario.thresholds, probs):
            mean_se[(mode, c)] = (truth_maps[c][~mask] - p) ** 2

    return ReplicateRecord(
        index=r,
        failed=False,
        sill_uncorrected=resid_model.sill,
        sill_corrected=corr_model.sill,
        mean_se=mean_se,
    )


def _fit_models(trend_fit, dists, lag_grid, g):
    pilot_unc = empirical_variogram(trend_fit.residuals, dists, lag_grid, g)
    resid_model = fit_shapiro_botha(pilot_unc)
    pilot_corr = bias_corrected_variogram(trend_fit, dists, lag_grid, g)
    corr_model = fit_shapiro_botha(pilot_corr)
    resid_factor = cholesky(covariance_matrix(resid_model, dists), ridge_policy="auto")
    corr_factor = cholesky(covariance_matrix(corr_model, dists), ridge_policy="auto")
    return resid_model, corr_model, resid_factor, corr_factor
