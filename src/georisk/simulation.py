"""Monte Carlo harness: Gaussian field simulation and scenario evaluation.

Fields follow a fixed smooth trend plus zero-mean Gaussian errors with an
isotropic exponential covariogram, so every unconditional exceedance
probability has a closed form against which bootstrap maps are scored. The
runner replays a scenario N times, fits the bootstrap machinery per
replicate under one or more covariance choices (true matrix, raw residual
estimate, bias-corrected estimate), and aggregates squared-error summaries
of the estimated maps.

What depends only on the sites (their site design, the true covariance and
its factor and, under the MASE criterion, the oracle smoother and the map
targets, every target block formed once and held) lives in a design
context. ``run_scenario`` builds one for a regular-design study and one per
replicate from its drawn sites for the uniform design, and passes it
explicitly to ``simulate_field`` and to the replicate's evaluation; nothing
is cached between calls. Only the regular design's MASE context, which
every replicate shares, also holds the true covariance's bootstrap gain at
its targets; elsewhere a replicate forms that gain one target block at a
time with its offsets, as it does for the estimated covariances. Every
replicate then runs the pipeline's own variogram and factorization
stages, so a failure carries the label of the stage that failed, and
scores its modes through the pipeline's one evaluator
(``bootstrap.mode_probabilities``).
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import (
    STREAM_FIELD,
    MODES,
    MapTargets,
    SiteDesign,
    _check_mode,
    _factorize,
    _stage,
    _stream_key,
    _threshold_values,
    _variogram_fit,
    fit_pipeline,
    map_targets,
    mode_gain,
    mode_probabilities,
    resample_indices,
    rng_stream,
    site_design,
)
from .exceptions import ConfigError, GeoriskError
from .geometry import RegularGrid, SpatialSample, make_regular_grid
from .numerics import CholeskyFactor, cholesky, normal_cdf
from .trend import apply_smoother, select_bandwidth, smoother_matrix
from .variogram import covariance_matrix, select_lag_bandwidth

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

    def __post_init__(self):
        # written so that NaN, for which every comparison is false, fails
        if not (
            0.0 <= self.nugget < math.inf
            and 0.0 < self.partial_sill < math.inf
            and 0.0 < self.practical_range < math.inf
        ):
            raise ConfigError(
                "exponential model needs finite nugget >= 0, partial_sill > 0 and practical_range > 0"
            )

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
        _ = self.model  # ExponentialVariogram rejects a non-finite or out-of-range model
        if self.design not in ("regular", "uniform"):
            raise ConfigError("design must be 'regular' or 'uniform'")
        if self.bandwidth_criterion not in ("mase", "pipeline"):
            raise ConfigError("bandwidth_criterion must be 'mase' or 'pipeline'")
        if min(self.nx, self.ny, self.grid_nx, self.grid_ny) < 2:
            raise ConfigError("sample and prediction grids need at least 2 nodes per axis")
        if self.n_replicates < 1 or self.n_boot < 1:
            raise ConfigError("n_replicates and n_boot must be positive")
        _stream_key(self.seed, ())  # a nonnegative integer, not truncated
        object.__setattr__(self, "thresholds", _threshold_values(self.thresholds))

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
    """Benchmark scenario: threshold 2.5, sill 0.16, range 0.5, nugget 25%.
    ``overrides`` replace any field; the CLI's custom scenario replaces the
    name, design and model."""
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


def _draw_sites(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Sample sites: the fixed grid of the regular design, or the first draw
    from the replicate's field stream ``rng`` for the uniform design."""
    if scenario.design == "regular":
        return make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (scenario.nx, scenario.ny)).nodes()
    return rng.uniform(size=(scenario.n, 2))


@dataclass(frozen=True, eq=False)
class _DesignContext:
    """What the replicates drawn on one set of sites share.

    ``truth`` holds what a draw needs: the sites with their site design
    (distances, pair table and lag grid), the true trend and the true
    covariance with its factor. ``build`` adds, under the MASE criterion,
    the oracle smoother and the map targets it gives, whose blocks every
    mode of every replicate reuses. On the regular design, whose one
    context every replicate shares, it also forms the theoretical mode's
    read-only gain at the targets (``mode_gain``); a uniform-design
    context serves one replicate, so it holds no gain.
    """

    locations: np.ndarray
    site: SiteDesign
    m_true: np.ndarray
    sigma_true: np.ndarray
    factor_true: CholeskyFactor
    smoother: object | None = None
    targets: MapTargets | None = None
    gain: np.ndarray | None = None

    @classmethod
    def truth(cls, scenario: Scenario, locations: np.ndarray) -> _DesignContext:
        site = site_design(locations)
        sigma_true = covariance_matrix(scenario.model, site.dists)
        return cls(
            locations=locations,
            site=site,
            m_true=true_trend(locations),
            sigma_true=sigma_true,
            factor_true=cholesky(sigma_true),
        )

    @classmethod
    def build(cls, scenario: Scenario, locations: np.ndarray) -> _DesignContext:
        design = cls.truth(scenario, locations)
        if scenario.bandwidth_criterion != "mase":
            return design
        with _stage("design (MASE bandwidth)"):
            template = SpatialSample(locations, design.m_true)
            bandwidth = select_bandwidth(
                template, "mase", true_mean=design.m_true, covariance=design.sigma_true
            )
            smoother = smoother_matrix(template, bandwidth)
            oracle_fit = apply_smoother(smoother, template)
            targets = map_targets(oracle_fit, scenario.prediction_grid().nodes())
        gain = (
            mode_gain(oracle_fit, targets, scenario.model, design.factor_true)
            if scenario.design == "regular" else None
        )
        return dataclasses.replace(design, smoother=smoother, targets=targets, gain=gain)


def simulate_field(
    scenario: Scenario, replicate_index: int, design: _DesignContext | None = None
) -> SpatialSample:
    """Draw one field replicate: trend plus correlated Gaussian errors from
    the replicate's own deterministic stream.

    ``design`` is the replicate's design context, built on the same sites;
    without it only the truth the draw needs is computed. The draw is the
    same either way.
    """
    rng = rng_stream(scenario.seed, STREAM_FIELD, replicate_index)
    sites = _draw_sites(scenario, rng)
    if design is None:
        design = _DesignContext.truth(scenario, sites)
    eps = design.factor_true.L @ rng.standard_normal(scenario.n)
    return SpatialSample(design.locations, design.m_true + eps)


def true_risk(x0, threshold: float, scenario: Scenario):
    """Closed-form unconditional exceedance probability of the scenario."""
    if scenario.sigma2 <= 0.0:
        raise ConfigError("scenario variance must be positive")
    m = true_trend(x0)
    return normal_cdf((np.asarray(m) - threshold) / math.sqrt(scenario.sigma2))


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateRecord:
    index: int
    failed: bool
    error: str = ""
    stage: str = ""
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


def run_scenario(scenario: Scenario, modes=MODES, threads: int = 1) -> ScenarioResult:
    """Simulate, fit and score ``scenario.n_replicates`` field replicates.

    The regular design builds one design context for the study, the uniform
    design one per replicate from its drawn sites. Per replicate and mode a
    full bootstrap map is computed for every threshold and scored against
    the closed-form truth; squared errors are pooled over replicates and
    nodes. Replicates whose pipeline fails are dropped and counted with the
    stage that failed; a run with more than 5% failures is flagged invalid.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads!r}")
    modes = tuple(modes)
    for mode in modes:
        _check_mode(mode)

    grid_nodes = scenario.prediction_grid().nodes()
    truth_maps = {
        c: true_risk(grid_nodes, c, scenario) for c in scenario.thresholds
    }

    def design_of(r: int) -> _DesignContext:
        rng = rng_stream(scenario.seed, STREAM_FIELD, r)
        return _DesignContext.build(scenario, _draw_sites(scenario, rng))

    shared = design_of(0) if scenario.design == "regular" else None
    shared_g = None
    if shared is not None and scenario.bandwidth_criterion == "mase":
        # lag bandwidth tuned once on the first replicate's residuals
        sample0 = simulate_field(scenario, 0, shared)
        shared_g = _lag_bandwidth(apply_smoother(shared.smoother, sample0), shared)

    records: list = [None] * scenario.n_replicates
    pools = {(m, c): [] for m in modes for c in scenario.thresholds}

    def one_replicate(r: int) -> ReplicateRecord:
        design = shared if shared is not None else design_of(r)
        sample = simulate_field(scenario, r, design)
        return _evaluate_replicate(scenario, sample, r, modes, truth_maps, design, shared_g)

    def guarded(r: int):
        try:
            records[r] = one_replicate(r)
        except (GeoriskError, np.linalg.LinAlgError) as err:
            records[r] = ReplicateRecord(
                index=r, failed=True, error=str(err), stage=getattr(err, "stage", None) or ""
            )

    if threads == 1:
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
    slim = [
        rec if rec.failed
        else dataclasses.replace(
            rec, mean_se={k: float(np.mean(v)) for k, v in rec.mean_se.items()}
        )
        for rec in records
    ]
    valid = n_failures <= FAILURE_GATE * scenario.n_replicates
    return ScenarioResult(
        scenario=scenario,
        modes=modes,
        rows=rows,
        replicates=slim,
        n_failures=n_failures,
        valid=valid,
    )


def _lag_bandwidth(trend_fit, design: _DesignContext) -> float:
    with _stage("lag bandwidth"):
        return select_lag_bandwidth(trend_fit.residuals, design.site.pairs, design.site.lag_grid)


def _evaluate_replicate(scenario, sample, r, modes, truth_maps, design, g):
    """Score one replicate's maps in every mode. Under the MASE criterion
    the trend is the design's oracle smoother and ``g`` the study's lag
    bandwidth, or None to tune it on this replicate's residuals. Under the
    pipeline criterion the replicate's own fit gives the trend. The
    theoretical entry holds the design's gain if it has one."""
    if scenario.bandwidth_criterion == "pipeline":
        fit = fit_pipeline(sample)
        trend_fit, estimates = fit.trend_fit, fit.estimates
        targets = map_targets(trend_fit, scenario.prediction_grid().nodes())
    else:
        trend_fit = apply_smoother(design.smoother, sample)
        if g is None:
            g = _lag_bandwidth(trend_fit, design)
        _, resid_model, _, corr_model = _variogram_fit(
            trend_fit, design.site.pairs, design.site.lag_grid, g
        )
        models = (resid_model, corr_model)
        estimates = tuple(zip(models, _factorize(models, design.site.dists)))
        targets = design.targets
    theoretical = (scenario.model, design.factor_true)
    if design.gain is not None:
        theoretical += (design.gain,)

    idx = resample_indices(sample.n, scenario.n_boot, scenario.seed, r)
    probs = mode_probabilities(
        trend_fit, targets, idx, scenario.thresholds, modes, estimates, theoretical
    )
    keep = ~targets.mask
    mean_se = {
        (mode, c): (truth_maps[c][keep] - p[keep]) ** 2
        for mode in modes
        for c, p in zip(scenario.thresholds, probs[mode])
    }
    return ReplicateRecord(
        index=r, failed=False, mean_se=mean_se,
        sill_uncorrected=estimates[0][0].sill, sill_corrected=estimates[1][0].sill,
    )
