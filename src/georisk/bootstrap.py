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

    W = T + C0 Sigma^-1 (I - S),    gain = W L,    offset = W f = gain L^-1 f,

where T holds the smoother rows at the map nodes, C0 the covariances from
the nodes to the sites and S the hat matrix. The map targets come in
blocks of map nodes, each with its kept nodes' smoother rows, the band of
columns those rows reach, its mask of nodes whose local design is singular
and its kept nodes' distances to the sites. ``build_engine`` is the one
place an operator is formed: unless the gain is held, it solves
Sigma^-1 (I - S) against L and builds the gain block by block, each block
with its own rows of T and C0, so neither full T nor full C0 need exist;
the offset is then the gain applied to L^-1 f. The gain does not depend on
the data, so where many replicates are drawn on one design ``mode_gain``
forms it once and the covariance entry holds it, and its operators read
no target block. Replicates are evaluated per block of resampling rows, one
matrix product each, and exceedance probabilities are the integer
exceedance counts over all blocks divided by the number of replicates.

A covariance mode names the covariance that recorrelates and kriges: the
bias-corrected estimate or the residual-scale estimate, each a (model,
factor) entry, or, in a simulation, the true covariance, a (model, factor)
entry or a (model, factor, gain) one when its design is shared.
``mode_covariance`` resolves a mode, and ``mode_probabilities``, the one
evaluator, scores one or several modes from one set of resampling rows and
one whitening of the residuals. ``risk_maps`` calls it for one of the two
estimates with a one-pass generator of target blocks, each block formed
inside the operator loop; the simulation study, which alone knows the true
covariance, holds its targets and calls it for several modes.

``prediction_map`` is the fit command's map: the trend plus simple kriging
of the trend residuals (``kriging.krige_block``), formed and kriged one
target block at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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
from .kriging import krige_block
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
    pairs = PairTable.from_distances(dists)
    return SiteDesign(dists, pairs, default_lag_grid(pairs.distances))


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
    candidates = default_lag_bandwidths(pairs.distances)
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
# Map targets
# ---------------------------------------------------------------------------


_NODE_BLOCK = 256  # map nodes per target block of the operator build
# A block's smoother rows are multiplied over their band of columns only
# where it spans at most this share of the sites. On a regular design in
# first-axis order (the 20 x 20 table1 grid) a band spans 100-199 of 400
# columns; with the sites of a data set in input order (the n = 1053 risk
# map) it spans 1040-1052 of 1053, where cutting it would save little and
# would move the bits of each product.
_BAND_SHARE = 0.75


class TargetBlock(NamedTuple):
    """One block of at most ``_NODE_BLOCK`` map nodes: the smoother rows of
    its kept nodes, its mask of the nodes whose local design is singular,
    its kept nodes' distances to the sample sites, and ``band``, the
    columns over which the rows are multiplied: from their first to their
    last nonzero where that spans at most ``_BAND_SHARE`` of the sites, and
    every column otherwise (the default)."""

    rows: np.ndarray
    mask: np.ndarray
    dists: np.ndarray
    band: slice = slice(None)


class MapTargets(NamedTuple):
    """The map nodes a trend can predict at, ``n_nodes`` in all, as one
    ``TargetBlock`` per ``_NODE_BLOCK`` nodes.

    ``map_targets`` forms every block and holds them, for callers that
    reuse them across modes or replicates. ``risk_maps`` passes a one-pass
    generator instead, so each block is formed when the operator loop
    reaches it and dropped before the next.
    """

    n_nodes: int
    blocks: Iterable[TargetBlock]

    @property
    def mask(self) -> np.ndarray:
        """The masked nodes, from held blocks."""
        return np.concatenate([block.mask for block in self.blocks])


def _target_block(trend_fit: TrendFit, nodes: np.ndarray) -> TargetBlock:
    rows, bad = prediction_weights(trend_fit, nodes)
    mask = np.zeros(len(nodes), dtype=bool)
    mask[bad] = True
    rows = rows[~mask]  # the full rows die here, before the distances exist
    reached = np.flatnonzero(rows.any(axis=0))
    band = slice(int(reached[0]), int(reached[-1]) + 1) if reached.size else slice(0, 0)
    if band.stop - band.start > _BAND_SHARE * rows.shape[1]:
        band = slice(None)
    return TargetBlock(
        rows, mask, cross_distances(nodes[~mask], trend_fit.sample.locations), band
    )


def _target_blocks(trend_fit: TrendFit, nodes: np.ndarray) -> Iterator[TargetBlock]:
    """The target blocks at ``nodes``, each formed when it is reached."""
    return (
        _target_block(trend_fit, nodes[lo:lo + _NODE_BLOCK])
        for lo in range(0, len(nodes), _NODE_BLOCK)
    )


def map_targets(trend_fit: TrendFit, nodes: np.ndarray) -> MapTargets:
    """The trend's map targets at ``nodes``, every block formed and held."""
    return MapTargets(len(nodes), tuple(_target_blocks(trend_fit, nodes)))


# ---------------------------------------------------------------------------
# Bootstrap operator
# ---------------------------------------------------------------------------

_REPLICATE_BLOCK = 500  # resampling rows per block of map values


@dataclass(frozen=True, eq=False)
class BootstrapEngine:
    """One map's bootstrap as an affine map of the resampled residuals.

    The replicate that draws resampling indices ``idx`` has the map values
    ``offset + e[idx] @ gain.T``, where ``e`` are the whitened residuals,
    ``offset`` (one value per kept node) is what the fitted trend itself
    maps to, and ``gain`` (kept nodes x data sites) is what a unit residual
    maps to. ``mask`` marks the map's nodes that have no row.
    """

    offset: np.ndarray
    gain: np.ndarray
    e: np.ndarray
    mask: np.ndarray

    def replicate_values(self, idx: np.ndarray) -> np.ndarray:
        """(b, kept nodes) map values for a block of resampling index rows."""
        values = self.e[idx] @ self.gain.T
        values += self.offset
        return values


def _operator_rows(smoother, targets: MapTargets, model, factor: CholeskyFactor):
    """The gain W L = T L + C0 Sigma^-1 (L - S L) at the map ``targets``,
    with the targets' mask of nodes that take no row.

    ``model`` with its ``factor`` (Sigma = L L^T) is the covariance that
    kriges, ``smoother`` the hat matrix S. One solve runs; the rows are
    built per target block, each from that block's rows of T (over their
    band) and C0, and written after the kept rows of the blocks before it.
    A block is dropped before the next one is taken.
    """
    L = factor.L
    solved = solve_spd(factor, L - smoother.S @ L)
    gain = np.empty((targets.n_nodes, factor.n))
    masks = []
    kept = 0
    for block in targets.blocks:
        rows = slice(kept, kept + len(block.rows))
        c0 = covariance_matrix(model, block.dists)
        gain[rows] = block.rows[:, block.band] @ L[block.band]
        gain[rows] += c0 @ solved
        masks.append(block.mask)
        kept = rows.stop
        del block, c0  # free this block before the next one is formed
    return gain[:kept], np.concatenate(masks)


def mode_gain(smoother, targets: MapTargets, model, factor: CholeskyFactor) -> np.ndarray:
    """The gain W L (kept nodes x sites) of the covariance ``model`` with
    its ``factor`` at the held map ``targets``, read-only.

    The gain depends on the sites, the smoother, the targets and the
    covariance, not on the data, so one gain serves every replicate drawn
    on one design; its rows for a target block are a contiguous view.
    """
    gain, _ = _operator_rows(smoother, targets, model, factor)
    gain.flags.writeable = False
    return gain


def build_engine(
    trend_fit: TrendFit, targets: MapTargets, covariance: tuple, e: np.ndarray
) -> BootstrapEngine:
    """The bootstrap operator of one covariance entry at the map
    ``targets``, resampling the whitened residuals ``e``.

    ``covariance`` is (model, factor) or (model, factor, gain). ``model``
    with its ``factor`` (Sigma = L L^T) recorrelates a resample e*, giving
    y* = f + L e* around the fitted trend f; y* is re-smoothed (target rows
    T, hat matrix S) and completed by simple kriging of its residuals with
    the same Sigma and the covariances C0 of the model at the
    target-to-site distances. Each step is linear, so the map values are
    W y* with W = T + C0 Sigma^-1 (I - S): gain = W L, and offset = W f =
    gain L^-1 f. An entry that holds its gain (``mode_gain``) reads only
    the targets' mask; otherwise the gain is formed in one pass over the
    target blocks (``_operator_rows``), so the blocks may come from a
    one-pass generator.
    """
    model, factor, *held = covariance
    if held:
        gain, mask = held[0], targets.mask
    else:
        gain, mask = _operator_rows(trend_fit.smoother, targets, model, factor)
    offset = gain @ solve_lower(factor, trend_fit.fitted)
    return BootstrapEngine(offset=offset, gain=gain, e=e, mask=mask)


def resample_indices(n: int, n_replicates: int, seed: int, *path: int) -> np.ndarray:
    """(n_replicates, n) indices drawn with replacement; row j comes from
    its own stream (seed, STREAM_BOOT, *path, j)."""
    if n_replicates < 1:
        raise ConfigError("need at least one bootstrap replicate")
    idx = np.empty((n_replicates, n), dtype=np.intp)
    for j in range(n_replicates):
        idx[j] = rng_stream(seed, STREAM_BOOT, *path, j).integers(0, n, size=n)
    return idx


def _probabilities(engine: BootstrapEngine, idx: np.ndarray, thresholds) -> np.ndarray:
    """(len(thresholds), n_nodes) frequencies of replicate values >= c
    under ``engine``, NaN at its masked nodes. Replicates are evaluated
    ``_REPLICATE_BLOCK`` index rows at a time, and only their exceedance
    counts are kept."""
    counts = np.zeros((len(thresholds), len(engine.offset)), dtype=np.intp)
    for lo in range(0, len(idx), _REPLICATE_BLOCK):
        values = engine.replicate_values(idx[lo:lo + _REPLICATE_BLOCK])
        for count, c in zip(counts, thresholds):
            count += np.count_nonzero(values >= c, axis=0)
        del values  # free this block before the next one is formed
    probs = np.full((len(thresholds), len(engine.mask)), np.nan)
    probs[:, ~engine.mask] = counts / len(idx)
    return probs


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
    """The covariance that recorrelates and kriges in ``mode``.

    ``estimates`` holds the (model, factor) pairs of the residual-scale and
    the bias-corrected estimates (``PipelineFit.estimates``); "residual"
    and "corrected" pick them. "theoretical" picks ``theoretical``, the
    true covariance, which only a simulation knows: (model, factor), or
    (model, factor, gain) with the gain ``mode_gain`` at the map targets
    where a design's replicates share it.
    """
    _check_mode(mode, theoretical is not None)
    residual, corrected = estimates
    return {"theoretical": theoretical, "residual": residual, "corrected": corrected}[mode]


def mode_probabilities(
    trend_fit: TrendFit, targets, idx, thresholds, modes, estimates, theoretical=None
) -> dict:
    """{mode: (len(thresholds), n_nodes) exceedance probabilities} at the
    map ``targets``, NaN at the masked nodes, every mode from the same
    resampling rows ``idx``.

    The residuals are whitened once, with the residual-scale factor, and
    every mode resamples them; the modes differ only in the covariance
    that recorrelates and kriges (``mode_covariance``), whose operator
    ``build_engine`` forms. Each mode's operator is freed before the next
    one is built. Several modes each read all target blocks, so
    ``targets`` must then hold them (``map_targets``); one mode reads them
    once, so its blocks may come from a one-pass generator.
    """
    e = decorrelate_residuals(trend_fit.residuals, estimates[0][1])
    return {
        mode: _probabilities(
            build_engine(trend_fit, targets, mode_covariance(mode, estimates, theoretical), e),
            idx, thresholds,
        )
        for mode in modes
    }


# ---------------------------------------------------------------------------
# Risk maps and the prediction map
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
    nodes = grid.nodes()
    # one mode reads the blocks once, so each is formed in the operator loop
    targets = MapTargets(len(nodes), _target_blocks(fit.trend_fit, nodes))
    idx = resample_indices(fit.sample.n, n_replicates, seed)
    probs = mode_probabilities(
        fit.trend_fit, targets, idx, thresholds, (mode,), fit.estimates
    )[mode]
    n_masked = int(np.isnan(probs[0]).sum())
    return [
        RiskMap(
            grid=grid,
            threshold=float(c),
            probabilities=p,
            n_replicates=n_replicates,
            seed=seed,
            n_masked=n_masked,
        )
        for c, p in zip(thresholds, probs)
    ]


def prediction_map(
    trend_fit: TrendFit, nodes: np.ndarray, model, factor: CholeskyFactor
) -> tuple:
    """The fitted trend and the kriging prediction at ``nodes``, NaN at the
    masked nodes.

    The prediction is the trend plus simple kriging of the trend residuals
    under ``model`` with its ``factor``. Sigma^-1 r is solved once; each
    target block is formed when the loop reaches it and kriged from its
    own distances (``krige_block``), so no array of all nodes' smoother
    rows, covariances or distances exists.
    """
    residuals = trend_fit.residuals
    alpha = solve_spd(factor, residuals)
    trend = np.full(len(nodes), np.nan)
    prediction = np.full(len(nodes), np.nan)
    lo = 0
    for block in _target_blocks(trend_fit, nodes):
        kept = lo + np.flatnonzero(~block.mask)
        trend[kept] = block.rows[:, block.band] @ trend_fit.sample.values[block.band]
        krig = krige_block(model, residuals, alpha, block.dists)[0]
        prediction[kept] = trend[kept] + krig
        lo += len(block.mask)
        del block  # free this block before the next one is formed
    return trend, prediction
