"""Acceptance suite: one test per release criterion.

Each test prints a [PASS] line (visible with ``pytest -s`` or ``-rA``) after
its assertions hold at the stated tolerance. The full-scale study is gated
behind GEORISK_FULL_SCALE=1 because it runs for about seven minutes (420 s
with threads=2 on a 2-core host, one BLAS thread).
"""

import json
import math
import os

import numpy as np
import pytest

from _oracles import (
    bias_matrix_tripleloop,
    erf_series_decimal,
    j0_series_decimal,
    krige_targets,
    kriging_factor,
    sk_weights_dense,
    wls_affine_hat_row,
)
from georisk.bootstrap import mode_probabilities, resample_indices
from georisk.cli import main as cli_main
from georisk.geometry import (
    BandwidthMatrix,
    SpatialSample,
    cross_distances,
    make_regular_grid,
    pairwise_distances,
)
from georisk.io import write_synth_csv
from georisk.numerics import (
    _triweight_1d,
    bessel_j0,
    cholesky,
    nnls,
    normal_cdf,
)
from georisk.simulation import (
    _DesignContext,
    run_scenario,
    simulate_field,
    table1_scenario,
    table2_scenarios,
    true_risk,
)
from georisk.trend import (
    apply_smoother,
    cgcv_score,
    fit_trend,
    gcv_score,
    prediction_weights,
    smoother_matrix,
)
from georisk.variogram import (
    GAUSSIAN_DIM,
    VariogramModel,
    bias_matrix,
    covariance_matrix,
    empirical_variogram,
    fit_shapiro_botha,
    select_lag_bandwidth,
)

FULL_SCALE = os.environ.get("GEORISK_FULL_SCALE") == "1"


def report(criterion: int, message: str):
    print(f"[PASS] criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def desk_table1():
    """Shared desk-scale study: threshold 2.5, sill 0.16, range 0.5,
    nugget 0.04, regular 10x10 design, N=100, B=200, 25x25 grid."""
    return run_scenario(table1_scenario("desk"), threads=2)


# ---------------------------------------------------------------------------
# 1. Desk-scale study: mode ordering and corrected-mode error bracket
# ---------------------------------------------------------------------------


def test_criterion_01_table1_ordering_desk(desk_table1):
    res = desk_table1
    assert res.valid and res.n_failures == 0
    means = {row["mode"]: row["mean_se"] for row in res.rows}
    assert means["theoretical"] <= means["corrected"], (
        f"theoretical {means['theoretical']:.4f} > corrected {means['corrected']:.4f}"
    )
    assert means["corrected"] < means["residual"], (
        f"corrected {means['corrected']:.4f} >= residual {means['residual']:.4f}"
    )
    assert 1.0e-2 <= means["corrected"] <= 5.5e-2
    report(
        1,
        "mean SE theoretical {:.4f} <= corrected {:.4f} < residual {:.4f}; "
        "corrected within [0.010, 0.055]".format(
            means["theoretical"], means["corrected"], means["residual"]
        ),
    )


# ---------------------------------------------------------------------------
# 2. Full-scale point value (long run, opt-in)
# ---------------------------------------------------------------------------


@pytest.mark.full_scale
@pytest.mark.skipif(not FULL_SCALE, reason="set GEORISK_FULL_SCALE=1 for the long run")
def test_criterion_02_table1_full_scale():
    res = run_scenario(table1_scenario("full"), modes=("residual", "corrected"), threads=2)
    assert res.valid
    means = {row["mode"]: row["mean_se"] for row in res.rows}
    assert abs(means["corrected"] - 2.20e-2) <= 0.5e-2
    ratio = means["residual"] / means["corrected"]
    assert 1.4 <= ratio <= 2.2
    report(
        2,
        f"full scale corrected {means['corrected']:.4f}, ratio {ratio:.2f}, "
        f"{res.n_failures} failures",
    )


# ---------------------------------------------------------------------------
# 3. Dependence sweep: corrected error nondecreasing in the practical range
# ---------------------------------------------------------------------------


def test_criterion_03_table2_monotone_in_range():
    means = []
    for sc in table2_scenarios("desk", nugget_frac=0.25):
        res = run_scenario(sc, modes=("corrected",), threads=2)
        assert res.valid
        means.append(res.rows[0]["mean_se"])
    assert means[0] <= means[1] <= means[2], f"not monotone: {means}"
    report(3, "corrected mean SE over ranges 0.25/0.50/0.75: "
              + " <= ".join(f"{m:.4f}" for m in means))


# ---------------------------------------------------------------------------
# 4. Theoretical-mode risk accuracy against a pre-registered oracle gate
# ---------------------------------------------------------------------------

# Pre-registered Monte Carlo oracle: one replicate of the full-scale
# scenario (n=20x20, B=1000, 50x50 grid), theoretical mode, seed 555001,
# run once before freezing. The acceptance run uses the independent seed
# 555002 and is gated at oracle * 1.25.
ORACLE_SEED = 555001
ORACLE_MEAN_ABS_ERR = 0.0887548030
TEST_SEED = 555002
GATE = 1.25 * ORACLE_MEAN_ABS_ERR


def _theoretical_mean_abs_error(seed: int) -> float:
    sc = table1_scenario("full", seed=seed, n_replicates=1, n_boot=1000)
    ctx = _DesignContext.build(sc, simulate_field(sc, 0).locations)
    sample = simulate_field(sc, 0, ctx)
    trend_fit = apply_smoother(ctx.smoother, sample)
    g = select_lag_bandwidth(trend_fit.residuals, ctx.site.pairs, ctx.site.lag_grid)
    pilot = empirical_variogram(trend_fit.residuals, ctx.site.pairs, ctx.site.lag_grid, g)
    resid_model = fit_shapiro_botha(pilot)
    resid_factor = cholesky(covariance_matrix(resid_model, ctx.site.dists))
    idx = resample_indices(sample.n, sc.n_boot, sc.seed, 0)
    # the residual factor whitens; no corrected estimate is scored here
    (probs,) = mode_probabilities(
        trend_fit, ctx.targets, idx, [2.5], ("theoretical",),
        ((resid_model, resid_factor), None), (sc.model, ctx.factor_true),
    )["theoretical"]
    keep = ~ctx.targets.mask
    truth = true_risk(sc.prediction_grid().nodes(), 2.5, sc)[keep]
    return float(np.abs(probs[keep] - truth).mean())


def test_criterion_04_theoretical_mode_accuracy():
    err = _theoretical_mean_abs_error(TEST_SEED)
    assert err <= GATE, f"mean |err| {err:.5f} exceeds oracle gate {GATE:.5f}"
    # secondary bracket: the mean absolute error cannot exceed the RMSE
    # implied by the reference mean squared error of this mode (0.0190)
    assert err <= math.sqrt(1.90e-2)
    report(4, f"theoretical-mode mean |r_hat - r_true| {err:.5f} <= gate {GATE:.5f}")


# ---------------------------------------------------------------------------
# 5. Bias-correction direction of the fitted sill
# ---------------------------------------------------------------------------


def test_criterion_05_bias_correction_direction(desk_table1):
    recs = [r for r in desk_table1.replicates if not r.failed]
    assert len(recs) == 100
    u = np.array([r.sill_uncorrected for r in recs])
    c = np.array([r.sill_corrected for r in recs])
    frac = float(np.mean(c > u))
    assert frac >= 0.90
    true_sill = 0.16
    assert abs(c.mean() - true_sill) < abs(u.mean() - true_sill)
    report(
        5,
        f"corrected sill > uncorrected in {frac * 100:.0f}% of 100 replicates; "
        f"means {c.mean():.4f} vs {u.mean():.4f} (true 0.16)",
    )


# ---------------------------------------------------------------------------
# 6. Estimator oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(606)

    # smoother rows against brute-force weighted least squares
    worst_smoother = 0.0
    for _ in range(100):
        n = int(rng.integers(15, 51))
        locs = rng.uniform(size=(n, 2))
        sample = SpatialSample(locs, rng.normal(size=n))
        h = float(rng.uniform(0.5, 1.0))
        s = smoother_matrix(sample, BandwidthMatrix.diagonal(h, h)).S
        i = int(rng.integers(0, n))
        u = (locs - locs[i]) / h
        w = np.prod(_triweight_1d(u), axis=-1)
        oracle = wls_affine_hat_row(locs, locs[i], w)
        worst_smoother = max(worst_smoother, float(np.abs(s[i] - oracle).max()))
    assert worst_smoother < 1e-8

    # bias matrix against the naive triple loop
    s6 = rng.normal(size=(6, 6))
    sig6 = rng.normal(size=(6, 6))
    sig6 = sig6 @ sig6.T
    diff_bias = float(np.abs(bias_matrix(s6, sig6) - bias_matrix_tripleloop(s6, sig6)).max())
    assert diff_bias < 1e-12

    # simple kriging against a dense-inverse oracle
    worst_sk = 0.0
    for n in (8, 18, 30):
        locs = rng.uniform(size=(n, 2))
        resid = rng.normal(size=n)
        model = VariogramModel(
            nugget=0.02, node_freqs=[3.0], node_weights=[0.3], kernel_dim=GAUSSIAN_DIM
        )
        factor = kriging_factor(locs, model)
        targets = rng.uniform(size=(12, 2))
        pred = krige_targets(model, factor, locs, resid, targets)
        cov_dd = model.sill - model.semivariance(pairwise_distances(locs))
        c0 = covariance_matrix(model, cross_distances(targets, locs))
        oracle = np.array([sk_weights_dense(cov_dd, c0[t]) @ resid for t in range(12)])
        worst_sk = max(worst_sk, float(np.abs(pred - oracle).max()))
    assert worst_sk < 1e-8

    # nnls against the normal-equations solution on interior problems
    worst_nnls = 0.0
    checked = 0
    while checked < 20:
        a = rng.normal(size=(12, 4))
        b = a @ rng.uniform(0.5, 2.0, size=4) + 0.01 * rng.normal(size=12)
        x_ls = np.linalg.solve(a.T @ a, a.T @ b)
        if np.any(x_ls <= 0.0):
            continue
        checked += 1
        worst_nnls = max(worst_nnls, float(np.abs(nnls(a, b) - x_ls).max()))
    assert worst_nnls < 1e-8

    report(
        6,
        "oracle gaps: smoother {:.1e} (<1e-8), bias {:.1e} (<1e-12), "
        "kriging {:.1e} (<1e-8), nnls {:.1e} (<1e-8)".format(
            worst_smoother, diff_bias, worst_sk, worst_nnls
        ),
    )


# ---------------------------------------------------------------------------
# 7. Analytic identities
# ---------------------------------------------------------------------------


def test_criterion_07_analytic_identities():
    rng = np.random.default_rng(707)
    locs = rng.uniform(size=(40, 2))
    a, slope = 1.3, np.array([0.7, -1.1])
    affine = a + locs @ slope
    sample = SpatialSample(locs, affine)
    h = BandwidthMatrix.diagonal(0.6, 0.6)

    # affine reproduction at arbitrary points
    points = rng.uniform(0.15, 0.85, size=(10, 2))
    rows, bad = prediction_weights(fit_trend(sample, h), points)
    assert not bad
    assert np.abs(rows @ affine - (a + points @ slope)).max() < 1e-9

    # unit row sums of the smoother
    s = smoother_matrix(sample, h).S
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-10

    # dependence-corrected GCV collapses to GCV at identity correlation
    noisy = SpatialSample(locs, affine + rng.normal(size=40))
    g = gcv_score(noisy, h)
    c = cgcv_score(noisy, h, np.eye(40))
    assert abs(g - c) <= 1e-12 * max(1.0, g)

    # identity smoother turns the bias matrix into minus the covariance
    sig = rng.normal(size=(12, 12))
    sig = sig @ sig.T
    assert np.array_equal(bias_matrix(np.eye(12), sig), -sig)

    # zero-nugget simple kriging interpolates exactly
    model = VariogramModel(nugget=0.0, node_freqs=[2.0], node_weights=[0.4])
    pts = rng.uniform(size=(15, 2))
    resid = rng.normal(size=15)
    factor = kriging_factor(pts, model)
    assert np.abs(krige_targets(model, factor, pts, resid, pts) - resid).max() < 1e-8

    # residual-covariance identity behind the correction algebra
    s_rand = rng.normal(size=(9, 9))
    sig9 = rng.normal(size=(9, 9))
    sig9 = sig9 @ sig9.T
    lhs = (np.eye(9) - s_rand) @ sig9 @ (np.eye(9) - s_rand).T
    rhs = sig9 + bias_matrix(s_rand, sig9)
    assert np.abs(lhs - rhs).max() < 1e-10

    report(7, "affine reproduction, row sums, CGCV(I)=GCV, B(I)=-Sigma, "
              "exact interpolation, covariance identity all hold")


# ---------------------------------------------------------------------------
# 8. Special functions against series oracles
# ---------------------------------------------------------------------------


def test_criterion_08_special_functions():
    xs = np.logspace(-3, math.log10(160.0), 1000)
    j0_err = max(abs(bessel_j0(x) - j0_series_decimal(x)) for x in xs)
    assert j0_err < 1e-10

    zs = np.linspace(-7.5, 7.5, 251)
    phi_err = 0.0
    for z in zs:
        a = abs(z) / math.sqrt(2.0)
        upper = 0.5 + 0.5 * erf_series_decimal(a)
        oracle = upper if z >= 0 else 1.0 - upper
        phi_err = max(phi_err, abs(normal_cdf(z) - oracle))
    assert phi_err < 1e-12

    rng = np.random.default_rng(808)
    chol_err = 0.0
    for n in (3, 10, 25, 60):
        m = rng.normal(size=(n, n))
        a = m @ m.T + np.eye(n)
        f = cholesky(a)
        chol_err = max(
            chol_err, np.linalg.norm(f.L @ f.L.T - a) / np.linalg.norm(a)
        )
    assert chol_err < 1e-10
    report(
        8,
        f"J0 max err {j0_err:.2e} (<1e-10), Phi max err {phi_err:.2e} (<1e-12), "
        f"Cholesky rel err {chol_err:.2e} (<1e-10)",
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism across thread counts
# ---------------------------------------------------------------------------


def test_criterion_09_cli_determinism(tmp_path):
    data = tmp_path / "synthetic.csv"
    write_synth_csv(data, n=150, seed=21)

    def snapshot(out):
        return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}

    rm_out = tmp_path / "rm"
    rm_snaps = []
    for threads in (1, 3):
        code = cli_main([
            "riskmap", "--input", str(data), "--transform", "sqrt",
            "--out", str(rm_out), "--thresholds", "1.0,2.0",
            "--replicates", "80", "--grid", "12x12", "--seed", "13",
            "--threads", str(threads),
        ])
        assert code == 0
        rm_snaps.append(snapshot(rm_out))
    assert rm_snaps[0] == rm_snaps[1]

    sim_out = tmp_path / "sim"
    sim_snaps = []
    for threads in (1, 2):
        code = cli_main([
            "simulate", "--scenario", "table1", "--scale", "desk",
            "--N", "5", "--B", "30", "--out", str(sim_out), "--seed", "3",
            "--threads", str(threads),
        ])
        assert code == 0
        sim_snaps.append(snapshot(sim_out))
    assert sim_snaps[0] == sim_snaps[1]
    report(9, "riskmap and simulate outputs byte-identical across --threads 1/3 and 1/2")


# ---------------------------------------------------------------------------
# 10. Risk-map sanity and format-compatible end-to-end run
# ---------------------------------------------------------------------------


def test_criterion_10_risk_map_sanity(tmp_path):
    from georisk.bootstrap import fit_pipeline, risk_maps

    # sanity of the probability algebra on a simulated field
    sc = table1_scenario("desk", seed=10)
    sample = simulate_field(sc, 0)
    fit = fit_pipeline(sample)
    grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (9, 9))
    n_boot = 64
    maps = risk_maps(
        fit, grid, [-np.inf, 2.0, 2.5, 3.0, np.inf], n_replicates=n_boot, seed=4
    )
    stack = np.array([m.probabilities for m in maps])
    keep = ~np.isnan(stack[0])
    counts = stack[:, keep] * n_boot
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    assert np.all((stack[:, keep] >= 0.0) & (stack[:, keep] <= 1.0))
    assert np.all(np.diff(stack[:, keep], axis=0) <= 1e-12)
    assert np.all(stack[0, keep] == 1.0)  # threshold -inf
    assert np.all(stack[-1, keep] == 0.0)  # threshold +inf

    # format-compatible synthetic workflow end to end
    data = tmp_path / "synthetic.csv"
    write_synth_csv(data, n=200, seed=31)
    out = tmp_path / "run"
    code = cli_main([
        "riskmap", "--input", str(data), "--transform", "sqrt",
        "--out", str(out), "--thresholds", "1.0,2.0", "--replicates", "60",
        "--grid", "15x15", "--seed", "8", "--svg",
    ])
    assert code == 0
    expected = {
        "riskmap_c1.csv", "riskmap_c2.csv", "riskmap_c1.svg", "riskmap_c2.svg",
        "riskmap_report.json",
    }
    produced = {p.name for p in out.iterdir()}
    assert expected <= produced
    report_payload = json.loads((out / "riskmap_report.json").read_text())
    assert set(report_payload["files"]) == expected - {"riskmap_report.json"}
    report(10, "probability algebra sound; synthetic end-to-end run emitted "
               + ", ".join(sorted(expected)))
