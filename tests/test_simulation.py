import dataclasses
import gc
import json
import math
import os
import sys
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import blocked_targets, scenario_rows_per_replicate_operators
import georisk.bootstrap as bootstrap
import georisk.simulation as sim
from georisk.bootstrap import (
    fit_pipeline,
    mode_probabilities,
    resample_indices,
    risk_maps,
)
from georisk.exceptions import BandwidthTooSmallError, ConfigError
from georisk.geometry import make_regular_grid, pairwise_distances
from georisk.numerics import cholesky
from georisk.trend import prediction_weights
from georisk.variogram import covariance_matrix
from georisk.io import write_json, write_table_csv
from georisk.simulation import (
    ExponentialVariogram,
    Scenario,
    _DesignContext,
    _evaluate_replicate,
    exp_variogram,
    run_scenario,
    simulate_field,
    table1_scenario,
    table2_scenarios,
    table3_scenario,
    true_risk,
    true_trend,
)


# ---------------------------------------------------------------------------
# truth functions
# ---------------------------------------------------------------------------


def test_true_trend_values():
    assert true_trend((0.5, 0.5)) == pytest.approx(2.5, abs=1e-15)
    assert true_trend((0.25, 0.5)) == pytest.approx(3.5, abs=1e-15)
    assert true_trend((0.0, 0.0)) == pytest.approx(3.5, abs=1e-15)


def test_exp_variogram_practical_range():
    c0, c1, r = 0.04, 0.12, 0.5
    assert exp_variogram(r, c0, c1, r) == pytest.approx(c0 + c1 * (1 - math.exp(-3)))
    assert exp_variogram(0.0, c0, c1, r) == 0.0
    assert exp_variogram(1e9, c0, c1, r) == pytest.approx(c0 + c1)


def test_exponential_model_protocol():
    m = ExponentialVariogram(0.04, 0.12, 0.5)
    assert m.sill == pytest.approx(0.16)
    u = np.linspace(0, 2, 50)
    assert_allclose(m.semivariance(u), exp_variogram(u, 0.04, 0.12, 0.5), atol=0)


def test_true_risk_examples():
    sc = table1_scenario("desk")
    x0 = np.array([[0.5, 0.5]])
    assert true_risk(x0, 2.5, sc)[0] == pytest.approx(0.5, abs=1e-12)
    # m = 2.5, c = 2.0, sigma = 0.4 -> Phi(1.25)
    assert true_risk(x0, 2.0, sc)[0] == pytest.approx(0.8943502263, abs=1e-6)
    assert true_risk(x0, 1e9, sc)[0] == pytest.approx(0.0, abs=1e-300)


def test_true_risk_monotone_in_threshold():
    sc = table1_scenario("desk")
    x0 = np.array([[0.3, 0.7]])
    cs = np.linspace(0.0, 5.0, 21)
    probs = [true_risk(x0, c, sc)[0] for c in cs]
    assert np.all(np.diff(probs) <= 0.0)


# ---------------------------------------------------------------------------
# field simulation
# ---------------------------------------------------------------------------


def test_simulate_field_deterministic():
    sc = table1_scenario("desk")
    a = simulate_field(sc, 3)
    b = simulate_field(sc, 3)
    assert np.array_equal(a.values, b.values)
    c = simulate_field(sc, 4)
    assert not np.array_equal(a.values, c.values)


def test_simulate_field_uniform_design_moves_locations():
    sc = table3_scenario("desk", nx=5, ny=5)
    a = simulate_field(sc, 0)
    b = simulate_field(sc, 1)
    assert not np.array_equal(a.locations, b.locations)
    assert np.all((a.locations >= 0.0) & (a.locations <= 1.0))


@pytest.mark.parametrize("make", [table1_scenario, table3_scenario])
def test_simulate_field_design_is_bit_identical(make):
    # the design context only saves work: the draw is the same without it
    sc = make("desk", nx=6, ny=6, seed=31)
    for r in (0, 3):
        plain = simulate_field(sc, r)
        design = _DesignContext.build(sc, plain.locations)
        given = simulate_field(sc, r, design)
        assert np.array_equal(plain.locations, given.locations)
        assert np.array_equal(plain.values, given.values)


def test_simulate_field_nugget_only_moments():
    # near-pure-nugget scenario: values are close to i.i.d. N(m, s^2)
    s2 = 0.25
    sc = Scenario(
        name="nugget", nx=4, ny=4, nugget=s2 - 1e-9, partial_sill=1e-9,
        practical_range=0.5, n_replicates=1, n_boot=1, seed=5,
    )
    design = _DesignContext.build(sc, simulate_field(sc, 0).locations)
    draws = np.array([simulate_field(sc, r, design).values for r in range(10_000)])
    site = 7
    m = true_trend(design.locations[site])
    var = draws[:, site].var()
    assert abs(draws[:, site].mean() - m) < 3.0 * math.sqrt(s2 / 10_000)
    assert abs(var - s2) < 0.05 * s2


def test_simulate_field_covariance_moments():
    sc = table1_scenario("desk", nx=4, ny=4, seed=8)
    design = _DesignContext.build(sc, simulate_field(sc, 0).locations)
    draws = np.array([simulate_field(sc, r, design).values for r in range(10_000)])
    locs = design.locations
    i, j = 1, 2
    d = float(np.linalg.norm(locs[i] - locs[j]))
    target = sc.sigma2 - exp_variogram(d, sc.nugget, sc.partial_sill, sc.practical_range)
    centered = draws - draws.mean(axis=0)
    emp = float(np.mean(centered[:, i] * centered[:, j]))
    se = sc.sigma2 / math.sqrt(10_000)  # crude bound on the covariance SE
    assert abs(emp - target) < 3.0 * se


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(partial_sill=0.0)
    with pytest.raises(ConfigError):
        Scenario(practical_range=-1.0)
    with pytest.raises(ConfigError):
        Scenario(design="hex")
    with pytest.raises(ConfigError):
        Scenario(thresholds=())
    with pytest.raises(ConfigError):
        Scenario(seed=-3)
    with pytest.raises(ConfigError):
        Scenario(seed=7.5)  # would have drawn seed 7's fields


@pytest.mark.parametrize(
    "field, value",
    [("nugget", math.nan), ("nugget", math.inf), ("partial_sill", math.nan),
     ("partial_sill", math.inf), ("practical_range", math.nan), ("practical_range", math.inf)],
)
def test_scenario_rejects_nonfinite_model(field, value):
    # NaN passes every < and <= check, so it used to fail later as a
    # numerical error inside the first replicate
    with pytest.raises(ConfigError, match="finite"):
        Scenario(**{field: value})


@pytest.mark.parametrize("thresholds", [(math.nan,), (2.5, math.nan), (2.5, 2.5), (2.5, 3.0, 2.5)])
def test_scenario_rejects_nan_or_repeated_thresholds(thresholds):
    with pytest.raises(ConfigError, match="threshold"):
        Scenario(thresholds=thresholds)


def test_scale_presets():
    desk = table1_scenario("desk")
    assert (desk.nx, desk.n_replicates, desk.n_boot, desk.grid_nx) == (10, 100, 200, 25)
    full = table1_scenario("full")
    assert (full.nx, full.n_replicates, full.n_boot, full.grid_nx) == (20, 1000, 1000, 50)
    sweep = table2_scenarios("desk")
    assert [s.practical_range for s in sweep] == [0.25, 0.5, 0.75]
    assert all(s.nugget == pytest.approx(0.04) for s in sweep)


def test_run_scenario_deterministic_across_threads():
    sc = table1_scenario("desk", n_replicates=4, n_boot=30, seed=42)
    a = run_scenario(sc, threads=1)
    b = run_scenario(sc, threads=2)
    assert a.rows == b.rows


def test_run_scenario_records_sills():
    sc = table1_scenario("desk", n_replicates=3, n_boot=20)
    res = run_scenario(sc, modes=("corrected",))
    for rec in res.replicates:
        assert not rec.failed
        assert rec.sill_corrected > rec.sill_uncorrected > 0.0
        assert ("corrected", 2.5) in rec.mean_se


def test_run_scenario_failure_gate(monkeypatch):
    original = sim._evaluate_replicate

    def flaky(scenario, sample, r, *args, **kwargs):
        if r % 2 == 0:
            raise sim.GeoriskError(f"synthetic failure at {r}")
        return original(scenario, sample, r, *args, **kwargs)

    monkeypatch.setattr(sim, "_evaluate_replicate", flaky)
    sc = table1_scenario("desk", n_replicates=6, n_boot=10)
    res = run_scenario(sc, modes=("corrected",))
    assert res.n_failures == 3
    assert not res.valid
    assert all(rec.failed == (rec.index % 2 == 0) for rec in res.replicates)


def test_run_scenario_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        run_scenario(table1_scenario("desk", n_replicates=1, n_boot=1), modes=("nope",))


def test_run_scenario_pipeline_criterion():
    # data-driven bandwidth path (CV then dependence-corrected GCV) instead
    # of the oracle criterion
    sc = table1_scenario(
        "desk", n_replicates=2, n_boot=25, bandwidth_criterion="pipeline", seed=14
    )
    res = run_scenario(sc)
    assert res.valid and res.n_failures == 0
    for row in res.rows:
        assert math.isfinite(row["mean_se"])
        assert 0.0 <= row["mean_se"] <= 1.0


def test_result_writers(tmp_path):
    # a scenario's rows go through the same writers the simulate command uses
    sc = table1_scenario("desk", n_replicates=2, n_boot=10)
    res = run_scenario(sc, modes=("corrected",))
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    fields = ["scenario", "mode", "threshold", "n", "N", "B",
              "mean_se", "median_se", "sd_se", "failures"]
    write_table_csv(csv_path, fields, res.rows)
    write_json(json_path, {"rows": res.rows, "failures": res.n_failures})
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scenario,mode,threshold,n,N,B,mean_se,median_se,sd_se,failures"
    assert len(lines) == 2
    assert json_path.read_text().startswith("{")
    assert json.loads(json_path.read_text())["rows"] == res.rows


def test_run_scenario_pipeline_criterion_uniform_design():
    # the pipeline criterion on sites redrawn per replicate: each replicate
    # builds its own design, which supplies the true covariance factor
    sc = table3_scenario(
        "desk", nx=6, ny=6, n_replicates=2, n_boot=25, bandwidth_criterion="pipeline",
        seed=14,
    )
    res = run_scenario(sc)
    assert res.valid and res.n_failures == 0
    for row in res.rows:
        assert math.isfinite(row["mean_se"])
        assert 0.0 <= row["mean_se"] <= 1.0


def _slim(rec):
    return dataclasses.replace(rec, mean_se={k: v.tolist() for k, v in rec.mean_se.items()})


def test_regular_replicate_same_with_rebuilt_design():
    # the study's shared design and one rebuilt from the replicate's own
    # sites give the same record at the same lag bandwidth
    sc = table1_scenario("desk", nx=6, ny=6, n_boot=20, seed=9)
    truth_maps = {c: true_risk(sc.prediction_grid().nodes(), c, sc) for c in sc.thresholds}
    shared = _DesignContext.build(sc, simulate_field(sc, 0).locations)
    sample = simulate_field(sc, 2, shared)
    rebuilt = _DesignContext.build(sc, sample.locations)
    g = 0.3
    a = _evaluate_replicate(sc, sample, 2, sim.MODES, truth_maps, shared, g)
    b = _evaluate_replicate(sc, sample, 2, sim.MODES, truth_maps, rebuilt, g)
    assert _slim(a) == _slim(b)


def test_pipeline_replicate_scores_each_mode_with_its_own_covariance():
    # the pipeline criterion's squared errors, mode by mode, against maps
    # built directly: the replicate's own fit, its resampling rows, the
    # residual factor to whiten and each mode's covariance to recorrelate
    sc = table1_scenario("desk", nx=6, ny=6, n_boot=20, bandwidth_criterion="pipeline")
    nodes = sc.prediction_grid().nodes()
    truth_maps = {c: true_risk(nodes, c, sc) for c in sc.thresholds}
    r = 1
    design = _DesignContext.build(sc, simulate_field(sc, r).locations)
    sample = simulate_field(sc, r, design)
    rec = _evaluate_replicate(sc, sample, r, sim.MODES, truth_maps, design, None)

    fit = fit_pipeline(sample)
    rows, bad = prediction_weights(fit.trend_fit, nodes)
    keep = np.ones(len(nodes), dtype=bool)
    keep[bad] = False
    true_factor = cholesky(covariance_matrix(sc.model, pairwise_distances(sample.locations)))
    covariances = {
        "theoretical": (sc.model, true_factor),
        "residual": (fit.residual_model, fit.residual_factor),
        "corrected": (fit.corrected_model, fit.corrected_factor),
    }
    idx = resample_indices(sample.n, sc.n_boot, sc.seed, r)
    assert set(rec.mean_se) == {(m, c) for m in covariances for c in sc.thresholds}
    estimates = (covariances["residual"], covariances["corrected"])
    for mode in covariances:
        probs = mode_probabilities(
            fit.trend_fit, blocked_targets(rows[keep], ~keep, nodes[keep]), idx, sc.thresholds,
            (mode,), estimates, covariances["theoretical"],
        )[mode]
        for c, p in zip(sc.thresholds, probs):
            assert np.array_equal(rec.mean_se[(mode, c)], (truth_maps[c][keep] - p[keep]) ** 2)
    # the modes' maps differ, so a swapped covariance cannot pass
    errors = [rec.mean_se[(m, 2.5)] for m in covariances]
    assert not any(np.array_equal(a, b) for a, b in zip(errors, errors[1:] + errors[:1]))


@pytest.mark.parametrize("threads", [1, 2])
def test_study_rows_equal_per_replicate_operators(threads):
    # the design context's theoretical gain, shared by every replicate (and
    # by threaded ones at once), gives the rows of operators rebuilt per
    # replicate. About 0.4 s per thread count.
    sc = table1_scenario("desk", n_replicates=6, seed=12)
    res = run_scenario(sc, threads=threads)
    assert res.n_failures == 0
    assert res.rows == scenario_rows_per_replicate_operators(sc, sim.MODES)


def test_pipeline_study_rows_equal_per_replicate_operators():
    # the pipeline criterion forms the theoretical gain per replicate at
    # the replicate's own targets, with its offset. About 0.2 s.
    sc = table1_scenario(
        "desk", nx=6, ny=6, n_replicates=3, n_boot=20, bandwidth_criterion="pipeline"
    )
    res = run_scenario(sc)
    assert res.n_failures == 0
    assert res.rows == scenario_rows_per_replicate_operators(sc, sim.MODES)


@pytest.mark.parametrize("threads", [1, 2])
def test_uniform_study_rows_equal_per_replicate_operators(threads):
    # the uniform design builds a context per replicate, holding no gain,
    # and tunes the lag bandwidth per replicate; two modes, to check the
    # rows follow the modes asked for. About 1 s per thread count.
    sc = table3_scenario("desk", n_replicates=4)
    modes = ("theoretical", "corrected")
    res = run_scenario(sc, modes=modes, threads=threads)
    assert res.n_failures == 0
    assert res.rows == scenario_rows_per_replicate_operators(sc, modes)


def test_theoretical_gain_is_formed_only_for_a_shared_design(monkeypatch):
    # mode_gain runs once per regular-design MASE study, and never where a
    # context serves one replicate (uniform) or there is no design smoother
    # (pipeline). About 0.7 s.
    calls = []
    gain = sim.mode_gain

    def counted(*args):
        calls.append(args)
        return gain(*args)

    monkeypatch.setattr(sim, "mode_gain", counted)
    studies = {
        "regular": (table1_scenario("desk", n_replicates=3, n_boot=20), 1),
        "uniform": (table3_scenario("desk", n_replicates=3, n_boot=20), 0),
        "pipeline": (table1_scenario(
            "desk", nx=6, ny=6, n_replicates=2, n_boot=20, bandwidth_criterion="pipeline"
        ), 0),
    }
    for name, (sc, expected) in studies.items():
        calls.clear()
        res = run_scenario(sc)
        assert res.n_failures == 0, name
        assert len(calls) == expected, name


def test_replicate_failures_carry_their_stage():
    # three sites per axis admit no MASE bandwidth: every uniform-design
    # replicate fails while its design is built, and says so
    sc = Scenario(nx=3, ny=3, design="uniform", n_replicates=3, n_boot=5)
    res = run_scenario(sc)
    assert res.n_failures == 3 and not res.valid
    for rec in res.replicates:
        assert rec.failed and rec.stage == "design (MASE bandwidth)"
        assert rec.error.startswith("[design (MASE bandwidth)]")


def test_replicate_factorization_failure_carries_its_stage(monkeypatch):
    # an estimated model whose covariance is -1 at every pair: no ridge
    # repairs it, so every replicate fails where its estimates are factored
    class Indefinite:
        sill = -1.0

        @staticmethod
        def semivariance(u):
            return np.zeros_like(u)

    monkeypatch.setattr(bootstrap, "fit_shapiro_botha", lambda pilot: Indefinite())
    sc = table1_scenario("desk", nx=6, ny=6, n_replicates=2, n_boot=5)
    res = run_scenario(sc)
    assert res.n_failures == 2 and not res.valid
    for rec in res.replicates:
        assert rec.failed and rec.stage == "covariance factorization"
        assert rec.error.startswith("[covariance factorization]")


def test_regular_design_failure_carries_its_stage():
    with pytest.raises(BandwidthTooSmallError) as info:
        run_scenario(Scenario(nx=2, ny=2))
    assert info.value.stage == "design (MASE bandwidth)"


def _module_state():
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("georisk."):
            continue
        namespace = vars(mod)
        sizes = {
            attr: len(value)
            for attr, value in namespace.items()
            if isinstance(value, (dict, list, set))
        }
        state[name] = (sorted(namespace), sizes)
    return state


def test_no_module_global_state(monkeypatch):
    # a study and a risk map leave every georisk module as they found it, and
    # no design context outlives its run
    sc = table1_scenario("desk", nx=5, ny=5, n_replicates=2, n_boot=10, grid_nx=6, grid_ny=6)
    built = []
    init = _DesignContext.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(_DesignContext, "__init__", tracked)
    before = _module_state()
    res = run_scenario(sc)
    fit = fit_pipeline(simulate_field(sc, 0))
    grid = make_regular_grid([(0.0, 1.0), (0.0, 1.0)], (6, 6))
    risk_maps(fit, grid, [2.5], n_replicates=10, seed=1)
    del res, fit
    gc.collect()
    assert _module_state() == before
    assert len(built) >= 2
    assert all(ref() is None for ref in built)


@pytest.mark.slow
def test_uniform_design_ordering_holds():
    # the sharp two-size comparison of the random-design study runs in the
    # long suite; here the robust parts: validity, corrected beating
    # residual at both sizes, and residual not improving with n
    out = {}
    for side in (17, 20):
        sc = table3_scenario("desk", nx=side, ny=side, n_replicates=12, n_boot=150, seed=606)
        res = run_scenario(sc, modes=("residual", "corrected"), threads=2)
        assert res.valid
        means = {row["mode"]: row["mean_se"] for row in res.rows}
        assert means["corrected"] < means["residual"]
        out[side] = means
    assert out[20]["residual"] >= out[17]["residual"] * 0.9


@pytest.mark.full_scale
@pytest.mark.skipif(
    os.environ.get("GEORISK_FULL_SCALE") != "1",
    reason="set GEORISK_FULL_SCALE=1 for the long random-design comparison",
)
def test_uniform_design_two_size_comparison_full():
    # random-design comparison at N=100 and two sample sizes; calibration
    # runs put the bias correction's benefit near a 1.5x error ratio at both
    # sizes, with the corrected error improving as n grows (the residual
    # error stays roughly flat here rather than deteriorating, so no trend
    # is asserted for it)
    out = {}
    for side in (17, 20):
        sc = table3_scenario("desk", nx=side, ny=side, seed=606)
        res = run_scenario(sc, modes=("residual", "corrected"), threads=2)
        assert res.valid
        out[side] = {row["mode"]: row["mean_se"] for row in res.rows}
        assert out[side]["corrected"] < out[side]["residual"]
        assert out[side]["residual"] / out[side]["corrected"] >= 1.3
    assert out[20]["corrected"] <= out[17]["corrected"] * 1.05
