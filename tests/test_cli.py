import json
import os

import numpy as np
import pytest

from georisk import bootstrap, cli
from georisk.bootstrap import fit_pipeline, risk_maps
from georisk.cli import main
from georisk.exceptions import ConfigError
from georisk.geometry import make_regular_grid
from georisk.io import ingest_csv, write_synth_csv


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    write_synth_csv(path, n=150, seed=11)
    return path


def read_probs(path):
    rows = path.read_text().splitlines()[1:]
    return np.array([np.nan if r.split(",")[2] == "NA" else float(r.split(",")[2]) for r in rows])


def test_synth_data_command(tmp_path):
    code = main(["synth-data", "--out", str(tmp_path), "--n", "40", "--seed", "5"])
    assert code == 0
    assert (tmp_path / "synthetic.csv").exists()


def test_riskmap_end_to_end(tmp_path, synth_csv):
    out = tmp_path / "rm"
    code = main([
        "riskmap", "--input", str(synth_csv), "--transform", "sqrt",
        "--out", str(out), "--thresholds", "1.0,2.0", "--replicates", "50",
        "--grid", "12x12", "--seed", "3", "--svg",
    ])
    assert code == 0
    p1 = read_probs(out / "riskmap_c1.csv")
    p2 = read_probs(out / "riskmap_c2.csv")
    keep = ~np.isnan(p1)
    assert np.all((p1[keep] >= 0.0) & (p1[keep] <= 1.0))
    # shared replicates make maps monotone across thresholds node by node
    assert np.all(p2[keep] <= p1[keep] + 1e-12)
    counts = p1[keep] * 50
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    report = json.loads((out / "riskmap_report.json").read_text())
    assert report["replicates"] == 50
    assert "threads" not in report["config"]
    assert (out / "riskmap_c1.svg").exists()


def test_riskmap_threshold_below_support(tmp_path, synth_csv):
    out = tmp_path / "low"
    code = main([
        "riskmap", "--input", str(synth_csv), "--transform", "sqrt",
        "--out", str(out), "--thresholds=-50", "--replicates", "25",
        "--grid", "8x8", "--seed", "1",
    ])
    assert code == 0
    probs = read_probs(out / "riskmap_cm50.csv")
    # threshold far below the data support: everything exceeds it
    keep = ~np.isnan(probs)
    assert np.all(probs[keep] >= 1.0 - 1.0 / 25)


def test_riskmap_deterministic_across_threads(tmp_path, synth_csv):
    out = tmp_path / "same"
    snapshots = []
    for threads in (1, 3):
        code = main([
            "riskmap", "--input", str(synth_csv), "--transform", "sqrt",
            "--out", str(out), "--thresholds", "1.0", "--replicates", "60",
            "--grid", "10x10", "--seed", "9", "--threads", str(threads),
        ])
        assert code == 0
        snapshots.append({
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        })
    assert snapshots[0] == snapshots[1]


def test_fit_command_outputs(tmp_path, synth_csv):
    out = tmp_path / "fit"
    code = main([
        "fit", "--input", str(synth_csv), "--transform", "sqrt",
        "--out", str(out), "--grid", "10x10",
    ])
    assert code == 0
    vg = (out / "variogram.csv").read_text().splitlines()
    assert vg[0] == "lag,uncorrected,corrected,fitted_uncorrected,fitted_corrected"
    assert len(vg) == 26  # header + one row per lag grid point
    grid_lines = (out / "fit_grid.csv").read_text().splitlines()
    assert grid_lines[0] == "x,y,trend,prediction"
    assert len(grid_lines) == 101


def _write_field_csv(path, seed=0):
    # unit-square Gaussian field with an exponential covariogram
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 12)
    locs = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    d = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
    cov = 0.16 - np.where(d == 0, 0.0, 0.04 + 0.12 * (1 - np.exp(-3 * d / 0.5)))
    l = np.linalg.cholesky(cov + 1e-10 * np.eye(len(locs)))
    y = 2.5 + np.sin(2 * np.pi * locs[:, 0]) + l @ rng.standard_normal(len(locs))
    lines = ["x,y,value"] + [
        f"{float(locs[k, 0])!r},{float(locs[k, 1])!r},{float(y[k])!r}"
        for k in range(len(y))
    ]
    path.write_text("\n".join(lines) + "\n")


def test_fit_corrected_curve_above_uncorrected(tmp_path):
    data = tmp_path / "field.csv"
    _write_field_csv(data, seed=4)
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(data), "--out", str(out), "--grid", "8x8"]) == 0
    rows = [r.split(",") for r in (out / "variogram.csv").read_text().splitlines()[1:]]
    uncorrected = np.array([float(r[1]) for r in rows])
    corrected = np.array([float(r[2]) for r in rows])
    # trend removal shrinks residual variability; the correction restores it
    tail = slice(len(rows) // 2, None)
    assert np.all(corrected[tail] >= uncorrected[tail])


def test_fit_affine_data_flat_variogram(tmp_path):
    rng = np.random.default_rng(7)
    locs = rng.uniform(size=(60, 2))
    y = 1.0 + locs @ np.array([0.5, -0.2])
    data = tmp_path / "affine.csv"
    data.write_text(
        "x,y,value\n"
        + "\n".join(
            f"{float(locs[k, 0])!r},{float(locs[k, 1])!r},{float(y[k])!r}" for k in range(60)
        )
        + "\n"
    )
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(data), "--out", str(out), "--grid", "6x6"]) == 0
    rows = [r.split(",") for r in (out / "variogram.csv").read_text().splitlines()[1:]]
    for col in (1, 2, 3, 4):
        vals = np.array([float(r[col]) for r in rows])
        assert np.all(np.abs(vals) < 1e-10)


def test_config_file_precedence(tmp_path, synth_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": str(synth_csv),
        "transform": "sqrt",
        "riskmap": {"thresholds": "1.5", "replicates": 30, "grid": "8x8"},
    }))
    out = tmp_path / "out"
    code = main([
        "riskmap", "--config", str(cfg), "--out", str(out),
        "--replicates", "20", "--seed", "2",
    ])
    assert code == 0
    report = json.loads((out / "riskmap_report.json").read_text())
    assert report["replicates"] == 20      # flag beats config file
    assert report["thresholds"] == [1.5]   # config file beats default


def test_riskmap_residual_mode(tmp_path, synth_csv):
    # 40 replicates: every k/40 has a short decimal, so the CSV's 12
    # significant digits hold each probability exactly
    out = tmp_path / "resid"
    code = main([
        "riskmap", "--input", str(synth_csv), "--transform", "sqrt",
        "--out", str(out), "--thresholds", "1.0", "--replicates", "40",
        "--grid", "8x8", "--seed", "6", "--mode", "residual",
    ])
    assert code == 0
    probs = read_probs(out / "riskmap_c1.csv")
    keep = ~np.isnan(probs)
    assert np.all((probs[keep] >= 0.0) & (probs[keep] <= 1.0))

    sample = ingest_csv(synth_csv, "sqrt")
    fit = fit_pipeline(sample)
    box = [(sample.locations[:, k].min(), sample.locations[:, k].max()) for k in range(2)]
    grid = make_regular_grid(box, (8, 8))
    residual = risk_maps(fit, grid, [1.0], 40, 6, mode="residual")[0].probabilities
    corrected = risk_maps(fit, grid, [1.0], 40, 6)[0].probabilities
    assert np.array_equal(probs, residual, equal_nan=True)
    assert not np.array_equal(probs, corrected, equal_nan=True)


def test_simulate_table2_and_table3(tmp_path):
    out2 = tmp_path / "t2"
    code = main([
        "simulate", "--scenario", "table2", "--scale", "desk",
        "--N", "2", "--B", "10", "--out", str(out2), "--seed", "9",
    ])
    assert code == 0
    rows = (out2 / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 3  # header + three ranges x three modes

    out3 = tmp_path / "t3"
    code = main([
        "simulate", "--scenario", "table3", "--scale", "desk",
        "--N", "1", "--B", "5", "--out", str(out3), "--seed", "9",
    ])
    assert code == 0
    payload = json.loads((out3 / "results.json").read_text())
    assert payload["runs"][0]["scenario"]["design"] == "uniform"


def test_simulate_table1_desk_identical_without_grid_route(tmp_path, monkeypatch):
    # the table1 desk study: its 10 x 10 sites form a grid, so both
    # estimated modes add their kriging term axis by axis. With that route
    # turned off (the sites never read as a grid) every block forms C0 and
    # multiplies it, and results.csv and results.json are byte-identical.
    # About 1 s.
    args = ["simulate", "--scenario", "table1", "--scale", "desk", "--N", "10", "--seed", "20240"]
    calls = []
    route = bootstrap._add_grid_covariances_product

    def counted(*a):
        calls.append(1)
        route(*a)

    monkeypatch.setattr(bootstrap, "_add_grid_covariances_product", counted)
    for run in ("grid", "dense"):
        if run == "dense":
            monkeypatch.setattr(bootstrap, "_site_grid", lambda sites: None)
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)  # results.json records the --out path
        assert main([*args, "--out", "out"]) == 0
        assert len(calls) == 10 * 2 * 3  # replicates x estimated modes x map blocks
    for name in ("results.csv", "results.json"):
        assert (tmp_path / "grid/out" / name).read_bytes() == (tmp_path / "dense/out" / name).read_bytes()


def test_simulate_desk_row_count(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--scenario", "table1", "--scale", "desk",
        "--N", "3", "--B", "25", "--out", str(out), "--seed", "77",
    ])
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "scenario,mode,threshold,n,N,B,mean_se,median_se,sd_se,failures"
    assert len(rows) == 4  # header + one row per mode
    payload = json.loads((out / "results.json").read_text())
    assert payload["runs"][0]["scenario"]["scale"] == "desk"
    assert payload["runs"][0]["failure_stages"] == {}


def test_simulate_failure_stages_recorded(tmp_path):
    # three sites per axis admit no MASE bandwidth, so every replicate of the
    # random design fails while its design is built; the gate exits 5 after
    # the results are written
    out = tmp_path / "sim-fail"
    code = main([
        "simulate", "--scenario", "custom", "--design", "uniform", "--n", "9",
        "--N", "3", "--B", "5", "--out", str(out),
    ])
    assert code == 5
    run = json.loads((out / "results.json").read_text())["runs"][0]
    assert run["failures"] == 3
    assert run["failure_stages"] == {"design (MASE bandwidth)": 3}


def test_simulate_full_flag_recorded(tmp_path):
    out = tmp_path / "sim-full"
    code = main([
        "simulate", "--scenario", "table1", "--scale", "full",
        "--n", "16", "--N", "1", "--B", "10", "--out", str(out), "--seed", "5",
    ])
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["scale"] == "full"
    assert payload["runs"][0]["scenario"]["scale"] == "full"


def test_simulate_deterministic_across_threads(tmp_path):
    out = tmp_path / "sim-same"
    snapshots = []
    for threads in (1, 2):
        code = main([
            "simulate", "--scenario", "table1", "--scale", "desk",
            "--N", "4", "--B", "20", "--out", str(out), "--seed", "123",
            "--threads", str(threads),
        ])
        assert code == 0
        snapshots.append({
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        })
    assert snapshots[0] == snapshots[1]


def test_exit_codes(tmp_path, synth_csv):
    # 2: config error (missing input)
    assert main(["riskmap", "--out", str(tmp_path / "x")]) == 2
    # 2: invalid scenario parameters before any compute
    assert main([
        "simulate", "--scenario", "custom", "--sill", "0.16",
        "--nugget-frac", "1.0", "--out", str(tmp_path / "y"),
    ]) == 2
    # 3: data error (bad CSV)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["riskmap", "--input", str(bad), "--out", str(tmp_path / "z")]) == 3
    # 3: duplicate locations
    dup = tmp_path / "dup.csv"
    dup.write_text("x,y,value\n0,0,1\n0,0,2\n1,1,3\n")
    assert main(["riskmap", "--input", str(dup), "--out", str(tmp_path / "w")]) == 3


def test_config_file_bad_numbers_exit_2(tmp_path, synth_csv):
    # config-file values skip argparse's types; they are coerced in one
    # place and a bad one is a configuration error, not a traceback
    threads = tmp_path / "threads.json"
    threads.write_text(json.dumps({"threads": "two"}))
    assert main(["simulate", "--config", str(threads), "--out", str(tmp_path / "s")]) == 2
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"seed": "x"}))
    for argv in (
        ["riskmap", "--input", str(synth_csv)],
        ["fit", "--input", str(synth_csv)],
        ["simulate"],
        ["synth-data"],
    ):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", str(seed), "--out", str(out)]) == 2
        assert not out.exists()
    for i, bad in enumerate(({"riskmap": 5}, {"input": 5})):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(bad))
        assert main(["riskmap", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    # values outside a flag's choices: the same lists as on the command line
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"scenario": "foo"}))
    assert main(["simulate", "--config", str(scenario), "--out", str(tmp_path / "sc")]) == 2
    assert not (tmp_path / "sc").exists()
    transform = tmp_path / "transform.json"
    transform.write_text(json.dumps({"transform": "foo"}))
    assert main([
        "riskmap", "--input", str(synth_csv), "--config", str(transform),
        "--out", str(tmp_path / "tr"),
    ]) == 2
    assert not (tmp_path / "tr").exists()


# (flag text, config-file value) of every setting, each unlike its default;
# the svg switch takes no text
_SETTING_VALUES = {
    "input": ("data.csv", "data.csv"),
    "transform": ("sqrt", "sqrt"),
    "seed": ("5", 5),
    "out": ("elsewhere", "elsewhere"),
    "threads": ("2", "2"),
    "grid": ("8x9", "8x9"),
    "svg": (None, True),
    "thresholds": ("1.5,2", "1.5,2"),
    "replicates": ("30", 30),
    "mode": ("residual", "residual"),
    "scenario": ("custom", "custom"),
    "scale": ("full", "full"),
    "n": ("16", 16),
    "N": ("3", "3"),
    "B": ("7", 7),
    "range": ("0.3", 0.3),
    "sill": ("0.2", "0.2"),
    "nugget_frac": ("0.1", 0.1),
    "design": ("uniform", "uniform"),
}


def _rejected_values(setting):
    """Config-file values that no flag of ``setting``'s kind can give."""
    if setting.type is bool:
        return ["no", "false", 1, None]
    if setting.type is str:
        bad = [5, None] + ([] if setting.listable else [["a"]])
    else:
        bad = [True, None, "x"] + ([7.9, "7.9"] if setting.type is int else [])
    return (
        bad
        + (["foo"] if setting.choices else [])
        + ([setting.minimum - 1] if setting.minimum is not None else [])
    )


@pytest.mark.parametrize(
    "command, key", [(c, k) for c, settings in cli._SETTINGS.items() for k in settings]
)
def test_config_value_reads_as_its_flag(tmp_path, monkeypatch, command, key):
    # each of the 32 settings resolves the same from its flag and from a
    # config file, and every value its flag cannot give is a configuration
    # error (exit 2) before any output exists; about 0.5 s in all
    monkeypatch.chdir(tmp_path)
    setting = cli._SETTINGS[command][key]
    text, value = _SETTING_VALUES[key]
    parser = cli.build_parser()
    flag = ["--" + key.replace("_", "-")] + ([text] if text is not None else [])
    from_flag = cli._resolve(parser.parse_args([command, *flag]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_file = cli._resolve(parser.parse_args([command, "--config", str(cfg)]))
    assert from_file == from_flag
    assert type(from_file[key]) is type(from_flag[key])
    assert from_flag[key] != setting.default

    # a missing input file would exit 3, so a bad value let through shows
    extra = ["--input", "missing.csv"] if "input" in cli._SETTINGS[command] else []
    for bad in _rejected_values(setting):
        cfg.write_text(json.dumps({command: {key: bad}}))
        with pytest.raises(ConfigError, match=key):
            cli._resolve(parser.parse_args([command, "--config", str(cfg)]))
        argv = [command, "--config", str(cfg)] + (extra if key != "input" else [])
        assert main(argv + (["--out", "out"] if key != "out" else [])) == 2, bad
        assert os.listdir(tmp_path) == ["cfg.json"], bad


@pytest.mark.parametrize(
    "argv, key",
    [([command, "--threads", value], "threads")
     for command, settings in cli._SETTINGS.items() if "threads" in settings
     for value in ("0", "-3")]
    + [(["riskmap", "--replicates", "0"], "replicates")]
    + [(["synth-data", "--n", value], "n") for value in ("0", "-5", "9")],
)
def test_counts_below_one_exit_2_before_input_is_read(
    tmp_path, monkeypatch, caplog, argv, key
):
    # a count below its floor (1, or the 10 sites of a synthetic data set)
    # from a flag is a configuration error naming the setting, raised
    # before the input is read (a missing input would exit 3) or anything
    # is fitted, simulated or written; under 0.1 s each
    monkeypatch.chdir(tmp_path)
    for name in ("ingest_csv", "fit_pipeline", "run_scenario", "write_synth_csv"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran past the check"))
    extra = ["--input", "missing.csv"] if "input" in cli._SETTINGS[argv[0]] else []
    assert main([*argv, *extra, "--out", "out"]) == 2
    floor = cli._SETTINGS[argv[0]][key].minimum
    assert f"{key} must be at least {floor}" in caplog.text
    assert os.listdir(tmp_path) == []


def test_run_scenario_rejects_threads_below_one():
    from georisk.simulation import run_scenario, table1_scenario

    sc = table1_scenario("desk", n_replicates=1, n_boot=2)
    for threads in (0, -3):
        with pytest.raises(ConfigError, match="threads"):
            run_scenario(sc, threads=threads)


@pytest.mark.parametrize(
    "thresholds", ["nan", "inf", "1,nan", "-inf,2", "1,1", "1,1.0", "1,1.0000001"]
)
def test_riskmap_bad_thresholds_exit_2_before_anything_is_written(
    tmp_path, monkeypatch, caplog, synth_csv, thresholds
):
    # a non-finite threshold has no map, a repeated one maps one event
    # twice, and two that print alike would write one file twice; each is
    # a configuration error raised before the data are read. From a flag
    # and from a config-file list; under 0.1 s each
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ingest_csv", lambda *a, **k: pytest.fail("ran past the check"))
    argv = ["riskmap", "--input", str(synth_csv), "--out", "out"]
    assert main([*argv, f"--thresholds={thresholds}"]) == 2
    assert "threshold" in caplog.text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thresholds": [float(c) for c in thresholds.split(",")]}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize(
    "flags", [["--sill", "nan"], ["--sill", "inf"], ["--range", "nan"], ["--range", "inf"]]
)
def test_custom_scenario_nonfinite_model_exits_2(tmp_path, monkeypatch, flags):
    # a NaN passed the scenario's < and <= checks and failed later as a
    # numerical error (exit 4); now no replicate runs. Under 0.1 s each
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("ran past the check"))
    assert main(["simulate", "--scenario", "custom", *flags, "--N", "1", "--out", "out"]) == 2
    assert os.listdir(tmp_path) == []


def test_main_calls_the_command_bound_in_the_module(tmp_path, monkeypatch):
    # a wrapped or patched cmd_* (the benchmark tracer replaces module
    # attributes) is the one main runs
    calls = []
    monkeypatch.setattr(cli, "cmd_synth", lambda cfg: calls.append(cfg["n"]) or 0)
    assert main(["synth-data", "--out", str(tmp_path / "s"), "--n", "40"]) == 0
    assert calls == [40]
    assert not (tmp_path / "s").exists()
