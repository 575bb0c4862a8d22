"""Command-line interface.

Commands
--------
- riskmap: fit the pipeline to a CSV point data set and write exceedance
  probability maps for one or more thresholds.
- fit: fit the pipeline and write trend/kriging grids plus variogram curves.
- simulate: run a Monte Carlo scenario study and write its result table.
- synth-data: generate a format-compatible synthetic input data set.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure, 5 validity-gate failure. Timings go to the log; output files are
byte-identical across reruns with the same seed regardless of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import fit_pipeline, prediction_map, risk_maps
from .exceptions import (
    ConfigError,
    DataError,
    GeoriskError,
    NumericalError,
    ValidityGateError,
)
from .geometry import make_regular_grid
from .io import (
    ingest_csv,
    write_grid_csv,
    write_heatmap_svg,
    write_json,
    write_synth_csv,
    write_table_csv,
)
from .simulation import (
    Scenario,
    run_scenario,
    table1_scenario,
    table2_scenarios,
    table3_scenario,
)

logger = logging.getLogger("georisk")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_GATE = 5

_DEFAULTS = {
    "riskmap": {
        "transform": "none",
        "seed": 0,
        "out": "georisk-out",
        "threads": 1,
        "thresholds": "1.0,2.0",
        "replicates": 1000,
        "grid": "50x50",
        "mode": "corrected",
        "svg": False,
    },
    "fit": {
        "transform": "none",
        "seed": 0,
        "out": "georisk-out",
        "threads": 1,
        "grid": "50x50",
        "svg": False,
    },
    "simulate": {
        "seed": 20240,
        "out": "georisk-out",
        "threads": 1,
        "scenario": "table1",
        "scale": "desk",
        "n": None,
        "N": None,
        "B": None,
        "range": 0.5,
        "sill": 0.16,
        "nugget_frac": 0.25,
        "design": "regular",
    },
    "synth-data": {
        "seed": 0,
        "out": "georisk-out",
        "n": 1053,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="georisk",
        description="Nonparametric geostatistical risk mapping",
    )
    parser.add_argument("--version", action="version", version=f"georisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, with_input=True):
        if with_input:
            p.add_argument("--input", help="input CSV with header x,y,value")
            p.add_argument(
                "--transform", choices=("none", "sqrt"), help="response transform"
            )
        p.add_argument("--seed", type=int, help="RNG seed (nonnegative integer)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument(
            "--threads", type=int,
            help="worker threads for simulation replicates (results unchanged); "
                 "riskmap and fit accept it, the bootstrap is parallel through BLAS",
        )

    p_risk = sub.add_parser("riskmap", help="bootstrap exceedance-probability maps")
    add_shared(p_risk)
    p_risk.add_argument("--thresholds", help="comma-separated threshold values")
    p_risk.add_argument("--replicates", type=int, help="bootstrap replicates B")
    p_risk.add_argument("--grid", help="prediction grid as NXxNY")
    p_risk.add_argument("--mode", choices=("corrected", "residual"), help="covariance mode")
    p_risk.add_argument("--svg", action="store_const", const=True, help="emit SVG heatmaps")

    p_fit = sub.add_parser("fit", help="trend, variogram and kriging diagnostics")
    add_shared(p_fit)
    p_fit.add_argument("--grid", help="prediction grid as NXxNY")
    p_fit.add_argument("--svg", action="store_const", const=True, help="emit SVG heatmaps")

    p_sim = sub.add_parser("simulate", help="Monte Carlo scenario study")
    add_shared(p_sim, with_input=False)
    p_sim.add_argument(
        "--scenario", choices=("table1", "table2", "table3", "custom"),
        help="scenario family",
    )
    p_sim.add_argument("--scale", choices=("desk", "full"), help="study scale")
    p_sim.add_argument("--n", type=int, help="sample size (perfect square)")
    p_sim.add_argument("--N", type=int, help="number of field replicates")
    p_sim.add_argument("--B", type=int, help="bootstrap replicates per map")
    p_sim.add_argument("--range", type=float, help="practical range (custom scenario)")
    p_sim.add_argument("--sill", type=float, help="total sill (custom scenario)")
    p_sim.add_argument("--nugget-frac", dest="nugget_frac", type=float,
                       help="nugget as a fraction of the sill")
    p_sim.add_argument("--design", choices=("regular", "uniform"), help="sampling design")

    p_synth = sub.add_parser("synth-data", help="write a synthetic input data set")
    p_synth.add_argument("--seed", type=int, help="RNG seed")
    p_synth.add_argument("--out", help="output directory")
    p_synth.add_argument("--config", help="JSON config file")
    p_synth.add_argument("--n", type=int, help="number of sites")

    return parser


# settings whose config-file values must be coerced like their flags
_NUMERIC = {
    "seed": int, "threads": int, "replicates": int, "n": int, "N": int, "B": int,
    "range": float, "sill": float, "nugget_frac": float,
}


def _choices(parser: argparse.ArgumentParser, command: str) -> dict:
    """The allowed values of each setting of ``command``, as declared by its
    flags' ``choices``."""
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = subparsers.choices[command]._actions
    return {a.dest: a.choices for a in actions if a.choices is not None}


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Apply precedence: command-line flags over config file over defaults,
    then coerce the numeric settings and check every setting that has
    ``choices`` against them (config-file values bypass argparse)."""
    defaults = dict(_DEFAULTS[args.command])
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        # values may sit at the top level or under a per-command key
        file_cfg.update({k: v for k, v in loaded.items() if not isinstance(v, dict)})
        section = loaded.get(args.command, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config entry {args.command!r} must be a JSON object")
        file_cfg.update(section)
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    for key in ("input",):
        if hasattr(args, key):
            resolved[key] = getattr(args, key) or file_cfg.get(key)
            if resolved[key] is not None and not isinstance(resolved[key], str):
                raise ConfigError(f"{key} must be a path, got {resolved[key]!r}")
    for key, kind in _NUMERIC.items():
        value = resolved.get(key)
        if value is None:
            continue
        try:
            resolved[key] = kind(value)
        except (TypeError, ValueError) as err:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {expected}, got {value!r}") from err
    if "seed" in resolved and resolved["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    for key, allowed in _choices(parser, args.command).items():
        value = resolved.get(key)
        if value is not None and value not in allowed:
            raise ConfigError(
                f"{key} must be one of {', '.join(map(str, allowed))}, got {value!r}"
            )
    return resolved


def _parse_thresholds(text) -> tuple:
    try:
        if isinstance(text, (list, tuple)):
            values = tuple(float(v) for v in text)
        else:
            values = tuple(float(part) for part in str(text).split(",") if part.strip())
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad threshold list {text!r}") from err
    if not values:
        raise ConfigError("at least one threshold is required")
    return values


def _parse_grid(text) -> tuple:
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"bad grid spec {text!r}; expected NXxNY")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ConfigError(f"bad grid spec {text!r}") from err
    if nx < 2 or ny < 2:
        raise ConfigError("grid needs at least 2 nodes per axis")
    return nx, ny


def _data_grid(sample, dims):
    xs = sample.locations[:, 0]
    ys = sample.locations[:, 1]
    return make_regular_grid(
        [(float(xs.min()), float(xs.max())), (float(ys.min()), float(ys.max()))], dims
    )


def _model_summary(model) -> dict:
    return {
        "nugget": float(model.nugget),
        "sill": float(model.sill),
        "n_nodes": int(model.node_weights.size),
    }


def _fit_report(cfg: dict, fit, extra: dict) -> dict:
    report = {
        "version": __version__,
        "config": {k: v for k, v in cfg.items() if k != "threads"},
        "bandwidth_diagonal": [float(v) for v in np.diag(fit.bandwidth.entries)],
        "lag_bandwidth": float(fit.lag_bandwidth),
        "residual_model": _model_summary(fit.residual_model),
        "corrected_model": _model_summary(fit.corrected_model),
        "iteration_report": {
            "outer_iterations": fit.report.outer_iterations,
            "h_history": [list(h) for h in fit.report.h_history],
            "h_converged": fit.report.h_converged,
            "bias_iterations": fit.report.bias.iterations if fit.report.bias else 0,
            "bias_converged": bool(fit.report.bias.converged) if fit.report.bias else False,
            "notes": list(fit.report.notes),
        },
        "seed": cfg["seed"],
    }
    report.update(extra)
    return report


def _threshold_tag(c: float) -> str:
    return format(c, "g").replace("-", "m").replace(".", "p")


def cmd_riskmap(cfg: dict) -> int:
    if not cfg.get("input"):
        raise ConfigError("riskmap needs --input (or an input entry in --config)")
    out = Path(cfg["out"])
    thresholds = _parse_thresholds(cfg["thresholds"])
    dims = _parse_grid(cfg["grid"])
    t0 = time.perf_counter()
    sample = ingest_csv(cfg["input"], cfg["transform"])
    grid = _data_grid(sample, dims)
    fit = fit_pipeline(sample)
    t_fit = time.perf_counter()
    logger.info("pipeline fitted in %.2fs (n=%d)", t_fit - t0, sample.n)
    maps = risk_maps(fit, grid, thresholds, cfg["replicates"], cfg["seed"], mode=cfg["mode"])
    logger.info("bootstrap of %d replicates in %.2fs", cfg["replicates"],
                time.perf_counter() - t_fit)

    files = []
    for m in maps:
        tag = _threshold_tag(m.threshold)
        path = out / f"riskmap_c{tag}.csv"
        write_grid_csv(path, grid.nodes(), {"probability": m.probabilities})
        files.append(path.name)
        if cfg["svg"]:
            svg_path = out / f"riskmap_c{tag}.svg"
            write_heatmap_svg(
                svg_path, grid, m.probabilities,
                title=f"P(Y >= {format(m.threshold, 'g')})", vmin=0.0, vmax=1.0,
            )
            files.append(svg_path.name)
    report = _fit_report(
        cfg, fit,
        {
            "thresholds": list(thresholds),
            "replicates": cfg["replicates"],
            "grid": list(dims),
            "masked_nodes": int(maps[0].n_masked),
            "files": files,
        },
    )
    write_json(out / "riskmap_report.json", report)
    logger.info("wrote %d file(s) to %s", len(files) + 1, out)
    return EXIT_OK


def cmd_fit(cfg: dict) -> int:
    if not cfg.get("input"):
        raise ConfigError("fit needs --input (or an input entry in --config)")
    out = Path(cfg["out"])
    dims = _parse_grid(cfg["grid"])
    t0 = time.perf_counter()
    sample = ingest_csv(cfg["input"], cfg["transform"])
    grid = _data_grid(sample, dims)
    fit = fit_pipeline(sample)
    logger.info("pipeline fitted in %.2fs (n=%d)", time.perf_counter() - t0, sample.n)

    nodes = grid.nodes()
    trend, prediction = prediction_map(
        fit.trend_fit, nodes, fit.corrected_model, fit.corrected_factor
    )
    write_grid_csv(out / "fit_grid.csv", nodes, {"trend": trend, "prediction": prediction})

    lags = fit.lag_grid
    write_table_csv(
        out / "variogram.csv",
        ["lag", "uncorrected", "corrected", "fitted_uncorrected", "fitted_corrected"],
        [
            {
                "lag": float(lags[k]),
                "uncorrected": float(fit.pilot_uncorrected.estimates[k]),
                "corrected": float(fit.pilot_corrected.estimates[k]),
                "fitted_uncorrected": float(fit.residual_model.semivariance(lags[k])),
                "fitted_corrected": float(fit.corrected_model.semivariance(lags[k])),
            }
            for k in range(len(lags))
        ],
    )
    files = ["fit_grid.csv", "variogram.csv"]
    if cfg["svg"]:
        write_heatmap_svg(out / "fit_trend.svg", grid, trend, title="trend estimate")
        write_heatmap_svg(out / "fit_prediction.svg", grid, prediction, title="kriging prediction")
        files += ["fit_trend.svg", "fit_prediction.svg"]
    report = _fit_report(
        cfg, fit, {"grid": list(dims), "masked_nodes": int(np.isnan(trend).sum()), "files": files}
    )
    write_json(out / "fit_report.json", report)
    return EXIT_OK


def _build_scenarios(cfg: dict) -> list:
    overrides = {}
    if cfg["n"] is not None:
        side = math.isqrt(cfg["n"])
        if side * side != cfg["n"]:
            raise ConfigError("--n must be a perfect square (sites form an nx x ny layout)")
        overrides.update(nx=side, ny=side)
    if cfg["N"] is not None:
        overrides["n_replicates"] = cfg["N"]
    if cfg["B"] is not None:
        overrides["n_boot"] = cfg["B"]
    overrides["seed"] = cfg["seed"]
    scale = cfg["scale"]
    kind = cfg["scenario"]
    if kind == "table1":
        return [table1_scenario(scale, **overrides)]
    if kind == "table2":
        return table2_scenarios(scale, nugget_frac=cfg["nugget_frac"], **overrides)
    if kind == "table3":
        return [table3_scenario(scale, **overrides)]
    sill = cfg["sill"]
    frac = cfg["nugget_frac"]
    if not 0.0 <= frac < 1.0:
        raise ConfigError("--nugget-frac must be in [0, 1)")
    from .simulation import _scale_params

    params = _scale_params(scale)
    params.update(
        name=f"custom-{scale}",
        design=cfg["design"],
        nugget=frac * sill,
        partial_sill=(1.0 - frac) * sill,
        practical_range=cfg["range"],
        scale=scale,
    )
    params.update(overrides)
    return [Scenario(**params)]


def cmd_simulate(cfg: dict) -> int:
    out = Path(cfg["out"])
    scenarios = _build_scenarios(cfg)
    rows = []
    payloads = []
    any_invalid = False
    for sc in scenarios:
        t0 = time.perf_counter()
        result = run_scenario(sc, threads=cfg["threads"])
        logger.info(
            "scenario %s: %d replicates in %.1fs (%d failures)",
            sc.name, sc.n_replicates, time.perf_counter() - t0, result.n_failures,
        )
        rows.extend(result.rows)
        payloads.append(
            {
                "scenario": dataclasses.asdict(sc),
                "rows": result.rows,
                "failures": result.n_failures,
                "failure_stages": dict(
                    Counter(rec.stage or "unlabelled" for rec in result.replicates if rec.failed)
                ),
                "valid": result.valid,
                "seed": sc.seed,
            }
        )
        any_invalid = any_invalid or not result.valid
    write_table_csv(
        out / "results.csv",
        ["scenario", "mode", "threshold", "n", "N", "B",
         "mean_se", "median_se", "sd_se", "failures"],
        rows,
    )
    write_json(
        out / "results.json",
        {
            "version": __version__,
            "config": {k: v for k, v in cfg.items() if k != "threads"},
            "runs": payloads,
            "scale": cfg["scale"],
        },
    )
    if any_invalid:
        raise ValidityGateError(
            "more than 5% of replicates failed in at least one scenario"
        )
    return EXIT_OK


def cmd_synth(cfg: dict) -> int:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synthetic.csv"
    write_synth_csv(path, n=cfg["n"], seed=cfg["seed"])
    logger.info("wrote %s (%d sites)", path, cfg["n"])
    return EXIT_OK


_COMMANDS = {
    "riskmap": cmd_riskmap,
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "synth-data": cmd_synth,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, parser)
        return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        logger.error("configuration error: %s", err)
        return EXIT_CONFIG
    except DataError as err:
        logger.error("data error: %s", err)
        return EXIT_DATA
    except ValidityGateError as err:
        logger.error("validity gate: %s", err)
        return EXIT_GATE
    except NumericalError as err:
        stage = getattr(err, "stage", None)
        logger.error("numerical failure%s: %s", f" in {stage}" if stage else "", err)
        return EXIT_NUMERIC
    except GeoriskError as err:
        logger.error("%s", err)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
