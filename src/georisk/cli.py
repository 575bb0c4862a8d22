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
    TRANSFORMS,
    ingest_csv,
    write_grid_csv,
    write_heatmap_svg,
    write_json,
    write_synth_csv,
    write_table_csv,
)
from .simulation import (
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

_EXPECTED = {bool: "true or false", str: "a string", int: "an integer", float: "a number"}


@dataclasses.dataclass(frozen=True)
class _Setting:
    """One setting of a command: its flag ``--<name>`` (underscores as
    dashes) and the config-file entry ``<name>``, both read the same way.

    ``type`` is int, float or str, or bool for a switch that only turns the
    setting on. ``listable`` lets a config file give a str setting as a
    JSON list. ``minimum`` is the least value an int setting takes, from
    its flag or its config-file entry alike.
    """

    type: type
    default: object
    help: str
    choices: tuple | None = None
    listable: bool = False
    minimum: int | None = None

    def read(self, key: str, value):
        """A config-file value as its flag reads it: true or false for a
        switch, a string for a str setting, and a number or a string that
        the flag's type parses for an int or float setting, within the
        flag's choices. Any other value is a ConfigError."""
        if self.type in (bool, str):
            ok = isinstance(value, self.type) or self.listable and isinstance(value, list)
        else:
            ok = isinstance(value, (int, float, str))
            try:
                value = self.type(str(value)) if ok else value
            except ValueError:
                ok = False
        if not ok:
            raise ConfigError(f"{key} must be {_EXPECTED[self.type]}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"{key} must be one of {', '.join(self.choices)}, got {value!r}"
            )
        return value

    def check(self, key: str, value):
        """``value``, or a ConfigError naming ``key`` when it is below the
        setting's minimum."""
        if self.minimum is not None and value is not None and value < self.minimum:
            raise ConfigError(f"{key} must be at least {self.minimum}, got {value!r}")
        return value


_SEED = _Setting(int, 0, "RNG seed (nonnegative integer)", minimum=0)
_OUT = _Setting(str, "georisk-out", "output directory")
_THREADS = _Setting(
    int, 1,
    "worker threads for simulation replicates (results unchanged); "
    "riskmap and fit accept it, the bootstrap is parallel through BLAS",
    minimum=1,
)
# the settings of the commands that fit an input data set
_DATA = {
    "input": _Setting(str, None, "input CSV with header x,y,value"),
    "transform": _Setting(str, "none", "response transform", TRANSFORMS),
    "seed": _SEED,
    "out": _OUT,
    "threads": _THREADS,
    "grid": _Setting(str, "50x50", "prediction grid as NXxNY"),
    "svg": _Setting(bool, False, "emit SVG heatmaps"),
}

# every setting of every command, in flag order; a config file may give
# any of them, at its top level or under the command's name
_SETTINGS = {
    "riskmap": {
        **_DATA,
        "thresholds": _Setting(str, "1.0,2.0", "comma-separated threshold values",
                               listable=True),
        "replicates": _Setting(int, 1000, "bootstrap replicates B", minimum=1),
        "mode": _Setting(str, "corrected", "covariance mode", ("corrected", "residual")),
    },
    "fit": _DATA,
    "simulate": {
        "seed": dataclasses.replace(_SEED, default=20240),
        "out": _OUT,
        "threads": _THREADS,
        "scenario": _Setting(str, "table1", "scenario family",
                             ("table1", "table2", "table3", "custom")),
        "scale": _Setting(str, "desk", "study scale", ("desk", "full")),
        "n": _Setting(int, None, "sample size (perfect square)"),
        "N": _Setting(int, None, "number of field replicates"),
        "B": _Setting(int, None, "bootstrap replicates per map"),
        "range": _Setting(float, 0.5, "practical range (custom scenario)"),
        "sill": _Setting(float, 0.16, "total sill (custom scenario)"),
        "nugget_frac": _Setting(float, 0.25, "nugget as a fraction of the sill"),
        "design": _Setting(str, "regular", "sampling design", ("regular", "uniform")),
    },
    "synth-data": {
        "seed": _SEED,
        "out": _OUT,
        "n": _Setting(int, 1053, "number of sites"),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="georisk",
        description="Nonparametric geostatistical risk mapping",
    )
    parser.add_argument("--version", action="version", version=f"georisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, settings in _SETTINGS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        for key, s in settings.items():
            kind = (
                {"action": "store_const", "const": True} if s.type is bool
                else {"type": s.type, "choices": s.choices}
            )
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=s.help, **kind)
        p.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def _read_config(path, command: str) -> dict:
    """The config-file entries that apply to ``command``: the file's
    top-level values, overridden by its ``command`` section."""
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    entries = {k: v for k, v in loaded.items() if not isinstance(v, dict)}
    section = loaded.get(command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config entry {command!r} must be a JSON object")
    entries.update(section)
    return entries


def _resolve(args: argparse.Namespace) -> dict:
    """Each setting of the command from its flag, else from the config
    file (read as the flag reads it), else its default, checked against
    the setting's minimum before any input is read."""
    entries = _read_config(args.config, args.command)
    resolved = {}
    for key, setting in _SETTINGS[args.command].items():
        if getattr(args, key) is not None:
            value = getattr(args, key)
        elif key in entries:
            value = setting.read(key, entries[key])
        else:
            value = setting.default
        resolved[key] = setting.check(key, value)
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


def _fit_input(cfg: dict, command: str) -> tuple:
    """The preamble of ``riskmap`` and ``fit``: (dims, grid, fit) of the
    pipeline fitted to the input CSV, with the map grid over its sites."""
    if not cfg["input"]:
        raise ConfigError(f"{command} needs --input (or an input entry in --config)")
    dims = _parse_grid(cfg["grid"])
    t0 = time.perf_counter()
    sample = ingest_csv(cfg["input"], cfg["transform"])
    xs, ys = sample.locations[:, 0], sample.locations[:, 1]
    grid = make_regular_grid(
        [(float(xs.min()), float(xs.max())), (float(ys.min()), float(ys.max()))], dims
    )
    fit = fit_pipeline(sample)
    logger.info("pipeline fitted in %.2fs (n=%d)", time.perf_counter() - t0, sample.n)
    return dims, grid, fit


def cmd_riskmap(cfg: dict) -> int:
    """bootstrap exceedance-probability maps"""
    out = Path(cfg["out"])
    thresholds = _parse_thresholds(cfg["thresholds"])
    dims, grid, fit = _fit_input(cfg, "riskmap")
    t_fit = time.perf_counter()
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
    """trend, variogram and kriging diagnostics"""
    out = Path(cfg["out"])
    dims, grid, fit = _fit_input(cfg, "fit")
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
        side = math.isqrt(max(cfg["n"], 0))
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
    return [table1_scenario(
        scale,
        name=f"custom-{scale}",
        design=cfg["design"],
        nugget=frac * sill,
        partial_sill=(1.0 - frac) * sill,
        practical_range=cfg["range"],
        **overrides,
    )]


def cmd_simulate(cfg: dict) -> int:
    """Monte Carlo scenario study"""
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
    """write a synthetic input data set"""
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
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
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
