"""Command-line entry point.

Subcommands: ``simulate`` (closed loop), ``estimate`` (offline posterior
estimation from a CSV of accel/demand logs), ``stability`` (verdict and
region sweep), ``synth`` (synthetic leader generation).

Exit codes: 0 success, 2 configuration error, 3 collision, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import stability
from .config import ConfigError, parse_config_file, scenario_from_config
from .estimator import GaussianPrior, SgldHyper, batch_from_series, sgld_run
from .harness import (
    default_leader_spec,
    default_scenario,
    emit_outputs,
    estimate_record,
    read_csv_columns,
    run_closed_loop,
    save_trajectory,
    synthetic_leader,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmonitor",
        description="Car-following simulation with online dynamics-parameter "
                    "estimation and stability monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the closed loop and write artifacts")
    sim.add_argument("--config", help="flat key=value scenario file")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--no-strategy", action="store_true",
                     help="log decisions without applying them")
    sim.add_argument("--window", type=float, metavar="SECS",
                     help="override the estimation window length")

    est = sub.add_parser("estimate", help="offline estimation from a log CSV")
    est.add_argument("csv", help="CSV with columns time,accel,demand")
    est.add_argument("--config", help="flat key=value scenario file (sgld.* keys)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", help="write the estimate JSON here instead of stdout")

    stab = sub.add_parser("stability", help="stability verdict and region sweep")
    stab.add_argument("--config", help="flat key=value scenario file")
    stab.add_argument("--sweep", nargs=2, metavar=("P1", "P2"),
                      help="sweep two of k_s,k_v,k_a,tau_star")
    stab.add_argument("--range", nargs=2, metavar=("LO:HI:N", "LO:HI:N"),
                      default=["0:5:101", "0:5:101"], help="grid specs per axis")
    stab.add_argument("--out", help="region CSV path (required with --sweep)")

    syn = sub.add_parser("synth", help="write the default synthetic leader CSV")
    syn.add_argument("--out", required=True, help="CSV path")
    return parser


def _load_scenario(args):
    if args.config:
        scenario = scenario_from_config(parse_config_file(args.config))
    else:
        scenario = default_scenario()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "no_strategy", False):
        overrides["strategy_enabled"] = False
    if getattr(args, "window", None) is not None:
        overrides["window_length"] = args.window
    # replace() re-runs ScenarioConfig's validation on the overridden values
    return replace(scenario, **overrides)


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    report = run_closed_loop(scenario)
    emit_outputs(report, args.out)
    print(json.dumps({
        "samples": len(report.follower),
        "windows": len(report.windows),
        "anomalies": sum(r.decision.anomaly for r in report.windows),
        "post_switch_accel_rms": report.post_switch_accel_rms,
        "collision_time": report.collision_time,
        "out": args.out,
    }))
    return EXIT_COLLISION if report.collision_time is not None else EXIT_OK


def _read_log_csv(path):
    data = read_csv_columns(path, ("time", "accel", "demand"))
    if len(data) < 3:
        raise ValueError(f"{path}: need at least 3 samples")
    t_s = float(data[1, 0] - data[0, 0])
    if t_s <= 0 or not np.allclose(np.diff(data[:, 0]), t_s, rtol=1e-6, atol=1e-9):
        raise ValueError(f"{path}: non-uniform time column")
    return data[:, 1], data[:, 2], t_s, float(data[0, 0])


def _cmd_estimate(args) -> int:
    accel, demand, t_s, t0 = _read_log_csv(args.csv)
    if args.config:
        scenario = scenario_from_config(parse_config_file(args.config))
        hyper, prior = scenario.sgld, GaussianPrior(scenario.prior_mean,
                                                    scenario.prior_variance)
    else:
        hyper, prior = SgldHyper(), GaussianPrior((1.0, 0.3), 10.0)
    batch = batch_from_series(accel, demand, t_s, t_start=t0)
    est = sgld_run(batch, prior, replace(hyper, seed=args.seed))
    payload = json.dumps(estimate_record(est), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; expected LO:HI:N") from None


def _cmd_stability(args) -> int:
    scenario = _load_scenario(args)
    cfg = scenario.controller
    verdict = stability.assess(cfg)
    print(json.dumps({
        "locally_stable": verdict.locally_stable,
        "string_stable": verdict.string_stable,
        "local_margins": list(verdict.local_margins),
        "string_margins": list(verdict.string_margins),
    }, indent=2))
    if args.sweep:
        if not args.out:
            raise ConfigError("--sweep requires --out for the region CSV")
        p1, p2 = args.sweep
        region = stability.stability_region(
            p1, _parse_grid(args.range[0]), p2, _parse_grid(args.range[1]), cfg
        )
        stability.region_to_csv(region, args.out)
        print(json.dumps({"region_csv": args.out,
                          "stable_cells": region.stable_cell_count()}))
    return EXIT_OK


def _cmd_synth(args) -> int:
    save_trajectory(synthetic_leader(default_leader_spec()), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "stability": _cmd_stability,
        "synth": _cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
