"""Command-line entry point.

Subcommands: ``simulate`` (closed loop), ``estimate`` (offline posterior
estimation from a CSV of accel/demand logs), ``stability`` (verdict and
region sweep), ``synth`` (synthetic leader generation).

Exit codes: 0 success, 2 configuration error (a run too large for memory
included), 3 collision, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import plant, stability
from .config import ConfigError, parse_config_file, scenario_from_config
from .csvio import read_csv_columns, write_csv_columns
from .estimator import batch_from_series, sgld_run
from .harness import (
    default_leader_spec,
    default_scenario,
    emit_outputs,
    estimate_record,
    json_margins,
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
    est.add_argument("--config", help="flat key=value scenario file (sgld.*, "
                                      "prior.* and seed keys)")
    est.add_argument("--seed", type=int, help="override the scenario seed")
    est.add_argument("--out", help="write the estimate JSON here instead of stdout")

    stab = sub.add_parser("stability", help="stability verdict and region sweep")
    # argparse's private matcher, widened so that a --range spec such as
    # -3:0:31 is a value, not an option (test_negative_range_bound checks it)
    import re
    stab._negative_number_matcher = re.compile(r"^-\.?\d")
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
    t_s = plant.sampling_step(data[:, 0], path=path)
    return data[:, 1], data[:, 2], t_s, float(data[0, 0])


def _cmd_estimate(args) -> int:
    scenario = _load_scenario(args)
    accel, demand, t_s, t0 = _read_log_csv(args.csv)
    batch = batch_from_series(accel, demand, t_s, t_start=t0)
    est = sgld_run(batch, scenario.prior, replace(scenario.sgld, seed=scenario.seed))
    payload = json.dumps(estimate_record(est), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


# cells of a --sweep grid: 1000 x 1000 takes about 0.2 GB and writes about
# 180 MB of region CSV; checked before any grid array is made
MAX_GRID_CELLS = 1_000_000


def _parse_grid(spec: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; expected LO:HI:N") from None
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"bad grid spec {spec!r}; LO and HI must be finite")
    # an empty axis would also let the other one past the cell limit at any size
    if n < 1:
        raise ConfigError(f"bad grid spec {spec!r}; N must be at least 1")
    return lo, hi, n


def _cmd_stability(args) -> int:
    scenario = _load_scenario(args)
    (lo1, hi1, n1), (lo2, hi2, n2) = map(_parse_grid, args.range)
    cfg = scenario.controller
    # the sweep's arguments are checked, and its region computed and
    # written, before anything is printed
    if args.sweep:
        if not args.out:
            raise ConfigError("--sweep requires --out for the region CSV")
        p1, p2 = args.sweep
        if n1 * n2 > MAX_GRID_CELLS:
            raise ConfigError(f"--range grid of {n1} x {n2} cells exceeds the "
                              f"limit of {MAX_GRID_CELLS} cells")
        region = stability.stability_region(
            p1, np.linspace(lo1, hi1, n1), p2, np.linspace(lo2, hi2, n2), cfg
        )
        # one row per cell, the second parameter varying fastest
        g1, g2 = np.meshgrid(region.grid1, region.grid2, indexing="ij")
        margins = region.margins.reshape(g1.size, -1).T
        write_csv_columns([(args.out, [
            p1, p2, "locally_stable", "string_stable",
            *(f"margin_{i}" for i in range(1, len(margins) + 1)),
        ], (g1.ravel(), g2.ravel(), region.locally_stable.ravel().astype(int),
            region.string_stable.ravel().astype(int), *margins))])
    verdict = stability.assess(cfg)
    print(json.dumps({
        "locally_stable": verdict.locally_stable,
        "string_stable": verdict.string_stable,
        "local_margins": json_margins(verdict.local_margins),
        "string_margins": json_margins(verdict.string_margins),
    }, indent=2, allow_nan=False))
    if args.sweep:
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
    except MemoryError as exc:
        # numpy names the allocation that failed; Python's own is bare
        print(f"error: not enough memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
