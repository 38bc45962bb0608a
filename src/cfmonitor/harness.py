"""Closed-loop experiment harness.

Wires the simulation, the per-window posterior estimation, and the
strategy layer into one deterministic run, and writes all artifacts
(trajectories, estimation reports, decision logs, summaries) as
plot-ready CSV/JSON files.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import monitor, plant
from .estimator import (
    GaussianPrior,
    PosteriorEstimate,
    SgldHyper,
    batch_from_series,
    sgld_run,
    update_prior,
)
from .monitor import MonitorPolicy, StrategyDecision
from .plant import ControllerConfig, PlantParams, Trajectory, VehicleState

__all__ = [
    "LeaderSegment",
    "SyntheticLeaderSpec",
    "ScenarioConfig",
    "WindowRecord",
    "RunReport",
    "load_leader",
    "read_csv_columns",
    "save_trajectory",
    "smooth_acceleration",
    "synthetic_leader",
    "run_closed_loop",
    "emit_outputs",
    "estimate_record",
    "default_scenario",
]

LEADER_COLUMNS = ("time", "position", "speed", "accel")
FOLLOWER_COLUMNS = ("time", "position", "speed", "accel", "jerk", "demanded_accel")
OVERLAY_COLUMNS = ("time", "leader_speed", "leader_accel", "follower_speed",
                   "follower_accel")


@dataclass(frozen=True)
class LeaderSegment:
    duration: float
    accel: float


@dataclass(frozen=True)
class SyntheticLeaderSpec:
    segments: tuple[LeaderSegment, ...]
    v0: float = 20.0
    x0: float = 0.0
    t_s: float = 0.01


@dataclass
class ScenarioConfig:
    controller: ControllerConfig
    schedule: list[tuple[float, PlantParams]]
    leader_csv: str | None = None
    leader_spec: SyntheticLeaderSpec | None = None
    smoothing_width: float = 0.0
    init_follower: VehicleState | None = None  # default: spacing equilibrium
    window_length: float = 2.0
    sgld: SgldHyper = field(default_factory=SgldHyper)
    policy: MonitorPolicy = field(default_factory=MonitorPolicy)
    prior_mean: tuple[float, float] = (1.0, 0.3)
    prior_variance: float = 10.0
    rolling_lambda: float = 1.0
    strategy_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if (self.leader_csv is None) == (self.leader_spec is None):
            raise ValueError("specify exactly one of leader_csv / leader_spec")
        steps = self.window_length / self.controller.t_s  # inf for a tiny t_s
        if (self.window_length <= 0 or not math.isfinite(steps)
                or abs(steps - round(steps)) > 1e-9):
            raise ValueError("window_length must be a positive multiple of t_s")


@dataclass
class WindowRecord:
    """One estimation window: prior in, posterior out, decision taken."""

    index: int
    t_start: float
    t_end: float
    prior_mean: tuple[float, float]
    prior_variance: float
    estimate: PosteriorEstimate
    decision: StrategyDecision
    applied: bool


@dataclass
class RunReport:
    leader: Trajectory
    follower: plant.SimulationResult
    windows: list[WindowRecord]
    window_length: float
    switch_time: float | None
    collision_time: float | None
    post_switch_accel_rms: float
    max_abs_jerk: float
    min_gap: float


# characters on which np.loadtxt and the csv/float() row loop can disagree:
# csv quoting, NUL, and the separators \x1c-\x1f, which numpy strips as
# whitespace around a number but float() rejects
_ROW_LOOP_ONLY = '"\0\x1c\x1d\x1e\x1f'


def read_csv_columns(path, columns) -> np.ndarray:
    """Read the named float columns of a headed CSV file.

    Returns an ``(rows, len(columns))`` array.  A data row is valid when
    ``float()`` accepts each named cell as `csv.reader` splits it and the
    value is finite; other cells are ignored.  Raises ValueError for an
    empty file, missing columns, or the first malformed or non-finite row,
    by its number in the file.
    Well-formed files are parsed with `np.loadtxt`; whenever it fails or
    could disagree, the row loop decides."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    idx = [header.index(c) for c in columns]
    text = "".join(lines)
    # a blank first row is malformed; checking it here also keeps loadtxt
    # from warning about a file of blank lines
    if (len(lines) > 1 and lines[1].strip()
            and not any(c in text for c in _ROW_LOOP_ONLY)):
        try:
            data = np.loadtxt(lines[1:], delimiter=",", usecols=idx,
                              comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            # loadtxt skips blank lines, which the row loop rejects; the
            # row loop also names the first non-finite row
            if len(data) == len(lines) - 1 and np.isfinite(data).all():
                return data
    rows = []
    for lineno, row in enumerate(reader, start=2):
        try:
            rows.append([float(row[i]) for i in idx])
        except (ValueError, IndexError):
            raise ValueError(f"{path}: malformed row {lineno}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"{path}: non-finite value in row {lineno}")
    return np.array(rows, dtype=float).reshape(len(rows), len(idx))


def load_leader(path) -> Trajectory:
    """Read and validate a leader trajectory CSV (uniform sampling,
    columns time,position,speed,accel)."""
    data = read_csv_columns(path, LEADER_COLUMNS)
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    traj = Trajectory(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
    traj.check_uniform(traj.t_s)
    return traj


def save_trajectory(traj: Trajectory, path) -> None:
    _write_float_csvs([(path, LEADER_COLUMNS,
                        (traj.time, traj.position, traj.speed, traj.accel))])


def smooth_acceleration(traj: Trajectory, kernel_width: float) -> Trajectory:
    """Gaussian-smooth the acceleration profile (std = kernel_width
    seconds, truncated at 3 sigma) and re-integrate speed and position so
    the trajectory stays kinematically consistent.  Width 0 is identity."""
    if kernel_width < 0:
        raise ValueError("kernel_width must be non-negative")
    if kernel_width == 0 or len(traj) < 2:
        return Trajectory(traj.time.copy(), traj.position.copy(),
                          traj.speed.copy(), traj.accel.copy())
    t_s = traj.t_s
    m = max(1, int(math.ceil(3 * kernel_width / t_s)))
    offsets = np.arange(-m, m + 1) * t_s
    kernel = np.exp(-0.5 * (offsets / kernel_width) ** 2)
    kernel /= kernel.sum()
    # renormalize at the edges so constants pass through unchanged
    num = np.convolve(traj.accel, kernel, mode="same")
    den = np.convolve(np.ones_like(traj.accel), kernel, mode="same")
    accel = num / den
    speed = np.empty_like(accel)
    position = np.empty_like(accel)
    speed[0] = traj.speed[0]
    position[0] = traj.position[0]
    for i in range(len(accel) - 1):
        speed[i + 1] = max(0.0, speed[i] + t_s * accel[i])
        position[i + 1] = position[i] + t_s * speed[i]
    return Trajectory(traj.time.copy(), position, speed, accel)


def synthetic_leader(spec: SyntheticLeaderSpec) -> Trajectory:
    """Piecewise-constant-acceleration leader, integrated exactly."""
    if not spec.segments or sum(s.duration for s in spec.segments) <= 0:
        raise ValueError("leader spec has zero total duration")
    t_s = spec.t_s
    # breakpoints and exact (v, x) at each segment start
    v, x = spec.v0, spec.x0
    starts = [0.0]
    states = [(v, x)]
    for seg in spec.segments:
        if seg.duration <= 0:
            raise ValueError("segment durations must be positive")
        v_end = v + seg.accel * seg.duration
        if v_end < 0 or v < 0:
            raise ValueError("leader speed would become negative")
        x += v * seg.duration + 0.5 * seg.accel * seg.duration**2
        v = v_end
        starts.append(starts[-1] + seg.duration)
        states.append((v, x))
    total = starts[-1]
    n = int(round(total / t_s)) + 1
    time = np.arange(n) * t_s
    position = np.empty(n)
    speed = np.empty(n)
    accel = np.empty(n)
    seg_i = 0
    for i, t in enumerate(time):
        while seg_i + 1 < len(spec.segments) and t >= starts[seg_i + 1] - 1e-12:
            seg_i += 1
        v0, x0 = states[seg_i]
        a = spec.segments[seg_i].accel
        dt = t - starts[seg_i]
        accel[i] = a
        speed[i] = max(0.0, v0 + a * dt)
        position[i] = x0 + v0 * dt + 0.5 * a * dt**2
    return Trajectory(time, position, speed, accel)


def _window_seed(base_seed: int, window: int) -> int:
    return (base_seed * 1_000_003 + 7919 * (window + 1)) % 2**32


def _resolve_leader(scenario: ScenarioConfig) -> Trajectory:
    if scenario.leader_csv is not None:
        leader = load_leader(scenario.leader_csv)
    else:
        leader = synthetic_leader(scenario.leader_spec)
    if scenario.smoothing_width > 0:
        leader = smooth_acceleration(leader, scenario.smoothing_width)
    return leader


def run_closed_loop(scenario: ScenarioConfig) -> RunReport:
    """Simulate window by window: estimate the dynamics parameters from
    each completed window, evaluate the strategy layer, and (when the
    engine is on) apply decisions at the window boundary.

    Fully deterministic per seed; the plant noise stream is independent of
    the estimator's, so an engine-off run traces the same trajectory as a
    run with no monitoring at all.
    """
    leader = _resolve_leader(scenario)
    cfg = scenario.controller  # strategy-layer view (decided targets)
    tau_active = cfg.tau_star  # slew-limited time gap actually driven
    plant.check_schedule(scenario.schedule, leader, cfg.t_s)

    ego = scenario.init_follower or plant.equilibrium_follower(leader.sample(0), cfg)
    plant_rng = np.random.default_rng(scenario.seed)
    win_steps = int(round(scenario.window_length / cfg.t_s))
    n = len(leader)
    n_windows = (n - 1) // win_steps

    pieces: list[plant.SimulationResult] = []
    windows: list[WindowRecord] = []
    prior = GaussianPrior(scenario.prior_mean, scenario.prior_variance)
    collision_time = None
    start = 0
    w = 0
    while start < n and collision_time is None:
        stop = min(start + win_steps, n)
        active_cfg = (cfg if tau_active == cfg.tau_star
                      else replace(cfg, tau_star=tau_active))
        piece = plant._simulate_inner(
            leader, active_cfg, scenario.schedule, ego, plant_rng, start, stop
        )
        pieces.append(piece)
        collision_time = piece.collision_time
        if collision_time is not None or len(piece) < stop - start:
            break
        ego = piece.final_state
        complete = stop - start == win_steps and w < n_windows
        if complete:
            hyper = replace(scenario.sgld, seed=_window_seed(scenario.seed, w))
            batch = batch_from_series(
                piece.accel, piece.demanded_accel, cfg.t_s,
                t_start=float(piece.time[0]),
            )
            estimate = sgld_run(batch, prior, hyper)
            decision = monitor.evaluate(estimate, cfg, scenario.policy)
            applied = False
            if scenario.strategy_enabled and decision.action is not monitor.Action.NONE:
                cfg = monitor.apply_decision(cfg, decision)
                applied = True
            windows.append(WindowRecord(
                w, float(piece.time[0]), float(piece.time[0]) + scenario.window_length,
                prior.mean, prior.variance, estimate, decision, applied,
            ))
            if not estimate.low_confidence:
                prior = update_prior(estimate, scenario.rolling_lambda)
            w += 1
            max_step = scenario.policy.tau_star_slew * scenario.window_length
            if tau_active < cfg.tau_star:
                tau_active = min(cfg.tau_star, tau_active + max_step)
            elif tau_active > cfg.tau_star:
                tau_active = max(cfg.tau_star, tau_active - max_step)
        start = stop

    follower = _concat_results(pieces, collision_time)
    switch_time = _first_switch(scenario.schedule)
    return RunReport(
        leader=leader,
        follower=follower,
        windows=windows,
        window_length=scenario.window_length,
        switch_time=switch_time,
        collision_time=collision_time,
        post_switch_accel_rms=_accel_rms(follower, switch_time),
        max_abs_jerk=float(np.max(np.abs(follower.jerk))) if len(follower) else 0.0,
        min_gap=_min_gap(leader, follower),
    )


def _concat_results(
    pieces: list[plant.SimulationResult], collision_time: float | None
) -> plant.SimulationResult:
    if not pieces:
        empty = np.empty(0)
        return plant.SimulationResult(empty, empty, empty, empty, empty, empty,
                                      collision_time)
    return plant.SimulationResult(
        np.concatenate([p.time for p in pieces]),
        np.concatenate([p.position for p in pieces]),
        np.concatenate([p.speed for p in pieces]),
        np.concatenate([p.accel for p in pieces]),
        np.concatenate([p.jerk for p in pieces]),
        np.concatenate([p.demanded_accel for p in pieces]),
        collision_time,
    )


def _first_switch(schedule: list[tuple[float, PlantParams]]) -> float | None:
    return schedule[1][0] if len(schedule) >= 2 else None


def _accel_rms(follower: plant.SimulationResult, switch_time: float | None) -> float:
    if len(follower) == 0:
        return 0.0
    accel = follower.accel
    if switch_time is not None:
        accel = accel[follower.time >= switch_time]
    if len(accel) == 0:
        return 0.0
    return float(np.sqrt(np.mean(accel**2)))


def _min_gap(leader: Trajectory, follower: plant.SimulationResult) -> float:
    if len(follower) == 0:
        return math.inf
    gaps = leader.position[: len(follower)] - follower.position
    return float(np.min(gaps))


# ---------------------------------------------------------------------------
# output emission

# rows formatted per block: a block's strings (up to 9 columns x 512 rows)
# stay well under a MB, where a whole 60 000-row run would take tens of MB
_EMIT_BLOCK = 512


def _write_float_csvs(tables) -> None:
    """Write CSV files of float columns, byte for byte as `csv.writer` does
    with ``repr(float(v))`` cells and ``\\r\\n`` line ends.

    ``tables`` holds ``(path, header, columns)``; a file has as many rows
    as its shortest column.  All files are written in one pass over blocks
    of rows, and a column shared by several files (the same array object)
    is formatted once per block."""
    columns = {id(col): np.asarray(col, dtype=float)
               for _, _, cols in tables for col in cols}
    rows = [min(len(col) for col in cols) for _, _, cols in tables]
    files = []
    try:
        for path, header, _ in tables:
            files.append(open(path, "w", newline=""))
            files[-1].write(",".join(header) + "\r\n")
        for b0 in range(0, max(rows), _EMIT_BLOCK):
            live = [(fh, cols) for fh, n, (_, _, cols) in zip(files, rows, tables)
                    if n > b0]
            keys = {id(col) for _, cols in live for col in cols}
            cells = {key: list(map(repr, columns[key][b0:b0 + _EMIT_BLOCK].tolist()))
                     for key in keys}
            for fh, cols in live:
                # zip stops at the file's shortest column
                lines = zip(*(cells[id(col)] for col in cols))
                fh.write("\r\n".join(map(",".join, lines)) + "\r\n")
    finally:
        for fh in files:
            fh.close()


def estimate_record(e: PosteriorEstimate) -> dict:
    """The JSON fields of a posterior estimate, as both `estimates.jsonl`
    and ``cfmonitor estimate`` write them."""
    return {
        "posterior_mean": {"K_L": e.K_L, "T_L": e.T_L},
        "covariance": e.covariance.tolist(),
        "credible_95": {"K_L": e.credible[0].tolist(),
                        "T_L": e.credible[1].tolist()},
        "sample_count": len(e.samples),
        "low_confidence": e.low_confidence,
    }


def _estimates_jsonl(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        for rec in report.windows:
            fh.write(json.dumps({
                "window": rec.index,
                "t_start": rec.t_start,
                "t_end": rec.t_end,
                "prior_mean": list(rec.prior_mean),
                "prior_variance": rec.prior_variance,
                **estimate_record(rec.estimate),
            }) + "\n")


def _decisions_jsonl(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        for rec in report.windows:
            d = rec.decision
            v = d.stability_verdict
            fh.write(json.dumps({
                "window": rec.index,
                "t_end": rec.t_end,
                "anomaly": d.anomaly,
                "action": d.action.value,
                "applied": rec.applied,
                "margins": None if v is None else list(v.margins),
                "locally_stable": None if v is None else v.locally_stable,
                "string_stable": None if v is None else v.string_stable,
                "rationale": d.rationale,
                "new_config": {
                    "k_s": d.new_config.k_s, "k_v": d.new_config.k_v,
                    "k_a": d.new_config.k_a, "tau_star": d.new_config.tau_star,
                    "T_L_nominal": d.new_config.T_L_nominal,
                    "K_L_nominal": d.new_config.K_L_nominal,
                },
            }) + "\n")


def _estimate_timeline_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_end", "K_L_mean", "K_L_lo", "K_L_hi",
                    "T_L_mean", "T_L_lo", "T_L_hi", "anomaly"])
        for rec in report.windows:
            e = rec.estimate
            w.writerow([repr(rec.t_end),
                        repr(e.K_L), repr(float(e.credible[0, 0])), repr(float(e.credible[0, 1])),
                        repr(e.T_L), repr(float(e.credible[1, 0])), repr(float(e.credible[1, 1])),
                        int(rec.decision.anomaly)])


def emit_outputs(report: RunReport, out_dir) -> list[str]:
    """Write all run artifacts into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    names = ["leader.csv", "follower.csv", "estimates.jsonl", "decisions.jsonl",
             "estimate_timeline.csv", "overlay.csv", "summary.json"]
    paths = {name: os.path.join(out_dir, name) for name in names}
    lead, f = report.leader, report.follower
    n = len(f)
    # the follower is sampled on the leader's timestamps, so its time column
    # is normally the leader's own prefix and need not be formatted twice
    time = f.time
    if time.dtype == lead.time.dtype and time.tobytes() == lead.time[:n].tobytes():
        time = lead.time
    try:
        _write_float_csvs([
            (paths["leader.csv"], LEADER_COLUMNS,
             (lead.time, lead.position, lead.speed, lead.accel)),
            (paths["follower.csv"], FOLLOWER_COLUMNS,
             (time, f.position, f.speed, f.accel, f.jerk, f.demanded_accel)),
            (paths["overlay.csv"], OVERLAY_COLUMNS,
             (time, lead.speed, lead.accel, f.speed, f.accel)),
        ])
        _estimates_jsonl(report, paths["estimates.jsonl"])
        _decisions_jsonl(report, paths["decisions.jsonl"])
        _estimate_timeline_csv(report, paths["estimate_timeline.csv"])
        with open(paths["summary.json"], "w") as fh:
            json.dump({
                "samples": len(report.follower),
                "windows": len(report.windows),
                "window_length": report.window_length,
                "switch_time": report.switch_time,
                "collision_time": report.collision_time,
                "post_switch_accel_rms": report.post_switch_accel_rms,
                "max_abs_jerk": report.max_abs_jerk,
                "min_gap": report.min_gap,
                "anomalies": [rec.t_end for rec in report.windows
                              if rec.decision.anomaly],
            }, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out_dir}: {exc}") from exc
    return list(paths.values())


def default_leader_spec() -> SyntheticLeaderSpec:
    """60 s profile with braking/recovery pulses, one of which brackets
    the default switch time so the window right after the switch observes
    an excited response."""
    return SyntheticLeaderSpec(segments=(
        LeaderSegment(8.0, 0.0),
        LeaderSegment(3.0, -1.5),
        LeaderSegment(4.5, 1.0),
        LeaderSegment(9.5, 0.0),
        LeaderSegment(3.0, -1.5),
        LeaderSegment(4.5, 1.0),
        LeaderSegment(12.5, 0.0),
        LeaderSegment(3.0, -1.0),
        LeaderSegment(3.0, 1.0),
        LeaderSegment(9.0, 0.0),
    ), v0=20.0)


def default_scenario(seed: int = 0, strategy_enabled: bool = True) -> ScenarioConfig:
    """The default experiment: nominal plant until t=26 s, then a switch
    to degraded dynamics (T_L=1.5, K_L=0.5), 2 s estimation windows."""
    return ScenarioConfig(
        controller=ControllerConfig(),
        schedule=[
            (0.0, PlantParams(T_L_true=0.3, K_L_true=1.0, sigma_eps=0.05)),
            (26.0, PlantParams(T_L_true=1.5, K_L_true=0.5, sigma_eps=0.3)),
        ],
        leader_spec=default_leader_spec(),
        window_length=2.0,
        strategy_enabled=strategy_enabled,
        seed=seed,
    )
