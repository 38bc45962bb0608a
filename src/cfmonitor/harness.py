"""Closed-loop experiment harness.

Wires the simulation, the per-window posterior estimation, and the
strategy layer into one deterministic run, and writes all artifacts
(trajectories, estimation reports, decision logs, summaries) as
plot-ready CSV/JSON files.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import monitor, plant
from .csvio import read_csv_columns, write_csv_columns
from .estimator import (
    GaussianPrior,
    PosteriorEstimate,
    SgldHyper,
    batch_from_series,
    sgld_run,
    update_prior,
)
from .monitor import MonitorPolicy, StrategyDecision
from .plant import ControllerConfig, PlantParams, Trajectory

__all__ = [
    "LeaderSegment",
    "SyntheticLeaderSpec",
    "ScenarioConfig",
    "WindowRecord",
    "RunReport",
    "load_leader",
    "save_trajectory",
    "smooth_acceleration",
    "synthetic_leader",
    "run_closed_loop",
    "emit_outputs",
    "estimate_record",
    "json_margins",
    "default_scenario",
]

LEADER_COLUMNS = ("time", "position", "speed", "accel")
FOLLOWER_COLUMNS = ("time", "position", "speed", "accel", "jerk", "demanded_accel")
OVERLAY_COLUMNS = ("time", "leader_speed", "leader_accel", "follower_speed",
                   "follower_accel")
TIMELINE_COLUMNS = ("t_end", "K_L_mean", "K_L_lo", "K_L_hi", "T_L_mean", "T_L_lo",
                    "T_L_hi", "anomaly")


@dataclass(frozen=True)
class LeaderSegment:
    duration: float
    accel: float


@dataclass(frozen=True)
class SyntheticLeaderSpec:
    segments: tuple[LeaderSegment, ...]
    v0: float = 20.0


@dataclass
class ScenarioConfig:
    controller: ControllerConfig
    schedule: list[tuple[float, PlantParams]]
    leader_csv: str | None = None
    leader_spec: SyntheticLeaderSpec | None = None
    smoothing_width: float = 0.0
    window_length: float = 2.0
    sgld: SgldHyper = field(default_factory=SgldHyper)
    policy: MonitorPolicy = field(default_factory=MonitorPolicy)
    prior: GaussianPrior = GaussianPrior((1.0, 0.3), 10.0)
    rolling_lambda: float = 1.0
    strategy_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if (self.leader_csv is None) == (self.leader_spec is None):
            raise ValueError("specify exactly one of leader_csv / leader_spec")
        steps = self.window_length / self.controller.t_s  # inf for a tiny t_s
        # a window's jerk is a finite difference, which needs two samples
        if (self.window_length <= 0 or not math.isfinite(steps)
                or abs(steps - round(steps)) > 1e-9 or round(steps) < 2):
            raise ValueError("window_length must be a positive multiple of t_s, "
                             "at least 2 steps")
        # checked here too, so a bad value fails before the run, not in it
        if not self.rolling_lambda > 0:
            raise ValueError("rolling_lambda must be positive")
        if 1.0 / self.rolling_lambda == math.inf:  # it becomes a prior variance
            raise ValueError(f"prior.rolling_lambda = {self.rolling_lambda:g} is "
                             "too small: its reciprocal overflows")
        if not self.smoothing_width >= 0:
            raise ValueError("smoothing_width must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # monitor.apply_decision refuses to shrink a gain, mid-run
        if self.policy.escalation_choice in (monitor.Escalation.GAINS,
                                             monitor.Escalation.BOTH):
            for name, g in zip(("k_s", "k_v", "k_a"), self.policy.gains_escalated):
                if abs(g) < abs(getattr(self.controller, name)):
                    raise ValueError(
                        f"escalated gain {name} = {g:g} is smaller in magnitude "
                        f"than the controller's {getattr(self.controller, name):g}")


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


def load_leader(path) -> Trajectory:
    """Read and validate a leader trajectory CSV (uniform sampling,
    non-negative speed, columns time,position,speed,accel)."""
    data = read_csv_columns(path, LEADER_COLUMNS)
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    plant.sampling_step(data[:, 0], path=path)
    negative = np.flatnonzero(data[:, 2] < 0)  # row 1 is the header
    if len(negative):
        raise ValueError(f"{path}: negative speed in row {negative[0] + 2}")
    return Trajectory(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def save_trajectory(traj: Trajectory, path) -> None:
    write_csv_columns([(path, LEADER_COLUMNS,
                        (traj.time, traj.position, traj.speed, traj.accel))])


def smooth_acceleration(traj: Trajectory, kernel_width: float) -> Trajectory:
    """Gaussian-smooth the acceleration profile (std = kernel_width
    seconds, truncated at 3 sigma) and re-integrate speed and position so
    the trajectory stays kinematically consistent.  Width 0 is identity."""
    if not kernel_width >= 0:
        raise ValueError("kernel_width must be non-negative")
    if kernel_width == 0 or len(traj) < 2:
        return Trajectory(traj.time.copy(), traj.position.copy(),
                          traj.speed.copy(), traj.accel.copy())
    t_s = plant.sampling_step(traj.time)
    half = 3 * kernel_width / t_s  # samples each side; inf for a huge width
    # np.convolve's "same" output is as long as the longer input
    if not half <= (len(traj) - 1) // 2:
        raise ValueError(f"smoothing kernel of width {kernel_width:g} s spans "
                         "more than the trajectory (3 widths each side)")
    m = max(1, int(math.ceil(half)))
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


def synthetic_leader(spec: SyntheticLeaderSpec,
                     t_s: float = ControllerConfig.t_s) -> Trajectory:
    """Piecewise-constant-acceleration leader, integrated exactly and
    sampled every ``t_s`` seconds."""
    if not spec.segments or sum(s.duration for s in spec.segments) <= 0:
        raise ValueError("leader spec has zero total duration")
    # breakpoints and exact (v, x) at each segment start; x starts at 0 m
    v, x = spec.v0, 0.0
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
    # the segment of each sample: a sample within 1e-12 s of a segment's
    # start belongs to that segment
    which = np.searchsorted(np.array(starts[1:-1]) - 1e-12, time, side="right")
    v0, x0 = np.array(states[:-1])[which].T
    accel = np.array([segment.accel for segment in spec.segments])[which]
    dt = time - np.array(starts[:-1])[which]
    speed = v0 + accel * dt
    # max(0.0, v) of each sample, -0.0 and NaN included
    speed = np.where(speed > 0.0, speed, 0.0)
    position = x0 + v0 * dt + 0.5 * accel * np.power(dt, 2.0)
    return Trajectory(time, position, speed, accel)


def _window_seed(base_seed: int, window: int) -> int:
    return (base_seed * 1_000_003 + 7919 * (window + 1)) % 2**32


def _resolve_leader(scenario: ScenarioConfig) -> Trajectory:
    if scenario.leader_csv is not None:
        leader = load_leader(scenario.leader_csv)
    else:
        leader = synthetic_leader(scenario.leader_spec, scenario.controller.t_s)
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

    ego = plant.equilibrium_follower(leader, cfg)
    plant_rng = np.random.default_rng(scenario.seed)
    win_steps = int(round(scenario.window_length / cfg.t_s))
    n = len(leader)
    n_windows = (n - 1) // win_steps
    if n_windows == 0:  # the monitor would never run
        raise ValueError(f"window.length = {scenario.window_length:g} s is longer "
                         f"than the leader's {leader.time[-1] - leader.time[0]:g} s")

    # the follower's columns, in SimulationResult's order, filled window by
    # window up to `filled`
    follower_cols = np.empty((6, n))
    filled = 0
    windows: list[WindowRecord] = []
    prior = scenario.prior
    collision_time = None
    start = 0
    w = 0
    while start < n:
        stop = min(start + win_steps, n)
        active_cfg = (cfg if tau_active == cfg.tau_star
                      else replace(cfg, tau_star=tau_active))
        piece = plant._simulate_inner(
            leader, active_cfg, scenario.schedule, ego, plant_rng, start, stop
        )
        follower_cols[:, filled:filled + len(piece)] = (
            piece.time, piece.position, piece.speed, piece.accel, piece.jerk,
            piece.demanded_accel)
        filled += len(piece)
        collision_time = piece.collision_time
        if collision_time is not None:
            break
        ego = piece.final_state
        if w < n_windows:
            batch = batch_from_series(
                piece.accel, piece.demanded_accel, cfg.t_s,
                t_start=float(piece.time[0]),
            )
            estimate = sgld_run(batch, prior, replace(
                scenario.sgld, seed=_window_seed(scenario.seed, w)))
            decision = monitor.evaluate(estimate, cfg, scenario.policy)
            applied = False
            if scenario.strategy_enabled and decision.action is not monitor.Action.NONE:
                cfg = monitor.apply_decision(cfg, decision)
                applied = True
            windows.append(WindowRecord(
                w, float(piece.time[0]), float(piece.time[0]) + scenario.window_length,
                prior.mean, prior.variance, estimate, decision, applied,
            ))
            # no verdict: the estimate is low-confidence or no valid
            # configuration could be built from it, so it seeds no prior
            if decision.stability_verdict is not None:
                prior = update_prior(estimate, scenario.rolling_lambda)
            w += 1
            max_step = scenario.policy.tau_star_slew * scenario.window_length
            # apply_decision never lowers cfg.tau_star, so the slew only rises
            if tau_active < cfg.tau_star:
                tau_active = min(cfg.tau_star, tau_active + max_step)
        start = stop

    follower = plant.SimulationResult(*follower_cols[:, :filled], collision_time)
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


def _first_switch(schedule: list[tuple[float, PlantParams]]) -> float | None:
    return schedule[1][0] if len(schedule) >= 2 else None


def _accel_rms(follower: plant.SimulationResult, switch_time: float | None) -> float:
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


def json_margins(margins) -> list:
    """Stability margins for strict JSON: a non-finite margin, which only an
    overflowing configuration gives, is written as null."""
    return [m if math.isfinite(m) else None for m in margins]


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
                "margins": None if v is None else json_margins(v.margins),
                "locally_stable": None if v is None else v.locally_stable,
                "string_stable": None if v is None else v.string_stable,
                "rationale": d.rationale,
                "new_config": {
                    "k_s": d.new_config.k_s, "k_v": d.new_config.k_v,
                    "k_a": d.new_config.k_a, "tau_star": d.new_config.tau_star,
                    "T_L_nominal": d.new_config.T_L_nominal,
                    "K_L_nominal": d.new_config.K_L_nominal,
                },
            }, allow_nan=False) + "\n")


def emit_outputs(report: RunReport, out_dir) -> list[str]:
    """Write all run artifacts into ``out_dir``; returns the paths.  The four
    CSV tables are written by one `write_csv_columns` call, one fork at most."""
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
    est = np.array([(rec.t_end, rec.estimate.K_L, *rec.estimate.credible[0],
                     rec.estimate.T_L, *rec.estimate.credible[1])
                    for rec in report.windows]).reshape(-1, 7)
    anomaly = np.array([rec.decision.anomaly for rec in report.windows], dtype=int)
    try:
        write_csv_columns([
            (paths["leader.csv"], LEADER_COLUMNS,
             (lead.time, lead.position, lead.speed, lead.accel)),
            (paths["follower.csv"], FOLLOWER_COLUMNS,
             (time, f.position, f.speed, f.accel, f.jerk, f.demanded_accel)),
            (paths["overlay.csv"], OVERLAY_COLUMNS,
             (time, lead.speed, lead.accel, f.speed, f.accel)),
            (paths["estimate_timeline.csv"], TIMELINE_COLUMNS, (*est.T, anomaly)),
        ])
        _estimates_jsonl(report, paths["estimates.jsonl"])
        _decisions_jsonl(report, paths["decisions.jsonl"])
        with open(paths["summary.json"], "w") as fh:
            json.dump({
                "samples": len(report.follower),
                "windows": len(report.windows),
                "window_length": report.window_length,
                "switch_time": report.switch_time,
                "collision_time": report.collision_time,
                "post_switch_accel_rms": report.post_switch_accel_rms,
                "max_abs_jerk": report.max_abs_jerk,
                # inf when the run has no follower sample
                "min_gap": report.min_gap if math.isfinite(report.min_gap) else None,
                "anomalies": [rec.t_end for rec in report.windows
                              if rec.decision.anomaly],
            }, fh, indent=2, allow_nan=False)
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
