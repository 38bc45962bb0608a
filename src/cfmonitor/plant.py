"""Leader-follower longitudinal simulation.

Upper level: linear feedback on (spacing deviation, speed difference,
acceleration) under a constant-time-gap spacing policy.  Lower level:
first-order actuation dynamics with lag T_L and realization ratio K_L,
integrated with explicit Euler at a fixed step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CollisionError",
    "ControllerConfig",
    "PlantParams",
    "VehicleState",
    "TrajectorySample",
    "Trajectory",
    "SimulationResult",
    "state_vector",
    "control_command",
    "actuation_command",
    "glvd_jerk",
    "step",
    "check_schedule",
    "simulate",
]


class CollisionError(RuntimeError):
    """Gap to the leader became non-positive."""

    def __init__(self, time: float | None = None):
        self.time = time
        when = "" if time is None else f" at t={time:.3f} s"
        super().__init__(f"collision: non-positive gap to leader{when}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class ControllerConfig:
    """Controller settings: feedback gains, spacing policy, and the lower
    level's current estimate of the actuation dynamics with its bounds.

    ``T_L_ref``/``K_L_ref`` are the reference dynamics the lower level is
    designed around.  When the nominal estimates equal the references the
    actuation command is the raw demanded acceleration; when they differ
    the lower level pre-compensates so the realized response approaches
    the reference behavior (this is what makes a lower-level parameter
    update change the closed loop at all).
    """

    k_s: float = 1.5
    k_v: float = 1.5
    k_a: float = -0.8
    tau_star: float = 1.0
    delta_star: float = 5.0
    T_L_nominal: float = 0.3
    K_L_nominal: float = 1.0
    T_L_bounds: tuple[float, float] = (0.1, 0.4)
    K_L_bounds: tuple[float, float] = (0.7, 1.0)
    t_s: float = 0.01
    u_min: float = -5.0
    u_max: float = 3.0
    T_L_ref: float | None = None
    K_L_ref: float | None = None
    comp_lead_max: float = 2.0
    comp_gain_max: float = 3.0

    def __post_init__(self):
        _require(self.t_s > 0, "t_s must be positive")
        _require(self.tau_star > 0, "tau_star must be positive")
        _require(self.delta_star >= 0, "delta_star must be non-negative")
        tl, tu = self.T_L_bounds
        kl, ku = self.K_L_bounds
        _require(0 < tl <= tu, "T_L_bounds must satisfy 0 < lower <= upper")
        _require(0 < kl <= ku, "K_L_bounds must satisfy 0 < lower <= upper")
        _require(tl <= self.T_L_nominal <= tu, "T_L_nominal outside T_L_bounds")
        _require(kl <= self.K_L_nominal <= ku, "K_L_nominal outside K_L_bounds")
        _require(self.u_min < self.u_max, "u_min must be below u_max")
        if self.T_L_ref is None:
            object.__setattr__(self, "T_L_ref", self.T_L_nominal)
        if self.K_L_ref is None:
            object.__setattr__(self, "K_L_ref", self.K_L_nominal)
        _require(self.T_L_ref > 0 and self.K_L_ref > 0, "reference dynamics must be positive")
        _require(self.comp_lead_max >= 1, "comp_lead_max must be at least 1")
        _require(self.comp_gain_max >= 1, "comp_gain_max must be at least 1")


@dataclass(frozen=True)
class PlantParams:
    """True (possibly drifting) actuation dynamics driving the simulated
    vehicle, plus the std of the additive jerk noise."""

    T_L_true: float
    K_L_true: float
    sigma_eps: float = 0.0

    def __post_init__(self):
        _require(self.T_L_true > 0, "T_L_true must be positive")
        _require(self.K_L_true > 0, "K_L_true must be positive")
        _require(self.sigma_eps >= 0, "sigma_eps must be non-negative")


@dataclass(frozen=True)
class VehicleState:
    position: float
    speed: float
    accel: float = 0.0
    demanded_accel: float = 0.0

    def __post_init__(self):
        _require(self.speed >= 0, "speed must be non-negative")


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    position: float
    speed: float
    accel: float


@dataclass
class Trajectory:
    """Uniformly sampled trajectory stored as column arrays."""

    time: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        n = len(self.time)
        _require(n >= 1, "trajectory must contain at least one sample")
        for name in ("position", "speed", "accel"):
            _require(len(getattr(self, name)) == n, f"{name} length mismatch")

    def __len__(self) -> int:
        return len(self.time)

    @property
    def t_s(self) -> float:
        _require(len(self) >= 2, "sampling step undefined for a single sample")
        return float(self.time[1] - self.time[0])

    def sample(self, i: int) -> TrajectorySample:
        return TrajectorySample(
            float(self.time[i]), float(self.position[i]),
            float(self.speed[i]), float(self.accel[i]),
        )

    def check_uniform(self, t_s: float, rtol: float = 1e-6) -> None:
        if len(self) < 2:
            return
        dt = np.diff(self.time)
        if not np.allclose(dt, t_s, rtol=rtol, atol=rtol * t_s):
            bad = int(np.argmax(np.abs(dt - t_s)))
            raise ValueError(
                f"non-uniform sampling: step {dt[bad]:.6g} at row {bad + 1}, expected {t_s:.6g}"
            )


@dataclass
class SimulationResult:
    """Follower series aligned on the leader timestamps.  If a collision
    terminated the run the series are truncated and ``collision_time`` is
    set; otherwise ``final_state`` is the state after the last step."""

    time: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    jerk: np.ndarray
    demanded_accel: np.ndarray
    collision_time: float | None = None
    final_state: VehicleState | None = None

    def __len__(self) -> int:
        return len(self.time)


def state_vector(
    ego: VehicleState, leader: TrajectorySample, cfg: ControllerConfig
) -> tuple[float, float, float]:
    """Return (spacing deviation, speed difference, acceleration).

    Spacing deviation is gap minus the constant-time-gap target
    ``delta_star + tau_star * ego.speed``; positive means headway surplus.
    """
    gap = leader.position - ego.position
    if gap <= 0:
        raise CollisionError(leader.time)
    ds = gap - (cfg.delta_star + cfg.tau_star * ego.speed)
    dv = leader.speed - ego.speed
    return ds, dv, ego.accel


def control_command(state: tuple[float, float, float], cfg: ControllerConfig) -> float:
    """Demanded acceleration: gain dot state, saturated to [u_min, u_max]."""
    ds, dv, a = state
    # three checks, not one on the sum: a sum can overflow where each term is finite
    if not (math.isfinite(ds) and math.isfinite(dv) and math.isfinite(a)):
        raise ValueError("non-finite state")
    u = cfg.k_s * ds + cfg.k_v * dv + cfg.k_a * a
    return min(max(u, cfg.u_min), cfg.u_max)


def actuation_command(a: float, u: float, cfg: ControllerConfig) -> float:
    """Lower-level pre-compensation of the demanded acceleration.

    The lower level inverts its nominal dynamics estimate so the realized
    response targets the reference first-order behavior.  Identity when the
    nominal estimates equal the references.  The inversion's authority is
    bounded: the lag-lead ratio is capped at ``comp_lead_max`` and the gain
    correction at ``comp_gain_max``, because an aggressive inverse amplifies
    measurement noise and discretization error by exactly those ratios.
    """
    if cfg.T_L_nominal == cfg.T_L_ref and cfg.K_L_nominal == cfg.K_L_ref:
        return u
    lead = min(cfg.T_L_nominal / cfg.T_L_ref, cfg.comp_lead_max)
    gain = min(max(cfg.K_L_ref / cfg.K_L_nominal, 1.0 / cfg.comp_gain_max),
               cfg.comp_gain_max)
    return gain / cfg.K_L_ref * ((1.0 - lead) * a + lead * cfg.K_L_ref * u)


def glvd_jerk(a: float, u: float, params: PlantParams, eps: float = 0.0) -> float:
    """Realized jerk of the first-order actuation dynamics."""
    if params.T_L_true <= 0:
        raise ValueError("T_L_true must be positive")
    return (-a + params.K_L_true * u) / params.T_L_true + eps


def step(
    ego: VehicleState,
    leader: TrajectorySample,
    cfg: ControllerConfig,
    params: PlantParams,
    rng_draw: float = 0.0,
) -> VehicleState:
    """Advance the follower one Euler step against the current leader sample."""
    u = control_command(state_vector(ego, leader, cfg), cfg)
    u_act = actuation_command(ego.accel, u, cfg)
    jerk = glvd_jerk(ego.accel, u_act, params, params.sigma_eps * rng_draw)
    accel = ego.accel + cfg.t_s * jerk
    speed = max(0.0, ego.speed + cfg.t_s * ego.accel)
    position = ego.position + cfg.t_s * ego.speed
    return VehicleState(position, speed, accel, u_act)


def check_schedule(
    schedule: list[tuple[float, PlantParams]], leader: Trajectory, t_s: float
) -> None:
    """Reject a schedule that cannot drive the plant along ``leader``.

    The entries must be sorted, the first at the leader's start time and
    none past its end, and the leader must be sampled uniformly at ``t_s``.
    A lag ``T_L_true <= t_s/2`` is rejected too: the actuation update is
    ``a+ = (1 - t_s/T_L) a + ...``, so there the explicit Euler factor
    leaves the unit circle and the run blows up instead of simulating the
    plant."""
    _require(len(schedule) >= 1, "schedule must contain at least one entry")
    times = [t for t, _ in schedule]
    _require(times == sorted(times), "schedule times must be sorted")
    _require(abs(times[0] - float(leader.time[0])) < 1e-9,
             "first schedule entry must be at the trajectory start")
    for t_sw, params in schedule:
        _require(t_sw <= leader.time[-1], f"schedule time {t_sw} outside trajectory span")
        _require(params.T_L_true > t_s / 2,
                 f"T_L_true={params.T_L_true:g} at t={t_sw:g} s is not above t_s/2="
                 f"{t_s / 2:g}: the explicit Euler step would diverge")
    leader.check_uniform(t_s)


def simulate(
    leader: Trajectory,
    cfg: ControllerConfig,
    schedule: list[tuple[float, PlantParams]],
    init: VehicleState,
    seed: int = 0,
) -> SimulationResult:
    """Run the closed loop over the full leader trajectory.

    ``schedule`` lists (time, PlantParams) switch points, checked by
    `check_schedule`; the latest entry at or before the current time is
    active.  Deterministic given the seed.  On collision the result is
    truncated at the offending step with ``collision_time`` set.
    """
    check_schedule(schedule, leader, cfg.t_s)

    rng = np.random.default_rng(seed)
    return _simulate_inner(leader, cfg, schedule, init, rng)


def _simulate_inner(
    leader: Trajectory,
    cfg: ControllerConfig,
    schedule: list[tuple[float, PlantParams]],
    init: VehicleState,
    rng: np.random.Generator,
    start: int = 0,
    stop: int | None = None,
) -> SimulationResult:
    """Step the follower over leader samples [start, stop).  Shared by the
    one-shot `simulate` and the window-by-window harness loop.

    Equal, bit for bit, to a loop of `step` calls fed one
    ``rng.standard_normal()`` each; the state is held in plain floats and
    the window's draws are taken in one call, which gives the same stream.
    Only after a collision does the generator state differ, and both
    callers stop there."""
    stop = len(leader) if stop is None else stop
    n = stop - start
    lt, lx, lv = (np.asarray(col[start:stop], dtype=float).tolist()
                  for col in (leader.time, leader.position, leader.speed))
    draws = rng.standard_normal(n).tolist()
    pos, spd, acc, jrk, dem = [], [], [], [], []
    t_s, delta, tau = cfg.t_s, cfg.delta_star, cfg.tau_star
    x, v, a, u_act = init.position, init.speed, init.accel, init.demanded_accel
    # schedule entries [0, k) are active (the prefix rule); params is the last
    # of them, re-evaluated only once the next switch time is reached
    k, n_sched = 0, len(schedule)
    next_switch = -math.inf
    collision_time = None
    for j in range(n):
        t = lt[j]
        if next_switch <= t + 1e-12:
            while k < n_sched and schedule[k][0] <= t + 1e-12:
                k += 1
            params = schedule[max(k, 1) - 1][1]
            next_switch = schedule[k][0] if k < n_sched else math.inf
        gap = lx[j] - x  # state_vector, on floats
        if gap <= 0:
            collision_time = t
            break
        u = control_command((gap - (delta + tau * v), lv[j] - v, a), cfg)
        u_act = actuation_command(a, u, cfg)
        jerk = glvd_jerk(a, u_act, params, params.sigma_eps * draws[j])
        pos.append(x)
        spd.append(v)
        acc.append(a)
        jrk.append(jerk)
        dem.append(u_act)
        x, v, a = x + t_s * v, max(0.0, v + t_s * a), a + t_s * jerk
    m = len(pos)
    return SimulationResult(
        time=np.asarray(leader.time[start:start + m], dtype=float).copy(),
        position=np.array(pos, dtype=float), speed=np.array(spd, dtype=float),
        accel=np.array(acc, dtype=float), jerk=np.array(jrk, dtype=float),
        demanded_accel=np.array(dem, dtype=float),
        collision_time=collision_time,
        final_state=VehicleState(x, v, a, u_act) if collision_time is None else None,
    )


def equilibrium_follower(leader0: TrajectorySample, cfg: ControllerConfig) -> VehicleState:
    """Follower state at the spacing-policy equilibrium behind a leader sample."""
    gap = cfg.delta_star + cfg.tau_star * leader0.speed
    return VehicleState(leader0.position - gap, leader0.speed, 0.0, 0.0)
