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
    "ControllerConfig",
    "PlantParams",
    "VehicleState",
    "Trajectory",
    "SimulationResult",
    "check_schedule",
    "sampling_step",
    "equilibrium_follower",
    "simulate",
]


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


def sampling_step(time, t_s: float | None = None, path=None) -> float:
    """The step of the time column ``time`` (two or more samples), checked
    to be positive and uniform: every step lies within 2e-6 relative of
    the first, or of ``t_s``, the controller step that a leader's must
    match, when given.  Raises ValueError otherwise.  A bad step is named
    by the sample that ends it or, for a column read from the file
    ``path``, by the path and that sample's file row (the header is row 1).
    """
    where = "" if path is None else f"{path}: "
    dt = np.diff(time)
    step = float(dt[0])
    if t_s is not None and not abs(step - t_s) <= 2e-6 * t_s:
        raise ValueError(f"{where}leader sampled every {step:.6g} s, but "
                         f"controller.t_s is {t_s:.6g} s")
    expected = step if t_s is None else t_s
    # a NaN step is off too, and so is a first step that is not positive
    off = np.flatnonzero(~(np.abs(dt - expected) <= 2e-6 * expected) | (dt <= 0))
    if off.size:
        i = int(off[0]) + 1  # the sample that ends the first step off
        at = f"sample {i}" if path is None else f"row {i + 2}"
        want = f"{expected:.6g}" if expected > 0 else "a positive step"
        raise ValueError(f"{where}non-uniform sampling: step {dt[i - 1]:.6g} "
                         f"at {at}, expected {want}")
    return step


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
             "first schedule entry must be at the trajectory start: the schedule "
             f"starts at t={times[0]:g} s, the leader at t={float(leader.time[0]):g} s")
    for t_sw, params in schedule:
        _require(t_sw <= leader.time[-1], f"schedule time {t_sw} outside trajectory span")
        _require(params.T_L_true > t_s / 2,
                 f"T_L_true={params.T_L_true:g} at t={t_sw:g} s is not above t_s/2="
                 f"{t_s / 2:g}: the explicit Euler step would diverge")
    if len(leader) >= 2:
        sampling_step(leader.time, t_s)


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
    one-shot `simulate` and the window-by-window harness loop, and the one
    place the closed loop is written: spacing state, control law and its
    saturation, lower-level compensation, the plant's jerk and the explicit
    Euler update.

    The state is held in plain floats; each step takes one standard-normal
    draw, all of a window's taken in one call, which is the stream a
    scalar ``rng.standard_normal()`` per step gives.  Only after a
    collision does the generator's state differ from that stream's, and
    both callers stop there."""
    stop = len(leader) if stop is None else stop
    n = stop - start
    lt, lx, lv = (np.asarray(col[start:stop], dtype=float).tolist()
                  for col in (leader.time, leader.position, leader.speed))
    draws = rng.standard_normal(n).tolist()
    pos, spd, acc, jrk, dem = [], [], [], [], []
    t_s, delta, tau = cfg.t_s, cfg.delta_star, cfg.tau_star
    k_s, k_v, k_a, u_min, u_max = cfg.k_s, cfg.k_v, cfg.k_a, cfg.u_min, cfg.u_max
    # The lower level inverts its nominal dynamics estimate so the realized
    # response targets the reference first-order behavior; identity when
    # the nominal estimates equal the references.  The inversion's
    # authority is bounded: the lag-lead ratio is capped at comp_lead_max
    # and the gain correction at comp_gain_max, because an aggressive
    # inverse amplifies measurement noise and discretization error by
    # exactly those ratios.
    compensate = not (cfg.T_L_nominal == cfg.T_L_ref and cfg.K_L_nominal == cfg.K_L_ref)
    if compensate:
        lead = min(cfg.T_L_nominal / cfg.T_L_ref, cfg.comp_lead_max)
        gain = min(max(cfg.K_L_ref / cfg.K_L_nominal, 1.0 / cfg.comp_gain_max),
                   cfg.comp_gain_max)
        # gain / K_ref * ((1 - lead) * a + lead * K_ref * u), its left-to-right
        # products grouped ahead of time: the same floating-point operations
        g, p, q = gain / cfg.K_L_ref, 1.0 - lead, lead * cfg.K_L_ref
    isfinite = math.isfinite
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
            T_L, K_L, sigma = params.T_L_true, params.K_L_true, params.sigma_eps
            next_switch = schedule[k][0] if k < n_sched else math.inf
        gap = lx[j] - x
        if gap <= 0:
            collision_time = t
            break
        # spacing deviation from the constant-time-gap target (positive is
        # a headway surplus) and speed difference to the leader
        ds, dv = gap - (delta + tau * v), lv[j] - v
        # three checks, not one on the sum: a sum can overflow where each term is finite
        if not (isfinite(ds) and isfinite(dv) and isfinite(a)):
            raise ValueError("non-finite state")
        u = k_s * ds + k_v * dv + k_a * a
        # min(max(u, u_min), u_max) without the builtins' call overhead; a
        # NaN passes through either way
        u = u_max if u > u_max else u_min if u < u_min else u
        u_act = g * (p * a + q * u) if compensate else u
        jerk = (-a + K_L * u_act) / T_L + sigma * draws[j]
        pos.append(x)
        spd.append(v)
        acc.append(a)
        jrk.append(jerk)
        dem.append(u_act)
        # max(0.0, v + t_s * a) without the builtin's call overhead
        v_next = v + t_s * a
        x, v, a = x + t_s * v, v_next if v_next > 0.0 else 0.0, a + t_s * jerk
    m = len(pos)
    return SimulationResult(
        time=np.asarray(leader.time[start:start + m], dtype=float).copy(),
        position=np.array(pos, dtype=float), speed=np.array(spd, dtype=float),
        accel=np.array(acc, dtype=float), jerk=np.array(jrk, dtype=float),
        demanded_accel=np.array(dem, dtype=float),
        collision_time=collision_time,
        final_state=VehicleState(x, v, a, u_act) if collision_time is None else None,
    )


def equilibrium_follower(leader: Trajectory, cfg: ControllerConfig) -> VehicleState:
    """Follower state at the spacing-policy equilibrium behind the leader's
    first sample."""
    speed = float(leader.speed[0])
    gap = cfg.delta_star + cfg.tau_star * speed
    return VehicleState(float(leader.position[0]) - gap, speed, 0.0, 0.0)
