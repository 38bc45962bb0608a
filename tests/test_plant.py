import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfmonitor.plant import (
    ControllerConfig,
    PlantParams,
    Trajectory,
    VehicleState,
    equilibrium_follower,
    sampling_step,
    simulate,
)
from cfmonitor.estimator import SgldHyper
from cfmonitor.harness import (
    LeaderSegment,
    ScenarioConfig,
    SyntheticLeaderSpec,
    run_closed_loop,
    synthetic_leader,
)


CFG = ControllerConfig()
NOMINAL = PlantParams(T_L_true=0.3, K_L_true=1.0, sigma_eps=0.0)


def constant_leader(speed=20.0, duration=10.0, t_s=0.01):
    return synthetic_leader(SyntheticLeaderSpec(
        segments=(LeaderSegment(duration, 0.0),), v0=speed), t_s)


class TestControllerConfig:
    def test_defaults_are_consistent(self):
        cfg = ControllerConfig()
        assert cfg.T_L_ref == cfg.T_L_nominal
        assert cfg.K_L_ref == cfg.K_L_nominal

    @pytest.mark.parametrize("kwargs", [
        {"t_s": 0.0},
        {"tau_star": -1.0},
        {"delta_star": -0.1},
        {"T_L_bounds": (0.0, 0.4)},
        {"T_L_bounds": (0.5, 0.4)},
        {"K_L_bounds": (-0.1, 1.0)},
        {"T_L_nominal": 0.9},
        {"K_L_nominal": 0.5},
        {"u_min": 3.0, "u_max": 3.0},
        {"comp_lead_max": 0.5},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


def first_step(ego, leader_position, leader_speed, cfg=CFG, params=NOMINAL, samples=1):
    """`simulate` from ``ego`` behind a leader at ``leader_position`` holding
    ``leader_speed``, over ``samples`` leader samples: row 0 holds the first
    step's demand and jerk, row 1 (or ``final_state`` of a one-sample run)
    the state after it."""
    time = cfg.t_s * np.arange(samples)
    leader = Trajectory(time, leader_position + leader_speed * time,
                        np.full(samples, leader_speed), np.zeros(samples))
    return simulate(leader, cfg, [(0.0, params)], ego)


def demand(ds, dv, a, cfg=CFG, params=NOMINAL, speed=20.0):
    """(demand, jerk) of the first step from the state (spacing deviation,
    speed difference, acceleration).  The loop takes ``ds`` and ``dv`` back
    out of the leader's position and speed, exactly when adding them to the
    target gap and to ``speed`` rounds nothing."""
    ego = VehicleState(position=0.0, speed=speed, accel=a)
    res = first_step(ego, cfg.delta_star + cfg.tau_star * speed + ds, speed + dv,
                     cfg, params)
    return res.demanded_accel[0], res.jerk[0]


class TestStateVector:
    def test_equilibrium_state_is_zero(self):
        ego = VehicleState(position=0.0, speed=20.0, accel=0.0)
        res = first_step(ego, CFG.delta_star + CFG.tau_star * 20.0, 20.0)
        assert res.demanded_accel[0] == 0.0
        assert res.jerk[0] == 0.0

    def test_headway_surplus(self):
        # spacing deviation 40 - (5 + 30) = 5; raw demand 7.5 under a wide u_max
        ego = VehicleState(position=0.0, speed=30.0, accel=0.0)
        res = first_step(ego, 40.0, 30.0, cfg=ControllerConfig(u_max=10.0))
        assert res.demanded_accel[0] == 7.5

    def test_headway_deficit_with_closing_speed(self):
        # spacing deviation -3, speed difference 2, acceleration 0.2
        ego = VehicleState(position=0.0, speed=28.0, accel=0.2)
        res = first_step(ego, 30.0, 30.0)
        assert res.demanded_accel[0] == pytest.approx(-1.66)

    def test_nonpositive_gap_is_collision(self):
        ego = VehicleState(position=10.0, speed=20.0, accel=0.0)
        res = first_step(ego, 10.0, 20.0)
        assert res.collision_time == 0.0
        assert len(res) == 0
        assert res.final_state is None


class TestControlCommand:
    def test_zero_state(self):
        assert demand(0.0, 0.0, 0.0)[0] == 0.0

    def test_dot_product(self):
        assert demand(1.0, 0.5, 0.2)[0] == pytest.approx(2.09)

    def test_negative_demand(self):
        assert demand(-3.0, 2.0, 0.2)[0] == pytest.approx(-1.66)

    def test_saturation(self):
        assert demand(20.0, 0.0, 0.0)[0] == CFG.u_max
        assert demand(-20.0, 0.0, 0.0)[0] == CFG.u_min

    @given(
        ds=st.floats(-1.0, 1.0), dv=st.floats(-1.0, 1.0),
        a=st.floats(-1.0, 1.0), alpha=st.floats(0.0, 1.0),
    )
    def test_linearity_before_saturation(self, ds, dv, a, alpha):
        u1 = demand(ds, dv, a)[0]
        u2 = demand(alpha * ds, alpha * dv, alpha * a)[0]
        if abs(u1) < CFG.u_max and abs(alpha * u1) < CFG.u_max:
            assert u2 == pytest.approx(alpha * u1, abs=1e-12)

    def test_non_finite_rejected(self):
        for ego in (
            VehicleState(position=math.nan, speed=20.0),
            VehicleState(position=-math.inf, speed=20.0),
            VehicleState(position=0.0, speed=20.0, accel=math.nan),
        ):
            with pytest.raises(ValueError, match="non-finite state"):
                first_step(ego, 25.0, 20.0)


# a state whose demand is exact: spacing deviation 0.5, speed difference 0.25
DS, DV = 0.5, 0.25


class TestActuationCommand:
    def test_identity_at_reference(self):
        u_act, _ = demand(DS, DV, 0.5)
        assert u_act == CFG.k_s * DS + CFG.k_v * DV + CFG.k_a * 0.5

    def test_inverts_nominal_dynamics(self):
        # nominal estimate differs mildly from the reference: the command
        # is chosen so the estimated plant reproduces the reference jerk
        cfg = ControllerConfig(T_L_nominal=0.35, K_L_nominal=0.9,
                               T_L_bounds=(0.1, 0.4), K_L_bounds=(0.7, 1.0),
                               T_L_ref=0.3, K_L_ref=1.0)
        a = 0.4
        u = cfg.k_s * DS + cfg.k_v * DV + cfg.k_a * a
        estimated = PlantParams(cfg.T_L_nominal, cfg.K_L_nominal)
        _, jerk_est = demand(DS, DV, a, cfg, estimated)
        jerk_ref = (cfg.K_L_ref * u - a) / cfg.T_L_ref
        assert jerk_est == pytest.approx(jerk_ref, rel=1e-12)

    def test_lead_ratio_is_capped(self):
        cfg = ControllerConfig(T_L_nominal=1.5, K_L_nominal=1.0,
                               T_L_bounds=(1.0, 2.0), K_L_bounds=(0.7, 1.0),
                               T_L_ref=0.3, K_L_ref=1.0, comp_lead_max=2.0)
        a = 0.4
        u = cfg.k_s * DS + cfg.k_v * DV + cfg.k_a * a
        # capped lead ratio 2 instead of 5
        expected = (1.0 - 2.0) * a + 2.0 * u
        assert demand(DS, DV, a, cfg)[0] == pytest.approx(expected)

    def test_gain_correction_is_capped(self):
        cfg = ControllerConfig(T_L_nominal=0.3, K_L_nominal=0.1,
                               T_L_bounds=(0.1, 0.4), K_L_bounds=(0.05, 1.0),
                               T_L_ref=0.3, K_L_ref=1.0, comp_gain_max=3.0)
        u = cfg.k_s * DS + cfg.k_v * DV
        # gain correction 3 instead of 10
        assert demand(DS, DV, 0.0, cfg)[0] == pytest.approx(3.0 * u)


# demand 2 * 0.5 = 1 whatever the acceleration
UNIT_DEMAND = ControllerConfig(k_s=2.0, k_a=0.0)


class TestGlvdJerk:
    def test_equilibrium(self):
        assert demand(DS, 0.0, 1.0, UNIT_DEMAND, PlantParams(0.7, 1.0)) == (1.0, 0.0)

    def test_substitution(self):
        assert demand(DS, 0.0, 0.0, UNIT_DEMAND, PlantParams(0.5, 1.0))[1] == pytest.approx(2.0)
        assert demand(DS, 0.0, 1.0, UNIT_DEMAND, PlantParams(0.3, 0.5))[1] == pytest.approx(-5.0 / 3.0)

    def test_nonpositive_lag_rejected(self):
        with pytest.raises(ValueError):
            PlantParams(T_L_true=0.0, K_L_true=1.0)

    @given(u=st.floats(-3.0, 3.0), t_l=st.floats(0.05, 2.0),
           k_l=st.floats(0.3, 1.5))
    @settings(max_examples=50, deadline=None)
    def test_steady_state_converges_to_gain_times_demand(self, u, t_l, k_l):
        # zero gains demand 0, which the saturation bounds raise or lower to u
        bounds = dict(u_min=u, u_max=u + 1.0) if u > 0 else dict(u_min=u - 1.0, u_max=u)
        cfg = ControllerConfig(k_s=0.0, k_v=0.0, k_a=0.0, **bounds)
        ego = VehicleState(position=0.0, speed=20.0, accel=0.0)
        res = first_step(ego, 1e4, 20.0, cfg, PlantParams(t_l, k_l), samples=2001)
        assert np.all(res.demanded_accel == u)
        gaps = np.abs(res.accel[1:] - k_l * u)
        assert gaps[-1] < 1e-3 + 1e-6 * abs(u)
        # monotone decay while the gap is non-zero (t_s < T_L)
        assert np.all(gaps[1:] <= gaps[:-1] + 1e-12)


class TestStep:
    def test_equilibrium_fixed_point(self):
        leader = Trajectory(np.array([0.0]), np.array([25.0]), np.array([20.0]),
                            np.array([0.0]))
        ego = equilibrium_follower(leader, CFG)
        res = first_step(ego, 25.0, 20.0, samples=2)
        assert res.demanded_accel[0] == 0.0
        assert res.accel[1] == 0.0
        assert res.speed[1] == ego.speed
        assert res.position[1] == pytest.approx(ego.position + CFG.t_s * ego.speed)

    def test_saturated_demand_drives_one_step(self):
        ego = VehicleState(position=0.0, speed=20.0, accel=0.0)
        # headway surplus 5 m -> raw demand 7.5, saturated to 3
        res = first_step(ego, 30.0, 20.0, samples=2)
        assert res.demanded_accel[0] == pytest.approx(3.0)
        assert res.jerk[0] == pytest.approx(10.0)
        assert res.accel[1] == pytest.approx(0.1)

    def test_speed_clamped_at_zero(self):
        ego = VehicleState(position=0.0, speed=0.005, accel=-2.0)
        res = first_step(ego, 100.0, 0.0, samples=2)
        assert res.speed[1] == 0.0


class TestSimulate:
    def test_equilibrium_invariance(self):
        leader = constant_leader()
        init = equilibrium_follower(leader, CFG)
        res = simulate(leader, CFG, [(0.0, NOMINAL)], init, seed=1)
        # exact invariance holds per step; over a full run only float
        # accumulation noise remains
        assert np.allclose(res.accel, 0.0, atol=1e-9)
        assert np.allclose(res.demanded_accel, 0.0, atol=1e-9)
        gaps = leader.position - res.position
        target = CFG.delta_star + CFG.tau_star * res.speed
        assert np.allclose(gaps, target, atol=1e-9)

    def test_braking_pulse_returns_to_equilibrium(self):
        leader = synthetic_leader(SyntheticLeaderSpec(segments=(
            LeaderSegment(5.0, 0.0), LeaderSegment(3.0, -1.5),
            LeaderSegment(4.5, 1.0), LeaderSegment(20.0, 0.0),
        ), v0=20.0))
        init = equilibrium_follower(leader, CFG)
        res = simulate(leader, CFG, [(0.0, NOMINAL)], init, seed=0)
        ds = (leader.position - res.position
              - CFG.delta_star - CFG.tau_star * res.speed)
        norm = np.sqrt(ds**2 + (leader.speed - res.speed) ** 2 + res.accel**2)
        tail = norm[res.time >= 20.0]
        # decays toward the equilibrium manifold over the quiet tail
        assert tail[-1] < 1e-3
        coarse = tail[::200]
        assert all(b <= a + 1e-9 for a, b in zip(coarse, coarse[1:]))

    def test_degraded_plant_oscillates(self):
        leader = synthetic_leader(SyntheticLeaderSpec(segments=(
            LeaderSegment(5.0, 0.0), LeaderSegment(3.0, -1.5),
            LeaderSegment(4.5, 1.0), LeaderSegment(10.0, 0.0),
            LeaderSegment(3.0, -1.5), LeaderSegment(4.5, 1.0),
            LeaderSegment(10.0, 0.0),
        ), v0=20.0))
        init = equilibrium_follower(leader, CFG)
        schedule = [(0.0, NOMINAL), (26.0, PlantParams(1.5, 0.5))]
        degraded = simulate(leader, CFG, schedule, init, seed=0)
        nominal = simulate(leader, CFG, [(0.0, NOMINAL)], init, seed=0)
        tail = (degraded.time >= 33.0) & (degraded.time < 40.0)
        # ringing persists long after the excitation under the slow plant
        assert np.std(degraded.accel[tail]) > 10 * np.std(nominal.accel[tail])

    def test_deterministic_given_seed(self):
        leader = constant_leader(duration=5.0)
        init = VehicleState(position=-30.0, speed=18.0, accel=0.0)
        params = [(0.0, PlantParams(0.3, 1.0, sigma_eps=0.1))]
        r1 = simulate(leader, CFG, params, init, seed=42)
        r2 = simulate(leader, CFG, params, init, seed=42)
        for f in ("time", "position", "speed", "accel", "jerk", "demanded_accel"):
            assert np.array_equal(getattr(r1, f), getattr(r2, f))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_speed_never_negative(self, seed):
        leader = synthetic_leader(SyntheticLeaderSpec(segments=(
            LeaderSegment(2.0, 0.0), LeaderSegment(4.0, -2.0),
            LeaderSegment(4.0, 1.0),
        ), v0=10.0))
        init = VehicleState(position=-20.0, speed=12.0, accel=0.0)
        params = [(0.0, PlantParams(0.3, 1.0, sigma_eps=0.5))]
        res = simulate(leader, CFG, params, init, seed=seed)
        assert np.all(res.speed >= 0.0)

    def test_collision_truncates_with_timestamp(self):
        leader = synthetic_leader(SyntheticLeaderSpec(segments=(
            LeaderSegment(1.0, 0.0), LeaderSegment(5.0, -4.0),
            LeaderSegment(5.0, 0.0),
        ), v0=20.0))
        init = VehicleState(position=leader.position[0] - 6.0,
                            speed=30.0, accel=0.0)
        res = simulate(leader, CFG, [(0.0, NOMINAL)], init, seed=0)
        assert res.collision_time is not None
        assert len(res) < len(leader)
        assert res.time[-1] < res.collision_time + 2 * CFG.t_s

    def test_schedule_validation(self):
        leader = constant_leader(duration=2.0)
        init = equilibrium_follower(leader, CFG)
        with pytest.raises(ValueError):
            simulate(leader, CFG, [], init)
        with pytest.raises(ValueError):
            simulate(leader, CFG, [(1.0, NOMINAL)], init)
        with pytest.raises(ValueError):
            simulate(leader, CFG,
                     [(0.0, NOMINAL), (1.5, NOMINAL), (1.0, NOMINAL)], init)

    def test_sampling_rate_mismatch_rejected(self):
        leader = constant_leader(duration=2.0, t_s=0.02)
        init = equilibrium_follower(leader, CFG)
        with pytest.raises(ValueError):
            simulate(leader, CFG, [(0.0, NOMINAL)], init)


class TestTrajectory:
    def test_non_uniform_rejected(self):
        t = np.array([0.0, 0.01, 0.03])
        with pytest.raises(ValueError, match=r"^non-uniform sampling: step 0\.02 "
                                             r"at sample 2, expected 0\.01$"):
            sampling_step(t, 0.01)
        with pytest.raises(ValueError, match="at sample 2, expected 0.01$"):
            sampling_step(t)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))


def step_reference(leader, cfg, schedule, init, seed):
    """The closed loop as one scalar loop, each formula written out left to
    right: one standard-normal draw per step from a generator seeded as
    `simulate` seeds its own, and the active entry is the latest one whose
    time is within 1e-12 s of the sample time.  Returns (columns, collision
    time, state after the last step)."""
    rng = np.random.default_rng(seed)
    x, v, a, u_act = init.position, init.speed, init.accel, init.demanded_accel
    identity = cfg.T_L_nominal == cfg.T_L_ref and cfg.K_L_nominal == cfg.K_L_ref
    lead = min(cfg.T_L_nominal / cfg.T_L_ref, cfg.comp_lead_max)
    gain = min(max(cfg.K_L_ref / cfg.K_L_nominal, 1.0 / cfg.comp_gain_max),
               cfg.comp_gain_max)
    cols = {f: [] for f in ("position", "speed", "accel", "jerk", "demanded_accel")}
    for i in range(len(leader)):
        t = float(leader.time[i])
        params = [p for t_sw, p in schedule if t_sw <= t + 1e-12][-1]
        draw = rng.standard_normal()
        gap = float(leader.position[i]) - x
        if gap <= 0:
            return cols, t, None
        ds = gap - (cfg.delta_star + cfg.tau_star * v)
        dv = float(leader.speed[i]) - v
        if not (math.isfinite(ds) and math.isfinite(dv) and math.isfinite(a)):
            raise ValueError("non-finite state")
        u = min(max(cfg.k_s * ds + cfg.k_v * dv + cfg.k_a * a, cfg.u_min), cfg.u_max)
        if identity:
            u_act = u
        else:
            u_act = gain / cfg.K_L_ref * ((1.0 - lead) * a + lead * cfg.K_L_ref * u)
        jerk = (-a + params.K_L_true * u_act) / params.T_L_true + params.sigma_eps * draw
        for f, value in zip(cols, (x, v, a, jerk, u_act)):
            cols[f].append(value)
        x, v, a = x + cfg.t_s * v, max(0.0, v + cfg.t_s * a), a + cfg.t_s * jerk
    return cols, None, VehicleState(x, v, a, u_act)


def assert_matches_reference(res, leader, cols, collision_time):
    n = len(cols["position"])
    assert len(res) == n
    assert res.collision_time == collision_time
    assert res.time.tobytes() == leader.time[:n].tobytes()
    for f, values in cols.items():
        # bit for bit: tobytes also tells 0.0 from -0.0
        assert getattr(res, f).tobytes() == np.array(values, dtype=float).tobytes(), f


BRAKING = SyntheticLeaderSpec(segments=(
    LeaderSegment(2.0, 0.0), LeaderSegment(3.0, -1.5),
    LeaderSegment(3.0, 1.0), LeaderSegment(4.0, 0.0),
), v0=20.0)


class TestSimulateMatchesStepLoop:
    NOISY = PlantParams(T_L_true=0.3, K_L_true=1.0, sigma_eps=0.05)

    def check(self, leader, cfg, schedule, init, seed=7):
        res = simulate(leader, cfg, schedule, init, seed=seed)
        cols, collision_time, final = step_reference(leader, cfg, schedule, init, seed)
        assert_matches_reference(res, leader, cols, collision_time)
        assert res.final_state == final
        return res

    def test_nominal(self):
        leader = synthetic_leader(BRAKING)
        self.check(leader, CFG, [(0.0, self.NOISY)],
                   equilibrium_follower(leader, CFG))

    def test_compensating_lower_level(self):
        cfg = ControllerConfig(T_L_nominal=0.2, K_L_nominal=0.8,
                               T_L_ref=0.3, K_L_ref=1.0)
        assert (cfg.T_L_nominal, cfg.K_L_nominal) != (cfg.T_L_ref, cfg.K_L_ref)
        leader = synthetic_leader(BRAKING)
        self.check(leader, cfg, [(0.0, PlantParams(0.6, 0.7, sigma_eps=0.2))],
                   equilibrium_follower(leader, cfg))

    def test_switches_between_and_on_samples(self):
        leader = synthetic_leader(BRAKING)
        on_sample = float(leader.time[500]) + 5e-13  # active at 500 by the tolerance
        schedule = [
            (0.0, self.NOISY),
            (3.005, PlantParams(1.5, 0.5, sigma_eps=0.3)),
            (3.0051, PlantParams(0.8, 0.6, sigma_eps=0.1)),  # both start at 3.01
            (on_sample, PlantParams(0.05, 1.2, sigma_eps=0.02)),
        ]
        self.check(leader, CFG, schedule, equilibrium_follower(leader, CFG))

    def test_switch_inside_a_harness_window(self):
        # the harness steps 2 s windows on one generator and hands each
        # window's final state to the next; the switch falls mid-window
        leader = synthetic_leader(BRAKING)
        schedule = [(0.0, self.NOISY), (3.005, PlantParams(1.5, 0.5, sigma_eps=0.3))]
        report = run_closed_loop(ScenarioConfig(
            controller=CFG, schedule=schedule, leader_spec=BRAKING, window_length=2.0,
            sgld=SgldHyper(K_iters=200), strategy_enabled=False, seed=7))
        cols, collision_time, _ = step_reference(
            leader, CFG, schedule, equilibrium_follower(leader, CFG), seed=7)
        assert_matches_reference(report.follower, leader, cols, collision_time)

    def test_saturated_demand(self):
        leader = synthetic_leader(BRAKING)
        # 35 m of surplus headway, then closing fast from too near
        far = VehicleState(position=leader.position[0] - 60.0, speed=20.0)
        near = VehicleState(position=leader.position[0] - 12.0, speed=26.0)
        res = self.check(leader, CFG, [(0.0, self.NOISY)], far)
        assert np.any(res.demanded_accel == CFG.u_max)
        res = self.check(leader, CFG, [(0.0, self.NOISY)], near)
        assert np.any(res.demanded_accel == CFG.u_min)

    def test_speed_clamped_at_standstill(self):
        leader = constant_leader(speed=0.0, duration=3.0)
        init = VehicleState(position=leader.position[0] - 10.0, speed=0.005, accel=-2.0)
        res = self.check(leader, CFG, [(0.0, self.NOISY)], init)
        assert res.speed[1] == 0.0

    def test_collision(self):
        leader = synthetic_leader(SyntheticLeaderSpec(segments=(
            LeaderSegment(1.0, 0.0), LeaderSegment(5.0, -4.0),
            LeaderSegment(5.0, 0.0),
        ), v0=20.0))
        init = VehicleState(position=leader.position[0] - 6.0, speed=30.0, accel=0.0)
        res = self.check(leader, CFG, [(0.0, self.NOISY)], init)
        assert res.collision_time is not None and 0 < len(res) < len(leader)
        assert res.final_state is None

    @pytest.mark.parametrize("kwargs", [
        # lead 0.39/0.1 capped at 1.5, gain 2.7/0.8 capped at 3
        dict(T_L_nominal=0.39, T_L_ref=0.1, K_L_nominal=0.8, K_L_ref=2.7,
             comp_lead_max=1.5, comp_gain_max=3.0),
        # references other than 1, so that no factor of the product is exact
        dict(T_L_nominal=0.25, T_L_ref=0.3, K_L_nominal=0.9, K_L_ref=0.9),
        dict(K_L_nominal=0.75, K_L_ref=0.9),
    ])
    def test_prebuilt_compensation(self, kwargs):
        # step_reference writes the compensation as one expression, left to
        # right; a regrouped product differs from it in the last bits
        cfg = ControllerConfig(**kwargs)
        leader = synthetic_leader(BRAKING)
        self.check(leader, cfg, [(0.0, self.NOISY)],
                   equilibrium_follower(leader, cfg))


class TestEulerStabilityGuard:
    @pytest.mark.parametrize("t_l", [0.005, 0.004, 0.001])
    def test_lag_at_or_below_half_step_rejected(self, t_l):
        leader = constant_leader(duration=1.0)
        init = equilibrium_follower(leader, CFG)
        with pytest.raises(ValueError, match="Euler"):
            simulate(leader, CFG, [(0.0, PlantParams(t_l, 1.0))], init)
        with pytest.raises(ValueError, match="Euler"):
            simulate(leader, CFG, [(0.0, NOMINAL), (0.5, PlantParams(t_l, 1.0))], init)

    def test_lag_just_above_half_step_accepted(self):
        leader = constant_leader(duration=1.0)
        init = equilibrium_follower(leader, CFG)
        res = simulate(leader, CFG, [(0.0, PlantParams(0.0051, 1.0))], init)
        assert len(res) == len(leader)


class TestScheduleCheck:
    """`simulate` and `run_closed_loop` reject the same schedules."""

    SPEC = SyntheticLeaderSpec(segments=(LeaderSegment(2.0, 0.0),), v0=20.0)
    DEGRADED = PlantParams(1.5, 0.5)
    BAD = {
        "empty": ([], "at least one entry"),
        "unsorted": ([(1.0, DEGRADED), (0.0, NOMINAL)], "sorted"),
        "first entry late": ([(0.5, NOMINAL)], "trajectory start"),
        "first entry early": ([(-0.5, NOMINAL), (1.0, DEGRADED)], "trajectory start"),
        "entry past the end": ([(0.0, NOMINAL), (2.5, DEGRADED)], "outside trajectory span"),
        "NaN switch time": ([(0.0, NOMINAL), (math.nan, DEGRADED)], "outside"),
        "Euler-unstable lag": ([(0.0, NOMINAL), (1.0, PlantParams(0.005, 1.0))], "Euler"),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_rejected_by_both_entry_points(self, case):
        schedule, message = self.BAD[case]
        leader = synthetic_leader(self.SPEC)
        with pytest.raises(ValueError, match=message):
            simulate(leader, CFG, schedule, equilibrium_follower(leader, CFG))
        with pytest.raises(ValueError, match=message):
            run_closed_loop(ScenarioConfig(controller=CFG, schedule=schedule,
                                           leader_spec=self.SPEC))

    def test_synthetic_leader_sampled_at_controller_step(self):
        # a synthetic leader has no step of its own: it takes controller.t_s
        cfg = ControllerConfig(t_s=0.02)
        report = run_closed_loop(ScenarioConfig(
            controller=cfg, schedule=[(0.0, NOMINAL)], leader_spec=self.SPEC,
            window_length=1.0, sgld=SgldHyper(K_iters=200)))
        assert np.diff(report.leader.time) == pytest.approx(0.02, rel=1e-12)
        assert len(report.follower) == 101
        assert len(report.windows) == 2

    def test_switch_at_the_last_sample_accepted(self):
        leader = synthetic_leader(self.SPEC)
        schedule = [(0.0, NOMINAL), (float(leader.time[-1]), self.DEGRADED)]
        res = simulate(leader, CFG, schedule, equilibrium_follower(leader, CFG))
        assert len(res) == len(leader)
