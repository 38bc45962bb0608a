import contextlib
import csv
import io
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from cfmonitor import harness, plant
from cfmonitor.cli import main
from cfmonitor.estimator import SgldHyper
from cfmonitor.harness import (
    LeaderSegment,
    RunReport,
    ScenarioConfig,
    SyntheticLeaderSpec,
    default_scenario,
    emit_outputs,
    load_leader,
    run_closed_loop,
    save_trajectory,
    smooth_acceleration,
    synthetic_leader,
)
from cfmonitor.monitor import Escalation, MonitorPolicy
from cfmonitor.plant import ControllerConfig, PlantParams, Trajectory


NOMINAL = PlantParams(T_L_true=0.3, K_L_true=1.0, sigma_eps=0.05)


# from the equilibrium start the leader brakes at 4 m/s^2, harder than the
# degraded plant (K_L = 0.5, so at most 2.5 m/s^2) can
BRAKING = SyntheticLeaderSpec(segments=(
    LeaderSegment(2.0, 0.0), LeaderSegment(4.0, -4.0),
    LeaderSegment(4.0, 0.0)), v0=20.0)


def short_scenario(seed=0, duration=8.0, strategy_enabled=True, **kwargs):
    spec = SyntheticLeaderSpec(segments=(
        LeaderSegment(2.0, 0.0), LeaderSegment(2.0, -1.0),
        LeaderSegment(2.0, 1.0), LeaderSegment(duration - 6.0, 0.0),
    ), v0=20.0)
    defaults = dict(
        controller=ControllerConfig(),
        schedule=[(0.0, NOMINAL)],
        leader_spec=spec,
        window_length=2.0,
        strategy_enabled=strategy_enabled,
        seed=seed,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


COLLIDING = short_scenario(leader_spec=BRAKING,
                           schedule=[(0.0, PlantParams(1.5, 0.5, 0.0))])


def scalar_leader(spec):
    """`synthetic_leader` as it was written before it was vectorized, one
    sample at a time, at its default step: the reference for its bytes."""
    t_s = 0.01
    v, x = spec.v0, 0.0
    starts = [0.0]
    states = [(v, x)]
    for seg in spec.segments:
        v_end = v + seg.accel * seg.duration
        x += v * seg.duration + 0.5 * seg.accel * seg.duration**2
        v = v_end
        starts.append(starts[-1] + seg.duration)
        states.append((v, x))
    n = int(round(starts[-1] / t_s)) + 1
    time = np.arange(n) * t_s
    position, speed, accel = np.empty(n), np.empty(n), np.empty(n)
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


class TestSyntheticLeader:
    def test_constant_speed_straight_line(self):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(10.0, 0.0),), v0=30.0))
        assert traj.position[-1] == pytest.approx(300.0)
        assert np.all(traj.speed == 30.0)
        assert np.all(traj.accel == 0.0)

    def test_brake_pulse_kinematics(self):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(3.0, -2.0), LeaderSegment(2.0, 0.0)),
            v0=30.0))
        at_pulse_end = np.searchsorted(traj.time, 3.0)
        assert traj.speed[at_pulse_end] == pytest.approx(24.0)

    @pytest.mark.parametrize("spec,final_speed", [
        (harness.default_leader_spec(), 20.0),
        # boundaries 4e-17 s after the sample at 0.3 s, on the sample at
        # 1 s and between samples at 1.005 s, and a last segment that brakes
        # to exactly 0 m/s
        (SyntheticLeaderSpec(segments=(
            LeaderSegment(0.1, 0.0), LeaderSegment(0.2, 0.5),
            LeaderSegment(0.7, 0.0), LeaderSegment(0.005, 0.0),
            LeaderSegment(1.995, 0.0), LeaderSegment(2.0, -5.05)), v0=10.0), 0.0),
        # speeds of -0.0, which max(0.0, v) turns into 0.0
        (SyntheticLeaderSpec(segments=(LeaderSegment(0.05, -0.0),), v0=-0.0), 0.0),
    ])
    def test_matches_scalar_loop(self, spec, final_speed):
        traj = synthetic_leader(spec)
        ref = scalar_leader(spec)
        assert ref.speed[-1] == final_speed
        for f in ("time", "position", "speed", "accel"):
            assert getattr(traj, f).tobytes() == getattr(ref, f).tobytes(), f

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            synthetic_leader(SyntheticLeaderSpec(segments=(), v0=10.0))
        # a positive total does not let one non-positive segment through
        with pytest.raises(ValueError, match="segment durations must be positive"):
            synthetic_leader(SyntheticLeaderSpec(
                segments=(LeaderSegment(2.0, 0.0), LeaderSegment(-1.0, 0.0))))

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            synthetic_leader(SyntheticLeaderSpec(
                segments=(LeaderSegment(10.0, -2.0),), v0=10.0))


class TestLeaderCsv:
    def test_round_trip(self, tmp_path):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(1.0, 0.5),), v0=10.0))
        path = tmp_path / "leader.csv"
        save_trajectory(traj, path)
        back = load_leader(path)
        for f in ("time", "position", "speed", "accel"):
            assert np.array_equal(getattr(traj, f), getattr(back, f))

    def test_missing_columns_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,speed\n0.0,1.0\n0.01,1.0\n")
        with pytest.raises(ValueError, match="position.*accel|accel.*position"):
            load_leader(path)
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty file")):
            load_leader(path)

    def test_malformed_row_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,position,speed,accel\n0.0,0.0,1.0,0.0\n"
                        "0.01,xyz,1.0,0.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_leader(path)

    def test_constant_speed_zero_accel_accepted(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{i * 0.01},{i * 0.2},20.0,0.0" for i in range(5))
        path.write_text("time,position,speed,accel\n" + rows + "\n")
        traj = load_leader(path)
        assert np.all(traj.accel == 0.0)

    def test_non_uniform_sampling_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,position,speed,accel\n0.0,0.0,1.0,0.0\n"
                        "0.01,0.01,1.0,0.0\n0.03,0.03,1.0,0.0\n")
        # the file and its row, with the header as row 1
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-uniform sampling: step 0.02 at row 4, expected 0.01")):
            load_leader(path)


class TestSmoothing:
    def test_zero_width_is_identity(self):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(2.0, -1.0),), v0=10.0))
        out = smooth_acceleration(traj, 0.0)
        assert np.array_equal(out.accel, traj.accel)
        assert np.array_equal(out.position, traj.position)

    def test_constant_accel_unchanged(self):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(2.0, 1.0),), v0=10.0))
        out = smooth_acceleration(traj, 0.1)
        assert out.accel == pytest.approx(traj.accel, abs=1e-12)

    def test_impulse_becomes_gaussian_with_preserved_mass(self):
        n = 401
        t = np.arange(n) * 0.01
        accel = np.zeros(n)
        accel[n // 2] = 1.0
        traj = Trajectory(t, np.zeros(n), np.full(n, 10.0), accel)
        out = smooth_acceleration(traj, 0.05)
        assert out.accel.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(out.accel) == n // 2
        # symmetric, unimodal around the center
        mid = out.accel[n // 2 - 20: n // 2 + 21]
        assert mid == pytest.approx(mid[::-1], abs=1e-12)

    def test_speed_reintegrated_consistently(self):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(1.0, 0.0), LeaderSegment(1.0, -2.0),
                      LeaderSegment(1.0, 0.0)), v0=10.0))
        out = smooth_acceleration(traj, 0.1)
        expected = out.speed[0] + 0.01 * np.cumsum(out.accel[:-1])
        assert out.speed[1:] == pytest.approx(expected, abs=1e-9)

    def test_negative_width_rejected(self):
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(1.0, 0.0),), v0=10.0))
        for width in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="kernel_width must be non-negative"):
                smooth_acceleration(traj, width)

    @pytest.mark.parametrize("width", [0.34, 1e6, 1e200])
    def test_kernel_longer_than_trajectory_rejected(self, width):
        # 201 samples hold a kernel of at most 100 samples each side; a
        # longer one made the convolution longer than the trajectory, and a
        # huge width overflowed or allocated its kernel first
        traj = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(2.0, 0.0),), v0=10.0))
        assert len(smooth_acceleration(traj, 0.3)) == len(traj)
        with pytest.raises(ValueError, match="smoothing kernel"):
            smooth_acceleration(traj, width)


class TestScenarioConfig:
    def test_requires_exactly_one_leader_source(self):
        with pytest.raises(ValueError):
            short_scenario(leader_csv="x.csv")
        with pytest.raises(ValueError):
            ScenarioConfig(controller=ControllerConfig(),
                           schedule=[(0.0, NOMINAL)])

    @pytest.mark.parametrize("width", [-1.0, float("nan")])
    def test_smoothing_width_must_be_non_negative(self, width):
        # run_closed_loop smooths only a positive width, so a bad one would
        # run unsmoothed without reaching smooth_acceleration's check
        with pytest.raises(ValueError, match="smoothing_width must be non-negative"):
            short_scenario(smoothing_width=width)

    def test_window_must_divide_into_steps(self):
        with pytest.raises(ValueError):
            short_scenario(window_length=0.0333)

    def test_schedule_outside_span_rejected(self):
        sc = short_scenario(schedule=[(0.0, NOMINAL), (100.0, NOMINAL)])
        with pytest.raises(ValueError):
            run_closed_loop(sc)


class TestRunClosedLoop:
    def test_euler_unstable_lag_rejected_before_running(self):
        schedule = [(0.0, NOMINAL), (4.0, PlantParams(0.005, 1.0))]
        with pytest.raises(ValueError, match="Euler"):
            run_closed_loop(short_scenario(schedule=schedule))

    def test_window_accounting(self):
        report = run_closed_loop(short_scenario(duration=9.0))
        # floor(9 s / 2 s) full windows, every sample in exactly one piece
        assert len(report.windows) == 4
        assert len(report.follower) == 901
        starts = [w.t_start for w in report.windows]
        assert starts == pytest.approx([0.0, 2.0, 4.0, 6.0])

    def test_nominal_plant_never_triggers(self):
        report = run_closed_loop(short_scenario(duration=12.0))
        assert all(not w.decision.anomaly for w in report.windows)
        assert all(not w.applied for w in report.windows)

    def test_engine_off_matches_plain_simulation(self):
        sc = default_scenario(seed=3, strategy_enabled=False)
        report = run_closed_loop(sc)
        leader = synthetic_leader(sc.leader_spec)
        init = plant.equilibrium_follower(leader, sc.controller)
        plain = plant.simulate(leader, sc.controller, sc.schedule, init,
                               seed=sc.seed)
        assert np.array_equal(report.follower.accel, plain.accel)
        assert np.array_equal(report.follower.position, plain.position)

    def test_collision_aborts_with_partial_report(self):
        assert run_closed_loop(short_scenario(leader_spec=BRAKING)).collision_time is None
        report = run_closed_loop(COLLIDING)
        assert report.collision_time is not None
        assert len(report.follower) < 1001

    def test_deterministic_across_runs(self):
        r1 = run_closed_loop(default_scenario(seed=5))
        r2 = run_closed_loop(default_scenario(seed=5))
        assert np.array_equal(r1.follower.accel, r2.follower.accel)
        for w1, w2 in zip(r1.windows, r2.windows):
            assert np.array_equal(w1.estimate.samples, w2.estimate.samples)
            assert w1.decision.action == w2.decision.action

    def test_low_confidence_windows_take_no_action(self):
        report = run_closed_loop(default_scenario(seed=1))
        for w in report.windows:
            if w.estimate.low_confidence:
                assert not w.decision.anomaly
                assert not w.applied

    def test_unsampled_windows_hold_their_prior(self):
        # the leader's cruise stretches carry too little excitation to
        # identify both parameters: those windows run no chain
        report = run_closed_loop(default_scenario(seed=1))
        unsampled = [w.index for w in report.windows
                     if harness.estimate_record(w.estimate)["sample_count"] == 0]
        assert unsampled == [0, 1, 2, 3, 6, 8, 9, 10, 11]
        for w in report.windows:
            est = w.estimate
            assert est.low_confidence == (w.index in unsampled)
            if w.index not in unsampled:
                continue
            assert (est.K_L, est.T_L) == w.prior_mean
            assert np.array_equal(est.covariance, w.prior_variance * np.eye(2))
            half = 1.959964 * w.prior_variance ** 0.5
            assert np.isfinite(est.credible).all()
            assert est.credible == pytest.approx(
                np.array([[m - half, m + half] for m in w.prior_mean]))
            assert w.decision.rationale == ["estimate flagged low-confidence; no action"]
            assert not w.decision.anomaly and not w.applied
            # a window that is not sampled seeds no prior
            following = report.windows[w.index + 1]
            assert following.prior_mean == w.prior_mean
            assert following.prior_variance == w.prior_variance

    def test_time_gap_rises_gradually_after_escalation(self):
        sc = default_scenario(seed=1)
        report = run_closed_loop(sc)
        escalated = [w for w in report.windows
                     if w.decision.action.value == "update_lower_and_time_gap"]
        assert escalated, "scenario should escalate the time gap"
        t_esc = escalated[0].t_end
        f = report.follower
        gap_target = sc.controller.delta_star + 2.0 * f.speed
        # right after the decision the spacing cannot already match the
        # escalated target: the change is slewed, not stepped
        i = np.searchsorted(f.time, t_esc + 2.0)
        leader = report.leader
        gap = leader.position[i] - f.position[i]
        assert gap < gap_target[i] - 1.0


class TestSimulateForkedWriter:
    """A closed-loop run through ``cfmonitor simulate``: its SGLD chains run
    in process, only the float-table writer forks, and a run's artifacts
    and exit codes do not depend on whether the writer can fork."""

    @pytest.fixture
    def config(self, tmp_path, forks):
        """A 12 s leader (six windows) and a switch at 6 s.  Windows 0 and 2,
        at constant leader speed, are not sampled.  The fork that writes the
        leader's file is not counted as the run's."""
        def write(text):
            save_trajectory(synthetic_leader(SyntheticLeaderSpec(segments=(
                LeaderSegment(3.0, 0.0), LeaderSegment(3.0, -1.0),
                LeaderSegment(3.0, 1.0), LeaderSegment(3.0, 0.0)))),
                tmp_path / "leader.csv")
            forks.clear()
            path = tmp_path / "run.cfg"
            path.write_text(f"leader.source = {tmp_path / 'leader.csv'}\n"
                            f"plant.switch_time = 6\n{text}")
            return path
        return write

    @staticmethod
    def simulate(cfg, out):
        """Exit code and stderr of ``cfmonitor simulate``."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        return code, err.getvalue()

    @staticmethod
    def assert_same_artifacts(a, b):
        """Both run directories hold the seven artifacts, byte for byte alike."""
        names = sorted(os.listdir(a))
        assert len(names) == 7 and names == sorted(os.listdir(b))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("one_process", ["one_cpu", "no_fork", "fork_fails"])
    def test_artifacts_equal_without_fork(self, tmp_path, monkeypatch, forks,
                                          assert_no_children, config, one_process):
        cfg = config("sgld.K_iters = 1100\n")
        assert self.simulate(cfg, tmp_path / "forked") == (0, "")
        # the writer forks for the 1200-row trajectory tables, more rows than
        # it splits from, and writes the six-row timeline in process
        assert forks == ["write_csv_columns"]
        counts = [json.loads(line)["sample_count"] for line in
                  (tmp_path / "forked" / "estimates.jsonl").read_text().splitlines()]
        assert [count > 0 for count in counts] == [False, True, False, True, True, True]
        if one_process == "one_cpu":
            monkeypatch.setattr(harness, "_can_offload", lambda: False)
        elif one_process == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            def fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", fork)
        assert self.simulate(cfg, tmp_path / "in_process") == (0, "")
        assert forks == ["write_csv_columns"]
        self.assert_same_artifacts(tmp_path / "forked", tmp_path / "in_process")
        assert_no_children()

    def test_child_failure_exits_4(self, tmp_path, monkeypatch, forks,
                                   assert_no_children, config):
        cfg = config("sgld.K_iters = 1100\n")
        # the writer's child fails after every chain has run
        parent = os.getpid()
        real_format_blocks = harness._format_blocks

        def format_blocks(*args):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return real_format_blocks(*args)

        monkeypatch.setattr(harness, "_format_blocks", format_blocks)
        code, err = self.simulate(cfg, tmp_path / "out")
        assert code == 4
        assert err.startswith("I/O error: failed writing outputs under")
        assert forks == ["write_csv_columns"]
        assert_no_children()

    def test_diverged_chain_keeps_prior(self, tmp_path, forks, assert_no_children,
                                        config):
        # 0.5 s windows: the chains of windows 19 and 23 leave the positive
        # floats (an OverflowError and a ZeroDivisionError); each window
        # keeps its prior, unsampled, and the run writes its outputs
        code, err = self.simulate(config("window.length = 0.5\n"), tmp_path / "out")
        assert (code, err) == (0, "")
        assert forks == ["write_csv_columns"]
        estimates, decisions = ([json.loads(line) for line in
                                 (tmp_path / "out" / name).read_text().splitlines()]
                                for name in ("estimates.jsonl", "decisions.jsonl"))
        assert len(estimates) == len(decisions) == 24
        for w in (19, 23):
            assert estimates[w]["sample_count"] == 0 and estimates[w]["low_confidence"]
            assert list(estimates[w]["posterior_mean"].values()) == estimates[w]["prior_mean"]
            assert not decisions[w]["applied"]
        assert_no_children()

    def test_collision_mid_run_reaps_child(self, forks, assert_no_children):
        # a run cut short by a collision leaves no process behind
        report = run_closed_loop(COLLIDING)
        assert report.collision_time is not None and report.windows
        assert forks == []
        assert_no_children()


class TestEmitOutputs:
    def test_artifacts_round_trip(self, tmp_path):
        report = run_closed_loop(short_scenario(duration=8.0))
        written = emit_outputs(report, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {"leader.csv", "follower.csv", "estimates.jsonl",
                         "decisions.jsonl", "estimate_timeline.csv",
                         "overlay.csv", "summary.json"}
        for p in written:
            if p.endswith(".csv"):
                with open(p, newline="") as fh:
                    rows = list(csv.reader(fh))
                assert len(rows) >= 1
            elif p.endswith(".jsonl"):
                with open(p) as fh:
                    for line in fh:
                        json.loads(line)
            else:
                with open(p) as fh:
                    json.load(fh)

    def test_summary_rms_recomputable(self, tmp_path):
        report = run_closed_loop(default_scenario(seed=2))
        emit_outputs(report, tmp_path)
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        with open(tmp_path / "follower.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        accel = np.array([float(r["accel"]) for r in rows])
        time = np.array([float(r["time"]) for r in rows])
        post = accel[time >= summary["switch_time"]]
        assert summary["post_switch_accel_rms"] == pytest.approx(
            float(np.sqrt(np.mean(post**2))), abs=1e-9)

    def test_empty_report_writes_headers_only(self, tmp_path):
        leader = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(0.05, 0.0),), v0=10.0))
        empty = plant.SimulationResult(*(np.empty(0),) * 6, None)
        report = RunReport(leader, empty, [], 2.0, None, None, 0.0, 0.0,
                           float("inf"))
        emit_outputs(report, tmp_path)
        with open(tmp_path / "follower.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1
        assert (tmp_path / "estimates.jsonl").read_text() == ""

        def no_constant(name):
            raise ValueError(f"non-standard JSON token {name}")
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=no_constant)
        assert summary["min_gap"] is None
