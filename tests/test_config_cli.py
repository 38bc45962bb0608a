import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cfmonitor.cli import main
from cfmonitor.config import ConfigError, parse_config_file, scenario_from_config
from cfmonitor.harness import (
    _window_seed,
    default_leader_spec,
    save_trajectory,
    synthetic_leader,
)
from cfmonitor.monitor import Escalation

# every key scenario_from_config reads
CONFIG_KEYS = (
    "controller.k_s", "controller.k_v", "controller.k_a", "controller.tau_star",
    "controller.delta_star", "controller.T_L_nominal", "controller.K_L_nominal",
    "controller.T_L_lower", "controller.T_L_upper", "controller.K_L_lower",
    "controller.K_L_upper", "controller.t_s", "controller.u_min",
    "controller.u_max", "controller.comp_lead_max", "controller.comp_gain_max",
    "plant.sigma_eps", "plant.T_L_true", "plant.K_L_true", "plant.switch_time",
    "plant.switch_T_L", "plant.switch_K_L", "plant.switch_sigma_eps",
    "leader.source", "leader.smoothing_width",
    "monitor.escalation", "monitor.accepted_change_T_L",
    "monitor.accepted_change_K_L", "monitor.tau_star_escalated",
    "monitor.gains_escalated_k_s", "monitor.gains_escalated_k_v",
    "monitor.gains_escalated_k_a", "monitor.bound_inflation",
    "monitor.tau_star_slew", "monitor.enabled",
    "sgld.eta_1", "sgld.K_iters", "sgld.burn_in_c", "sgld.minibatch_n",
    "sgld.sigma_sq", "sgld.max_drift",
    "window.length", "prior.mean_K_L", "prior.mean_T_L", "prior.variance",
    "prior.rolling_lambda", "seed",
)

# value texts as they appear right of the "="
ODD_VALUES = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
              "1e200", "-1e200", "5e-324", "0", "-1", "null", "true", "[1]", "[]",
              "[0.5, 1]", "{}", '{"k": 1}', '"1.5"', "fast", "time_gap")
CONFIG_VALUES = st.one_of(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(width=64),
              st.text(max_size=6)).map(json.dumps),
    st.sampled_from(ODD_VALUES),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
)


def stability_exit_code(cfg, values):
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["stability", "--config", str(cfg)])


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg")


class TestConfigParsing:
    def test_typed_values_and_comments(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment line\n"
            "controller.k_s = 2.0\n"
            "seed = 7  # trailing comment\n"
            "leader.source = synthetic\n"
            "monitor.enabled = false\n"
            "\n"
        )
        values = parse_config_file(path)
        assert values == {"controller.k_s": 2.0, "seed": 7,
                          "leader.source": "synthetic",
                          "monitor.enabled": False}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("controller.k_s 2.0\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_file(path)

    def test_scenario_from_values(self):
        sc = scenario_from_config({
            "controller.tau_star": 1.5,
            "plant.switch_T_L": 2.0,
            "monitor.escalation": "gains",
            "sgld.K_iters": 1000,
            "seed": 9,
        })
        assert sc.controller.tau_star == 1.5
        assert sc.schedule[1][1].T_L_true == 2.0
        assert sc.policy.escalation_choice is Escalation.GAINS
        assert sc.sgld.K_iters == 1000
        assert sc.seed == 9

    def test_switch_can_be_disabled(self):
        sc = scenario_from_config({"plant.switch_time": None})
        assert len(sc.schedule) == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            scenario_from_config({"controller.k_q": 1.0})

    def test_bad_escalation_rejected(self):
        with pytest.raises(ConfigError, match="monitor.escalation"):
            scenario_from_config({"monitor.escalation": "panic"})

    def test_type_errors_reported_per_key(self):
        with pytest.raises(ConfigError, match="sgld.K_iters"):
            scenario_from_config({"sgld.K_iters": 2.5})
        with pytest.raises(ConfigError, match="controller.k_s"):
            scenario_from_config({"controller.k_s": "fast"})

    def test_invalid_controller_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            scenario_from_config({"controller.t_s": -0.01})

    def test_explicit_burn_in_still_validated(self):
        with pytest.raises(ConfigError, match="burn_in_c"):
            scenario_from_config({"sgld.K_iters": 100, "sgld.burn_in_c": 100})

    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("false", False), ("yes", True), ("no", False),
        ("1", True), ("0", False), ("No", False),
    ])
    def test_enabled_flag_words(self, tmp_path, text, expected):
        path = tmp_path / "scenario.cfg"
        path.write_text(f"monitor.enabled = {text}\n")
        sc = scenario_from_config(parse_config_file(path))
        assert sc.strategy_enabled is expected


class TestConfigHoles:
    @pytest.mark.parametrize("line,message", [
        ("plant.switch_time = [1]", "plant.switch_time: expected a finite number"),
        ("plant.switch_time = NaN", "plant.switch_time: expected a finite number"),
        ("sgld.K_iters = 1e400", "sgld.K_iters: expected an integer"),
        ("sgld.K_iters = NaN", "sgld.K_iters: expected an integer"),
        ("sgld.K_iters = 1" + "0" * 400, "too large"),
        ("controller.k_s = NaN", "controller.k_s: expected a finite number"),
        ("controller.k_s = -Infinity", "controller.k_s: expected a finite number"),
        ("controller.u_max = 1" + "0" * 400, "controller.u_max: expected a finite"),
        ("sgld.eta_1 = NaN", "sgld.eta_1: expected a finite number"),
        # the window's step count overflows to inf
        ("controller.t_s = 5e-324", "window_length must be a positive multiple"),
    ])
    def test_rejected_with_exit_2(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert main(["stability", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_overflowing_margins_are_not_satisfied(self, tmp_path, capsys):
        # combo**2 used to raise OverflowError; inf and NaN margins now fail
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("controller.k_v = 1e200\n")
        assert main(["stability", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["string_stable"] is False
        assert np.isnan(out["string_margins"][2])

    def test_overflowing_margins_in_closed_loop(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("controller.k_v = 1e200\nsgld.K_iters = 100\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_each_key_with_odd_values_exits_0_or_2(self, cfg_dir, key):
        for value in ODD_VALUES:
            assert stability_exit_code(cfg_dir / "odd.cfg", {key: value}) in (0, 2), value

    @given(values=st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES,
                                  max_size=4))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fuzzed_config_exits_0_or_2(self, cfg_dir, values):
        assert stability_exit_code(cfg_dir / "fuzz.cfg", values) in (0, 2)


class TestCliStability:
    def test_verdict_json(self, capsys):
        assert main(["stability"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["locally_stable"] is True
        assert out["string_stable"] is True
        assert len(out["local_margins"]) == 5
        assert out["string_margins"][0] == pytest.approx(0.84)

    def test_sweep_writes_region_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "region.csv"
        code = main(["stability", "--sweep", "k_s", "k_v",
                     "--range", "0:5:11", "0:5:11", "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 121

    def test_sweep_without_out_is_config_error(self):
        assert main(["stability", "--sweep", "k_s", "k_v"]) == 2

    def test_bad_grid_spec_is_config_error(self, tmp_path):
        assert main(["stability", "--sweep", "k_s", "k_v",
                     "--range", "bad", "0:5:3",
                     "--out", str(tmp_path / "r.csv")]) == 2


class TestCliSynth:
    def test_writes_leader_csv(self, tmp_path):
        out = tmp_path / "leader.csv"
        assert main(["synth", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["time", "position", "speed", "accel"]


class TestCliEstimate:
    def _write_log(self, path, K_L=1.0, T_L=0.3, n=400):
        rng = np.random.default_rng(0)
        white = rng.standard_normal(n + 100)
        kernel = np.exp(-0.5 * (np.arange(-30, 31) / 8.0) ** 2)
        kernel /= kernel.sum()
        u = np.convolve(white, kernel, mode="same")[50:50 + n]
        u /= max(np.std(u), 1e-9)
        a = 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "accel", "demand"])
            for i in range(n):
                w.writerow([repr(i * 0.01), repr(float(a)), repr(float(u[i]))])
                a += 0.01 * ((K_L * u[i] - a) / T_L)

    def test_estimates_from_log(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self._write_log(log)
        assert main(["estimate", str(log), "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["posterior_mean"]["K_L"] == pytest.approx(1.0, abs=0.1)
        assert out["posterior_mean"]["T_L"] == pytest.approx(0.3, abs=0.1)

    def test_matches_closed_loop_window(self, tmp_path):
        # one serializer: `estimate` on window 0's log of a seed-1 run writes
        # exactly the estimate fields of line 0 of that run's estimates.jsonl
        run = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--seed", "1", "--out", str(run)]) == 0
        with open(run / "follower.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))[:200]
        log = tmp_path / "log.csv"
        with open(log, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "accel", "demand"])
            for r in rows:
                w.writerow([r["time"], r["accel"], r["demanded_accel"]])
        out = tmp_path / "estimate.json"
        assert main(["estimate", str(log), "--seed", str(_window_seed(1, 0)),
                     "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        line0 = json.loads((run / "estimates.jsonl").read_text().splitlines()[0])
        assert list(est) == ["posterior_mean", "covariance", "credible_95",
                             "sample_count", "low_confidence"]
        assert line0["window"] == 0 and list(line0)[-len(est):] == list(est)
        assert est == {k: line0[k] for k in est}

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 4

    def test_overflowing_log_is_config_error(self, tmp_path, capsys):
        # a finite accel whose square overflows made the sampler's drift NaN,
        # which slipped past the max_drift clip and overflowed exp()
        log = tmp_path / "log.csv"
        log.write_text("time,accel,demand\n0.0,-7.3e152,1.0\n0.01,0,0\n0.02,0,0\n")
        assert main(["estimate", str(log)]) == 2
        assert "too large" in capsys.readouterr().err

    def test_malformed_log_is_config_error(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("time,accel\n0,0\n0.01,0\n0.02,0\n")
        assert main(["estimate", str(log)]) == 2


class TestCliSimulate:
    def test_short_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("plant.switch_time = null\nsgld.K_iters = 200\n")
        out_dir = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out_dir)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["windows"] == 30
        assert (out_dir / "follower.csv").exists()
        assert (out_dir / "summary.json").exists()

    def test_bad_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("nonsense.key = 1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("window", ["0", "0.015"])
    def test_invalid_window_is_config_error(self, tmp_path, window):
        # 0.015 s is not a whole number of 0.01 s controller steps
        assert main(["simulate", "--window", window,
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("text", ["maybe", "2"])
    def test_bad_enabled_flag_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"monitor.enabled = {text}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("keys", [
        "plant.T_L_true = 0.004\nplant.switch_time = null\n",
        "plant.switch_T_L = 0.005\n",
    ])
    def test_euler_unstable_lag_is_config_error(self, tmp_path, capsys, keys):
        # t_s = 0.01: at T_L <= t_s/2 the explicit Euler step diverges, and
        # such a run used to end as a "collision" after jerks of 1e8 m/s^3
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(keys)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert "Euler" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_finite_leader_cell_is_config_error(self, tmp_path, capsys):
        # a nan speed at t = 29.99 s used to run 14 windows of SGLD before
        # failing with "non-finite state", naming neither file nor row
        leader = synthetic_leader(default_leader_spec())
        leader.speed[2999] = np.nan
        path = tmp_path / "leader.csv"
        save_trajectory(leader, path)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"leader.source = {path}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"{path}: non-finite value in row 3001" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_collision_exit_code(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "plant.switch_time = 5\n"
            "plant.switch_T_L = 2.5\n"
            "plant.switch_K_L = 0.3\n"
            "plant.switch_sigma_eps = 3.0\n"
            "controller.tau_star = 0.05\n"
            "controller.delta_star = 0.5\n"
            "sgld.K_iters = 200\n"
        )
        code = main(["simulate", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 3
