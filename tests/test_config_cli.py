import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cfmonitor import cli
from cfmonitor.cli import main
from cfmonitor.config import ConfigError, parse_config_file, scenario_from_config
from cfmonitor.harness import (
    LeaderSegment,
    SyntheticLeaderSpec,
    _window_seed,
    default_leader_spec,
    default_scenario,
    save_trajectory,
    synthetic_leader,
)
from cfmonitor.monitor import Escalation
from cfmonitor.plant import Trajectory

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
    "sgld.K_iters", "sgld.burn_in_c", "sgld.sigma_sq",
    "window.length", "prior.mean_K_L", "prior.mean_T_L", "prior.variance",
    "prior.rolling_lambda", "seed",
)
# keys no longer read, which a config is refused for whatever their value
DELETED_KEYS = ("sgld.max_drift", "sgld.eta_1", "sgld.minibatch_n")

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


def _no_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict
    parsers do."""
    return json.loads(text, parse_constant=_no_constant)


# these used to run to the first sampled window and end there with "need at
# least 2 samples", naming no key
ONE_SAMPLE_CHAINS = ("sgld.K_iters = 2", "sgld.K_iters = 100\nsgld.burn_in_c = 99")
# a prior so tight at K_L = 1e-4 that every sampled window's estimate lies
# below the 1e-3 floor of the bounds the monitor would re-center
TINY_GAIN_PRIOR = "prior.mean_K_L = 1e-4\nprior.variance = 1e-10\n"


def stability_exit_code(cfg, values):
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["stability", "--config", str(cfg)])


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg")


@pytest.fixture(scope="module")
def one_second_run(tmp_path_factory):
    """Exit code and output directory of ``simulate --seed 1`` with 1 s
    windows.  Window 33 carries the excitation to be sampled and has a
    mode, but its chain leaves the positive floats."""
    d = tmp_path_factory.mktemp("one_second")
    (d / "scenario.cfg").write_text("window.length = 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--config", str(d / "scenario.cfg"), "--seed", "1",
                     "--out", str(d / "run")])
    return code, d / "run"


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
        path.write_text("seed = 1\n = 5\n")
        with pytest.raises(ConfigError, match=":2: empty key"):
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

    def test_no_keys_give_the_default_scenario(self):
        assert scenario_from_config({}) == default_scenario()

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
        # a disabled switch's keys are checked as an enabled one's
        ('plant.switch_time = null\nplant.switch_T_L = "junk"',
         "plant.switch_T_L: expected a finite number"),
        ("plant.switch_time = null\nplant.switch_K_L = NaN",
         "plant.switch_K_L: expected a finite number"),
        ("plant.switch_time = null\nplant.switch_sigma_eps = -1",
         "sigma_eps must be non-negative"),
        ("sgld.K_iters = 1e400", "sgld.K_iters: expected an integer"),
        ("sgld.K_iters = NaN", "sgld.K_iters: expected an integer"),
        ("sgld.K_iters = 1" + "0" * 400, "too large"),
        ("controller.k_s = NaN", "controller.k_s: expected a finite number"),
        ("controller.k_s = -Infinity", "controller.k_s: expected a finite number"),
        ("controller.u_max = 1" + "0" * 400, "controller.u_max: expected a finite"),
        # the window's step count overflows to inf
        ("controller.t_s = 5e-324", "window_length must be a positive multiple"),
        # windows of 0 (after rounding) and 1 step: no jerk difference to take
        ("window.length = 1e-12", "window_length must be a positive multiple"),
        ("window.length = 0.01", "window_length must be a positive multiple"),
        # these four used to pass here and stop a closed-loop run midway
        ("prior.variance = 0", "prior variance must be positive"),
        ("prior.rolling_lambda = -1", "rolling_lambda must be positive"),
        ("seed = -1", "seed must be non-negative"),
        ("monitor.escalation = gains\ncontroller.k_s = 5",
         "escalated gain k_s = 3 is smaller in magnitude than the controller's 5"),
        # JSON booleans are not numbers; false used to be read as 0.0
        ("controller.k_s = true", "controller.k_s: expected a finite number"),
        ("prior.variance = false", "prior.variance: expected a finite number"),
        # the closed loop smooths only a positive width, so this is checked first
        ("leader.smoothing_width = -1", "smoothing_width must be non-negative"),
        # chains that keep 1 sample, with the default burn-in and a given one
        *((line, "sgld.burn_in_c (by default 60 % of sgld.K_iters) must lie in "
                 "[1, sgld.K_iters - 2]") for line in ONE_SAMPLE_CHAINS),
        # the drift clip went with the decaying step it held, and the
        # minibatch size and its step with the minibatch chain
        ("sgld.max_drift = 0.1", "unknown config keys: ['sgld.max_drift']"),
        ("sgld.eta_1 = 0.05", "unknown config keys: ['sgld.eta_1']"),
        # so are the values eta_1's own range and finite checks refused
        ("sgld.eta_1 = 2", "unknown config keys: ['sgld.eta_1']"),
        ("sgld.eta_1 = NaN", "unknown config keys: ['sgld.eta_1']"),
        ("sgld.minibatch_n = 32", "unknown config keys: ['sgld.minibatch_n']"),
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
        out = strict_json(capsys.readouterr().out)
        assert out["string_stable"] is False
        assert out["string_margins"][2] is None  # NaN, written as null

    def test_overflowing_margins_in_closed_loop(self, tmp_path):
        # with the strategy off the trajectory does not depend on the
        # estimates: windows 15, 16 and 24 lack the excitation to be
        # sampled, and every other window's verdict has an overflowing margin
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("controller.k_v = 1e200\nsgld.K_iters = 100\n"
                       "monitor.enabled = false\n")
        run = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(run)]) == 0
        lines = (run / "decisions.jsonl").read_text().splitlines()
        margins = [strict_json(line)["margins"] for line in lines]
        assert len(margins) == 30
        assert [w for w, m in enumerate(margins) if m is None] == [15, 16, 24]
        assert all(m[-1] is None for m in margins if m is not None)

    @pytest.mark.parametrize("key", CONFIG_KEYS + DELETED_KEYS)
    def test_each_key_with_odd_values_exits_0_or_2(self, cfg_dir, key):
        codes = (2,) if key in DELETED_KEYS else (0, 2)
        for value in ODD_VALUES:
            assert stability_exit_code(cfg_dir / "odd.cfg", {key: value}) in codes, value

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

    def test_sweep_with_overflowing_gain_prints_no_warning(self, tmp_path):
        # in a fresh interpreter, so numpy's warnings reach stderr as a user
        # would see them rather than pytest's warning filters
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("controller.k_v = 1e200\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "cfmonitor.cli", "stability", "--config",
             str(cfg), "--sweep", "k_s", "k_a", "--range", "0:1:3", "0:1:3",
             "--out", str(tmp_path / "region.csv")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_sweep_without_out_is_config_error(self, capsys):
        assert main(["stability", "--sweep", "k_s", "k_v"]) == 2
        # the verdict is not printed before the error
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("sweep", [["k_s", "foo"], ["k_v", "k_v"]])
    def test_bad_sweep_name_prints_nothing(self, tmp_path, capsys, sweep):
        assert main(["stability", "--sweep", *sweep,
                     "--out", str(tmp_path / "r.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert not (tmp_path / "r.csv").exists()

    def test_grid_over_cell_limit_prints_nothing(self, tmp_path, capsys):
        assert main(["stability", "--sweep", "k_s", "k_v", "--range", "0:5:2000",
                     "0:5:2000", "--out", str(tmp_path / "r.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exceeds the limit" in err
        assert not (tmp_path / "r.csv").exists()

    def test_bad_grid_spec_is_config_error(self, tmp_path):
        for ranges in (["bad", "0:5:3"],
                       # too many cells, rejected before any grid is allocated
                       ["0:5:10000000000000", "0:5:3"], ["0:5:30000", "0:5:30000"],
                       # non-finite bounds: nan used to give rows of k_s = nan,
                       # inf a RuntimeWarning from np.linspace first
                       ["nan:1:1", "0:1:2"], ["0:inf:2", "0:1:2"],
                       # an empty axis
                       ["0:1:0", "0:1:2"]):
            assert main(["stability", "--sweep", "k_s", "k_v", "--range", *ranges,
                         "--out", str(tmp_path / "r.csv")]) == 2, ranges
        # checked without --sweep too
        assert main(["stability", "--range", "bad", "bad"]) == 2

    def test_negative_range_bound(self, tmp_path, capsys):
        # argparse reads -3:0:31 as a value, not an option, only through the
        # stability parser's private _negative_number_matcher: this fails if
        # a Python release stops consulting it
        out = tmp_path / "region.csv"
        assert main(["stability", "--sweep", "k_a", "k_v", "--range", "-3:0:31",
                     "0:5:51", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 31 * 51
        assert [float(row[0]) for row in rows[1::51]] == np.linspace(-3, 0, 31).tolist()
        assert main(["stability", "--sweep", "k_a", "k_v", "--range", "-.5:0:3",
                     "0:5:3", "--out", str(out)]) == 0

    def test_malformed_negative_spec_exits_2(self, tmp_path):
        for ranges in (["-3:0", "0:5:51"], ["-3:0:x", "0:5:51"], ["-x:0:3", "0:5:3"]):
            code, err = run_cli(["stability", "--sweep", "k_a", "k_v", "--range",
                                 *ranges, "--out", str(tmp_path / "r.csv")])
            assert code == 2 and err, ranges
        assert not (tmp_path / "r.csv").exists()


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

    @staticmethod
    def _write_window_log(run, rows, path):
        """The follower rows ``rows`` of a run as an ``estimate`` log."""
        with open(run / "follower.csv", newline="") as fh:
            follower = list(csv.DictReader(fh))[rows]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "accel", "demand"])
            for r in follower:
                w.writerow([r["time"], r["accel"], r["demanded_accel"]])

    def test_matches_closed_loop_window(self, tmp_path):
        # one serializer: `estimate` on window 0's log of a seed-1 run writes
        # exactly the estimate fields of line 0 of that run's estimates.jsonl
        run = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--seed", "1", "--out", str(run)]) == 0
        log = tmp_path / "log.csv"
        self._write_window_log(run, slice(0, 200), log)
        out = tmp_path / "estimate.json"
        assert main(["estimate", str(log), "--seed", str(_window_seed(1, 0)),
                     "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        line0 = json.loads((run / "estimates.jsonl").read_text().splitlines()[0])
        assert list(est) == ["posterior_mean", "covariance", "credible_95",
                             "sample_count", "low_confidence"]
        assert line0["window"] == 0 and list(line0)[-len(est):] == list(est)
        assert est == {k: line0[k] for k in est}

    @pytest.mark.parametrize("log_text", [None, "time,accel\n0,1\n"],
                             ids=["missing", "malformed"])
    def test_config_checked_before_log(self, tmp_path, capsys, log_text):
        log = tmp_path / "log.csv"
        if log_text is not None:
            log.write_text(log_text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus.key = 1\n")
        assert main(["estimate", str(log), "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bogus.key" in err

    def test_seed_from_config_unless_given(self, tmp_path):
        log = tmp_path / "log.csv"
        self._write_log(log)
        seeded, plain = tmp_path / "seeded.cfg", tmp_path / "plain.cfg"
        seeded.write_text("seed = 5\nsgld.K_iters = 200\n")
        plain.write_text("sgld.K_iters = 200\n")

        def mean(*argv):
            out = tmp_path / "estimate.json"
            assert main(["estimate", str(log), *argv, "--out", str(out)]) == 0
            return json.loads(out.read_text())["posterior_mean"]

        from_config = mean("--config", str(seeded))
        assert from_config == mean("--config", str(plain), "--seed", "5")
        assert from_config != mean("--config", str(plain))
        assert mean("--config", str(seeded), "--seed", "0") == mean("--config", str(plain))

    @pytest.mark.parametrize("times, message", [
        ((0.0, 0.01, 0.02, 0.03, 0.05, 0.06),
         "non-uniform sampling: step 0.02 at row 6, expected 0.01"),
        ((0.0, -0.01, -0.02), "non-uniform sampling: step -0.01 at row 3, "
                              "expected a positive step"),
    ], ids=["one_step", "decreasing"])
    def test_non_uniform_log_names_file_and_row(self, tmp_path, capsys, times,
                                                message):
        log = tmp_path / "log.csv"
        log.write_text("time,accel,demand\n" + "".join(f"{t},0,0\n" for t in times))
        assert main(["estimate", str(log)]) == 2
        assert capsys.readouterr().err == f"error: {log}: {message}\n"

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 4

    def test_unidentifiable_log_is_not_sampled(self, tmp_path):
        # constant demand identifies neither parameter: the record is the
        # configured prior, with no samples
        log = tmp_path / "log.csv"
        log.write_text("time,accel,demand\n"
                       + "".join(f"{i / 100!r},0.5,0.5\n" for i in range(200)))
        cfg = tmp_path / "prior.cfg"
        cfg.write_text("prior.mean_K_L = 0.8\nprior.mean_T_L = 0.5\nprior.variance = 4\n")
        out = tmp_path / "estimate.json"
        assert main(["estimate", str(log), "--config", str(cfg), "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert est["sample_count"] == 0 and est["low_confidence"] is True
        assert est["posterior_mean"] == {"K_L": 0.8, "T_L": 0.5}
        assert est["covariance"] == [[4.0, 0.0], [0.0, 4.0]]
        assert est["credible_95"]["K_L"] == pytest.approx([0.8 - 3.919928, 0.8 + 3.919928])
        assert est["credible_95"]["T_L"] == pytest.approx([0.5 - 3.919928, 0.5 + 3.919928])

    def test_overflowing_log_is_config_error(self, tmp_path, capsys):
        # a finite accel whose square overflows made the sampler's drift NaN,
        # which slipped past the max_drift clip and overflowed exp()
        log = tmp_path / "log.csv"
        log.write_text("time,accel,demand\n0.0,-7.3e152,1.0\n0.01,0,0\n0.02,0,0\n")
        assert main(["estimate", str(log)]) == 2
        assert "too large" in capsys.readouterr().err

    def test_diverged_chain_keeps_prior(self, tmp_path, one_second_run):
        # window 33's log under the window's prior and seed: the chain leaves
        # the positive floats, and the estimate is the prior, as in the run
        _, run = one_second_run
        log = tmp_path / "log.csv"
        self._write_window_log(run, slice(3300, 3400), log)
        line = strict_json((run / "estimates.jsonl").read_text().splitlines()[33])
        (K_L, T_L), variance = line["prior_mean"], line["prior_variance"]
        cfg = tmp_path / "prior.cfg"
        cfg.write_text(f"prior.mean_K_L = {K_L!r}\nprior.mean_T_L = {T_L!r}\n"
                       f"prior.variance = {variance!r}\n")
        out = tmp_path / "estimate.json"
        assert main(["estimate", str(log), "--config", str(cfg),
                     "--seed", str(_window_seed(1, 33)), "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert est["sample_count"] == 0 and est["low_confidence"] is True
        assert est["posterior_mean"] == {"K_L": K_L, "T_L": T_L}
        assert est == {k: line[k] for k in est}

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

    @pytest.mark.parametrize("row", [2, 102])
    def test_negative_leader_speed_is_config_error(self, tmp_path, capsys, row):
        # a 10 s leader at 20 m/s: a negative first speed used to fail in the
        # follower's set-up naming neither file nor row, and one at row 102
        # used to run to the end, flagging 5 anomalies in 5 windows
        leader = synthetic_leader(SyntheticLeaderSpec(
            segments=(LeaderSegment(10.0, 0.0),)))
        leader.speed[row - 2] = -1.0
        path = tmp_path / "leader.csv"
        save_trajectory(leader, path)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"leader.source = {path}\nplant.switch_time = null\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"{path}: negative speed in row {row}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_diverged_chain_keeps_prior(self, one_second_run):
        # window 33's chain leaves the positive floats: the window keeps its
        # prior, unsampled, nothing is applied, and the run goes on
        code, run = one_second_run
        assert code == 0
        estimates, decisions = ([strict_json(line) for line in
                                 (run / name).read_text().splitlines()]
                                for name in ("estimates.jsonl", "decisions.jsonl"))
        assert len(estimates) == len(decisions) == 60
        window = estimates[33]
        assert window["sample_count"] == 0 and window["low_confidence"] is True
        assert list(window["posterior_mean"].values()) == window["prior_mean"]
        assert decisions[33]["action"] == "none" and decisions[33]["applied"] is False

    def test_estimate_without_valid_config_is_not_acted_on(self, tmp_path):
        # seed 1 under a tight prior at K_L = 1e-4: window 4, the first one
        # sampled, has posterior mean K_L = 1.3e-4, below the 1e-3 floor of
        # the bounds the monitor would re-center; that used to end the run
        # with "K_L_nominal outside K_L_bounds"
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(TINY_GAIN_PRIOR)
        run = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--seed", "1",
                         "--out", str(run)]) == 0
        lines = [strict_json(line) for line in
                 (run / "decisions.jsonl").read_text().splitlines()]
        skipped = [d for d in lines
                   if d["rationale"][0].startswith("no valid configuration")]
        assert skipped and skipped[0]["window"] == 4
        assert "K_L=0.000127917" in skipped[0]["rationale"][0]
        assert all(d["action"] == "none" and not d["anomaly"]
                   and d["margins"] is None for d in skipped)

    def test_estimate_without_valid_config_seeds_no_prior(self, tmp_path):
        # window 4's estimate (K_L = 1.3e-4) is not acted on; window 5
        # would start from it, with prior mean [1.3e-04, 0.30007]
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(TINY_GAIN_PRIOR)
        run = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--seed", "1",
                         "--out", str(run)]) == 0
        est = [strict_json(line) for line in
               (run / "estimates.jsonl").read_text().splitlines()]
        assert est[4]["sample_count"] > 0
        assert est[4]["posterior_mean"]["K_L"] < 1e-3
        assert est[5]["prior_mean"] == est[4]["prior_mean"]
        assert est[5]["prior_variance"] == est[4]["prior_variance"]

    def test_leader_at_another_step_is_config_error(self, tmp_path, capsys):
        # uniform at 0.02 s: the message says so, rather than calling it
        # non-uniform at the row where rounding strays furthest from 0.01 s
        spec = SyntheticLeaderSpec(segments=(LeaderSegment(30.0, 0.0),))
        path = tmp_path / "leader.csv"
        save_trajectory(synthetic_leader(spec, 0.02), path)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"leader.source = {path}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "error: leader sampled every 0.02 s, but controller.t_s is 0.01 s\n")

    def test_leader_not_starting_at_zero_is_config_error(self, tmp_path, capsys):
        # the schedule's first entry is always at 0 s, so the message names
        # both clocks rather than only the schedule's
        leader = synthetic_leader(default_leader_spec())
        path = tmp_path / "leader.csv"
        save_trajectory(Trajectory(leader.time + 100.0, leader.position,
                                   leader.speed, leader.accel), path)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"leader.source = {path}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "error: first schedule entry must be at the trajectory start: the "
            "schedule starts at t=0 s, the leader at t=100 s\n")
        assert not (tmp_path / "run").exists()

    def test_no_strategy_matches_disabled_engine(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("sgld.K_iters = 200\n")
        off = tmp_path / "off.cfg"
        off.write_text("sgld.K_iters = 200\nmonitor.enabled = false\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--no-strategy",
                         "--out", str(tmp_path / "flag")]) == 0
            assert main(["simulate", "--config", str(off),
                         "--out", str(tmp_path / "key")]) == 0
        names = sorted(os.listdir(tmp_path / "key"))
        assert sorted(os.listdir(tmp_path / "flag")) == names
        for name in names:
            assert ((tmp_path / "flag" / name).read_bytes()
                    == (tmp_path / "key" / name).read_bytes()), name
        decisions = [strict_json(line) for line in
                     (tmp_path / "flag" / "decisions.jsonl").read_text().splitlines()]
        # the monitor decided to act, and nothing was applied
        assert any(d["action"] != "none" for d in decisions)
        assert not any(d["applied"] for d in decisions)

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 59.6 GiB for an array with shape "
                     "(3999997600, 2) and data type float64"),
         "Unable to allocate 59.6 GiB"),
        (MemoryError(), "an allocation failed"),
    ])
    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys, exc,
                                   message):
        def run_closed_loop(scenario):
            raise exc
        monkeypatch.setattr(cli, "run_closed_loop", run_closed_loop)
        assert main(["simulate", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        # 1 / variance overflows; the run used to sample no window
        ("prior.variance", "1e-309"),
        # every later prior's variance; the run used to sample one window
        ("prior.rolling_lambda", "1e-320"),
        # the sums divided by it overflow in the first window
        ("sgld.sigma_sq", "1e-306"),
    ])
    def test_variance_too_small_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["stability", "simulate", "estimate"])
    def test_sigma_sq_reciprocal_overflow_rejected(self, tmp_path, capsys, command):
        # rejected where each command loads its config, before a plant runs
        # or a chain is sampled
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("sgld.sigma_sq = 1e-309\n")
        out = tmp_path / "out"
        argv = {"stability": ["stability"],
                "simulate": ["simulate", "--out", str(out)],
                "estimate": ["estimate", str(tmp_path / "log.csv"), "--out", str(out)]}
        (tmp_path / "log.csv").write_text(
            "time,accel,demand\n" + "".join(f"{i / 100},0,0\n" for i in range(10)))
        assert main(argv[command] + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "sgld.sigma_sq" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_overflowing_escalation_prints_no_warning(self, tmp_path, capsys):
        # the escalated time gap overflows the margins of every later
        # decision, whose bounds are numpy floats; pyproject.toml makes a
        # numpy RuntimeWarning an error here
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("monitor.tau_star_escalated = 1e308\n")
        run = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--seed", "0",
                     "--out", str(run)]) == 0
        assert capsys.readouterr().err == ""
        decisions = [strict_json(line) for line in
                     (run / "decisions.jsonl").read_text().splitlines()]
        assert [d["window"] for d in decisions
                if d["margins"] is not None and None in d["margins"]] == list(range(14, 30))

    @pytest.mark.parametrize("line", ONE_SAMPLE_CHAINS)
    def test_one_sample_chain_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert "must lie in [1, sgld.K_iters - 2]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_first_step_collision_writes_strict_summary(self, tmp_path):
        # a stopped leader and no standstill gap: the follower starts
        # touching it, so the run keeps no follower sample and min_gap is inf
        leader = tmp_path / "leader.csv"
        leader.write_text("time,position,speed,accel\n" + "".join(
            f"{i / 100:.2f},0,0,0\n" for i in range(1001)))
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"leader.source = {leader}\ncontroller.delta_star = 0\n"
                       "plant.switch_time = null\n")
        code, err = run_cli(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "run")])
        assert (code, err) == (3, "")
        summary = strict_json((tmp_path / "run" / "summary.json").read_text())
        assert summary["samples"] == 0 and summary["collision_time"] == 0.0
        assert summary["post_switch_accel_rms"] == 0.0
        assert summary["min_gap"] is None

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


class TestFreshInterpreter:
    """Runs in a new interpreter, which nothing in this session has imported
    into."""

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_run_imports_no_numpy_ma(self, tmp_path, command):
        # numpy 2's np.quantile imports numpy.ma on its first call, about
        # 10 ms; numpy 1 imports it with numpy, so it is there before the call
        if command == "simulate":
            (tmp_path / "short.cfg").write_text("sgld.K_iters = 200\n")
            argv = ["simulate", "--config", str(tmp_path / "short.cfg"),
                    "--out", str(tmp_path / "run")]
        else:
            TestCliEstimate()._write_log(tmp_path / "log.csv")
            argv = ["estimate", str(tmp_path / "log.csv"),
                    "--out", str(tmp_path / "est.json")]
        script = ("import sys\n"
                  "from cfmonitor.cli import main\n"
                  "before = 'numpy.ma' in sys.modules\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, before, 'numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, before, after = proc.stdout.split()[-3:]
        assert code == "0"
        assert before == "True" or after == "False"


# messages of the errors a run can end with after its configuration was
# accepted; each names what to change
IN_RUN_ERRORS = (
    "the likelihood sums overflow",
    "the explicit Euler step would diverge",
    "outside trajectory span",
    "non-uniform sampling",
    "but controller.t_s is",  # a leader sampled at another step
    "smoothing kernel",
)
# keys that set how much work a run does draw from bounded values, so one
# fuzzed run takes tens of milliseconds; the rest draw CONFIG_VALUES
BOUNDED_KEYS = ("sgld.K_iters", "window.length", "leader.source",
                "leader.smoothing_width")
FREE_KEYS = tuple(k for k in CONFIG_KEYS if k not in BOUNDED_KEYS)


def run_cli(argv):
    """Exit code and stderr of one in-process CLI call; argparse's own
    exits count as exit codes.  Any other exception escapes, as it would
    end the command with a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def rejected_up_front(cfg):
    try:
        scenario_from_config(parse_config_file(cfg))
    except ConfigError:
        return True
    return False


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 12 s leader (the default's first 12 s), a 400-row log, a small
    valid config, a malformed config and paths that cannot be read or
    written."""
    d = tmp_path_factory.mktemp("fuzz")
    full = synthetic_leader(default_leader_spec())
    n = 1201
    save_trajectory(Trajectory(full.time[:n], full.position[:n], full.speed[:n],
                               full.accel[:n]), d / "leader.csv")
    TestCliEstimate()._write_log(d / "log.csv")
    (d / "small.cfg").write_text(f"leader.source = {d / 'leader.csv'}\n"
                                 "plant.switch_time = 6\nsgld.K_iters = 100\n")
    (d / "bad.cfg").write_text("this is not a config\n")
    (d / "file").write_text("")
    (d / "cwd").mkdir()
    return d


RUN_VALUES = st.fixed_dictionaries({
    # a file in fuzz_files, or the built-in 60 s leader
    "leader.source": st.sampled_from(["leader.csv", "synthetic", "missing.csv"]),
    "plant.switch_time": st.sampled_from([6, None, 20]),
    "sgld.K_iters": st.integers(50, 300),
}, optional={
    "window.length": st.sampled_from([1, 2, 3, 0.015, 0, -1, 1e-12, 0.01]),
    "leader.smoothing_width": st.sampled_from([0, 0.5, 3, 1e6, 1e200]),
    # valid escalation choices, and spacing gains on both sides of the
    # escalated 3.0, which CONFIG_VALUES seldom give
    "monitor.escalation": st.sampled_from([e.value for e in Escalation]),
    "controller.k_s": st.sampled_from([0.5, 1.5, 5.0]),
}).flatmap(lambda bounded: st.dictionaries(
    st.sampled_from(FREE_KEYS), CONFIG_VALUES, max_size=3,
).map(lambda free: {**bounded, **free}))
# an estimate from which no valid configuration can be built, which used
# to stop a run with "K_L_nominal outside K_L_bounds"
TINY_GAIN = {"leader.source": "leader.csv", "plant.switch_time": 6,
             "sgld.K_iters": 100, "prior.mean_K_L": 1e-4,
             "prior.variance": 1e-10, "seed": 0}


class TestRunFuzz:
    """``simulate`` and ``estimate`` under fuzzed configs, and every
    subcommand under fuzzed arguments: each call ends in exit code 0, 2, 3
    or 4 and never in a traceback."""

    @staticmethod
    def check_config_run(files, values, argv):
        if values["leader.source"] != "synthetic":
            values = {**values, "leader.source": files / values["leader.source"]}
        cfg = files / "run.cfg"
        # strings (CONFIG_VALUES, paths) are written as they are, the rest as JSON
        cfg.write_text("".join(
            f"{k} = {v if isinstance(v, (str, Path)) else json.dumps(v)}\n"
            for k, v in values.items()))
        code, err = run_cli([*argv, "--config", str(cfg)])
        assert code in (0, 2, 3, 4), err
        if code == 2:
            # an accepted configuration fails only for a reason that says
            # what to change
            assert rejected_up_front(cfg) or any(m in err for m in IN_RUN_ERRORS), err
        return code, cfg

    @given(values=RUN_VALUES)
    @example(values=TINY_GAIN)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_simulate(self, fuzz_files, values):
        self.check_config_run(fuzz_files, values,
                              ["simulate", "--out", str(fuzz_files / "run")])

    def test_tiny_gain_runs(self, fuzz_files):
        # the example above must reach the closed loop: a config the parser
        # refuses up front would leave the fuzz cases built like it vacuous
        code, cfg = self.check_config_run(fuzz_files, TINY_GAIN,
                                          ["simulate", "--out", str(fuzz_files / "run")])
        assert not rejected_up_front(cfg) and code == 0

    @given(values=RUN_VALUES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_estimate(self, fuzz_files, values, seed):
        self.check_config_run(fuzz_files, values,
                              ["estimate", str(fuzz_files / "log.csv"), "--seed", str(seed)])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_raw_arguments(self, fuzz_files, data):
        d = fuzz_files
        paths = [d / "small.cfg", d / "bad.cfg", d / "missing.cfg", d, d / "file",
                 d / "file" / "below", d / "out", d / "out.csv", d / "log.csv"]
        token = st.sampled_from([
            "simulate", "estimate", "stability", "synth", "--config", "--seed",
            "--out", "--no-strategy", "--window", "--sweep", "--range", "-h",
            "k_s", "k_v", "k_a", "tau_star", "gain", "0", "1", "-1", "2", "0.015",
            "nan", "1e400", "0:1:3", "0:1", "0:1:-1", "a:b:c", "",
            *map(str, paths),
        ])
        command = data.draw(st.sampled_from(["simulate", "estimate", "stability",
                                             "synth", "bogus"]))
        argv = [command, *data.draw(st.lists(token, max_size=7))]
        if command in ("simulate", "estimate"):
            # the default scenario runs 30 windows of 4000 iterations; a
            # later --config in the drawn tokens replaces this one
            argv[1:1] = ["--config", str(d / "small.cfg")]
        # "--out 0" and the like name a path relative to the working
        # directory, so the call runs in one inside fuzz_files
        home = os.getcwd()
        before = set(os.listdir(home))
        os.chdir(d / "cwd")
        try:
            code, err = run_cli(argv)
        finally:
            os.chdir(home)
        assert set(os.listdir(home)) <= before, argv
        assert code in (0, 2, 3, 4), (argv, err)
