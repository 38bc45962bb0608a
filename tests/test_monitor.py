import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfmonitor.estimator import posterior_summary
from cfmonitor.monitor import (
    Action,
    DecisionError,
    Escalation,
    MonitorPolicy,
    apply_decision,
    check_bounds,
    evaluate,
)
from cfmonitor.plant import ControllerConfig


POLICY = MonitorPolicy()


def estimate(K_L, T_L, half_width=0.01, low_confidence=False):
    """Synthetic posterior centered on (K_L, T_L)."""
    offsets = np.linspace(-half_width, half_width, 41)
    samples = np.column_stack([K_L + offsets, T_L + offsets])
    est = posterior_summary(samples)
    est.low_confidence = low_confidence
    return est


def nominal_config(**kwargs):
    return ControllerConfig(**kwargs)


class TestPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"accepted_change_T_L": 0.0},
        {"accepted_change_K_L": -0.1},
        {"tau_star_escalated": 0.0},
        {"bound_inflation": 0.0},
        {"tau_star_slew": 0.0},
        # NaN compares false both ways, so "<= 0" let it through
        {"accepted_change_T_L": float("nan")},
        {"accepted_change_K_L": float("nan")},
        {"tau_star_escalated": float("nan")},
        {"bound_inflation": float("nan")},
        {"tau_star_slew": float("nan")},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MonitorPolicy(**kwargs)


class TestCheckBounds:
    def test_small_drift_inside_band(self):
        crossed, flags = check_bounds(estimate(0.98, 0.30), (0.98, 0.24), POLICY)
        assert not crossed
        assert flags == {"K_L": False, "T_L": False}

    def test_large_shift_flags_both(self):
        crossed, flags = check_bounds(estimate(0.64, 1.33), (0.98, 0.24), POLICY)
        assert crossed
        assert flags == {"K_L": True, "T_L": True}

    def test_exact_baseline_no_anomaly(self):
        crossed, _ = check_bounds(estimate(0.98, 0.24), (0.98, 0.24), POLICY)
        assert not crossed

    def test_single_parameter_crossing(self):
        crossed, flags = check_bounds(estimate(0.98, 0.50), (0.98, 0.24), POLICY)
        assert crossed
        assert flags == {"K_L": False, "T_L": True}

    def test_posterior_mean_alone_decides(self):
        # the posterior mean decides, however wide the credible interval
        for half_width in (0.5, 0.01):
            crossed, flags = check_bounds(estimate(1.2, 0.3, half_width=half_width),
                                          (1.0, 0.3), POLICY)
            assert crossed and flags == {"K_L": True, "T_L": False}
        crossed, _ = check_bounds(estimate(1.1, 0.3, half_width=0.5), (1.0, 0.3), POLICY)
        assert not crossed


class TestEvaluate:
    def test_estimate_at_nominals_is_no_action(self):
        cfg = nominal_config()
        d = evaluate(estimate(1.0, 0.3), cfg, POLICY)
        assert not d.anomaly
        assert d.action is Action.NONE
        assert d.new_config == cfg

    def test_low_confidence_never_acts(self):
        cfg = nominal_config()
        d = evaluate(estimate(0.5, 1.5, low_confidence=True), cfg, POLICY)
        assert not d.anomaly
        assert d.action is Action.NONE
        assert any("low-confidence" in r for r in d.rationale)

    def test_estimate_without_valid_config_never_acts(self):
        # K_L = 4e-6 lies below the 1e-3 floor of the re-centered bounds
        cfg = nominal_config()
        d = evaluate(estimate(4e-6, 20.0, half_width=1e-6), cfg, POLICY)
        assert not d.anomaly
        assert d.action is Action.NONE
        assert d.stability_verdict is None
        assert d.new_config is cfg
        assert d.rationale == ["no valid configuration from estimate (K_L=4e-06, "
                               "T_L=20): K_L_nominal outside K_L_bounds; no action"]

    def test_stable_drift_updates_lower_level_only(self):
        cfg = nominal_config()
        est = estimate(0.75, 0.32)  # gain left the band; dynamics still stable
        d = evaluate(est, cfg, POLICY)
        assert d.anomaly
        assert d.action is Action.UPDATE_LOWER
        assert d.new_config.K_L_nominal == pytest.approx(0.75)
        assert d.new_config.T_L_nominal == pytest.approx(0.32)
        assert d.new_config.tau_star == cfg.tau_star

    def test_bounds_recentered_on_estimate(self):
        d = evaluate(estimate(0.75, 0.32), nominal_config(), POLICY)
        lo, hi = d.new_config.K_L_bounds
        assert lo <= 0.75 <= hi
        assert hi - lo >= 2 * POLICY.bound_inflation - 1e-12

    def test_unstable_estimate_escalates_time_gap(self):
        d = evaluate(estimate(0.64, 1.33), nominal_config(), POLICY)
        assert d.anomaly
        assert d.action is Action.UPDATE_LOWER_AND_TIME_GAP
        assert d.new_config.tau_star == POLICY.tau_star_escalated
        assert not d.stability_verdict.string_stable

    def test_gains_escalation_choice(self):
        policy = MonitorPolicy(escalation_choice=Escalation.GAINS)
        d = evaluate(estimate(0.64, 1.33), nominal_config(), policy)
        assert d.action is Action.UPDATE_LOWER_AND_GAINS
        assert (d.new_config.k_s, d.new_config.k_v, d.new_config.k_a) == \
            policy.gains_escalated

    def test_both_escalation_choice(self):
        policy = MonitorPolicy(escalation_choice=Escalation.BOTH)
        d = evaluate(estimate(0.64, 1.33), nominal_config(), policy)
        assert d.action is Action.UPDATE_LOWER_AND_BOTH

    def test_none_escalation_updates_lower_level_only(self):
        policy = MonitorPolicy(escalation_choice=Escalation.NONE)
        d = evaluate(estimate(0.64, 1.33), nominal_config(), policy)
        assert d.anomaly
        assert d.action is Action.UPDATE_LOWER
        assert d.new_config.tau_star == 1.0

    def test_instability_inside_band_takes_precedence(self):
        # nominals already degraded: a fresh estimate right at them stays
        # inside the accepted band, yet the configuration is unstable
        cfg = ControllerConfig(T_L_nominal=1.33, K_L_nominal=0.64,
                               T_L_bounds=(1.2, 1.45), K_L_bounds=(0.6, 0.7))
        d = evaluate(estimate(0.64, 1.33), cfg, POLICY)
        assert d.anomaly
        assert d.action is Action.UPDATE_LOWER_AND_TIME_GAP
        assert any("precedence" in r for r in d.rationale)

    def test_escalation_is_idempotent(self):
        # the degraded plant: string unstable at the escalated time gap too
        # (sup |Gamma| 1.077 at tau* = 2), so the second window still acts
        cfg = nominal_config()
        d1 = evaluate(estimate(0.5, 1.5), cfg, POLICY)
        assert d1.action is Action.UPDATE_LOWER_AND_TIME_GAP
        cfg2 = apply_decision(cfg, d1)
        d2 = evaluate(estimate(0.5, 1.5), cfg2, POLICY)
        # the time gap is already raised: only the lower level refreshes
        assert d2.action is Action.UPDATE_LOWER
        assert d2.new_config.tau_star == cfg2.tau_star

    @given(dK=st.floats(-0.14, 0.14), dT=st.floats(-0.19, 0.19))
    @settings(max_examples=50)
    def test_estimates_inside_band_and_stable_never_trigger(self, dK, dT):
        cfg = nominal_config()
        est = estimate(1.0 + dK, 0.3 + dT)
        d = evaluate(est, cfg, POLICY)
        if d.anomaly:
            # only a stability violation may fire inside the band
            assert not (d.stability_verdict.locally_stable
                        and d.stability_verdict.string_stable)
        assert d.anomaly == (d.action is not Action.NONE)

    def test_action_none_iff_no_anomaly(self):
        for est in (estimate(1.0, 0.3), estimate(0.64, 1.33),
                    estimate(0.5, 1.5, low_confidence=True),
                    estimate(4e-6, 20.0, half_width=1e-6)):
            d = evaluate(est, nominal_config(), POLICY)
            assert d.anomaly == (d.action is not Action.NONE)


class TestApplyDecision:
    def test_none_returns_config_unchanged(self):
        cfg = nominal_config()
        d = evaluate(estimate(1.0, 0.3), cfg, POLICY)
        assert apply_decision(cfg, d) is cfg

    def test_time_gap_escalation_applied(self):
        cfg = nominal_config()
        d = evaluate(estimate(0.64, 1.33), cfg, POLICY)
        new = apply_decision(cfg, d)
        assert new.tau_star == 2.0
        assert new.T_L_nominal == pytest.approx(1.33)
        assert new.k_s == cfg.k_s

    def test_gains_escalation_applied(self):
        policy = MonitorPolicy(escalation_choice=Escalation.GAINS)
        cfg = nominal_config()
        d = evaluate(estimate(0.64, 1.33), cfg, policy)
        new = apply_decision(cfg, d)
        assert (new.k_s, new.k_v, new.k_a) == (3.0, 3.0, -1.8)

    def test_shrinking_gains_rejected(self):
        cfg = nominal_config()
        d = evaluate(estimate(0.64, 1.33),
                     cfg, MonitorPolicy(escalation_choice=Escalation.GAINS))
        d.new_config = ControllerConfig(
            k_s=0.5, k_v=0.5, k_a=-0.1,
            T_L_nominal=1.33, K_L_nominal=0.64,
            T_L_bounds=(1.0, 1.5), K_L_bounds=(0.5, 0.8))
        with pytest.raises(DecisionError):
            apply_decision(cfg, d)

    def test_non_increasing_time_gap_rejected(self):
        cfg = nominal_config()
        d = evaluate(estimate(0.64, 1.33), cfg, POLICY)
        d.new_config = ControllerConfig(
            tau_star=1.0,
            T_L_nominal=1.33, K_L_nominal=0.64,
            T_L_bounds=(1.0, 1.5), K_L_bounds=(0.5, 0.8))
        with pytest.raises(DecisionError):
            apply_decision(cfg, d)
