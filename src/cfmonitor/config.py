"""Flat key=value scenario configuration files.

One typed key per line with dotted section names, e.g.::

    controller.k_s = 1.5
    plant.switch_time = 26
    leader.source = synthetic

Unset keys fall back to the default scenario.
"""
from __future__ import annotations

import json
import math

from .estimator import GaussianPrior, SgldHyper
from .harness import ScenarioConfig, default_scenario
from .monitor import Escalation, MonitorPolicy
from .plant import ControllerConfig, PlantParams

__all__ = ["ConfigError", "parse_config_file", "scenario_from_config"]


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict[str, object]:
    values: dict[str, object] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            try:
                values[key] = json.loads(val)
            except json.JSONDecodeError:
                values[key] = val  # bare string (e.g. a path)
    return values


def _pop_float(values: dict, key: str, default: float) -> float:
    v = values.pop(key, default)
    try:
        f = math.nan if isinstance(v, bool) else float(v)
    except (TypeError, ValueError, OverflowError):
        f = math.nan  # reported below, like any non-finite value
    if not math.isfinite(f):
        raise ConfigError(f"{key}: expected a finite number, got {v!r}")
    return f


def _pop_int(values: dict, key: str, default: int) -> int:
    v = values.pop(key, default)
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    try:
        return int(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected an integer, got {v!r}") from None


def _pop_bool(values: dict, key: str, default: bool) -> bool:
    v = values.pop(key, default)
    text = str(v).lower()  # JSON true and 1 arrive as bool and int
    if text in ("true", "yes", "1"):
        return True
    if text in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false/yes/no/1/0, got {v!r}")


def scenario_from_config(values: dict[str, object]) -> ScenarioConfig:
    """Build a scenario from parsed key/value pairs; unknown keys are
    rejected so typos fail loudly."""
    values = dict(values)
    base = default_scenario()
    c = base.controller
    try:
        controller = ControllerConfig(
            k_s=_pop_float(values, "controller.k_s", c.k_s),
            k_v=_pop_float(values, "controller.k_v", c.k_v),
            k_a=_pop_float(values, "controller.k_a", c.k_a),
            tau_star=_pop_float(values, "controller.tau_star", c.tau_star),
            delta_star=_pop_float(values, "controller.delta_star", c.delta_star),
            T_L_nominal=_pop_float(values, "controller.T_L_nominal", c.T_L_nominal),
            K_L_nominal=_pop_float(values, "controller.K_L_nominal", c.K_L_nominal),
            T_L_bounds=(_pop_float(values, "controller.T_L_lower", c.T_L_bounds[0]),
                        _pop_float(values, "controller.T_L_upper", c.T_L_bounds[1])),
            K_L_bounds=(_pop_float(values, "controller.K_L_lower", c.K_L_bounds[0]),
                        _pop_float(values, "controller.K_L_upper", c.K_L_bounds[1])),
            t_s=_pop_float(values, "controller.t_s", c.t_s),
            u_min=_pop_float(values, "controller.u_min", c.u_min),
            u_max=_pop_float(values, "controller.u_max", c.u_max),
            comp_lead_max=_pop_float(values, "controller.comp_lead_max",
                                     c.comp_lead_max),
            comp_gain_max=_pop_float(values, "controller.comp_gain_max",
                                     c.comp_gain_max),
        )

        (_, p0), (switch_time, p1) = base.schedule
        sigma0 = _pop_float(values, "plant.sigma_eps", p0.sigma_eps)
        schedule = [(0.0, PlantParams(
            T_L_true=_pop_float(values, "plant.T_L_true", p0.T_L_true),
            K_L_true=_pop_float(values, "plant.K_L_true", p0.K_L_true),
            sigma_eps=sigma0,
        ))]
        switch = PlantParams(  # checked whether or not the switch is on
            T_L_true=_pop_float(values, "plant.switch_T_L", p1.T_L_true),
            K_L_true=_pop_float(values, "plant.switch_K_L", p1.K_L_true),
            sigma_eps=_pop_float(values, "plant.switch_sigma_eps", p1.sigma_eps),
        )
        if values.get("plant.switch_time", switch_time) is None:
            values.pop("plant.switch_time")
        else:
            schedule.append((_pop_float(values, "plant.switch_time", switch_time),
                             switch))

        source = values.pop("leader.source", "synthetic")
        leader_csv = None if source == "synthetic" else str(source)

        escalation = values.pop("monitor.escalation", base.policy.escalation_choice.value)
        try:
            escalation = Escalation(escalation)
        except ValueError:
            options = [e.value for e in Escalation]
            raise ConfigError(f"monitor.escalation: expected one of {options}")
        p = base.policy
        policy = MonitorPolicy(
            accepted_change_T_L=_pop_float(values, "monitor.accepted_change_T_L",
                                           p.accepted_change_T_L),
            accepted_change_K_L=_pop_float(values, "monitor.accepted_change_K_L",
                                           p.accepted_change_K_L),
            escalation_choice=escalation,
            tau_star_escalated=_pop_float(values, "monitor.tau_star_escalated",
                                          p.tau_star_escalated),
            gains_escalated=(
                _pop_float(values, "monitor.gains_escalated_k_s", p.gains_escalated[0]),
                _pop_float(values, "monitor.gains_escalated_k_v", p.gains_escalated[1]),
                _pop_float(values, "monitor.gains_escalated_k_a", p.gains_escalated[2]),
            ),
            bound_inflation=_pop_float(values, "monitor.bound_inflation",
                                       p.bound_inflation),
            tau_star_slew=_pop_float(values, "monitor.tau_star_slew",
                                     p.tau_star_slew),
        )

        s = base.sgld
        sgld = SgldHyper(
            K_iters=_pop_int(values, "sgld.K_iters", s.K_iters),
            burn_in_c=(None if "sgld.burn_in_c" not in values
                       else _pop_int(values, "sgld.burn_in_c", 0)),
            sigma_sq=_pop_float(values, "sgld.sigma_sq", s.sigma_sq),
        )

        scenario = ScenarioConfig(
            controller=controller,
            schedule=schedule,
            leader_csv=leader_csv,
            leader_spec=base.leader_spec if leader_csv is None else None,
            smoothing_width=_pop_float(values, "leader.smoothing_width",
                                       base.smoothing_width),
            window_length=_pop_float(values, "window.length", base.window_length),
            sgld=sgld,
            policy=policy,
            prior=GaussianPrior(
                (_pop_float(values, "prior.mean_K_L", base.prior.mean[0]),
                 _pop_float(values, "prior.mean_T_L", base.prior.mean[1])),
                _pop_float(values, "prior.variance", base.prior.variance)),
            rolling_lambda=_pop_float(values, "prior.rolling_lambda",
                                      base.rolling_lambda),
            strategy_enabled=_pop_bool(values, "monitor.enabled",
                                       base.strategy_enabled),
            seed=_pop_int(values, "seed", base.seed),
        )
    except (ValueError, OverflowError) as exc:  # e.g. a K_iters beyond float range
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    if values:
        raise ConfigError(f"unknown config keys: {sorted(values)}")
    return scenario
