"""Strategy layer: anomaly detection on posterior estimates, stability
re-evaluation at the updated parameters, and controller adjustments.

Escalation ladder: update the lower-level parameter estimates at a
minimum; if the re-evaluated stability conditions fail, additionally
raise the time gap and/or the feedback gains per policy.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import stability
from .plant import ControllerConfig
from .estimator import PosteriorEstimate

__all__ = [
    "Escalation",
    "Action",
    "MonitorPolicy",
    "StrategyDecision",
    "DecisionError",
    "check_bounds",
    "evaluate",
    "apply_decision",
]


class Escalation(Enum):
    # NONE runs the lower-level update only, with no upper-level action
    NONE = "none"
    TIME_GAP = "time_gap"
    GAINS = "gains"
    BOTH = "both"


class Action(Enum):
    NONE = "none"
    UPDATE_LOWER = "update_lower"
    UPDATE_LOWER_AND_TIME_GAP = "update_lower_and_time_gap"
    UPDATE_LOWER_AND_GAINS = "update_lower_and_gains"
    UPDATE_LOWER_AND_BOTH = "update_lower_and_both"


class DecisionError(ValueError):
    """A decision's candidate configuration violates an invariant."""


@dataclass(frozen=True)
class MonitorPolicy:
    accepted_change_T_L: float = 0.2
    accepted_change_K_L: float = 0.15
    escalation_choice: Escalation = Escalation.TIME_GAP
    tau_star_escalated: float = 2.0
    gains_escalated: tuple[float, float, float] = (3.0, 3.0, -1.8)
    bound_inflation: float = 0.05
    # max rate of change of the active time gap (s of gap per s of time);
    # a step change in tau_star shifts the spacing target by tau_change x
    # speed metres at once, so the harness slews toward the decided value
    tau_star_slew: float = 0.02

    def __post_init__(self):
        if not (self.accepted_change_T_L > 0 and self.accepted_change_K_L > 0):
            raise ValueError("accepted changes must be positive")
        if not self.tau_star_escalated > 0:
            raise ValueError("tau_star_escalated must be positive")
        if not self.bound_inflation > 0:
            raise ValueError("bound_inflation must be positive")
        if not self.tau_star_slew > 0:
            raise ValueError("tau_star_slew must be positive")


@dataclass
class StrategyDecision:
    anomaly: bool
    stability_verdict: stability.StabilityVerdict | None
    action: Action
    new_config: ControllerConfig
    rationale: list[str] = field(default_factory=list)


def check_bounds(
    estimate: PosteriorEstimate,
    baseline: tuple[float, float],
    policy: MonitorPolicy,
) -> tuple[bool, dict[str, bool]]:
    """Flag parameters whose posterior mean left the accepted band around
    the baseline (K_L, T_L)."""
    base_K, base_T = baseline
    flag_K = abs(estimate.K_L - base_K) > policy.accepted_change_K_L
    flag_T = abs(estimate.T_L - base_T) > policy.accepted_change_T_L
    return flag_K or flag_T, {"K_L": flag_K, "T_L": flag_T}


def _candidate_config(
    cfg: ControllerConfig, estimate: PosteriorEstimate, policy: MonitorPolicy
) -> ControllerConfig:
    """Lower-level update: nominals at the posterior mean, bounds
    re-centered with half-width max(bound_inflation, credible half-width)."""
    half_K = max(policy.bound_inflation,
                 (estimate.credible[0, 1] - estimate.credible[0, 0]) / 2)
    half_T = max(policy.bound_inflation,
                 (estimate.credible[1, 1] - estimate.credible[1, 0]) / 2)
    K, T = estimate.K_L, estimate.T_L
    return replace(
        cfg,
        K_L_nominal=K, T_L_nominal=T,
        K_L_bounds=(max(K - half_K, 1e-3), K + half_K),
        T_L_bounds=(max(T - half_T, 1e-3), T + half_T),
    )


def _escalate(cfg: ControllerConfig, policy: MonitorPolicy) -> tuple[ControllerConfig, Action]:
    choice = policy.escalation_choice
    did_tau = did_gains = False
    if choice in (Escalation.TIME_GAP, Escalation.BOTH):
        if policy.tau_star_escalated > cfg.tau_star:  # already escalated otherwise
            cfg = replace(cfg, tau_star=policy.tau_star_escalated)
            did_tau = True
    if choice in (Escalation.GAINS, Escalation.BOTH):
        ks, kv, ka = policy.gains_escalated
        if (ks, kv, ka) != (cfg.k_s, cfg.k_v, cfg.k_a):
            cfg = replace(cfg, k_s=ks, k_v=kv, k_a=ka)
            did_gains = True
    if did_tau and did_gains:
        return cfg, Action.UPDATE_LOWER_AND_BOTH
    if did_tau:
        return cfg, Action.UPDATE_LOWER_AND_TIME_GAP
    if did_gains:
        return cfg, Action.UPDATE_LOWER_AND_GAINS
    return cfg, Action.UPDATE_LOWER


def evaluate(
    estimate: PosteriorEstimate,
    current_cfg: ControllerConfig,
    policy: MonitorPolicy,
) -> StrategyDecision:
    """Decide what (if anything) to adjust given a fresh estimate.

    An anomaly is a boundary crossing relative to the current nominals, or
    a stability violation at the new estimates (the latter takes
    precedence and forces escalation even inside the accepted band).
    Low-confidence estimates are never acted on, and neither are estimates
    from which no valid configuration can be built.
    """
    rationale: list[str] = []
    if estimate.low_confidence:
        rationale.append("estimate flagged low-confidence; no action")
        return StrategyDecision(False, None, Action.NONE, current_cfg, rationale)
    try:
        candidate = _candidate_config(current_cfg, estimate, policy)
    except ValueError as exc:
        rationale.append(
            f"no valid configuration from estimate (K_L={estimate.K_L:.6g}, "
            f"T_L={estimate.T_L:.6g}): {exc}; no action")
        return StrategyDecision(False, None, Action.NONE, current_cfg, rationale)

    baseline = (current_cfg.K_L_nominal, current_cfg.T_L_nominal)
    crossed, flags = check_bounds(estimate, baseline, policy)
    if crossed:
        rationale.append(
            "boundary crossing: "
            + ", ".join(p for p, f in flags.items() if f)
            + f" left the accepted band around nominals {baseline}"
        )

    verdict = stability.assess(candidate)
    stable = verdict.locally_stable and verdict.string_stable
    if not stable:
        rationale.append(
            "stability violation at updated estimates "
            f"(K_L={estimate.K_L:.3f}, T_L={estimate.T_L:.3f}); "
            "holds precedence over the boundary analysis"
        )

    if not crossed and stable:
        rationale.append("estimate within accepted band and stable; no action")
        return StrategyDecision(False, verdict, Action.NONE, current_cfg, rationale)

    if stable:
        rationale.append("candidate configuration stable: lower-level update only")
        return StrategyDecision(True, verdict, Action.UPDATE_LOWER, candidate, rationale)

    new_cfg, action = _escalate(candidate, policy)
    rationale.append(f"escalation: {policy.escalation_choice.value}")
    return StrategyDecision(True, verdict, action, new_cfg, rationale)


def apply_decision(cfg: ControllerConfig, decision: StrategyDecision) -> ControllerConfig:
    """Return the adjusted configuration, refusing an escalation that
    shrinks a gain or does not increase the time gap."""
    if decision.action is Action.NONE:
        return cfg
    new = decision.new_config
    if decision.action in (Action.UPDATE_LOWER_AND_GAINS, Action.UPDATE_LOWER_AND_BOTH):
        for name in ("k_s", "k_v", "k_a"):
            if abs(getattr(new, name)) < abs(getattr(cfg, name)):
                raise DecisionError(f"gain escalation must not shrink |{name}|")
    if decision.action in (Action.UPDATE_LOWER_AND_TIME_GAP, Action.UPDATE_LOWER_AND_BOTH):
        if new.tau_star <= cfg.tau_star:
            raise DecisionError("time-gap escalation must increase tau_star")
    return new
