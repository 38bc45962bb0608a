"""Car-following simulation with real-time uncertainty quantification.

Simulates a leader-follower pair under a linear spacing controller with
first-order actuation dynamics, estimates the dynamics parameters online
via stochastic-gradient Langevin sampling, and monitors local/string
stability to trigger controller adjustments.
"""
from .plant import (
    ControllerConfig,
    PlantParams,
    Trajectory,
    VehicleState,
    simulate,
)
from .stability import StabilityVerdict, assess
from .estimator import (
    GaussianPrior,
    ObservationBatch,
    PosteriorEstimate,
    SgldHyper,
    sgld_run,
    update_prior,
)
from .monitor import Action, Escalation, MonitorPolicy, StrategyDecision
from .harness import RunReport, ScenarioConfig, default_scenario, run_closed_loop

__version__ = "0.1.0"
