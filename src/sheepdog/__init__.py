"""Deterministic sheepdog shepherding simulator with tour-planned guidance."""
from .dog import (
    DogParams,
    SteeringCommand,
    approach_velocity,
    dog_velocity,
    farthest_from,
    nearest_to_dog,
    steering_command,
)
from .experiments import (
    BatchSummary,
    TrialRecord,
    run_batch,
    run_trial,
    summarize,
)
from .flock import FlockState, SheepParams, flock_velocities, step_flock
from .guidance import (
    GuidanceMode,
    GuidancePhase,
    RunRecord,
    goal_reached,
    run_fat,
    run_proposed,
)
from .placement import initial_placement, placement_radius, prepare_start_state, warmup
from .routing import (
    RlsConfig,
    RlsResult,
    STRATEGIES,
    Tour,
    TourInstance,
    brute_force_tour,
    mutate,
    random_tour,
    rls_optimize,
    tour_cost,
)
from .scenario import GoalSpec, ScenarioConfig, default_scenario, parse_config, stream_seed

__version__ = "0.1.0"

__all__ = [
    "BatchSummary",
    "DogParams",
    "FlockState",
    "GoalSpec",
    "GuidanceMode",
    "GuidancePhase",
    "RlsConfig",
    "RlsResult",
    "RunRecord",
    "STRATEGIES",
    "ScenarioConfig",
    "SheepParams",
    "SteeringCommand",
    "Tour",
    "TourInstance",
    "TrialRecord",
    "approach_velocity",
    "brute_force_tour",
    "default_scenario",
    "dog_velocity",
    "farthest_from",
    "flock_velocities",
    "goal_reached",
    "initial_placement",
    "mutate",
    "nearest_to_dog",
    "parse_config",
    "placement_radius",
    "prepare_start_state",
    "random_tour",
    "rls_optimize",
    "run_batch",
    "run_fat",
    "run_proposed",
    "run_trial",
    "steering_command",
    "step_flock",
    "stream_seed",
    "summarize",
    "tour_cost",
    "warmup",
]
